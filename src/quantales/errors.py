"""Exception types shared across the package, and the check result type.

Construction-time validators raise; check_* style operations return results
instead and never raise on mathematical falsity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LawCheck:
    'An exhaustive check: ok, or the first law that fails and its witness.'

    ok: bool
    law: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


class AlgebraError(Exception):
    'Base class for algebra-level contract violations.'


class NotAPartialOrder(AlgebraError):
    pass


class NotALattice(AlgebraError):
    pass


class NotAClosureOperator(AlgebraError):
    pass


class NotMeetClosed(AlgebraError):
    pass


class NotACongruence(AlgebraError):
    pass


class NotAFrame(AlgebraError):
    pass


class QuantaleLawError(AlgebraError):
    'A quantale construction law failed; message carries the first witness.'


class NotAssociative(QuantaleLawError):
    pass


class NotDistributive(QuantaleLawError):
    pass


class NotInvolutive(QuantaleLawError):
    pass


class UnitLawFails(QuantaleLawError):
    pass


class SupportLawFails(QuantaleLawError):
    'An explicit support table failed one of the support axioms.'


class NoStableSupport(AlgebraError):
    pass


class SupportLocaleLawFails(AlgebraError):
    pass


class InvalidGroupoid(AlgebraError):
    pass


class NotJoinPreserving(AlgebraError):
    pass


class InternalValidationFailed(AlgebraError):
    'A theorem-backed revalidation failed; signals a bug, not bad input.'


class DepthExceeded(AlgebraError):
    'A graded operation needed a word longer than the configured depth.'


class FrontendError(Exception):
    'Base class for parsing and model-building failures.'


class ParseError(FrontendError):
    'Syntax error with position and the token classes that were expected.'

    def __init__(self, message, line, col, expected=()):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
        self.expected = frozenset(expected)


class UndeclaredWorld(FrontendError):
    pass


class ModelFormatError(FrontendError):
    pass


class NotComplemented(AlgebraError):
    'Classical evaluation hit a subformula value with no complement below e.'

    def __init__(self, message, subformula=None):
        super().__init__(message)
        self.subformula = subformula


class TimeEnds(AlgebraError):
    'The point of a temporal model has support strictly below the unit.'


class NotANucleus(AlgebraError):
    pass


class NotConjugate(AlgebraError):
    pass
