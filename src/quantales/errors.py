"""Exception types shared across the package, the check result type, and
Record, the base of the package's value types.

Construction-time validators raise; check_* style operations return results
instead and never raise on mathematical falsity.
"""

from __future__ import annotations


class Record:
    """A value type whose fields a subclass names once, in order, in the
    tuple _fields; a subclass that keeps no __dict__ gives the same tuple
    as its __slots__.

    The constructor takes the fields by position or by keyword, with
    _defaults for those left out; a subclass that checks its fields
    extends __init__.  Two records are equal when they are of one class
    with equal fields, a record hashes as its field tuple, and its repr
    is `Name(field=value, ...)`.  The fields are frozen: assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected "
                            f"arguments {', '.join(map(repr, kwargs))}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"a {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"a {type(self).__name__} is frozen")


class LawCheck(Record):
    'An exhaustive check: ok, or the first law that fails and its witness.'

    __slots__ = _fields = ("ok", "law", "witness")
    _defaults = {"law": None, "witness": None}

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
