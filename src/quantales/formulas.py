"""Formula and program syntax trees, modes, and the printer.

MODE_NODES lists the connectives each mode admits, and each mode fixes
which of them are primitive: classical takes negation, disjunction and
the diamond, with conjunction, implication and the box as abbreviations;
the temporal mode takes EX, EF, EG with the A-forms as abbreviations;
the dynamic mode indexes diamonds by programs.  The printer emits the
concrete syntax the parser accepts, with minimal parentheses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Mode(enum.Enum):
    CLASSICAL = "classical"
    INTUITIONISTIC = "intuitionistic"
    CTL = "ctl"
    PDL = "pdl"


class Formula:
    __slots__ = ()


class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


TEMPORAL_OPS = ("EX", "EF", "EG", "AX", "AF", "AG")


@dataclass(frozen=True)
class Temporal(Formula):
    op: str
    sub: Formula

    def __post_init__(self):
        if self.op not in TEMPORAL_OPS:
            raise ValueError(f"unknown temporal operator {self.op!r}")


@dataclass(frozen=True)
class ProgDiamond(Formula):
    prog: Program
    sub: Formula


@dataclass(frozen=True)
class PAtom(Program):
    name: str


@dataclass(frozen=True)
class PSeq(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class PChoice(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class PStar(Program):
    sub: Program


@dataclass(frozen=True)
class PTest(Program):
    formula: Formula


# The connectives each mode admits; the parser and the evaluator both read it.
MODE_NODES = {
    Mode.CLASSICAL: (Atom, Not, And, Or, Implies, Diamond, Box),
    Mode.INTUITIONISTIC: (Atom, Not, And, Or, Implies, Diamond, Box),
    Mode.CTL: (Atom, Not, And, Or, Implies, Temporal),
    Mode.PDL: (Atom, Not, And, Or, Implies, ProgDiamond),
}


# precedence levels, loosest first
_IMP, _OR, _AND, _UNARY, _ATOM = range(5)


def _level(f: Formula) -> int:
    if isinstance(f, Atom):
        return _ATOM
    if isinstance(f, Implies):
        return _IMP
    if isinstance(f, Or):
        return _OR
    if isinstance(f, And):
        return _AND
    return _UNARY


def to_text(f: Formula) -> str:
    return _fmt(f, _IMP)


def _fmt(f: Formula, minimum: int) -> str:
    lv = _level(f)
    if isinstance(f, Atom):
        out = f.name
    elif isinstance(f, Not):
        out = "~" + _fmt(f.sub, _UNARY)
    elif isinstance(f, Diamond):
        out = "<>" + _fmt(f.sub, _UNARY)
    elif isinstance(f, Box):
        out = "[]" + _fmt(f.sub, _UNARY)
    elif isinstance(f, Temporal):
        out = f.op + " " + _fmt(f.sub, _UNARY)
    elif isinstance(f, ProgDiamond):
        out = "<" + prog_to_text(f.prog) + ">" + _fmt(f.sub, _UNARY)
    elif isinstance(f, And):
        out = _fmt(f.left, _AND) + " /\\ " + _fmt(f.right, _AND + 1)
    elif isinstance(f, Or):
        out = _fmt(f.left, _OR) + " \\/ " + _fmt(f.right, _OR + 1)
    elif isinstance(f, Implies):
        out = _fmt(f.left, _IMP + 1) + " -> " + _fmt(f.right, _IMP)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if lv < minimum:
        return "(" + out + ")"
    return out


_PCHOICE, _PSEQ, _PPOST, _PATOM = range(4)


def _plevel(p: Program) -> int:
    if isinstance(p, PAtom):
        return _PATOM
    if isinstance(p, PChoice):
        return _PCHOICE
    if isinstance(p, PSeq):
        return _PSEQ
    return _PPOST


def prog_to_text(p: Program) -> str:
    return _pfmt(p, _PCHOICE)


def _pfmt(p: Program, minimum: int) -> str:
    lv = _plevel(p)
    if isinstance(p, PAtom):
        out = p.name
    elif isinstance(p, PStar):
        out = _pfmt(p.sub, _PPOST) + "*"
    elif isinstance(p, PTest):
        if isinstance(p.formula, Atom):
            out = p.formula.name + "?"
        else:
            out = "(" + to_text(p.formula) + ")?"
    elif isinstance(p, PSeq):
        out = _pfmt(p.left, _PSEQ) + " ; " + _pfmt(p.right, _PSEQ + 1)
    elif isinstance(p, PChoice):
        out = _pfmt(p.left, _PCHOICE) + " u " + _pfmt(p.right, _PCHOICE + 1)
    else:
        raise TypeError(f"not a program: {p!r}")
    if lv < minimum:
        return "(" + out + ")"
    return out


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset([f.name])
    out = frozenset()
    for attr in ("sub", "left", "right"):
        child = getattr(f, attr, None)
        if isinstance(child, Formula):
            out |= atoms_of(child)
    if isinstance(f, ProgDiamond):
        out |= _prog_atoms(f.prog)
    return out


def _prog_atoms(p: Program) -> frozenset[str]:
    if isinstance(p, PTest):
        return atoms_of(p.formula)
    out = frozenset()
    for attr in ("sub", "left", "right"):
        child = getattr(p, attr, None)
        if isinstance(child, Program):
            out |= _prog_atoms(child)
    return out
