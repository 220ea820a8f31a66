"""Formula and program syntax trees, modes, and the printer.

Every node is an errors.Record: frozen, compared and hashed by its
fields, and printed as `Atom(name='p')`.

MODE_NODES lists the connectives each mode admits, and each mode fixes
which of them are primitive: classical takes negation, disjunction and
the diamond, with conjunction, implication and the box as abbreviations;
the temporal mode takes EX, EF, EG with the A-forms as abbreviations;
the dynamic mode indexes diamonds by programs.  The printer emits the
concrete syntax the parser accepts, with minimal parentheses.
"""

from __future__ import annotations

import enum

from .errors import Record


class Mode(enum.Enum):
    CLASSICAL = "classical"
    INTUITIONISTIC = "intuitionistic"
    CTL = "ctl"
    PDL = "pdl"


class Formula(Record):
    __slots__ = ()


class Program(Record):
    __slots__ = ()


class Atom(Formula):
    __slots__ = _fields = ("name",)


class Not(Formula):
    __slots__ = _fields = ("sub",)


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = ("left", "right")


class Diamond(Formula):
    __slots__ = _fields = ("sub",)


class Box(Formula):
    __slots__ = _fields = ("sub",)


TEMPORAL_OPS = ("EX", "EF", "EG", "AX", "AF", "AG")


class Temporal(Formula):
    __slots__ = _fields = ("op", "sub")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.op not in TEMPORAL_OPS:
            raise ValueError(f"unknown temporal operator {self.op!r}")


class ProgDiamond(Formula):
    __slots__ = _fields = ("prog", "sub")


class PAtom(Program):
    __slots__ = _fields = ("name",)


class PSeq(Program):
    __slots__ = _fields = ("left", "right")


class PChoice(Program):
    __slots__ = _fields = ("left", "right")


class PStar(Program):
    __slots__ = _fields = ("sub",)


class PTest(Program):
    __slots__ = _fields = ("formula",)


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
