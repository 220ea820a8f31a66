"""One evaluator for all four modes over a supported quantale with a point.

Formula values live below the unit; program values roam the whole
quantale.  Each mode admits the connectives listed for it in
formulas.MODE_NODES, and every diamond is s(a.v) for its point or
program a.  Classical, temporal and dynamic modes interpret negation by
complements in the support locale, failing with NotComplemented (naming
the offending subformula) when one is missing, and read conjunction,
implication, the box and the A-forms as abbreviations; intuitionistic
mode reads conjunction as multiplication, implication and negation as
the Heyting residual and the box as a right adjoint.  These and complements
are joins over the locale's irreducibles, one per world (lattice.right_adjoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import NotComplemented, TimeEnds
from .formulas import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Implies,
    MODE_NODES,
    Mode,
    Not,
    Or,
    PAtom,
    PChoice,
    Program,
    ProgDiamond,
    PSeq,
    PStar,
    PTest,
    Temporal,
    to_text,
)
from .lattice import right_adjoint


@dataclass
class PointedModel:
    """A supported quantale, a point element, and atom valuations.

    world_atoms, when present, names the support atoms (one per world of a
    relation or groupoid model) so front ends can print value sets; the
    evaluators never use it.
    """

    quantale: object
    alpha: int
    valuation: Mapping[str, int]
    mode: Mode
    programs: Mapping[str, int] = field(default_factory=dict)
    world_atoms: tuple = ()

    def __post_init__(self):
        q = self.quantale
        for name, v in self.valuation.items():
            if not q.leq(v, q.unit):
                raise ValueError(f"atom {name!r} is valued outside the support locale")
        if self.mode == Mode.CTL and q.support(self.alpha) != q.unit:
            raise TimeEnds("the point must have total support in temporal models")
        if self.mode in (Mode.CLASSICAL, Mode.CTL, Mode.PDL):
            for name, v in self.valuation.items():
                if complement_in_locale(q, v) is None:
                    raise NotComplemented(
                        f"atom {name!r} has no complement below the unit",
                        Atom(name))

    def atom_value(self, name: str) -> int:
        return self.valuation.get(name, self.quantale.bottom)

    def program_value(self, name: str) -> int:
        return self.programs.get(name, self.quantale.bottom)


def _residual(q, a: int, b: int) -> int:
    'Heyting residual a -> b: the right adjoint of c |-> a ^ c below the unit.'
    return right_adjoint(q, q.support_irreducibles, lambda c: q.meet(a, c), b)


def complement_in_locale(q, b: int):
    'The complement of b below the unit, or None: b -> bottom, if it joins b to e.'
    c = _residual(q, b, q.bottom)
    return c if q.join(b, c) == q.unit else None


def op_star(q, a: int) -> int:
    'Join of all finite powers of a, including the unit.'
    out = q.unit
    while True:
        nxt = q.join(out, q.mul(out, a))
        if nxt == out:
            return out
        out = nxt


def _in_mode(model: PointedModel, expected: Mode) -> PointedModel:
    if model.mode != expected:
        raise ValueError(f"model is in {model.mode.value} mode, not {expected.value}")
    return model


def eval_classical(model: PointedModel, f: Formula) -> int:
    return evaluate(_in_mode(model, Mode.CLASSICAL), f)


def eval_intuitionistic(model: PointedModel, f: Formula) -> int:
    return evaluate(_in_mode(model, Mode.INTUITIONISTIC), f)


def eval_ctl(model: PointedModel, f: Formula) -> int:
    return evaluate(_in_mode(model, Mode.CTL), f)


def eval_pdl(model: PointedModel, f: Formula) -> int:
    return evaluate(_in_mode(model, Mode.PDL), f)


def eval_program(model: PointedModel, p: Program) -> int:
    return _eval_prog(_in_mode(model, Mode.PDL), p)


# the E-form each A-form is the negated dual of
_DUALS = {"AX": "EX", "AG": "EF", "AF": "EG"}


def _abbreviation(f: Formula) -> Formula:
    'What a derived connective stands for outside intuitionistic mode.'
    if isinstance(f, And):
        return Not(Or(Not(f.left), Not(f.right)))
    if isinstance(f, Implies):
        return Or(Not(f.left), f.right)
    if isinstance(f, Box):
        return Not(Diamond(Not(f.sub)))
    return Not(Temporal(_DUALS[f.op], Not(f.sub)))


def evaluate(model: PointedModel, f: Formula) -> int:
    'The value of f below the unit, read in the model\'s own mode.'
    q = model.quantale
    nodes = MODE_NODES[model.mode]
    heyting = model.mode is Mode.INTUITIONISTIC

    def ev(f):
        if not isinstance(f, nodes):
            raise TypeError(
                f"connective not available in {model.mode.value} mode: {f!r}")
        if isinstance(f, Atom):
            return model.atom_value(f.name)
        if isinstance(f, Or):
            return q.join(ev(f.left), ev(f.right))
        if isinstance(f, Diamond):
            return q.support(q.mul(model.alpha, ev(f.sub)))
        if isinstance(f, ProgDiamond):
            return q.support(q.mul(_eval_prog(model, f.prog), ev(f.sub)))
        if isinstance(f, Not):
            v = ev(f.sub)
            c = _residual(q, v, q.bottom)
            if heyting or q.join(v, c) == q.unit:
                return c
            raise NotComplemented(f"value of {to_text(f.sub)!r} has no "
                                  "complement below the unit", f.sub)
        if heyting:
            if isinstance(f, And):
                # conjunction is multiplication, which is meet below the unit
                return q.mul(ev(f.left), ev(f.right))
            if isinstance(f, Implies):
                return _residual(q, ev(f.left), ev(f.right))
            # Box: the right adjoint of the diamond along the converse point
            ainv = q.inv(model.alpha)
            return right_adjoint(q, q.support_irreducibles,
                                 lambda x: q.support(q.mul(ainv, x)), ev(f.sub))
        if isinstance(f, Temporal) and f.op not in _DUALS:
            v = ev(f.sub)
            if f.op == "EX":
                return q.support(q.mul(model.alpha, v))
            if f.op == "EF":
                return q.support(q.mul(op_star(q, model.alpha), v))
            # EG: greatest fixed point of a |-> v ^ s(alpha a), from v downward
            cur = v
            while True:
                nxt = q.meet(v, q.support(q.mul(model.alpha, cur)))
                if nxt == cur:
                    return cur
                cur = nxt
        return ev(_abbreviation(f))

    return ev(f)


def _eval_prog(model, p):
    q = model.quantale
    if isinstance(p, PAtom):
        return model.program_value(p.name)
    if isinstance(p, PSeq):
        return q.mul(_eval_prog(model, p.left), _eval_prog(model, p.right))
    if isinstance(p, PChoice):
        return q.join(_eval_prog(model, p.left), _eval_prog(model, p.right))
    if isinstance(p, PStar):
        return op_star(q, _eval_prog(model, p.sub))
    if isinstance(p, PTest):
        return evaluate(model, p.formula)
    raise TypeError(f"not a program: {p!r}")


def valid_in_model(model: PointedModel, f: Formula) -> bool:
    'A formula is valid when its value is the whole unit.'
    return evaluate(model, f) == model.quantale.unit
