"""One evaluator for all four modes over a supported quantale with a point.

Formula values live in the support locale, the elements below the unit.
That locale is a finite frame, so each value v is stored as the bitmask
of the join-irreducibles below it (quantale.support_irreducibles, one per
world of a relation or groupoid model), in relations.LocaleMasks, the
one mask view of the locale: join is |, meet is &, and every mask the
evaluator makes is a down-set, the mask of exactly one element.  A point
or program a acts on the locale as the join-preserving map <a>v =
s(a v), stored as its table on the irreducibles (quantale.diamond_table,
read without a product of whole elements): <a>v ORs the table over the
bits of v (relations.diamond_image), the one diamond construction.

- <a;b> = <a> o <b>, by stability s(a b v) = s(a s(b v)); <a u b> =
  <a> v <b>; <phi?>v = phi ^ v; <a*>v and EF are least fixpoints of
  X |-> v v <a>X, found by a worklist of the irreducibles new to X; EG is
  the greatest fixpoint of X |-> v ^ <alpha>X, from v downward.
- The Heyting residual a -> b is the set of irreducibles whose down-sets
  meet a only inside b, negation is a -> bottom, and the intuitionistic
  box is the right adjoint of <alpha->: the irreducibles j with
  <alpha->j <= y.
- Each mode admits the connectives listed for it in formulas.MODE_NODES.
  Classical, temporal and dynamic modes interpret negation by
  complements, failing with NotComplemented (naming the offending
  subformula) when one is missing, and read conjunction, implication, the
  box and the A-forms as abbreviations; intuitionistic mode reads
  conjunction as multiplication, which is meet below the unit.

A formula is translated once per mode, with its mode check and its
abbreviations, into closures over a model (translate); a model reads each
diamond table once, and PointedModel.revalued shares the locale and the
tables already read with the same point under another valuation, so a
sweep over valuations pays bit operations per model.  eval_program still
returns the program's element through the quantale operations.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from operator import and_
from types import MappingProxyType

from .errors import NotComplemented, Record, TimeEnds
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
from .relations import LocaleMasks, diamond_image, require_support


class PointedModel(Record):
    """A supported quantale, a point element, and atom valuations.

    programs maps program letters to elements, none by default.
    world_atoms, when present, names the support atoms (one per world of a
    relation or groupoid model) so front ends can print value sets; the
    evaluators never use it.  Unlike other records a model is mutable and
    unhashable; it is compared by these fields alone.
    """

    _fields = ("quantale", "alpha", "valuation", "mode", "programs",
               "world_atoms")
    _defaults = {"programs": MappingProxyType({}), "world_atoms": ()}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        require_support(self.quantale)
        self._locale = LocaleMasks(self.quantale)
        self._tables = {}
        self._check()

    def _check(self):
        q = self.quantale
        for name, v in self.valuation.items():
            if not q.leq(v, q.unit):
                raise ValueError(f"atom {name!r} is valued outside the support locale")
        if self.mode is Mode.CTL and q.support(self.alpha) != q.unit:
            raise TimeEnds("the point must have total support in temporal models")
        self._masks = {name: q.locale_mask(v)
                       for name, v in self.valuation.items()}
        if self.mode is not Mode.INTUITIONISTIC:
            for name, v in self._masks.items():
                if self._locale.complement(v) is None:
                    raise NotComplemented(
                        f"atom {name!r} has no complement below the unit",
                        Atom(name))

    def revalued(self, valuation: Mapping[str, int]) -> "PointedModel":
        """The same point and programs under another valuation, checked as
        a new model is.  The locale and the diamond tables read so far are
        shared with this model, so a point's table is read once however
        many valuations it is evaluated under."""
        # a shallow copy, which shares the locale and the table memo;
        # copy.copy's reduce protocol would double the cost per model
        model = object.__new__(PointedModel)
        vars(model).update(vars(self), valuation=valuation)
        model._check()
        return model

    def table(self, a: int, converse: bool = False) -> tuple[int, ...]:
        'The diamond table of a (or of its converse), read once per model.'
        key = a, converse
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self.quantale.diamond_table(a, converse)
        return table

    def atom_value(self, name: str) -> int:
        return self.valuation.get(name, self.quantale.bottom)

    def program_value(self, name: str) -> int:
        return self.programs.get(name, self.quantale.bottom)


def complement_in_locale(q, b: int):
    'The complement of b <= e, or None: b -> bottom, if it joins b to e.'
    if not q.leq(b, q.unit):
        raise ValueError(f"element {b} is outside the support locale")
    c = LocaleMasks(q).complement(q.locale_mask(b))
    return None if c is None else q.locale_element(c)


def op_star(q, a: int) -> int:
    """Join of all finite powers of a, including the unit, by squaring
    x = e v a until x x = x.  This is exact in any unital quantale: e
    and a commute, so the 2^k-th power of e v a is the join of the powers
    a^i for i <= 2^k, and an x with x x = x that is above e and a is
    above every power.  So it takes about log2 of the longest power
    needed in products, not one product per power."""
    x = q.join(q.unit, a)
    while True:
        square = q.mul(x, x)
        if square == x:
            return x
        x = square


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


def _least_fixpoint(table, v: int) -> int:
    """The least X >= v with <a>X <= X, for a's table: each step pushes
    only the irreducibles new to X, which is exact as <a> preserves
    joins, so every irreducible is pushed once."""
    out = new = v
    while new:
        new = diamond_image(table, new) & ~out
        out |= new
    return out


def _greatest_fixpoint(table, v: int) -> int:
    'The greatest X with X = v ^ <a>X, from v downward.'
    cur = v
    while True:
        nxt = v & diamond_image(table, cur)
        if nxt == cur:
            return cur
        cur = nxt


def translate(f: Formula, mode: Mode):
    """f as a function from a model of the mode to the mask of its value.

    Each abbreviation is expanded here, once.  Children run left to right
    and a program before the formula under it, and a node outside the
    mode raises its TypeError when it is reached, so the first error is
    the one a recursive walk of the tree raises."""
    nodes = MODE_NODES[mode]
    heyting = mode is Mode.INTUITIONISTIC

    def refuse(message):
        def run(m):
            raise TypeError(message)
        return run

    def formula(f):
        if not isinstance(f, nodes):
            return refuse(
                f"connective not available in {mode.value} mode: {f!r}")
        if isinstance(f, Atom):
            name = f.name
            return lambda m: m._masks.get(name, 0)
        if isinstance(f, ProgDiamond):
            prog, sub = program(f.prog), formula(f.sub)
            return lambda m: prog(m)(sub(m))
        if isinstance(f, Not):
            sub, node = formula(f.sub), f.sub
            if heyting:
                return lambda m: m._locale.residual(sub(m), 0)

            def complement(m):
                c = m._locale.complement(sub(m))
                if c is None:
                    raise NotComplemented(f"value of {to_text(node)!r} has no "
                                          "complement below the unit", node)
                return c
            return complement
        if isinstance(f, Or):
            left, right = formula(f.left), formula(f.right)
            return lambda m: left(m) | right(m)
        if heyting and isinstance(f, And):
            # conjunction is multiplication, which is meet below the unit
            left, right = formula(f.left), formula(f.right)
            return lambda m: left(m) & right(m)
        if heyting and isinstance(f, Implies):
            left, right = formula(f.left), formula(f.right)
            return lambda m: m._locale.residual(left(m), right(m))
        if heyting and isinstance(f, Box):
            # the right adjoint of the diamond along the converse point
            sub = formula(f.sub)
            return lambda m: _box(m.table(m.alpha, True), sub(m))
        if isinstance(f, Diamond) or isinstance(f, Temporal) and f.op == "EX":
            sub = formula(f.sub)
            return lambda m: diamond_image(m.table(m.alpha), sub(m))
        if isinstance(f, Temporal) and f.op not in _DUALS:
            sub = formula(f.sub)
            fixpoint = _least_fixpoint if f.op == "EF" else _greatest_fixpoint
            return lambda m: fixpoint(m.table(m.alpha), sub(m))
        return formula(_abbreviation(f))

    def program(p):
        'p as a function from a model to the map <p> on masks.'
        if isinstance(p, PAtom):
            name = p.name
            return lambda m: partial(
                diamond_image, m.table(m.program_value(name)))
        if isinstance(p, PSeq):
            left, right = program(p.left), program(p.right)
            return lambda m: _compose(left(m), right(m))
        if isinstance(p, PChoice):
            left, right = program(p.left), program(p.right)
            return lambda m: _either(left(m), right(m))
        if isinstance(p, PStar):
            # the body's map is tabulated, so each step of the fixpoint
            # pushes one irreducible through one table entry
            sub = program(p.sub)
            return lambda m: partial(_least_fixpoint, tuple(
                map(sub(m), m._locale.below)))
        if isinstance(p, PTest):
            test = formula(p.formula)
            return lambda m: partial(and_, test(m))
        return refuse(f"not a program: {p!r}")

    return formula(f)


def _box(table, y: int) -> int:
    'The irreducibles j with <a>j <= y, for a\'s table: the right adjoint.'
    return sum(1 << i for i, t in enumerate(table) if not t & ~y)


def _compose(a, b):
    return lambda v: a(b(v))


def _either(a, b):
    return lambda v: a(v) | b(v)


def evaluate(model: PointedModel, f: Formula) -> int:
    'The value of f below the unit, read in the model\'s own mode.'
    mask = translate(f, model.mode)(model)
    return model.quantale.locale_element(mask)


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
    return validity_test(f, model.mode)(model)


def validity_test(f: Formula, mode: Mode):
    """valid_in_model(model, f) as a function of models of the mode, with
    f translated once for all of them."""
    run = translate(f, mode)

    def valid(model: PointedModel) -> bool:
        _in_mode(model, mode)
        return run(model) == model._locale.full
    return valid
