"""Right adjoints from join-irreducibles, against joins over every element.

lattice.right_adjoint joins only the irreducibles of the support locale
(one per world on a relation model), and the evaluator reads residuals,
complements and boxes off bitmasks of the same irreducibles.  The
references in oracles.py join every element, as the residual, the
complement and the box were once computed; the two must agree wherever
the adjoint's precondition holds.  The evaluator as a whole is held to
the recursive evaluator of oracles.py and to the Kripke oracles.
"""

import random

import pytest

import gen
import quantales.relations
from gen import goedel_chain, pair2_z2_quantale, s3_quantale
from oracles import (
    box_adjoints_by_joins,
    evaluate_by_recursion,
    lattice_residual_by_joins,
    locale_box_by_joins,
    locale_complement_by_joins,
    locale_residual_by_joins,
    oracle_classical,
    oracle_ctl,
    oracle_pdl,
)
from quantales.bimodal import box_adjoints, conjugate_pairs
from quantales.errors import NotComplemented
from quantales.formulas import (
    And, Atom, Box, Diamond, Formula, Implies, Mode, Not, Or, PAtom, PSeq,
    PStar, PTest, Program, ProgDiamond, Temporal, to_text,
)
from quantales.lattice import chain_lattice
from quantales.quantale import relation_quantale, supports_locale
from quantales.parsing import build, parse_model
from quantales.relations import RelationQuantale, decode, encode
from quantales.semantics import PointedModel, complement_in_locale, evaluate


# --- the lattice residual and the box adjoints ----------------------------

def test_lattice_residual_matches_the_join_over_every_element(small_frames):
    for L in small_frames:
        for b in range(L.n):
            for a in range(L.n):
                assert L.residual(b, a) == lattice_residual_by_joins(L, b, a)


@pytest.mark.parametrize(
    "L", [supports_locale(relation_quantale("ab")).lattice, chain_lattice(2),
          chain_lattice(3)], ids=["loc2", "chain2", "chain3"])
def test_box_adjoints_match_the_join_over_every_element(L):
    pairs = list(conjugate_pairs(L))
    assert pairs
    for dia, bdia in pairs:
        assert box_adjoints(L, dia, bdia) == box_adjoints_by_joins(L, dia, bdia)


# --- the evaluator's negation, implication and box ------------------------

def _subformulas(x):
    'Every formula node of a formula or program, tests included.'
    if isinstance(x, Formula):
        yield x
    for name in x._fields:
        child = getattr(x, name)
        if isinstance(child, (Formula, Program)):
            yield from _subformulas(child)


def _expected(m, g):
    """The value of a ~, -> or [] node from its children's values, through
    the join references; raises NotComplemented as the evaluator does,
    reading classical -> and [] as their abbreviations."""
    q = m.quantale
    heyting = m.mode is Mode.INTUITIONISTIC

    def neg(v, node):
        if heyting:
            return locale_residual_by_joins(q, v, q.bottom)
        c = locale_complement_by_joins(q, v)
        if c is None:
            raise NotComplemented(
                f"value of {to_text(node)!r} has no complement below the unit",
                node)
        return c

    if isinstance(g, Not):
        return neg(evaluate(m, g.sub), g.sub)
    if isinstance(g, Implies):
        if heyting:
            return locale_residual_by_joins(q, evaluate(m, g.left),
                                            evaluate(m, g.right))
        return q.join(neg(evaluate(m, g.left), g.left), evaluate(m, g.right))
    if heyting:
        return locale_box_by_joins(q, m.alpha, evaluate(m, g.sub))
    inner = neg(evaluate(m, g.sub), g.sub)
    return neg(q.support(q.mul(m.alpha, inner)), Diamond(Not(g.sub)))


def _outcome(run):
    try:
        return run()
    except NotComplemented as exc:
        return ("NotComplemented", str(exc), exc.subformula)


def _check_adjoint_nodes(m, f):
    'Compare every ~, -> and [] node of f; the number of refusals seen.'
    refused = 0
    for g in _subformulas(f):
        if isinstance(g, (Not, Implies, Box)):
            got = _outcome(lambda: evaluate(m, g))
            assert got == _outcome(lambda: _expected(m, g)), to_text(g)
            refused += isinstance(got, tuple)
    return refused


def _check_complements(q):
    for b in q.support_elements():
        assert complement_in_locale(q, b) == locale_complement_by_joins(q, b)


def _relation_model(rng, n, mode):
    q = RelationQuantale(tuple(range(n)))
    worlds = tuple(range(n))
    enc = lambda pairs: encode(pairs, n)
    edges = (gen.total_edges if mode is Mode.CTL else gen.random_edges)(
        rng, worlds)
    val = gen.random_valuation(rng, worlds, "pq")
    return PointedModel(
        q, enc(edges), {a: enc((w, w) for w in ws) for a, ws in val.items()},
        mode, programs={s: enc(gen.random_edges(rng, worlds)) for s in "st"})


@pytest.mark.parametrize("mode", list(Mode))
def test_evaluator_matches_the_joins_on_relation_models(mode):
    rng = random.Random(f"adjoints:{mode.value}")
    for n in range(1, 7):
        for _ in range(10):
            m = _relation_model(rng, n, mode)
            if mode is Mode.CLASSICAL:
                _check_complements(m.quantale)
            f = gen.random_formula(rng, mode, "pq", depth=4, programs="st")
            _check_adjoint_nodes(m, f)


@pytest.mark.parametrize("mode", list(Mode))
def test_evaluator_matches_the_joins_on_the_tabulated_two_worlds(mode):
    q = relation_quantale("ab")
    _check_complements(q)
    rng = random.Random(f"table:{mode.value}")
    diag = q.support_elements()
    for alpha in range(q.n):
        if mode is Mode.CTL and q.support(alpha) != q.unit:
            continue
        m = PointedModel(q, alpha, {a: rng.choice(diag) for a in "pq"}, mode,
                         programs={s: rng.randrange(q.n) for s in "st"})
        for _ in range(3):
            f = gen.random_formula(rng, mode, "pq", depth=4, programs="st")
            _check_adjoint_nodes(m, f)


@pytest.mark.parametrize("make", [relation_quantale, RelationQuantale])
def test_complement_in_locale_refuses_elements_outside_it(make):
    # every element on two worlds: the 4 below the unit have the joins'
    # complement, and the other 12, the top among them, raise
    q = make("ab")
    outside = 0
    for b in range(16):
        if q.leq(b, q.unit):
            assert complement_in_locale(q, b) == \
                locale_complement_by_joins(q, b)
        else:
            with pytest.raises(ValueError, match="outside the support locale"):
                complement_in_locale(q, b)
            outside += 1
    assert outside == 12


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_evaluator_matches_the_joins_on_goedel_chains(k):
    q = goedel_chain(k)
    _check_complements(q)
    rng = random.Random(f"chain:{k}")
    refused = 0
    for mode in Mode:
        # classical valuations must be complemented: bottom or top
        values = range(k) if mode is Mode.INTUITIONISTIC else (0, k - 1)
        points = (k - 1,) if mode is Mode.CTL else range(k)
        for alpha in points:
            for _ in range(6):
                m = PointedModel(q, alpha, {a: rng.choice(values) for a in "pq"},
                                 mode, programs={s: rng.randrange(k) for s in "st"})
                f = gen.random_formula(rng, mode, "pq", depth=4, programs="st")
                refused += _check_adjoint_nodes(m, f)
    if k > 2:
        # a middle point leaves diamonds uncomplemented
        assert refused > 0


# --- no evaluation enumerates the support locale --------------------------

def test_evaluation_never_enumerates_the_support_locale(monkeypatch):
    def refuse(self):
        raise AssertionError("support_elements enumerated during evaluation")

    monkeypatch.setattr(RelationQuantale, "support_elements", refuse)
    rng = random.Random(24)
    worlds = tuple(range(24))
    n = len(worlds)
    enc = lambda pairs: encode(pairs, n)
    edges = gen.total_edges(rng, worlds, density=0.1)
    val = gen.random_valuation(rng, worlds, "pq")
    progs = {s: gen.random_edges(rng, worlds, density=0.1) for s in "st"}
    diag = {a: enc((w, w) for w in ws) for a, ws in val.items()}
    q = RelationQuantale(worlds)

    def model(mode):
        return PointedModel(q, enc(edges), diag, mode,
                            programs={s: enc(e) for s, e in progs.items()})

    def worlds_of(v):
        return frozenset(w for w in worlds if v >> (w * n + w) & 1)

    p, r = Atom("p"), Atom("q")
    modal = (Not(p), Implies(p, Diamond(r)), Box(Not(p)),
             Implies(Box(Implies(p, r)), Not(Diamond(And(p, Not(r))))))
    for mode in (Mode.CLASSICAL, Mode.INTUITIONISTIC):
        # relation supports are Boolean: both modes give the Kripke value
        m = model(mode)
        for f in modal:
            assert worlds_of(evaluate(m, f)) == \
                oracle_classical(worlds, edges, val, f), (mode, to_text(f))
    m = model(Mode.CTL)
    for f in (Temporal("AG", p), Not(Temporal("AG", Implies(p, r))),
              Temporal("AG", Or(Not(p), Temporal("EF", r)))):
        assert worlds_of(evaluate(m, f)) == oracle_ctl(worlds, edges, val, f)
    m = model(Mode.PDL)
    s, t = PAtom("s"), PAtom("t")
    for f in (Not(ProgDiamond(PStar(s), p)),
              Implies(p, Not(ProgDiamond(PSeq(s, t), Not(r)))),
              ProgDiamond(PTest(Not(p)), r)):
        assert worlds_of(evaluate(m, f)) == oracle_pdl(worlds, progs, val, f)


def test_evaluation_takes_no_product_of_relations(monkeypatch):
    # every diamond, box, fixpoint and program reads the columns and rows
    # of its relation; none multiplies two n^2-bit codes
    def refuse(*args):
        raise AssertionError("a relation product was taken during evaluation")

    rng = random.Random(2424)
    worlds = tuple(f"w{i}" for i in range(24))
    edges = gen.total_edges(rng, worlds, density=0.1)
    progs = {s: gen.random_edges(rng, worlds, density=0.1) for s in "ab"}
    val = gen.random_valuation(rng, worlds, "p")

    def document(mode, relations):
        lines = [f"MODE {mode.value}", "WORLDS " + " ".join(worlds)]
        lines += [f"REL {name} " + " ".join(f"({u},{v})" for u, v in sorted(r))
                  for name, r in relations.items()]
        lines.append("VAL p " + " ".join(sorted(val["p"])))
        return build(parse_model("\n".join(lines) + "\n"))

    def worlds_of(v):
        n = len(worlds)
        return frozenset(w for i, w in enumerate(worlds) if v >> (i * n + i) & 1)

    monkeypatch.setattr(RelationQuantale, "mul", refuse)
    monkeypatch.setattr(quantales.relations, "compose", refuse)
    p = Atom("p")
    for mode in (Mode.CLASSICAL, Mode.INTUITIONISTIC):
        # relation supports are Boolean: both modes give the Kripke value
        m = document(mode, {"alpha": edges})
        assert worlds_of(evaluate(m, Box(p))) == \
            oracle_classical(worlds, edges, val, Box(p)), mode
    m = document(Mode.CTL, {"alpha": edges})
    for op in ("EF", "EG"):
        f = Temporal(op, p)
        assert worlds_of(evaluate(m, f)) == oracle_ctl(worlds, edges, val, f)
    m = document(Mode.PDL, {"alpha": edges, **progs})
    f = ProgDiamond(PStar(PSeq(PAtom("a"), PAtom("b"))), p)
    assert worlds_of(evaluate(m, f)) == oracle_pdl(worlds, progs, val, f)


# --- the evaluator against the recursive reference ------------------------

def _check_against_the_reference(m, f):
    """Every subformula of f gives the reference's value, or its
    NotComplemented message and subformula; the number of refusals."""
    refused = 0
    for g in _subformulas(f):
        got = _outcome(lambda: evaluate(m, g))
        assert got == _outcome(lambda: evaluate_by_recursion(m, g)), to_text(g)
        refused += isinstance(got, tuple)
    return refused


def _diagonal_worlds(v, n):
    return frozenset(w for w in range(n) if v >> (w * n + w) & 1)


@pytest.mark.parametrize("mode", list(Mode))
def test_evaluator_matches_the_reference_on_relation_models(mode):
    rng = random.Random(f"reference:{mode.value}")
    for n in range(1, 7):
        worlds = tuple(range(n))
        for _ in range(10):
            m = _relation_model(rng, n, mode)
            f = gen.random_formula(rng, mode, "pq", depth=4, programs="st")
            # relation supports are Boolean, so nothing is refused
            assert _check_against_the_reference(m, f) == 0
            val = {a: _diagonal_worlds(v, n) for a, v in m.valuation.items()}
            if mode is Mode.PDL:
                progs = {s: decode(c, n) for s, c in m.programs.items()}
                want = oracle_pdl(worlds, progs, val, f)
            else:
                oracle = oracle_ctl if mode is Mode.CTL else oracle_classical
                want = oracle(worlds, decode(m.alpha, n), val, f)
            assert _diagonal_worlds(evaluate(m, f), n) == want, to_text(f)


TABLES = {
    "table-ab": lambda: relation_quantale("ab"),
    "s3": s3_quantale,
    "pair2-z2": pair2_z2_quantale,
    # a chain: its irreducibles are comparable, so the locale is not Boolean
    "goedel3": lambda: goedel_chain(3),
}


@pytest.mark.parametrize("name", list(TABLES))
def test_evaluator_matches_the_reference_on_table_quantales(name):
    q = TABLES[name]()
    rng = random.Random(f"reference:{name}")
    refused = 0
    for mode in Mode:
        # classical, temporal and dynamic valuations must be complemented
        values = [v for v in q.support_elements()
                  if mode is Mode.INTUITIONISTIC
                  or locale_complement_by_joins(q, v) is not None]
        points = [a for a in range(q.n)
                  if mode is not Mode.CTL or q.support(a) == q.unit]
        for alpha in rng.sample(points, min(12, len(points))):
            m = PointedModel(q, alpha, {a: rng.choice(values) for a in "pq"},
                             mode, programs={s: rng.randrange(q.n) for s in "st"})
            for _ in range(3):
                f = gen.random_formula(rng, mode, "pq", depth=4, programs="st")
                refused += _check_against_the_reference(m, f)
    if name == "goedel3":
        # a middle point leaves diamonds uncomplemented
        assert refused > 0


def test_a_program_is_evaluated_before_the_formula_under_it():
    # on the Goedel 3-chain the middle program leaves <s>p and <t>p at the
    # uncomplemented middle, so the test in the program and the formula
    # under the diamond both refuse; the program's refusal comes first
    q = goedel_chain(3)
    m = PointedModel(q, 2, {"p": 2}, Mode.PDL, programs={"s": 1, "t": 1})
    p, s, t = Atom("p"), PAtom("s"), PAtom("t")
    f = ProgDiamond(PTest(Not(ProgDiamond(s, p))), Not(ProgDiamond(t, p)))
    got = _outcome(lambda: evaluate(m, f))
    assert got == _outcome(lambda: evaluate_by_recursion(m, f))
    assert got[2] == ProgDiamond(s, p)


def _error(run):
    try:
        run()
    except (NotComplemented, TypeError) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError("no error raised")



# on the Goedel 3-chain the middle point (and program) leaves <>p and <s>p
# at the uncomplemented middle, so their negations refuse; the second
# formula of each case is a node outside the mode or a program that is no
# program
_P, _S = Atom("p"), PAtom("s")
FOREIGN = {
    "classical-EF": (Mode.CLASSICAL, Not(Diamond(_P)), Temporal("EF", _P)),
    "pdl-diamond": (Mode.PDL, Not(ProgDiamond(_S, _P)), Diamond(_P)),
    "pdl-no-program": (Mode.PDL, Not(ProgDiamond(_S, _P)),
                       ProgDiamond(PStar(_P), _P)),
}


@pytest.mark.parametrize("case", list(FOREIGN))
def test_a_foreign_node_fails_where_the_recursion_reaches_it(case):
    mode, refused, foreign = FOREIGN[case]
    m = PointedModel(goedel_chain(3), 1, {"p": 2}, mode, programs={"s": 1})
    for f, first in ((Or(refused, foreign), "NotComplemented"),
                     (Or(foreign, refused), "TypeError")):
        got = _error(lambda: evaluate(m, f))
        assert got == _error(lambda: evaluate_by_recursion(m, f))
        assert got[0] == first
