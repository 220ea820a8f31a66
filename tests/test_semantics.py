import random

import pytest

from quantales.errors import NotComplemented, ParseError, TimeEnds
from quantales.formulas import (
    And, Atom, Box, Diamond, Implies, Mode, Not, Or, PAtom, PChoice,
    ProgDiamond, PSeq, PStar, PTest, Temporal, to_text,
)
from quantales.parsing import parse_formula
from quantales.quantale import relation_quantale
from quantales.relations import RelationQuantale, encode
from quantales.semantics import (
    PointedModel, complement_in_locale, eval_classical, eval_ctl,
    eval_intuitionistic, eval_pdl, eval_program, evaluate, op_star,
    valid_in_model, validity_test,
)

import gen
from oracles import oracle_classical, oracle_ctl, oracle_pdl, star_by_powers


def rel_model(worlds, alpha_pairs, valuation, mode, programs=None):
    'Build a pointed model over the lazy relation quantale.'
    q = RelationQuantale(tuple(worlds))
    idx = {w: i for i, w in enumerate(worlds)}
    enc = lambda pairs: encode(((idx[u], idx[v]) for u, v in pairs), q.nw)
    return PointedModel(
        quantale=q,
        alpha=enc(alpha_pairs),
        valuation={a: enc((w, w) for w in ws) for a, ws in valuation.items()},
        mode=mode,
        programs={p: enc(pairs) for p, pairs in (programs or {}).items()},
        world_atoms=tuple(worlds),
    )


def worlds_of(model, value):
    'Decode a support element back to the set of worlds on its diagonal.'
    q = model.quantale
    names = model.world_atoms
    return frozenset(names[i] for i in range(q.nw)
                     if value >> (i * q.nw + i) & 1)


# --- classical mode -------------------------------------------------------

def test_diamond_and_box_on_single_edge():
    m = rel_model("ab", {("a", "b")}, {"p": {"b"}}, Mode.CLASSICAL)
    assert worlds_of(m, evaluate(m, Diamond(Atom("p")))) == {"a"}
    assert worlds_of(m, evaluate(m, Box(Atom("p")))) == {"a", "b"}


def test_excluded_middle_is_valid():
    m = rel_model("abc", {("a", "b"), ("c", "c")}, {"p": {"b"}}, Mode.CLASSICAL)
    assert valid_in_model(m, Or(Atom("p"), Not(Atom("p"))))


def test_empty_point_collapses_diamond_and_box():
    m = rel_model("ab", set(), {"p": {"a"}}, Mode.CLASSICAL)
    assert evaluate(m, Diamond(Atom("p"))) == m.quantale.bottom
    assert evaluate(m, Box(Atom("p"))) == m.quantale.unit


def test_conjunction_value_is_multiplication():
    rng = random.Random(7)
    worlds = "abc"
    for _ in range(25):
        edges = gen.random_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        m = rel_model(worlds, edges, val, Mode.CLASSICAL)
        f = gen.random_formula(rng, Mode.CLASSICAL, "pq", depth=3)
        g = gen.random_formula(rng, Mode.CLASSICAL, "pq", depth=3)
        q = m.quantale
        assert evaluate(m, And(f, g)) == q.mul(evaluate(m, f), evaluate(m, g))


def test_classical_matches_pointwise_oracle():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(1, 4)
        worlds = tuple(range(n))
        edges = gen.random_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        m = rel_model(worlds, edges, val, Mode.CLASSICAL)
        f = gen.random_formula(rng, Mode.CLASSICAL, "pq", depth=4)
        assert worlds_of(m, evaluate(m, f)) == oracle_classical(
            worlds, edges, val, f), to_text(f)


def test_missing_atom_defaults_to_bottom():
    m = rel_model("ab", {("a", "b")}, {"p": {"b"}}, Mode.CLASSICAL)
    assert evaluate(m, Atom("q")) == m.quantale.bottom
    assert valid_in_model(m, Not(Atom("q")))


def test_t_scheme_fails_without_reflexivity():
    m = rel_model("a", set(), {"p": {"a"}}, Mode.CLASSICAL)
    assert not valid_in_model(m, Implies(Atom("p"), Diamond(Atom("p"))))


def test_t_scheme_valid_on_reflexive_models():
    rng = random.Random(3)
    worlds = "abc"
    diag = {(w, w) for w in worlds}
    for _ in range(20):
        edges = set(gen.random_edges(rng, worlds)) | diag
        val = gen.random_valuation(rng, worlds, "p")
        m = rel_model(worlds, edges, val, Mode.CLASSICAL)
        f = gen.random_formula(rng, Mode.CLASSICAL, "p", depth=3)
        assert valid_in_model(m, Implies(f, Diamond(f)))


def test_k_scheme_diamond_distributes_over_join():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.random_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        m = rel_model(worlds, edges, val, Mode.CLASSICAL)
        f, g = Atom("p"), Atom("q")
        both = evaluate(m, Diamond(Or(f, g)))
        split = m.quantale.join(evaluate(m, Diamond(f)), evaluate(m, Diamond(g)))
        assert both == split


def test_conjugacy_scheme_on_equivalence_models():
    # dia f /\ g -> dia (f /\ dia g), with both diamonds along a symmetric
    # point so the forward and backward diamonds coincide
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.equivalence_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        m = rel_model(worlds, edges, val, Mode.CLASSICAL)
        f, g = Atom("p"), Atom("q")
        scheme = Implies(And(Diamond(f), g), Diamond(And(f, Diamond(g))))
        assert valid_in_model(m, scheme)


def test_lazy_complement_failure_names_subformula():
    from quantales.lattice import chain_lattice
    from quantales.quantale import make_quantale
    # three-element chain as a locale quantale: mul is meet, unit is top
    mul = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
    q = make_quantale(chain_lattice(3), mul, unit=2,
                      inv=(0, 1, 2), support=(0, 1, 2))
    m = PointedModel(q, alpha=1, valuation={"p": 2}, mode=Mode.CLASSICAL)
    with pytest.raises(NotComplemented) as err:
        evaluate(m, Not(Diamond(Atom("p"))))
    assert err.value.subformula == Diamond(Atom("p"))


def test_uncomplemented_atom_rejected_at_build():
    from quantales.lattice import chain_lattice
    from quantales.quantale import make_quantale
    mul = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
    q = make_quantale(chain_lattice(3), mul, unit=2,
                      inv=(0, 1, 2), support=(0, 1, 2))
    with pytest.raises(NotComplemented):
        PointedModel(q, alpha=2, valuation={"p": 1}, mode=Mode.CLASSICAL)
    # the same valuation is fine intuitionistically
    PointedModel(q, alpha=2, valuation={"p": 1}, mode=Mode.INTUITIONISTIC)



def test_revalued_checks_the_valuation_as_a_new_model_does():
    from quantales.lattice import chain_lattice
    from quantales.quantale import make_quantale
    m = rel_model("ab", [("a", "b")], {}, Mode.CLASSICAL)
    q = m.quantale
    assert worlds_of(m, evaluate(m.revalued({"p": encode([(0, 0)], 2)}),
                                 Not(Atom("p")))) == {"b"}
    with pytest.raises(ValueError, match="outside the support locale"):
        m.revalued({"p": q.top})
    mul = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
    chain = make_quantale(chain_lattice(3), mul, unit=2,
                          inv=(0, 1, 2), support=(0, 1, 2))
    m = PointedModel(chain, alpha=2, valuation={}, mode=Mode.CLASSICAL)
    with pytest.raises(NotComplemented):
        m.revalued({"p": 1})


def test_revalued_reads_the_point_table_once(monkeypatch):
    # a sweep evaluates one point under every valuation: the point's
    # table is read once, and each valuation gives a fresh model's value
    reads = []
    table = RelationQuantale.diamond_table
    monkeypatch.setattr(RelationQuantale, "diamond_table",
                        lambda q, a, converse=False:
                        reads.append((a, converse)) or table(q, a, converse))
    worlds = "abc"
    rng = random.Random(5)
    edges = gen.random_edges(rng, worlds)
    f = Implies(Box(Atom("p")), Box(Box(Atom("p"))))
    valid = validity_test(f, Mode.CLASSICAL)
    point = rel_model(worlds, edges, {}, Mode.CLASSICAL)
    for sub in range(8):
        ws = [w for i, w in enumerate(worlds) if sub >> i & 1]
        fresh = rel_model(worlds, edges, {"p": ws}, Mode.CLASSICAL)
        model = point.revalued(fresh.valuation)
        assert valid(model) == valid_in_model(fresh, f)
        assert evaluate(model, f) == evaluate(fresh, f)
    assert reads == [(point.alpha, False)] * (1 + 8)
    with pytest.raises(ValueError, match="not intuitionistic"):
        validity_test(f, Mode.INTUITIONISTIC)(point)

def test_complement_in_locale_boolean_case():
    q = relation_quantale("ab")
    one = encode([(0, 0)], 2)
    other = encode([(1, 1)], 2)
    assert complement_in_locale(q, one) == other
    assert complement_in_locale(q, q.unit) == q.bottom


# --- intuitionistic mode --------------------------------------------------

def test_intuitionistic_identity_scheme():
    m = rel_model("ab", {("a", "b")}, {"p": {"b"}}, Mode.INTUITIONISTIC)
    f = gen.random_formula(random.Random(1), Mode.INTUITIONISTIC, "p", 3)
    assert valid_in_model(m, Implies(f, f))


def test_intuitionistic_agrees_with_classical_on_boolean_supports():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.random_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        mc = rel_model(worlds, edges, val, Mode.CLASSICAL)
        mi = rel_model(worlds, edges, val, Mode.INTUITIONISTIC)
        f = gen.random_formula(rng, Mode.CLASSICAL, "pq", depth=4)
        assert evaluate(mc, f) == evaluate(mi, f), to_text(f)


def test_double_negation_not_involutive_on_a_chain():
    from quantales.lattice import chain_lattice
    from quantales.quantale import make_quantale
    mul = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
    q = make_quantale(chain_lattice(3), mul, unit=2,
                      inv=(0, 1, 2), support=(0, 1, 2))
    m = PointedModel(q, alpha=2, valuation={"p": 1}, mode=Mode.INTUITIONISTIC)
    assert evaluate(m, Not(Atom("p"))) == 0
    assert evaluate(m, Not(Not(Atom("p")))) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_heyting_path_matches_the_goedel_chain(k):
    from quantales.lattice import chain_lattice
    from quantales.quantale import make_quantale
    # the k-chain as a locale quantale: mul is min, unit is top
    mul = tuple(tuple(min(a, b) for b in range(k)) for a in range(k))
    top = k - 1
    q = make_quantale(chain_lattice(k), mul, unit=top,
                      inv=tuple(range(k)), support=tuple(range(k)))
    assert all(q.leq(a, b) == (a <= b) for a in range(k) for b in range(k))
    for vp in range(k):
        for vq in range(k):
            m = PointedModel(q, alpha=top, valuation={"p": vp, "q": vq},
                             mode=Mode.INTUITIONISTIC)
            # Goedel implication and negation on a chain
            assert evaluate(m, Implies(Atom("p"), Atom("q"))) == \
                (top if vp <= vq else vq)
            assert evaluate(m, Not(Atom("p"))) == (top if vp == 0 else 0)


def test_s5_unit_and_counit_schemes():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.equivalence_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "p")
        m = rel_model(worlds, edges, val, Mode.INTUITIONISTIC)
        f = gen.random_formula(rng, Mode.INTUITIONISTIC, "p", depth=3)
        assert valid_in_model(m, Implies(f, Box(Diamond(f))))
        assert valid_in_model(m, Implies(Diamond(Box(f)), f))


def test_intuitionistic_box_is_right_adjoint_of_back_diamond():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.random_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "p")
        m = rel_model(worlds, edges, val, Mode.INTUITIONISTIC)
        q = m.quantale
        y = evaluate(m, Box(Atom("p")))
        target = evaluate(m, Atom("p"))
        ainv = q.inv(m.alpha)
        for x in q.support_elements():
            assert q.leq(x, y) == q.leq(q.support(q.mul(ainv, x)), target)


# --- temporal mode --------------------------------------------------------

def ctl_model(worlds, edges, val):
    return rel_model(worlds, edges, val, Mode.CTL)


def test_ctl_example_values():
    worlds = (0, 1)
    edges = {(0, 1), (1, 1)}
    m = ctl_model(worlds, edges, {"p": {1}})
    assert worlds_of(m, evaluate(m, Temporal("EX", Atom("p")))) == {0, 1}
    assert worlds_of(m, evaluate(m, Temporal("EF", Atom("p")))) == {0, 1}
    assert worlds_of(m, evaluate(m, Temporal("EG", Atom("p")))) == {1}
    assert worlds_of(m, evaluate(m, Temporal("AF", Atom("p")))) == {0, 1}


def test_time_ends_rejected():
    with pytest.raises(TimeEnds):
        rel_model((0, 1), {(0, 1)}, {"p": {1}}, Mode.CTL)


def test_eg_of_truth_is_unit():
    m = ctl_model((0, 1, 2), {(0, 1), (1, 2), (2, 0)}, {"p": {0, 1, 2}})
    assert evaluate(m, Temporal("EG", Atom("p"))) == m.quantale.unit


def test_identity_point_fixes_all_temporal_operators():
    worlds = (0, 1, 2)
    diag = {(w, w) for w in worlds}
    m = ctl_model(worlds, diag, {"p": {0, 2}})
    v = evaluate(m, Atom("p"))
    for op in ("EX", "EF", "EG", "AX", "AF", "AG"):
        assert evaluate(m, Temporal(op, Atom("p"))) == v, op


def test_ctl_matches_path_oracle():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(1, 4)
        worlds = tuple(range(n))
        edges = gen.total_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "pq")
        m = ctl_model(worlds, edges, val)
        f = gen.random_formula(rng, Mode.CTL, "pq", depth=4)
        assert worlds_of(m, evaluate(m, f)) == oracle_ctl(
            worlds, edges, val, f), to_text(f)


def test_eg_is_the_greatest_fixed_point():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        edges = gen.total_edges(rng, worlds)
        val = gen.random_valuation(rng, worlds, "p")
        m = ctl_model(worlds, edges, val)
        q = m.quantale
        v = evaluate(m, Atom("p"))
        eg = evaluate(m, Temporal("EG", Atom("p")))
        step = lambda a: q.meet(v, q.support(q.mul(m.alpha, a)))
        assert eg == step(eg)
        fixed = [a for a in q.support_elements() if a == step(a)]
        assert eg == q.join_all(fixed)


# --- dynamic mode ---------------------------------------------------------

def test_star_example_single_pair():
    worlds = (0, 1)
    m = rel_model(worlds, set(), {}, Mode.PDL,
                  programs={"p": {(0, 1)}})
    closed = eval_program(m, PStar(PAtom("p")))
    assert closed == encode([(0, 0), (1, 1), (0, 1)], 2)


def test_star_laws():
    rng = random.Random(37)
    q = RelationQuantale((0, 1, 2))
    for _ in range(30):
        a = rng.randrange(1 << 9)
        s = op_star(q, a)
        assert q.leq(a, s)
        assert q.leq(q.unit, s)
        assert q.mul(s, s) == s


def test_star_by_squaring_matches_the_powers():
    rng = random.Random("star")
    for n in range(1, 7):
        q = RelationQuantale(range(n))
        # sparse codes make long paths, so the longest power needed varies
        for density in (0.1, 0.25, 0.5):
            for _ in range(10):
                a = sum(1 << k for k in range(n * n) if rng.random() < density)
                assert op_star(q, a) == star_by_powers(q, a), (n, a)
    for q in (relation_quantale("ab"), gen.s3_quantale(),
              gen.pair2_z2_quantale(), gen.goedel_chain(3)):
        for a in range(q.n):
            assert op_star(q, a) == star_by_powers(q, a), (q, a)


def test_test_program_conjunction():
    worlds = (0, 1, 2)
    m = rel_model(worlds, set(), {"p": {0, 1}, "q": {1, 2}}, Mode.PDL)
    lhs = evaluate(m, ProgDiamond(PTest(Atom("p")), Atom("q")))
    rhs = evaluate(m, And(Atom("p"), Atom("q")))
    assert lhs == rhs
    assert worlds_of(m, lhs) == {1}


def test_choice_of_disjoint_pairs_is_union():
    m = rel_model((0, 1), set(), {}, Mode.PDL,
                  programs={"p": {(0, 1)}, "q": {(1, 0)}})
    assert eval_program(m, PChoice(PAtom("p"), PAtom("q"))) == \
        encode([(0, 1), (1, 0)], 2)


def test_seq_is_relation_composition():
    m = rel_model((0, 1, 2), set(), {}, Mode.PDL,
                  programs={"p": {(0, 1)}, "q": {(1, 2)}})
    assert eval_program(m, PSeq(PAtom("p"), PAtom("q"))) == \
        encode([(0, 2)], 3)


def test_pdl_matches_pointwise_oracle():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 3)
        worlds = tuple(range(n))
        val = gen.random_valuation(rng, worlds, "pq")
        progs = {name: gen.random_edges(rng, worlds) for name in "st"}
        m = rel_model(worlds, set(), val, Mode.PDL, programs=progs)
        f = gen.random_formula(rng, Mode.PDL, "pq", depth=3, programs="st")
        assert worlds_of(m, evaluate(m, f)) == oracle_pdl(
            worlds, progs, val, f), to_text(f)


def test_missing_program_defaults_to_bottom():
    m = rel_model((0, 1), set(), {"p": {0}}, Mode.PDL)
    assert evaluate(m, ProgDiamond(PAtom("u"), Atom("p"))) == m.quantale.bottom


# --- shared surface -------------------------------------------------------

def test_mode_mismatch_rejected():
    m = rel_model("ab", {("a", "b")}, {"p": {"b"}}, Mode.CLASSICAL)
    with pytest.raises(ValueError):
        eval_ctl(m, Atom("p"))
    with pytest.raises(ValueError):
        eval_pdl(m, Atom("p"))


def test_atom_value_above_unit_rejected():
    q = relation_quantale("ab")
    with pytest.raises(ValueError):
        PointedModel(q, alpha=q.bottom, valuation={"p": q.top},
                     mode=Mode.CLASSICAL)


def test_evaluators_work_on_the_lazy_quantale_with_four_worlds():
    worlds = tuple(range(4))
    edges = {(i, (i + 1) % 4) for i in worlds}
    m = rel_model(worlds, edges, {"p": {2}}, Mode.CLASSICAL)
    assert worlds_of(m, evaluate(m, Diamond(Diamond(Atom("p"))))) == {0}


@pytest.mark.parametrize("mode", list(Mode))
def test_parser_and_evaluator_admit_the_same_connectives(mode):
    m = rel_model("ab", {("a", "b"), ("b", "a")}, {"p": {"b"}}, mode,
                  programs={"a": {("a", "b")}})
    p = Atom("p")
    for f in (Diamond(p), Box(p), Temporal("EX", p),
              ProgDiamond(PAtom("a"), p)):
        try:
            parsed = parse_formula(to_text(f), mode) == f
        except ParseError:
            parsed = False
        try:
            evaluate(m, f)
            evaluated = True
        except TypeError:
            evaluated = False
        assert parsed == evaluated, (mode, to_text(f))
