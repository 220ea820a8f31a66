"""Tensor algebra: component representation against an independent model,
algebra and pre-support laws, the law suites, and finite gradings.

The representation oracle does not trust the down-set encoding: the
tensor of two sup-lattices is realized as the maps f: L -> M with
f(0) = top and f(x v y) = f(x) ^ f(y), enumerated by brute force, and
the down-set components are required to be order-isomorphic to that.
"""

import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import m3_lattice
import quantales.tensor
from quantales.bimodal import (
    check_conjugacy,
    conjugate_pairs,
    diamonds_from_point,
)
from quantales.cli import main
from quantales.errors import DepthExceeded, NotAFrame
from quantales.lattice import (
    chain_lattice,
    diamond_lattice,
    powerset_lattice,
)
from quantales.nucleus import Nucleus, least_nucleus
from quantales.quantale import (
    group_groupoid,
    groupoid_quantale,
    make_quantale,
    relation_quantale,
    supports_locale,
)
from quantales.relations import RelationQuantale, encode
from quantales.tensor import (
    FullGrid,
    GradedElement,
    GradingWitness,
    InvolutiveMonoid,
    LawResult,
    SampleGrids,
    TensorAlgebra,
    _first_failure,
    _grid,
    check_graded_nucleus,
    check_grading,
    check_lemmaB_inequalities,
    check_presupport_laws,
    check_tensor_grading,
    default_samples,
    law_lines,
    pure_samples,
    show_element,
    trivial_monoid,
    word_inv,
    z2_monoid,
)

SMALL_FRAMES = [
    chain_lattice(2),
    chain_lattice(3),
    powerset_lattice("xy"),
    diamond_lattice(),
    chain_lattice(4),
]

CH2 = chain_lattice(2)
CH3 = chain_lattice(3)
P2 = powerset_lattice("xy")

A_CH3 = TensorAlgebra(CH3, depth=3)
A_P2 = TensorAlgebra(P2, depth=4)


from oracles import (
    grid_rows,
    irr_below,
    join_reversing_maps,
    laws_by_cases,
    order_ideals,
    support_by_combinations,
    tables,
)


def identity(L):
    return list(range(L.n))


# --- representation oracle ------------------------------------------------

def test_single_letter_component_is_the_tensor():
    for L in SMALL_FRAMES:
        irr = L.join_irreducibles()
        below = irr_below(L, irr)
        m = len(irr)
        points = list(itertools.product(range(m), repeat=2))
        ideals = order_ideals(
            points,
            lambda s, t: L.leq(irr[s[0]], irr[t[0]])
            and L.leq(irr[s[1]], irr[t[1]]))
        if L.n == 2:
            # one irreducible point, so exactly two down-sets
            assert len(ideals) == 2
        jn, mt = tables(L)
        maps = join_reversing_maps(L.n, jn, mt, L.bottom, L.top)
        assert len(ideals) == len(maps)

        to_map = {}
        for D in ideals:
            to_map[D] = tuple(
                L.join_all(y for y in range(L.n)
                           if all((p, q) in D
                                  for p in below[x] for q in below[y]))
                for x in range(L.n))
        assert len(set(to_map.values())) == len(ideals)
        assert set(to_map.values()) == set(maps)
        for D1, f1 in to_map.items():
            for D2, f2 in to_map.items():
                assert (D1 <= D2) == all(
                    L.leq(f1[x], f2[x]) for x in range(L.n))

        # the library's degree-a carrier is exactly this ideal lattice
        A = TensorAlgebra(L, depth=1)
        for D in ideals:
            joined = A.join_all(
                A.pure("a", (irr[p], irr[q])) for p, q in D)
            assert joined.component("a") == D
        for x in range(L.n):
            for y in range(L.n):
                assert A.pure("a", (x, y)).component("a") in set(ideals)


def test_two_letter_component_is_the_iterated_tensor():
    for L in SMALL_FRAMES:
        irr = L.join_irreducibles()
        below = irr_below(L, irr)
        m = len(irr)
        jn, mt = tables(L)
        t2 = join_reversing_maps(L.n, jn, mt, L.bottom, L.top)
        t2_index = {f: i for i, f in enumerate(t2)}
        t2_top = t2_index[(L.top,) * L.n]
        t2_meet = [[t2_index[tuple(mt[f[x]][g[x]] for x in range(L.n))]
                    for g in t2] for f in t2]
        t2_leq = [[all(L.leq(f[x], g[x]) for x in range(L.n))
                   for g in t2] for f in t2]
        # maps into the first tensor, i.e. the bracketing L (x) (L (x) L)
        t3 = [g for g in itertools.product(range(len(t2)), repeat=L.n)
              if g[L.bottom] == t2_top
              and all(g[jn[x][y]] == t2_meet[g[x]][g[y]]
                      for x in range(L.n) for y in range(L.n))]

        points = list(itertools.product(range(m), repeat=3))
        ideals = order_ideals(
            points,
            lambda s, t: all(L.leq(irr[s[i]], irr[t[i]]) for i in range(3)))
        assert len(ideals) == len(t3)

        reps = {}
        for E in ideals:
            reps[E] = tuple(
                t2_index[tuple(
                    L.join_all(z for z in range(L.n)
                               if all((p, q, r) in E
                                      for p in below[x]
                                      for q in below[y]
                                      for r in below[z]))
                    for y in range(L.n))]
                for x in range(L.n))
        assert len(set(reps.values())) == len(ideals)
        assert set(reps.values()) == set(t3)

        items = list(reps.items())
        if len(items) ** 2 <= 70000:
            pairs = itertools.product(items, repeat=2)
        else:
            rng = random.Random(7)
            pairs = ((rng.choice(items), rng.choice(items))
                     for _ in range(4000))
        for (E1, g1), (E2, g2) in pairs:
            assert (E1 <= E2) == all(
                t2_leq[g1[x]][g2[x]] for x in range(L.n))

        A = TensorAlgebra(L, depth=2)
        for E in ideals:
            joined = A.join_all(
                A.pure("aa", (irr[p], irr[q], irr[r])) for p, q, r in E)
            assert joined.component("aa") == E


def test_three_atom_frame_embeds_in_the_tensor():
    # the map space over an 8-element frame is too large to enumerate, so
    # only validity, injectivity and order reflection are checked here;
    # surjectivity is exhausted on the smaller frames above
    L = powerset_lattice("xyz")
    irr = L.join_irreducibles()
    below = irr_below(L, irr)
    jn, mt = tables(L)
    points = list(itertools.product(range(len(irr)), repeat=2))
    ideals = order_ideals(
        points,
        lambda s, t: L.leq(irr[s[0]], irr[t[0]])
        and L.leq(irr[s[1]], irr[t[1]]))
    assert len(ideals) == 512
    to_map = {}
    for D in ideals:
        f = tuple(
            L.join_all(y for y in range(L.n)
                       if all((p, q) in D for p in below[x] for q in below[y]))
            for x in range(L.n))
        assert f[L.bottom] == L.top
        assert all(f[jn[x][y]] == mt[f[x]][f[y]]
                   for x in range(L.n) for y in range(L.n))
        to_map[D] = f
    assert len(set(to_map.values())) == len(ideals)
    rng = random.Random(3)
    items = list(to_map.items())
    for _ in range(4000):
        (D1, f1), (D2, f2) = rng.choice(items), rng.choice(items)
        assert (D1 <= D2) == all(L.leq(f1[x], f2[x]) for x in range(L.n))


# --- algebra structure ----------------------------------------------------

def test_base_must_be_a_frame():
    with pytest.raises(NotAFrame):
        TensorAlgebra(m3_lattice())
    with pytest.raises(ValueError):
        TensorAlgebra(CH3, depth=-1)


def test_the_one_element_frame_has_unit_equal_to_bottom():
    A = TensorAlgebra(chain_lattice(1))
    assert A.unit == A.bottom and A.unit.is_bottom
    assert A.eps_value(A.unit) == 0


def test_word_involution():
    assert word_inv("") == ""
    assert word_inv("a") == "A"
    assert word_inv("aA") == "aA"
    assert word_inv("aaA") == "aAA"
    for k in range(4):
        for w in map("".join, itertools.product("aA", repeat=k)):
            assert word_inv(word_inv(w)) == w


def test_scalar_component_is_the_base():
    for x in range(CH3.n):
        assert A_CH3.eps_value(A_CH3.embed(x)) == x
        for y in range(CH3.n):
            assert A_CH3.leq(A_CH3.embed(x), A_CH3.embed(y)) == CH3.leq(x, y)


def test_pure_with_bottom_slot_is_bottom():
    for w, k in (("", 1), ("a", 2), ("aA", 3)):
        for hole in range(k):
            slots = [P2.top] * k
            slots[hole] = P2.bottom
            assert A_P2.pure(w, slots).is_bottom


def test_unit_laws():
    for s in default_samples(A_P2):
        assert A_P2.mul(A_P2.unit, s) == s
        assert A_P2.mul(s, A_P2.unit) == s


def test_adjacent_slots_meet():
    # (x (x) 1)(1 (x) y) concatenates with middle 1 ^ 1 = 1
    for x in range(P2.n):
        for y in range(P2.n):
            got = A_P2.mul(A_P2.pure("a", (x, P2.top)),
                           A_P2.pure("a", (P2.top, y)))
            assert got == A_P2.pure("aa", (x, P2.top, y))


def test_disjoint_middle_meet_kills_a_pure_product():
    x, y = P2.join_irreducibles()
    assert P2.meet(x, y) == P2.bottom
    got = A_P2.mul(A_P2.pure("a", (P2.top, x)), A_P2.pure("a", (y, P2.top)))
    assert got.is_bottom


def slow_mul(A, a, b):
    'Bilinear expansion over every tuple pair, no maximal-tuple shortcut.'
    L = A.lattice
    out = A.bottom
    for w1, c1 in a.parts:
        for w2, c2 in b.parts:
            for t in c1:
                for s in c2:
                    slots = (tuple(A.irr[p] for p in t[:-1])
                             + (L.meet(A.irr[t[-1]], A.irr[s[0]]),)
                             + tuple(A.irr[p] for p in s[1:]))
                    out = A.join(out, A.pure(w1 + w2, slots))
    return out


def test_mul_matches_bilinear_expansion():
    rng = random.Random(11)
    samples = default_samples(A_P2)
    for _ in range(40):
        a, b = rng.choice(samples), rng.choice(samples)
        assert A_P2.mul(a, b) == slow_mul(A_P2, a, b)


def test_involution_reverses_pures():
    for x in range(P2.n):
        for y in range(P2.n):
            assert A_P2.inv(A_P2.pure("a", (x, y))) == A_P2.pure("A", (y, x))
    for s in default_samples(A_P2):
        assert A_P2.inv(A_P2.inv(s)) == s


def test_depth_is_enforced_not_truncated():
    A = TensorAlgebra(P2, depth=2)
    with pytest.raises(DepthExceeded):
        A.pure("aaa", (P2.top,) * 4)
    with pytest.raises(DepthExceeded):
        A.mul(A.alpha_bar("aa"), A.alpha_bar("a"))
    with pytest.raises(ValueError):
        A.check_word("ab")
    # bottom has no degrees, so nothing can overflow
    assert A.mul(A.bottom, A.alpha_bar("aa")).is_bottom


# --- pre-support ----------------------------------------------------------

def test_pre_support_fixes_scalars():
    ident = identity(CH3)
    for x in range(CH3.n):
        assert A_CH3.pre_support(ident, ident, A_CH3.embed(x)) == x


def test_pre_support_two_element_example():
    A = TensorAlgebra(CH2, depth=2)
    ident = identity(CH2)
    dead = A.pure("a", (1, 0))
    assert dead.is_bottom
    assert A.pre_support(ident, ident, dead) == CH2.bottom
    assert A.pre_support(ident, ident, A.pure("a", (1, 1))) == CH2.top


def point_setup(pairs, worlds="ab"):
    'A relation quantale point with its locale-side world bookkeeping.'
    q = relation_quantale(worlds)
    nw = len(worlds)
    idx = {w: i for i, w in enumerate(worlds)}
    alpha = encode([(idx[u], idx[v]) for u, v in pairs], nw)
    loc = supports_locale(q)
    bf = diamonds_from_point(q, alpha, loc)
    world_sets = []
    for code in loc.q_elements:
        world_sets.append(frozenset(
            w for w in range(nw) if code >> (w * nw + w) & 1))
    to_index = {s: i for i, s in enumerate(world_sets)}
    apairs = {(idx[u], idx[v]) for u, v in pairs}
    dia_o = lambda s: frozenset(w for w in range(nw)
                                if any((w, v) in apairs for v in s))
    bdia_o = lambda s: frozenset(w for w in range(nw)
                                 if any((v, w) in apairs for v in s))
    return bf, world_sets, to_index, dia_o, bdia_o


def test_pre_support_matches_relation_expansion():
    bf, sets, to_index, dia_o, bdia_o = point_setup([("a", "b")])
    F = bf.frame
    A = TensorAlgebra(F, depth=3)
    for i in range(F.n):
        assert bf.dia[i] == to_index[dia_o(sets[i])]
        assert bf.bdia[i] == to_index[bdia_o(sets[i])]
    for x0 in range(F.n):
        for x1 in range(F.n):
            got = A.pre_support(bf.dia, bf.bdia, A.pure("a", (x0, x1)))
            assert got == to_index[sets[x0] & dia_o(sets[x1])]
            got = A.pre_support(bf.dia, bf.bdia, A.pure("A", (x0, x1)))
            assert got == to_index[sets[x0] & bdia_o(sets[x1])]
            for x2 in range(F.n):
                got = A.pre_support(bf.dia, bf.bdia,
                                    A.pure("aA", (x0, x1, x2)))
                want = sets[x0] & dia_o(sets[x1] & bdia_o(sets[x2]))
                assert got == to_index[want]


def test_pre_support_joins_and_bottom():
    bf, *_ = point_setup([("a", "b"), ("b", "a")])
    F = bf.frame
    A = TensorAlgebra(F, depth=4)
    ss = lambda e: A.pre_support(bf.dia, bf.bdia, e)
    assert ss(A.bottom) == F.bottom
    rng = random.Random(5)
    samples = default_samples(A)
    for _ in range(60):
        a, b = rng.choice(samples), rng.choice(samples)
        assert ss(A.join(a, b)) == F.join(ss(a), ss(b))


def test_product_support_agrees_with_materialized_product():
    bf, *_ = point_setup([("a", "a"), ("a", "b")])
    A = TensorAlgebra(bf.frame, depth=4)
    rng = random.Random(13)
    samples = default_samples(A)
    deg = lambda e: max((len(w) for w in e.words()), default=0)
    done = 0
    while done < 60:
        a, b = rng.choice(samples), rng.choice(samples)
        if deg(a) + deg(b) > A.depth:
            continue
        done += 1
        direct = A.support_of_product(bf.dia, bf.bdia, (a, b))
        assert direct == A.pre_support(bf.dia, bf.bdia, A.mul(a, b))


def test_product_support_checks_every_combination_against_the_depth():
    # the first combination, e.e, reaches top; the overflowing aa.aa comes
    # later, and the materialized product raises on it
    A = TensorAlgebra(CH2, depth=2)
    ident = identity(CH2)
    e = A.join(A.embed(CH2.top), A.alpha_bar("aa"))
    message = "product degree 'aaaa' exceeds depth 2"
    with pytest.raises(DepthExceeded, match=message):
        A.mul(e, e)
    with pytest.raises(DepthExceeded, match=message):
        A.support_of_product(ident, ident, (e, e))
    # a bottom factor makes the product bottom, as mul does
    assert A.mul(A.bottom, e).is_bottom
    assert A.support_of_product(ident, ident, (A.bottom, e, e)) == CH2.bottom


def test_scalar_transformers_are_meet_rows():
    # the join over irreducibles j <= x of j ^ y is x ^ y in a frame
    for L in (CH3, P2, diamond_lattice()):
        A = TensorAlgebra(L, depth=1)
        ident = tuple(identity(L))
        for x in range(L.n):
            assert A.transformer(ident, ident, A.embed(x)) == tuple(
                L.meet(x, y) for y in range(L.n))


def test_transformer_tables_are_kept_for_the_last_pair_only():
    # both suites of a pair share its tables, and the next pair drops
    # them: what is held is the second pair's, as a fresh algebra builds
    A = TensorAlgebra(CH3, depth=8)
    grids = SampleGrids(A)
    (dia1, bdia1), (dia2, bdia2) = list(conjugate_pairs(CH3))[:2]
    for dia, bdia in ((dia1, bdia1), (dia2, bdia2)):
        check_presupport_laws(A, dia, bdia, grids)
        shared = dict(A._transformers)
        check_lemmaB_inequalities(A, dia, bdia, grids)
        assert all(A._transformers[parts] is table
                   for parts, table in shared.items())
    used = (grids.samples + grids.involutes
            + [A.embed(x) for x in range(CH3.n)]
            + [A.alpha_bar("a"), A.alpha_bar("A")])
    assert A._pair == (dia2, bdia2)
    assert set(A._transformers) == {e.parts for e in used}
    fresh = TensorAlgebra(CH3, depth=8)
    for parts, table in A._transformers.items():
        assert table == fresh.transformer(dia2, bdia2, GradedElement(parts))
    assert any(table != fresh.transformer(dia1, bdia1, GradedElement(parts))
               for parts, table in A._transformers.items())


def outcome(f, *args):
    'The value of f(*args), or the DepthExceeded message it raises.'
    try:
        return f(*args)
    except DepthExceeded as exc:
        return f"raises {exc}"


@pytest.mark.parametrize("L", [CH2, CH3, diamond_lattice(),
                               powerset_lattice("abc")],
                         ids=["chain2", "chain3", "diamond", "powerset3"])
def test_transformer_fold_matches_the_combination_oracle(L):
    deep = TensorAlgebra(L, depth=8)
    shallow = TensorAlgebra(L, depth=4)
    rng = random.Random(23)
    samples = default_samples(deep)
    pool = (samples
            + [deep.join(rng.choice(samples), rng.choice(samples))
               for _ in range(20)]
            + [deep.bottom] + [deep.embed(x) for x in range(L.n)])
    pairs = list(conjugate_pairs(L))
    per_pair = max(4, 2000 // len(pairs))
    checked = mismatches = raised = 0
    for dia, bdia in pairs:
        done = 0
        while done < per_pair:
            factors = tuple(rng.choice(pool)
                            for _ in range(rng.randint(1, 4)))
            combinations = math.prod(sum(len(c) for _, c in e.parts)
                                     for e in factors)
            if combinations > 3000:
                continue   # keeps the oracle's enumeration small
            done += 1
            for A in (deep, shallow):
                got = outcome(A.support_of_product, dia, bdia, factors)
                want = outcome(support_by_combinations, A, dia, bdia, factors)
                mismatches += got != want
                raised += isinstance(want, str)
                checked += 1
    assert mismatches == 0
    assert checked == 2 * per_pair * len(pairs)
    assert raised > 0


# --- law suites -----------------------------------------------------------

PRESUPPORT_NAMES = [
    "unit-support", "support-below-unit", "support-idempotent",
    "support-product", "stability", "conjugacy-a", "conjugacy-b",
    "conjugacy-c",
]


def test_presupport_suite_identity_two_elements():
    A = TensorAlgebra(CH2, depth=8)
    ident = identity(CH2)
    results = check_presupport_laws(A, ident, ident)
    assert [r.name for r in results] == PRESUPPORT_NAMES
    assert all(r.ok for r in results)
    assert all(line.endswith("PASS") for line in law_lines(results))


def test_suites_on_an_equivalence_point():
    bf, *_ = point_setup([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])
    A = TensorAlgebra(bf.frame, depth=8)
    assert all(check_presupport_laws(A, bf.dia, bf.bdia))
    results = check_lemmaB_inequalities(A, bf.dia, bf.bdia)
    assert [r.name for r in results] == [
        "defining-pair", "eps-selfproduct", "t-alpha", "t-alpha-inv",
        "k4-alpha", "k4-alpha-inv", "s5-exchange"]
    assert all(results)


def test_inequality_families_follow_the_modal_class():
    # a single irreflexive arrow is vacuously transitive but not reflexive
    bf, *_ = point_setup([("a", "b")])
    A = TensorAlgebra(bf.frame, depth=8)
    results = check_lemmaB_inequalities(A, bf.dia, bf.bdia)
    assert [r.name for r in results] == [
        "defining-pair", "eps-selfproduct", "k4-alpha", "k4-alpha-inv"]
    assert all(results)


def test_non_conjugate_pair_fails_only_the_conjugacy_laws():
    dia = [P2.bottom if x == P2.bottom else P2.top for x in range(P2.n)]
    bdia = identity(P2)
    assert not check_conjugacy(P2, dia, bdia).ok
    A = TensorAlgebra(P2, depth=8)
    results = check_presupport_laws(A, dia, bdia)
    by_name = {r.name: r for r in results}
    for name in PRESUPPORT_NAMES[:5]:
        assert by_name[name].ok
    assert not by_name["conjugacy-a"].ok
    assert by_name["conjugacy-a"].witness
    assert any(line.startswith("LAW conjugacy-a FAIL")
               for line in law_lines(results))


def scalar_triple_laws(A, dia, bdia, samples):
    """conjugacy-c and defining-pair as element-wise scans over every
    triple of samples, one support_of_product call per side."""
    L = A.lattice
    ss = lambda *es: A.support_of_product(dia, bdia, es)
    sig = lambda a: A.embed(ss(a))
    show = lambda a: show_element(A, a)
    triples = lambda: itertools.product(samples, repeat=3)
    fits = [(a, t, b) for a, t, b in triples()
            if A.degree(a) + 2 * A.degree(t) + A.degree(b) <= A.depth]
    return [
        _first_failure("conjugacy-c", triples(),
                       lambda c, a, b: L.leq(ss(c, sig(a), b),
                                             ss(c, a, A.inv(a), b)),
                       lambda c, a, b:
                       f"c={show(c)} a={show(a)} b={show(b)}"),
        _first_failure("defining-pair", fits,
                       lambda a, t, b: L.leq(ss(a, sig(t), b),
                                             ss(a, t, A.inv(t), b)),
                       lambda a, t, b:
                       f"a={show(a)} t={show(t)} b={show(b)}"),
    ]


def array_triple_laws(A, dia, bdia):
    by_name = {r.name: r for r in check_presupport_laws(A, dia, bdia)
               + check_lemmaB_inequalities(A, dia, bdia)}
    return [by_name["conjugacy-c"], by_name["defining-pair"]]


P2_NON_CONJUGATE = ([P2.bottom if x == P2.bottom else P2.top
                     for x in range(P2.n)], identity(P2))
CH3_NON_CONJUGATE = ((0, 1, 1), (0, 1, 2))


@pytest.mark.parametrize("L,pair", [(P2, P2_NON_CONJUGATE),
                                    (CH3, CH3_NON_CONJUGATE)],
                         ids=["powerset2", "chain3"])
def test_array_triple_scan_gives_the_scalar_verdicts(L, pair):
    A = TensorAlgebra(L, depth=8)
    samples = default_samples(A)
    assert not check_conjugacy(L, *pair).ok
    got = array_triple_laws(A, *pair)
    assert not any(got)
    assert got == scalar_triple_laws(A, *pair, samples)


def test_array_triple_scan_raises_where_the_scalar_scan_raises():
    A = TensorAlgebra(CH3, depth=6)
    ident = identity(CH3)
    samples = default_samples(A)
    with pytest.raises(DepthExceeded) as want:
        scalar_triple_laws(A, ident, ident, samples)
    with pytest.raises(DepthExceeded) as got:
        check_presupport_laws(A, ident, ident)
    assert str(got.value) == str(want.value)


def both_suites(A, dia, bdia, grids):
    'Both suites\' results for one pair, or the DepthExceeded they raise.'
    return outcome(lambda: check_presupport_laws(A, dia, bdia, grids)
                   + check_lemmaB_inequalities(A, dia, bdia, grids))


# join-preserving, not conjugate: the first diamond sends y to x and x to
# bottom, the second swaps x and y; samples that differ only in their
# involutes' tables get different verdicts here
P2_SWAPPING = ((0, 0, 1, 1), (0, 2, 1, 3))
LAW_FRAMES = {"chain2": (CH2, []), "chain3": (CH3, [CH3_NON_CONJUGATE]),
              "diamond": (diamond_lattice(), []),
              "powerset2": (P2, [P2_NON_CONJUGATE, P2_SWAPPING])}


@pytest.mark.parametrize("frame", LAW_FRAMES)
def test_class_decided_laws_are_the_per_case_scan(frame, monkeypatch):
    # on every conjugate pair and the engineered non-conjugate ones: the
    # same names, verdicts and witnesses as the scan over every case
    L, extra = LAW_FRAMES[frame]
    A = TensorAlgebra(L, depth=8)
    grids = SampleGrids(A)
    pairs = list(conjugate_pairs(L)) + extra
    got = [both_suites(A, *pair, grids) for pair in pairs]
    monkeypatch.setattr(quantales.tensor._Suite, "law", laws_by_cases)
    assert got == [both_suites(A, *pair, grids) for pair in pairs]
    assert all(isinstance(r, list) for r in got)
    assert any(not all(results) for results in got) == bool(extra)


@pytest.mark.parametrize("depth", [3, 6, 7])
@pytest.mark.parametrize("L,pair", [(P2, P2_NON_CONJUGATE),
                                    (P2, P2_SWAPPING),
                                    (CH3, CH3_NON_CONJUGATE),
                                    (CH3, (identity(CH3),) * 2)],
                         ids=["powerset2", "powerset2-swapping", "chain3",
                              "chain3-identity"])
def test_class_decided_laws_at_shallow_depths_are_the_per_case_scan(
        L, pair, depth, monkeypatch):
    # below depth 8 some product overflows: the first case that fails or
    # overflows decides, with the same witness or DepthExceeded message;
    # the Lemma B suite on its own drops the triples and pairs whose
    # sides overflow, and decides the cases that are left
    A = TensorAlgebra(L, depth=depth)
    grids = SampleGrids(A)
    assert len(grid_rows(grids, FullGrid(3, (1, 2, 1)))) < len(
        grids.samples) ** 3
    got = [both_suites(A, *pair, grids),
           outcome(check_lemmaB_inequalities, A, *pair, grids)]
    assert isinstance(got[0], str) or not all(got[0])
    assert isinstance(got[1], list)
    monkeypatch.setattr(quantales.tensor._Suite, "law", laws_by_cases)
    assert got == [both_suites(A, *pair, grids),
                   outcome(check_lemmaB_inequalities, A, *pair, grids)]


P3 = powerset_lattice("abc")


def atom_map(images):
    'The join-preserving map on P3 that sends atom i to the code images[i].'
    return tuple(P3.join_all(images[i] for i in range(3) if x >> i & 1)
                 for x in range(P3.n))


# the diamonds of the equivalence {a, b} {c}, conjugate and in T, K4 and
# S5; and P2_SWAPPING on three atoms: a to bottom, b to a, c to b, and
# the swap of a and b
P3_EQUIVALENCE = (atom_map((3, 3, 4)),) * 2
P3_SWAPPING = (atom_map((0, 1, 2)), atom_map((2, 1, 4)))


@pytest.mark.parametrize("depth", [8, 6])
@pytest.mark.parametrize("pair", [P3_EQUIVALENCE, P3_SWAPPING],
                         ids=["equivalence", "swapping"])
def test_class_decided_laws_on_the_3_atom_powerset_are_the_per_case_scan(
        pair, depth, monkeypatch):
    # 141 samples, so 19,881 pairs and 2.8 M triples, every one decided:
    # the same verdicts, witnesses and DepthExceeded messages as the scan
    # over every case, at depth 8 and at depth 6, where a product overflows
    A = TensorAlgebra(P3, depth=depth)
    grids = SampleGrids(A)
    got = [both_suites(A, *pair, grids),
           outcome(check_lemmaB_inequalities, A, *pair, grids)]
    assert isinstance(got[1], list)
    if pair is P3_SWAPPING:
        assert not check_conjugacy(P3, *pair).ok
        assert not all(got[0])
    else:
        assert len(got[1]) == 7 and all(got[1])
    monkeypatch.setattr(quantales.tensor._Suite, "law", laws_by_cases)
    assert got == [both_suites(A, *pair, grids),
                   outcome(check_lemmaB_inequalities, A, *pair, grids)]


@pytest.mark.parametrize("pair", [(identity(P2),) * 2, P2_SWAPPING],
                         ids=["identity", "swapping"])
def test_a_lemmaB_grid_where_nothing_fits_raises_as_the_scan(pair,
                                                             monkeypatch):
    # every sample has degree 1 or 2, so no defining-pair triple fits
    # depth 3: the grid is empty before any law runs
    A = TensorAlgebra(P2, depth=3)
    grids = SampleGrids(A, [A.alpha_bar(w) for w in ("a", "A", "aA", "aa")])
    want = "raises no sample instance fits within depth 3"
    assert outcome(check_lemmaB_inequalities, A, *pair, grids) == want
    monkeypatch.setattr(quantales.tensor._Suite, "law", laws_by_cases)
    assert outcome(check_lemmaB_inequalities, A, *pair, grids) == want


@pytest.mark.parametrize("L", [CH2, CH3, powerset_lattice("abc")],
                         ids=["chain2", "chain3", "powerset3"])
def test_every_law_takes_every_tuple_of_its_arity(L, monkeypatch):
    # whichever laws the T, K4 and S5 flags include, each reads a FullGrid
    # of the arity and depth filter written with it, and holds no array
    A = TensorAlgebra(L, depth=8)
    grids = SampleGrids(A)
    each, pairs = FullGrid(1), FullGrid(2)
    support = [("support-below-unit", each), ("support-idempotent", each),
               ("support-product", pairs), ("stability", pairs),
               ("conjugacy-a", each), ("conjugacy-b", pairs),
               ("conjugacy-c", FullGrid(3)),
               ("defining-pair", FullGrid(3, (1, 2, 1)))]
    used = []
    monkeypatch.setattr(
        quantales.tensor._Suite, "law",
        lambda self, name, grid, holds, describe:
        used.append((name, grid)) or LawResult(name, True))
    ident = identity(L)
    for flags in itertools.product((False, True), repeat=3):
        flag = dict(zip(("T", "K4", "S5"), flags))
        monkeypatch.setattr(
            quantales.tensor, "check_modal_class",
            lambda L, dia, bdia, cls: SimpleNamespace(ok=flag[cls]))
        want = support + [
            (name, FullGrid(2, (1, 1), extra))
            for name, cls, extra in (
                ("t-alpha", "T", 1), ("t-alpha-inv", "T", 1),
                ("k4-alpha", "K4", 2), ("k4-alpha-inv", "K4", 2),
                ("s5-exchange", "S5", 1))
            if flag[cls]]
        used.clear()
        check_presupport_laws(A, ident, ident, grids)
        check_lemmaB_inequalities(A, ident, ident, grids)
        assert [name for name, _ in used] == [name for name, _ in want]
        for (name, got), (_, grid) in zip(used, want):
            assert isinstance(got, FullGrid), name
            assert (got.arity, got.weights, got.extra_degree) == (
                grid.arity, grid.weights, grid.extra_degree), name


def test_sample_grids_hold_no_grid():
    # the 3-atom powerset's 141 samples take 2.8 M triples; only the
    # samples and one entry per sample are held, and building them peaks
    # at 0.1-0.2 MB traced
    A = TensorAlgebra(powerset_lattice("abc"), 8)
    tracemalloc.start()
    try:
        grids = SampleGrids(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(grids.samples)
    assert k == 141
    arrays = [v for v in vars(grids).values() if isinstance(v, np.ndarray)]
    assert arrays and all(v.shape == (k,) for v in arrays)
    assert peak < 5e5


@pytest.mark.parametrize("text", [
    "ELEMENTS 0 1 2\nLEQ (0,1) (1,2)\n",
    "ELEMENTS 0 a b 1\nLEQ (0,a) (0,b) (a,1) (b,1)\n"],
    ids=["chain3", "diamond"])
def test_tensor_verify_lists_no_full_grid(text, tmp_path, capsys):
    # every grid of these frames takes every tuple, and none is listed:
    # the heap peak stays far below the 2.5 MB of one 3-chain triple grid
    frame = tmp_path / "frame.txt"
    frame.write_text(text)
    tracemalloc.start()
    try:
        rc = main(["tensor-verify", "--frame", str(frame)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert "FAIL" not in capsys.readouterr().out
    assert peak < 2e6


def test_an_empty_sample_list_is_refused_before_any_law(monkeypatch):
    A = TensorAlgebra(CH2, depth=8)
    ident = identity(CH2)
    monkeypatch.setattr(quantales.tensor, "_first_failure", None)
    monkeypatch.setattr(quantales.tensor._Suite, "law", None)
    with pytest.raises(ValueError, match="sample list is empty"):
        check_presupport_laws(A, ident, ident, samples=[])
    with pytest.raises(ValueError, match="sample list is empty"):
        check_lemmaB_inequalities(A, ident, ident, samples=[])


def test_sample_grids_belong_to_their_algebra():
    grids = SampleGrids(TensorAlgebra(CH2, depth=8))
    ident = identity(CH2)
    with pytest.raises(ValueError, match="different algebra"):
        check_presupport_laws(TensorAlgebra(CH2, depth=8), ident, ident,
                              grids)


def test_scalar_selfproduct_is_the_support():
    ident = identity(P2)
    for x in range(P2.n):
        e = A_P2.embed(x)
        want = A_P2.embed(A_P2.pre_support(ident, ident, e))
        assert A_P2.mul(e, A_P2.inv(e)) == want


def test_suites_report_depth_exhaustion():
    A = TensorAlgebra(P2, depth=3)
    ident = identity(P2)
    with pytest.raises(DepthExceeded):
        check_presupport_laws(A, ident, ident)
    with pytest.raises(DepthExceeded):
        check_lemmaB_inequalities(A, ident, ident,
                                  samples=[A.alpha_bar("aa")])


def test_law_line_format():
    results = [LawResult("good", True), LawResult("bad", False, "w=1"),
               LawResult("silent", False)]
    assert law_lines(results) == [
        "LAW good PASS", "LAW bad FAIL w=1", "LAW silent FAIL"]


def test_show_element():
    assert show_element(A_P2, A_P2.bottom) == "0"
    assert show_element(A_P2, A_P2.unit) == "eps:{x}+{y}"
    x, y = P2.join_irreducibles()
    assert show_element(A_P2, A_P2.pure("a", (x, y))) == "a:{x}*{y}"


def test_tensor_grading_suite():
    for A in (A_CH3, A_P2):
        results = check_tensor_grading(A)
        assert [r.name for r in results] == [
            "grading-disjoint", "grading-unit", "grading-involution",
            "grading-multiplication"]
        assert all(results)


# --- finite gradings ------------------------------------------------------

def z2_setup():
    G = group_groupoid(["e", "g"], [[0, 1], [1, 0]], [0, 1], 0)
    q = groupoid_quantale(G)
    g_mask = q.top & ~q.unit
    return q, q.unit, g_mask


def test_group_quantale_grading():
    q, e_mask, g_mask = z2_setup()
    report = check_grading(GradingWitness(q, z2_monoid(), (e_mask, g_mask)))
    assert [r.name for r in report.results] == [
        "host-frame", "cover", "disjoint", "mul-degree", "unit-degree",
        "inv-degree"]
    assert report.ok and bool(report)


def test_swapped_degree_family_fails():
    q, e_mask, g_mask = z2_setup()
    report = check_grading(GradingWitness(q, z2_monoid(), (g_mask, e_mask)))
    names = {r.name for r in report.failures}
    assert names == {"mul-degree", "unit-degree"}


def test_grading_rejects_bad_inputs():
    q, e_mask, g_mask = z2_setup()
    with pytest.raises(ValueError):
        check_grading(GradingWitness(q, z2_monoid(), (e_mask,)))
    lazy = RelationQuantale("wxyz")
    with pytest.raises(TypeError):
        check_grading(GradingWitness(lazy, trivial_monoid(), (lazy.top,)))


def test_reflexive_pair_gives_the_identity_graded_nucleus():
    q, e_mask, g_mask = z2_setup()
    nuc = least_nucleus(q, [(g_mask, g_mask)])
    assert list(nuc.table) == list(range(q.n))
    wit = GradingWitness(q, z2_monoid(), (e_mask, g_mask))
    report = check_graded_nucleus(wit, nuc)
    assert [r.name for r in report.results] == [
        "component-preserved", "join-decomposition", "dense",
        "quotient-host-frame", "quotient-cover", "quotient-disjoint",
        "quotient-mul-degree", "quotient-unit-degree", "quotient-inv-degree"]
    assert report.ok


def locale_quantale(L):
    jn, mt = tables(L)
    return make_quantale(L, mt, identity(L), L.top, support=identity(L))


def test_collapsing_nucleus_regrades_the_quotient():
    q = locale_quantale(CH3)
    nuc = least_nucleus(q, [(2, 1)])
    assert list(nuc.table) == [0, 2, 2]
    wit = GradingWitness(q, trivial_monoid(), (q.top,))
    assert check_grading(wit).ok
    report = check_graded_nucleus(wit, nuc)
    assert report.ok


def test_non_dense_nucleus_is_flagged():
    q = locale_quantale(CH3)
    nuc = Nucleus(q, (2, 2, 2))
    wit = GradingWitness(q, trivial_monoid(), (q.top,))
    report = check_graded_nucleus(wit, nuc)
    assert not report.ok
    assert {r.name for r in report.failures} == {"dense"}


def test_nucleus_must_match_the_quantale():
    q, e_mask, g_mask = z2_setup()
    other = locale_quantale(CH3)
    nuc = least_nucleus(other, [])
    wit = GradingWitness(q, z2_monoid(), (e_mask, g_mask))
    with pytest.raises(ValueError):
        check_graded_nucleus(wit, nuc)


def test_involutive_monoid_validation():
    assert z2_monoid().n == 2
    assert trivial_monoid().n == 1
    with pytest.raises(ValueError):
        InvolutiveMonoid(("e", "x"), ((1, 1), (1, 1)), (0, 1), 0)
    with pytest.raises(ValueError):
        InvolutiveMonoid(("e", "x"), ((0, 1), (1, 0)), (0, 0), 0)
    with pytest.raises(ValueError):
        # left-zero pair with a swapping involution breaks antidistribution
        InvolutiveMonoid(("e", "x", "y"),
                         ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
                         (0, 2, 1), 0)
    with pytest.raises(ValueError):
        InvolutiveMonoid(("e", "x", "y"),
                         ((0, 1, 2), (1, 2, 1), (2, 1, 1)),
                         (0, 1, 2), 0)


# --- properties -----------------------------------------------------------

PURES_CH3 = pure_samples(A_CH3, 1)
elements = st.lists(st.sampled_from(PURES_CH3), max_size=3).map(
    A_CH3.join_all)


@given(elements, elements)
def test_involution_antidistributes(a, b):
    assert A_CH3.inv(A_CH3.mul(a, b)) == A_CH3.mul(A_CH3.inv(b),
                                                   A_CH3.inv(a))


@given(elements, elements, elements)
def test_mul_distributes_over_join(a, b, c):
    left = A_CH3.mul(a, A_CH3.join(b, c))
    assert left == A_CH3.join(A_CH3.mul(a, b), A_CH3.mul(a, c))
    right = A_CH3.mul(A_CH3.join(b, c), a)
    assert right == A_CH3.join(A_CH3.mul(b, a), A_CH3.mul(c, a))


@given(elements, elements)
def test_pre_support_is_join_preserving(a, b):
    ident = identity(CH3)
    ss = lambda e: A_CH3.pre_support(ident, ident, e)
    assert ss(A_CH3.join(a, b)) == CH3.join(ss(a), ss(b))


# --- the sampling rule of check_graded_nucleus -----------------------------

def test_grid_is_the_whole_product_when_it_fits_the_budget():
    domains = (range(3), "xy", range(2))
    assert (list(_grid(domains, 12, random.Random(0)))
            == list(itertools.product(*domains)))


def test_grid_draws_exactly_the_budget_and_only_when_iterated():
    rng = random.Random(0)
    before = rng.getstate()
    grid = _grid((range(5), range(5)), 24, rng)
    assert rng.getstate() == before
    tuples = list(grid)
    assert len(tuples) == 24
    assert all(0 <= i < 5 and 0 <= j < 5 for i, j in tuples)
    assert rng.getstate() != before


def test_grid_samples_index_tuples_as_randrange():
    # 4,000 draws of index triples below 47
    ref = random.Random(0)
    expected = [tuple(ref.randrange(47) for _ in range(3))
                for _ in range(4000)]
    assert list(_grid((range(47),) * 3, 4000, random.Random(0))) == expected
