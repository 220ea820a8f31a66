"""Relation and groupoid quantales, supports, the support locale."""

import itertools

import pytest
from hypothesis import given, strategies as st

from quantales import relations as rel
from quantales.errors import (
    InvalidGroupoid,
    NoStableSupport,
    NotAssociative,
    NotDistributive,
    NotInvolutive,
    SupportLawFails,
    SupportLocaleLawFails,
    UnitLawFails,
)
from quantales.lattice import chain_lattice, powerset_lattice
from quantales.quantale import (
    MODAL_SYSTEMS,
    FiniteGroupoid,
    RelationQuantale,
    check_point_properties,
    derive_support,
    group_groupoid,
    groupoid_quantale,
    make_quantale,
    pair_groupoid,
    relation_quantale,
    supports_locale,
    system_pairs,
    with_derived_support,
)

from conftest import m3_lattice
import oracles


@pytest.fixture(scope="session")
def rq2():
    return relation_quantale("ab")


def enc2(*pairs):
    return rel.encode(pairs, 2)


class TestRelationCodes:
    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    def test_compose_matches_pair_oracle(self, a, b):
        n = 4
        pa, pb = oracles.rel_compose(rel.decode(a, n), rel.decode(b, n)), None
        assert rel.decode(rel.compose(a, b, n), n) == pa

    @given(st.integers(0, 2 ** 16 - 1))
    def test_converse_support_star_match_oracle(self, a):
        n = 4
        worlds = range(n)
        assert rel.decode(rel.converse(a, n), n) == oracles.rel_converse(rel.decode(a, n))
        assert rel.decode(rel.support(a, n), n) == oracles.rel_support(rel.decode(a, n))
        assert rel.decode(rel.star(a, n), n) == oracles.rel_star(rel.decode(a, n), worlds)

    def test_diagonal_and_flags(self):
        assert rel.decode(rel.diagonal(2), 2) == {(0, 0), (1, 1)}
        a = rel.encode([(0, 1)], 2)
        assert not rel.is_reflexive(a, 2)
        assert rel.is_transitive(a, 2)
        assert not rel.is_symmetric(a, 2)


class TestRelationQuantale:
    def test_composition_example(self, rq2):
        ab, ba = enc2((0, 1)), enc2((1, 0))
        assert rq2.mul(ab, ba) == enc2((0, 0))

    def test_support_is_domain_on_diagonal(self, rq2):
        assert rq2.support(enc2((0, 1))) == enc2((0, 0))
        assert rq2.support(0) == 0
        assert rq2.support(rq2.unit) == rq2.unit

    def test_unit_is_diagonal(self, rq2):
        assert rq2.unit == rel.diagonal(2)

    def test_stable_flag_and_axioms_all_elements(self, rq2):
        assert rq2.stable
        e = rq2.unit
        for a in range(16):
            sa = rq2.support(a)
            assert rq2.leq(sa, e)
            assert rq2.leq(sa, rq2.mul(a, rq2.inv(a)))
            assert rq2.leq(a, rq2.mul(sa, a))
            for b in range(16):
                assert rq2.support(rq2.mul(a, b)) == \
                    rq2.support(rq2.mul(a, rq2.support(b)))

    def test_support_shrinks_under_multiplication(self, rq2):
        for a in range(16):
            for b in range(16):
                assert rq2.leq(rq2.support(rq2.mul(a, b)), rq2.support(a))

    def test_lazy_quantale_agrees_with_tables(self, rq2):
        lazy = RelationQuantale("ab")
        assert lazy.unit == rq2.unit
        for a in range(16):
            assert lazy.inv(a) == rq2.inv(a)
            assert lazy.support(a) == rq2.support(a)
            for b in range(16):
                assert lazy.mul(a, b) == rq2.mul(a, b)
                assert lazy.join(a, b) == rq2.join(a, b)
                assert lazy.meet(a, b) == rq2.meet(a, b)
        assert sorted(lazy.support_elements()) == sorted(rq2.support_elements())

    def test_derived_support_matches_construction(self, rq2):
        assert derive_support(rq2) == rq2.support_table

    def test_tabulated_guard(self):
        with pytest.raises(ValueError):
            relation_quantale("abcd")


class TestMakeQuantaleValidation:
    def test_unit_law_failure(self):
        L = chain_lattice(2)
        with pytest.raises(UnitLawFails):
            make_quantale(L, [[0, 0], [0, 0]], [0, 1], 1)

    def test_not_associative(self):
        L = chain_lattice(3)
        with pytest.raises(NotAssociative):
            make_quantale(L, [[0, 0, 0], [0, 0, 2], [0, 2, 2]], [0, 1, 2], 2)

    def test_not_distributive_meets_off_frames(self):
        L = m3_lattice()
        mul = [[L.meet(a, b) for b in range(L.n)] for a in range(L.n)]
        with pytest.raises(NotDistributive):
            make_quantale(L, mul, list(range(L.n)), L.top)

    def test_zero_preservation_checked(self):
        L = chain_lattice(2)
        with pytest.raises(NotDistributive):
            make_quantale(L, [[0, 1], [1, 1]], [0, 1], 1)

    def test_not_involutive(self, rq2):
        with pytest.raises(NotInvolutive):
            make_quantale(rq2.lattice, rq2.mul_table, list(range(16)), rq2.unit)

    def test_bad_support_table(self, rq2):
        with pytest.raises(SupportLawFails):
            make_quantale(rq2.lattice, rq2.mul_table, rq2.inv_table, rq2.unit,
                          support=[0] * 16)

    def test_locale_as_quantale(self):
        # any frame with mul = meet, inv = id, unit = top, support = id
        L = powerset_lattice("xy")
        mul = [[L.meet(a, b) for b in range(L.n)] for a in range(L.n)]
        q = make_quantale(L, mul, list(range(L.n)), L.top,
                          support=list(range(L.n)))
        assert q.stable


def lukasiewicz3():
    'Three-element chain with truncated addition; no stable support.'
    L = chain_lattice(3)
    mul = [[max(a + b - 2, 0) for b in range(3)] for a in range(3)]
    return make_quantale(L, mul, [0, 1, 2], 2)


class TestDeriveSupport:
    def test_candidate_fails_on_mv_chain(self):
        q = lukasiewicz3()
        with pytest.raises(NoStableSupport):
            derive_support(q)

    def test_with_derived_support(self, rq2):
        bare = make_quantale(rq2.lattice, rq2.mul_table, rq2.inv_table, rq2.unit)
        assert not bare.has_support
        q = with_derived_support(bare)
        assert q.support_table == rq2.support_table

    def test_uniqueness_on_two_worlds(self, rq2):
        # every join-preserving endomap is fixed by its atom values; only the
        # domain-on-diagonal map satisfies the three support axioms
        e = rq2.unit
        atoms = [1 << i for i in range(4)]
        diag = [s for s in range(16) if rq2.leq(s, e)]
        survivors = []
        for vals in itertools.product(diag, repeat=4):
            table = []
            for a in range(16):
                s = 0
                for i in range(4):
                    if a >> i & 1:
                        s |= vals[i]
                table.append(s)
            ok = all(
                rq2.leq(table[a], rq2.mul(a, rq2.inv(a)))
                and rq2.leq(a, rq2.mul(table[a], a))
                for a in range(16))
            if ok:
                survivors.append(tuple(table))
        assert survivors == [rq2.support_table]


class TestGroupoids:
    def test_cyclic_two_quantale(self):
        G = group_groupoid(["id", "g"], [[0, 1], [1, 0]], [0, 1], 0)
        q = groupoid_quantale(G)
        assert q.n == 4
        gbit = 0b10
        assert q.mul(gbit, gbit) == 0b01
        assert q.support(gbit) == 0b01
        assert q.unit == 0b01
        assert q.stable

    def test_pair_groupoid_matches_relation_quantale(self, rq2):
        q = groupoid_quantale(pair_groupoid("ab"))
        assert q.mul_table == rq2.mul_table
        assert q.inv_table == rq2.inv_table
        assert q.unit == rq2.unit
        assert q.support_table == rq2.support_table

    def test_identity_inference(self):
        G = pair_groupoid("abc")
        assert [G.arrows[i] for i in G.identities] == [("a", "a"), ("b", "b"), ("c", "c")]

    def test_composability_mismatch_rejected(self):
        with pytest.raises(InvalidGroupoid):
            FiniteGroupoid(["x"], ["e", "f"], [0, 0], [0, 0],
                           {(0, 0): 0, (0, 1): 1, (1, 0): 1}, [0, 1])

    def test_wrong_inverse_rejected(self):
        with pytest.raises(InvalidGroupoid):
            group_groupoid(["id", "g", "h"],
                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                           [0, 1, 2], 0)   # in Z/3 the inverse of g is h

    def test_noninvertible_arrow_rejected(self):
        # an idempotent monoid on {e, g}: g has no inverse
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        with pytest.raises(InvalidGroupoid):
            FiniteGroupoid(["x"], ["e", "g"], [0, 0], [0, 0], comp, [0, 1])

    def test_missing_identity_rejected(self):
        with pytest.raises(InvalidGroupoid):
            FiniteGroupoid(["x"], [], [], [], {}, [])


class TestSupportsLocale:
    def test_relation_locale_is_world_powerset(self, rq2):
        loc = supports_locale(rq2)
        assert loc.lattice.n == 4
        assert loc.lattice.is_frame()
        assert len(loc.lattice.join_irreducibles()) == 2
        assert loc.to_q(loc.lattice.top) == rq2.unit

    def test_locale_mul_is_meet(self, rq2):
        loc = supports_locale(rq2)
        for x in loc.q_elements:
            for y in loc.q_elements:
                assert rq2.mul(x, y) == rq2.meet(x, y)

    def test_idempotence_failure_detected(self):
        q = lukasiewicz3()
        with pytest.raises(SupportLocaleLawFails):
            supports_locale(q)

    def test_lazy_relation_locale(self):
        loc = supports_locale(RelationQuantale("abc"))
        assert loc.lattice.n == 8
        assert loc.lattice.is_frame()


class TestPointFlags:
    def test_single_edge(self, rq2):
        flags = check_point_properties(rq2, enc2((0, 1)))
        assert not flags.reflexive
        assert flags.transitive          # the square is empty
        assert not flags.symmetric
        assert not flags.total_support

    def test_equivalence_relation(self, rq2):
        alpha = rq2.top
        flags = check_point_properties(rq2, alpha)
        assert flags.reflexive and flags.transitive and flags.symmetric
        assert flags.total_support


class TestModalSystems:
    def test_point_conditions_match_the_pair_oracle(self):
        # every point at 1-3 worlds; the tables at 1-2 worlds as well
        for k in (1, 2, 3):
            worlds = tuple(range(k))
            qs = [RelationQuantale(worlds)]
            if k < 3:
                qs.append(relation_quantale(worlds))
            for alpha in range(2 ** (k * k)):
                r = rel.decode(alpha, k)
                want = {
                    "reflexive": oracles.rel_diagonal(worlds) <= r,
                    "transitive": oracles.rel_compose(r, r) <= r,
                    "symmetric": oracles.rel_converse(r) == r,
                }
                for system, conditions in MODAL_SYSTEMS.items():
                    expected = all(want[c] for c in conditions)
                    for q in qs:
                        assert all(q.leq(y, z) for y, z in
                                   system_pairs(q, alpha, system)) == expected
                for q in qs:
                    flags = check_point_properties(q, alpha)
                    assert (flags.reflexive, flags.transitive,
                            flags.symmetric) == (want["reflexive"],
                                                 want["transitive"],
                                                 want["symmetric"])
