"""Diamonds from a point, conjugacy, box adjoints, modal classes."""

import pytest

from quantales import relations as rel
from quantales.bimodal import (
    BimodalFrame,
    box_adjoints,
    check_conjugacy,
    check_modal_class,
    conjugate_pairs,
    diamonds_from_point,
    join_preservation_witness,
    join_preserving_endomaps,
)
from quantales.errors import LawCheck, NotConjugate, NotJoinPreserving
from quantales.lattice import chain_lattice, powerset_lattice
from quantales.nucleus import is_nucleus
from quantales.quantale import relation_quantale, supports_locale
from quantales.relations import RelationQuantale, check_point_properties


@pytest.fixture(scope="session")
def rq2():
    return relation_quantale("ab")


@pytest.fixture(scope="session")
def loc2(rq2):
    return supports_locale(rq2)


def enc2(*pairs):
    return rel.encode(pairs, 2)


class TestDiamondsFromPoint:
    def test_single_edge_example(self, rq2, loc2):
        alpha = enc2((0, 1))
        bm = diamonds_from_point(rq2, alpha, loc2)
        only_b = loc2.from_q(enc2((1, 1)))
        only_a = loc2.from_q(enc2((0, 0)))
        assert bm.dia[only_b] == only_a
        assert bm.bdia[only_a] == only_b
        assert bm.dia[only_a] == loc2.lattice.bottom

    def test_conjugacy_theorem_all_points_two_worlds(self, rq2, loc2):
        for alpha in range(16):
            bm = diamonds_from_point(rq2, alpha, loc2)
            assert check_conjugacy(bm.frame, bm.dia, bm.bdia).ok

    def test_symmetric_point_gives_equal_diamonds(self, rq2, loc2):
        for alpha in range(16):
            if rq2.inv(alpha) == alpha:
                bm = diamonds_from_point(rq2, alpha, loc2)
                assert bm.dia == bm.bdia

    def test_lazy_quantale_four_worlds(self):
        q = RelationQuantale("wxyz")
        alpha = rel.encode([(0, 1), (1, 2), (2, 3), (3, 3)], 4)
        bm = diamonds_from_point(q, alpha)
        assert check_conjugacy(bm.frame, bm.dia, bm.bdia).ok


class TestConjugacy:
    def test_engineered_failure(self):
        L = powerset_lattice("ab")
        a = L.index(frozenset("a"))
        b = L.index(frozenset("b"))
        # dia moves a to b; pairing it with the identity breaks conjugacy
        dia = (L.bottom, b, b, b)
        ident = tuple(range(L.n))
        check = check_conjugacy(L, dia, ident)
        assert not check.ok
        assert check.witness is not None
        with pytest.raises(NotConjugate):
            BimodalFrame(L, dia, ident)

    def test_the_failing_side_is_the_law_the_error_names(self):
        L = powerset_lattice("ab")
        b = L.index(frozenset("b"))
        dia = (L.bottom, b, b, b)
        ident = tuple(range(L.n))
        for first, second, side in ((dia, ident, "backward"),
                                    (ident, dia, "forward")):
            check = check_conjugacy(L, first, second)
            assert (bool(check), check.law, check.witness) == (False, side, (1, 1))
            with pytest.raises(NotConjugate) as exc:
                BimodalFrame(L, first, second)
            assert str(exc.value) == f"{side} conjugacy fails at (1, 1)"

    def test_every_exhaustive_check_returns_a_law_check(self, rq2, loc2):
        L = loc2.lattice
        ident = tuple(range(L.n))
        assert type(check_conjugacy(L, ident, ident)) is LawCheck
        assert type(check_modal_class(L, ident, ident, "S5")) is LawCheck
        assert type(is_nucleus(rq2, list(range(rq2.n)))) is LawCheck

    def test_join_preservation_reported_distinctly(self):
        L = powerset_lattice("ab")
        bad = (L.top,) * L.n
        with pytest.raises(NotJoinPreserving):
            check_conjugacy(L, bad, tuple(range(L.n)))


class TestBoxAdjoints:
    def test_spec_values_single_edge(self, rq2, loc2):
        alpha = enc2((0, 1))
        bm = diamonds_from_point(rq2, alpha, loc2)
        box, bbox = box_adjoints(bm.frame, bm.dia, bm.bdia)
        only_b = loc2.from_q(enc2((1, 1)))
        # no world reaches a via the point, so box of the empty set is {b}
        assert box[loc2.lattice.bottom] == only_b
        assert box[only_b] == loc2.lattice.top

    def test_adjunction_units_and_counits(self, loc2):
        L = loc2.lattice
        for dia, bdia in conjugate_pairs(L):
            box, bbox = box_adjoints(L, dia, bdia)
            for x in range(L.n):
                assert L.leq(dia[bbox[x]], x) and L.leq(x, box[bdia[x]])
                assert L.leq(bdia[box[x]], x) and L.leq(x, bbox[dia[x]])

    def test_enumeration_is_join_preserving_and_complete(self, loc2):
        L = loc2.lattice
        maps = set(join_preserving_endomaps(L))
        # on a powerset with k atoms these are exactly the relations on atoms
        k = len(L.join_irreducibles())
        assert len(maps) == 2 ** (k * k)
        for t in maps:
            assert t[L.bottom] == L.bottom
            for a in range(L.n):
                for b in range(L.n):
                    assert t[L.join(a, b)] == L.join(t[a], t[b])


class TestModalClasses:
    def test_flags_match_point_properties(self, rq2, loc2):
        for alpha in range(16):
            flags = check_point_properties(rq2, alpha)
            bm = diamonds_from_point(rq2, alpha, loc2)
            if flags.reflexive:
                assert check_modal_class(bm.frame, bm.dia, bm.bdia, "T").ok
            if flags.transitive:
                assert check_modal_class(bm.frame, bm.dia, bm.bdia, "K4").ok
            if flags.reflexive and flags.transitive:
                assert check_modal_class(bm.frame, bm.dia, bm.bdia, "S4").ok
            if flags.reflexive and flags.transitive and flags.symmetric:
                assert check_modal_class(bm.frame, bm.dia, bm.bdia, "S5").ok

    def test_irreflexive_point_fails_t(self, rq2, loc2):
        bm = diamonds_from_point(rq2, enc2((0, 1)), loc2)
        check = check_modal_class(bm.frame, bm.dia, bm.bdia, "T")
        assert not check.ok and check.law.startswith("T")

    def test_unknown_class_rejected(self, loc2):
        ident = tuple(range(loc2.lattice.n))
        with pytest.raises(ValueError):
            check_modal_class(loc2.lattice, ident, ident, "B")


class TestCorollaryShapedInequalities:
    def test_reflexive_point_absorbs(self, rq2):
        # s(a b) <= s(a alpha b) whenever the unit sits below alpha
        for alpha in range(16):
            if not rq2.leq(rq2.unit, alpha):
                continue
            for a in range(16):
                for b in range(16):
                    lhs = rq2.support(rq2.mul(a, b))
                    rhs = rq2.support(rq2.mul(a, rq2.mul(alpha, b)))
                    assert rq2.leq(lhs, rhs)

    def test_transitive_point_squares_collapse(self, rq2):
        for alpha in range(16):
            if not rq2.leq(rq2.mul(alpha, alpha), alpha):
                continue
            aa = rq2.mul(alpha, alpha)
            for a in range(16):
                for b in range(16):
                    lhs = rq2.support(rq2.mul(a, rq2.mul(aa, b)))
                    rhs = rq2.support(rq2.mul(a, rq2.mul(alpha, b)))
                    assert rq2.leq(lhs, rhs)

    def test_symmetric_point_two_sided(self, rq2):
        for alpha in range(16):
            if rq2.inv(alpha) != alpha:
                continue
            for a in range(16):
                for b in range(16):
                    assert rq2.support(rq2.mul(a, rq2.mul(alpha, b))) == \
                        rq2.support(rq2.mul(a, rq2.mul(rq2.inv(alpha), b)))


class TestMalformedMapTables:
    # on the 3-chain: a short table, an entry n and an entry -1, which
    # would otherwise index from the end, and entries that are not integers
    BAD = [(0, 1), (0, 1, 3), (0, -1, 2), (0.0, 1.0, 2.0), (0, 1.5, 2)]
    ENTRY_POINTS = {
        "check_conjugacy": check_conjugacy,
        "box_adjoints": box_adjoints,
        "check_modal_class": lambda L, d, b: check_modal_class(L, d, b, "S5"),
        "BimodalFrame": BimodalFrame,
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_before_any_law(self, entry, bad):
        L = chain_lattice(3)
        ident = tuple(range(L.n))
        call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError):
            call(L, bad, ident)
        with pytest.raises(ValueError):
            call(L, ident, bad)


@pytest.mark.parametrize("table", [[0, 5], [0, -1], [0, 0.5], [0.0, 1.0],
                                   [0, 65537], [0, 2**70], [0]])
def test_join_preservation_witness_rejects_tables_off_the_carrier(table):
    # -1 would otherwise index from the end, giving the witness (0, 1)
    with pytest.raises(ValueError, match="into itself"):
        join_preservation_witness(chain_lattice(2), table)
