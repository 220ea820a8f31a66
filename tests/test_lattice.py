"""Lattice construction, closures, congruences, residuals."""

import itertools
import tracemalloc

import numpy as np
import pytest

from quantales.errors import (
    NotAClosureOperator,
    NotACongruence,
    NotAFrame,
    NotALattice,
    NotAPartialOrder,
    NotMeetClosed,
)
from quantales.lattice import (
    CARRIER_CAP,
    INDEX,
    ClosureOperator,
    Congruence,
    FiniteSupLattice,
    chain_lattice,
    closed_elements,
    closure_from_congruence,
    closure_from_meet_closed,
    closure_law_check,
    congruence_from_closure,
    diamond_lattice,
    index_table,
    make_lattice,
    meet_closed_closure_table,
    powerset_lattice,
)

from conftest import grid_lattice, m3_lattice, n5_lattice
from oracles import (
    all_closure_tables,
    assert_tables_realize_bounds,
    closed_lattice_by_pairs,
    lattice_tables,
    meet_closed_subsets,
    meet_closed_table_by_meets,
    powerset_by_subsets,
)


class TestMakeLattice:
    def test_two_chain_tables(self):
        L = make_lattice([0, 1], [(0, 0), (0, 1), (1, 1)])
        assert L.join(0, 1) == 1 and L.meet(0, 1) == 0
        assert L.bottom == 0 and L.top == 1

    def test_diamond_tables(self):
        L = diamond_lattice()
        a, b = L.index("a"), L.index("b")
        assert L.join(a, b) == L.top
        assert L.meet(a, b) == L.bottom

    def test_one_element_lattice_is_legal(self):
        L = chain_lattice(1)
        assert L.bottom == L.top == 0
        assert L.join(0, 0) == 0

    def test_tables_realize_bounds_on_corpus(self, small_lattices):
        for L in small_lattices:
            assert_tables_realize_bounds(L)

    def test_missing_join_rejected(self):
        with pytest.raises(NotALattice):
            make_lattice([0, "a", "b"],
                         [(0, 0), ("a", "a"), ("b", "b"), (0, "a"), (0, "b")])

    def test_no_least_upper_bound_rejected(self):
        # two lower bounds, two upper bounds, no least one
        elems = ["x", "y", "p", "q"]
        order = [(e, e) for e in elems]
        order += [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q")]
        with pytest.raises(NotALattice):
            make_lattice(elems, order)

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            make_lattice([0, 1], [(0, 0), (1, 1), (0, 1), (1, 0)])

    def test_missing_reflexivity_rejected(self):
        with pytest.raises(NotAPartialOrder):
            make_lattice([0, 1], [(0, 1), (1, 1)])

    def test_broken_transitivity_rejected(self):
        with pytest.raises(NotAPartialOrder):
            make_lattice([0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])

    def test_empty_carrier_rejected(self):
        with pytest.raises(NotALattice):
            make_lattice([], [])


class TestFrames:
    def test_powerset_is_frame(self):
        assert powerset_lattice("xy").is_frame()

    def test_chains_are_frames(self):
        assert chain_lattice(4).is_frame()

    def test_m3_is_not_a_frame(self):
        assert not m3_lattice().is_frame()

    def test_n5_is_not_a_frame(self):
        assert not n5_lattice().is_frame()

    def test_frame_witness_is_the_first_failing_triple(self, small_lattices):
        for L in [*small_lattices, powerset_lattice("xyz")]:
            first = next(((x, a, b) for x in range(L.n) for a in range(L.n)
                          for b in range(L.n)
                          if L.meet(x, L.join(a, b))
                          != L.join(L.meet(x, a), L.meet(x, b))), None)
            assert L._frame_witness() == first
            assert L.is_frame() == (first is None)
        assert m3_lattice()._frame_witness() is not None
        assert n5_lattice()._frame_witness() is not None


class TestClosure:
    def test_meet_closed_example(self):
        L = powerset_lattice("ab")
        S = [L.index(frozenset()), L.index(frozenset("ab"))]
        j = closure_from_meet_closed(L, S)
        assert j(L.index(frozenset("a"))) == L.index(frozenset("ab"))
        assert j(L.index(frozenset())) == L.index(frozenset())

    def test_not_meet_closed_rejected(self):
        L = powerset_lattice("ab")
        with pytest.raises(NotMeetClosed):
            closure_from_meet_closed(
                L, [L.top, L.index(frozenset("a")), L.index(frozenset("b"))])

    def test_missing_top_rejected(self):
        L = powerset_lattice("ab")
        with pytest.raises(NotMeetClosed):
            closure_from_meet_closed(L, [L.bottom])

    def test_bad_closure_table_rejected(self):
        L = chain_lattice(3)
        with pytest.raises(NotAClosureOperator):
            ClosureOperator(L, (0, 0, 2))      # not increasing at 1
        with pytest.raises(NotAClosureOperator):
            ClosureOperator(L, (1, 2, 2))      # not idempotent at 0

    @pytest.mark.parametrize("table", [(0, -1, 2), (0, 1, 3)])
    def test_closure_entries_outside_the_carrier_rejected(self, table):
        with pytest.raises(ValueError):
            ClosureOperator(chain_lattice(3), table)

    def test_short_closure_table_rejected(self):
        with pytest.raises(NotAClosureOperator,
                           match="^table size does not match the carrier$"):
            ClosureOperator(chain_lattice(3), (1, 2))

    def test_closed_elements_lattice(self):
        L = powerset_lattice("ab")
        j = closure_from_meet_closed(L, [L.bottom, L.top])
        C = closed_elements(L, j)
        assert C.n == 2
        assert C.labels == (frozenset(), frozenset("ab"))
        assert_tables_realize_bounds(C)

    def test_closed_elements_joins_use_closure(self):
        # closed = {0, a, 1} in the diamond; a join b must close to 1
        L = diamond_lattice()
        j = closure_from_meet_closed(L, [L.bottom, L.index("a"), L.top])
        C = closed_elements(L, j)
        assert C.n == 3
        ca = C.index("a")
        assert C.join(ca, C.index("0")) == ca
        assert_tables_realize_bounds(C)


    @pytest.mark.parametrize("closed", [[-1, 2], [2, 5], [3], [0, 1, 2, 3],
                                        [0.0, 2.0], [2, 65538], [True, False]])
    def test_closed_members_outside_the_carrier_rejected(self, closed):
        L = chain_lattice(3)
        for build in (closure_from_meet_closed, meet_closed_closure_table):
            with pytest.raises(ValueError, match="outside the carrier"):
                build(L, closed)


class TestCallerTables:
    # entries a narrowing to int16 would otherwise truncate or wrap: -65535
    # and 65537 become 1, 65536 becomes 0, and 2**70 does not fit int64
    @pytest.mark.parametrize("table", [
        [0.9, 1], [0.0, 1.0], [0, -65535], [0, 65537], [0, 65536], [0, 2**70],
        [False, True], ["0", "1"], [0, None]])
    def test_closure_tables_must_be_carrier_integers(self, table):
        L = chain_lattice(2)
        with pytest.raises(ValueError, match="into itself"):
            closure_law_check(L, table)
        with pytest.raises(ValueError, match="into itself"):
            ClosureOperator(L, table)

    @pytest.mark.parametrize("table", [
        [1, 1], (1, 1), np.array([1, 1], dtype=np.uint8),
        np.array([1, 1], dtype=np.int64), np.array([1, 1], dtype=object),
        [np.int64(1), 1]])
    def test_integers_of_any_width_are_accepted(self, table):
        L = chain_lattice(2)
        assert closure_law_check(L, table).ok
        assert ClosureOperator(L, table).table == (1, 1)
        t = index_table(table, L.n, "unused")
        assert t.dtype == INDEX and t.tolist() == [1, 1]


class TestCarrierCap:
    def test_a_powerset_past_the_cap_raises_before_allocating(self):
        # 2^16 elements, whose tables would have 2^32 cells each
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds"):
                powerset_lattice(range(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_other_constructors_past_the_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_lattice(range(CARRIER_CAP + 1), [])
        with pytest.raises(ValueError, match="exceeds"):
            FiniteSupLattice(range(CARRIER_CAP + 1), None, None, None, 0, 0)


def _outcome(f, *args):
    'The result of f, or the type and message of the exception it raised.'
    try:
        return f(*args)
    except NotMeetClosed as exc:
        return type(exc), str(exc)


class TestCutByIndexing:
    """The closed lattice, the closure of a meet-closed set and the powerset
    against their pair-by-pair references in tests/oracles.py."""

    def test_every_subset_of_the_small_lattices(self, small_lattices):
        # the Moore families give tables and closed lattices; every other
        # subset gives the same NotMeetClosed message
        families = 0
        for L in small_lattices:
            for r in range(L.n + 1):
                for S in itertools.combinations(range(L.n), r):
                    got = _outcome(meet_closed_closure_table, L, S)
                    assert got == _outcome(meet_closed_table_by_meets, L, S)
                    if isinstance(got[0], type):
                        continue
                    families += 1
                    C = closed_elements(L, ClosureOperator(L, got))
                    assert lattice_tables(C) == closed_lattice_by_pairs(L, got)
        assert families == sum(len(list(meet_closed_subsets(L)))
                               for L in small_lattices)

    @pytest.mark.parametrize("k", range(10))
    def test_powerset_lattice(self, k):
        items = "abcdefghi"[:k]
        assert lattice_tables(powerset_lattice(items)) == powerset_by_subsets(items)

    def test_no_scalar_call_cuts_a_lattice(self, monkeypatch):
        L = powerset_lattice("abc")
        S = [0, 1, 2, 3, 7]
        want = meet_closed_table_by_meets(L, S)
        ref = closed_lattice_by_pairs(L, want)

        def scalar(*args):
            raise AssertionError("scalar lattice call")

        for name in ("leq", "join", "meet"):
            monkeypatch.setattr(FiniteSupLattice, name, scalar)
        table = meet_closed_closure_table(L, S)
        with pytest.raises(NotMeetClosed):
            meet_closed_closure_table(L, [1, 2, 7])
        C = closed_elements(L, ClosureOperator(L, table))
        monkeypatch.undo()
        assert table == want and lattice_tables(C) == ref


class TestStoredTables:
    def test_tables_are_read_only(self):
        L = diamond_lattice()
        for table in (L.leq_matrix, L.join_matrix, L.meet_matrix):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = table[1, 1]

    def test_tables_are_read_only_arrays_of_the_index_type(self,
                                                           small_lattices):
        P = powerset_lattice("abc")
        cut = closed_elements(P, closure_from_meet_closed(P, [0, 1, 3, 7]))
        for L in (*small_lattices, P, cut):
            assert L.leq_matrix.dtype == bool
            assert L.join_matrix.dtype == L.meet_matrix.dtype == INDEX
            for table in (L.leq_matrix, L.join_matrix, L.meet_matrix):
                assert not table.flags.writeable

    def test_constructor_copies_its_input(self):
        L = diamond_lattice()
        before = lattice_tables(L)
        leq, join, meet = (t.copy() for t in
                           (L.leq_matrix, L.join_matrix, L.meet_matrix))
        M = FiniteSupLattice(L.labels, leq, join, meet, L.bottom, L.top)
        leq[:] = True
        join[:] = 0
        meet[:] = 3
        assert lattice_tables(M) == before

    def test_scalars_are_python_values(self, small_lattices):
        P = powerset_lattice("ab")
        cut = closed_elements(P, closure_from_meet_closed(P, [0, 1, 3]))
        for L in (*small_lattices, cut):
            assert type(L.leq(0, L.top)) is bool
            assert type(L.join(0, L.top)) is int
            assert type(L.meet(0, L.top)) is int
            assert type(L.bottom) is int and type(L.top) is int
            assert all(type(j) is int for j in L.join_irreducibles())
            assert type(L.join_all(range(L.n))) is int
            assert type(L.meet_all(range(L.n))) is int


class TestRoundTrips:
    def test_meet_closed_set_round_trip(self, small_lattices):
        # L_{j_S} = S for every meet-closed S, over every corpus lattice <= 6
        for L in small_lattices:
            if L.n > 6:
                continue
            for S in meet_closed_subsets(L):
                j = closure_from_meet_closed(L, S)
                assert frozenset(j.closed()) == S

    def test_closure_round_trip(self, small_lattices):
        # j_{L_j} = j for every closure operator, over every corpus lattice <= 6
        for L in small_lattices:
            if L.n > 6:
                continue
            for t in all_closure_tables(L):
                j = ClosureOperator(L, t)
                back = closure_from_meet_closed(L, j.closed())
                assert back.table == j.table

    def test_congruence_round_trips(self, small_lattices):
        for L in small_lattices:
            if L.n > 5:
                continue
            for t in all_closure_tables(L):
                j = ClosureOperator(L, t)
                theta = congruence_from_closure(L, j)
                back = closure_from_congruence(L, theta)
                assert back.table == j.table
                assert congruence_from_closure(L, back).pairs == theta.pairs

    def test_all_congruences_arise_from_closures(self):
        # exhaustive over equivalences on <= 4 elements
        L = diamond_lattice()
        elems = list(range(L.n))
        count = 0
        for t in itertools.product(range(L.n), repeat=L.n):
            # t encodes a candidate partition by representative
            pairs = frozenset((a, b) for a in elems for b in elems if t[a] == t[b])
            try:
                theta = Congruence(L, pairs)
            except NotACongruence:
                continue
            count += 1
            j = closure_from_congruence(L, theta)
            assert congruence_from_closure(L, j).pairs == theta.pairs
        assert count >= 2   # at least the identity and the total congruence

    def test_join_closure_failure_rejected(self):
        L = diamond_lattice()
        z, a, b, t = (L.index(x) for x in "0ab1")
        pairs = {(z, a), (a, z)} | {(x, x) for x in range(L.n)}
        with pytest.raises(NotACongruence):
            Congruence(L, frozenset(pairs))


class TestResidual:
    def test_three_chain_residuals(self):
        L = chain_lattice(3)
        assert L.residual(1, 0) == 0     # largest c with min(1, c) <= 0
        assert L.residual(2, 1) == 1

    def test_powerset_residual(self):
        L = powerset_lattice("ab")
        a = L.index(frozenset("a"))
        assert L.label(L.residual(a, L.bottom)) == frozenset("b")

    def test_residual_rejected_off_frames(self):
        with pytest.raises(NotAFrame):
            m3_lattice().residual(0, 0)

    def test_adjunction_exhaustive(self, small_frames):
        # b meet c <= a  iff  c <= b \ a
        for L in small_frames:
            if L.n > 6:
                continue
            for a in range(L.n):
                for b in range(L.n):
                    r = L.residual(b, a)
                    for c in range(L.n):
                        assert L.leq(L.meet(b, c), a) == L.leq(c, r)


class TestJoinIrreducibles:
    def test_powerset_atoms(self):
        L = powerset_lattice("ab")
        irr = {L.label(i) for i in L.join_irreducibles()}
        assert irr == {frozenset("a"), frozenset("b")}

    def test_chain_irreducibles(self):
        L = chain_lattice(3)
        assert L.join_irreducibles() == (1, 2)

    def test_decomposition_in_frames(self, small_frames):
        # every element is the join of the irreducibles below it
        for L in small_frames:
            irr = L.join_irreducibles()
            for x in range(L.n):
                assert L.join_all(j for j in irr if L.leq(j, x)) == x

    def test_decomposition_can_fail_off_frames(self):
        L = m3_lattice()
        irr = L.join_irreducibles()
        # the top is a join of irreducibles here too, so check the count
        assert len(irr) == 3

    def test_grid_frame_irreducibles(self):
        L = grid_lattice()
        assert len(L.join_irreducibles()) == 3
