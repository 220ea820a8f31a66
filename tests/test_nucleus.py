"""Nuclei, generated nuclei, and quotient quantales."""

import random
import tracemalloc

import numpy as np
import pytest

import quantales.nucleus
from quantales import relations as rel
from quantales.errors import InternalValidationFailed, NotANucleus
from quantales.lattice import (INDEX, FiniteSupLattice, closed_elements,
                               diamond_lattice, meet_closed_closure_table,
                               powerset_lattice)
from quantales.nucleus import (
    Nucleus,
    is_nucleus,
    least_nucleus,
    nucleus_join,
    nucleus_meet,
    quotient,
    saturated_bounds,
    supported_closure,
)
from quantales.quantale import (
    Quantale,
    _check_laws_exhaustively,
    _irreducible_ranks,
    _laws_hold_on_irreducibles,
    group_groupoid,
    groupoid_quantale,
    make_quantale,
    relation_quantale,
)
from quantales.relations import check_point_properties, system_pairs

import gen
from oracles import (all_closure_tables, closed_lattice_by_pairs,
                     lattice_tables, meet_closed_table_by_meets,
                     projection_by_closures, quotient_tables_by_closures,
                     tables)


@pytest.fixture(scope="session")
def rq2():
    return relation_quantale("ab")


@pytest.fixture(scope="session")
def locale2():
    'The 2-element frame as a quantale: mul = meet, support = identity.'
    L = powerset_lattice("x")
    mul = [[L.meet(a, b) for b in range(L.n)] for a in range(L.n)]
    return make_quantale(L, mul, [0, 1], L.top, support=[0, 1])


@pytest.fixture(scope="session")
def rq1():
    return relation_quantale("a")


@pytest.fixture(scope="session")
def z2():
    return groupoid_quantale(
        group_groupoid(["e", "g"], [[0, 1], [1, 0]], [0, 1], 0))


@pytest.fixture(scope="session")
def diamond_locale():
    'The diamond frame as a quantale: mul = meet, inv = support = identity.'
    L = diamond_lattice()
    _, mt = tables(L)
    ident = list(range(L.n))
    return make_quantale(L, mt, ident, L.top, support=ident)


def _loop_is_nucleus(q, t):
    'The nucleus laws checked one element at a time, in is_nucleus order.'
    L = q.lattice
    for a in range(q.n):
        if not L.leq(a, t[a]):
            return False, "increasing", (a,)
        if t[t[a]] != t[a]:
            return False, "idempotent", (a,)
        for b in range(q.n):
            if L.leq(a, b) and not L.leq(t[a], t[b]):
                return False, "monotone", (a, b)
    for a in range(q.n):
        for b in range(q.n):
            if not L.leq(q.mul(t[a], t[b]), t[q.mul(a, b)]):
                return False, "mul", (a, b)
    for a in range(q.n):
        if not L.leq(q.inv(t[a]), t[q.inv(a)]):
            return False, "inv", (a,)
    for a in range(q.n):
        if not L.leq(q.support(t[a]), t[q.support(a)]):
            return False, "support", (a,)
    return True, None, None


class TestIsNucleus:
    def test_identity_and_top_are_nuclei(self, rq2):
        assert is_nucleus(rq2, list(range(16))).ok
        assert is_nucleus(rq2, [15] * 16).ok

    def test_reflexive_closure_is_not_a_nucleus(self, rq2):
        e = rq2.unit
        table = [rq2.join(a, e) for a in range(16)]
        check = is_nucleus(rq2, table)
        assert not check.ok
        assert check.law == "mul"
        a, b = check.witness
        # replay the witness
        assert not rq2.leq(rq2.mul(table[a], table[b]), table[rq2.mul(a, b)])

    def test_closure_law_failures_reported_first(self, rq2):
        assert is_nucleus(rq2, [0] * 16).law == "increasing"
        table = list(range(16))
        table[1] = 3
        table[3] = 1
        assert is_nucleus(rq2, table).law in ("idempotent", "monotone")

    def test_first_failure_matches_the_element_loop(self, rq1, rq2, locale2,
                                                    z2, diamond_locale):
        # the copies with random involution and support tables, unvalidated,
        # make the inv and support laws fail where the earlier ones hold
        rng = random.Random(0)
        for q in (rq1, rq2, locale2, z2, diamond_locale):
            # every closure table where there are few, else the least nuclei
            candidates = ([list(t) for t in all_closure_tables(q.lattice)]
                          if q.n <= 4 else
                          [list(least_nucleus(q, pairs).table)
                           for pairs in _random_relations(q, seed=1)])
            candidates += [[rng.randrange(q.n) for _ in range(q.n)]
                           for _ in range(200)]
            candidates += [[q.join(a, x) for a in range(q.n)]
                           for x in range(q.n)]
            def scrambled():
                return [rng.randrange(q.n) for _ in range(q.n)]
            copies = [Quantale(q.lattice, q.mul_matrix, scrambled(), q.unit,
                               support)
                      for support in (q.support_vector, scrambled())]
            for p in (q, *copies):
                for t in candidates:
                    check = is_nucleus(p, t)
                    assert (check.ok, check.law, check.witness) == \
                        _loop_is_nucleus(p, t)

    def test_a_table_off_the_carrier_is_rejected(self, rq2):
        with pytest.raises(ValueError):
            is_nucleus(rq2, [15] * 15)
        with pytest.raises(ValueError):
            is_nucleus(rq2, [16] * 16)

    @pytest.mark.parametrize("table", [[0.0, 1.0], [0, 1.5], [0, 65537],
                                       [0, 2**70], [False, True]])
    def test_tables_must_be_carrier_integers(self, rq1, table):
        with pytest.raises(ValueError, match="into itself"):
            is_nucleus(rq1, table)
        with pytest.raises(ValueError, match="into itself"):
            Nucleus(rq1, table)

    def test_the_stored_table_holds_python_ints(self, rq1):
        nuc = Nucleus(rq1, np.array([0, 1], dtype=np.int64))
        assert nuc.table == (0, 1)
        assert all(type(v) is int for v in nuc.table)

    def test_constructor_rejects_non_nucleus(self, rq2):
        e = rq2.unit
        with pytest.raises(NotANucleus):
            Nucleus(rq2, [rq2.join(a, e) for a in range(16)])


class TestSupportedClosure:
    def test_two_element_saturation_by_hand(self, locale2):
        # rules reach exactly {(1,0), (0,0)} from {(1,0)}
        out = supported_closure(locale2, [(1, 0)])
        assert out == frozenset({(1, 0), (0, 0)})

    def test_closure_is_a_fixed_point(self, rq2):
        alpha = rel.encode([(0, 1)], 2)
        out = supported_closure(rq2, [(rq2.unit, alpha)])
        for y, z in out:
            assert (rq2.inv(y), rq2.inv(z)) in out
            assert (rq2.support(y), rq2.support(z)) in out
            for a in range(16):
                assert (rq2.mul(a, y), rq2.mul(a, z)) in out
                assert (rq2.mul(y, a), rq2.mul(z, a)) in out

    def test_three_rule_presentation_agrees(self, rq1):
        # two-sided multiplications in one rule give the same saturation
        def three_rule(q, pairs):
            seen = set()
            work = [tuple(p) for p in pairs]
            while work:
                y, z = work.pop()
                if (y, z) in seen:
                    continue
                seen.add((y, z))
                work.append((q.support(y), q.support(z)))
                work.append((q.inv(y), q.inv(z)))
                for a in range(q.n):
                    for b in range(q.n):
                        work.append((q.mul(q.mul(a, y), b), q.mul(q.mul(a, z), b)))
            return frozenset(seen)

        for pairs in ([(1, 0)], [(rq1.unit, rq1.top)], [(0, 1)]):
            assert supported_closure(rq1, pairs) == three_rule(rq1, pairs)


def _random_relations(q, seed, count=25):
    'Seeded generating relations of zero to three pairs.'
    rng = random.Random(seed)
    return [[(rng.randrange(q.n), rng.randrange(q.n))
             for _ in range(rng.randrange(4))] for _ in range(count)]


@pytest.mark.parametrize("name", ["rq1", "rq2", "locale2", "z2",
                                  "diamond_locale"])
def test_compressed_bounds_are_joins_of_the_explicit_saturation(request, name):
    q = request.getfixturevalue(name)
    L = q.lattice
    for pairs in _random_relations(q, seed=name):
        explicit = supported_closure(q, pairs)
        joins = [L.join_all(y for y, z in explicit if z == w)
                 for w in range(q.n)]
        assert saturated_bounds(q, pairs) == joins
        closed = [x for x in range(q.n)
                  if all(L.leq(y, x) for y, z in explicit if L.leq(z, x))]
        assert list(least_nucleus(q, pairs).closed()) == closed


@pytest.mark.parametrize("name", ["rq1", "rq2", "locale2", "z2",
                                  "diamond_locale"])
def test_quotients_are_accepted_by_both_paths(request, name):
    # the irreducible path runs exactly on distributive closed carriers
    q = request.getfixturevalue(name)
    for pairs in _random_relations(q, seed=name):
        new = quotient(q, least_nucleus(q, pairs)).quantale
        L = new.lattice
        M = new.mul_matrix
        J = L.join_matrix
        assert (_irreducible_ranks(L, J) is not None) == L.is_frame()
        assert _laws_hold_on_irreducibles(L, M, J) == L.is_frame()
        _check_laws_exhaustively(M, J)


class TestLeastNucleus:
    def test_collapse_to_a_point(self, locale2):
        nuc = least_nucleus(locale2, [(locale2.top, locale2.bottom)])
        assert nuc.closed() == (locale2.top,)
        quo = quotient(locale2, nuc)
        assert quo.quantale.n == 1

    def test_empty_relation_gives_identity(self, rq2):
        nuc = least_nucleus(rq2, [])
        assert nuc.table == tuple(range(16))

    def test_minimality_against_enumerated_nuclei(self, rq1, locale2):
        for q in (rq1, locale2):
            all_nuclei = [t for t in all_closure_tables(q.lattice)
                          if is_nucleus(q, t).ok]
            assert all_nuclei
            relations = [[(q.top, q.bottom)], [(q.unit, q.top)],
                         [(1, 0)], [(q.top, q.unit)]]
            for R in relations:
                j = least_nucleus(q, R)
                assert is_nucleus(q, j.table).ok
                for k in all_nuclei:
                    if all(q.leq(k[y], k[z]) for y, z in R):
                        assert all(q.leq(j(x), k[x]) for x in range(q.n))

    def test_defining_property(self, rq2):
        alpha = rel.encode([(0, 1)], 2)
        j = least_nucleus(rq2, [(rq2.unit, alpha)])
        assert rq2.leq(j(rq2.unit), j(alpha))

    # -1 would otherwise index from the end, reading (1, -1) as (1, top)
    @pytest.mark.parametrize("pairs", [[(1, -1)], [(1, 5)], [(0.0, 1)],
                                       [(1, 65537)], [(1,)], [(0, 1, 1)]])
    def test_pairs_off_the_carrier_are_rejected(self, rq1, pairs):
        for build in (least_nucleus, saturated_bounds, supported_closure):
            with pytest.raises(ValueError, match="generating pair"):
                build(rq1, pairs)


class TestQuotient:
    def test_t_quotient_of_relation_quantale(self, rq2):
        alpha = rel.encode([(0, 1)], 2)
        nuc = least_nucleus(rq2, [(rq2.unit, alpha)])
        quo = quotient(rq2, nuc)
        assert quo.quantale.has_support
        # the image of the point is reflexive in the quotient
        flags = check_point_properties(quo.quantale, quo.projection[alpha])
        assert flags.reflexive

    def test_support_transfer_is_validated(self, rq2):
        nuc = least_nucleus(rq2, [(rq2.unit, rq2.top)])
        quo = quotient(rq2, nuc)
        new = quo.quantale
        assert new.has_support
        for a in range(new.n):
            for b in range(new.n):
                assert new.support(new.mul(a, b)) == \
                    new.support(new.mul(a, new.support(b)))

    def test_projection_homomorphism_spot_checks(self, rq2):
        alpha = rel.encode([(0, 1), (1, 0)], 2)
        nuc = least_nucleus(rq2, [(rq2.unit, alpha)])
        quo = quotient(rq2, nuc)
        pi = quo.projection
        new = quo.quantale
        for a in range(16):
            assert new.inv(pi[a]) == pi[rq2.inv(a)]
            assert new.support(pi[a]) == pi[rq2.support(a)]
            for b in range(16):
                assert new.mul(pi[a], pi[b]) == pi[rq2.mul(a, b)]
                assert new.join(pi[a], pi[b]) == pi[rq2.join(a, b)]


@pytest.mark.parametrize("shape", ["identity", "one loop"])
def test_512_element_quotients_match_the_pairwise_references(shape):
    # the two 3-world shapes of the quotient benchmark: closed 512 of 512,
    # and closed 1 of 512
    q = relation_quantale("abc")
    alpha = q.unit if shape == "identity" else rel.encode([(0, 0)], 3)
    nuc = least_nucleus(q, system_pairs(q, alpha, "T"))
    assert len(nuc.closed()) == (512 if shape == "identity" else 1)
    L = q.lattice
    assert (meet_closed_closure_table(L, nuc.closed())
            == meet_closed_table_by_meets(L, nuc.closed()) == nuc.table)
    want = closed_lattice_by_pairs(L, nuc.table)
    assert lattice_tables(closed_elements(L, nuc)) == want
    assert lattice_tables(quotient(q, nuc).quantale.lattice) == want


def test_512_element_quotient_tables_are_read_only_index_arrays():
    q = relation_quantale("abc")
    nuc = least_nucleus(q, system_pairs(q, q.unit, "T"))
    new = quotient(q, nuc).quantale
    cut = closed_elements(q.lattice, nuc)
    for table in (new.mul_matrix, new.inv_vector, new.support_vector,
                  new.lattice.join_matrix, new.lattice.meet_matrix,
                  cut.join_matrix, cut.meet_matrix):
        assert table.dtype == INDEX and not table.flags.writeable


def test_512_element_quotient_stays_under_its_traced_peak():
    # the two 3-world shapes of the quotient benchmark, the identity point
    # and one loop.  Both peak near 4.56 MB traced, in make_quantale's
    # check of the document's table: the identity quotient is the parent,
    # and the collapsing one has a single element.  The bound leaves
    # 0.44 MB, under one 512^2 int16 table (0.5 MB), so a copied table or
    # a second proof of the parent breaks it
    for loop in (False, True):
        tracemalloc.start()
        try:
            q = relation_quantale("abc")
            alpha = rel.encode([(0, 0)], 3) if loop else q.unit
            nuc = least_nucleus(q, system_pairs(q, alpha, "T"))
            quotient(q, nuc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0e6


def _loop_projection_break(q, new, proj):
    'The first homomorphism failure of proj, checked pair by pair.'
    for a in range(q.n):
        if new.inv(proj[a]) != proj[q.inv(a)]:
            return f"projection breaks involution at {a}"
        if new.support(proj[a]) != proj[q.support(a)]:
            return f"projection breaks support at {a}"
        for b in range(q.n):
            if new.mul(proj[a], proj[b]) != proj[q.mul(a, b)]:
                return f"projection breaks multiplication at {(a, b)}"
            if new.join(proj[a], proj[b]) != proj[q.join(a, b)]:
                return f"projection breaks joins at {(a, b)}"
    return None


def _corrupt(new, part, cells):
    """A copy of new, unvalidated, with the entries at cells changed in one
    table, or in both the multiplication and the join table."""
    mul = new.mul_matrix.tolist()
    inv = new.inv_vector.tolist()
    support = new.support_vector.tolist()
    L = new.lattice
    join = L.join_matrix.copy()
    for x, y in cells:
        if part == "inv":
            inv[x] = y
        elif part == "support":
            support[x] = y
        if part in ("mul", "both"):
            mul[x][y] = L.top if mul[x][y] != L.top else L.bottom
        if part in ("join", "both"):
            join[x][y] = L.top if join[x][y] != L.top else L.bottom
    lat = FiniteSupLattice(L.labels, L.leq_matrix, join, L.meet_matrix,
                           L.bottom, L.top)
    return Quantale(lat, mul, inv, new.unit, support)


@pytest.fixture(scope="session")
def locale16():
    """The 4-atom powerset frame as a quantale: mul = meet, inv = support
    = identity.  Its nuclei include x |-> x v a, which relation_quantale
    on two worlds lacks: its only nuclei close all 16 elements or one."""
    L = powerset_lattice("wxyz")
    ident = list(range(L.n))
    return make_quantale(L, L.meet_matrix, ident, L.top, support=ident)


@pytest.mark.parametrize("part", ["inv", "support", "mul", "join", "both"])
def test_projection_check_names_the_first_broken_law(locale16, monkeypatch,
                                                     part):
    # x |-> x v {w}: closes the 8 elements above the atom
    nuc = least_nucleus(locale16, [(1, 0)])
    assert len(nuc.closed()) == 8
    good = quotient(locale16, nuc)
    rng = random.Random(part)
    n = good.quantale.n
    for size in (1, 2, 3) * 4:
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(size)]
        bad = _corrupt(good.quantale, part, cells)
        # quotient builds its Quantale from the cut tables; hand it bad
        monkeypatch.setattr(quantales.nucleus, "Quantale", lambda *a: bad)
        expected = _loop_projection_break(locale16, bad, good.projection)
        if expected is None:
            quotient(locale16, nuc)
        else:
            with pytest.raises(InternalValidationFailed) as err:
                quotient(locale16, nuc)
            assert str(err.value) == expected
        monkeypatch.undo()


def _quotient_cases(name):
    """(q, point, system) for every point and system of a case: every
    2-world point under T, K4, S4 and S5, the 3-world loop point under T,
    and every point of S3 under S4 and of pair(2)+Z2 under S5."""
    if name == "rel2":
        q = relation_quantale("ab")
        return [(q, a, s) for s in rel.MODAL_SYSTEMS for a in range(q.n)]
    if name == "rel3 loop":
        q = relation_quantale("abc")
        return [(q, rel.encode([(0, 0)], 3), "T")]
    G, system = {"s3": (gen.s3_groupoid, "S4"),
                 "pair2+z2": (gen.pair2_z2_groupoid, "S5")}[name]
    q = groupoid_quantale(G())
    return [(q, a, system) for a in range(q.n)]


@pytest.mark.parametrize("name", ["rel2", "rel3 loop", "s3", "pair2+z2"])
def test_quotients_pass_the_full_law_check(name):
    # the slow path stays the reference: make_quantale accepts the tables
    # that quotient proved through its projection alone, and they and the
    # projection are those of the element-by-element construction
    collapsed = 0
    for q, alpha, system in _quotient_cases(name):
        nuc = least_nucleus(q, system_pairs(q, alpha, system))
        quo = quotient(q, nuc)
        new = quo.quantale
        checked = make_quantale(new.lattice, new.mul_matrix, new.inv_vector,
                                new.unit, support=new.support_vector)
        mul, inv, support, unit = quotient_tables_by_closures(q, nuc.table)
        assert (checked.mul_matrix.tolist(), checked.inv_vector.tolist(),
                checked.support_vector.tolist(), checked.unit) == \
            (mul, inv, support, unit)
        assert quo.projection == projection_by_closures(nuc.table)
        assert quo.closed == nuc.closed()
        collapsed += new is not q
    assert collapsed


def _in_class(pairs, worlds, system):
    'Whether a relation, as a set of pairs, already meets the system.'
    holds = {"reflexive": all((w, w) in pairs for w in worlds),
             "transitive": all((u, x) in pairs for u, v in pairs
                               for w, x in pairs if v == w),
             "symmetric": all((v, u) in pairs for u, v in pairs)}
    return all(holds[c] for c in rel.MODAL_SYSTEMS[system])


def test_a_nucleus_closing_everything_gives_back_its_quantale(rq2):
    # each 2-world point already in its class, and the 3-world diagonal
    # under T: the quotient is the parent itself, with no table copied;
    # every other 2-world point gets a quotient of its own
    rq3 = relation_quantale("abc")
    cases = [(rq3, rq3.unit, "T", True)] + [
        (rq2, a, s, _in_class(rel.decode(a, 2), range(2), s))
        for s in rel.MODAL_SYSTEMS for a in range(rq2.n)]
    assert sum(case[3] for case in cases) == 1 + 4 + 13 + 4 + 2
    for q, alpha, system, in_class in cases:
        quo = quotient(q, least_nucleus(q, system_pairs(q, alpha, system)))
        assert (quo.quantale is q) == in_class
        if in_class:
            assert quo.projection == quo.closed == tuple(range(q.n))


class TestNucleusAlgebra:
    def test_meet_and_join_of_nuclei(self, rq1):
        q = rq1
        all_nuclei = [Nucleus(q, t) for t in all_closure_tables(q.lattice)
                      if is_nucleus(q, t).ok]
        for a in all_nuclei:
            for b in all_nuclei:
                m = nucleus_meet(a, b)
                for x in range(q.n):
                    assert m(x) == q.meet(a(x), b(x))
                j = nucleus_join(a, b)
                assert set(j.closed()) == set(a.closed()) & set(b.closed())
                for x in range(q.n):
                    assert q.leq(a(x), j(x)) and q.leq(b(x), j(x))
                # least upper bound among the enumerated nuclei
                for k in all_nuclei:
                    if all(q.leq(a(x), k(x)) and q.leq(b(x), k(x))
                           for x in range(q.n)):
                        assert all(q.leq(j(x), k(x)) for x in range(q.n))
