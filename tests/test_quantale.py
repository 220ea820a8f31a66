"""Relation and groupoid quantales, supports, the support locale."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantales import quantale, relations as rel
from quantales.errors import (
    InvalidGroupoid,
    NoStableSupport,
    NotAssociative,
    NotDistributive,
    NotInvolutive,
    QuantaleLawError,
    SupportLawFails,
    SupportLocaleLawFails,
    UnitLawFails,
)
from quantales.lattice import (
    INDEX,
    chain_lattice,
    closed_elements,
    closure_from_meet_closed,
    diamond_lattice,
    powerset_lattice,
)
from quantales.nucleus import least_nucleus, quotient
from quantales.quantale import (
    FiniteGroupoid,
    derive_support,
    group_groupoid,
    groupoid_quantale,
    make_quantale,
    pair_groupoid,
    relation_quantale,
    supports_locale,
    with_derived_support,
)
from quantales.relations import (
    MODAL_SYSTEMS,
    RelationQuantale,
    check_point_properties,
    system_pairs,
)

from conftest import m3_lattice, n5_lattice
import gen
import oracles


@pytest.fixture(scope="session")
def rq2():
    return relation_quantale("ab")


@pytest.fixture(scope="session")
def rq3():
    return relation_quantale("abc")


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
        assert rel.decode(rel.converse(a, n), n) == oracles.rel_converse(rel.decode(a, n))
        assert rel.decode(rel.support(a, n), n) == oracles.rel_support(rel.decode(a, n))

    def test_diagonal_and_flags(self):
        assert rel.decode(rel.diagonal(2), 2) == {(0, 0), (1, 1)}


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
        assert rq2.has_support
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
        assert derive_support(rq2) == tuple(rq2.support_vector.tolist())

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
            make_quantale(rq2.lattice, rq2.mul_matrix, list(range(16)), rq2.unit)

    def test_bad_support_table(self, rq2):
        with pytest.raises(SupportLawFails):
            make_quantale(rq2.lattice, rq2.mul_matrix, rq2.inv_vector, rq2.unit,
                          support=[0] * 16)

    def test_locale_as_quantale(self):
        # any frame with mul = meet, inv = id, unit = top, support = id
        L = powerset_lattice("xy")
        mul = [[L.meet(a, b) for b in range(L.n)] for a in range(L.n)]
        q = make_quantale(L, mul, list(range(L.n)), L.top,
                          support=list(range(L.n)))
        assert q.has_support

    # 1.0 and 1.7 would truncate to 1, and 65537 and -65535 wrap to 1 in
    # int16, giving the tables of the 2-chain quantale
    @pytest.mark.parametrize("part", ["mul", "inv", "support"])
    @pytest.mark.parametrize("value", [-1, 2, 1.0, 1.7, 65537, -65535, 2**70])
    def test_entries_off_the_carrier_are_rejected(self, part, value):
        L = powerset_lattice("x")
        tables = {"mul": [[0, 0], [0, 1]], "inv": [0, 1], "support": [0, 1]}
        table = tables[part]
        if part == "mul":
            table[1][1] = value
        else:
            table[1] = value
        with pytest.raises(ValueError, match="outside the carrier"):
            make_quantale(L, tables["mul"], tables["inv"], 1,
                          support=tables["support"])

    @pytest.mark.parametrize("unit", [True, np.bool_(True), 1.0, 2**70, "1",
                                      -1, 2, [1]])
    def test_the_unit_must_be_a_carrier_integer(self, unit):
        with pytest.raises(ValueError, match="unit index"):
            make_quantale(chain_lattice(2), [[0, 0], [0, 1]], [0, 1], unit)

    @pytest.mark.parametrize("unit", [1, np.int64(1), np.int16(1), np.uint8(1)])
    def test_integer_units_of_any_type_are_accepted(self, unit):
        q = make_quantale(chain_lattice(2), [[0, 0], [0, 1]], [0, 1], unit)
        assert q.unit == 1 and type(q.unit) is int


def _outcome(build):
    'The exception type and message a construction raises, or None.'
    try:
        build()
    except (QuantaleLawError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _both_paths(monkeypatch, lattice, mul, inv, unit, support=None,
                memo=None):
    """make_quantale as it is, then with the irreducible path reporting a
    failure on every table, so that the exhaustive loop decides.  memo
    keeps the loop's verdict per multiplication table, so trials that
    corrupt only inv or support loop over their shared table once."""
    memo = {} if memo is None else memo
    loop = quantale._check_laws_exhaustively

    def remembered_loop(M, J):
        key = M.tobytes()
        if key not in memo:
            try:
                memo[key] = loop(M, J)
            except QuantaleLawError as exc:
                memo[key] = exc
        if memo[key] is not None:
            raise memo[key]

    def build():
        make_quantale(lattice, mul, inv, unit, support=support)
    fast = _outcome(build)
    with monkeypatch.context() as m:
        m.setattr(quantale, "_laws_hold_on_irreducibles", lambda *a: False)
        m.setattr(quantale, "_check_laws_exhaustively", remembered_loop)
        slow = _outcome(build)
    return fast, slow


def _join_extension(L, T):
    """The table sending a, b to the join of T[i][j] over the i-th and j-th
    irreducibles below a and b; both sides preserve joins when L is
    distributive."""
    irr = L.join_irreducibles()
    J = L.join_matrix
    up = [np.array([L.leq(x, a) for a in range(L.n)]) for x in irr]
    M = np.full((L.n, L.n), L.bottom, dtype=np.int64)
    for i, j in itertools.product(range(len(irr)), repeat=2):
        M = np.where(np.outer(up[i], up[j]), J[M, T[i][j]], M)
    return M


def _other(rng, n, old):
    'A random carrier element other than old.'
    v = rng.randrange(n - 1)
    return v + (v >= old)


def _raised(f, *args, **kwargs):
    'The type and message f raises, or None.'
    try:
        f(*args, **kwargs)
    except SupportLawFails as exc:
        return type(exc), str(exc)
    return None


def chain4_quantale():
    """The 4-chain with unit 2, where every x in {1, 2} keeps x x = x; its
    support tables can fail every support law, the pair laws included."""
    mul = [[0, 0, 0, 0], [0, 1, 1, 3], [0, 1, 2, 3], [0, 3, 3, 3]]
    return make_quantale(chain_lattice(4), mul, range(4), 2)


def test_the_support_proof_is_the_law_by_law_reference(rq2):
    # the support of the relation quantale on two worlds, every
    # single-entry corruption of it, seeded two-entry ones, and every
    # support table of chain4_quantale, against the law-by-law checks
    n, S0 = rq2.n, rq2.support_vector.tolist()
    cases = [(rq2, S0)] + [(rq2, S0[:x] + [v] + S0[x + 1:])
                           for x in range(n) for v in range(n) if v != S0[x]]
    rng = random.Random(12)
    for _ in range(400):
        s = list(S0)
        for x in rng.sample(range(n), 2):
            s[x] = _other(rng, n, s[x])
        cases.append((rq2, s))
    c4 = chain4_quantale()
    cases += [(c4, list(s)) for s in itertools.product(range(4), repeat=4)]
    laws = set()
    for q, s in cases:
        got = _raised(make_quantale, q.lattice, q.mul_matrix, q.inv_vector,
                      q.unit, support=s)
        assert got == _raised(oracles.check_support_law_by_law, q.lattice,
                              q.mul_matrix, q.inv_vector, np.array(s),
                              q.unit), (q, s)
        laws.add(got and got[1].split(" at ")[0])
    assert laws == {None, "sa <= e fails", "sa <= a a- fails",
                    "a <= (sa) a fails", "s(a v b) != sa v sb",
                    "s(a b) != s(a sb)"}


@pytest.mark.parametrize("name", ["rq2", "rq3"])
def test_corrupted_tables_fail_alike_on_both_paths(request, monkeypatch, name):
    q = request.getfixturevalue(name)
    L, n = q.lattice, q.n
    M0 = q.mul_matrix
    J = L.join_matrix
    irr = L.join_irreducibles()
    T0 = M0[np.ix_(irr, irr)]
    assert (_join_extension(L, T0) == M0).all()
    rng = random.Random(name)
    seen = set()
    memo = {}
    for trial in range(60):
        mul, inv, supp = (M0.copy(), q.inv_vector.tolist(),
                          q.support_vector.tolist())
        part = ("mul", "irreducible product", "inv", "support")[trial % 4]
        if part == "mul":
            x, y = rng.randrange(1, n), rng.randrange(1, n)
            mul[x, y] = _other(rng, n, mul[x, y])
        elif part == "irreducible product":
            # one product of irreducibles, extended by joins: the table
            # still distributes, so only associativity or the unit can fail
            T = T0.copy()
            i, j = rng.randrange(len(irr)), rng.randrange(len(irr))
            T[i, j] = _other(rng, n, T[i, j])
            mul = _join_extension(L, T)
        elif part == "inv":
            x = rng.randrange(n)
            inv[x] = _other(rng, n, inv[x])
        else:
            x = rng.randrange(n)
            supp[x] = _other(rng, n, supp[x])
        fast, slow = _both_paths(monkeypatch, L, mul, inv, q.unit, supp,
                                 memo)
        assert fast == slow
        assert fast is not None or part == "irreducible product"
        if fast is not None and fast[0] in (NotAssociative, NotDistributive):
            with pytest.raises(fast[0]) as err:
                quantale._check_laws_exhaustively(mul, J)
            assert str(err.value) == fast[1]
        seen.add((part, fast and fast[0]))
    assert ("irreducible product", NotAssociative) in seen


def _table_quantales():
    'Every uncorrupted table quantale the tests build, bar nucleus quotients.'
    s3 = list(itertools.permutations(range(3)))
    s3_mul = [[s3.index(tuple(g[h[i]] for i in range(3))) for h in s3]
              for g in s3]
    s3_inv = [s3.index(tuple(sorted(range(3), key=g.__getitem__)))
              for g in s3]
    locales = [powerset_lattice("x"), powerset_lattice("xy"),
               diamond_lattice(), *(chain_lattice(k) for k in (2, 3, 4, 5))]
    return [
        *(relation_quantale(w) for w in ("a", "ab", "abc")),
        groupoid_quantale(
            group_groupoid(["e", "g"], [[0, 1], [1, 0]], [0, 1], 0)),
        groupoid_quantale(group_groupoid(s3, s3_mul, s3_inv, 0)),
        lukasiewicz3(),
        *(make_quantale(L, oracles.tables(L)[1], range(L.n), L.top,
                        support=range(L.n)) for L in locales),
    ]


def test_every_table_quantale_is_accepted_by_both_paths():
    for q in _table_quantales():
        M = q.mul_matrix
        J = q.lattice.join_matrix
        assert quantale._laws_hold_on_irreducibles(q.lattice, M, J), q
        quantale._check_laws_exhaustively(M, J)


def _one_sided(L, rng):
    """a b = h(a) for b above the bottom, with h a random idempotent map
    keeping only the bottom at the bottom: associative, and distributive on
    the left, but on the right only when h preserves joins."""
    rest = [x for x in range(L.n) if x != L.bottom]
    image = rng.sample(rest, rng.randrange(1, len(rest) + 1))
    h = [x if x in image or x == L.bottom else rng.choice(image)
         for x in range(L.n)]
    return np.array([[L.bottom if b == L.bottom else h[a]
                      for b in range(L.n)] for a in range(L.n)])


def test_irreducible_path_is_exact_on_distributive_carriers(small_frames):
    # the meet, random tables extended by joins, raw random tables, and
    # associative tables distributive on one side only: the irreducible
    # path accepts exactly the tables the loop accepts
    rng = random.Random(6)
    accepted = 0
    for L in small_frames:
        J = L.join_matrix
        k = len(L.join_irreducibles())
        tables = [L.meet_matrix]
        for _ in range(30):
            T = [[rng.randrange(L.n) for _ in range(k)] for _ in range(k)]
            tables.append(_join_extension(L, T))
            raw = np.array([[rng.randrange(L.n) for _ in range(L.n)]
                            for _ in range(L.n)])
            raw[L.bottom] = raw[:, L.bottom] = L.bottom
            tables.append(raw)
            if L.n > 1:
                M = _one_sided(L, rng)
                tables += [M, M.T]
        for M in tables:
            holds = _outcome(
                lambda: quantale._check_laws_exhaustively(M, J)) is None
            assert quantale._laws_hold_on_irreducibles(L, M, J) == holds
            accepted += holds
    assert accepted > len(small_frames)


def test_carrier_check_is_is_frame(small_lattices):
    # with the closed sets of every closure on the 3-atom powerset, 13 of
    # which are not distributive
    P = powerset_lattice("abc")
    moore = [closed_elements(P, closure_from_meet_closed(P, S))
             for S in oracles.meet_closed_subsets(P)]
    frames = []
    for L in [*small_lattices, P, *moore]:
        J = L.join_matrix
        frames.append(L.is_frame())
        assert (quantale._irreducible_ranks(L, J) is not None) == frames[-1]
    assert frames.count(False) == 15


@pytest.mark.parametrize("lattice", [m3_lattice, n5_lattice])
def test_non_distributive_carriers_take_the_exhaustive_loop(monkeypatch,
                                                             lattice):
    L = lattice()
    loop = quantale._check_laws_exhaustively
    calls = []
    monkeypatch.setattr(quantale, "_check_laws_exhaustively",
                        lambda *a: calls.append(a) or loop(*a))
    # top unless a factor is bottom: associative and join-preserving on any
    # lattice, but top is no unit
    mul = [[L.bottom if L.bottom in (a, b) else L.top for b in range(L.n)]
           for a in range(L.n)]
    with pytest.raises(UnitLawFails):
        make_quantale(L, mul, list(range(L.n)), L.top)
    assert len(calls) == 1


def test_relation_quantale_takes_the_irreducible_path(monkeypatch):
    def loop(*args):
        raise AssertionError("the exhaustive loop ran")
    monkeypatch.setattr(quantale, "_check_laws_exhaustively", loop)
    q = relation_quantale("abc")
    assert q.n == 512 and q.has_support


@pytest.mark.parametrize("size", [1, 2])
def test_every_table_on_a_tiny_chain_fails_alike_on_both_paths(monkeypatch,
                                                                size):
    L = chain_lattice(size)
    r = range(size)
    outcomes = set()
    for flat in itertools.product(r, repeat=size * size):
        mul = [flat[i * size:(i + 1) * size] for i in r]
        for inv in itertools.product(r, repeat=size):
            for unit in r:
                for support in (None, *itertools.product(r, repeat=size)):
                    fast, slow = _both_paths(monkeypatch, L, mul, inv, unit,
                                             support)
                    assert fast == slow
                    outcomes.add(fast and fast[0])
    assert None in outcomes


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
        bare = make_quantale(rq2.lattice, rq2.mul_matrix, rq2.inv_vector,
                             rq2.unit)
        assert not bare.has_support
        q = with_derived_support(bare)
        assert np.array_equal(q.support_vector, rq2.support_vector)

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
        assert survivors == [tuple(rq2.support_vector.tolist())]


class TestStoredTables:
    def test_tables_are_read_only_arrays_of_the_index_type(self, rq2, rq3):
        quo = quotient(rq2, least_nucleus(rq2, [(rq2.unit, 1 << 1)]))
        s3 = groupoid_quantale(gen.s3_groupoid())
        for q in (rq2, rq3, s3, quo.quantale):
            for table in (q.mul_matrix, q.inv_vector, q.support_vector,
                          q.lattice.join_matrix, q.lattice.meet_matrix):
                assert table.dtype == INDEX and not table.flags.writeable

    def test_tables_are_read_only(self, rq2):
        for table in (rq2.mul_matrix, rq2.inv_vector, rq2.support_vector):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]

    def test_make_quantale_copies_its_input(self, rq2):
        mul, inv, supp = (np.array(t) for t in
                          (rq2.mul_matrix, rq2.inv_vector, rq2.support_vector))
        q = make_quantale(rq2.lattice, mul, inv, rq2.unit, support=supp)
        for t in (mul, inv, supp):
            t[...] = 0
        assert np.array_equal(q.mul_matrix, rq2.mul_matrix)
        assert np.array_equal(q.inv_vector, rq2.inv_vector)
        assert np.array_equal(q.support_vector, rq2.support_vector)

    def test_make_quantale_copies_a_read_only_view(self, rq2):
        mul = np.array(rq2.mul_matrix)
        view = mul[:]
        view.flags.writeable = False
        q = make_quantale(rq2.lattice, view, rq2.inv_vector, rq2.unit,
                          support=rq2.support_vector)
        mul[...] = 0
        assert np.array_equal(q.mul_matrix, rq2.mul_matrix)
        assert q.inv_vector is rq2.inv_vector

    def test_with_derived_support_shares_the_tables(self, rq2):
        bare = make_quantale(rq2.lattice, rq2.mul_matrix, rq2.inv_vector,
                             rq2.unit)
        q = with_derived_support(bare)
        assert np.shares_memory(q.mul_matrix, bare.mul_matrix)
        assert np.shares_memory(q.inv_vector, bare.inv_vector)
        assert q.lattice is bare.lattice

    def test_scalars_are_python_values(self, rq2):
        quo = quotient(rq2, least_nucleus(rq2, [(rq2.unit, 1 << 1)]))
        bare = make_quantale(rq2.lattice, rq2.mul_matrix, rq2.inv_vector,
                             rq2.unit)
        for q in (rq2, quo.quantale, with_derived_support(bare)):
            a, b = q.top, q.n - 1
            values = [q.mul(a, b), q.inv(a), q.support(a), q.unit, q.bottom,
                      q.top, *q.support_elements(), *q.support_irreducibles]
            assert all(type(v) is int for v in values)
            assert type(q.leq(a, b)) is bool
        assert all(type(v) is int for v in (*quo.projection, *quo.closed))
        assert all(type(v) is int for v in derive_support(bare))


class TestGroupoids:
    def test_cyclic_two_quantale(self):
        G = group_groupoid(["id", "g"], [[0, 1], [1, 0]], [0, 1], 0)
        q = groupoid_quantale(G)
        assert q.n == 4
        gbit = 0b10
        assert q.mul(gbit, gbit) == 0b01
        assert q.support(gbit) == 0b01
        assert q.unit == 0b01
        assert q.has_support

    def test_pair_groupoid_matches_relation_quantale(self, rq2):
        q = groupoid_quantale(pair_groupoid("ab"))
        assert np.array_equal(q.mul_matrix, rq2.mul_matrix)
        assert np.array_equal(q.inv_vector, rq2.inv_vector)
        assert q.unit == rq2.unit
        assert np.array_equal(q.support_vector, rq2.support_vector)

    @pytest.mark.parametrize("make", [
        lambda: pair_groupoid("a"), lambda: pair_groupoid("ab"),
        lambda: pair_groupoid("abc"), gen.s3_groupoid, gen.pair2_z2_groupoid,
    ], ids=["pair1", "pair2", "pair3", "s3", "pair2-z2"])
    def test_blocked_tables_are_the_unions_of_composites(self, make):
        G = make()
        q = groupoid_quantale(G)
        mul, inv, support = oracles.groupoid_tables_by_unions(G)
        assert np.array_equal(q.mul_matrix, mul)
        assert q.inv_vector.tolist() == inv
        assert q.support_vector.tolist() == support
        assert q.unit == sum(1 << e for e in G.identities)

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
