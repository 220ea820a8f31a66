"""Conjugacy and join preservation decided on join-irreducibles, the
support locale and point diamonds of every quantale read from masks, and
the support-law scan of `axioms` on lanes of relation codes, each
against the full scan, the products, the relation functions or the
scalar reference."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import quantales
import quantales.bimodal
import quantales.quantale
from quantales.axioms import (
    LaneOps,
    Lanes,
    check_locale_laws,
    check_point_diamonds,
    conjugacy_witness_on_irreducibles,
    support_law_witnesses,
)
from conftest import grid_lattice, m3_lattice, n5_lattice
from gen import GROUPOIDS, goedel_chain, pair2_z2_quantale, s3_quantale
from quantales import relations as rel
from quantales.bimodal import (
    _conjugacy_inequalities,
    diamonds_from_point,
    join_preservation_witness,
    join_preserving_endomaps,
)
from quantales.cli import main
from quantales.errors import (
    InternalValidationFailed,
    NoStableSupport,
    SupportLocaleLawFails,
)
from quantales.formulas import Mode
from quantales.groupoids import GroupoidQuantale
from quantales.lattice import chain_lattice, diamond_lattice, powerset_lattice
from quantales.quantale import (
    groupoid_quantale,
    make_quantale,
    relation_quantale,
    supports_locale,
)
from quantales.relations import LocaleMasks, RelationQuantale
from quantales.semantics import PointedModel

FRAMES = {
    "chain3": lambda: chain_lattice(3),
    "chain4": lambda: chain_lattice(4),
    "chain5": lambda: chain_lattice(5),
    "diamond": diamond_lattice,
    "powerset2": lambda: powerset_lattice("ab"),
    "powerset3": lambda: powerset_lattice("abc"),
}


# --- the lemma ------------------------------------------------------------

@pytest.mark.parametrize("name", list(FRAMES))
def test_irreducible_decision_is_the_full_scan(name):
    L = FRAMES[name]()
    irr = L.join_irreducibles()
    maps = list(join_preserving_endomaps(L))
    conjugate = 0
    for dia in maps:
        for bdia in maps:
            fast = conjugacy_witness_on_irreducibles(
                L, irr, dia.__getitem__, bdia.__getitem__) is None
            assert fast == bool(_conjugacy_inequalities(L, dia, bdia)), \
                (dia, bdia)
            conjugate += fast
    assert 0 < conjugate < len(maps) ** 2


def test_join_preservation_is_decided_on_the_split():
    # random tables, tables extended from the irreducibles, and carriers
    # that are not distributive, where only the scan over pairs runs
    rng = random.Random(11)
    lattices = [*(f() for f in FRAMES.values()), grid_lattice(),
                m3_lattice(), n5_lattice()]
    preserving = 0
    for L in lattices:
        tables = [tuple(range(L.n)), (L.bottom,) * L.n, (L.top,) * L.n]
        tables += [tuple(rng.randrange(L.n) for _ in range(L.n))
                   for _ in range(40)]
        if L.is_frame():
            maps = list(join_preserving_endomaps(L))
            tables += rng.sample(maps, min(20, len(maps)))
        for t in tables:
            want = oracles.join_preservation_witness_by_pairs(L, t)
            assert join_preservation_witness(L, t) == want, (L, t)
            preserving += want is None
    assert preserving > len(lattices)


# --- the point check on masks ---------------------------------------------

def _codes(q, pairs):
    return rel.encode(pairs, q.nw)


def _pairs(q, code):
    return rel.decode(code, q.nw)


def _points(n):
    'Every point at up to 2 worlds, and 12 seeded points above that.'
    if n <= 2:
        return range(1 << (n * n))
    rng = random.Random(n)
    return [0, rel.full(n), rel.diagonal(n),
            *(rng.getrandbits(n * n) for _ in range(9))]


# Table quantales and their points: every point of the relation quantale
# on two worlds and of the groupoid quantales, seeded points at 3 worlds.
TABLES = {
    "table-ab": (lambda: relation_quantale("ab"), _points(2)),
    "table-abc": (lambda: relation_quantale("abc"), _points(3)),
    "s3": (s3_quantale, range(64)),
    "pair2-z2": (pair2_z2_quantale, range(64)),
}
# and every point of the 3-chain, whose locale is not Boolean
WITH_CHAIN = {**TABLES, "goedel3": (lambda: goedel_chain(3), range(3))}


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6, *WITH_CHAIN])
def test_lazy_diamonds_are_the_explicit_ones(case):
    # the locale and diamonds read lazily from masks and diamond tables
    # are the ones built explicitly from products
    if case in WITH_CHAIN:
        make, points = WITH_CHAIN[case]
        q = make()
    else:
        q, points = RelationQuantale(tuple(range(case))), _points(case)
    loc = supports_locale(q)
    want = oracles.supports_locale_by_products(q)
    for name in ("labels", "bottom", "top"):
        assert getattr(loc.lattice, name) == getattr(want.lattice, name)
    for name in ("leq_matrix", "join_matrix", "meet_matrix"):
        assert (getattr(loc.lattice, name) == getattr(want.lattice, name)).all()
    for alpha in points:
        frame = diamonds_from_point(q, alpha, loc)
        dia, bdia = oracles.diamonds_by_products(q, alpha, loc)
        assert (frame.dia, frame.bdia) == (tuple(dia), tuple(bdia)), alpha
        if isinstance(q, RelationQuantale):
            point = _pairs(q, alpha)
            for table, r in zip((dia, bdia),
                                (point, oracles.rel_converse(point))):
                for i, v in enumerate(loc.q_elements):
                    by_pairs = oracles.rel_support(
                        oracles.rel_compose(r, _pairs(q, v)))
                    assert loc.to_q(table[i]) == _codes(q, by_pairs), (alpha, v)
        check_point_diamonds(q, alpha)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_locale_laws_on_the_diagonals_are_the_all_pairs_scan(n):
    # the lazy check tests the laws on the n diagonals only; below the
    # unit, products and converses agree with the pair-set operations
    # everywhere, and the scan over all pairs accepts too
    q = RelationQuantale(tuple(range(n)))
    elems = q.support_elements()
    for b in elems:
        assert q.inv(b) == _codes(q, oracles.rel_converse(_pairs(q, b)))
        for c in elems:
            assert q.mul(b, c) == _codes(q, oracles.rel_compose(
                _pairs(q, b), _pairs(q, c)))
    check_locale_laws(q, q.support_irreducibles)
    check_locale_laws(q, elems)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compose_is_the_pair_set_composition(n):
    q = RelationQuantale(tuple(range(n)))
    rng = random.Random(50 + n)
    dense = [rng.getrandbits(n * n) for _ in range(30)]
    sparse = [rng.getrandbits(n * n) & rng.getrandbits(n * n)
              & rng.getrandbits(n * n) for _ in range(30)]
    codes = [0, rel.full(n), rel.diagonal(n), *q.support_irreducibles,
             *dense, *sparse]
    for a in codes:
        for b in codes:
            want = oracles.rel_compose(_pairs(q, a), _pairs(q, b))
            assert rel.compose(a, b, n) == _codes(q, want), (a, b)


def test_compose_under_interleaved_world_counts():
    'compose keeps one column constant per world count, never a stale one.'
    rng = random.Random(57)

    def draw(n):
        # 1 pair in 8 at 40 and 64 worlds keeps the pair-set oracle quick
        code = rng.getrandbits(n * n)
        if n >= 40:
            code &= rng.getrandbits(n * n) & rng.getrandbits(n * n)
        return code

    cases = [(n, draw(n), draw(n)) for n in [1, 2, 3, 4, 5, 6, 40, 64]
             for _ in range(8 if n < 40 else 3)]
    rng.shuffle(cases)
    for n, a, b in cases:
        want = oracles.rel_compose(rel.decode(a, n), rel.decode(b, n))
        assert rel.compose(a, b, n) == rel.encode(want, n), (n, a, b)


def _locale_outcome(q):
    'LocaleMasks of q and what check_locale_laws on its diagonals says.'
    masks = LocaleMasks(q)
    try:
        check_locale_laws(q, q.support_irreducibles)
        verdict = None
    except SupportLocaleLawFails as exc:
        verdict = str(exc)
    return masks.below, masks.full, masks.boolean, verdict


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_diagonals_read_as_their_tuple(n, monkeypatch):
    q = RelationQuantale(tuple(range(n)))
    want = tuple(rel.encode([(w, w)], n) for w in range(n))
    got = q.support_irreducibles
    assert (len(got), tuple(got), tuple(got)) == (n, want, want)
    assert [got[i] for i in range(-n, n)] == list(want * 2)
    assert got[1:3] == want[1:3] and got[::-1] == want[::-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            got[i]
    as_tuple = RelationQuantale(tuple(range(n)))
    as_tuple.support_irreducibles = want
    assert _locale_outcome(q) == _locale_outcome(as_tuple)
    # and the same first failure once the last two diagonals overlap
    real = RelationQuantale.mul
    last = want[-2:]
    monkeypatch.setattr(
        RelationQuantale, "mul",
        lambda self, a, b: last[0] if (a, b) == last else real(self, a, b))
    assert _locale_outcome(q) == _locale_outcome(as_tuple)
    assert (_locale_outcome(q)[3] is None) == (n == 1)


MAXRSS_GROWTH = """
import resource
from quantales.relations import RelationQuantale
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
q = RelationQuantale(range(1000))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_a_thousand_worlds_store_no_diagonal_codes():
    # a tuple of the 1,000 diagonal codes of 10^6 bits each grew ru_maxrss
    # (kilobytes on Linux) by about 64 MB
    src = str(Path(quantales.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", MAXRSS_GROWTH],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 5 * 1024


def test_a_broken_locale_law_raises(monkeypatch):
    q = RelationQuantale("abcd")
    real = RelationQuantale.mul
    # the product of the diagonals at worlds 1 and 2 is no longer empty
    d1, d2 = q.support_irreducibles[1:3]
    monkeypatch.setattr(
        RelationQuantale, "mul",
        lambda self, a, b: d1 if (a, b) == (d1, d2) else real(self, a, b))
    with pytest.raises(SupportLocaleLawFails, match="not meet"):
        check_point_diamonds(q, rel.full(4))


def test_a_failing_conjugacy_raises(monkeypatch):
    # a first diamond moving the first irreducible below the unit to the
    # last (world 0 to world 1 on two worlds), or to the bottom when it is
    # the only one, against the identity
    for q in (RelationQuantale("ab"), *(make() for make, _ in TABLES.values())):
        d0, *rest = q.support_irreducibles
        target = q.locale_mask(rest[-1]) if rest else 0
        below = [q.locale_mask(j) for j in q.support_irreducibles]

        def table(q, alpha, converse=False):
            return tuple(below) if converse else tuple(
                target if d & 1 else 0 for d in below)

        monkeypatch.setattr(type(q), "diamond_table", table)
        with pytest.raises(InternalValidationFailed) as info:
            check_point_diamonds(q, 0)
        assert str(info.value) == ("point diamonds not conjugate: backward "
                                   f"conjugacy fails at {(d0, d0)}")


# A table quantale made without a support: every entry point that reads
# the support refuses it by name, rather than failing on the missing table.
NO_SUPPORT_ENTRIES = {
    "support_law_witnesses": lambda q: support_law_witnesses(q, 3),
    "check_point_diamonds": lambda q: check_point_diamonds(q, 3),
    "diamonds_from_point": lambda q: diamonds_from_point(q, 3),
    "PointedModel": lambda q: PointedModel(q, 3, {"p": 1}, Mode.CLASSICAL),
}


@pytest.mark.parametrize("entry", list(NO_SUPPORT_ENTRIES))
def test_a_quantale_without_support_raises_no_stable_support(entry):
    q = relation_quantale("ab")
    bare = make_quantale(q.lattice, q.mul_matrix, q.inv_vector, q.unit)
    assert not bare.has_support
    with pytest.raises(NoStableSupport, match="no support table"):
        NO_SUPPORT_ENTRIES[entry](bare)


# --- the batched support-law scan -----------------------------------------

def _sample_point(n, seed):
    return random.Random(seed).getrandbits(n * n)


LAW_NAMES = ["support-join", "support-unit", "support-selfproduct",
             "support-restores", "support-stable"]


@pytest.mark.parametrize("n", [3, 4, 8, 10, 16, 33])
def test_batched_scan_is_the_scalar_reference(n):
    q = RelationQuantale(tuple(range(n)))
    alpha = _sample_point(n, n)
    got = support_law_witnesses(q, alpha)
    assert got == oracles.support_checks_by_scalars(q, alpha)
    assert [name for name, _ in got] == LAW_NAMES


# the scan runs in a child interpreter, so that a sample loop that cannot
# end fails the test instead of hanging the suite
SMALL_SCAN = """
import oracles
from quantales.axioms import support_law_witnesses
from quantales.relations import RelationQuantale
for n in (1, 2):
    q = RelationQuantale(tuple(range(n)))
    for alpha in range(2 ** (n * n)):
        got = support_law_witnesses(q, alpha)
        assert got == oracles.support_checks_by_scalars(q, alpha), (n, alpha)
        assert got == [(name, None) for name in {names}], (n, alpha)
print("scanned")
"""


def test_the_scan_takes_every_element_at_one_and_two_worlds():
    src = str(Path(quantales.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", SMALL_SCAN.format(names=LAW_NAMES)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "scanned\n", "")


def _lane_shapes(monkeypatch):
    'Record (worlds, lanes) of every LaneOps made from now on.'
    shapes = []
    real = LaneOps.__init__

    def init(self, n, m):
        shapes.append((n, m))
        real(self, n, m)
    monkeypatch.setattr(LaneOps, "__init__", init)
    return shapes


@pytest.mark.parametrize("n, lanes", [(1, 2), (2, 16), (3, 512), (4, 150)])
def test_the_scan_takes_every_element_up_to_512(monkeypatch, n, lanes):
    shapes = _lane_shapes(monkeypatch)
    support_law_witnesses(RelationQuantale(tuple(range(n))), 1)
    assert shapes == [(n, lanes)]


@pytest.mark.parametrize("name", list(GROUPOIDS))
def test_a_groupoid_scan_is_the_scalar_reference(monkeypatch, name):
    G = GROUPOIDS[name]()
    q = GroupoidQuantale(G)
    alpha = random.Random(name).getrandbits(q.m)
    shapes = _lane_shapes(monkeypatch)
    got = support_law_witnesses(q, alpha)
    # every element, on lanes of relations on the arrows
    assert shapes == [(q.m, q.n)]
    assert got == [(law, None) for law in LAW_NAMES]
    table = groupoid_quantale(G)
    assert got == oracles.support_checks_by_scalars(
        q, alpha, through=(table, lambda a: a))
    if q.n <= 64:
        assert got == oracles.support_checks_by_scalars(q, alpha)


def _ones(n, count):
    'Bit 0 of each of count fields of n bits.'
    return sum(1 << t * n for t in range(count))


def _lanes_with_row(x, i, n):
    'Bit 0 of the field of each lane of x whose row i is not empty.'
    return sum(1 << t * n for t in range(x.count)
               if x.planes[i] >> t * n & (1 << n) - 1)


def _with_plane(x, i, plane):
    return Lanes(x.count, x.planes[:i] + (plane,) + x.planes[i + 1:])


# Each corruption breaks one operation the same way twice: as the scalar
# RelationQuantale method the reference calls, and as the LaneOps
# operation of the lane scan.  Each takes both real operations and the
# world count, and returns both broken ones.

def _support_drops_last_world(real_scalar, real_lanes, n):
    def lanes(self, x):
        out = real_lanes(self, x)
        return _with_plane(out, n - 1,
                           out.planes[n - 1] & ~(_ones(n, x.count) << n - 1))

    return (lambda self, a: real_scalar(self, a) & ~rel.pair_bit(n - 1, n - 1, n),
            lanes)


def _support_leaves_the_diagonal(real_scalar, real_lanes, n):
    # (0, 1) joins the support whenever world 0 has a successor
    def scalar(self, a):
        out = real_scalar(self, a)
        return out | rel.pair_bit(0, 1, n) if rel.row(a, 0, n) else out

    def lanes(self, x):
        out = real_lanes(self, x)
        return _with_plane(out, 0, out.planes[0] | _lanes_with_row(x, 0, n) << 1)

    return scalar, lanes


def _support_forgets_joins(real_scalar, real_lanes, n):
    # world 0 leaves the support whenever world 1 has a successor too
    def scalar(self, a):
        out = real_scalar(self, a)
        return out & ~rel.pair_bit(0, 0, n) if rel.row(a, 1, n) else out

    def lanes(self, x):
        out = real_lanes(self, x)
        return _with_plane(out, 0, out.planes[0] & ~_lanes_with_row(x, 1, n))

    return scalar, lanes


def _product_drops_a_pair(real_scalar, real_lanes, n):
    def lanes(self, x, y):
        out = real_lanes(self, x, y)
        return _with_plane(out, 0, out.planes[0] & ~_ones(n, out.count))

    return (lambda self, a, b: real_scalar(self, a, b) & ~rel.pair_bit(0, 0, n),
            lanes)


def _product_skips_last_world(real_scalar, real_lanes, n):
    # no path through the last world: its column of the left factor is lost
    column = rel.encode(((i, n - 1) for i in range(n)), n)

    def lanes(self, x, y):
        keep = ~(_ones(n, x.count) << n - 1)
        return real_lanes(self, Lanes(x.count, tuple(p & keep for p in x.planes)), y)

    return lambda self, a, b: real_scalar(self, a & ~column, b), lanes


CORRUPTIONS = {
    "support-drops-last-world": ("support", "s", _support_drops_last_world),
    "support-leaves-the-diagonal": ("support", "s", _support_leaves_the_diagonal),
    "support-forgets-joins": ("support", "s", _support_forgets_joins),
    "product-drops-a-pair": ("mul", "mul", _product_drops_a_pair),
    "product-skips-last-world": ("mul", "mul", _product_skips_last_world),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_both_scans_name_the_same_witness_of_a_broken_law(monkeypatch, name, n):
    scalar, lane_op, corrupt = CORRUPTIONS[name]
    bad_scalar, bad_lanes = corrupt(getattr(RelationQuantale, scalar),
                                    getattr(LaneOps, lane_op), n)
    monkeypatch.setattr(RelationQuantale, scalar, bad_scalar)
    monkeypatch.setattr(LaneOps, lane_op, bad_lanes)
    q = RelationQuantale(tuple(range(n)))
    alpha = _sample_point(n, 3)
    got = support_law_witnesses(q, alpha)
    assert got == oracles.support_checks_by_scalars(q, alpha)
    assert any(witness is not None for _, witness in got), got


@pytest.mark.parametrize("name", list(CORRUPTIONS))
@pytest.mark.parametrize("groupoid", ["s3", "pair2+z2"])
def test_both_scans_name_the_same_witness_of_a_broken_law_on_a_groupoid(
        monkeypatch, name, groupoid):
    # the lanes hold the regular representations, relations on the
    # arrows, so the scalar reference breaks the relation quantale on the
    # arrows in the same way and decides each law at those images
    q = GroupoidQuantale(GROUPOIDS[groupoid]())
    scalar, lane_op, corrupt = CORRUPTIONS[name]
    bad_scalar, bad_lanes = corrupt(getattr(RelationQuantale, scalar),
                                    getattr(LaneOps, lane_op), q.m)
    monkeypatch.setattr(RelationQuantale, scalar, bad_scalar)
    monkeypatch.setattr(LaneOps, lane_op, bad_lanes)
    alpha = random.Random(3).getrandbits(q.m)
    got = support_law_witnesses(q, alpha)
    assert got == oracles.support_checks_by_scalars(
        q, alpha, through=(RelationQuantale(tuple(range(q.m))), q.regular))
    assert any(witness is not None for _, witness in got), got


def _stacked(codes, n):
    'Relation codes as one stack, by their rows, with relations.row.'
    return Lanes(len(codes), tuple(
        sum(rel.row(c, i, n) << t * n for t, c in enumerate(codes))
        for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_each_lane_operation_is_the_one_on_codes(n):
    # every lane of a result is the relations function of that lane
    rng = random.Random(70 + n)
    codes = [0, rel.full(n), rel.diagonal(n),
             *(rng.getrandbits(n * n) for _ in range(12)),
             *(rng.getrandbits(n * n) & rng.getrandbits(n * n)
               for _ in range(12))]
    o = LaneOps(n, len(codes))
    stack = _stacked(codes, n)
    assert o.s(stack) == _stacked([rel.support(c, n) for c in codes], n)
    for a in codes:
        one = _stacked([a], n)
        assert o.inv(one) == _stacked([rel.converse(a, n)], n)
        assert o.s(one) == _stacked([rel.support(a, n)], n)
        assert o.mul(one, stack) == _stacked(
            [rel.compose(a, c, n) for c in codes], n)
        assert o.join(one, stack) == _stacked([a | c for c in codes], n)
        for op, holds in ((o.le, lambda b: not a & ~b), (o.eq, a.__eq__)):
            passing = op(one, stack)
            assert [passing >> t * n + n - 1 & 1 for t in range(len(codes))] \
                == [int(holds(c)) for c in codes]
            first = next((t for t, c in enumerate(codes) if not holds(c)), None)
            assert o.first_failure(passing, len(codes)) == first
    with pytest.raises(ValueError, match="one relation"):
        o.mul(stack, stack)
    with pytest.raises(ValueError, match="one relation"):
        o.inv(stack)


# --- axioms at 14 worlds --------------------------------------------------

def test_axioms_never_tabulates_the_support_locale(tmp_path, capsys,
                                                   monkeypatch):
    def refuse(*args):
        raise AssertionError("the support locale was tabulated")

    monkeypatch.setattr(RelationQuantale, "support_elements", refuse)
    monkeypatch.setattr(RelationQuantale, "locale_element", refuse)
    monkeypatch.setattr(quantales.quantale, "supports_locale", refuse)
    monkeypatch.setattr(quantales.bimodal, "supports_locale", refuse)
    rng = random.Random(14)
    worlds = [f"w{i}" for i in range(14)]
    pairs = sorted({(rng.choice(worlds), rng.choice(worlds))
                    for _ in range(40)})
    model = tmp_path / "m.model"
    model.write_text("MODE classical\nWORLDS " + " ".join(worlds) + "\n"
                     "REL alpha " + " ".join(f"({u},{v})" for u, v in pairs)
                     + "\n")
    t0 = time.perf_counter()
    assert main(["axioms", str(model)]) == 0
    assert time.perf_counter() - t0 < 60.0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[-1] for l in lines if l.startswith("CHECK")] == \
        ["PASS"] * 6
    assert [l.split()[1] for l in lines if l.startswith("FLAG")] == \
        ["reflexive", "transitive", "symmetric", "total-support"]
