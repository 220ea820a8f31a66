"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every comparison is an exact equality on finite discrete structures; the
timed checks assert their own wall-clock budget.  Reference results come
from the independent oracles in oracles.py (explicit pair sets, path
enumeration, brute-force map spaces), never from the code under test.
"""

import itertools
import random
import time

import pytest

import gen
from oracles import (
    irr_below,
    join_reversing_maps,
    oracle_ctl,
    oracle_pdl,
    order_ideals,
    rel_compose,
    rel_converse,
    rel_star,
    rel_support,
    tables,
)
from quantales.bimodal import check_conjugacy, conjugate_pairs, diamonds_from_point
from quantales.cli import main
from quantales.formulas import (
    And, Atom, Mode, Not, Or, PAtom, ProgDiamond, PStar, Temporal,
    TEMPORAL_OPS, to_text,
)
from quantales.lattice import chain_lattice, diamond_lattice
from quantales.nucleus import least_nucleus, quotient
from quantales.parsing import parse_formula
from quantales.quantale import (
    group_groupoid,
    groupoid_quantale,
    make_quantale,
    relation_quantale,
    supports_locale,
)
from quantales.relations import RelationQuantale, decode, encode
from quantales.semantics import (
    PointedModel,
    eval_ctl,
    eval_program,
    evaluate,
    valid_in_model,
)
from quantales.tensor import (
    _TRIPLES,
    GradingWitness,
    TensorAlgebra,
    check_graded_nucleus,
    check_grading,
    check_lemmaB_inequalities,
    check_presupport_laws,
    law_lines,
    pure_samples,
    z2_monoid,
)


def _support_laws(q, elements, pairs):
    s = q.support
    for a in elements:
        assert q.leq(s(a), q.unit)
        assert q.leq(s(a), q.mul(a, q.inv(a)))
        assert q.leq(a, q.mul(s(a), a))
    for a, b in pairs:
        assert s(q.join(a, b)) == q.join(s(a), s(b))
        assert s(q.mul(a, b)) == s(q.mul(a, s(b)))


def _oracle_agrees(q, nw, elements):
    for a in elements:
        pa = decode(a, nw)
        assert q.support(a) == encode(rel_support(pa), nw)
        assert q.inv(a) == encode(rel_converse(pa), nw)
    for a in elements[:200]:
        for b in elements[:5]:
            assert q.mul(a, b) == encode(
                rel_compose(decode(a, nw), decode(b, nw)), nw)


def test_c01_support_laws_hold_exactly():
    t0 = time.perf_counter()
    q2 = relation_quantale(("0", "1"))
    every = list(range(q2.n))
    _support_laws(q2, every, itertools.product(every, repeat=2))
    _oracle_agrees(q2, 2, every)

    q4 = RelationQuantale(tuple("abcd"))
    rng = random.Random(0)
    sample = [rng.getrandbits(16) for _ in range(1000)]
    pairs = [(rng.choice(sample), rng.choice(sample)) for _ in range(1000)]
    _support_laws(q4, sample, pairs)
    _oracle_agrees(q4, 4, sample)
    assert time.perf_counter() - t0 < 10.0


def test_c02_every_point_induces_a_conjugate_pair():
    t0 = time.perf_counter()
    seen = 0
    for k in (1, 2, 3):
        q = relation_quantale(tuple(str(i) for i in range(k)))
        loc = supports_locale(q)
        for alpha in range(q.n):
            bf = diamonds_from_point(q, alpha, locale=loc)
            check = check_conjugacy(bf.frame, bf.dia, bf.bdia)
            assert check.ok, (k, alpha, check)
            seen += 1
    assert seen == 2 + 16 + 512
    assert time.perf_counter() - t0 < 60.0


def test_c03_schemes_are_sound_on_their_model_classes():
    t_scheme = parse_formula("p -> <>p", Mode.CLASSICAL)
    k4_scheme = parse_formula("<><>p -> <>p", Mode.CLASSICAL)
    equiv_schemes = [
        parse_formula("<>p /\\ q -> <>(p /\\ <>q)", Mode.CLASSICAL),
        parse_formula("p -> []<>p", Mode.CLASSICAL),
        parse_formula("<>[]p -> p", Mode.CLASSICAL),
    ]
    class_sizes = {1: [0, 0, 0], 2: [0, 0, 0], 3: [0, 0, 0]}
    for n in (1, 2, 3):
        worlds = tuple(str(i) for i in range(n))
        q = RelationQuantale(worlds)
        diag = [sum(1 << (i * n + i) for i in range(n) if m >> i & 1)
                for m in range(2 ** n)]

        def check(alpha, scheme):
            atoms = sorted({a.name for a in _atoms(scheme)})
            for vals in itertools.product(diag, repeat=len(atoms)):
                model = PointedModel(q, alpha, dict(zip(atoms, vals)),
                                     Mode.CLASSICAL, world_atoms=worlds)
                assert valid_in_model(model, scheme), (n, alpha, vals)

        for alpha in range(2 ** (n * n)):
            reflexive = q.leq(q.unit, alpha)
            transitive = q.leq(q.mul(alpha, alpha), alpha)
            symmetric = q.inv(alpha) == alpha
            if reflexive:
                class_sizes[n][0] += 1
                check(alpha, t_scheme)
            if transitive:
                class_sizes[n][1] += 1
                check(alpha, k4_scheme)
            if reflexive and transitive and symmetric:
                class_sizes[n][2] += 1
                for scheme in equiv_schemes:
                    check(alpha, scheme)
    # reflexive / transitive / equivalence counts are known combinatorics
    assert class_sizes[2] == [4, 13, 2]
    assert class_sizes[3] == [64, 171, 5]


def _atoms(f):
    if isinstance(f, Atom):
        yield f
        return
    for name in ("sub", "left", "right"):
        child = getattr(f, name, None)
        if child is not None:
            yield from _atoms(child)


def _ctl_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice("pq"))
    kind = rng.choice(("not", "and", "or", "temporal", "temporal"))
    if kind == "not":
        return Not(_ctl_formula(rng, depth - 1))
    if kind == "and":
        return And(_ctl_formula(rng, depth - 1), _ctl_formula(rng, depth - 1))
    if kind == "or":
        return Or(_ctl_formula(rng, depth - 1), _ctl_formula(rng, depth - 1))
    return Temporal(rng.choice(TEMPORAL_OPS), _ctl_formula(rng, depth - 1))


def _decode_diag(q, nw, value):
    return {i for i in range(nw) if q.leq(1 << (i * nw + i), value)}


def test_c04_temporal_evaluator_matches_path_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(4)
    quantales = {n: RelationQuantale(tuple(str(i) for i in range(n)))
                 for n in (1, 2, 3, 4)}
    for _ in range(500):
        nw = rng.randint(1, 4)
        q = quantales[nw]
        edges = gen.total_edges(rng, range(nw))
        val = gen.random_valuation(rng, range(nw), "pq")
        masks = {a: sum(1 << (i * nw + i) for i in ws)
                 for a, ws in val.items()}
        model = PointedModel(q, encode(edges, nw), masks, Mode.CTL,
                             world_atoms=tuple(str(i) for i in range(nw)))
        f = _ctl_formula(rng, 4)
        got = _decode_diag(q, nw, eval_ctl(model, f))
        assert got == set(oracle_ctl(frozenset(range(nw)), edges, val, f))
    assert time.perf_counter() - t0 < 60.0


def _pdl_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice("pq"))
    kind = rng.choice(("not", "and", "or", "pdia", "pdia"))
    if kind == "not":
        return Not(_pdl_formula(rng, depth - 1))
    if kind == "and":
        return And(_pdl_formula(rng, depth - 1), _pdl_formula(rng, depth - 1))
    if kind == "or":
        return Or(_pdl_formula(rng, depth - 1), _pdl_formula(rng, depth - 1))
    return ProgDiamond(gen.random_program(rng, "pq", "st", 2),
                       _pdl_formula(rng, depth - 1))


def test_c05_programs_match_preimage_semantics():
    rng = random.Random(5)
    quantales = {n: RelationQuantale(tuple(str(i) for i in range(n)))
                 for n in (1, 2, 3, 4)}
    for _ in range(500):
        nw = rng.randint(1, 4)
        q = quantales[nw]
        edges = {name: gen.random_edges(rng, range(nw)) for name in "st"}
        val = gen.random_valuation(rng, range(nw), "pq")
        masks = {a: sum(1 << (i * nw + i) for i in ws)
                 for a, ws in val.items()}
        model = PointedModel(q, q.unit, masks, Mode.PDL,
                             programs={n: encode(e, nw)
                                       for n, e in edges.items()},
                             world_atoms=tuple(str(i) for i in range(nw)))
        for name in "st":
            star = eval_program(model, PStar(PAtom(name)))
            assert star == encode(rel_star(edges[name], range(nw)), nw)
        f = _pdl_formula(rng, 4)
        got = _decode_diag(q, nw, evaluate(model, f))
        assert got == set(oracle_pdl(frozenset(range(nw)), edges, val, f))


# --- nucleus corpus -------------------------------------------------------

def _locale_quantale(L):
    jn, mt = tables(L)
    ident = list(range(L.n))
    return make_quantale(L, mt, ident, L.top, support=ident)


def _assert_nucleus_laws(q, t):
    L = q.lattice
    for a in range(q.n):
        assert L.leq(a, t[a]) and t[t[a]] == t[a]
        assert L.leq(q.inv(t[a]), t[q.inv(a)])
        assert L.leq(q.support(t[a]), t[q.support(a)])
        for b in range(q.n):
            if L.leq(a, b):
                assert L.leq(t[a], t[b])
            assert L.leq(q.mul(t[a], t[b]), t[q.mul(a, b)])


def _saturate(q, pairs):
    seen = set(map(tuple, pairs))
    frontier = list(seen)
    while frontier:
        y, z = frontier.pop()
        grown = [(q.inv(y), q.inv(z)), (q.support(y), q.support(z))]
        for a in range(q.n):
            grown.append((q.mul(a, y), q.mul(a, z)))
            grown.append((q.mul(y, a), q.mul(z, a)))
        for p in grown:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def _nucleus_tables(q):
    'Brute force: every meet-closed subset whose closure obeys all the laws.'
    L = q.lattice
    rest = [x for x in range(q.n) if x != L.top]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            S = frozenset(combo) | {L.top}
            if any(L.meet(a, b) not in S for a in S for b in S):
                continue
            t = []
            for x in range(q.n):
                c = L.top
                for y in S:
                    if L.leq(x, y):
                        c = L.meet(c, y)
                t.append(c)
            try:
                _assert_nucleus_laws(q, t)
            except AssertionError:
                continue
            out.append(tuple(t))
    return out


def _corpus():
    q2 = relation_quantale(("0", "1"))
    e = q2.unit
    a01 = encode([(0, 1)], 2)
    a10 = encode([(1, 0)], 2)
    art = encode([(0, 0), (0, 1), (1, 1)], 2)
    full = q2.top
    q1 = relation_quantale(("0",))
    ld = _locale_quantale(diamond_lattice())
    m1, m2 = [x for x in range(ld.n)
              if x not in (ld.lattice.bottom, ld.lattice.top)]
    z2 = groupoid_quantale(
        group_groupoid(["e", "g"], [[0, 1], [1, 0]], [0, 1], 0))
    g_mask = z2.top & ~z2.unit
    lc3 = _locale_quantale(chain_lattice(3))
    return [
        (q2, []),
        (q2, [(e, a01)]),
        (q2, [(q2.mul(a01, a01), a01)]),
        (q2, [(e, art), (q2.mul(art, art), art)]),
        (q2, [(e, full), (q2.mul(full, full), full), (q2.inv(full), full)]),
        (q2, [(q2.top, e)]),
        (q2, [(a01, q2.bottom)]),
        (q2, [(e, q2.bottom)]),
        (q2, [(a01, a10)]),
        (q2, [(full, art)]),
        (q1, []),
        (q1, [(q1.top, q1.bottom)]),
        (q1, [(q1.bottom, q1.top)]),
        (ld, []),
        (ld, [(m2, m1)]),
        (ld, [(ld.lattice.top, m1)]),
        (ld, [(m1, ld.lattice.bottom)]),
        (z2, [(g_mask, z2.unit)]),
        (z2, [(z2.unit, g_mask)]),
        (lc3, [(2, 1)]),
    ]


def test_c06_least_nuclei_across_the_corpus():
    corpus = _corpus()
    assert len(corpus) == 20
    all_tables = {}
    for q, pairs in corpus:
        L = q.lattice
        nuc = least_nucleus(q, pairs)
        t = tuple(nuc.table)
        for y, z in pairs:
            assert L.leq(t[y], t[z])
        _assert_nucleus_laws(q, t)

        # the closed elements absorb the saturated relation, nothing else
        sat = _saturate(q, pairs)
        closed = [x for x in range(q.n)
                  if all(L.leq(y, x) for y, z in sat if L.leq(z, x))]
        assert closed == sorted(nuc.closed())

        # least among every nucleus honoring the generators
        if id(q) not in all_tables:
            all_tables[id(q)] = _nucleus_tables(q)
        honoring = [tbl for tbl in all_tables[id(q)]
                    if all(L.leq(tbl[y], tbl[z]) for y, z in pairs)]
        assert t in honoring
        for tbl in honoring:
            assert all(L.leq(t[x], tbl[x]) for x in range(q.n))

        quot = quotient(q, nuc)        # revalidates every law internally
        new = quot.quantale
        for a in range(new.n):
            for b in range(new.n):
                assert (new.support(new.mul(a, b))
                        == new.support(new.mul(a, new.support(b))))


def test_c07_tensor_law_suites_on_the_full_pure_grid():
    t0 = time.perf_counter()
    expected_pairs = {2: 2, 3: 8, 4: 16}
    for L in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
        algebra = TensorAlgebra(L, depth=8)
        samples = pure_samples(algebra, 2)
        # the triple laws see every triple, not a sample of them
        assert len(samples) ** 3 <= _TRIPLES
        count = 0
        for dia, bdia in conjugate_pairs(L):
            results = check_presupport_laws(algebra, dia, bdia,
                                            samples=samples)
            results += check_lemmaB_inequalities(algebra, dia, bdia,
                                                 samples=samples)
            assert all(r.ok for r in results), "\n".join(law_lines(results))
            count += 1
        assert count == expected_pairs[L.n]
    assert time.perf_counter() - t0 < 300.0


def test_c08_two_letter_component_is_the_iterated_map_space():
    for L in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
        irr = L.join_irreducibles()
        below = irr_below(L, irr)
        jn, mt = tables(L)
        t2 = join_reversing_maps(L.n, jn, mt, L.bottom, L.top)
        t2_index = {f: i for i, f in enumerate(t2)}
        t2_top = t2_index[(L.top,) * L.n]
        t2_meet = [[t2_index[tuple(mt[f[x]][g[x]] for x in range(L.n))]
                    for g in t2] for f in t2]
        t2_leq = [[all(L.leq(f[x], g[x]) for x in range(L.n))
                   for g in t2] for f in t2]
        t3 = [g for g in itertools.product(range(len(t2)), repeat=L.n)
              if g[L.bottom] == t2_top
              and all(g[jn[x][y]] == t2_meet[g[x]][g[y]]
                      for x in range(L.n) for y in range(L.n))]

        points = list(itertools.product(range(len(irr)), repeat=3))
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
        for (E1, g1), (E2, g2) in itertools.product(reps.items(), repeat=2):
            assert (E1 <= E2) == all(t2_leq[g1[x]][g2[x]]
                                     for x in range(L.n))

        algebra = TensorAlgebra(L, depth=2)
        for E in ideals:
            joined = algebra.join_all(
                algebra.pure("aa", (irr[p], irr[q], irr[r]))
                for p, q, r in E)
            assert joined.component("aa") == E


def test_c09_group_grading_and_its_graded_nucleus():
    q = groupoid_quantale(
        group_groupoid(["e", "g"], [[0, 1], [1, 0]], [0, 1], 0))
    g_mask = q.top & ~q.unit
    witness = GradingWitness(q, z2_monoid(), (q.unit, g_mask))
    report = check_grading(witness)
    assert [r.name for r in report.results] == [
        "host-frame", "cover", "disjoint",
        "mul-degree", "unit-degree", "inv-degree"]
    assert report.ok

    nuc = least_nucleus(q, [(g_mask, g_mask)])
    graded = check_graded_nucleus(witness, nuc)
    assert graded.ok
    assert "dense" in [r.name for r in graded.results]
    assert nuc(q.bottom) == q.bottom


CLI_EQUIV = """MODE classical
WORLDS 0 1
REL alpha (0,0) (0,1) (1,0) (1,1)
VAL p 0
VAL q 1
"""

CLI_CTL = """MODE ctl
WORLDS 0 1
REL alpha (0,1) (1,1)
VAL p 1
"""


def test_c10_round_trips_and_the_cli_contract(tmp_path, capsys):
    rng = random.Random(10)
    for mode in Mode:
        for _ in range(1000):
            f = gen.random_formula(rng, mode, "pqr", depth=4, programs="st")
            assert parse_formula(to_text(f), mode) == f

    equiv = tmp_path / "equiv.model"
    equiv.write_text(CLI_EQUIV)
    ctl = tmp_path / "ctl.model"
    ctl.write_text(CLI_CTL)

    code = main(["valid", str(equiv), "<>p /\\ q -> <>(p /\\ <>q)"])
    assert (code, capsys.readouterr().out) == (0, "VALID\n")
    code = main(["eval", str(ctl), "EG p"])
    assert (code, capsys.readouterr().out) == (0, "{1}\n")
    code = main(["axioms", str(equiv)])
    out = capsys.readouterr().out
    checks = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert code == 0 and checks and all(l.endswith("PASS") for l in checks)
