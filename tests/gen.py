"""Seeded random models and formulas for differential tests."""

from __future__ import annotations

import itertools
import random

from quantales.formulas import (
    And, Atom, Box, Diamond, Implies, Mode, Not, Or, PAtom, PChoice,
    ProgDiamond, PSeq, PStar, PTest, Temporal,
)
from quantales.groupoids import FiniteGroupoid, group_groupoid, pair_groupoid
from quantales.lattice import chain_lattice
from quantales.quantale import groupoid_quantale, make_quantale


def random_edges(rng: random.Random, worlds, density=0.45):
    return frozenset((u, v) for u in worlds for v in worlds
                     if rng.random() < density)


def total_edges(rng: random.Random, worlds, density=0.45):
    'Every world gets at least one successor.'
    edges = set(random_edges(rng, worlds, density))
    for u in worlds:
        if not any(x == u for x, _ in edges):
            edges.add((u, rng.choice(list(worlds))))
    return frozenset(edges)


def equivalence_edges(rng: random.Random, worlds):
    blocks = {}
    nblocks = rng.randint(1, max(1, len(worlds)))
    for w in worlds:
        blocks.setdefault(rng.randrange(nblocks), []).append(w)
    return frozenset((u, v) for b in blocks.values() for u in b for v in b)


def transitive_closure(edges):
    out = set(edges)
    while True:
        nxt = out | {(x, z) for x, y in out for y2, z in out if y == y2}
        if nxt == out:
            return frozenset(out)
        out = nxt


def random_valuation(rng: random.Random, worlds, atoms):
    return {a: frozenset(w for w in worlds if rng.random() < 0.5)
            for a in atoms}


_TEMPORAL_OPS = ("EX", "EF", "EG", "AX", "AF", "AG")


def random_formula(rng: random.Random, mode: Mode, atoms, depth=4,
                   programs=()):
    if depth <= 0 or rng.random() < 0.25:
        return Atom(rng.choice(list(atoms)))
    kinds = ["not", "and", "or", "imp"]
    if mode in (Mode.CLASSICAL, Mode.INTUITIONISTIC):
        kinds += ["dia", "box"]
    if mode is Mode.CTL:
        kinds += ["temporal", "temporal"]
    if mode is Mode.PDL:
        kinds += ["pdia", "pdia"]
    kind = rng.choice(kinds)
    sub = lambda: random_formula(rng, mode, atoms, depth - 1, programs)
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "imp":
        return Implies(sub(), sub())
    if kind == "dia":
        return Diamond(sub())
    if kind == "box":
        return Box(sub())
    if kind == "temporal":
        return Temporal(rng.choice(_TEMPORAL_OPS), sub())
    return ProgDiamond(random_program(rng, atoms, programs, depth - 1), sub())


def random_program(rng: random.Random, atoms, programs, depth=2):
    if depth <= 0 or rng.random() < 0.4:
        return PAtom(rng.choice(list(programs)))
    kind = rng.choice(["seq", "choice", "star", "test"])
    if kind == "seq":
        return PSeq(random_program(rng, atoms, programs, depth - 1),
                    random_program(rng, atoms, programs, depth - 1))
    if kind == "choice":
        return PChoice(random_program(rng, atoms, programs, depth - 1),
                       random_program(rng, atoms, programs, depth - 1))
    if kind == "star":
        return PStar(random_program(rng, atoms, programs, depth - 1))
    return PTest(random_formula(rng, Mode.PDL, atoms, depth - 1, programs))


# --- groupoid quantales ---------------------------------------------------

def s3_groupoid():
    'The symmetric group on three letters as a one-object groupoid.'
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    mul = [[idx[tuple(g[f[i]] for i in range(3))] for g in perms]
           for f in perms]
    inv = [idx[tuple(sorted(range(3), key=f.__getitem__))] for f in perms]
    return group_groupoid(perms, mul, inv, idx[(0, 1, 2)])


def s3_quantale():
    return groupoid_quantale(s3_groupoid())


def pair2_z2_groupoid():
    'The pair groupoid on objects 0 and 1 beside the group Z2 at object 2.'
    arrows = [(0, 0), (0, 1), (1, 0), (1, 1), "z0", "z1"]
    dom, cod = [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 2, 2]
    idx = {a: i for i, a in enumerate(arrows)}

    def compose(f, g):
        if isinstance(f, tuple):
            return idx[(f[0], g[1])]
        return idx["z0" if f == g else "z1"]

    comp = {(i, j): compose(f, g) for i, f in enumerate(arrows)
            for j, g in enumerate(arrows) if cod[i] == dom[j]}
    inv = [idx[a[::-1]] if isinstance(a, tuple) else i
           for i, a in enumerate(arrows)]
    return FiniteGroupoid(range(3), arrows, dom, cod, comp, inv)


def pair2_z2_quantale():
    return groupoid_quantale(pair2_z2_groupoid())


def random_groupoid(rng: random.Random, max_arrows=9):
    """A seeded groupoid of at most max_arrows arrows: a disjoint union of
    components, each the pair groupoid on k objects times a cyclic group
    Z_h, with its objects and arrows in shuffled order, so that the
    identities fall anywhere among the arrows."""
    components = []
    budget = rng.randint(1, max_arrows)
    while budget:
        k = rng.choice([k for k in (1, 2, 3) if k * k <= budget])
        h = rng.randint(1, budget // (k * k))
        components.append((k, h))
        budget -= k * k * h
    objects = [(c, i) for c, (k, _) in enumerate(components) for i in range(k)]
    arrows = [(c, i, j, t) for c, (k, h) in enumerate(components)
              for i in range(k) for j in range(k) for t in range(h)]
    rng.shuffle(objects)
    rng.shuffle(arrows)
    oidx = {o: x for x, o in enumerate(objects)}
    aidx = {a: g for g, a in enumerate(arrows)}
    dom = [oidx[c, i] for c, i, _, _ in arrows]
    cod = [oidx[c, j] for c, _, j, _ in arrows]
    comp = {(aidx[c, i, j, t], aidx[c, j, l, u]):
            aidx[c, i, l, (t + u) % components[c][1]]
            for c, i, j, t in arrows for c2, j2, l, u in arrows
            if (c2, j2) == (c, j)}
    inv = [aidx[c, j, i, -t % components[c][1]] for c, i, j, t in arrows]
    return FiniteGroupoid(objects, arrows, dom, cod, comp, inv)


# The groupoid fixtures, by name: S3, pair(2)+Z2, the pair groupoids on
# 1 to 3 objects (2, 16 and 512 elements) and six seeded groupoids.
GROUPOIDS = {
    "s3": s3_groupoid,
    "pair2+z2": pair2_z2_groupoid,
    **{f"pair{k}": (lambda k=k: pair_groupoid(range(k))) for k in (1, 2, 3)},
    **{f"seed{seed}": (lambda seed=seed: random_groupoid(random.Random(seed)))
       for seed in range(6)},
}


def groupoid_document(G: FiniteGroupoid, mode: str, point, valuation):
    """A groupoid document of G: objects x0, x1, ... and arrows a0, a1,
    ... in G's order, the arrows of the bitmask point, and valuation, each
    atom to a set of object indices."""
    names = [f"a{g}" for g in range(len(G.arrows))]
    lines = [f"MODE {mode}",
             "OBJECTS " + " ".join(f"x{x}" for x in range(len(G.objects)))]
    lines += [f"ARROWS {names[g]} x{G.dom[g]} x{G.cod[g]}"
              for g in range(len(names))]
    lines += [f"COMP {names[g]} {names[h]} {names[k]}"
              for (g, h), k in sorted(G.comp.items())]
    lines += [f"INV {names[g]} {names[h]}" for g, h in enumerate(G.inv)
              if g < h]
    lines.append("POINT " + " ".join(names[g] for g in range(len(names))
                                     if point >> g & 1))
    lines += [f"VAL {atom} " + " ".join(f"x{x}" for x in sorted(members))
              for atom, members in valuation.items()]
    return "\n".join(lines) + "\n"


def goedel_chain(k):
    'The k-chain as a locale quantale: multiplication is min, unit is top.'
    mul = tuple(tuple(min(a, b) for b in range(k)) for a in range(k))
    return make_quantale(chain_lattice(k), mul, inv=tuple(range(k)),
                         unit=k - 1, support=tuple(range(k)))
