"""Expected answers for the benchmark corpus, computed without the library.

Every answer here comes from definitions on explicit sets: relations as
sets of world pairs (the pair-set algebra of `tests/oracles.py`), groupoid
elements as sets of arrow names, frames as explicit order relations, and
formula values from the pointwise Kripke evaluators of `tests/oracles.py`.
Nothing here calls the library's quantales, nuclei, lattices, parsers or
evaluators; only the formula AST classes are shared, because the oracles
in `tests/oracles.py` match on them.

`PYTHONPATH=src:tests python3 perfbench/oracle.py` recomputes the stored
answers for the 512-element quotient shapes (`quotient_answers.json`); the
rest is computed on every run.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from oracles import (  # tests/oracles.py, imported read-only
    oracle_classical,
    oracle_ctl,
    oracle_pdl,
    rel_compose,
    rel_converse,
    rel_diagonal,
    rel_support,
)

HERE = Path(__file__).resolve().parent
STORED = HERE / "quotient_answers.json"

SYSTEMS = ("T", "K4", "S4", "S5")
SUPPORT_LAWS = ("support-join", "support-unit", "support-selfproduct",
                "support-restores", "support-stable")
FLAGS = ("reflexive", "transitive", "symmetric", "total-support")


# --- explicit set algebras ------------------------------------------------

class SetAlgebra:
    """The powerset of arrows with composition, converse and domain support.

    `mul(A, B)` collects every defined composite (f then g), `inv` takes
    inverses, `supp` the identities at the domains.  For relations the
    arrows are world pairs and these are the pair-set operations of
    `tests/oracles.py`.
    """

    def __init__(self, arrows, mul, inv, supp, unit):
        self.arrows = tuple(arrows)
        self.mul, self.inv, self.supp = mul, inv, supp
        self.unit = frozenset(unit)
        self.top = frozenset(self.arrows)

    def elements(self):
        for r in range(len(self.arrows) + 1):
            for combo in itertools.combinations(self.arrows, r):
                yield frozenset(combo)


def relation_algebra(worlds):
    worlds = tuple(worlds)
    return SetAlgebra(((u, v) for u in worlds for v in worlds),
                      rel_compose, rel_converse, rel_support,
                      rel_diagonal(worlds))


def groupoid_algebra(spec):
    """spec: objects, arrows [(name, dom, cod)], comp {(f, g): h}, inv {f: g}."""
    dom = {name: d for name, d, _ in spec["arrows"]}
    cod = {name: c for name, _, c in spec["arrows"]}
    comp, inverse = spec["comp"], spec["inv"]
    ident = {}
    for x in spec["objects"]:
        ident[x] = next(e for e, d, c in spec["arrows"] if d == c == x
                        and all(comp[g, e] == g for g in dom if cod[g] == x))
    return SetAlgebra(
        dom,
        lambda a, b: frozenset(comp[f, g] for f in a for g in b
                               if cod[f] == dom[g]),
        lambda a: frozenset(inverse[f] for f in a),
        lambda a: frozenset(ident[dom[f]] for f in a),
        ident.values())


def system_pairs(alg, alpha, system):
    'Generating pairs (y, z), read j(y) <= j(z), of the modal system axioms.'
    pairs = []
    if system in ("T", "S4", "S5"):
        pairs.append((alg.unit, alpha))
    if system in ("K4", "S4", "S5"):
        pairs.append((alg.mul(alpha, alpha), alpha))
    if system == "S5":
        pairs.append((alg.inv(alpha), alpha))
    return pairs


def point_flags(alg, alpha):
    return {
        "reflexive": alg.unit <= alpha,
        "transitive": alg.mul(alpha, alpha) <= alpha,
        "symmetric": alg.inv(alpha) == alpha,
        "total-support": alg.supp(alpha) == alg.unit,
    }


def flag_lines(flags):
    return [f"FLAG {name} {'YES' if flags[name] else 'NO'}" for name in FLAGS]


# --- quotient: explicit saturation ----------------------------------------

def quotient_answer(alg, alpha, system):
    """`INFO closed k of n` and the projected point's flags, by saturation.

    The generating relation is saturated pair by pair under left and right
    multiplication by every element, involution and support; an element is
    closed when it lies above y whenever it lies above z for a saturated
    pair (y, z); the nucleus sends x to the meet of its closed covers.
    Elements are indexed by this module's own enumeration.
    """
    elems = list(alg.elements())
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    mul = [[idx[alg.mul(a, b)] for b in elems] for a in elems]
    inv = [idx[alg.inv(a)] for a in elems]
    supp = [idx[alg.supp(a)] for a in elems]
    seen = {(idx[y], idx[z]) for y, z in system_pairs(alg, alpha, system)}
    frontier = list(seen)
    while frontier:
        y, z = frontier.pop()
        grown = [(inv[y], inv[z]), (supp[y], supp[z])]
        for a in range(n):
            grown.append((mul[a][y], mul[a][z]))
            grown.append((mul[y][a], mul[z][a]))
        for p in grown:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    above = {}
    for y, z in seen:
        above[z] = above.get(z, frozenset()) | elems[y]
    closed = [x for x in elems
              if all(y <= x for z, y in above.items() if elems[z] <= x)]

    def j(x):
        out = alg.top
        for c in closed:
            if x <= c:
                out &= c
        return out

    p = j(alpha)
    flags = {
        "reflexive": j(alg.unit) <= p,
        "transitive": j(alg.mul(p, p)) <= p,
        "symmetric": j(alg.inv(p)) == p,
        "total-support": j(alg.supp(p)) == j(alg.unit),
    }
    return {"closed": len(closed), "n": n, "pairs_saturated": len(seen),
            "flags": flags}


def quotient_lines(answer):
    return (["CHECK nucleus PASS", "CHECK quotient PASS",
             f"INFO closed {answer['closed']} of {answer['n']}"]
            + flag_lines(answer["flags"]))


# --- axioms ---------------------------------------------------------------

def support_laws_hold(alg):
    'The five support laws over the whole explicit carrier.'
    s, m = alg.supp, alg.mul
    elems = list(alg.elements())
    for a in elems:
        if not (s(a) <= alg.unit and s(a) <= m(a, alg.inv(a))
                and a <= m(s(a), a)):
            return False
        for b in elems:
            if s(a | b) != s(a) | s(b) or s(m(a, b)) != s(m(a, s(b))):
                return False
    return True


def point_diamonds_conjugate(alg, alpha):
    'dia b = s(alpha b) and bdia b = s(alpha- b) are conjugate on the locale.'
    ainv = alg.inv(alpha)
    locale = [frozenset(c) for r in range(len(alg.unit) + 1)
              for c in itertools.combinations(sorted(alg.unit), r)]
    dia = {b: alg.supp(alg.mul(alpha, b)) for b in locale}
    bdia = {b: alg.supp(alg.mul(ainv, b)) for b in locale}
    return all(dia[x] & y <= dia[x & bdia[y]] and bdia[x] & y <= bdia[x & dia[y]]
               for x in locale for y in locale)


def axioms_lines(alg, alpha, exhaustive_laws):
    """The axioms report: every law PASS, then the point's flags.

    The support laws are theorems for relation and groupoid quantales;
    they are re-proved here on the explicit carrier when exhaustive_laws
    is set (small carriers) and taken as theorems otherwise.
    """
    if exhaustive_laws and not support_laws_hold(alg):
        raise AssertionError("support laws fail on an explicit carrier")
    if not point_diamonds_conjugate(alg, alpha):
        raise AssertionError("point diamonds are not conjugate")
    return ([f"CHECK {name} PASS" for name in SUPPORT_LAWS]
            + ["CHECK conjugacy PASS"] + flag_lines(point_flags(alg, alpha)))


# --- eval / valid ---------------------------------------------------------

def formula_value(mode, worlds, edges, programs, val, f):
    if mode in ("classical", "intuitionistic"):
        # The support locale of a relation quantale is Boolean, so the
        # intuitionistic value agrees with the classical one.
        return oracle_classical(worlds, edges, val, f)
    if mode == "ctl":
        return oracle_ctl(worlds, edges, val, f)
    return oracle_pdl(worlds, programs, val, f)


def eval_answer(worlds, value):
    return 0, ["{" + ", ".join(w for w in worlds if w in value) + "}"]


def valid_answer(worlds, value):
    for w in worlds:
        if w not in value:
            return 1, [f"INVALID at {w}"]
    return 0, ["VALID"]


# --- sweep ----------------------------------------------------------------

def _in_class(n, edges, system):
    if system in ("T", "S4", "S5") and any((i, i) not in edges for i in range(n)):
        return False
    if system in ("K4", "S4", "S5") and not rel_compose(edges, edges) <= edges:
        return False
    if system == "S5" and rel_converse(edges) != edges:
        return False
    return True


def sweep_answer(worlds, system, scheme, atoms):
    """Enumerate explicit pointed frames in the command's documented order.

    World counts 1..worlds; points by their pair bitmask (bit i n + j is
    the pair (i, j)); valuations by world bitmask, atoms sorted.  Returns
    the exit code, the report lines and the model count.
    """
    atoms = sorted(atoms)
    count = 0
    for n in range(1, worlds + 1):
        W = frozenset(range(n))
        subsets = [frozenset(i for i in range(n) if mask >> i & 1)
                   for mask in range(2 ** n)]
        for code in range(2 ** (n * n)):
            edges = frozenset((k // n, k % n) for k in range(n * n)
                              if code >> k & 1)
            if not _in_class(n, edges, system):
                continue
            for choice in itertools.product(subsets, repeat=len(atoms)):
                val = dict(zip(atoms, choice))
                if oracle_classical(W, edges, val, scheme) != W:
                    pairs = " ".join(f"({i},{j})" for i, j in sorted(edges))
                    vals = " ".join(
                        f"{a}={{{','.join(str(i) for i in sorted(v))}}}"
                        for a, v in val.items())
                    return 1, [f"INFO worlds={n} alpha={pairs} {vals}",
                               "SWEEP FAIL"], count
                count += 1
    return 0, [f"SWEEP PASS models={count}"], count


# --- tensor-verify: brute force over the map space ------------------------

BASE_LAWS = ("unit-support", "support-below-unit", "support-idempotent",
             "support-product", "stability", "conjugacy-a", "conjugacy-b",
             "conjugacy-c", "defining-pair", "eps-selfproduct")


def frame_order(elements, covers):
    leq = {(x, x) for x in elements} | set(covers)
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            return leq
        leq |= more


def conjugate_pairs_answer(elements, covers):
    """Every conjugate pair of join-preserving maps, from all n^n maps.

    Returns (dia, bdia, law names) triples, maps written as label lists in
    ELEMENTS order; the class laws follow the T, K4 and S5 hypotheses.
    """
    leq = frame_order(elements, covers)

    def least(common, order):
        return next(z for z in common if all(order(z, w) for w in common))

    up = lambda a, b: (a, b) in leq
    down = lambda a, b: (b, a) in leq
    join = {(x, y): least([z for z in elements if up(x, z) and up(y, z)], up)
            for x in elements for y in elements}
    meet = {(x, y): least([z for z in elements if down(x, z) and down(y, z)],
                          down)
            for x in elements for y in elements}
    bottom = next(z for z in elements if all((z, w) in leq for w in elements))
    maps = []
    for values in itertools.product(elements, repeat=len(elements)):
        f = dict(zip(elements, values))
        if f[bottom] == bottom and all(f[join[x, y]] == join[f[x], f[y]]
                                       for x in elements for y in elements):
            maps.append(f)

    def conjugate(f, g):
        return all((meet[f[x], y], f[meet[x, g[y]]]) in leq
                   and (meet[g[x], y], g[meet[x, f[y]]]) in leq
                   for x in elements for y in elements)

    out = []
    for f in maps:
        for g in maps:
            if not conjugate(f, g):
                continue
            t = all((x, f[x]) in leq and (x, g[x]) in leq for x in elements)
            k4 = all((f[f[x]], f[x]) in leq and (g[g[x]], g[x]) in leq
                     for x in elements)
            s5 = t and k4 and f == g
            laws = list(BASE_LAWS)
            laws += ["t-alpha", "t-alpha-inv"] if t else []
            laws += ["k4-alpha", "k4-alpha-inv"] if k4 else []
            laws += ["s5-exchange"] if s5 else []
            out.append((",".join(f[x] for x in elements),
                        ",".join(g[x] for x in elements), frozenset(laws)))
    return out


def check_tensor_report(expected, rc, stdout):
    """None when the report matches the oracle, else what differs.

    Pair order follows the library's enumeration, so PAIR blocks are
    compared as a set; each block must carry exactly its class's laws,
    all PASS.
    """
    if rc != 0:
        return f"exit {rc}, expected 0"
    lines = stdout.splitlines()
    k = len(expected)
    if not lines or lines[0] != f"INFO conjugate-pairs {k}":
        return f"first line {lines[:1]}, expected INFO conjugate-pairs {k}"
    want = {(d, b): laws for d, b, laws in expected}
    got = {}
    for line in lines[1:]:
        if line.startswith("PAIR "):
            parts = line.split(" ")
            if len(parts) != 4 or not parts[2].startswith("dia=[") \
                    or not parts[3].startswith("bdia=["):
                return f"bad header {line!r}"
            dia, bdia = parts[2], parts[3]
            key = (dia[5:-1], bdia[6:-1])
            if key in got:
                return f"pair listed twice: {line!r}"
            got[key] = set()
            continue
        parts = line.split(" ")
        if not got or len(parts) != 3 or parts[0] != "LAW" or parts[2] != "PASS":
            return f"unexpected line {line!r}"
        got[key].add(parts[1])
    headers = [ln.split(" ")[1] for ln in lines if ln.startswith("PAIR ")]
    if headers != [f"{i}/{k}" for i in range(1, k + 1)]:
        return f"pair numbering {headers}"
    if set(got) != set(want):
        return f"pairs {sorted(got)} differ from {sorted(want)}"
    for key, laws in got.items():
        if laws != want[key]:
            return f"laws for {key}: {sorted(laws)}, expected {sorted(want[key])}"
    return None


# --- stored answers for the 512-element quotient shapes --------------------

def canonical_shapes():
    """The shapes whose saturation is too slow to redo on every run.

    Answers are invariant under renaming and reordering worlds, so one
    canonical instance per shape stands for every seeded relabelling.
    """
    w = ("0", "1", "2")
    return {
        "rel3-diagonal-T": (w, [(x, x) for x in w], "T"),
        "rel3-loop-T": (w, [("0", "0")], "T"),
    }


def compute_stored():
    out = {}
    for name, (worlds, alpha, system) in canonical_shapes().items():
        ans = quotient_answer(relation_algebra(worlds), frozenset(alpha), system)
        out[name] = ans
        print(name, ans["closed"], ans["n"], ans["pairs_saturated"], flush=True)
    return out


def load_stored():
    return json.loads(STORED.read_text())


if __name__ == "__main__":
    STORED.write_text(json.dumps(compute_stored(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
