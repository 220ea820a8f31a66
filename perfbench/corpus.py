"""Seeded corpora for the four workloads, each item with its oracle answer.

The seed draws names, declaration orders, points, valuations and edges;
the shapes that set an item's cost (world counts, carrier sizes, formula
templates, modal systems) are fixed per workload, so runs with different
seeds measure the same amount of work on different inputs.  The command
line receives only the generated files and arguments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from quantales.formulas import (
    And, Atom, Box, Diamond, Implies, Not, Or, PAtom, PChoice, ProgDiamond,
    PSeq, PStar, Temporal,
)

import oracle

@dataclass
class Item:
    """One command-line invocation and its expected report.

    argv names files from `files`, which the runner writes to its working
    directory.  `expected` is (exit code, stdout lines), or a function of
    (exit code, stdout) returning None or a mismatch description.
    """

    label: str
    argv: list
    expected: object
    files: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)

    def mismatch(self, rc, stdout):
        if callable(self.expected):
            return self.expected(rc, stdout)
        want_rc, lines = self.expected
        want = "".join(line + "\n" for line in lines)
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}"
        if stdout != want:
            return f"stdout {stdout[:200]!r}, expected {want[:200]!r}"
        return None


def _names(rng, prefix, k):
    return [f"{prefix}{i}" for i in rng.sample(range(10, 100), k)]


# --- documents --------------------------------------------------------------

def relation_doc(mode, worlds, alpha, programs=None, val=None):
    lines = [f"MODE {mode}", "WORLDS " + " ".join(worlds)]
    rels = {"alpha": alpha, **(programs or {})}
    for name, pairs in rels.items():
        lines.append(f"REL {name} " + " ".join(f"({u},{v})" for u, v in sorted(pairs)))
    for atom, members in (val or {}).items():
        lines.append(f"VAL {atom} " + " ".join(sorted(members)))
    return "\n".join(lines) + "\n"


def groupoid_doc(spec, point):
    lines = ["MODE classical", "OBJECTS " + " ".join(spec["objects"])]
    lines += [f"ARROWS {a} {d} {c}" for a, d, c in spec["arrows"]]
    lines += [f"COMP {f} {g} {h}" for (f, g), h in spec["comp"].items()]
    done = set()
    for f, g in spec["inv"].items():
        if f != g and f not in done:
            lines.append(f"INV {f} {g}")
            done |= {f, g}
    lines.append("POINT " + " ".join(sorted(point)))
    return "\n".join(lines) + "\n"


def _groupoid(objects, arrows, compose, inverse, rng):
    """A groupoid spec from abstract arrows, with seeded names and order.

    arrows: {key: (dom, cod)}; compose(f, g) is f followed by g.
    """
    keys = list(arrows)
    rng.shuffle(keys)
    name = dict(zip(keys, _names(rng, "g", len(keys))))
    oname = dict(zip(objects, _names(rng, "x", len(objects))))
    comp = {}
    for f in keys:
        for g in keys:
            if arrows[f][1] == arrows[g][0]:
                comp[name[f], name[g]] = name[compose(f, g)]
    return {
        "objects": [oname[o] for o in objects],
        "arrows": [(name[k], oname[arrows[k][0]], oname[arrows[k][1]])
                   for k in keys],
        "comp": comp,
        "inv": {name[k]: name[inverse(k)] for k in keys},
    }


def s3_group(rng):
    'The symmetric group on three letters as a one-object groupoid (6 arrows).'
    perms = list(itertools.permutations(range(3)))
    return _groupoid(
        ["o"], {p: ("o", "o") for p in perms},
        lambda f, g: tuple(g[f[i]] for i in range(3)),
        lambda f: tuple(sorted(range(3), key=lambda i: f[i])), rng)


def pair_plus_z2(rng):
    'The pair groupoid on two objects beside the group Z2 (6 arrows).'
    arrows = {("p", a, b): (a, b) for a in "ab" for b in "ab"}
    arrows.update({("z", 0): ("c", "c"), ("z", 1): ("c", "c")})

    def compose(f, g):
        if f[0] == "p":
            return ("p", f[1], g[2])
        return ("z", (f[1] + g[1]) % 2)

    def inverse(f):
        return ("p", f[2], f[1]) if f[0] == "p" else f

    return _groupoid(["a", "b", "c"], arrows, compose, inverse, rng)


def _random_relation(rng, worlds, density):
    return frozenset((u, v) for u in worlds for v in worlds
                     if rng.random() < density)


# --- formulas -----------------------------------------------------------------

def to_text(f):
    'Fully parenthesised concrete syntax, written independently of the printer.'
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + to_text(f.sub)
    if isinstance(f, Diamond):
        return "<>" + to_text(f.sub)
    if isinstance(f, Box):
        return "[]" + to_text(f.sub)
    if isinstance(f, Temporal):
        return f"{f.op} {to_text(f.sub)}"
    if isinstance(f, ProgDiamond):
        return f"<{prog_text(f.prog)}>{to_text(f.sub)}"
    op = {And: "/\\", Or: "\\/", Implies: "->"}[type(f)]
    return f"({to_text(f.left)} {op} {to_text(f.right)})"


def prog_text(p):
    if isinstance(p, PAtom):
        return p.name
    if isinstance(p, PStar):
        return prog_text(p.sub) + "*"     # a compound sub-program prints parenthesised
    op = {PSeq: ";", PChoice: " u "}[type(p)]
    return f"({prog_text(p.left)}{op}{prog_text(p.right)})"


def _eval_templates(mode, a, b, p, q):
    """The mode's (eval formula, valid formula); the second holds in every model."""
    A, B, P, Q = Atom(a), Atom(b), PAtom(p), PAtom(q)
    return {
        "classical": (And(Diamond(A), Not(B)),
                      Implies(And(Box(A), Diamond(B)), Diamond(And(A, B)))),
        "intuitionistic": (Implies(Box(A), Diamond(B)),
                           Implies(Diamond(Or(A, B)), Or(Diamond(A), Diamond(B)))),
        "ctl": (Temporal("AG", Implies(A, Temporal("EF", B))),
                Implies(Temporal("AG", A), A)),
        "pdl": (And(ProgDiamond(PSeq(P, PStar(Q)), A),
                    Not(ProgDiamond(PStar(PChoice(P, Q)), B))),
                Implies(ProgDiamond(PChoice(P, Q), A),
                        Or(ProgDiamond(P, A), ProgDiamond(Q, A)))),
    }[mode]


# --- workloads ------------------------------------------------------------------

def _quotient_item(label, doc, system, answer, props):
    return Item(label, ["quotient", "doc.model", "--system", system],
                (0, oracle.quotient_lines(answer)), {"doc.model": doc},
                {"system": system, "carrier": answer["n"],
                 "closed": f"{answer['closed']} of {answer['n']}",
                 "pairs_saturated": answer["pairs_saturated"], **props})


def quotient_corpus(rng):
    stored = oracle.load_stored()
    items = []
    w3 = _names(rng, "w", 3)
    diag = [(w, w) for w in w3]
    items.append(_quotient_item(
        "quotient rel3 identity T",
        relation_doc("classical", w3, diag), "T",
        stored["rel3-diagonal-T"], {"shape": "identity"}))
    # The loop is on the first declared world: peak RSS of the saturation
    # depends on the world's position (137 to 151 MB at the seed), not on
    # its name, so a fixed position keeps peak_rss_mb comparable across seeds.
    w3 = _names(rng, "w", 3)
    items.append(_quotient_item(
        "quotient rel3 collapsing T",
        relation_doc("classical", w3, [(w3[0], w3[0])]), "T",
        stored["rel3-loop-T"], {"shape": "collapsing"}))
    w3 = _names(rng, "w", 3)
    alpha = _random_relation(rng, w3, 0.5)
    items.append(Item(
        "axioms rel3", ["axioms", "doc.model"],
        (0, oracle.axioms_lines(oracle.relation_algebra(w3), alpha, False)),
        {"doc.model": relation_doc("classical", w3, alpha)}, {"carrier": 512}))
    for system in oracle.SYSTEMS:
        w2 = _names(rng, "w", 2)
        alpha = _random_relation(rng, w2, 0.5)
        ans = oracle.quotient_answer(oracle.relation_algebra(w2), alpha, system)
        items.append(_quotient_item(
            f"quotient rel2 {system}", relation_doc("classical", w2, alpha),
            system, ans, {}))
    for make, system in ((s3_group, "S4"), (pair_plus_z2, "S5")):
        spec = make(rng)
        point = frozenset(rng.sample([a for a, _, _ in spec["arrows"]], 2))
        ans = oracle.quotient_answer(oracle.groupoid_algebra(spec), point, system)
        items.append(_quotient_item(
            f"quotient {make.__name__} {system}", groupoid_doc(spec, point),
            system, ans, {}))
    spec = s3_group(rng)
    point = frozenset(rng.sample([a for a, _, _ in spec["arrows"]], 3))
    items.append(Item(
        "axioms s3_group", ["axioms", "doc.model"],
        (0, oracle.axioms_lines(oracle.groupoid_algebra(spec), point, True)),
        {"doc.model": groupoid_doc(spec, point)}, {"carrier": 64}))
    return items


def tensor_corpus(rng):
    items = []
    for k in (2, 3):
        labels = _names(rng, "e", k)
        covers = list(zip(labels, labels[1:]))
        if k == 3:
            covers.append((labels[0], labels[2]))   # redundant by transitivity
        rng.shuffle(covers)
        order = list(labels)
        rng.shuffle(order)
        text = ("ELEMENTS " + " ".join(order) + "\nLEQ "
                + " ".join(f"({u},{v})" for u, v in covers) + "\n")
        expected = oracle.conjugate_pairs_answer(order, covers)
        items.append(Item(
            f"tensor-verify chain{k}", ["tensor-verify", "--frame", "frame.txt"],
            lambda rc, out, e=expected: oracle.check_tensor_report(e, rc, out),
            {"frame.txt": text},
            {"frame": f"{k}-chain", "conjugate_pairs": len(expected)}))
    return items


def _eval_doc(rng, n, mode):
    worlds = _names(rng, "w", n)
    edges = set(_random_relation(rng, worlds, 0.2))
    for u in worlds:                    # total, so ctl documents are accepted
        if not any(x == u for x, _ in edges):
            edges.add((u, rng.choice(worlds)))
    atoms = _names(rng, "p", 2)
    progs = _names(rng, "r", 2)
    programs = ({p: _random_relation(rng, worlds, 0.15) for p in progs}
                if mode == "pdl" else {})
    val = {a: frozenset(w for w in worlds if rng.random() < 0.5) for a in atoms}
    return worlds, frozenset(edges), programs, val, atoms, progs


def eval_corpus(rng):
    items = []
    for n, command in ((12, "eval"), (14, "valid")):
        for mode in ("classical", "intuitionistic", "ctl", "pdl"):
            worlds, edges, programs, val, atoms, progs = _eval_doc(rng, n, mode)
            f = _eval_templates(mode, *atoms, *progs)[command == "valid"]
            value = oracle.formula_value(mode, frozenset(worlds), edges,
                                         programs, val, f)
            answer = (oracle.eval_answer if command == "eval"
                      else oracle.valid_answer)(worlds, value)
            items.append(Item(
                f"{command} {mode} {n}w", [command, "doc.model", to_text(f)],
                answer,
                {"doc.model": relation_doc(mode, worlds, edges, programs, val)},
                {"worlds": n, "mode": mode, "true_at": len(value)}))
    worlds, edges, programs, val, atoms, progs = _eval_doc(rng, 16, "classical")
    f = Or(Not(Atom(atoms[0])), Diamond(Atom(atoms[1])))
    value = oracle.formula_value("classical", frozenset(worlds), edges, {}, val, f)
    items.append(Item(
        "eval classical 16w", ["eval", "doc.model", to_text(f)],
        oracle.eval_answer(worlds, value),
        {"doc.model": relation_doc("classical", worlds, edges, val=val)},
        {"worlds": 16, "mode": "classical", "true_at": len(value)}))
    worlds = _names(rng, "w", 8)
    alpha = _random_relation(rng, worlds, 0.3)
    items.append(Item(
        "axioms rel8", ["axioms", "doc.model"],
        (0, oracle.axioms_lines(oracle.relation_algebra(worlds), alpha, False)),
        {"doc.model": relation_doc("classical", worlds, alpha)},
        {"worlds": 8, "sampled": True}))
    return items


def sweep_corpus(rng):
    items = []
    for worlds, system, make in (
            (4, "T", lambda a: Implies(Box(a), a)),
            (4, "S4", lambda a: Implies(Box(a), Box(Box(a)))),
            (4, "S5", lambda a: Implies(Diamond(a), Box(Diamond(a)))),
            (3, "T", lambda a: Implies(Box(a), Box(Box(a))))):
        atom = _names(rng, "p", 1)[0]
        scheme = make(Atom(atom))
        rc, lines, count = oracle.sweep_answer(worlds, system, scheme, [atom])
        items.append(Item(
            f"sweep {system} {worlds}w {'pass' if rc == 0 else 'fail'}",
            ["sweep", "--worlds", str(worlds), "--system", system,
             "--scheme", to_text(scheme)],
            (rc, lines), {},
            {"system": system, "worlds": worlds, "models": count}))
    return items


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"quotient": quotient_corpus, "tensor": tensor_corpus,
            "eval": eval_corpus, "sweep": sweep_corpus}[workload](rng)
