"""Independent reference computations used to pin expected values.

Everything here recomputes results from definitions, avoiding the library's
own derived tables and fixed-point loops wherever a dual route exists.
"""

from __future__ import annotations

import itertools
import random


def assert_tables_realize_bounds(L):
    'Check every join/meet table entry is the least upper / greatest lower bound.'
    for a in range(L.n):
        for b in range(L.n):
            j = L.join(a, b)
            assert L.leq(a, j) and L.leq(b, j)
            m = L.meet(a, b)
            assert L.leq(m, a) and L.leq(m, b)
            for c in range(L.n):
                if L.leq(a, c) and L.leq(b, c):
                    assert L.leq(j, c), (a, b, c)
                if L.leq(c, a) and L.leq(c, b):
                    assert L.leq(c, m), (a, b, c)


def is_closure_table(L, t):
    'Inline closure-operator laws, independent of ClosureOperator validation.'
    for a in range(L.n):
        if not L.leq(a, t[a]) or t[t[a]] != t[a]:
            return False
        for b in range(L.n):
            if L.leq(a, b) and not L.leq(t[a], t[b]):
                return False
    return True


def all_closure_tables(L):
    for t in itertools.product(range(L.n), repeat=L.n):
        if is_closure_table(L, t):
            yield t


def meet_closed_subsets(L):
    'All subsets containing top and closed under pairwise meets.'
    rest = [x for x in range(L.n) if x != L.top]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            S = set(combo) | {L.top}
            if all(L.meet(a, b) in S for a in S for b in S):
                yield frozenset(S)


# --- closed sub-lattices and powersets, pair by pair ----------------------
# The references for the constructions that cut a lattice's arrays by
# indexing: every entry here comes from a scalar call or a set operation.

def lattice_tables(L):
    'A lattice as plain values: labels, order, join, meet, bottom, top.'
    return (L.labels, L.leq_matrix.tolist(), L.join_matrix.tolist(),
            L.meet_matrix.tolist(), L.bottom, L.top)


def closed_lattice_by_pairs(L, table):
    """The lattice_tables of the closed elements of a closure table: the
    order inherited, joins closed by the table, meets inherited."""
    elems = [x for x in range(L.n) if table[x] == x]
    idx = {x: k for k, x in enumerate(elems)}
    pos = [idx[c] for c in table]
    return (tuple(L.labels[x] for x in elems),
            [[L.leq(x, y) for y in elems] for x in elems],
            [[pos[L.join(x, y)] for y in elems] for x in elems],
            [[pos[L.meet(x, y)] for y in elems] for x in elems],
            pos[L.bottom], pos[L.top])


def meet_closed_table_by_meets(L, closed):
    """The closure of a meet-closed set: x goes to the meet of every member
    above it.  A set missing the top, or with two members whose meet
    escapes it (the first pair in ascending order), raises NotMeetClosed."""
    from quantales.errors import NotMeetClosed

    S = sorted(set(closed))
    present = set(S)
    if L.top not in present:
        raise NotMeetClosed("top (the empty meet) is missing")
    for a in S:
        for b in S:
            if L.meet(a, b) not in present:
                raise NotMeetClosed(
                    f"meet of {L.labels[a]!r} and {L.labels[b]!r} escapes the set")
    return tuple(L.meet_all(y for y in S if L.leq(x, y)) for x in range(L.n))


def powerset_by_subsets(items):
    """The lattice_tables of the powerset of items, element i the subset
    coded by the bits of i, from set operations on the labels."""
    k = len(items)
    labels = tuple(frozenset(items[b] for b in range(k) if code >> b & 1)
                   for code in range(1 << k))
    index = {x: i for i, x in enumerate(labels)}
    return (labels,
            [[x <= y for y in labels] for x in labels],
            [[index[x | y] for y in labels] for x in labels],
            [[index[x & y] for y in labels] for x in labels],
            index[frozenset()], index[frozenset(items)])


# --- sup-lattice tensor as a map space, for the representation tests ------

def tables(L):
    jn = [[L.join(x, y) for y in range(L.n)] for x in range(L.n)]
    mt = [[L.meet(x, y) for y in range(L.n)] for x in range(L.n)]
    return jn, mt


def irr_below(L, irr):
    return [[p for p, j in enumerate(irr) if L.leq(j, x)] for x in range(L.n)]


def join_reversing_maps(n, jn, mt, bottom, top):
    """All value tables with f(bottom) = top and f(x v y) = f(x) ^ f(y).

    By induction on the size of a join, the empty and binary cases force
    the condition for every finite join, so this is the full tensor
    carrier and uses nothing from the down-set encoding.
    """
    out = []
    for f in itertools.product(range(n), repeat=n):
        if f[bottom] != top:
            continue
        if all(f[jn[x][y]] == mt[f[x]][f[y]]
               for x in range(n) for y in range(n)):
            out.append(f)
    return out


def order_ideals(points, leq):
    'All down-closed subsets of a finite poset, grown one point at a time.'
    ideals = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for p in points:
            if p in base:
                continue
            if any(q not in base for q in points if q != p and leq(q, p)):
                continue
            grown = base | {p}
            if grown not in ideals:
                ideals.add(grown)
                frontier.append(grown)
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


# --- tensor pre-support of a product, by enumeration --------------------

def support_by_combinations(algebra, dia, bdia, elems):
    """The pre-support of a product of graded elements, from the
    definition: the join, over every combination of one tuple from each
    factor's components, of the pure-tensor recursion
    x0 ^ <w1>(x1 ^ ... <wk>(xk)) on the combined slots, where the last
    slot of one factor meets the first slot of the next.  Every tuple of
    a down-set is enumerated, not only the maximal ones.  A bottom factor
    gives bottom; otherwise the first combination, in product order,
    whose word exceeds the depth raises DepthExceeded.
    """
    from quantales.errors import DepthExceeded

    L = algebra.lattice
    decomps = []
    for e in elems:
        gens = [(w, tuple(algebra.irr[p] for p in t))
                for w, comp in e.parts for t in sorted(comp)]
        if not gens:
            return L.bottom
        decomps.append(gens)
    out = L.bottom
    for combo in itertools.product(*decomps):
        word = "".join(w for w, _ in combo)
        if len(word) > algebra.depth:
            raise DepthExceeded(
                f"product degree {word!r} exceeds depth {algebra.depth}")
        slots = combo[0][1] if combo else (L.top,)
        for _, more in combo[1:]:
            slots = slots[:-1] + (L.meet(slots[-1], more[0]),) + more[1:]
        cur = slots[-1]
        for i in range(len(word) - 1, -1, -1):
            cur = L.meet(slots[i], (dia if word[i] == "a" else bdia)[cur])
        out = L.join(out, cur)
    return out


# --- the tensor law suites, case by case ---------------------------------
# The reference for tensor._Suite.law, which decides each law once per class
# of interchangeable samples; patched in as _Suite.law, this runs every case
# of the law's grid on its own samples' tables.

def laws_by_cases(suite, name, cases, holds, describe):
    'One law over the rows of cases, sample indices, in order.'
    import numpy as np

    from quantales.errors import InternalValidationFailed
    from quantales.tensor import LawResult, _Factor
    suite.over = np.zeros(len(cases), dtype=bool)
    ok = holds(suite, *(_Factor(suite.tables, rows, suite.degrees[rows],
                                suite.live[rows], suite.inv_tables)
                        for rows in cases.T))
    bad = ~ok | suite.over
    if not bad.any():
        return LawResult(name, True)
    case = [suite.samples[i] for i in cases[int(np.argmax(bad))]]
    if holds(suite.elements, *case):
        raise InternalValidationFailed(
            f"law {name}: table and element folds disagree at "
            f"{describe(*case)}")
    return LawResult(name, False, describe(*case))


# --- the support locale and a point's diamonds, by products -------------
# The references for quantale.supports_locale and bimodal.diamonds_from_point,
# which read masks of the irreducibles below the unit and diamond tables.

def supports_locale_by_products(q):
    """The elements below the unit as a lattice of q's join and meet,
    after checking b b = b, b- = b and b c = b ^ c by products at every
    element and pair; SupportLocaleLawFails otherwise, or when the lattice
    is not a frame."""
    from quantales.errors import SupportLocaleLawFails
    from quantales.lattice import FiniteSupLattice
    from quantales.quantale import SupportLocale

    elems = tuple(q.support_elements())
    if not all(q.mul(b, c) == q.meet(b, c) and q.inv(b) == b
               for b in elems for c in elems):
        raise SupportLocaleLawFails("the elements below the unit are not "
                                    "a locale under the product")
    idx = {x: i for i, x in enumerate(elems)}
    join = [[idx[q.join(b, c)] for c in elems] for b in elems]
    meet = [[idx[q.meet(b, c)] for c in elems] for b in elems]
    leq = [[meet[i][k] == i for k in range(len(elems))]
           for i in range(len(elems))]
    lat = FiniteSupLattice(elems, leq, join, meet, idx[q.bottom], idx[q.unit])
    if not lat.is_frame():
        raise SupportLocaleLawFails("the elements below the unit are not a frame")
    return SupportLocale(lat)


def diamonds_by_products(q, alpha, loc):
    'The tables of x |-> s(alpha x) and x |-> s(alpha- x) on the locale loc.'
    return tuple([loc.from_q(q.support(q.mul(a, x))) for x in loc.q_elements]
                 for a in (alpha, q.inv(alpha)))


# --- right adjoints as joins over every element -------------------------
# The reference for lattice.right_adjoint, which joins irreducibles only.

def lattice_residual_by_joins(L, b, a):
    'The largest c with b ^ c <= a: the join of every such c.'
    return L.join_all(c for c in range(L.n) if L.leq(L.meet(b, c), a))


def box_adjoints_by_joins(L, dia, bdia):
    'box(y) joins every x with bdia(x) <= y; bbox(y) every x with dia(x) <= y.'
    return tuple(tuple(L.join_all(x for x in range(L.n) if L.leq(t[x], y))
                       for y in range(L.n)) for t in (bdia, dia))


def locale_residual_by_joins(q, a, b):
    'The Heyting residual a -> b: the join of every c <= e with a ^ c <= b.'
    return q.join_all(c for c in q.support_elements()
                      if q.leq(q.meet(a, c), b))


def locale_complement_by_joins(q, b):
    'The join of every x <= e disjoint from b, if it complements b; else None.'
    c = q.join_all(x for x in q.support_elements()
                   if q.meet(x, b) == q.bottom)
    if q.join(b, c) != q.unit or q.meet(b, c) != q.bottom:
        return None
    return c


def locale_box_by_joins(q, alpha, y):
    'The join of every x <= e with s(alpha- x) <= y.'
    ainv = q.inv(alpha)
    return q.join_all(x for x in q.support_elements()
                      if q.leq(q.support(q.mul(ainv, x)), y))


# --- join preservation, pair by pair -------------------------------------
# The reference for bimodal.join_preservation_witness, which accepts on the
# irreducible split.

def join_preservation_witness_by_pairs(L, t):
    'None, or (bottom, bottom) if f moves the bottom, else the first bad pair.'
    if t[L.bottom] != L.bottom:
        return (L.bottom, L.bottom)
    return next(((a, b) for a in range(L.n) for b in range(L.n)
                 if t[L.join(a, b)] != L.join(t[a], t[b])), None)


# --- the support laws of `axioms`, one scalar call at a time ---
# The reference for axioms.support_law_witnesses, which scans the same
# elements on lanes of relation codes.

SUPPORT_LAWS = (
    ("support-join", 2, lambda q, s, a, b: s(q.join(a, b)) != q.join(s(a), s(b))),
    ("support-unit", 1, lambda q, s, a: not q.leq(s(a), q.unit)),
    ("support-selfproduct", 1, lambda q, s, a: not q.leq(s(a), q.mul(a, q.inv(a)))),
    ("support-restores", 1, lambda q, s, a: not q.leq(a, q.mul(s(a), a))),
    ("support-stable", 2, lambda q, s, a, b: s(q.mul(a, b)) != s(q.mul(a, s(b)))),
)


def support_checks_by_scalars(q, alpha, through=None):
    """Each support law with its first failing witness, or None, over the
    elements `axioms` scans on a RelationQuantale or a GroupoidQuantale:
    every element when there are at most 512, else the bottom, the unit,
    the top and the point, then random codes from Random(0) up to 150
    elements; ascending, and every pair of them in itertools.product
    order.  through, a pair (r, image), decides each law in r at the
    images of the elements, as the lanes of a groupoid do with its
    regular representation, and still names the elements of q."""
    width = q.nw * q.nw if hasattr(q, "nw") else q.m
    if 2 ** width <= 512:
        elems = list(range(2 ** width))
    else:
        rng = random.Random(0)
        elems = {q.bottom, q.unit, q.top, alpha}
        while len(elems) < 150:
            elems.add(rng.getrandbits(width))
        elems = sorted(elems)
    r, image = through or (q, lambda a: a)
    of = {image(a): a for a in elems}
    tuples = {1: [(image(a),) for a in elems],
              2: list(itertools.product(map(image, elems), repeat=2))}
    s = r.support
    return [(name, next((tuple(of[x] for x in p) for p in tuples[arity]
                         if bad(r, s, *p)), None))
            for name, arity, bad in SUPPORT_LAWS]


# --- the support proof of make_quantale, law by law ---
# The reference for quantale._check_support, which runs the one support-law
# table on index grids.

def check_support_law_by_law(lattice, M, I, S, unit):
    'Support axioms and stability; raises SupportLawFails with the first witness.'
    import numpy as np

    from quantales.errors import SupportLawFails
    leq, J = lattice.leq_matrix, lattice.join_matrix
    ar = np.arange(lattice.n)

    def first(ok):
        return tuple(int(v) for v in np.argwhere(~ok)[0])

    bad = leq[S, unit]
    if not bad.all():
        raise SupportLawFails(f"sa <= e fails at a={first(bad)[0]}")
    aai = M[ar, I]
    bad = leq[S, aai]
    if not bad.all():
        raise SupportLawFails(f"sa <= a a- fails at a={first(bad)[0]}")
    saa = M[S, ar]
    bad = leq[ar, saa]
    if not bad.all():
        raise SupportLawFails(f"a <= (sa) a fails at a={first(bad)[0]}")
    if S[lattice.bottom] != lattice.bottom:
        raise SupportLawFails("s(bottom) != bottom")
    bad = S[J] == J[np.ix_(S, S)]
    if not bad.all():
        raise SupportLawFails(f"s(a v b) != sa v sb at {first(bad)}")
    bad = S[M] == S[M[:, S]]
    if not bad.all():
        raise SupportLawFails(f"s(a b) != s(a sb) at {first(bad)}")


# --- a groupoid quantale's tables, as unions of composites ---
# The reference for quantale.groupoid_quantale, which builds them by blocks.

def groupoid_tables_by_unions(G):
    """The product, involution and support tables of the powerset of G's
    arrows: a b is the union of the composites g h over g in a and h in b,
    so each composable (g, h) adds g h to every pair holding both."""
    import numpy as np

    m = len(G.arrows)
    n = 1 << m
    has = np.arange(n)[:, None] >> np.arange(m) & 1
    mul = np.zeros((n, n), dtype=np.int64)
    for (g, h), k in G.comp.items():
        mul |= np.outer(has[:, g], has[:, h]) << k
    inv = [sum(1 << G.inv[g] for g in range(m) if a >> g & 1) for a in range(n)]
    support = [sum({1 << G.identities[G.dom[g]] for g in range(m) if a >> g & 1})
               for a in range(n)]
    return mul, inv, support


# --- relation algebra on explicit pair sets, for cross-checking bitset code ---

def rel_compose(r, s):
    return frozenset((x, z) for x, y in r for y2, z in s if y == y2)

def rel_converse(r):
    return frozenset((y, x) for x, y in r)

def rel_diagonal(worlds):
    return frozenset((x, x) for x in worlds)

def rel_support(r):
    'Domain, placed on the diagonal.'
    return frozenset((x, x) for x, _ in r)

def rel_star(r, worlds):
    'Reflexive-transitive closure by naive iteration.'
    out = rel_diagonal(worlds)
    while True:
        nxt = out | rel_compose(out, r)
        if nxt == out:
            return out
        out = nxt


# --- pointwise Kripke semantics over world sets ---

def kripke_diamond(worlds, edges, phi):
    return frozenset(w for w in worlds if any((w, v) in edges for v in phi))

def kripke_box(worlds, edges, phi):
    return frozenset(w for w in worlds if all(v in phi for u, v in edges if u == w))


def ctl_ex(worlds, edges, phi):
    return kripke_diamond(worlds, edges, phi)


def ctl_ef(worlds, edges, phi):
    'Reachability: some path (of length >= 0) hits phi.'
    out = set(phi)
    while True:
        grown = out | {w for w in worlds if any((w, v) in edges for v in out)}
        if grown == out:
            return frozenset(out)
        out = grown


def ctl_eg(worlds, edges, phi):
    """Lasso search: a path that stays inside phi forever.

    On a finite graph that means a phi-path from w reaching a cycle whose
    states all lie in phi; found by DFS with an explicit stack of the
    current path.
    """
    phi = set(phi)

    def lasso_from(w):
        if w not in phi:
            return False
        path = []
        on_path = set()
        seen_dead = set()

        def dfswalk(u):
            if u in on_path:
                return True
            if u in seen_dead:
                return False
            path.append(u)
            on_path.add(u)
            for x, v in edges:
                if x == u and v in phi and dfswalk(v):
                    return True
            on_path.discard(u)
            path.pop()
            seen_dead.add(u)
            return False

        return dfswalk(w)

    return frozenset(w for w in worlds if lasso_from(w))


# --- pointwise formula evaluators (independent of the quantale route) -----

from quantales.formulas import (  # noqa: E402
    And, Atom, Box, Diamond, Implies, Not, Or, PAtom, PChoice, ProgDiamond,
    PSeq, PStar, PTest, Temporal,
)


def oracle_classical(worlds, edges, val, f):
    W = frozenset(worlds)
    def ev(g):
        if isinstance(g, Atom):
            return frozenset(val.get(g.name, ()))
        if isinstance(g, Not):
            return W - ev(g.sub)
        if isinstance(g, And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, Implies):
            return (W - ev(g.left)) | ev(g.right)
        if isinstance(g, Diamond):
            return kripke_diamond(W, edges, ev(g.sub))
        if isinstance(g, Box):
            return kripke_box(W, edges, ev(g.sub))
        raise TypeError(g)
    return ev(f)


def oracle_ctl(worlds, edges, val, f):
    W = frozenset(worlds)
    def ev(g):
        if isinstance(g, Atom):
            return frozenset(val.get(g.name, ()))
        if isinstance(g, Not):
            return W - ev(g.sub)
        if isinstance(g, And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, Implies):
            return (W - ev(g.left)) | ev(g.right)
        if isinstance(g, Temporal):
            if g.op == "AX":
                return ev(Not(Temporal("EX", Not(g.sub))))
            if g.op == "AG":
                return ev(Not(Temporal("EF", Not(g.sub))))
            if g.op == "AF":
                return ev(Not(Temporal("EG", Not(g.sub))))
            sub = ev(g.sub)
            if g.op == "EX":
                return ctl_ex(W, edges, sub)
            if g.op == "EF":
                return ctl_ef(W, edges, sub)
            return ctl_eg(W, edges, sub)
        raise TypeError(g)
    return ev(f)


def oracle_pdl(worlds, edges_by_name, val, f):
    W = frozenset(worlds)

    def evp(p):
        if isinstance(p, PAtom):
            return frozenset(edges_by_name.get(p.name, ()))
        if isinstance(p, PSeq):
            return rel_compose(evp(p.left), evp(p.right))
        if isinstance(p, PChoice):
            return evp(p.left) | evp(p.right)
        if isinstance(p, PStar):
            return rel_star(evp(p.sub), W)
        if isinstance(p, PTest):
            return frozenset((w, w) for w in ev(p.formula))
        raise TypeError(p)

    def ev(g):
        if isinstance(g, Atom):
            return frozenset(val.get(g.name, ()))
        if isinstance(g, Not):
            return W - ev(g.sub)
        if isinstance(g, And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, Implies):
            return (W - ev(g.left)) | ev(g.right)
        if isinstance(g, ProgDiamond):
            sub = ev(g.sub)
            return frozenset(w for w in W
                             if any((w, v) in evp(g.prog) for v in sub))
        raise TypeError(g)

    return ev(f)


# --- the recursive evaluator, one quantale operation per node --------------
# The reference for semantics.evaluate, which translates a formula once and
# runs it on bitmasks of the support locale's irreducibles.  This walks the
# tree for every model and reads every diamond as s(a v), every program
# through the relation algebra, and every residual, complement and box as
# lattice.right_adjoint.

from quantales.errors import NotComplemented  # noqa: E402
from quantales.formulas import MODE_NODES, Mode, to_text  # noqa: E402
from quantales.lattice import right_adjoint  # noqa: E402


def _ref_residual(q, a, b):
    'Heyting residual a -> b: the right adjoint of c |-> a ^ c below the unit.'
    return right_adjoint(q, q.support_irreducibles, lambda c: q.meet(a, c), b)


def star_by_powers(q, a):
    'Join of all finite powers of a, including the unit, one power a step.'
    out = q.unit
    while True:
        nxt = q.join(out, q.mul(out, a))
        if nxt == out:
            return out
        out = nxt


_REF_DUALS = {"AX": "EX", "AG": "EF", "AF": "EG"}


def _ref_abbreviation(f):
    'What a derived connective stands for outside intuitionistic mode.'
    if isinstance(f, And):
        return Not(Or(Not(f.left), Not(f.right)))
    if isinstance(f, Implies):
        return Or(Not(f.left), f.right)
    if isinstance(f, Box):
        return Not(Diamond(Not(f.sub)))
    return Not(Temporal(_REF_DUALS[f.op], Not(f.sub)))


def evaluate_by_recursion(model, f):
    'The value of f below the unit, read in the model\'s own mode.'
    q = model.quantale
    nodes = MODE_NODES[model.mode]
    heyting = model.mode is Mode.INTUITIONISTIC

    def ev(f):
        if not isinstance(f, nodes):
            raise TypeError(
                f"connective not available in {model.mode.value} mode: {f!r}")
        if isinstance(f, Atom):
            return model.atom_value(f.name)
        if isinstance(f, Or):
            return q.join(ev(f.left), ev(f.right))
        if isinstance(f, Diamond):
            return q.support(q.mul(model.alpha, ev(f.sub)))
        if isinstance(f, ProgDiamond):
            return q.support(q.mul(program_by_recursion(model, f.prog),
                                   ev(f.sub)))
        if isinstance(f, Not):
            v = ev(f.sub)
            c = _ref_residual(q, v, q.bottom)
            if heyting or q.join(v, c) == q.unit:
                return c
            raise NotComplemented(f"value of {to_text(f.sub)!r} has no "
                                  "complement below the unit", f.sub)
        if heyting:
            if isinstance(f, And):
                # conjunction is multiplication, which is meet below the unit
                return q.mul(ev(f.left), ev(f.right))
            if isinstance(f, Implies):
                return _ref_residual(q, ev(f.left), ev(f.right))
            # Box: the right adjoint of the diamond along the converse point
            ainv = q.inv(model.alpha)
            return right_adjoint(q, q.support_irreducibles,
                                 lambda x: q.support(q.mul(ainv, x)), ev(f.sub))
        if isinstance(f, Temporal) and f.op not in _REF_DUALS:
            v = ev(f.sub)
            if f.op == "EX":
                return q.support(q.mul(model.alpha, v))
            if f.op == "EF":
                return q.support(q.mul(star_by_powers(q, model.alpha), v))
            # EG: greatest fixed point of a |-> v ^ s(alpha a), from v downward
            cur = v
            while True:
                nxt = q.meet(v, q.support(q.mul(model.alpha, cur)))
                if nxt == cur:
                    return cur
                cur = nxt
        return ev(_ref_abbreviation(f))

    return ev(f)


def program_by_recursion(model, p):
    'The element of a program, through the relation algebra.'
    q = model.quantale
    if isinstance(p, PAtom):
        return model.program_value(p.name)
    if isinstance(p, PSeq):
        return q.mul(program_by_recursion(model, p.left),
                     program_by_recursion(model, p.right))
    if isinstance(p, PChoice):
        return q.join(program_by_recursion(model, p.left),
                      program_by_recursion(model, p.right))
    if isinstance(p, PStar):
        return star_by_powers(q, program_by_recursion(model, p.sub))
    if isinstance(p, PTest):
        return evaluate_by_recursion(model, p.formula)
    raise TypeError(f"not a program: {p!r}")


from quantales.formulas import atoms_of  # noqa: E402
from quantales.parsing import parse_formula  # noqa: E402
from quantales.relations import (  # noqa: E402
    MODAL_SYSTEMS, POINT_CONDITIONS, RelationQuantale, decode, pair_bit,
)
from quantales.semantics import PointedModel, validity_test  # noqa: E402


def sweep_by_codes(worlds, system, scheme):
    """The sweep command's report as (exit code, stdout), by the loop over
    every relation code of every world count, filtered by the system's
    conditions: each code of the class is its own model."""
    f = parse_formula(scheme, Mode.CLASSICAL)
    valid = validity_test(f, Mode.CLASSICAL)
    atoms = sorted(atoms_of(f))
    conditions = [POINT_CONDITIONS[c] for c in MODAL_SYSTEMS[system]]
    count = 0
    for n in range(1, worlds + 1):
        names = tuple(str(i) for i in range(n))
        q = RelationQuantale(names)
        diag = q.support_elements()
        for alpha in range(2 ** (n * n)):
            if not all(q.leq(lhs(q, alpha), alpha) for lhs in conditions):
                continue
            point = PointedModel(q, alpha, {}, Mode.CLASSICAL,
                                 world_atoms=names)
            for choice in itertools.product(diag, repeat=len(atoms)):
                if not valid(point.revalued(dict(zip(atoms, choice)))):
                    pairs = [f"({i},{j})" for i, j in sorted(decode(alpha, n))]
                    vals = [f"{a}={{%s}}" % ",".join(
                                str(i) for i in range(n)
                                if v & pair_bit(i, i, n))
                            for a, v in zip(atoms, choice)]
                    return 1, (f"INFO worlds={n} alpha={' '.join(pairs)} "
                               + " ".join(vals) + "\nSWEEP FAIL\n")
                count += 1
    return 0, f"SWEEP PASS models={count}\n"
