"""Finite complete lattices with precomputed join/meet tables.

Elements are integer indices into a label tuple.  The order is stored as
bitmask rows (bit j of up[i] set iff i <= j), joins and meets are tabulated
once at construction, and every object here is immutable after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LawCheck,
    NotAClosureOperator,
    NotACongruence,
    NotAFrame,
    NotALattice,
    NotAPartialOrder,
    NotMeetClosed,
)


def _bits(mask: int):
    'Indices of the set bits of mask, ascending.'
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteSupLattice:
    """A finite lattice, hence complete: all joins and meets exist.

    Do not call the constructor directly; use make_lattice or one of the
    shape helpers, which validate the order and realize the tables.
    """

    def __init__(self, labels, up, down, join_t, meet_t, bottom, top):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self._up = tuple(up)
        self._down = tuple(down)
        self._join = tuple(tuple(row) for row in join_t)
        self._meet = tuple(tuple(row) for row in meet_t)
        self.bottom = bottom
        self.top = top
        self._index = {x: i for i, x in enumerate(self.labels)}
        self._frame = None
        self._irr = None
        self._leq = None

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteSupLattice(n={self.n})"

    @property
    def elements(self) -> range:
        return range(self.n)

    def index(self, label) -> int:
        return self._index[label]

    def label(self, i: int):
        return self.labels[i]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join_all(self, xs: Iterable[int]) -> int:
        out = self.bottom
        for x in xs:
            out = self._join[out][x]
        return out

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.top
        for x in xs:
            out = self._meet[out][x]
        return out

    def upset(self, a: int) -> int:
        'Bitmask of elements above a.'
        return self._up[a]

    def is_frame(self) -> bool:
        'Meet distributes over joins; with finiteness, binary joins suffice.'
        if self._frame is None:
            self._frame = self._frame_witness() is None
        return self._frame

    def _frame_witness(self):
        'The first (x, a, b) with x ^ (a v b) != (x ^ a) v (x ^ b), or None.'
        mt = np.asarray(self._meet, dtype=np.int64)
        jn = np.asarray(self._join, dtype=np.int64)
        for x in range(self.n):
            mx = mt[x]
            holds = mx[jn] == jn[np.ix_(mx, mx)]
            if not holds.all():
                a, b = np.argwhere(~holds)[0]
                return x, int(a), int(b)
        return None

    def join_irreducibles(self) -> tuple[int, ...]:
        'Elements other than bottom that are not joins of strictly smaller ones.'
        if self._irr is None:
            out = []
            for x in range(self.n):
                if x == self.bottom:
                    continue
                below = self.join_all(b for b in _bits(self._down[x]) if b != x)
                if below != x:
                    out.append(x)
            self._irr = tuple(out)
        return self._irr

    def residual(self, b: int, a: int) -> int:
        'Heyting residual: the largest c with b meet c <= a.  Frames only.'
        if not self.is_frame():
            raise NotAFrame("residuals need a frame; meet fails to distribute")
        return right_adjoint(self, self.join_irreducibles(), self._meet[b].__getitem__, a)


def right_adjoint(L, irreducibles: Iterable[int], f, y: int) -> int:
    """The largest x with f(x) <= y, for f preserving all joins on a
    join-closed down-set of L with these join-irreducibles: the join r of
    the j with f(j) <= y.  Proof: f(r) is the join of those f(j), so x <= r
    gives f(x) <= f(r) <= y; if f(x) <= y, every irreducible j <= x has
    f(j) <= y, and x is their join, so x <= r (Davey & Priestley, ch. 7)."""
    return L.join_all(j for j in irreducibles if L.leq(f(j), y))


def make_lattice(elements: Sequence, leq: Iterable[tuple]) -> FiniteSupLattice:
    """Build a lattice from labelled elements and an explicit order relation.

    leq must list every ordered pair including the diagonal.  Raises
    NotAPartialOrder or NotALattice with a witness in the message.
    """
    labels = tuple(elements)
    n = len(labels)
    if n == 0:
        raise NotALattice("empty carrier has no top or bottom")
    if len(set(labels)) != n:
        raise ValueError("duplicate element labels")
    index = {x: i for i, x in enumerate(labels)}
    up = [0] * n
    for x, y in leq:
        if x not in index or y not in index:
            raise ValueError(f"order pair ({x!r}, {y!r}) mentions an unknown element")
        up[index[x]] |= 1 << index[y]
    for i in range(n):
        if not up[i] >> i & 1:
            raise NotAPartialOrder(f"not reflexive at {labels[i]!r}")
    for i in range(n):
        for j in _bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise NotAPartialOrder(f"not antisymmetric on {labels[i]!r}, {labels[j]!r}")
            if up[j] & ~up[i]:
                raise NotAPartialOrder(
                    f"not transitive at {labels[i]!r} <= {labels[j]!r}")
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    return _from_order(labels, up, down)


def _from_order(labels, up, down) -> FiniteSupLattice:
    'Realize join/meet tables from a validated order, or fail as NotALattice.'
    n = len(labels)
    join_t = [[0] * n for _ in range(n)]
    meet_t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            join_t[a][b] = join_t[b][a] = _extremum(labels, up, up[a] & up[b], a, b, "upper")
            meet_t[a][b] = meet_t[b][a] = _extremum(labels, down, down[a] & down[b], a, b, "lower")
    full = (1 << n) - 1
    bottom = next(i for i in range(n) if up[i] == full)
    top = next(i for i in range(n) if down[i] == full)
    return FiniteSupLattice(labels, up, down, join_t, meet_t, bottom, top)


def _extremum(labels, toward, bounds, a, b, kind):
    # The least upper (greatest lower) bound is the unique bound whose
    # up-mask (down-mask) swallows every other bound.
    if bounds == 0:
        raise NotALattice(f"{labels[a]!r}, {labels[b]!r} have no common {kind} bound")
    for m in _bits(bounds):
        if bounds & ~toward[m] == 0:
            return m
    raise NotALattice(f"{labels[a]!r}, {labels[b]!r} have no least common {kind} bound")


def powerset_lattice(items: Sequence) -> FiniteSupLattice:
    'Powerset of items under inclusion; element i is the subset coded by bits of i.'
    items = tuple(items)
    k = len(items)
    n = 1 << k
    labels = tuple(frozenset(items[b] for b in _bits(code)) for code in range(n))
    up = [0] * n
    for a in range(n):
        mask = 0
        for b in range(n):
            if a & ~b == 0:
                mask |= 1 << b
        up[a] = mask
    down = [0] * n
    for a in range(n):
        for b in _bits(up[a]):
            down[b] |= 1 << a
    join_t = [[a | b for b in range(n)] for a in range(n)]
    meet_t = [[a & b for b in range(n)] for a in range(n)]
    return FiniteSupLattice(labels, up, down, join_t, meet_t, 0, n - 1)


def chain_lattice(n: int) -> FiniteSupLattice:
    '0 < 1 < ... < n-1.'
    return make_lattice(range(n), [(i, j) for i in range(n) for j in range(i, n)])


def diamond_lattice() -> FiniteSupLattice:
    'Four elements: bottom, two incomparable middles, top.  A frame.'
    order = [("0", "0"), ("0", "a"), ("0", "b"), ("0", "1"),
             ("a", "a"), ("a", "1"), ("b", "b"), ("b", "1"), ("1", "1")]
    return make_lattice(["0", "a", "b", "1"], order)


def _leq_matrix(L: FiniteSupLattice) -> np.ndarray:
    'The order as a read-only boolean matrix, built once per lattice.'
    if L._leq is None:
        out = np.zeros((L.n, L.n), dtype=bool)
        for a in range(L.n):
            out[a, list(_bits(L.upset(a)))] = True
        out.flags.writeable = False
        L._leq = out
    return L._leq


CLOSURE_LAWS = ("increasing", "idempotent", "monotone")


def closure_law_check(L: FiniteSupLattice, table: Sequence[int]) -> LawCheck:
    """The closure laws at every element: the first a where one fails and
    the first law failing there, increasing (a <= j a), idempotent, then
    monotone at the first b >= a with j a not <= j b.  A table that does
    not map the carrier into itself raises ValueError."""
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (L.n,) or ((t < 0) | (t >= L.n)).any():
        raise ValueError("table does not map the carrier into itself")
    leq = _leq_matrix(L)
    increasing = leq[np.arange(L.n), t]
    idempotent = t[t] == t
    monotone = ~leq | leq[np.ix_(t, t)]
    bad = ~(increasing & idempotent & monotone.all(axis=1))
    if not bad.any():
        return LawCheck(True)
    a = int(np.argmax(bad))
    if not increasing[a]:
        return LawCheck(False, "increasing", (a,))
    if not idempotent[a]:
        return LawCheck(False, "idempotent", (a,))
    return LawCheck(False, "monotone", (a, int(np.argmin(monotone[a]))))


def closure_failure(L: FiniteSupLattice, check: LawCheck) -> NotAClosureOperator:
    'The exception for a failed closure law, naming its witness by label.'
    a, *b = (repr(L.labels[x]) for x in check.witness)
    return NotAClosureOperator(
        f"not monotone on {a} <= {b[0]}" if b else f"not {check.law} at {a}")


@dataclass(frozen=True)
class ClosureOperator:
    """A monotone, increasing, idempotent endomap, stored as a value table.

    closure_law_check proves the laws once, at construction; a failure or
    a table of the wrong size raises NotAClosureOperator."""

    lattice: FiniteSupLattice
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.lattice.n:
            raise NotAClosureOperator("table size does not match the carrier")
        check = closure_law_check(self.lattice, self.table)
        if not check:
            raise closure_failure(self.lattice, check)

    def __call__(self, a: int) -> int:
        return self.table[a]

    def closed(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.lattice.n) if self.table[a] == a)


def closure_from_meet_closed(L: FiniteSupLattice, closed: Iterable[int]) -> ClosureOperator:
    'The closure sending x to the least member of the meet-closed set above x.'
    return ClosureOperator(L, meet_closed_closure_table(L, closed))


def meet_closed_closure_table(L: FiniteSupLattice, closed: Iterable[int]) -> tuple[int, ...]:
    """The table of closure_from_meet_closed, for a caller that proves the
    closure laws itself; a set that is not meet-closed raises NotMeetClosed."""
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


def _sublattice(elems, labels, leq, join, meet, pos, bottom, top) -> FiniteSupLattice:
    """The lattice on elems under leq, with the tables pos[join(x, y)] and
    pos[meet(x, y)]; pos sends every element a join or meet of members
    can reach to the index of the member it stands for."""
    m = len(elems)
    up = [0] * m
    down = [0] * m
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            if leq(x, y):
                up[a] |= 1 << b
                down[b] |= 1 << a
    join_t = [[pos[join(x, y)] for y in elems] for x in elems]
    meet_t = [[pos[meet(x, y)] for y in elems] for x in elems]
    return FiniteSupLattice(labels, up, down, join_t, meet_t, pos[bottom], pos[top])


def closed_elements(L: FiniteSupLattice, j) -> FiniteSupLattice:
    """The lattice of j-closed elements: order inherited, joins closed by j.

    Meets agree with those of L (closed sets are meet-closed); the bottom is
    j(bottom of L).  Labels are carried over from L.  j is a ClosureOperator
    or a Nucleus: only its table and closed() are read.
    """
    elems = j.closed()
    idx = {x: k for k, x in enumerate(elems)}
    # the index of j(x) for every x, so a join is closed by one lookup
    pos = [idx[c] for c in j.table]
    return _sublattice(elems, tuple(L.labels[x] for x in elems),
                       L.leq, L.join, L.meet, pos, L.bottom, L.top)


@dataclass(frozen=True)
class Congruence:
    """An equivalence on the carrier closed under componentwise joins."""

    lattice: FiniteSupLattice
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        L, th = self.lattice, self.pairs
        for a in range(L.n):
            if (a, a) not in th:
                raise NotACongruence(f"not reflexive at {L.labels[a]!r}")
        for a, b in th:
            if (b, a) not in th:
                raise NotACongruence(f"not symmetric on {(a, b)}")
        related = {}
        for a, b in th:
            related.setdefault(a, set()).add(b)
        for a, b in th:
            if not related[b] <= related[a]:
                raise NotACongruence(f"not transitive through {(a, b)}")
        for a, b in th:
            for c, d in th:
                if (L.join(a, c), L.join(b, d)) not in th:
                    raise NotACongruence(
                        f"join of classes escapes: {(a, b)} with {(c, d)}")

    def cls(self, a: int) -> frozenset[int]:
        return frozenset(b for x, b in self.pairs if x == a)


def closure_from_congruence(L: FiniteSupLattice, theta: Congruence) -> ClosureOperator:
    'j(x) = join of the congruence class of x.'
    table = [L.join_all(theta.cls(a)) for a in range(L.n)]
    return ClosureOperator(L, tuple(table))


def congruence_from_closure(L: FiniteSupLattice, j: ClosureOperator) -> Congruence:
    'x ~ y iff j(x) = j(y).'
    pairs = frozenset((a, b) for a in range(L.n) for b in range(L.n) if j(a) == j(b))
    return Congruence(L, pairs)
