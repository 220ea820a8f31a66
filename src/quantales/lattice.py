"""Finite complete lattices with precomputed join/meet tables.

Elements are integer indices into a label tuple.  The order, joins and
meets are stored once, at construction, as read-only numpy arrays; a
sub-lattice, such as the closed elements of a closure, is cut from its
parent's arrays by indexing.  Every object here is immutable after
validation.

Every stored table of element indices, here and in quantale, has the one
index type INDEX, int16, so a carrier has at most CARRIER_CAP = 2^15
elements; a larger one raises ValueError before any table is allocated.
A table from a caller enters through index_table, which reads its
entries at their own width and narrows them only once they are known to
be elements of the carrier.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    LawCheck,
    NotAClosureOperator,
    NotACongruence,
    NotAFrame,
    NotALattice,
    NotAPartialOrder,
    NotMeetClosed,
    Record,
)
from .relations import _bits


INDEX = np.int16
CARRIER_CAP = int(np.iinfo(INDEX).max) + 1


def carrier_size(n: int) -> int:
    'n, or ValueError when INDEX cannot index a carrier of n elements.'
    if n > CARRIER_CAP:
        raise ValueError(f"a carrier of {n} elements exceeds the "
                         f"{CARRIER_CAP} that {INDEX.__name__} tables index")
    return n


def frozen(table, dtype=INDEX) -> np.ndarray:
    'A read-only copy of table: the one stored form of every validated table.'
    out = np.array(table, dtype=dtype)
    out.flags.writeable = False
    return out


def index_table(table, n: int, message: str) -> np.ndarray:
    """table as an INDEX array, once every entry is known to be an integer
    in range(n); ValueError(message) otherwise.

    The entries are read at their own width, so a float or an integer past
    the range of INDEX is rejected before the narrowing could truncate or
    wrap it.  A bool array, which numpy would read as a mask, is rejected
    too, and an object array, of integers too wide for int64, is read one
    entry at a time through operator.index."""
    a = np.asarray(table)
    if a.size == 0:
        return a.astype(INDEX)
    if a.dtype == object:
        try:
            values = [operator.index(v) for v in a.flat]
        except TypeError:
            raise ValueError(message) from None
        if not all(0 <= v < n for v in values):
            raise ValueError(message)
        return np.array(values, dtype=INDEX).reshape(a.shape)
    if a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= n:
        raise ValueError(message)
    return a.astype(INDEX, copy=False)


def map_table(L: FiniteSupLattice, table) -> np.ndarray:
    'index_table of an endomap of the carrier of L, of shape (L.n,).'
    message = "table does not map the carrier into itself"
    t = index_table(table, L.n, message)
    if t.shape != (L.n,):
        raise ValueError(message)
    return t


class FiniteSupLattice:
    """A finite lattice, hence complete: all joins and meets exist.

    The order, join and meet are read-only arrays, copied at construction;
    the scalar methods read the same arrays and return Python values.  Do
    not call the constructor directly; use make_lattice or one of the
    shape helpers, which validate the order and realize the tables.
    """

    def __init__(self, labels, leq, join, meet, bottom, top):
        self.labels = tuple(labels)
        self.n = carrier_size(len(self.labels))
        self.leq_matrix = frozen(leq, bool)
        self.join_matrix = frozen(join)
        self.meet_matrix = frozen(meet)
        self.bottom = int(bottom)
        self.top = int(top)
        self._index = {x: i for i, x in enumerate(self.labels)}
        self._frame = None
        self._irr = None

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteSupLattice(n={self.n})"

    def index(self, label) -> int:
        return self._index[label]

    def label(self, i: int):
        return self.labels[i]

    def leq(self, a: int, b: int) -> bool:
        return self.leq_matrix.item(a, b)

    def join(self, a: int, b: int) -> int:
        return self.join_matrix.item(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.meet_matrix.item(a, b)

    def join_all(self, xs: Iterable[int]) -> int:
        out = self.bottom
        for x in xs:
            out = self.join_matrix.item(out, x)
        return out

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.top
        for x in xs:
            out = self.meet_matrix.item(out, x)
        return out

    def is_frame(self) -> bool:
        'Meet distributes over joins; with finiteness, binary joins suffice.'
        if self._frame is None:
            self._frame = self._frame_witness() is None
        return self._frame

    def _frame_witness(self):
        'The first (x, a, b) with x ^ (a v b) != (x ^ a) v (x ^ b), or None.'
        jn = self.join_matrix
        for x in range(self.n):
            mx = self.meet_matrix[x]
            holds = mx[jn] == jn[np.ix_(mx, mx)]
            if not holds.all():
                a, b = np.argwhere(~holds)[0]
                return x, int(a), int(b)
        return None

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements other than bottom that are not joins of strictly smaller
        ones.  A join of smaller elements that reaches x reaches it at one
        binary step, so x is reducible iff x = a v b with a, b < x."""
        if self._irr is None:
            jn, ar = self.join_matrix, np.arange(self.n)
            reducible = np.zeros(self.n, dtype=bool)
            reducible[jn[(jn != ar[:, None]) & (jn != ar)]] = True
            reducible[self.bottom] = True
            self._irr = tuple(np.flatnonzero(~reducible).tolist())
        return self._irr

    def residual(self, b: int, a: int) -> int:
        'Heyting residual: the largest c with b meet c <= a.  Frames only.'
        if not self.is_frame():
            raise NotAFrame("residuals need a frame; meet fails to distribute")
        return right_adjoint(self, self.join_irreducibles(),
                             self.meet_matrix[b].item, a)


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
    n = carrier_size(len(labels))
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
    leq = [[up[a] >> b & 1 for b in range(n)] for a in range(n)]
    return FiniteSupLattice(labels, leq, join_t, meet_t, bottom, top)


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
    n = carrier_size(1 << len(items))
    labels = tuple(frozenset(items[b] for b in _bits(code)) for code in range(n))
    a = np.arange(n, dtype=INDEX)[:, None]
    b = np.arange(n, dtype=INDEX)
    return FiniteSupLattice(labels, a & ~b == 0, a | b, a & b, 0, n - 1)


def chain_lattice(n: int) -> FiniteSupLattice:
    '0 < 1 < ... < n-1.'
    return make_lattice(range(n), [(i, j) for i in range(n) for j in range(i, n)])


def diamond_lattice() -> FiniteSupLattice:
    'Four elements: bottom, two incomparable middles, top.  A frame.'
    order = [("0", "0"), ("0", "a"), ("0", "b"), ("0", "1"),
             ("a", "a"), ("a", "1"), ("b", "b"), ("b", "1"), ("1", "1")]
    return make_lattice(["0", "a", "b", "1"], order)


CLOSURE_LAWS = ("increasing", "idempotent", "monotone")


def closure_law_check(L: FiniteSupLattice, table: Sequence[int]) -> LawCheck:
    """The closure laws at every element: the first a where one fails and
    the first law failing there, increasing (a <= j a), idempotent, then
    monotone at the first b >= a with j a not <= j b.  A table that does
    not map the carrier into itself raises ValueError."""
    t = map_table(L, table)
    leq = L.leq_matrix
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


class ClosureOperator(Record):
    """A monotone, increasing, idempotent endomap, stored as a value table.

    closure_law_check proves the laws once, at construction; a failure or
    a table of the wrong size raises NotAClosureOperator."""

    __slots__ = _fields = ("lattice", "table")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        table = tuple(self.table)
        if len(table) != self.lattice.n:
            raise NotAClosureOperator("table size does not match the carrier")
        t = map_table(self.lattice, table)
        object.__setattr__(self, "table", tuple(t.tolist()))
        check = closure_law_check(self.lattice, t)
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
    closure laws itself.  A member outside the carrier raises ValueError,
    and a set that is not meet-closed NotMeetClosed."""
    S = index_table(sorted(set(closed)), L.n,
                    "closed set has a member outside the carrier")
    present = np.zeros(L.n, dtype=bool)
    present[S] = True
    if not present[L.top]:
        raise NotMeetClosed("top (the empty meet) is missing")
    escapes = ~present[L.meet_matrix[np.ix_(S, S)]]
    if escapes.any():
        a, b = S[np.argwhere(escapes)[0]].tolist()
        raise NotMeetClosed(
            f"meet of {L.labels[a]!r} and {L.labels[b]!r} escapes the set")
    # the members above x are meet-closed, so their meet is the least of
    # them, which has strictly fewer elements below it than any other:
    # with S ordered by that count, it is the first member above x
    S = S[np.argsort(np.count_nonzero(L.leq_matrix[:, S], axis=0))]
    return tuple(S[np.argmax(L.leq_matrix[:, S], axis=1)].tolist())


def closed_positions(table: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The closed elements c of a closure table, ascending, and the array
    sending every element x to the index in c of its closure."""
    t = np.asarray(table)
    c = np.flatnonzero(t == np.arange(len(t)))
    index = np.zeros(len(t), dtype=INDEX)
    index[c] = np.arange(len(c))
    return c, index[t]


def closed_elements(L: FiniteSupLattice, j) -> FiniteSupLattice:
    """The lattice of j-closed elements: order inherited, joins closed by j.

    Meets agree with those of L (closed sets are meet-closed); the bottom is
    j(bottom of L).  Labels are carried over from L.  j is a ClosureOperator
    or a Nucleus: only its table is read, and the tables of L are cut to
    the closed elements by indexing.
    """
    c, pos = closed_positions(j.table)
    cut = np.ix_(c, c)
    return FiniteSupLattice([L.labels[x] for x in c.tolist()],
                            L.leq_matrix[cut], pos[L.join_matrix[cut]],
                            pos[L.meet_matrix[cut]], pos[L.bottom], pos[L.top])


class Congruence(Record):
    """An equivalence on the carrier closed under componentwise joins."""

    __slots__ = _fields = ("lattice", "pairs")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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
