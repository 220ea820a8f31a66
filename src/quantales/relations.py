"""Binary relations on a finite world set, coded as bitmask integers,
and the Kripke side of the library on them, without numpy.

A relation R on n worlds is the integer whose bit i*n + j is set exactly
when (i, j) is in R.  Composition works a column at a time, one
multiplication of codes per world reached, so everything stays a few
machine-word operations even at n = 4 or 5.

On these codes sit RelationQuantale, the lazy quantale of all relations
on a world set, whose one-world diagonals are a Diagonals sequence made
on access; the diamond-table helpers require_support and
diamond_image and the mask view of the support locale, LocaleMasks, which
the evaluator and the point checks read; the frame conditions of the
modal systems (MODAL_SYSTEMS, POINT_CONDITIONS, system_pairs) with the
point flags (check_point_properties); and system_classes, the classes of
a system's points up to renaming the worlds, which `sweep` walks.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .errors import NoStableSupport, Record


def _bits(mask: int):
    'Indices of the set bits of mask, ascending.'
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_bit(i: int, j: int, n: int) -> int:
    return 1 << (i * n + j)


def encode(pairs, n: int) -> int:
    code = 0
    for i, j in pairs:
        code |= pair_bit(i, j, n)
    return code


def decode(code: int, n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in range(n) for j in range(n)
                     if code >> (i * n + j) & 1)


def row(code: int, i: int, n: int) -> int:
    'Successors of world i, as an n-bit mask.'
    return code >> (i * n) & ((1 << n) - 1)


_COLUMNS: dict[int, int] = {}   # n -> bit 0 of every row of n worlds


def compose(a: int, b: int, n: int) -> int:
    """The relation a;b, column by column of a: for every world j that a
    reaches, column j of a (bit 0 of each row i with (i, j) in a) times
    row j of b puts that row at each such i, with no carries, since a row
    has n bits.  Each row of b is read at most once per call."""
    mask = (1 << n) - 1
    column = _COLUMNS.get(n)
    if column is None:     # a big-int division, most of a call at n = 200
        column = _COLUMNS[n] = ((1 << n * n) - 1) // mask if n else 0
    used, rows = a, n           # fold a's rows onto its first: the columns
    while rows > 1:
        keep = rows - rows // 2
        used = used & ((1 << keep * n) - 1) | used >> keep * n
        rows = keep
    out = 0
    for j in _bits(used):
        out |= (a >> j & column) * (b >> j * n & mask)
    return out


def converse(a: int, n: int) -> int:
    out = 0
    for i in range(n):
        ra = row(a, i, n)
        while ra:
            low = ra & -ra
            out |= pair_bit(low.bit_length() - 1, i, n)
            ra ^= low
    return out


def diagonal(n: int) -> int:
    return encode(((i, i) for i in range(n)), n)


def full(n: int) -> int:
    return (1 << (n * n)) - 1


def support(a: int, n: int) -> int:
    'The domain of a, placed on the diagonal.'
    out = 0
    for i in range(n):
        if row(a, i, n):
            out |= pair_bit(i, i, n)
    return out


# --- the diamond tables ---------------------------------------------------

def require_support(q) -> None:
    'NoStableSupport unless q has a support, which every diamond reads.'
    if not q.has_support:
        raise NoStableSupport(
            "the quantale has no support table, so s(a v) is undefined")


def diamond_image(table: Sequence[int], mask: int) -> int:
    """The join of table[i] over the bits i of mask: <a>v from a's
    diamond_table, for the v whose irreducibles are the bits of mask.
    Exact for any set of irreducibles, since <a> preserves joins and a
    table of a monotone map gives the same join on the set's down-set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class LocaleMasks:
    """The support locale of q as masks over q.support_irreducibles, the
    one view every reader of the locale shares: below[i] is the mask of
    the i-th irreducible, full that of the unit.  Once check_locale_laws
    has passed, join is |, meet is & and the order is inclusion, and each
    down-set is the mask of one element (Birkhoff).  No product is taken."""

    def __init__(self, q):
        self.below = tuple(map(q.locale_mask, q.support_irreducibles))
        self.full = (1 << len(self.below)) - 1
        self.boolean = all(d == 1 << i for i, d in enumerate(self.below))

    @staticmethod
    def leq(a: int, b: int) -> bool:
        return not a & ~b

    @staticmethod
    def meet(a: int, b: int) -> int:
        return a & b

    def residual(self, a: int, b: int) -> int:
        'a -> b: the irreducibles whose down-sets meet a only inside b.'
        outside = a & ~b
        if self.boolean:
            return self.full & ~outside
        return sum(1 << i for i, d in enumerate(self.below)
                   if not d & outside)

    def complement(self, v: int):
        'The complement of v, or None: v -> bottom, if it joins v to the unit.'
        c = self.residual(v, 0)
        return c if v | c == self.full else None


# --- relation quantales ---------------------------------------------------

class Diagonals(Sequence):
    """The one-world diagonals on n worlds, the code 1 << w*(n+1) for
    world w, made on access: a tuple of them would hold n codes of n^2
    bits each.  Read-only, with a tuple's len, indexing, slicing and
    iteration; every pass iterates afresh."""

    __slots__ = ("_bits",)

    def __init__(self, n: int):
        self._bits = range(0, n * (n + 1), n + 1)

    def __len__(self):
        return len(self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(1 << b for b in self._bits[i])
        return 1 << self._bits[i]

    def __iter__(self):
        return (1 << b for b in self._bits)


class RelationQuantale:
    """Powerset-of-relations quantale computed lazily on bitmask codes.

    Elements are relation codes (ints); nothing is tabulated, so any world
    count works.  The operations mirror Quantale's surface exactly.
    """

    def __init__(self, worlds: Sequence):
        self.worlds = tuple(worlds)
        self.nw = len(self.worlds)
        self.unit = diagonal(self.nw)
        self.bottom = 0
        self.top = full(self.nw)
        self._supp_elems = None
        self.support_irreducibles = Diagonals(self.nw)
        self._code_format = f"0{self.nw * self.nw}b"

    def __repr__(self):
        return f"RelationQuantale(worlds={self.nw})"

    has_support = True

    def mul(self, a, b):
        return compose(a, b, self.nw)

    def inv(self, a):
        return converse(a, self.nw)

    def support(self, a):
        return support(a, self.nw)

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def leq(self, a, b):
        return a & ~b == 0

    def join_all(self, xs):
        out = 0
        for x in xs:
            out |= x
        return out

    def support_elements(self):
        'All subsets of the diagonal, ascending.'
        if self._supp_elems is None:
            n = self.nw
            self._supp_elems = tuple(sorted(
                encode(((i, i) for i in _bits(sub)), n)
                for sub in range(1 << n)))
        return self._supp_elems

    # A code's binary string, most significant bit first, has bit
    # w*n + x at position (n-1-w)*n + (n-1-x): slices with step n read
    # columns, slices of length n read rows, and step n+1 reads the
    # diagonal, each most significant world first.

    def locale_mask(self, v):
        'The worlds w whose diagonal pair (w, w) is in v, as an n-bit mask.'
        d = v & self.unit
        if not d & (d - 1):   # at most one, as in an irreducible: no format
            return d and 1 << (d.bit_length() - 1) // (self.nw + 1)
        return int(format(v, self._code_format)[::self.nw + 1], 2)

    def locale_element(self, mask):
        'The diagonal relation on the worlds of mask.'
        n = self.nw
        return int(("0" * n).join(format(mask, f"0{n}b")), 2)

    def diamond_table(self, a, converse=False):
        """At each world x, s(a d_x), the worlds w with (w, x) in a:
        column x of a; with converse, s(a- d_x), the a-successors of x:
        row x.  One pass over the code, without a product."""
        n = self.nw
        bits = format(a, self._code_format)
        if converse:
            return tuple(int(bits[(n - 1 - x) * n:(n - x) * n], 2)
                         for x in range(n))
        return tuple(int(bits[n - 1 - x::n], 2) for x in range(n))


# --- point flags ----------------------------------------------------------

class PointFlags(Record):
    __slots__ = _fields = ("reflexive", "transitive", "symmetric",
                           "total_support")


def check_point_properties(q, alpha: int) -> PointFlags:
    'Order-theoretic properties of a chosen point element.'
    holds = {c: q.leq(lhs(q, alpha), alpha)
             for c, lhs in POINT_CONDITIONS.items()}
    return PointFlags(**holds, total_support=q.support(alpha) == q.unit)


# --- modal systems --------------------------------------------------------

# The frame conditions of each modal system, in the order they are checked.
MODAL_SYSTEMS = {
    "T": ("reflexive",),
    "K4": ("transitive",),
    "S4": ("reflexive", "transitive"),
    "S5": ("reflexive", "transitive", "symmetric"),
}

# Each condition on a point alpha is one generating pair (y, alpha), held
# when y <= alpha; these give y.  alpha- <= alpha already forces
# alpha- = alpha, since the involution is an order automorphism.
POINT_CONDITIONS = {
    "reflexive": lambda q, alpha: q.unit,
    "transitive": lambda q, alpha: q.mul(alpha, alpha),
    "symmetric": lambda q, alpha: q.inv(alpha),
}


def system_pairs(q, alpha: int, system: str) -> list[tuple[int, int]]:
    'The generating pairs of a modal system at a point, for least_nucleus.'
    return [(POINT_CONDITIONS[c](q, alpha), alpha)
            for c in MODAL_SYSTEMS[system]]


def system_classes(worlds: int,
                   system: str) -> Iterator[list[tuple[int, int]]]:
    """For n = 1, ..., worlds in turn, each isomorphism class of the
    system's points on n worlds, once, as a list of (least code, orbit
    size) in ascending code order.  The orbit size, n!/|Aut|, is the
    number of relation codes in the class.

    The classes on n worlds grow from those on n - 1, the level yielded
    before them, so each level is grown once (isomorph-free
    generation: Read, "Every one a winner", 1978; McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).  Each way of adding world
    n - 1 to a representative is a candidate; a candidate is kept when it
    meets POINT_CONDITIONS, and kept candidates are merged by their least
    image under the n! renamings of the worlds.

    Every class is reached, since reflexive, transitive and symmetric
    relations each stay so when restricted to a subset of the worlds.  A
    point R of the class on n worlds, restricted to the worlds below
    n - 1, is a point of the class on n - 1 worlds, so a renaming s of
    those worlds takes it to a representative.  Then s, with n - 1 kept
    in place, takes R to a candidate grown from that representative.
    """
    conditions = [POINT_CONDITIONS[c] for c in MODAL_SYSTEMS[system]]
    classes = [(0, 1)]    # the one point on no worlds
    for n in range(1, worlds + 1):
        q = RelationQuantale(range(n))
        m = n - 1
        old = [(i, j) for i in range(m) for j in range(m)]
        # the pairs that world m adds: its row, then the rest of its column
        fresh = [(m, j) for j in range(n)] + [(i, m) for i in range(m)]
        # The image of a code under a renaming is the image of its old
        # pairs joined with the image of its fresh pairs, so the images of
        # every set of fresh pairs are tabulated once per renaming.  The
        # first renaming is the identity: its tables are the codes
        # themselves.
        renamings = list(itertools.permutations(range(n)))
        old_bits = [[pair_bit(s[i], s[j], n) for i, j in old]
                    for s in renamings]
        fresh_images = [_subset_joins([pair_bit(s[i], s[j], n)
                                       for i, j in fresh]) for s in renamings]
        orbits = {}
        for beta, _ in classes:
            pairs = [k for k in range(m * m) if beta >> k & 1]
            bases = [sum(bits[k] for k in pairs) for bits in old_bits]
            kept = [x for x, f in enumerate(fresh_images[0])
                    if all(q.leq(lhs(q, bases[0] | f), bases[0] | f)
                           for lhs in conditions)]
            # one tuple per kept candidate: its images under every renaming
            for images in zip(*([b | t[x] for x in kept]
                                for b, t in zip(bases, fresh_images))):
                least = min(images)
                if least not in orbits:
                    orbits[least] = len(set(images))
        classes = sorted(orbits.items())
        yield classes


def _subset_joins(bits: Sequence[int]) -> list[int]:
    'The join of each subset of bits, indexed by the subset as a mask.'
    out = [0]
    for b in bits:
        out += [x | b for x in out]
    return out
