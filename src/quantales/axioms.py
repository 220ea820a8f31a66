"""The laws `axioms` reports, without numpy.

The five support laws are written once, in _SUPPORT_LAWS:
quantale.make_quantale proves them on a table's index arrays, and
support_law_witnesses scans them on a RelationQuantale or a
GroupoidQuantale, as lanes of relation codes: over every element and
pair when the carrier has at most 512 elements, else over a seeded
sample.  A groupoid's elements enter the lanes through the right regular
representation phi, which is injective and preserves joins, products,
converses, supports and the unit; so a <= b iff phi(a) <= phi(b), and
each law holds at an element or pair exactly when it holds at its image
(the lemma and its proof are in the groupoids docstring).
check_locale_laws makes the elements below the unit a locale, and
check_point_diamonds decides the conjugacy of a point's two diamonds on
it, through conjugacy_witness_on_irreducibles, from the masks of
relations.LocaleMasks.

Lanes.  A stack of m relations on n worlds is n ints, its planes: plane
i holds row i of relation t in bits t*n ... t*n+n-1, the field of lane
t.  One relation is a one-lane stack.  A plane of any stack is one big
int, so each operation of the laws acts on every lane at once.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence
from functools import partial

from .errors import InternalValidationFailed, SupportLocaleLawFails
from .relations import (
    LocaleMasks,
    RelationQuantale,
    diamond_image,
    require_support,
    row,
)

# The five support laws, each written once as holds(o, a, sa[, b, sb]) over
# a vocabulary o: mul, inv, s, join, le, eq and the unit e.  sa and sb are
# the supports of a and b, computed once per element.  Beside each law are
# its name, its arity and the SupportLawFails message, which the witness
# fills in.  This is the order `axioms` reports them in.
_SUPPORT_LAWS = (
    ("support-join", 2,
     lambda o, a, sa, b, sb: o.eq(o.s(o.join(a, b)), o.join(sa, sb)),
     "s(a v b) != sa v sb at ({}, {})"),
    ("support-unit", 1, lambda o, a, sa: o.le(sa, o.e),
     "sa <= e fails at a={}"),
    ("support-selfproduct", 1,
     lambda o, a, sa: o.le(sa, o.mul(a, o.inv(a))),
     "sa <= a a- fails at a={}"),
    ("support-restores", 1, lambda o, a, sa: o.le(a, o.mul(sa, a)),
     "a <= (sa) a fails at a={}"),
    ("support-stable", 2,
     lambda o, a, sa, b, sb: o.eq(o.s(o.mul(a, b)), o.s(o.mul(a, sb))),
     "s(a b) != s(a sb) at ({}, {})"),
)


# --- the support laws on lanes --------------------------------------------

_EXHAUSTIVE_ELEMENTS = 512   # every element and pair of a carrier this size
_SAMPLE_ELEMENTS = 150       # else a sample of this many


# A stack of count relations, as its planes.
Lanes = namedtuple("Lanes", "count planes")


class LaneOps:
    """The vocabulary of _SUPPORT_LAWS on Lanes of relations on n worlds,
    for stacks of one or of m lanes.  le and eq give the mask of the
    lanes that pass: bit n-1 of each passing lane's field.

    The nonzero test of every field of a plane p at once is
    ((p & low) + low | p) & high, where low holds the n-1 low bits of
    each field and high its top bit: the sum carries into the top bit
    exactly when a low bit is set, and never past it."""

    def __init__(self, n: int, m: int):
        self.n = n
        self._fields = {c: _field_masks(n, c) for c in (1, m)}
        self.e = Lanes(1, tuple(1 << i for i in range(n)))

    def _nonzero(self, p: int, count: int) -> int:
        _, low, high = self._fields[count]
        return ((p & low) + low | p) & high

    def mul(self, x: Lanes, y: Lanes) -> Lanes:
        """Plane i of x y is the join of the planes j of y over the bits j
        of row i of x: one OR per pair (i, j) of x."""
        if x.count != 1:
            raise ValueError("the left factor of mul is one relation, "
                             f"not a stack of {x.count}")
        planes = y.planes
        out = []
        for r in x.planes:
            p = 0
            while r:
                low = r & -r
                p |= planes[low.bit_length() - 1]
                r ^= low
            out.append(p)
        return Lanes(y.count, tuple(out))

    def inv(self, x: Lanes) -> Lanes:
        'The converse of one relation: row i is its column i.'
        if x.count != 1:
            raise ValueError(f"inv takes one relation, not a stack of {x.count}")
        n = self.n
        # row n-1 first and bit n-1 first, so row k's bit i is at
        # (n-1-k)*n + n-1-i, and a slice with step n reads column i
        bits = "".join(format(p, f"0{n}b") for p in reversed(x.planes))
        return Lanes(1, tuple(int(bits[n - 1 - i::n], 2) for i in range(n)))

    def s(self, x: Lanes) -> Lanes:
        'The support: each nonzero row i, shifted onto bit i of its field.'
        last = self.n - 1
        return Lanes(x.count, tuple(self._nonzero(p, x.count) >> last - i
                                    for i, p in enumerate(x.planes)))

    def _aligned(self, x: Lanes, y: Lanes):
        """The planes of x and y and their lane count, a one-lane x
        broadcast to every lane of y, as a or sa meets the sample."""
        if x.count == y.count:
            return x.planes, y.planes, x.count
        if x.count != 1:
            raise ValueError(f"stacks of {x.count} and {y.count} lanes "
                             "do not align")
        ones = self._fields[y.count][0]
        return tuple(p * ones for p in x.planes), y.planes, y.count

    def join(self, x: Lanes, y: Lanes) -> Lanes:
        xs, ys, count = self._aligned(x, y)
        return Lanes(count, tuple(a | b for a, b in zip(xs, ys)))

    def le(self, x: Lanes, y: Lanes) -> int:
        xs, ys, count = self._aligned(x, y)
        d = 0
        for a, b in zip(xs, ys):
            d |= a & ~b
        return self._fields[count][2] & ~self._nonzero(d, count)

    def eq(self, x: Lanes, y: Lanes) -> int:
        xs, ys, count = self._aligned(x, y)
        d = 0
        for a, b in zip(xs, ys):
            d |= a ^ b
        return self._fields[count][2] & ~self._nonzero(d, count)

    def first_failure(self, passing: int, count: int):
        'The lowest of count lanes outside the mask passing, or None.'
        fails = self._fields[count][2] & ~passing
        return (fails & -fails).bit_length() // self.n - 1 if fails else None


def _field_masks(n: int, count: int):
    'Bit 0, the n-1 low bits and bit n-1 of each of count fields of n bits.'
    ones = ((1 << count * n) - 1) // ((1 << n) - 1) if n else 0
    return ones, ones * ((1 << n >> 1) - 1), ones << n >> 1


def _stack(relations: Sequence[Lanes], n: int) -> Lanes:
    'One-lane relations as one stack, relation t in lane t.'
    planes = [0] * n
    for t, x in enumerate(relations):
        for i, p in enumerate(x.planes):
            planes[i] |= p << t * n
    return Lanes(len(relations), tuple(planes))


def _lane_relations(q):
    """The world count of q's lanes, the bit width of its codes, and the
    map from an element to the relation code its lanes hold: the element
    itself for a RelationQuantale, its right regular representation for a
    GroupoidQuantale; None for a table Quantale."""
    if isinstance(q, RelationQuantale):
        return q.nw, q.nw * q.nw, None
    regular = getattr(q, "regular", None)
    return None if regular is None else (q.m, q.m, regular)


def support_law_witnesses(q, alpha):
    """Each support law with its first failing witness, or None, in the
    order `axioms` reports them.

    make_quantale proved all five over every element and pair of a table
    Quantale, so there every witness is None.  A RelationQuantale or a
    GroupoidQuantale runs them on every element, ascending, when its
    carrier has at most 512 elements (relations on 1 to 3 worlds,
    groupoids of up to 9 arrows), and else on a seeded sample: the
    bottom, the unit, the top and alpha, then codes from Random(0) up to
    150 elements, ascending; and on all pairs of them.  Every compared
    value is read off a product, converse or support computed on lanes
    (LaneOps) of relation codes: a groupoid's elements as their regular
    representations, which decide each law as the elements do.  A law on
    elements runs element by element; a law on pairs runs each first
    element, in order, against the one stack of them all, and the lowest
    failing lane is the second element.  So the witness, named by element
    codes, is the first in itertools.product order.  A Quantale without a
    support raises NoStableSupport."""
    relations = _lane_relations(q)
    if relations is None:
        require_support(q)
        return [(name, None) for name, *_ in _SUPPORT_LAWS]
    n, width, image = relations
    if 1 << width <= _EXHAUSTIVE_ELEMENTS:
        elems = range(1 << width)
    else:
        rng = random.Random(0)
        elems = {q.bottom, q.unit, q.top, alpha}
        while len(elems) < _SAMPLE_ELEMENTS:
            elems.add(rng.getrandbits(width))
        elems = sorted(elems)
    m = len(elems)
    o = LaneOps(n, m)
    codes = elems if image is None else map(image, elems)
    A = [Lanes(1, tuple(row(c, i, n) for i in range(n))) for c in codes]
    S = [o.s(a) for a in A]
    sample = (_stack(A, n), _stack(S, n))
    results = []
    for name, arity, holds, _ in _SUPPORT_LAWS:
        others, lanes = ((), 1) if arity == 1 else (sample, m)
        witness = None
        for a, sa, code in zip(A, S, elems):
            lane = o.first_failure(holds(o, a, sa, *others), lanes)
            if lane is not None:
                witness = (code,) if arity == 1 else (code, elems[lane])
                break
        results.append((name, witness))
    return results


# --- the support locale and the point's diamonds --------------------------

def check_locale_laws(q, elems: Sequence[int]) -> None:
    """b b = b and b- = b for every b of elems, and b c = b ^ c for every
    pair; the first failure raises SupportLocaleLawFails.

    The irreducibles below the unit, support_irreducibles, are enough in
    any quantale, with or without a support.  Each x below the unit is the
    join of the set J(x) of irreducibles below it, and the product
    preserves joins, so for x, y below the unit x y is the join of
    b c = b ^ c over J(x) x J(y), at most x ^ y, and at least the join of
    b b = b over J(x ^ y), which is x ^ y.  So the product is the meet
    below the unit, which makes it a frame, and b- = b on the irreducibles
    gives it everywhere, as the involution preserves joins.
    """
    for b in elems:
        if q.mul(b, b) != b:
            raise SupportLocaleLawFails(f"b b != b below the unit at {b}")
        if q.inv(b) != b:
            raise SupportLocaleLawFails(f"b- != b below the unit at {b}")
    for b in elems:
        for c in elems:
            if q.mul(b, c) != q.meet(b, c):
                raise SupportLocaleLawFails(
                    f"multiplication is not meet below the unit at {(b, c)}")


def conjugacy_witness_on_irreducibles(L, irreducibles, dia, bdia):
    """None when both conjugacy inequalities hold on every pair of
    join-irreducibles, else the first failure as (law, (x, y)).

    L is anything with join, meet and leq that is a frame, such as a
    FiniteSupLattice that is one, or the support locale of a
    RelationQuantale; dia and bdia are join-preserving maps on it, given
    as functions.  Lemma (Jonsson & Tarski, 1951): the forward inequality
    dia(x) ^ y <= dia(x ^ bdia(y)) holds for all x, y iff it holds for
    join-irreducible x and y.
    - In x, both sides preserve joins: the meet distributes over joins in
      a frame, and dia preserves them.
    - In y, the left side preserves joins and the right side is monotone,
      so the inequality at y1 and at y2 gives it at y1 v y2.
    - The bottom is trivial: at x or y bottom the left side is the bottom.
    Every element is the join of the irreducibles below it.  The backward
    inequality is the same with the maps swapped.  So k^2 cells decide
    what the scan over all n^2 pairs decides.
    """
    leq, meet = L.leq, L.meet
    for x in irreducibles:
        dx, bx = dia(x), bdia(x)
        for y in irreducibles:
            if not leq(meet(dx, y), dia(meet(x, bdia(y)))):
                return "forward", (x, y)
            if not leq(meet(bx, y), bdia(meet(x, dia(y)))):
                return "backward", (x, y)
    return None


def check_point_diamonds(q, alpha: int) -> None:
    """Raise unless the elements below the unit form a locale on which the
    point's two diamonds are conjugate.

    Nothing is tabulated, for a table Quantale or a RelationQuantale:
    check_locale_laws runs on support_irreducibles, which makes the locale
    a frame, then conjugacy_witness_on_irreducibles on their masks in
    relations.LocaleMasks, with the point's diamond tables extended by
    diamond_image.  The diamonds preserve joins, as the lemma needs,
    because the product and the support do: make_quantale proves it for a
    table, and the row-wise relations.compose and support give it for a
    RelationQuantale.  A locale law failure raises SupportLocaleLawFails;
    a conjugacy failure, a theorem broken, raises InternalValidationFailed
    naming the two irreducibles, and a Quantale without a support raises
    NoStableSupport.
    """
    dia, bdia = (partial(diamond_image, q.diamond_table(alpha, converse))
                 for converse in (False, True))
    check_locale_laws(q, q.support_irreducibles)
    view = LocaleMasks(q)
    failure = conjugacy_witness_on_irreducibles(view, view.below, dia, bdia)
    if failure is not None:
        law, (x, y) = failure
        witness = q.locale_element(x), q.locale_element(y)
        raise InternalValidationFailed(
            f"point diamonds not conjugate: {law} conjugacy fails at {witness}")
