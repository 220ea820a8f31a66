"""Unital involutive quantales on finite lattices, with optional supports.

Table-backed quantales validate every law exactly at construction.  On a
distributive carrier, which every powerset quantale has, associativity
and distributivity are decided on the join-irreducibles in O(n^2); any
other carrier, and any table that fails, goes through the exhaustive loop
over all triples, which names the first failure.  RelationQuantale, in
relations, and GroupoidQuantale, in groupoids, are the lazy
counterparts, computing the same operations on bitmask codes directly,
without numpy; every command on a model document but `quotient` runs
on them.  The five support laws, axioms._SUPPORT_LAWS, are written
once: make_quantale proves them here on a table's index arrays, and
axioms.support_law_witnesses scans them on lanes of a lazy quantale's
relation codes, without numpy.

All kinds share one view of the support locale as bitmasks over its
join-irreducibles, support_irreducibles: locale_mask and locale_element
convert an element below the unit to and from the mask of the
irreducibles below it, and relations.LocaleMasks holds the masks of the
irreducibles; supports_locale tabulates that view.  diamond_table(a)
stores the join-preserving map v |-> s(a v) by its values at those
irreducibles, the one diamond construction (relations.diamond_image
extends it to any mask).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .axioms import _SUPPORT_LAWS, check_locale_laws
from .errors import (
    NoStableSupport,
    NotAssociative,
    NotDistributive,
    NotInvolutive,
    Record,
    SupportLawFails,
    SupportLocaleLawFails,
    UnitLawFails,
)
# the groupoids live, without numpy, in groupoids; re-exported here
from .groupoids import FiniteGroupoid, group_groupoid, pair_groupoid
from .lattice import (INDEX, FiniteSupLattice, frozen, index_table,
                      powerset_lattice)
from .relations import LocaleMasks, require_support


class Quantale:
    """Explicit multiplication/involution tables over a FiniteSupLattice.

    The tables are read-only arrays of lattice.INDEX, copied at
    construction: mul_matrix, inv_vector and, when present, support_vector,
    which has passed all the support axioms and the stability equation.
    Use make_quantale (or with_derived_support) to construct.
    """

    def __init__(self, lattice, mul, inv, unit, support):
        self.lattice = lattice
        self.n = lattice.n
        self.mul_matrix = frozen(mul)
        self.inv_vector = frozen(inv)
        self.unit = int(unit)
        self.support_vector = None if support is None else frozen(support)
        self.bottom = lattice.bottom
        self.top = lattice.top
        self._supp_elems = None
        self.support_irreducibles = tuple(
            j for j in lattice.join_irreducibles() if lattice.leq(j, unit))

    def __repr__(self):
        return f"Quantale(n={self.n}, supported={self.has_support})"

    @property
    def has_support(self) -> bool:
        return self.support_vector is not None

    def mul(self, a: int, b: int) -> int:
        return self.mul_matrix.item(a, b)

    def inv(self, a: int) -> int:
        return self.inv_vector.item(a)

    def support(self, a: int) -> int:
        return self.support_vector.item(a)

    def join(self, a: int, b: int) -> int:
        return self.lattice.join(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.lattice.meet(a, b)

    def leq(self, a: int, b: int) -> bool:
        return self.lattice.leq(a, b)

    def join_all(self, xs: Iterable[int]) -> int:
        return self.lattice.join_all(xs)

    def support_elements(self) -> tuple[int, ...]:
        'Elements below the unit, ascending.'
        if self._supp_elems is None:
            self._supp_elems = tuple(
                np.flatnonzero(self.lattice.leq_matrix[:, self.unit]).tolist())
        return self._supp_elems

    @cached_property
    def _locale_masks(self) -> tuple[int, ...]:
        'locale_mask of every element, read off the order matrix.'
        masks = [0] * self.n
        for i, j in enumerate(self.support_irreducibles):
            for x in np.flatnonzero(self.lattice.leq_matrix[j]).tolist():
                masks[x] |= 1 << i
        return tuple(masks)

    @cached_property
    def _locale_elements(self) -> dict:
        return {self._locale_masks[x]: x for x in self.support_elements()}

    def locale_mask(self, v: int) -> int:
        'Bit i set when support_irreducibles[i] <= v.'
        return self._locale_masks[v]

    def locale_element(self, mask: int) -> int:
        """The element below the unit whose locale_mask is mask, a down-set
        of the irreducibles: the support locale is distributive, so each
        down-set is the mask of exactly one element (Birkhoff)."""
        return self._locale_elements[mask]

    def diamond_table(self, a: int, converse: bool = False) -> tuple[int, ...]:
        'locale_mask of s(a j), or of s(a- j), at each support irreducible j.'
        require_support(self)
        if converse:
            a = self.inv(a)
        values = self.support_vector[
            self.mul_matrix[a, list(self.support_irreducibles)]]
        return tuple(self._locale_masks[x] for x in values.tolist())


def _first(mask: np.ndarray):
    'Index tuple of the first failure in a boolean condition array.'
    return tuple(int(v) for v in np.argwhere(~mask)[0])


def make_quantale(lattice: FiniteSupLattice, mul: Sequence[Sequence[int]],
                  inv: Sequence[int], unit: int,
                  support: Sequence[int] | None = None) -> Quantale:
    """Validate every quantale law exactly and return the instance.

    Checks, in order: that every table entry and the unit are integers in
    the carrier (index_table, which reads them before narrowing), the
    preservation of the bottom, associativity, distribution over binary
    joins on both sides (enough, by finiteness, for all nonempty joins),
    unit laws, involution laws, and, when a support table is supplied, the
    support axioms plus stability.

    Associativity and distributivity are decided on the k join-irreducibles
    when the carrier is distributive, in O(n^2 + k^3) steps
    (_laws_hold_on_irreducibles).  That path only ever accepts: when it
    finds a failure, or the carrier is not distributive, the exhaustive
    loop over every triple (_check_laws_exhaustively) runs and raises with
    its first witness.
    """
    n = lattice.n
    M, I, S = (None if table is None else index_table(
                   table, n, f"{name} table has an entry outside the carrier")
               for name, table in (("multiplication", mul),
                                   ("involution", inv), ("support", support)))
    if M.shape != (n, n) or I.shape != (n,):
        raise ValueError("table shapes do not match the carrier")
    if S is not None and S.shape != (n,):
        raise ValueError("support table shape does not match the carrier")
    unit = index_table(unit, n, "unit index out of range")
    if unit.ndim:
        raise ValueError("unit index out of range")
    unit = int(unit)
    J = lattice.join_matrix
    bot = lattice.bottom
    ar = np.arange(n)

    if not (M[bot] == bot).all() or not (M[:, bot] == bot).all():
        raise NotDistributive("multiplication does not preserve the empty join")
    if not _laws_hold_on_irreducibles(lattice, M, J):
        _check_laws_exhaustively(M, J)
    if not (M[unit] == ar).all() or not (M[:, unit] == ar).all():
        a = int(np.argmax(M[unit] != ar)) if (M[unit] != ar).any() \
            else int(np.argmax(M[:, unit] != ar))
        raise UnitLawFails(f"unit law fails at element {a}")
    if not (I[I] == ar).all():
        raise NotInvolutive(f"a-- != a at {_first(I[I] == ar)}")
    anti = M[np.ix_(I, I)].T
    if not (I[M] == anti).all():
        raise NotInvolutive(f"(a b)- != b- a- at {_first(I[M] == anti)}")
    if not (I[J] == J[np.ix_(I, I)]).all():
        raise NotInvolutive(
            f"(a v b)- != a- v b- at {_first(I[J] == J[np.ix_(I, I)])}")
    if I[bot] != bot:
        raise NotInvolutive("bottom- != bottom")

    if S is not None:
        _check_support(lattice, M, I, S, unit)
    return Quantale(lattice, M, I, unit, S)


def _check_laws_exhaustively(M, J):
    'Associativity and both distributive laws on every triple, or the first failure.'
    n = len(M)
    for a in range(n):
        left = M[M[a]]
        right = M[a][M]
        if not (left == right).all():
            b, c = _first(left == right)
            raise NotAssociative(f"(a b) c != a (b c) at {(a, b, c)}")
        la = J[np.ix_(M[a], M[a])]
        if not (M[a][J] == la).all():
            b, c = _first(M[a][J] == la)
            raise NotDistributive(f"a (b v c) != a b v a c at {(a, b, c)}")
        Ma = M[:, a]
        ra = J[np.ix_(Ma, Ma)]
        if not (Ma[J] == ra).all():
            b, c = _first(Ma[J] == ra)
            raise NotDistributive(f"(b v c) a != b a v c a at {(b, c, a)}")


def _irreducible_ranks(lattice, J):
    """The join-irreducibles, the order matrix and c[x] = |J(x)|, or None
    when the carrier is not distributive.

    J(x) is the set of irreducibles below x.  In every finite lattice
    J(x ^ y) = J(x) & J(y) and J(x v y) contains J(x) | J(y), so the count
    identity c[x v y] = c[x] + c[y] - c[x ^ y] holds exactly when
    J(x v y) = J(x) | J(y).  That holds for all x, y iff x -> J(x), which
    is injective since x is the join of J(x), embeds the carrier in the
    powerset of its irreducibles, that is iff the carrier is distributive
    (Birkhoff).  O(n^2), where is_frame is O(n^3).

    The arithmetic stays in INDEX without overflow: c counts at most n - 1
    irreducibles, and the identity is tested as c[x v y] - c[x] = c[y] -
    c[x ^ y], whose sides lie in 0..n-1 since J(x) is inside J(x v y) and
    J(x ^ y) inside J(y).
    """
    irr = np.asarray(lattice.join_irreducibles(), dtype=INDEX)
    leq = lattice.leq_matrix
    c = leq[irr].sum(axis=0, dtype=INDEX)
    if not (c[J] - c[:, None] == c - c[lattice.meet_matrix]).all():
        return None
    return irr, leq, c


def irreducible_split(lattice):
    """The join-irreducibles irr and, for the elements xs other than the
    bottom, the split x = j_x v r_x; None when the carrier is not
    distributive.

    j_x is an irreducible below x of largest c (so j_x is maximal in J(x),
    and j_x = x when x is irreducible), and r_x is the join of the other
    irreducibles below x.

    Split lemma.  Let f map the carrier to itself with f(bottom) = bottom,
    and suppose f(x) = f(j_x) v f(r_x) for every x != bottom.  Induction
    on c[x] shows f(x) = g(x), the join of f(j) over j in J(x).
    Irreducibles are join-prime in a distributive lattice, and j_x is
    maximal in J(x), so J(r_x) = J(x) - {j_x} and c[r_x] = c[x] - 1;
    by induction f(r_x) is the join of f over J(x) - {j_x}.  If x is
    irreducible, j_x = x and the split reads f(x) >= f(r_x), so f(x) =
    g(x).  Otherwise c[j_x] < c[x] and J(j_x) is inside J(x), so f(x) =
    g(j_x) v f(r_x) = g(x).  Then J(x v y) = J(x) | J(y) gives f(x v y) =
    g(x) v g(y) = f(x) v f(y).  The converse is immediate, so f preserves
    joins exactly when the split holds at every x != bottom: n tests, not
    n^2.  For an irreducible x the split is monotonicity across its one
    lower cover r_x, which replaces a test over covering pairs of
    irreducibles.
    """
    J = lattice.join_matrix
    ranks = _irreducible_ranks(lattice, J)
    if ranks is None:
        return None
    irr, leq, c = ranks
    bot = lattice.bottom
    jx = np.full(lattice.n, bot, dtype=INDEX)
    rx = jx.copy()
    # visiting irreducibles by increasing c leaves jx at the last, largest
    # one below x and joins every earlier one into rx
    for j in irr[np.argsort(c[irr], kind="stable")]:
        above = leq[j]
        rx = np.where(above, J[rx, jx], rx)
        jx = np.where(above, j, jx)
    xs = np.flatnonzero(np.arange(lattice.n) != bot)
    return irr, xs, jx[xs], rx[xs]


def _laws_hold_on_irreducibles(lattice, M, J) -> bool:
    """True only if associativity and both distributive laws hold; exact
    on distributive carriers, always False on the others.

    Distributivity.  M is known to preserve the bottom on both sides, so
    by the split lemma of irreducible_split, a row or a column f of M
    preserves joins exactly when f(x) = f(j_x) v f(r_x) for every x !=
    bottom.  So the split test over all rows and columns is exactly the
    two distributive laws.

    Associativity.  Once both sides preserve joins, bottom included,
    (a b) c and a (b c) preserve joins in each argument, and every element
    is the join of the irreducibles below it, so equality on irreducible
    triples is equality everywhere.
    """
    split = irreducible_split(lattice)
    if split is None:
        return False
    irr, xs, jx, rx = split
    if not (M[:, xs] == J[M[:, jx], M[:, rx]]).all():
        return False
    if not (M[xs] == J[M[jx], M[rx]]).all():
        return False
    bc = M[np.ix_(irr, irr)]
    for a in irr:
        if not (M[np.ix_(M[a, irr], irr)] == M[a][bc]).all():
            return False
    return True


def _check_support(lattice, M, I, S, unit):
    """The support laws at every element and every pair of a table, as
    index arrays; raises SupportLawFails with the first witness.

    The laws on elements run first, then the laws on pairs.  s(bottom) =
    bottom needs no check of its own: make_quantale has checked that the
    product and the involution keep the bottom, so support-selfproduct at
    a = bottom already forces s(bottom) <= bottom . bottom- = bottom, and
    derive_support only runs on a quantale make_quantale validated.
    """
    leq, J = lattice.leq_matrix, lattice.join_matrix
    ar = np.arange(lattice.n)
    o = SimpleNamespace(mul=lambda a, b: M[a, b], inv=I.__getitem__,
                        s=S.__getitem__, join=lambda a, b: J[a, b],
                        le=lambda a, b: leq[a, b], eq=np.equal, e=unit)
    grids = {1: (ar, S), 2: (ar[:, None], S[:, None], ar[None, :], S[None, :])}
    for _, arity, holds, message in sorted(_SUPPORT_LAWS, key=lambda law: law[1]):
        ok = holds(o, *grids[arity])
        if not ok.all():
            raise SupportLawFails(message.format(*_first(ok)))


def derive_support(q: Quantale) -> tuple[int, ...]:
    """Candidate support e ^ (a a-), validated before being returned.

    The formula is only a candidate; when any axiom or stability fails the
    quantale has no stable support of this shape and NoStableSupport is
    raised with the offending law.
    """
    M, I = q.mul_matrix, q.inv_vector
    S = q.lattice.meet_matrix[q.unit, M[np.arange(q.n), I]]
    try:
        _check_support(q.lattice, M, I, S, q.unit)
    except SupportLawFails as exc:
        raise NoStableSupport(str(exc)) from None
    return tuple(S.tolist())


def with_derived_support(q: Quantale) -> Quantale:
    """q with the support of derive_support, which has just proved the
    support laws against q's validated tables; nothing is proved again."""
    return Quantale(q.lattice, q.mul_matrix, q.inv_vector, q.unit,
                    derive_support(q))


def relation_quantale(worlds: Sequence) -> Quantale:
    """The full, validated quantale of relations on worlds.

    This is the groupoid quantale of the pair groupoid: element i is the
    relation with bit code i, and the lattice is the powerset of world
    pairs in the same bit order.  Guarded to three worlds, beyond which
    the tables are no longer desk-scale; use RelationQuantale there.
    """
    if len(worlds) > 3:
        raise ValueError("tabulated relation quantale is limited to 3 worlds")
    return groupoid_quantale(pair_groupoid(worlds))


# --- groupoids ---------------------------------------------------------

def groupoid_quantale(G: FiniteGroupoid) -> Quantale:
    """Powerset of arrows: X Y collects the defined composites.

    The unit is the set of identities and the support of X is the set of
    identities at domains of members of X.  The validated table of
    groupoids.GroupoidQuantale, with the same element codes.
    """
    m = len(G.arrows)
    lattice = powerset_lattice(G.arrows)
    n = lattice.n
    single = np.zeros((m, m), dtype=INDEX)   # {g} {h}
    for (g, h), k in G.comp.items():
        single[g, h] = 1 << k
    # Split each element on its highest arrow h: the elements from 2^h to
    # 2^(h+1) - 1 are those below 2^h, each with h added.  half[g] is
    # {g} b for every b, and mul[a] joins half[g] over the arrows g of a;
    # inv and support join each arrow's inverse and the identity at its
    # domain.
    half = np.zeros((m, n), dtype=INDEX)
    mul = np.zeros((n, n), dtype=INDEX)
    inv = np.zeros(n, dtype=INDEX)
    support = np.zeros(n, dtype=INDEX)
    for h in range(m):
        low, high = slice(0, 1 << h), slice(1 << h, 2 << h)
        half[:, high] = half[:, low] | single[:, h, None]
        inv[high] = inv[low] | 1 << G.inv[h]
        support[high] = support[low] | 1 << G.identities[G.dom[h]]
    for g in range(m):
        mul[1 << g:2 << g] = mul[:1 << g] | half[g]
    unit = sum(1 << e for e in G.identities)
    return make_quantale(lattice, mul, inv, unit, support=support)


# --- the support locale ---------------------------------------------------

class SupportLocale(Record):
    """The elements below the unit, as a frame labelled by those quantale
    elements.  Constructed and validated by supports_locale."""

    __slots__ = _fields = ("lattice",)

    @property
    def q_elements(self) -> tuple[int, ...]:
        return self.lattice.labels

    def from_q(self, x: int) -> int:
        return self.lattice.index(x)

    def to_q(self, i: int) -> int:
        return self.lattice.label(i)


def supports_locale(q) -> SupportLocale:
    """Check that the elements below the unit form a locale under the
    quantale operations, and return it as an explicit lattice.

    check_locale_laws runs on support_irreducibles alone, which is exact;
    join and meet are then | and & on the masks of relations.LocaleMasks,
    labelled in support_elements order, and the lattice must be a frame.
    Any failure raises SupportLocaleLawFails.
    """
    check_locale_laws(q, q.support_irreducibles)
    view = LocaleMasks(q)
    elems = tuple(q.support_elements())
    masks = [q.locale_mask(x) for x in elems]
    at = {m: i for i, m in enumerate(masks)}
    join = [[at[m | k] for k in masks] for m in masks]
    meet = np.array([[at[m & k] for k in masks] for m in masks])
    # b <= c iff b ^ c = b
    leq = meet == np.arange(len(elems))[:, None]
    lat = FiniteSupLattice(elems, leq, join, meet, at[0], at[view.full])
    if not lat.is_frame():
        raise SupportLocaleLawFails("the elements below the unit are not a frame")
    return SupportLocale(lat)
