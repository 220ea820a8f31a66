"""Quantic nuclei, generated nuclei, and quantale quotients.

A nucleus is a closure operator compatible with multiplication, involution
and support; its closed elements carry a quotient quantale.  least_nucleus
builds the smallest nucleus collapsing a generating relation by compressed
saturation: instead of the saturated set of pairs (y, z), it keeps for each
right-hand side z the join Y(z) of every y paired with z.  The saturation
rules (multiply on either side, support, involution) preserve joins, so Y
is exactly the pointwise join of the full saturation, and an element x is
closed iff Y(z) <= x for every z <= x.  supported_closure is the explicit
saturated relation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    InternalValidationFailed,
    LawCheck,
    NotAClosureOperator,
    NotANucleus,
    Record,
)
from .lattice import (CLOSURE_LAWS, INDEX, closed_elements, closed_positions,
                      closure_failure, closure_law_check, index_table,
                      map_table, meet_closed_closure_table, sealed)
from .quantale import Quantale, _first


def is_nucleus(q: Quantale, table: Sequence[int]) -> LawCheck:
    """Exhaustive check of the nucleus laws for a candidate table.

    Reports the first failure: one of the closure laws, from
    closure_law_check, then j(x) j(y) <= j(x y), then j(x)- <= j(x-), then
    s(j(x)) <= j(s(x)) when the quantale carries a support.  A table that
    does not map the carrier into itself raises ValueError.
    """
    t = map_table(q.lattice, tuple(table))
    check = closure_law_check(q.lattice, t)
    if not check:
        return check
    leq, M, I = q.lattice.leq_matrix, q.mul_matrix, q.inv_vector
    holds = leq[M[np.ix_(t, t)], t[M]]
    if not holds.all():
        return LawCheck(False, "mul", _first(holds))
    holds = leq[I[t], t[I]]
    if not holds.all():
        return LawCheck(False, "inv", _first(holds))
    if q.has_support:
        S = q.support_vector
        holds = leq[S[t], t[S]]
        if not holds.all():
            return LawCheck(False, "support", _first(holds))
    return LawCheck(True)


class Nucleus:
    """A validated nucleus; callable as the underlying closure.

    is_nucleus proves every law once.  A closure-law failure or a table of
    the wrong size raises NotAClosureOperator, as in ClosureOperator, and
    any other failure NotANucleus."""

    def __init__(self, quantale: Quantale, table: Sequence[int]):
        self.quantale = quantale
        table = tuple(table)
        if len(table) != quantale.n:
            raise NotAClosureOperator("table size does not match the carrier")
        t = map_table(quantale.lattice, table)
        self.table = tuple(t.tolist())
        check = is_nucleus(quantale, t)
        if check.law in CLOSURE_LAWS:
            raise closure_failure(quantale.lattice, check)
        if not check:
            raise NotANucleus(f"law {check.law} fails at {check.witness}")

    def __call__(self, a: int) -> int:
        return self.table[a]

    def closed(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.quantale.n) if self.table[a] == a)

    def __repr__(self):
        return f"Nucleus(closed={len(self.closed())}/{self.quantale.n})"


def _generating_pairs(q: Quantale, pairs: Iterable[tuple[int, int]]) -> list:
    """pairs as a list of pairs of Python ints, through index_table;
    ValueError unless each is a pair of elements of the carrier."""
    pairs = [tuple(p) for p in pairs]
    message = "generating pair outside the carrier"
    t = index_table(pairs, q.n, message)
    if pairs and t.shape != (len(pairs), 2):
        raise ValueError(message)
    return [tuple(p) for p in t.tolist()]


def supported_closure(q: Quantale, pairs: Iterable[tuple[int, int]]) -> frozenset:
    """Saturate a generating relation under the closure rules.

    Rules: multiply both sides by any element on the left or on the right,
    apply the support to both sides, apply the involution to both sides.
    The result is the least superset of pairs stable under all four.
    """
    seen = set()
    work = _generating_pairs(q, pairs)
    while work:
        y, z = work.pop()
        if (y, z) in seen:
            continue
        seen.add((y, z))
        work.append((q.inv(y), q.inv(z)))
        if q.has_support:
            work.append((q.support(y), q.support(z)))
        for a in range(q.n):
            work.append((q.mul(a, y), q.mul(a, z)))
            work.append((q.mul(y, a), q.mul(z, a)))
    return frozenset(seen)


def saturated_bounds(q: Quantale, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The saturated relation in compressed form: Y(z) for every z.

    Y(z) is the join of every y that supported_closure pairs with z.  It is
    saturated with a worklist of the z whose bound grew: a Y(z) is joined
    into Y(a z) for every a, s(Y(z)) into Y(s z) and Y(z)- into Y(z-).
    The rules preserve joins, so this least solution is exactly the
    pointwise join of the explicit saturation.  Each bound grows at most
    height(L) times.

    supported_closure also multiplies on the right; here that rule is
    implied.  The involution is a join-preserving anti-automorphism, so
    Y(z) a = (a- Y(z)-)- <= (a- Y(z-))- <= Y(a- z-)- <= Y((a- z-)-) =
    Y(z a), by the involution rule, the left rule at a-, and the
    involution rule again.  The least solution of the three rules is thus
    closed under all four, and so equal to the least solution of all four.
    """
    L = q.lattice
    J = L.join_matrix
    # row r of targets is where the rules send z: r < n multiplies by r
    # on the left, then the involution and the support
    targets = np.vstack([q.mul_matrix, q.inv_vector]
                        + ([q.support_vector] if q.has_support else []))
    bound = np.full(q.n, L.bottom, dtype=INDEX)
    for y, z in _generating_pairs(q, pairs):
        bound[z] = J[bound[z], y]
    queued = bound != L.bottom
    work = np.flatnonzero(queued).tolist()
    while work:
        z = work.pop()
        queued[z] = False
        tz, ty = targets[:, z], targets[:, bound[z]]
        # only the targets that grow need the scalar pass, which joins
        # repeated targets one at a time
        for k in np.flatnonzero(J[bound[tz], ty] != bound[tz]).tolist():
            t = tz.item(k)
            new = J.item(bound.item(t), ty.item(k))
            if new != bound[t]:
                bound[t] = new
                if not queued[t]:
                    queued[t] = True
                    work.append(t)
    return bound.tolist()


def least_nucleus(q: Quantale, pairs: Iterable[tuple[int, int]]) -> Nucleus:
    """The smallest nucleus j with j(y) <= j(z) for every generating pair.

    An element is closed exactly when it absorbs the saturated relation:
    whenever it lies above a right-hand side it lies above the matching
    left-hand side.  With the relation compressed to Y (saturated_bounds),
    x is closed iff Y(z) <= x for every z <= x.  j sends each element to
    its least closed cover.  A pair that is not two elements of the
    carrier raises ValueError, here and in saturated_bounds and
    supported_closure.
    """
    pairs = _generating_pairs(q, pairs)
    L = q.lattice
    leq = L.leq_matrix
    # x is excluded by z when z <= x but Y(z) is not below x
    excluded = leq & ~leq[saturated_bounds(q, pairs)]
    closed = np.flatnonzero(~excluded.any(axis=0)).tolist()
    nuc = Nucleus(q, meet_closed_closure_table(L, closed))
    for y, z in pairs:
        if not L.leq(nuc(y), nuc(z)):
            raise InternalValidationFailed(
                f"generated nucleus misses its defining pair {(y, z)}")
    return nuc


class Quotient(Record):
    """A quotient quantale with its projection.

    projection maps old elements to new indices (x goes to the class of
    j(x)); closed maps new indices back to the closed representatives.
    """

    __slots__ = _fields = ("quantale", "projection", "closed")


def quotient(q: Quantale, nuc: Nucleus) -> Quotient:
    """Carry the quantale structure to the closed elements of a nucleus.

    Multiplication closes products, joins close joins, involution and
    meets restrict, the unit is the closure of the unit and the support
    is the closed support.  A nucleus whose table is the identity closes
    every element: the quotient is q itself, which was proved when it was
    built, with the identity projection.

    Any other quotient is built from the cut tables and proved once, by
    checking that the projection P (x goes to the class of j(x)) is a
    homomorphism: P(a)- = P(a-), s(P a) = P(s a), P(a) P(b) = P(a b) and
    P(a) v P(b) = P(a v b) for every a and b.

    Lemma: this check implies every law make_quantale proves, the bottom,
    associativity, both distributive laws, the unit, the involution and
    the five support laws.  Each is an equation s = t, or an inequality
    s <= t, that is s v t = t, between terms in the product, the
    involution, the support, binary joins, the bottom and the unit.  P
    sends the bottom and the unit of q to those of the quotient, by
    construction, and commutes with the four operations by the check, so
    P(t(a, b, c)) = t(P a, P b, P c) for every term t.  P is onto, since
    it sends each closed element to its own index.  So each law, holding
    in q at every a, b, c, holds in the quotient at every P a, P b, P c,
    which is every triple: a quotient by a nucleus is a surjective
    homomorphic image of its parent (Rosenthal, Quantales and their
    applications, 1990).  The order of the quotient is that of its joins,
    since the join of two closed elements is their least closed upper
    bound.

    A failure raises InternalValidationFailed, naming the first a, and the
    first b for a product or a join, since it would mean a bug, not bad
    input.
    """
    if nuc.quantale is not q:
        raise ValueError("nucleus belongs to a different quantale")
    identity = tuple(range(q.n))
    if nuc.table == identity:
        return Quotient(q, identity, identity)
    M, I, S = q.mul_matrix, q.inv_vector, q.support_vector
    C, P = closed_positions(nuc.table)
    new = Quantale(closed_elements(q.lattice, nuc),
                   sealed(P[M[np.ix_(C, C)]]), sealed(P[I[C]]), P[q.unit],
                   None if S is None else sealed(P[S[C]]))
    inv_ok = new.inv_vector[P] == P[I]
    supp_ok = (new.support_vector[P] == P[S] if q.has_support
               else np.ones(q.n, dtype=bool))
    mul_ok = new.mul_matrix[np.ix_(P, P)] == P[M]
    join_ok = new.lattice.join_matrix[np.ix_(P, P)] == P[q.lattice.join_matrix]
    bad = ~(inv_ok & supp_ok & mul_ok.all(axis=1) & join_ok.all(axis=1))
    if bad.any():
        a = int(np.argmax(bad))
        if not inv_ok[a]:
            raise InternalValidationFailed(f"projection breaks involution at {a}")
        if not supp_ok[a]:
            raise InternalValidationFailed(f"projection breaks support at {a}")
        b = int(np.argmin(mul_ok[a] & join_ok[a]))
        law = "multiplication" if not mul_ok[a, b] else "joins"
        raise InternalValidationFailed(f"projection breaks {law} at {(a, b)}")
    return Quotient(new, tuple(P.tolist()), tuple(C.tolist()))


def nucleus_meet(a: Nucleus, b: Nucleus) -> Nucleus:
    'Pointwise meet; the largest nucleus below both.'
    if a.quantale is not b.quantale:
        raise ValueError("nuclei live on different quantales")
    L = a.quantale.lattice
    return Nucleus(a.quantale, tuple(L.meet(a(x), b(x)) for x in range(a.quantale.n)))


def nucleus_join(a: Nucleus, b: Nucleus) -> Nucleus:
    'Closed sets intersect; the least nucleus above both.'
    if a.quantale is not b.quantale:
        raise ValueError("nuclei live on different quantales")
    common = set(a.closed()) & set(b.closed())
    return Nucleus(a.quantale,
                   meet_closed_closure_table(a.quantale.lattice, common))
