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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InternalValidationFailed,
    LawCheck,
    NotAClosureOperator,
    NotANucleus,
    QuantaleLawError,
)
from .lattice import (CLOSURE_LAWS, _leq_matrix, closed_elements,
                      closure_failure, closure_from_meet_closed,
                      closure_law_check, meet_closed_closure_table)
from .quantale import Quantale, _first, make_quantale


def is_nucleus(q: Quantale, table: Sequence[int]) -> LawCheck:
    """Exhaustive check of the nucleus laws for a candidate table.

    Reports the first failure: one of the closure laws, from
    closure_law_check, then j(x) j(y) <= j(x y), then j(x)- <= j(x-), then
    s(j(x)) <= j(s(x)) when the quantale carries a support.  A table that
    does not map the carrier into itself raises ValueError.
    """
    t = np.asarray(tuple(table), dtype=np.int64)
    check = closure_law_check(q.lattice, t)
    if not check:
        return check
    leq = _leq_matrix(q.lattice)
    M = np.asarray(q.mul_table, dtype=np.int64)
    holds = leq[M[np.ix_(t, t)], t[M]]
    if not holds.all():
        return LawCheck(False, "mul", _first(holds))
    I = np.asarray(q.inv_table, dtype=np.int64)
    holds = leq[I[t], t[I]]
    if not holds.all():
        return LawCheck(False, "inv", _first(holds))
    if q.has_support:
        S = np.asarray(q.support_table, dtype=np.int64)
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
        self.table = tuple(table)
        if len(self.table) != quantale.n:
            raise NotAClosureOperator("table size does not match the carrier")
        check = is_nucleus(quantale, self.table)
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


def supported_closure(q: Quantale, pairs: Iterable[tuple[int, int]]) -> frozenset:
    """Saturate a generating relation under the closure rules.

    Rules: multiply both sides by any element on the left or on the right,
    apply the support to both sides, apply the involution to both sides.
    The result is the least superset of pairs stable under all four.
    """
    seen = set()
    work = [tuple(p) for p in pairs]
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
    jn = L._join
    cols = tuple(zip(*q.mul_table))
    inv = q.inv_table
    supp = q.support_table
    bound = [L.bottom] * q.n
    for y, z in pairs:
        bound[z] = jn[bound[z]][y]
    work = [z for z in range(q.n) if bound[z] != L.bottom]
    queued = [False] * q.n
    for z in work:
        queued[z] = True
    while work:
        z = work.pop()
        queued[z] = False
        y = bound[z]
        targets = [*zip(cols[z], cols[y]), (inv[z], inv[y])]
        if supp is not None:
            targets.append((supp[z], supp[y]))
        for tz, ty in targets:
            old = bound[tz]
            new = jn[old][ty]
            if new != old:
                bound[tz] = new
                if not queued[tz]:
                    queued[tz] = True
                    work.append(tz)
    return bound


def least_nucleus(q: Quantale, pairs: Iterable[tuple[int, int]]) -> Nucleus:
    """The smallest nucleus j with j(y) <= j(z) for every generating pair.

    An element is closed exactly when it absorbs the saturated relation:
    whenever it lies above a right-hand side it lies above the matching
    left-hand side.  With the relation compressed to Y (saturated_bounds),
    x is closed iff Y(z) <= x for every z <= x.  j sends each element to
    its least closed cover.
    """
    pairs = [tuple(p) for p in pairs]
    L = q.lattice
    bound = saturated_bounds(q, pairs)
    # x is closed iff z <= x implies Y(z) <= x; a z with Y(z) <= z never
    # excludes anything
    closed_mask = (1 << q.n) - 1
    for z in range(q.n):
        if not L.leq(bound[z], z):
            closed_mask &= ~L.upset(z) | L.upset(bound[z])
    closed = [x for x in range(q.n) if closed_mask >> x & 1]
    j = closure_from_meet_closed(L, closed)
    nuc = Nucleus(q, j.table)
    for y, z in pairs:
        if not L.leq(nuc(y), nuc(z)):
            raise InternalValidationFailed(
                f"generated nucleus misses its defining pair {(y, z)}")
    return nuc


@dataclass(frozen=True)
class Quotient:
    """A quotient quantale with its projection.

    projection maps old elements to new indices (x goes to the class of
    j(x)); closed maps new indices back to the closed representatives.
    """

    quantale: Quantale
    projection: tuple[int, ...]
    closed: tuple[int, ...]


def quotient(q: Quantale, nuc: Nucleus) -> Quotient:
    """Carry the quantale structure to the closed elements of a nucleus.

    Multiplication closes products, joins close joins, involution and
    meets restrict, the unit is the closure of the unit and the support
    is the closed support.  The result is revalidated by make_quantale, and
    the projection is checked to be a homomorphism; failures raise
    InternalValidationFailed since they would mean a bug, not bad input.
    """
    if nuc.quantale is not q:
        raise ValueError("nucleus belongs to a different quantale")
    L = q.lattice
    lat = closed_elements(L, nuc)
    closed = nuc.closed()
    idx = {x: k for k, x in enumerate(closed)}
    proj = tuple(idx[nuc(x)] for x in range(q.n))
    mul = [[proj[q.mul(x, y)] for y in closed] for x in closed]
    inv = [proj[q.inv(x)] for x in closed]
    support = [proj[q.support(x)] for x in closed] if q.has_support else None
    try:
        new = make_quantale(lat, mul, inv, proj[q.unit], support=support)
    except QuantaleLawError as exc:
        raise InternalValidationFailed(f"quotient law failure: {exc}") from exc
    P = np.asarray(proj, dtype=np.int64)
    M = np.asarray(q.mul_table, dtype=np.int64)
    J = np.asarray(L._join, dtype=np.int64)
    inv_ok = np.asarray(new.inv_table)[P] == P[np.asarray(q.inv_table)]
    supp_ok = (np.asarray(new.support_table)[P] == P[np.asarray(q.support_table)]
               if q.has_support else np.ones(q.n, dtype=bool))
    mul_ok = np.asarray(new.mul_table)[np.ix_(P, P)] == P[M]
    join_ok = np.asarray(new.lattice._join)[np.ix_(P, P)] == P[J]
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
    return Quotient(new, proj, closed)


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
