"""Quantic nuclei, generated nuclei, and quantale quotients.

A nucleus is a closure operator compatible with multiplication, involution
and support; its closed elements carry a quotient quantale.  least_nucleus
builds the smallest nucleus collapsing a generating relation, going through
the saturation of the relation and a closed-set characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InternalValidationFailed,
    LawCheck,
    NotANucleus,
    QuantaleLawError,
)
from .lattice import ClosureOperator, closed_elements, closure_from_meet_closed
from .quantale import Quantale, make_quantale


def is_nucleus(q: Quantale, table: Sequence[int]) -> LawCheck:
    """Exhaustive check of the nucleus laws for a candidate table.

    Reports the first failure: one of the closure laws, then
    j(x) j(y) <= j(x y), then j(x)- <= j(x-), then s(j(x)) <= j(s(x))
    when the quantale carries a support.
    """
    L = q.lattice
    t = tuple(table)
    for a in range(q.n):
        if not L.leq(a, t[a]):
            return LawCheck(False, "increasing", (a,))
        if t[t[a]] != t[a]:
            return LawCheck(False, "idempotent", (a,))
        for b in range(q.n):
            if L.leq(a, b) and not L.leq(t[a], t[b]):
                return LawCheck(False, "monotone", (a, b))
    for a in range(q.n):
        for b in range(q.n):
            if not L.leq(q.mul(t[a], t[b]), t[q.mul(a, b)]):
                return LawCheck(False, "mul", (a, b))
    for a in range(q.n):
        if not L.leq(q.inv(t[a]), t[q.inv(a)]):
            return LawCheck(False, "inv", (a,))
    if q.has_support:
        for a in range(q.n):
            if not L.leq(q.support(t[a]), t[q.support(a)]):
                return LawCheck(False, "support", (a,))
    return LawCheck(True)


class Nucleus:
    'A validated nucleus; callable as the underlying closure.'

    def __init__(self, quantale: Quantale, table: Sequence[int]):
        self.quantale = quantale
        self.closure = ClosureOperator(quantale.lattice, tuple(table))
        check = is_nucleus(quantale, self.closure.table)
        if not check:
            raise NotANucleus(f"law {check.law} fails at {check.witness}")

    @property
    def table(self):
        return self.closure.table

    def __call__(self, a: int) -> int:
        return self.closure.table[a]

    def closed(self) -> tuple[int, ...]:
        return self.closure.closed()

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


def least_nucleus(q: Quantale, pairs: Iterable[tuple[int, int]]) -> Nucleus:
    """The smallest nucleus j with j(y) <= j(z) for every generating pair.

    An element is closed exactly when it absorbs the saturated relation:
    whenever it lies above a right-hand side it lies above the matching
    left-hand side.  j sends each element to its least closed cover.
    """
    pairs = [tuple(p) for p in pairs]
    L = q.lattice
    closure = supported_closure(q, pairs)
    closed = [x for x in range(q.n)
              if all(L.leq(y, x) for y, z in closure if L.leq(z, x))]
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
    is the closed support.  The result is revalidated exhaustively, and
    the projection is checked to be a homomorphism; failures raise
    InternalValidationFailed since they would mean a bug, not bad input.
    """
    if nuc.quantale is not q:
        raise ValueError("nucleus belongs to a different quantale")
    L = q.lattice
    lat = closed_elements(L, nuc.closure)
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
    for a in range(q.n):
        if new.inv(proj[a]) != proj[q.inv(a)]:
            raise InternalValidationFailed(f"projection breaks involution at {a}")
        if q.has_support and new.support(proj[a]) != proj[q.support(a)]:
            raise InternalValidationFailed(f"projection breaks support at {a}")
        for b in range(q.n):
            if new.mul(proj[a], proj[b]) != proj[q.mul(a, b)]:
                raise InternalValidationFailed(
                    f"projection breaks multiplication at {(a, b)}")
            if new.join(proj[a], proj[b]) != proj[q.join(a, b)]:
                raise InternalValidationFailed(
                    f"projection breaks joins at {(a, b)}")
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
    common = sorted(set(a.closed()) & set(b.closed()))
    j = closure_from_meet_closed(a.quantale.lattice, common)
    return Nucleus(a.quantale, j.table)
