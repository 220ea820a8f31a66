"""Finite groupoids and their quantales of arrow sets, without numpy.

FiniteGroupoid validates a groupoid's tables; pair_groupoid and
group_groupoid build the two standard kinds.  GroupoidQuantale is the
lazy quantale of all sets of arrows of a groupoid, an element being the
bitmask of its arrows, as in the table of quantale.groupoid_quantale.
It mirrors relations.RelationQuantale's surface, so the evaluator, the
locale view relations.LocaleMasks, the point flags and the checks of
quantales.axioms read it as they read a relation quantale.  Only
groupoid documents import this module.

The right regular representation.  For a set of arrows a, phi(a) =
{(f, f g) : g in a, cod f = dom g} is a relation on the arrows, coded on
m = len(arrows) worlds (regular).  Row f of phi(a) is {f} a.  Then:
- phi preserves joins, and phi(a b) = phi(a) ; phi(b), by associativity
  of the composition: (f, f g h) is (f, f g) then (f g, f g h).
- phi(a-) is the converse of phi(a): (f, f g) turns into (f g, f), and
  f = (f g) g-.
- phi(e) is the diagonal, and phi(s(a)) is the domain of phi(a) on the
  diagonal: both are {(f, f) : some g in a has dom g = cod f}.
- (id_x, g) is in phi(a) exactly when g is in a and dom g = x, so a is
  the join of the rows of phi(a) at the identities: phi is injective,
  and a <= b iff phi(a) <= phi(b).
So each support law holds at (a, b) in this quantale iff it holds at
(phi(a), phi(b)) in the quantale of relations on the m arrows, which is
how axioms.support_law_witnesses runs a groupoid on its lanes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InvalidGroupoid
from .relations import _bits


class FiniteGroupoid:
    """Arrows with partial composition, all invertible.

    Composition is diagrammatic: compose(g, h) is defined exactly when
    cod(g) = dom(h).  Identities are inferred and validated, one per object.
    """

    def __init__(self, objects: Sequence, arrows: Sequence,
                 dom: Sequence[int], cod: Sequence[int],
                 comp: dict[tuple[int, int], int], inv: Sequence[int]):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.comp = dict(comp)
        self.inv = tuple(inv)
        self._validate()

    def _validate(self):
        m = len(self.arrows)
        no = len(self.objects)
        if len(self.dom) != m or len(self.cod) != m or len(self.inv) != m:
            raise InvalidGroupoid("arrow table sizes disagree")
        for g in range(m):
            if not (0 <= self.dom[g] < no and 0 <= self.cod[g] < no):
                raise InvalidGroupoid(f"arrow {self.arrows[g]!r} has a bad endpoint")
        for g in range(m):
            for h in range(m):
                defined = (g, h) in self.comp
                if defined != (self.cod[g] == self.dom[h]):
                    raise InvalidGroupoid(
                        f"composability of {self.arrows[g]!r}, {self.arrows[h]!r} "
                        "does not match endpoints")
                if defined:
                    k = self.comp[g, h]
                    if self.dom[k] != self.dom[g] or self.cod[k] != self.cod[h]:
                        raise InvalidGroupoid(
                            f"composite of {self.arrows[g]!r}, {self.arrows[h]!r} "
                            "has wrong endpoints")
        for g in range(m):
            for h in range(m):
                for k in range(m):
                    if (g, h) in self.comp and (h, k) in self.comp:
                        if self.comp[self.comp[g, h], k] != self.comp[g, self.comp[h, k]]:
                            raise InvalidGroupoid(
                                f"associativity fails at {(g, h, k)}")
        self.identities = []
        for x in range(no):
            cands = [e for e in range(m)
                     if self.dom[e] == self.cod[e] == x
                     and all(self.comp[g, e] == g for g in range(m) if self.cod[g] == x)
                     and all(self.comp[e, h] == h for h in range(m) if self.dom[h] == x)]
            if len(cands) != 1:
                raise InvalidGroupoid(
                    f"object {self.objects[x]!r} has {len(cands)} identities")
            self.identities.append(cands[0])
        self.identities = tuple(self.identities)
        for g in range(m):
            gi = self.inv[g]
            if self.dom[gi] != self.cod[g] or self.cod[gi] != self.dom[g]:
                raise InvalidGroupoid(f"inverse of {self.arrows[g]!r} has wrong endpoints")
            if self.inv[gi] != g:
                raise InvalidGroupoid(f"inverse not involutive at {self.arrows[g]!r}")
            if self.comp[g, gi] != self.identities[self.dom[g]]:
                raise InvalidGroupoid(f"g g- != id_dom at {self.arrows[g]!r}")
            if self.comp[gi, g] != self.identities[self.cod[g]]:
                raise InvalidGroupoid(f"g- g != id_cod at {self.arrows[g]!r}")


def pair_groupoid(worlds: Sequence) -> FiniteGroupoid:
    'Arrows are world pairs (x, y): x -> y; composition matches relations.'
    worlds = tuple(worlds)
    k = len(worlds)
    arrows = [(worlds[i], worlds[j]) for i in range(k) for j in range(k)]
    idx = {a: t for t, a in enumerate(arrows)}
    dom = [i for i in range(k) for _ in range(k)]
    cod = [j for _ in range(k) for j in range(k)]
    comp = {}
    for g, (x, y) in enumerate(arrows):
        for h, (y2, z) in enumerate(arrows):
            if y == y2:
                comp[g, h] = idx[(x, z)]
    inv = [idx[(y, x)] for (x, y) in arrows]
    return FiniteGroupoid(worlds, arrows, dom, cod, comp, inv)


def group_groupoid(labels: Sequence, mul: Sequence[Sequence[int]],
                   inv: Sequence[int], unit: int) -> FiniteGroupoid:
    'A group seen as a one-object groupoid.'
    m = len(labels)
    comp = {(g, h): mul[g][h] for g in range(m) for h in range(m)}
    return FiniteGroupoid(["*"], labels, [0] * m, [0] * m, comp, inv)


class GroupoidQuantale:
    """The quantale of all sets of arrows of a FiniteGroupoid, computed
    lazily on arrow bitmasks: X Y collects the defined composites, the
    unit is the set of identities and the support of X is the set of
    identities at the domains of its arrows.

    Elements are the codes of quantale.groupoid_quantale's table, n = 2^m
    of them for m arrows, and the operations mirror RelationQuantale's.
    The support locale is the sets of identities, a Boolean algebra; its
    irreducibles, support_irreducibles, are the identities in arrow
    order, and bit i of a locale mask stands for the i-th of them.
    """

    has_support = True

    def __init__(self, groupoid: FiniteGroupoid):
        G = self.groupoid = groupoid
        m = self.m = len(G.arrows)
        self.n = 1 << m
        self.bottom = 0
        self.top = self.n - 1
        ids = sorted(G.identities)
        self.support_irreducibles = tuple(1 << e for e in ids)
        self.unit = sum(self.support_irreducibles)
        self._supp_elems = None
        # per arrow g, {g h} for each arrow h, empty where g h is undefined
        self._products = tuple(
            tuple(1 << G.comp[g, h] if (g, h) in G.comp else 0
                  for h in range(m))
            for g in range(m))
        self._inverse = tuple(1 << G.inv[g] for g in range(m))
        # the locale bit of the identity at each arrow's domain and codomain
        bit = {e: i for i, e in enumerate(ids)}
        self._dom_at = tuple(bit[G.identities[G.dom[g]]] for g in range(m))
        self._cod_at = tuple(bit[G.identities[G.cod[g]]] for g in range(m))
        self._domain = tuple(1 << G.identities[G.dom[g]] for g in range(m))
        # phi({g}) = {(f, f g) : cod f = dom g}, as a relation code
        self._regular = tuple(
            sum(1 << f * m + G.comp[f, g] for f in range(m)
                if G.cod[f] == G.dom[g])
            for g in range(m))

    def __repr__(self):
        return f"GroupoidQuantale(arrows={self.m})"

    def mul(self, a, b):
        out = 0
        for g in _bits(a):
            out |= self._join_over(self._products[g], b)
        return out

    def inv(self, a):
        return self._join_over(self._inverse, a)

    def support(self, a):
        return self._join_over(self._domain, a)

    def regular(self, a):
        'The code of phi(a), a relation on the m arrows (module docstring).'
        return self._join_over(self._regular, a)

    @staticmethod
    def _join_over(values, a):
        'The join of values[g] over the arrows g of a.'
        out = 0
        for g in _bits(a):
            out |= values[g]
        return out

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
        'All sets of identities, ascending.'
        if self._supp_elems is None:
            self._supp_elems = tuple(sorted(
                map(self.locale_element,
                    range(1 << len(self.support_irreducibles)))))
        return self._supp_elems

    def locale_mask(self, v):
        'Bit i set when the i-th identity, support_irreducibles[i], is in v.'
        return sum(1 << i for i, d in enumerate(self.support_irreducibles)
                   if v & d)

    def locale_element(self, mask):
        'The set of the identities whose bits are set in mask.'
        return self._join_over(self.support_irreducibles, mask)

    def diamond_table(self, a, converse=False):
        """At the identity at each object x, s(a 1_x): the identities at
        the domains of the arrows of a that end at x; with converse,
        s(a- 1_x): those at the codomains of the arrows that start at x.
        One pass over the arrows of a, without a product."""
        src, dst = ((self._cod_at, self._dom_at) if converse
                    else (self._dom_at, self._cod_at))
        out = [0] * len(self.support_irreducibles)
        for g in _bits(a):
            out[dst[g]] |= 1 << src[g]
        return tuple(out)
