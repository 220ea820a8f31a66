"""Depth-truncated graded tensor algebra over a finite frame.

Degrees are words over 'a' (the generator) and 'A' (its involute); the
empty word is the scalar degree.  The component in degree w is the
lattice of down-sets of (|w|+1)-tuples of join-irreducibles, pure
tensors being down-closures of slot products.  Multiplication meets the
adjacent slots and concatenates degrees; it is partial, raising
DepthExceeded instead of silently truncating, because a truncation that
swallowed high degrees would fabricate equalities that do not hold in
the untruncated algebra.

The pre-support induced by a pair of diamonds is defined on pure
tensors by the alternating meet-diamond recursion and extended to
everything else by joins over the irreducible-tuple decomposition.
Because the base is a frame and the diamonds preserve joins, each
element a acts on the base as one join-preserving map, its support
transformer F_a (a cached table), and the pre-support of a product
a1 ... am is F_a1(... F_am(top)).  The law suites below exercise the
support laws, the modal-system inequalities and the grading axioms on
finite sample grids, as table lookups over whole arrays of cases, and
report plain `LAW <name> PASS|FAIL` lines.  The support and Lemma B
laws take every tuple of a finite sample list, none drawn.  The samples
depend on the frame alone, so SampleGrids builds them once per frame for
all of its diamond pairs; within a pair, samples that read the same in
every word of a law are interchangeable, and each law is decided once
per tuple of classes of them, so no grid of samples is ever listed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Mapping, Sequence
from types import SimpleNamespace

import numpy as np

from .bimodal import check_modal_class
from .errors import (AlgebraError, DepthExceeded, InternalValidationFailed,
                     NotAFrame, Record)
from .lattice import FiniteSupLattice
from .nucleus import Nucleus, quotient

LETTERS = "aA"


def word_inv(w: str) -> str:
    'Involution on degree words: reverse and flip every letter.'
    return w[::-1].swapcase()


class GradedElement(Record):
    """A finite degree-indexed family of component elements.

    parts holds (word, down-set) pairs sorted by degree; absent words
    mean the bottom of their component.  Instances are built through a
    TensorAlgebra, never directly.
    """

    __slots__ = _fields = ("parts",)

    def component(self, word: str) -> frozenset:
        for w, comp in self.parts:
            if w == word:
                return comp
        return frozenset()

    def words(self) -> tuple:
        return tuple(w for w, _ in self.parts)

    @property
    def is_bottom(self) -> bool:
        return not self.parts


def _element(parts: Mapping[str, frozenset]) -> GradedElement:
    items = tuple(sorted(((w, frozenset(c)) for w, c in parts.items() if c),
                         key=lambda wc: (len(wc[0]), wc[0])))
    return GradedElement(items)


class TensorAlgebra:
    'The truncated graded algebra over a finite frame.'

    def __init__(self, lattice: FiniteSupLattice, depth: int = 3):
        if not lattice.is_frame():
            raise NotAFrame("tensor components need a frame base")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.lattice = lattice
        self.depth = depth
        self.irr = lattice.join_irreducibles()
        m = len(self.irr)
        self._irr_leq = tuple(
            tuple(lattice.leq(self.irr[p], self.irr[q]) for q in range(m))
            for p in range(m))
        self._below = tuple(
            tuple(p for p in range(m) if lattice.leq(self.irr[p], x))
            for x in range(lattice.n))
        self._max_cache = {}
        self._pair = None
        self._transformers = {}
        self.bottom = GradedElement(())
        self.unit = self.embed(lattice.top)

    # --- construction -----------------------------------------------------

    def check_word(self, word: str) -> str:
        if any(c not in LETTERS for c in word):
            raise ValueError(f"degree letters must be in {LETTERS!r}: {word!r}")
        if len(word) > self.depth:
            raise DepthExceeded(
                f"degree {word!r} has length {len(word)}, depth limit is {self.depth}")
        return word

    def pure(self, word: str, slots: Sequence[int]) -> GradedElement:
        'The pure tensor with the given degree and lattice-element slots.'
        self.check_word(word)
        if len(slots) != len(word) + 1:
            raise ValueError(
                f"degree {word!r} needs {len(word) + 1} slots, got {len(slots)}")
        comp = self._pure_component(slots)
        return _element({word: comp}) if comp else self.bottom

    def _pure_component(self, slots) -> frozenset:
        lists = [self._below[x] for x in slots]
        if any(not l for l in lists):
            return frozenset()
        return frozenset(itertools.product(*lists))

    def embed(self, x: int) -> GradedElement:
        'A lattice element as a scalar-degree graded element.'
        return self.pure("", (x,))

    def eps_value(self, a: GradedElement) -> int:
        'The scalar-degree component read back as a lattice element.'
        return self.lattice.join_all(self.irr[t[0]] for t in a.component(""))

    def alpha_bar(self, word: str) -> GradedElement:
        'The image of a degree word: all slots full.'
        return self.pure(word, (self.lattice.top,) * (len(word) + 1))

    # --- lattice structure ------------------------------------------------

    def join(self, a: GradedElement, b: GradedElement) -> GradedElement:
        out = {w: set(c) for w, c in a.parts}
        for w, c in b.parts:
            out.setdefault(w, set()).update(c)
        return _element(out)

    def join_all(self, elems) -> GradedElement:
        out = self.bottom
        for e in elems:
            out = self.join(out, e)
        return out

    def meet(self, a: GradedElement, b: GradedElement) -> GradedElement:
        return _element({w: c & b.component(w) for w, c in a.parts})

    def leq(self, a: GradedElement, b: GradedElement) -> bool:
        return all(c <= b.component(w) for w, c in a.parts)

    def maximal_tuples(self, comp: frozenset) -> tuple:
        'The maximal tuples of a down-set under the slotwise order.'
        got = self._max_cache.get(comp)
        if got is not None:
            return got
        leq = self._irr_leq
        out = tuple(
            t for t in comp
            if not any(s != t and all(leq[p][q] for p, q in zip(t, s))
                       for s in comp))
        self._max_cache[comp] = out
        return out

    # --- quantale structure -----------------------------------------------

    def mul(self, a: GradedElement, b: GradedElement) -> GradedElement:
        out = {}
        irr = self.irr
        meet = self.lattice.meet
        for wa, ca in a.parts:
            for wb, cb in b.parts:
                w = wa + wb
                if len(w) > self.depth:
                    raise DepthExceeded(
                        f"product degree {w!r} exceeds depth {self.depth}")
                acc = out.setdefault(w, set())
                for t in self.maximal_tuples(ca):
                    head = tuple(irr[p] for p in t[:-1])
                    last = irr[t[-1]]
                    for s in self.maximal_tuples(cb):
                        slots = head + (meet(last, irr[s[0]]),) + tuple(
                            irr[p] for p in s[1:])
                        acc.update(self._pure_component(slots))
        return _element(out)

    def inv(self, a: GradedElement) -> GradedElement:
        return _element({word_inv(w): frozenset(t[::-1] for t in c)
                         for w, c in a.parts})

    # --- pre-support ------------------------------------------------------

    def degree(self, a: GradedElement) -> int:
        'The length of the longest degree word of a; 0 for bottom.'
        return len(a.parts[-1][0]) if a.parts else 0

    def transformer(self, dia: tuple, bdia: tuple, a: GradedElement) -> tuple:
        """The support transformer of a for a diamond pair, as a table F_a
        over the base: F_a(y) is the join, over the maximal tuples t of
        each component of a, say of degree w1...wk, of
        t0 /\\ <w1>(t1 /\\ ... <wk>(tk /\\ y)).  Built once per element and
        pair, and cached under the parts of a, which hash faster than a.
        Only the tables of the pair last served are kept: a caller checks
        one pair at a time, so a new pair drops the old one's tables."""
        if (dia, bdia) != self._pair:
            self._pair, self._transformers = (dia, bdia), {}
        cache = self._transformers
        got = cache.get(a.parts)
        if got is None:
            L = self.lattice
            table = [L.bottom] * L.n
            for w, comp in a.parts:
                steps = [dia if c == "a" else bdia for c in reversed(w)]
                for t in self.maximal_tuples(comp):
                    slots = [self.irr[p] for p in reversed(t)]
                    for y in range(L.n):
                        cur = L.meet(slots[0], y)
                        for x, step in zip(slots[1:], steps):
                            cur = L.meet(x, step[cur])
                        table[y] = L.join(table[y], cur)
            got = cache[a.parts] = tuple(table)
        return got

    def pre_support(self, dia: Sequence[int], bdia: Sequence[int],
                    a: GradedElement) -> int:
        """The pre-support of a graded element, as a lattice element.

        Pure tensors follow the recursion s(x0 (x) rest) = x0 /\\ <w1>(s rest);
        a general element is the join over the maximal tuples of each of
        its components, which is its transformer at top.
        """
        return self.support_of_product(dia, bdia, (a,))

    def support_of_product(self, dia: Sequence[int], bdia: Sequence[int],
                           elems) -> int:
        """The pre-support of a product, without materializing the product.

        A product of pure tensors is pure (adjacent slots meet), the base
        is a frame and the diamonds preserve joins, so the support
        recursion distributes over the maximal tuples of every factor:
        the support of e1 ... em is F_e1(F_e2(... F_em(top))), a right
        fold of transformer lookups.  A product with a bottom factor is
        bottom.  Otherwise the degree bound applies as in the materialized
        product: when the factors' largest degrees sum past the depth,
        DepthExceeded names the first combination of their words, in
        product order, that is too long.
        """
        L = self.lattice
        elems = tuple(elems)
        if any(e.is_bottom for e in elems):
            return L.bottom
        if sum(map(self.degree, elems)) > self.depth:
            for words in itertools.product(*(e.words() for e in elems)):
                word = "".join(words)
                if len(word) > self.depth:
                    raise DepthExceeded(
                        f"product degree {word!r} exceeds depth {self.depth}")
        dia = tuple(dia)
        bdia = tuple(bdia)
        y = L.top
        for e in reversed(elems):
            y = self.transformer(dia, bdia, e)[y]
        return y


# --- sample grids ---------------------------------------------------------

# The seed of the module's two seeded choices: default_samples joins
# _JOINS drawn pairs, and check_graded_nucleus draws _FAMILIES families
# through _grid when there are more than that.
_SEED = 0
_FAMILIES = 4096
_JOINS = 6


def _grid(domains, budget: int, rng: random.Random):
    """Every tuple of the product of domains when it has at most budget
    tuples, else budget tuples drawn one rng.choice per domain.  Lazy:
    nothing is drawn before the tuples are taken."""
    if math.prod(map(len, domains)) <= budget:
        yield from itertools.product(*domains)
    else:
        for _ in range(budget):
            yield tuple(rng.choice(d) for d in domains)


class FullGrid(Record):
    """Every tuple of arity sample indices, in np.indices order, which is
    lexicographic; when weights is set, only the tuples whose product
    fits the depth, each sample taken weight times and extra_degree
    letters more (see SampleGrids.fits).  It is never listed: _Suite.law
    decides it on tuples of sample classes."""

    __slots__ = _fields = ("arity", "weights", "extra_degree")
    _defaults = {"weights": None, "extra_degree": 0}


def pure_samples(algebra: TensorAlgebra, max_degree: int = 2) -> list:
    'All pure tensors with irreducible slots up to a degree, plus full slots.'
    out = []
    seen = set()
    for d in range(min(max_degree, algebra.depth) + 1):
        for letters in itertools.product(LETTERS, repeat=d):
            w = "".join(letters)
            for slots in itertools.product(algebra.irr, repeat=d + 1):
                e = algebra.pure(w, slots)
                if e not in seen:
                    seen.add(e)
                    out.append(e)
            e = algebra.alpha_bar(w)
            if e not in seen:
                seen.add(e)
                out.append(e)
    return out


def default_samples(algebra: TensorAlgebra) -> list:
    'The degree-2 pure grid plus six joins of seeded random pairs.'
    out = pure_samples(algebra)
    rng = random.Random(_SEED)
    pool = list(out)
    for _ in range(_JOINS):
        a, b = rng.choice(pool), rng.choice(pool)
        e = algebra.join(a, b)
        if e not in out:
            out.append(e)
    return out


class SampleGrids:
    """The samples of one frame's law suites, with what the laws read of
    each sample besides its tables: its involute, its degree and whether
    it is nonzero.  None of it depends on the diamond pair, so it is
    built once and shared by all of the frame's pairs.  The samples are
    default_samples unless given.  Every law runs on a FullGrid, all
    tuples of samples of its arity, so no grid is held here.
    """

    def __init__(self, algebra: TensorAlgebra, samples=None):
        self.algebra = algebra
        self.samples = (default_samples(algebra) if samples is None
                        else list(samples))
        if not self.samples:
            raise ValueError("the sample list is empty: every law would "
                             "pass vacuously")
        self.involutes = [algebra.inv(e) for e in self.samples]
        self.degrees = np.array([algebra.degree(e) for e in self.samples],
                                dtype=np.int64)
        self.live = np.array([not e.is_bottom for e in self.samples],
                             dtype=bool)

    def fits(self, rows, weights, extra_degree=0) -> np.ndarray:
        """Which rows of sample indices have a product that fits the depth,
        each sample taken weight times and extra_degree letters more."""
        need = extra_degree + sum(w * self.degrees[col]
                                  for w, col in zip(weights, rows.T))
        return need <= self.algebra.depth

    def empty(self, grid: FullGrid) -> bool:
        """Whether no tuple of a grid fits.  Degrees are nonnegative, so
        some tuple fits iff the tuple that repeats a sample of least
        degree does."""
        lightest = np.full((1, grid.arity), np.argmin(self.degrees))
        return (grid.weights is not None and not
                self.fits(lightest, grid.weights, grid.extra_degree)[0])


# --- reports --------------------------------------------------------------

class LawResult(Record):
    __slots__ = _fields = ("name", "ok", "witness")
    _defaults = {"witness": ""}

    def __bool__(self):
        return self.ok


def law_lines(results) -> list:
    'One grep-friendly line per law.'
    out = []
    for r in results:
        line = f"LAW {r.name} {'PASS' if r.ok else 'FAIL'}"
        if not r.ok and r.witness:
            line += f" {r.witness}"
        out.append(line)
    return out


def _first_failure(name: str, cases, holds, describe) -> LawResult:
    """The result of one law over argument tuples: it fails at the first
    case where holds(*case) is false, with describe(*case) as witness."""
    for case in cases:
        if not holds(*case):
            return LawResult(name, False, describe(*case))
    return LawResult(name, True)


def _fmt_label(label) -> str:
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(map(str, label))) + "}"
    return str(label)


def show_element(algebra: TensorAlgebra, a: GradedElement) -> str:
    'A short human-readable form, by maximal tuples per degree.'
    if a.is_bottom:
        return "0"
    L = algebra.lattice
    bits = []
    for w, comp in a.parts:
        terms = sorted(
            "*".join(_fmt_label(L.label(algebra.irr[p])) for p in t)
            for t in algebra.maximal_tuples(comp))
        bits.append(f"{w or 'eps'}:{'+'.join(terms)}")
    return " | ".join(bits)


class _Factor(Record):
    """One factor of a product, for every case of a law's grid at once:
    case i reads row row[i] of table, a stack of transformer tables, and
    has degree degree[i] and is nonzero where live[i]; involute holds the
    involutes' tables, row for row.  A factor that is the same in every
    case has scalars there."""

    __slots__ = _fields = ("table", "row", "degree", "live", "involute")


class _Suite:
    """What both law suites share for one diamond pair: the frame's
    SampleGrids, and for each sample, computed once, its transformer
    table, its involute's table, its degree and whether it is bottom.

    A law is written once, as holds(o, *factors) over a vocabulary o: ss
    (the support of a product), sig (a support as a scalar), inv, fixed (a
    constant element), leq, meet and ==.  Every word reads a sample only
    through those four values, so samples that agree on all four are
    interchangeable: every case gets the same verdict, and the same
    overflow mark, as the case of its classes' representatives.  law()
    runs holds with this object as o, on whole index arrays over tuples
    of classes, so that every case has its verdict while no grid is ever
    listed.  ss is a right fold of table lookups over every case, and it
    marks the cases whose product would raise DepthExceeded.  At the first case in grid
    order that fails or overflows, law() runs holds again on that case's
    graded elements, through support_of_product: that raises
    DepthExceeded there exactly as the element-wise scan did, and
    anywhere else it must agree that the law fails.
    """

    def __init__(self, algebra: TensorAlgebra, dia, bdia, samples):
        L = algebra.lattice
        grids = (samples if isinstance(samples, SampleGrids)
                 else SampleGrids(algebra, samples))
        if grids.algebra is not algebra:
            raise ValueError("sample grids belong to a different algebra")
        self.algebra = algebra
        self.grids = grids
        self.dia = dia = tuple(dia)
        self.bdia = bdia = tuple(bdia)
        self.samples = grids.samples
        stack = lambda es: np.array(
            [algebra.transformer(dia, bdia, e) for e in es],
            dtype=np.int64).reshape(-1, L.n)
        self.tables = stack(self.samples)
        self.inv_tables = stack(grids.involutes)
        # the scalars embed(x); in a frame each is the meet row of x
        self.scalars = stack(map(algebra.embed, range(L.n)))
        self.degrees = grids.degrees
        self.live = grids.live
        keys = np.column_stack((self.tables, self.inv_tables, self.degrees,
                                self.live))
        # each class by its least sample, classes in the order of those
        _, reps = np.unique(keys, axis=0, return_index=True)
        self.reps = np.sort(reps)
        self.over = np.zeros(0, dtype=bool)
        ss = lambda *es: algebra.support_of_product(dia, bdia, es)
        self.elements = SimpleNamespace(
            ss=ss, sig=lambda a: algebra.embed(ss(a)), inv=algebra.inv,
            fixed=lambda e: e, leq=L.leq, meet=L.meet)

    # --- the law vocabulary over index arrays -----------------------------

    def ss(self, *factors) -> np.ndarray:
        L = self.algebra.lattice
        y = np.full(len(self.over), L.top, dtype=np.int64)
        live, degree = True, 0
        for f in reversed(factors):
            y = f.table[f.row, y]
            live = live & f.live
            degree = degree + f.degree
        self.over |= live & (degree > self.algebra.depth)
        return np.where(live, y, L.bottom)

    def sig(self, f: _Factor) -> _Factor:
        s = self.ss(f)
        return _Factor(self.scalars, s, 0, s != self.algebra.lattice.bottom,
                       self.scalars)

    def inv(self, f: _Factor) -> _Factor:
        return _Factor(f.involute, f.row, f.degree, f.live, f.table)

    def fixed(self, e: GradedElement) -> _Factor:
        A = self.algebra
        table = np.array([A.transformer(self.dia, self.bdia, e)])
        return _Factor(table, 0, A.degree(e), not e.is_bottom, None)

    def leq(self, x, y):
        return self.algebra.lattice.leq_matrix[x, y]

    def meet(self, x, y):
        return self.algebra.lattice.meet_matrix[x, y]

    # --- running a law ----------------------------------------------------

    def _bad(self, cases: np.ndarray, holds) -> np.ndarray:
        'Where holds fails or a product overflows, over the rows of cases.'
        self.over = np.zeros(len(cases), dtype=bool)
        ok = holds(self, *(_Factor(self.tables, rows, self.degrees[rows],
                                   self.live[rows], self.inv_tables)
                           for rows in cases.T))
        return ~ok | self.over

    def law(self, name: str, grid: FullGrid, holds, describe) -> LawResult:
        """One law over every case of a grid, tuples of sample indices.

        It is decided on every tuple of classes that fits the grid's depth
        filter, and never listed: fitting reads only degrees, which a
        class shares, and each representative is the least sample of its
        class, with the classes in the order of their representatives.
        So the first such tuple that fails or overflows, in np.indices
        order, is the first case of the grid that does.
        """
        rows = self._class_tuples(grid.arity)
        if grid.weights is not None:
            rows = rows[self.grids.fits(rows, grid.weights,
                                        grid.extra_degree)]
        bad = self._bad(rows, holds)
        if not bad.any():
            return LawResult(name, True)
        case = [self.samples[i] for i in rows[int(np.argmax(bad))]]
        if holds(self.elements, *case):
            raise InternalValidationFailed(
                f"law {name}: table and element folds disagree at "
                f"{describe(*case)}")
        return LawResult(name, False, describe(*case))

    def _class_tuples(self, arity: int) -> np.ndarray:
        'Every tuple of class representatives, in np.indices order.'
        shape = (len(self.reps),) * arity
        return self.reps[np.indices(shape).reshape(arity, -1).T]

    def show(self, a: GradedElement) -> str:
        return show_element(self.algebra, a)

    def pair(self, a: GradedElement, b: GradedElement) -> str:
        return f"a={self.show(a)} b={self.show(b)}"


def check_presupport_laws(algebra: TensorAlgebra, dia: Sequence[int],
                          bdia: Sequence[int], samples=None) -> list:
    """The support-law suite for the pre-support of a diamond pair.

    The first five laws hold for any join-preserving diamonds; the three
    conjugacy laws are theorems only when the pair is conjugate, so on an
    engineered non-conjugate pair they may fail while the rest still
    pass.  Laws over one sample check every sample, the pair laws every
    pair and conjugacy-c every triple: nothing is drawn.  samples is a
    list of graded elements, None for default_samples, or the frame's
    SampleGrids, which a caller checking several diamond pairs builds
    once and passes to every call; an empty list raises ValueError.  Every law reads the samples' transformer
    tables and is decided once per class of interchangeable samples (see
    _Suite).  Products of samples can exceed the configured depth, in
    which case DepthExceeded propagates; callers wanting the default grid
    of degree-2 samples need depth at least 8.
    """
    suite = _Suite(algebra, dia, bdia, samples)
    law, show, pair = suite.law, suite.show, suite.pair
    top = algebra.lattice.top
    return [
        _first_failure("unit-support", [()],
                       lambda: suite.elements.ss(algebra.unit) == top,
                       lambda: "unit"),
        law("support-below-unit", FullGrid(1),
            lambda o, a: o.leq(o.ss(a), top), show),
        law("support-idempotent", FullGrid(1),
            lambda o, a: o.ss(o.sig(a)) == o.ss(a), show),
        law("support-product", FullGrid(2),
            lambda o, a, b: o.ss(o.sig(a), b) == o.meet(o.ss(a), o.ss(b)),
            pair),
        law("stability", FullGrid(2),
            lambda o, a, b: o.ss(a, b) == o.ss(a, o.sig(b)), pair),
        law("conjugacy-a", FullGrid(1),
            lambda o, a: o.leq(o.ss(a), o.ss(a, o.inv(a))), show),
        law("conjugacy-b", FullGrid(2),
            lambda o, a, b: o.leq(o.ss(o.sig(a), b), o.ss(a, o.inv(a), b)),
            pair),
        law("conjugacy-c", FullGrid(3),
            lambda o, c, a, b: o.leq(o.ss(c, o.sig(a), b),
                                     o.ss(c, a, o.inv(a), b)),
            lambda c, a, b: f"c={show(c)} a={show(a)} b={show(b)}"),
    ]


def check_lemmaB_inequalities(algebra: TensorAlgebra, dia: Sequence[int],
                              bdia: Sequence[int], samples=None) -> list:
    """Support inequalities behind the modal-system quotients.

    The defining-pair family holds for conjugate diamonds; the T, K4 and
    S5 families are included only when the diamond pair satisfies the
    corresponding modal-class axioms, since that is their hypothesis.
    defining-pair checks every triple of samples and the pair laws every
    pair, none drawn.  samples is as for check_presupport_laws: a list,
    None, or the frame's SampleGrids, built once for all of its pairs.
    Every law reads the samples' transformer tables and is decided once
    per class of interchangeable samples (see _Suite).  Sample
    combinations whose sides would overflow the configured depth are
    dropped from a law's grid; if nothing fits, DepthExceeded.
    """
    L = algebra.lattice
    suite = _Suite(algebra, dia, bdia, samples)
    law, show, pair = suite.law, suite.show, suite.pair
    grids = suite.grids

    def eligible(grid):
        if grids.empty(grid):
            raise DepthExceeded(
                f"no sample instance fits within depth {algebra.depth}")
        return grid

    results = [law(
        "defining-pair", eligible(FullGrid(3, (1, 2, 1))),
        lambda o, a, t, b: o.leq(o.ss(a, o.sig(t), b),
                                 o.ss(a, t, o.inv(t), b)),
        lambda a, t, b: f"a={show(a)} t={show(t)} b={show(b)}")]

    eps_only = [(s,) for s in suite.samples if all(w == "" for w in s.words())]
    results.append(_first_failure(
        "eps-selfproduct", eps_only,
        lambda e: algebra.mul(e, algebra.inv(e)) == suite.elements.sig(e),
        show))

    t_class, k4_class, s5_class = (check_modal_class(L, dia, bdia, cls).ok
                                   for cls in ("T", "K4", "S5"))
    abar = algebra.alpha_bar("a")
    abar_inv = algebra.alpha_bar("A")

    def pairlaw(name, extra_degree, holds):
        grid = FullGrid(2, (1, 1), extra_degree)
        results.append(law(name, eligible(grid), holds, pair))

    if t_class:
        for name, mid in (("t-alpha", abar), ("t-alpha-inv", abar_inv)):
            pairlaw(name, 1, lambda o, a, b, mid=mid:
                    o.leq(o.ss(a, b), o.ss(a, o.fixed(mid), b)))
    if k4_class:
        for name, mid in (("k4-alpha", abar), ("k4-alpha-inv", abar_inv)):
            pairlaw(name, 2, lambda o, a, b, mid=mid:
                    o.leq(o.ss(a, o.fixed(mid), o.fixed(mid), b),
                          o.ss(a, o.fixed(mid), b)))
    if s5_class:
        pairlaw("s5-exchange", 1,
                lambda o, a, b: o.ss(a, o.fixed(abar), b)
                == o.ss(a, o.fixed(abar_inv), b))
    return results


def check_tensor_grading(algebra: TensorAlgebra) -> list:
    """Grading sanity of the truncated algebra itself, over the degrees up
    to min(depth, 3).

    The cover axiom concerns the join over all infinitely many degrees,
    so it is not checkable here; disjointness, the unit degree, the
    involution degree and degree additivity of products are.
    """
    max_degree = min(algebra.depth, 3)
    words = [""]
    for d in range(1, max_degree + 1):
        words += ["".join(p) for p in itertools.product(LETTERS, repeat=d)]
    tops = {w: algebra.alpha_bar(w) for w in words}
    pair = lambda u, v: f"{u!r},{v!r}"
    return [
        _first_failure("grading-disjoint",
                       ((u, v) for u in words for v in words if u != v),
                       lambda u, v: algebra.meet(tops[u], tops[v]).is_bottom,
                       pair),
        LawResult("grading-unit", tops[""] == algebra.unit),
        _first_failure("grading-involution", ((w,) for w in words),
                       lambda w: algebra.inv(tops[w]) == tops[word_inv(w)],
                       repr),
        _first_failure("grading-multiplication",
                       ((u, v) for u in words for v in words
                        if len(u) + len(v) <= max_degree),
                       lambda u, v: algebra.leq(algebra.mul(tops[u], tops[v]),
                                                tops[u + v]),
                       pair),
    ]


# --- finite gradings ------------------------------------------------------

class InvolutiveMonoid(Record):
    'A finite monoid with an involutive antiautomorphism, as tables.'

    __slots__ = _fields = ("labels", "mul", "inv", "unit")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = len(self.labels)
        for a in range(n):
            if self.mul[self.unit][a] != a or self.mul[a][self.unit] != a:
                raise ValueError(f"unit law fails at {self.labels[a]!r}")
            if self.inv[self.inv[a]] != a:
                raise ValueError(f"involution not involutive at {self.labels[a]!r}")
            for b in range(n):
                if self.inv[self.mul[a][b]] != self.mul[self.inv[b]][self.inv[a]]:
                    raise ValueError(
                        f"involution is not an antihomomorphism at "
                        f"({self.labels[a]!r}, {self.labels[b]!r})")
                for c in range(n):
                    if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                        raise ValueError(
                            f"associativity fails at ({self.labels[a]!r}, "
                            f"{self.labels[b]!r}, {self.labels[c]!r})")

    @property
    def n(self):
        return len(self.labels)


def z2_monoid() -> InvolutiveMonoid:
    return InvolutiveMonoid(("0", "1"), ((0, 1), (1, 0)), (0, 1), 0)


def trivial_monoid() -> InvolutiveMonoid:
    return InvolutiveMonoid(("e",), ((0,),), (0,), 0)


class GradingWitness(Record):
    'A finite quantale with a proposed degree family over a finite monoid.'

    __slots__ = _fields = ("quantale", "monoid", "family")


class CheckReport(Record):
    __slots__ = _fields = ("results",)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if not r.ok)

    def __bool__(self):
        return self.ok


def check_grading(w: GradingWitness) -> CheckReport:
    'The five degree-family conditions, plus the locale requirement.'
    q = w.quantale
    M = w.monoid
    fam = w.family
    if len(fam) != M.n:
        raise ValueError("family must assign one element per monoid degree")
    lat = getattr(q, "lattice", None)
    if lat is None:
        raise TypeError("grading checks need a table-backed quantale")
    degrees = range(M.n)
    pair = lambda m, n: f"{M.labels[m]!r},{M.labels[n]!r}"
    return CheckReport((
        LawResult("host-frame", lat.is_frame()),
        LawResult("cover", q.join_all(fam) == q.top),
        _first_failure("disjoint",
                       ((m, n) for m in degrees for n in degrees if m != n),
                       lambda m, n: q.meet(fam[m], fam[n]) == q.bottom, pair),
        _first_failure("mul-degree", itertools.product(degrees, repeat=2),
                       lambda m, n: q.leq(q.mul(fam[m], fam[n]),
                                          fam[M.mul[m][n]]),
                       pair),
        LawResult("unit-degree", fam[M.unit] == q.unit),
        _first_failure("inv-degree", ((m,) for m in degrees),
                       lambda m: q.leq(q.inv(fam[m]), fam[M.inv[m]]),
                       lambda m: repr(M.labels[m])),
    ))


def check_graded_nucleus(w: GradingWitness, nuc: Nucleus) -> CheckReport:
    """Component preservation, join decomposition, density, and quotient
    re-grading for a nucleus on a graded quantale.

    Join decomposition quantifies over arbitrary componentwise families:
    all of them when there are at most _FAMILIES = 4,096, else that many
    draws from Random(_SEED = 0).
    """
    q = w.quantale
    M = w.monoid
    fam = w.family
    if nuc.quantale is not q:
        raise ValueError("nucleus belongs to a different quantale")
    comps = [[a for a in range(q.n) if q.leq(a, fam[m])] for m in range(M.n)]
    results = [
        _first_failure("component-preserved",
                       ((m, a) for m in range(M.n) for a in comps[m]),
                       lambda m, a: q.leq(nuc(a), fam[m]),
                       lambda m, a: f"degree {M.labels[m]!r} element {a}"),
        _first_failure("join-decomposition",
                       _grid(comps, _FAMILIES, random.Random(_SEED)),
                       lambda *choice: nuc(q.join_all(choice))
                       == q.join_all(nuc(a) for a in choice),
                       lambda *choice: repr(choice)),
        LawResult("dense", nuc(q.bottom) == q.bottom),
    ]

    try:
        quot = quotient(q, nuc)
    except AlgebraError as exc:  # a broken quotient is itself the finding
        results.append(LawResult("quotient-regraded", False, str(exc)))
        return CheckReport(tuple(results))
    new_family = tuple(quot.projection[fam[m]] for m in range(M.n))
    sub = check_grading(GradingWitness(quot.quantale, M, new_family))
    for r in sub.results:
        results.append(LawResult(f"quotient-{r.name}", r.ok, r.witness))
    return CheckReport(tuple(results))
