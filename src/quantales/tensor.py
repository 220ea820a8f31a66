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
everything else by joins over the irreducible-tuple decomposition.  The
law suites below exercise the support laws, the modal-system
inequalities and the grading axioms on finite sample grids and report
plain `LAW <name> PASS|FAIL` lines.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .bimodal import check_modal_class
from .errors import AlgebraError, DepthExceeded, NotAFrame
from .lattice import FiniteSupLattice
from .nucleus import Nucleus, quotient

LETTERS = "aA"


def word_inv(w: str) -> str:
    'Involution on degree words: reverse and flip every letter.'
    return w[::-1].swapcase()


@dataclass(frozen=True)
class GradedElement:
    """A finite degree-indexed family of component elements.

    parts holds (word, down-set) pairs sorted by degree; absent words
    mean the bottom of their component.  Instances are built through a
    TensorAlgebra, never directly.
    """

    parts: tuple

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
        self._supp_cache = {}
        self.unit = self.embed(lattice.top)
        self.bottom = GradedElement(())

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

    def pre_support(self, dia: Sequence[int], bdia: Sequence[int],
                    a: GradedElement) -> int:
        """The pre-support of a graded element, as a lattice element.

        Pure tensors follow the recursion s(x0 (x) rest) = x0 /\\ <w1>(s rest);
        a general element is the join over the maximal tuples of each of
        its components.
        """
        return self.support_of_product(dia, bdia, (a,))

    def support_of_product(self, dia: Sequence[int], bdia: Sequence[int],
                           elems) -> int:
        """The pre-support of a product, without materializing the product.

        Each factor is decomposed into its maximal pure tensors; a
        product of pure tensors is again pure (adjacent slots meet), and
        on pure tensors with arbitrary slots the support recursion
        distributes over the slotwise irreducible decomposition because
        the base is a frame and the diamonds preserve joins.  The degree
        bound still applies: a combination whose concatenated degree
        exceeds the depth raises DepthExceeded, exactly as the
        materialized product would.
        """
        L = self.lattice
        dia = tuple(dia)
        bdia = tuple(bdia)
        decomps = []
        for e in elems:
            gens = [(w, tuple(self.irr[p] for p in t))
                    for w, comp in e.parts
                    for t in self.maximal_tuples(comp)]
            if not gens:
                return L.bottom
            decomps.append(gens)
        out = L.bottom
        for combo in itertools.product(*decomps):
            word = "".join(w for w, _ in combo)
            if len(word) > self.depth:
                raise DepthExceeded(
                    f"product degree {word!r} exceeds depth {self.depth}")
            slots = combo[0][1] if combo else (L.top,)
            for _, more in combo[1:]:
                slots = slots[:-1] + (L.meet(slots[-1], more[0]),) + more[1:]
            out = L.join(out, self._support_slots(dia, bdia, word, slots))
            if out == L.top:
                break
        return out

    def _support_slots(self, dia, bdia, w, slots) -> int:
        key = (dia, bdia, w, slots)
        got = self._supp_cache.get(key)
        if got is not None:
            return got
        L = self.lattice
        cur = slots[-1]
        for i in range(len(w) - 1, -1, -1):
            step = dia[cur] if w[i] == "a" else bdia[cur]
            cur = L.meet(slots[i], step)
        self._supp_cache[key] = cur
        return cur


# --- sample grids ---------------------------------------------------------

# The seed and the budgets of the law checks' one sampling rule, _grid.
_SEED = 0
_PRESUPPORT_PAIRS = 25000
_LEMMA_B_PAIRS = 4000
_TRIPLES = 4000
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


# --- reports --------------------------------------------------------------

@dataclass(frozen=True)
class LawResult:
    name: str
    ok: bool
    witness: str = ""

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


def _law_suite(algebra: TensorAlgebra, dia, bdia, samples):
    """What both law suites share: the samples, the pre-support of a
    product (ss), its scalar embedding (sig), a sample printer (show) and
    a printer for a pair of samples (pair)."""
    if samples is None:
        samples = default_samples(algebra)
    dia = tuple(dia)
    bdia = tuple(bdia)
    ss = lambda *es: algebra.support_of_product(dia, bdia, es)
    sig = lambda a: algebra.embed(ss(a))
    show = lambda a: show_element(algebra, a)
    pair = lambda a, b: f"a={show(a)} b={show(b)}"
    return samples, ss, sig, show, pair


def check_presupport_laws(algebra: TensorAlgebra, dia: Sequence[int],
                          bdia: Sequence[int], samples=None) -> list:
    """The support-law suite for the pre-support of a diamond pair.

    The first five laws hold for any join-preserving diamonds; the three
    conjugacy laws are theorems only when the pair is conjugate, so on an
    engineered non-conjugate pair they may fail while the rest still
    pass.  Laws over one sample check every sample; the pair laws check
    every pair up to _PRESUPPORT_PAIRS = 25,000 pairs and conjugacy-c
    every triple up to _TRIPLES = 4,000, above which they check that many
    draws from one Random(_SEED = 0).  Products of samples can exceed the
    configured depth, in which case DepthExceeded propagates; callers
    wanting the default grid of degree-2 samples need depth at least 8.
    """
    L = algebra.lattice
    samples, ss, sig, show, pair = _law_suite(algebra, dia, bdia, samples)
    rng = random.Random(_SEED)
    inv = algebra.inv
    each = [(a,) for a in samples]
    pairs = lambda: _grid((samples, samples), _PRESUPPORT_PAIRS, rng)
    return [
        _first_failure("unit-support", [()],
                       lambda: ss(algebra.unit) == L.top, lambda: "unit"),
        _first_failure("support-below-unit", each,
                       lambda a: L.leq(ss(a), L.top), show),
        _first_failure("support-idempotent", each,
                       lambda a: ss(sig(a)) == ss(a), show),
        _first_failure("support-product", pairs(),
                       lambda a, b: ss(sig(a), b) == L.meet(ss(a), ss(b)),
                       pair),
        _first_failure("stability", pairs(),
                       lambda a, b: ss(a, b) == ss(a, sig(b)), pair),
        _first_failure("conjugacy-a", each,
                       lambda a: L.leq(ss(a), ss(a, inv(a))), show),
        _first_failure("conjugacy-b", pairs(),
                       lambda a, b: L.leq(ss(sig(a), b), ss(a, inv(a), b)),
                       pair),
        _first_failure("conjugacy-c", _grid((samples,) * 3, _TRIPLES, rng),
                       lambda c, a, b: L.leq(ss(c, sig(a), b),
                                             ss(c, a, inv(a), b)),
                       lambda c, a, b:
                       f"c={show(c)} a={show(a)} b={show(b)}"),
    ]


def check_lemmaB_inequalities(algebra: TensorAlgebra, dia: Sequence[int],
                              bdia: Sequence[int], samples=None) -> list:
    """Support inequalities behind the modal-system quotients.

    The defining-pair family holds for conjugate diamonds; the T, K4 and
    S5 families are included only when the diamond pair satisfies the
    corresponding modal-class axioms, since that is their hypothesis.
    defining-pair checks every triple of samples up to _TRIPLES = 4,000
    and the pair laws every pair up to _LEMMA_B_PAIRS = 4,000, above
    which they check that many draws from one Random(_SEED = 0).  Sample
    combinations whose sides would overflow the configured depth are
    dropped from a law's grid; if nothing fits, DepthExceeded.
    """
    L = algebra.lattice
    samples, ss, sig, show, pair = _law_suite(algebra, dia, bdia, samples)
    rng = random.Random(_SEED)

    def deg(e):
        return max((len(w) for w in e.words()), default=0)

    def eligible(cases, need):
        kept = [case for case in cases if need(*case) <= algebra.depth]
        if not kept:
            raise DepthExceeded(
                f"no sample instance fits within depth {algebra.depth}")
        return kept

    results = [_first_failure(
        "defining-pair",
        eligible(_grid((samples,) * 3, _TRIPLES, rng),
                 lambda a, t, b: deg(a) + 2 * deg(t) + deg(b)),
        lambda a, t, b: L.leq(ss(a, sig(t), b), ss(a, t, algebra.inv(t), b)),
        lambda a, t, b: f"a={show(a)} t={show(t)} b={show(b)}")]

    eps_only = [(s,) for s in samples if all(w == "" for w in s.words())]
    results.append(_first_failure(
        "eps-selfproduct", eps_only,
        lambda e: algebra.mul(e, algebra.inv(e)) == sig(e), show))

    t_class, k4_class, s5_class = (check_modal_class(L, dia, bdia, cls).ok
                                   for cls in ("T", "K4", "S5"))
    abar = algebra.alpha_bar("a")
    abar_inv = algebra.alpha_bar("A")

    def pairlaw(name, extra_degree, holds):
        cases = eligible(_grid((samples, samples), _LEMMA_B_PAIRS, rng),
                         lambda a, b: deg(a) + deg(b) + extra_degree)
        results.append(_first_failure(name, cases, holds, pair))

    if t_class:
        for name, mid in (("t-alpha", abar), ("t-alpha-inv", abar_inv)):
            pairlaw(name, 1, lambda a, b, mid=mid:
                    L.leq(ss(a, b), ss(a, mid, b)))
    if k4_class:
        for name, mid in (("k4-alpha", abar), ("k4-alpha-inv", abar_inv)):
            pairlaw(name, 2, lambda a, b, mid=mid:
                    L.leq(ss(a, mid, mid, b), ss(a, mid, b)))
    if s5_class:
        pairlaw("s5-exchange", 1,
                lambda a, b: ss(a, abar, b) == ss(a, abar_inv, b))
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

@dataclass(frozen=True)
class InvolutiveMonoid:
    'A finite monoid with an involutive antiautomorphism, as tables.'

    labels: tuple
    mul: tuple
    inv: tuple
    unit: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class GradingWitness:
    'A finite quantale with a proposed degree family over a finite monoid.'

    quantale: object
    monoid: InvolutiveMonoid
    family: tuple


@dataclass(frozen=True)
class CheckReport:
    results: tuple

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
