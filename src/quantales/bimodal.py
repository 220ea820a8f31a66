"""Conjugate diamond pairs on finite frames, and their box adjoints.

The two diamonds of a supported quantale with a chosen point act on the
support locale; this module works with that shape abstractly: a frame, two
join-preserving endomaps, and the conjugacy inequalities tying them.
Endomaps are stored as full value tables but are determined by their
action on join-irreducibles, which is how the sweep helpers enumerate them
and where join preservation and conjugacy are decided.  A point's two
diamonds are its diamond tables, extended by diamond_image over the masks
of relations.LocaleMasks: diamonds_from_point tabulates them over the
locale, and check_point_diamonds reads them on the irreducibles alone.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    InternalValidationFailed,
    LawCheck,
    NotAFrame,
    NotConjugate,
    NotJoinPreserving,
)
from .lattice import FiniteSupLattice, right_adjoint
from .quantale import (
    SupportLocale,
    check_locale_laws,
    irreducible_split,
    supports_locale,
)
from .relations import MODAL_SYSTEMS, LocaleMasks, diamond_image


def join_preservation_witness(L: FiniteSupLattice, table: Sequence[int]):
    """None, or the first pair of elements where f(a v b) != f(a) v f(b).

    On a distributive carrier the split lemma of irreducible_split accepts
    in n tests; a failure there, or any other carrier, scans every pair."""
    t = np.asarray(table, dtype=np.int64)
    if t[L.bottom] != L.bottom:
        return (L.bottom, L.bottom)
    J = L.join_matrix
    split = irreducible_split(L)
    if split is not None:
        _, xs, jx, rx = split
        if (t[xs] == J[t[jx], t[rx]]).all():
            return None
    bad = t[J] != J[np.ix_(t, t)]
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def _require_maps(L: FiniteSupLattice, *tables: Sequence[int]) -> None:
    'ValueError unless every table maps the carrier into itself.'
    for t in tables:
        if len(t) != L.n or not all(0 <= v < L.n for v in t):
            raise ValueError("map table does not map the carrier into itself")


def _require_join_preserving(L: FiniteSupLattice, dia, bdia) -> None:
    'The preconditions of check_conjugacy and box_adjoints.'
    _require_maps(L, dia, bdia)
    for name, t in (("first", dia), ("second", bdia)):
        w = join_preservation_witness(L, t)
        if w is not None:
            raise NotJoinPreserving(f"{name} map is not join-preserving at {w}")


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


def _conjugacy_inequalities(L: FiniteSupLattice, dia: Sequence[int],
                            bdia: Sequence[int]) -> LawCheck:
    'Both conjugacy inequalities at every (x, y), for join-preserving maps.'
    # a scalar scan, so that a failing pair stops at its first bad cell
    leq, meet = L.leq_matrix.item, L.meet_matrix.item
    for x in range(L.n):
        for y in range(L.n):
            if not leq(meet(dia[x], y), dia[meet(x, bdia[y])]):
                return LawCheck(False, "forward", (x, y))
            if not leq(meet(bdia[x], y), bdia[meet(x, dia[y])]):
                return LawCheck(False, "backward", (x, y))
    return LawCheck(True)


def check_conjugacy(L: FiniteSupLattice, dia: Sequence[int],
                    bdia: Sequence[int]) -> LawCheck:
    """Both conjugacy inequalities, exhaustively.

    The tables are preconditions, checked first: one that does not map the
    carrier into itself raises ValueError, and one that does not preserve
    joins raises NotJoinPreserving, not a conjugacy failure.  On a frame
    the inequalities are decided on the join-irreducibles
    (conjugacy_witness_on_irreducibles); a failure there, or a lattice
    that is not a frame, runs the scan over every pair, which names the
    first failing (x, y)."""
    _require_join_preserving(L, dia, bdia)
    if L.is_frame() and conjugacy_witness_on_irreducibles(
            L, L.join_irreducibles(), dia.__getitem__,
            bdia.__getitem__) is None:
        return LawCheck(True)
    return _conjugacy_inequalities(L, dia, bdia)


class BimodalFrame:
    'A frame with a validated conjugate pair of join-preserving diamonds.'

    def __init__(self, frame: FiniteSupLattice, dia: Sequence[int],
                 bdia: Sequence[int]):
        _require_maps(frame, dia, bdia)
        if not frame.is_frame():
            raise NotAFrame("bimodal structure needs a frame")
        check = check_conjugacy(frame, dia, bdia)
        if not check:
            raise NotConjugate(
                f"{check.law} conjugacy fails at {check.witness}")
        self.frame = frame
        self.dia = tuple(dia)
        self.bdia = tuple(bdia)

    def __repr__(self):
        return f"BimodalFrame(n={self.frame.n})"


def diamonds_from_point(q, alpha: int,
                        locale: SupportLocale | None = None) -> BimodalFrame:
    """The two diamonds induced on the support locale by a point element.

    dia(x) = s(alpha x) and bdia(x) = s(alpha- x), diamond_image of the
    point's diamond tables (NoStableSupport without a support).  Conjugacy
    here is a theorem, so a failure raises InternalValidationFailed.
    """
    tables = q.diamond_table(alpha), q.diamond_table(alpha, converse=True)
    loc = supports_locale(q) if locale is None else locale
    masks = [q.locale_mask(x) for x in loc.q_elements]
    at = {m: i for i, m in enumerate(masks)}
    dia, bdia = ([at[diamond_image(t, m)] for m in masks] for t in tables)
    try:
        return BimodalFrame(loc.lattice, dia, bdia)
    except NotConjugate as exc:
        raise InternalValidationFailed(f"point diamonds not conjugate: {exc}") from exc


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


def box_adjoints(L: FiniteSupLattice, dia: Sequence[int],
                 bdia: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Right adjoints: box to the second diamond, black box to the first.

    box(y) joins the irreducibles the second diamond keeps below y, so
    that bdia(x) <= y iff x <= box(y); the black box does the same for dia.
    The two adjunctions are verified exhaustively before returning; the
    preconditions of check_conjugacy, join preservation, are checked first.
    """
    _require_join_preserving(L, dia, bdia)
    irr = L.join_irreducibles()
    box = tuple(right_adjoint(L, irr, bdia.__getitem__, y) for y in range(L.n))
    bbox = tuple(right_adjoint(L, irr, dia.__getitem__, y) for y in range(L.n))
    for x in range(L.n):
        for y in range(L.n):
            if L.leq(bdia[x], y) != L.leq(x, box[y]):
                raise InternalValidationFailed(f"box adjunction fails at {(x, y)}")
            if L.leq(dia[x], y) != L.leq(x, bbox[y]):
                raise InternalValidationFailed(f"black box adjunction fails at {(x, y)}")
    return box, bbox


# Each frame condition of MODAL_SYSTEMS as named laws on a diamond pair,
# checked at every element x.
_PAIR_LAWS = {
    "reflexive": (("T-dia", lambda L, dia, bdia, x: L.leq(x, dia[x])),
                  ("T-bdia", lambda L, dia, bdia, x: L.leq(x, bdia[x]))),
    "transitive": (
        ("K4-dia", lambda L, dia, bdia, x: L.leq(dia[dia[x]], dia[x])),
        ("K4-bdia", lambda L, dia, bdia, x: L.leq(bdia[bdia[x]], bdia[x]))),
    "symmetric": (
        ("S5-selfconjugate", lambda L, dia, bdia, x: dia[x] == bdia[x]),),
}


def check_modal_class(L: FiniteSupLattice, dia: Sequence[int],
                      bdia: Sequence[int], cls: str) -> LawCheck:
    """Inclusion in one of the modal classes T, K4, S4, S5.

    T: x <= dia x and x <= bdia x.  K4: dia dia x <= dia x and likewise
    for bdia.  S4 is both; S5 is S4 with the two diamonds equal.
    """
    if cls not in MODAL_SYSTEMS:
        raise ValueError(f"unknown modal class {cls!r}")
    _require_maps(L, dia, bdia)
    for condition in MODAL_SYSTEMS[cls]:
        for x in range(L.n):
            for law, holds in _PAIR_LAWS[condition]:
                if not holds(L, dia, bdia, x):
                    return LawCheck(False, law, (x,))
    return LawCheck(True)


def join_preserving_endomaps(L: FiniteSupLattice) -> Iterator[tuple[int, ...]]:
    """Every join-preserving endomap of a frame, by monotone choices on the
    join-irreducibles extended through joins."""
    if not L.is_frame():
        raise NotAFrame("endomap enumeration relies on irreducible decomposition")
    irr = L.join_irreducibles()
    below = [(i, k) for i, ji in enumerate(irr) for k, jk in enumerate(irr)
             if L.leq(ji, jk)]
    for values in itertools.product(range(L.n), repeat=len(irr)):
        if all(L.leq(values[i], values[k]) for i, k in below):
            yield tuple(L.join_all(values[i] for i, ji in enumerate(irr)
                                   if L.leq(ji, x)) for x in range(L.n))


def conjugate_pairs(L: FiniteSupLattice) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All conjugate pairs of join-preserving endomaps on a frame.

    The maps are built join-preserving, so each pair is decided by
    conjugacy_witness_on_irreducibles alone, without the preconditions of
    check_conjugacy."""
    maps = list(join_preserving_endomaps(L))
    irr = L.join_irreducibles()
    for dia in maps:
        for bdia in maps:
            if conjugacy_witness_on_irreducibles(
                    L, irr, dia.__getitem__, bdia.__getitem__) is None:
                yield dia, bdia
