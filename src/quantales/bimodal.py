"""Conjugate diamond pairs on finite frames, and their box adjoints.

The two diamonds of a supported quantale with a chosen point act on the
support locale; this module works with that shape abstractly: a frame, two
join-preserving endomaps, and the conjugacy inequalities tying them.
Endomaps are stored as full value tables but are determined by their
action on join-irreducibles, which is how the sweep helpers enumerate them
and where join preservation and conjugacy are decided.  A point's two
diamonds are its diamond tables, extended by diamond_image over the masks
of relations.LocaleMasks: diamonds_from_point tabulates them over the
locale.  The decision of conjugacy on join-irreducibles,
conjugacy_witness_on_irreducibles, lives in the numpy-free axioms module,
beside check_point_diamonds, which reads a point's diamonds on the
irreducibles alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from .axioms import conjugacy_witness_on_irreducibles
from .errors import (
    InternalValidationFailed,
    LawCheck,
    NotAFrame,
    NotConjugate,
    NotJoinPreserving,
)
from .lattice import FiniteSupLattice, map_table, right_adjoint
from .quantale import SupportLocale, irreducible_split, supports_locale
from .relations import MODAL_SYSTEMS, diamond_image


def join_preservation_witness(L: FiniteSupLattice, table: Sequence[int]):
    """None, or the first pair of elements where f(a v b) != f(a) v f(b).

    On a distributive carrier the split lemma of irreducible_split accepts
    in n tests; a failure there, or any other carrier, scans every pair.
    A table that does not map the carrier into itself raises ValueError."""
    t = map_table(L, table)
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
        map_table(L, t)


def _require_join_preserving(L: FiniteSupLattice, dia, bdia) -> None:
    'The preconditions of check_conjugacy and box_adjoints.'
    _require_maps(L, dia, bdia)
    for name, t in (("first", dia), ("second", bdia)):
        w = join_preservation_witness(L, t)
        if w is not None:
            raise NotJoinPreserving(f"{name} map is not join-preserving at {w}")


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
