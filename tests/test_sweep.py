"""sweep over one representative per isomorphism class of points.

relations.system_classes is held to the OEIS counts of classes and of
labelled relations, and to the classes found by renaming every code; the
command is held to the loop over every code of the class
(oracles.sweep_by_codes): the same stdout and exit code.
"""

import itertools

import pytest

import quantales.cli
import quantales.relations
from oracles import sweep_by_codes
from quantales.cli import main
from quantales.relations import (
    MODAL_SYSTEMS, POINT_CONDITIONS, RelationQuantale, decode, encode,
    system_classes,
)

# classes of points at 1..5 worlds
CLASSES = {
    "T": (1, 3, 16, 218, 9608),        # A000273: reflexive relations, digraphs
    "K4": (2, 8, 39, 242, 1895),       # A091073: transitive relations
    "S4": (1, 3, 9, 33, 139),          # A001930: preorders
    "S5": (1, 2, 3, 5, 7),             # A000041: partitions
}
# labelled points at 1..5 worlds
LABELLED = {
    "T": tuple(2 ** (n * (n - 1)) for n in range(1, 6)),
    "K4": (2, 13, 171, 3994, 154303),  # A006905
    "S4": (1, 4, 29, 355, 6942),       # A000798
    "S5": (1, 2, 5, 15, 52),           # A000110: Bell numbers
}
# the largest world count each system is generated at in these tests: at
# 5 worlds T and K4 have thousands of classes, S4 and S5 a few hundred
TIER1_WORLDS = {"T": 4, "K4": 4, "S4": 5, "S5": 5}


@pytest.mark.parametrize("system", list(MODAL_SYSTEMS))
def test_class_counts_and_orbit_sums_match_oeis(system):
    levels = system_classes(TIER1_WORLDS[system], system)
    for n, classes in enumerate(levels, 1):
        assert len(classes) == CLASSES[system][n - 1], n
        assert sum(orbit for _, orbit in classes) == LABELLED[system][n - 1], n


def _classes_by_renaming(n, system):
    'Every code of the class grouped by its least image over all renamings.'
    q = RelationQuantale(range(n))
    orbits = {}
    for code in range(2 ** (n * n)):
        if all(q.leq(POINT_CONDITIONS[c](q, code), code)
               for c in MODAL_SYSTEMS[system]):
            pairs = decode(code, n)
            images = {encode(((s[i], s[j]) for i, j in pairs), n)
                      for s in itertools.permutations(range(n))}
            orbits[min(images)] = len(images)
    return sorted(orbits.items())


@pytest.mark.parametrize("system", list(MODAL_SYSTEMS))
def test_representatives_are_the_least_codes_of_their_classes(system):
    assert list(system_classes(3, system)) == \
        [_classes_by_renaming(n, system) for n in range(1, 4)]


@pytest.mark.parametrize("system", ["T", "S5"])
def test_only_extensions_of_representatives_are_tested(system, monkeypatch,
                                                       capsys):
    # in a whole sweep, the class test runs once per way of adding a world
    # to a representative, each level grown once: far fewer times than
    # there are codes
    first = MODAL_SYSTEMS[system][0]
    condition = POINT_CONDITIONS[first]
    calls = []

    def counted(q, alpha):
        calls.append(alpha)
        return condition(q, alpha)

    monkeypatch.setitem(quantales.relations.POINT_CONDITIONS, first, counted)
    n = TIER1_WORLDS[system]
    assert main(["sweep", "--worlds", str(n), "--system", system,
                 "--scheme", "p -> p"]) == 0
    assert capsys.readouterr().out.startswith("SWEEP PASS")
    classes = (1,) + CLASSES[system]
    assert len(calls) == sum(classes[m - 1] * 2 ** (2 * m - 1)
                             for m in range(1, n + 1))
    assert len(calls) < 2 ** (n * n) / 20


def test_sweep_builds_one_model_per_class(monkeypatch, capsys):
    points = []
    model = quantales.cli.PointedModel

    def counted(q, alpha, *args, **kwargs):
        points.append((q.nw, alpha))
        return model(q, alpha, *args, **kwargs)

    monkeypatch.setattr(quantales.cli, "PointedModel", counted)
    assert main(["sweep", "--worlds", "4", "--system", "S4",
                 "--scheme", "[]p -> p"]) == 0
    assert capsys.readouterr().out == "SWEEP PASS models=5930\n"
    assert points == [(n, code) for n, classes
                      in enumerate(system_classes(4, "S4"), 1)
                      for code, _ in classes]


SCHEMES = {
    "T": "[]p -> p",
    "4": "[]p -> [][]p",
    "B": "p -> []<>p",
    "5": "<>p -> []<>p",
    "D": "[]p -> <>p",
    # valid on reflexive frames of up to 3 worlds: a shortest path visits
    # each world once; the 4-world chain breaks it
    "3to2": "<><><>p -> <><>p",
    # two atoms: holds on transitive frames, fails first at 3 worlds on T
    "two": "<>(p /\\ <>q) -> <>q",
    "two-B": "<>p /\\ q -> <>(p /\\ <>q)",
}


def _sweep(capsys, worlds, system, scheme):
    code = main(["sweep", "--worlds", str(worlds), "--system", system,
                 "--scheme", scheme])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("system", list(MODAL_SYSTEMS))
@pytest.mark.parametrize("name", list(SCHEMES))
def test_sweep_matches_the_loop_over_every_code(capsys, system, name):
    scheme = SCHEMES[name]
    # two atoms mean 256 valuations a model at 4 worlds, too many for the
    # loop over every code where the scheme holds there
    top = 3 if name.startswith("two") and system in ("K4", "S4") else 4
    for worlds in range(1, top + 1):
        assert _sweep(capsys, worlds, system, scheme) == \
            sweep_by_codes(worlds, system, scheme), worlds


def test_the_late_countermodel_is_found_at_4_worlds(capsys):
    code, out = _sweep(capsys, 4, "T", SCHEMES["3to2"])
    assert code == 1 and out.startswith("INFO worlds=4 ")
    assert _sweep(capsys, 3, "T", SCHEMES["3to2"]) == \
        (0, "SWEEP PASS models=530\n")


@pytest.mark.parametrize("system, scheme, atoms", [
    ("S4", "[]p -> p", 1),
    ("S4", "[]p -> [][]p", 1),
    ("S5", "<>p /\\ q -> <>(p /\\ <>q)", 2),
])
def test_sweep_at_5_worlds_counts_every_labelled_model(
        capsys, system, scheme, atoms):
    models = sum(LABELLED[system][n - 1] * 2 ** (n * atoms)
                 for n in range(1, 6))
    assert _sweep(capsys, 5, system, scheme) == \
        (0, f"SWEEP PASS models={models}\n")
