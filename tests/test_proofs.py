"""Each law is proved once per result, by one implementation.

The checkers are wrapped and their calls counted; the closure-law checker
is held to the element-by-element loop that ClosureOperator ran before it.
"""

import itertools

import pytest

import quantales.axioms
import quantales.bimodal
import quantales.lattice
import quantales.nucleus
import quantales.quantale
from quantales.bimodal import (
    check_conjugacy,
    conjugate_pairs,
    join_preserving_endomaps,
)
from quantales.cli import main
from quantales.errors import AlgebraError, NotAClosureOperator, NotANucleus
from quantales.lattice import (
    ClosureOperator,
    chain_lattice,
    closure_from_meet_closed,
    closure_law_check,
    diamond_lattice,
    powerset_lattice,
)
from quantales.nucleus import (
    Nucleus,
    is_nucleus,
    least_nucleus,
    nucleus_join,
    quotient,
)
from quantales.parsing import document_table, parse_model
from quantales.quantale import (
    Quantale,
    make_quantale,
    relation_quantale,
    with_derived_support,
)
from quantales.relations import check_point_properties, system_pairs

from oracles import tables

THREE_WORLDS = """
MODE classical
WORLDS u v w
REL alpha (u,v) (v,w) (w,w)
VAL p u
"""

TWO_WORLDS = """
MODE classical
WORLDS u v
REL alpha (u,v)
VAL p u
"""


def counting(monkeypatch, owners, name):
    'Replace owner.name in every owner by one wrapper; return its call list.'
    calls = []
    real = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="module")
def rq2():
    return relation_quantale("ab")


@pytest.fixture
def closure_checks(monkeypatch):
    return counting(monkeypatch, [quantales.lattice, quantales.nucleus],
                    "closure_law_check")


# --- closure laws ---------------------------------------------------------

def _loop_closure_check(L, j):
    """The closure laws one element at a time, as ClosureOperator checked
    them before closure_law_check: (law, witness, message) or None."""
    name = L.labels
    for a in range(L.n):
        if not L.leq(a, j[a]):
            return "increasing", (a,), f"not increasing at {name[a]!r}"
        if j[j[a]] != j[a]:
            return "idempotent", (a,), f"not idempotent at {name[a]!r}"
        for b in range(L.n):
            if L.leq(a, b) and not L.leq(j[a], j[b]):
                return ("monotone", (a, b),
                        f"not monotone on {name[a]!r} <= {name[b]!r}")
    return None


@pytest.mark.parametrize("L", [chain_lattice(3), chain_lattice(4),
                               diamond_lattice(), powerset_lattice("ab")],
                         ids=["chain3", "chain4", "diamond", "powerset2"])
def test_closure_checker_matches_the_element_loop(L):
    for t in itertools.product(range(L.n), repeat=L.n):
        want = _loop_closure_check(L, t)
        check = closure_law_check(L, t)
        try:
            ClosureOperator(L, t)
            message = None
        except NotAClosureOperator as exc:
            message = str(exc)
        if want is None:
            assert check.ok and message is None
        else:
            assert (check.law, check.witness, message) == want


def test_nucleus_raises_what_the_closure_and_nucleus_checks_raise():
    # the diamond as a quantale: mul = meet, inv = support = identity
    L = diamond_lattice()
    ident = list(range(L.n))
    q = make_quantale(L, tables(L)[1], ident, L.top, support=ident)
    for t in itertools.product(range(L.n), repeat=L.n):
        want = _loop_closure_check(L, t)
        if want is None:
            check = is_nucleus(q, t)
            want = None if check else (
                NotANucleus, f"law {check.law} fails at {check.witness}")
        else:
            want = NotAClosureOperator, want[2]
        try:
            Nucleus(q, t)
            got = None
        except AlgebraError as exc:
            got = type(exc), str(exc)
        assert got == want


def test_a_closure_operator_is_checked_once(closure_checks):
    ClosureOperator(chain_lattice(3), (1, 1, 2))
    assert len(closure_checks) == 1


def test_a_nucleus_is_checked_once(rq2, closure_checks, monkeypatch):
    nucleus_checks = counting(monkeypatch, [quantales.nucleus], "is_nucleus")
    Nucleus(rq2, range(rq2.n))
    assert len(closure_checks) == 1 and len(nucleus_checks) == 1


def test_least_nucleus_checks_each_of_its_two_results_once(rq2,
                                                           closure_checks):
    # the closure table of the closed set is proved once, by the nucleus
    alpha = 1 << 1
    least_nucleus(rq2, system_pairs(rq2, alpha, "S4"))
    assert len(closure_checks) == 1


def test_nucleus_join_checks_its_result_once(rq2, closure_checks):
    alpha = 1 << 1
    a = least_nucleus(rq2, system_pairs(rq2, alpha, "T"))
    b = least_nucleus(rq2, system_pairs(rq2, alpha, "K4"))
    closure_checks.clear()
    j = nucleus_join(a, b)
    assert len(closure_checks) == 1
    assert set(j.closed()) == set(a.closed()) & set(b.closed())


def test_closure_from_meet_closed_checks_once(closure_checks):
    L = powerset_lattice("ab")
    closure_from_meet_closed(L, [L.bottom, L.top])
    assert len(closure_checks) == 1


# --- support laws ---------------------------------------------------------

def test_quotient_proves_the_support_laws_once_per_table(tmp_path, capsys,
                                                        monkeypatch):
    model = tmp_path / "m.model"
    model.write_text(THREE_WORLDS)
    # nucleus does not import make_quantale, so every call goes through
    # the wrapped quantale.make_quantale
    assert not hasattr(quantales.nucleus, "make_quantale")
    tables = counting(monkeypatch, [quantales.quantale], "make_quantale")
    proofs = counting(monkeypatch, [quantales.quantale], "_check_support")
    supports = counting(monkeypatch, [Quantale], "support")
    assert main(["quotient", str(model), "--system", "T"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    # the document's table is proved once, when built; the quotient is
    # proved by its projection, without make_quantale
    assert len(tables) == len(proofs) == 1
    assert [p[0] for p in proofs] == [t[0] for t in tables]
    assert tables[0][0].n == 512
    cli_supports = len(supports)
    # every support the CLI takes is for the nucleus, quotient and flags
    supports.clear()
    alpha, q = document_table(parse_model(THREE_WORLDS))
    quot = quotient(q, least_nucleus(q, system_pairs(q, alpha, "T")))
    check_point_properties(quot.quantale, quot.projection[alpha])
    assert cli_supports == len(supports)


def test_axioms_scans_the_support_laws_once_without_a_table(tmp_path, capsys,
                                                           monkeypatch):
    model = tmp_path / "m.model"
    model.write_text(THREE_WORLDS)
    tables = counting(monkeypatch, [quantales.quantale], "make_quantale")
    scans = counting(monkeypatch, [quantales.axioms], "support_law_witnesses")
    assert main(["axioms", str(model)]) == 0
    assert capsys.readouterr().out.count("PASS") == 6
    assert tables == [] and len(scans) == 1


def test_a_broken_support_table_prints_no_check_line(tmp_path, capsys,
                                                     monkeypatch):
    def corrupted(worlds):
        q = relation_quantale(worlds)
        support = q.support_vector.tolist()
        # s{(u,v)} = the whole diagonal breaks sa <= a a- = {(u,u)}
        support[1 << 1] = q.unit
        return make_quantale(q.lattice, q.mul_matrix, q.inv_vector, q.unit,
                             support=support)
    monkeypatch.setattr(quantales.quantale, "relation_quantale", corrupted)
    model = tmp_path / "m.model"
    model.write_text(TWO_WORLDS)
    assert main(["quotient", str(model), "--system", "T"]) == 1
    out, err = capsys.readouterr()
    assert "CHECK" not in out
    assert err.startswith("ERROR:")


def test_with_derived_support_proves_only_the_support(rq2, monkeypatch):
    bare = make_quantale(rq2.lattice, rq2.mul_matrix, rq2.inv_vector, rq2.unit)
    proofs = counting(monkeypatch, [quantales.quantale], "_check_support")
    fast = counting(monkeypatch, [quantales.quantale],
                    "_laws_hold_on_irreducibles")
    loop = counting(monkeypatch, [quantales.quantale],
                    "_check_laws_exhaustively")
    q = with_derived_support(bare)
    assert len(proofs) == 1 and fast == [] and loop == []
    assert q.support_vector.tolist() == rq2.support_vector.tolist()


# --- conjugate pairs ------------------------------------------------------

@pytest.mark.parametrize("L", [chain_lattice(4), diamond_lattice()],
                         ids=["chain4", "diamond"])
def test_conjugate_pairs_reprove_no_join_preservation(L, monkeypatch):
    maps = list(join_preserving_endomaps(L))
    scan = [(dia, bdia) for dia in maps for bdia in maps
            if check_conjugacy(L, dia, bdia)]
    witnesses = counting(monkeypatch, [quantales.bimodal],
                         "join_preservation_witness")
    assert list(conjugate_pairs(L)) == scan
    assert witnesses == []
    assert scan
