"""The value types of the package: construction, repr, equality, hash.

Every record class is held to the same behaviour: positional and keyword
construction with the same defaults, an `Atom(name='p')`-style repr (the
reprs reach error messages), equality only within one class, the hash of
its field tuple, frozen fields, and its construction-time checks.
"""

import pytest

from quantales.errors import LawCheck, NotAClosureOperator, NotACongruence
from quantales.formulas import (
    And, Atom, Box, Diamond, Implies, Mode, Not, Or, PAtom, PChoice, PSeq,
    PStar, PTest, ProgDiamond, Temporal,
)
from quantales.lattice import ClosureOperator, Congruence, chain_lattice
from quantales.nucleus import Quotient
from quantales.parsing import GroupoidDoc, ModelDocument, _Tok
from quantales.quantale import SupportLocale
from quantales.relations import PointFlags, RelationQuantale
from quantales.semantics import PointedModel
from quantales.tensor import (
    CheckReport, GradedElement, GradingWitness, InvolutiveMonoid, LawResult,
    _Factor, z2_monoid,
)

p, q = Atom("p"), Atom("q")
a, b = PAtom("a"), PAtom("b")
Z2 = ("InvolutiveMonoid(labels=('0', '1'), mul=((0, 1), (1, 0)), "
      "inv=(0, 1), unit=0)")
GROUPOID_FIELDS = (("x",), (("e", "x", "x"),), (), (("e", "e", "e"),))
GROUPOID = GroupoidDoc(*GROUPOID_FIELDS)
L2 = chain_lattice(2)

# (record, its fields in order, its repr)
RECORDS = [
    (p, ("p",), "Atom(name='p')"),
    (Not(p), (p,), "Not(sub=Atom(name='p'))"),
    (And(p, q), (p, q), "And(left=Atom(name='p'), right=Atom(name='q'))"),
    (Or(p, q), (p, q), "Or(left=Atom(name='p'), right=Atom(name='q'))"),
    (Implies(p, q), (p, q),
     "Implies(left=Atom(name='p'), right=Atom(name='q'))"),
    (Diamond(p), (p,), "Diamond(sub=Atom(name='p'))"),
    (Box(p), (p,), "Box(sub=Atom(name='p'))"),
    (Temporal("EX", p), ("EX", p), "Temporal(op='EX', sub=Atom(name='p'))"),
    (ProgDiamond(a, p), (a, p),
     "ProgDiamond(prog=PAtom(name='a'), sub=Atom(name='p'))"),
    (a, ("a",), "PAtom(name='a')"),
    (PSeq(a, b), (a, b), "PSeq(left=PAtom(name='a'), right=PAtom(name='b'))"),
    (PChoice(a, b), (a, b),
     "PChoice(left=PAtom(name='a'), right=PAtom(name='b'))"),
    (PStar(a), (a,), "PStar(sub=PAtom(name='a'))"),
    (PTest(p), (p,), "PTest(formula=Atom(name='p'))"),
    (LawCheck(True), (True, None, None),
     "LawCheck(ok=True, law=None, witness=None)"),
    (LawCheck(False, "forward", (1, 2)), (False, "forward", (1, 2)),
     "LawCheck(ok=False, law='forward', witness=(1, 2))"),
    (PointFlags(True, False, True, False), (True, False, True, False),
     "PointFlags(reflexive=True, transitive=False, symmetric=True, "
     "total_support=False)"),
    (_Tok("p", 1, 2), ("p", 1, 2), "_Tok(kind='p', line=1, col=2)"),
    (GROUPOID, GROUPOID_FIELDS,
     "GroupoidDoc(objects=('x',), arrows=(('e', 'x', 'x'),), inv=(), "
     "comp=(('e', 'e', 'e'),))"),
    (GradedElement((("", frozenset({(0,)})),)),
     ((("", frozenset({(0,)})),),),
     "GradedElement(parts=(('', frozenset({(0,)})),))"),
    (LawResult("unit", True), ("unit", True, ""),
     "LawResult(name='unit', ok=True, witness='')"),
    (LawResult("unit", False, "at 0"), ("unit", False, "at 0"),
     "LawResult(name='unit', ok=False, witness='at 0')"),
    (_Factor(1, 2, 3, True, None), (1, 2, 3, True, None),
     "_Factor(table=1, row=2, degree=3, live=True, involute=None)"),
    (z2_monoid(), (("0", "1"), ((0, 1), (1, 0)), (0, 1), 0), Z2),
    (GradingWitness(None, z2_monoid(), (1, 2)), (None, z2_monoid(), (1, 2)),
     f"GradingWitness(quantale=None, monoid={Z2}, family=(1, 2))"),
    (CheckReport((LawResult("unit", True),)), ((LawResult("unit", True),),),
     "CheckReport(results=(LawResult(name='unit', ok=True, witness=''),))"),
    (ClosureOperator(L2, [1, 1]), (L2, (1, 1)),
     "ClosureOperator(lattice=FiniteSupLattice(n=2), table=(1, 1))"),
    (Congruence(L2, [(0, 0), (1, 1)]), (L2, frozenset({(0, 0), (1, 1)})),
     "Congruence(lattice=FiniteSupLattice(n=2), "
     f"pairs={frozenset({(0, 0), (1, 1)})!r})"),
    (SupportLocale(L2), (L2,), "SupportLocale(lattice=FiniteSupLattice(n=2))"),
    (Quotient(None, (0, 1), (0,)), (None, (0, 1), (0,)),
     "Quotient(quantale=None, projection=(0, 1), closed=(0,))"),
]
IDS = [type(r).__name__ + str(i) for i, (r, _, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_equal_to_a_copy_and_hashed_as_the_field_tuple(record, fields, text):
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_fields_are_frozen(record, fields, text):
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


def test_equality_holds_only_within_one_class():
    assert Atom("p") != PAtom("p")
    assert And(p, q) != Or(p, q)
    assert Implies(p, q) == Implies(p, q) != Implies(q, p)
    assert LawResult("x", True) != LawCheck(True)
    assert p != ("p",) and ("p",) != p


def test_keyword_construction_takes_the_defaults():
    assert LawCheck(ok=False) == LawCheck(False, None, None)
    assert LawCheck(False, witness=(3,)).law is None
    assert LawResult(name="unit", ok=False) == LawResult("unit", False, "")
    assert Temporal(sub=p, op="AG") == Temporal("AG", p)
    assert ProgDiamond(sub=p, prog=a) == ProgDiamond(a, p)
    doc = ModelDocument(mode=Mode.PDL, worlds=("w",), relations={},
                        valuations={})
    assert (doc.groupoid, doc.point) == (None, None)
    assert not doc.is_groupoid
    assert repr(doc) == ("ModelDocument(mode=<Mode.PDL: 'pdl'>, "
                         "worlds=('w',), relations={}, valuations={}, "
                         "groupoid=None, point=None)")
    assert doc == ModelDocument(Mode.PDL, ("w",), {}, {}, None, None)
    with pytest.raises(TypeError):
        hash(doc)                     # its dict fields are unhashable


def test_construction_needs_every_field_once():
    with pytest.raises(TypeError):
        And(p)
    with pytest.raises(TypeError):
        Atom("p", "q")
    with pytest.raises(TypeError):
        Atom("p", name="q")
    with pytest.raises(TypeError):
        Atom(label="p")
    with pytest.raises(TypeError):
        LawCheck()


def test_the_pointed_model_is_compared_field_by_field_and_unhashable():
    rq = RelationQuantale(("0", "1"))
    alpha, val = rq.top, {"p": rq.unit}
    model = PointedModel(rq, alpha, val, Mode.CLASSICAL)
    assert model.programs == {} and model.world_atoms == ()
    assert model == PointedModel(quantale=rq, alpha=alpha, valuation=val,
                                 mode=Mode.CLASSICAL, programs={},
                                 world_atoms=())
    assert model != PointedModel(rq, alpha, val, Mode.CLASSICAL,
                                 world_atoms=("0", "1"))
    assert model.revalued(val) == model
    with pytest.raises(TypeError):
        hash(model)


def test_construction_checks_still_run():
    with pytest.raises(ValueError, match="unknown temporal operator 'XX'"):
        Temporal("XX", p)
    with pytest.raises(ValueError, match="unit law fails"):
        InvolutiveMonoid(("0", "1"), ((1, 0), (0, 1)), (0, 1), 0)
    with pytest.raises(NotAClosureOperator):
        ClosureOperator(L2, (0,))
    with pytest.raises(NotAClosureOperator):
        ClosureOperator(L2, (1, 0))
    with pytest.raises(NotACongruence, match="not reflexive"):
        Congruence(L2, {(0, 0)})


def test_a_groupoid_document_validates_its_groupoid_once():
    assert GROUPOID.finite_groupoid is GROUPOID.finite_groupoid
    assert GROUPOID == GroupoidDoc(*GROUPOID_FIELDS)
