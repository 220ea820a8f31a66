"""Formula text, model documents, and frame files."""

import random

import pytest

from quantales.errors import (
    InvalidGroupoid,
    ModelFormatError,
    NotALattice,
    ParseError,
    TimeEnds,
    UndeclaredWorld,
)
from quantales.formulas import (
    And, Atom, Box, Diamond, Implies, Mode, Not, Or, PAtom, PChoice,
    ProgDiamond, PSeq, PStar, PTest, Temporal, prog_to_text, to_text,
)
from quantales.parsing import (
    MAX_DEPTH,
    build,
    document_quantale,
    document_table,
    parse_formula,
    parse_frame,
    parse_model,
    parse_program,
    world_elements,
)
from quantales.groupoids import GroupoidQuantale
from quantales.quantale import Quantale
from quantales.relations import RelationQuantale, encode
from quantales.semantics import evaluate

import gen

P, Q, R, S = Atom("p"), Atom("q"), Atom("r"), Atom("s")


# --- formula grammar ------------------------------------------------------

def test_scheme_parses_to_expected_tree():
    f = parse_formula("<>p /\\ q -> <>(p /\\ <>q)", Mode.CLASSICAL)
    assert f == Implies(And(Diamond(P), Q), Diamond(And(P, Diamond(Q))))


def test_unicode_aliases_match_ascii():
    pairs = [
        ("◇p ∧ q → ◇(p ∧ ◇q)", "<>p /\\ q -> <>(p /\\ <>q)"),
        ("¬p ∨ □q", "~p \\/ []q"),
    ]
    for fancy, plain in pairs:
        assert (parse_formula(fancy, Mode.CLASSICAL)
                == parse_formula(plain, Mode.CLASSICAL))


def test_implication_associates_right():
    f = parse_formula("p -> q -> r", Mode.CLASSICAL)
    assert f == Implies(P, Implies(Q, R))


def test_binary_connectives_associate_left():
    assert parse_formula("p \\/ q \\/ r", Mode.CLASSICAL) == Or(Or(P, Q), R)
    assert parse_formula("p /\\ q /\\ r", Mode.CLASSICAL) == And(And(P, Q), R)


def test_precedence_layers():
    f = parse_formula("~p /\\ q -> r \\/ s /\\ p", Mode.CLASSICAL)
    assert f == Implies(And(Not(P), Q), Or(R, And(S, P)))
    assert parse_formula("<>p /\\ q", Mode.CLASSICAL) == And(Diamond(P), Q)
    assert parse_formula("~[]p", Mode.CLASSICAL) == Not(Box(P))


def test_mode_may_be_given_as_a_string():
    assert parse_formula("[]p", "intuitionistic") == Box(P)
    with pytest.raises(ValueError):
        parse_formula("p", "classic")


def test_temporal_names_are_reserved_in_every_mode():
    assert parse_formula("EX p", Mode.CTL) == Temporal("EX", P)
    with pytest.raises(ParseError) as e:
        parse_formula("EX p", Mode.CLASSICAL)
    assert e.value.line == 1 and e.value.col == 1
    with pytest.raises(ParseError):
        parse_formula("q \\/ AG p", Mode.INTUITIONISTIC)
    with pytest.raises(ParseError):
        parse_formula("<s>(EF p)", Mode.PDL)


def test_modal_operators_are_mode_gated():
    with pytest.raises(ParseError):
        parse_formula("<>p", Mode.CTL)
    with pytest.raises(ParseError):
        parse_formula("[]p", Mode.PDL)
    with pytest.raises(ParseError):
        parse_formula("<s>p", Mode.CLASSICAL)
    assert parse_formula("<s>p", Mode.PDL) == ProgDiamond(PAtom("s"), P)


def test_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as e:
        parse_formula("(p", Mode.CLASSICAL)
    assert e.value.line == 1 and e.value.col == 3
    assert ")" in e.value.expected
    with pytest.raises(ParseError) as e:
        parse_formula("p /\\", Mode.CLASSICAL)
    assert "end of input" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_formula("p /\\\n  (", Mode.CLASSICAL)
    assert e.value.line == 2


# (mode, the text of a formula k levels deep, the token that crosses the
# limit: its last occurrence at k = MAX_DEPTH + 1)
DEEP = [
    (Mode.CLASSICAL, lambda k: "p /\\ " * k + "p", "/\\"),
    (Mode.CLASSICAL, lambda k: "p \\/ " * k + "p", "\\/"),
    (Mode.CLASSICAL, lambda k: "p -> " * k + "p", "->"),
    (Mode.CLASSICAL, lambda k: "(" * k + "p" + ")" * k, "("),
    (Mode.CLASSICAL, lambda k: "~(" + "p /\\ " * (k - 2) + "p)", "/\\"),
    (Mode.CLASSICAL, lambda k: "(" + "p /\\ " * (k - 2) + "p) -> q", "->"),
    (Mode.CLASSICAL, lambda k: "[]" * k + "p", "[]"),
    (Mode.INTUITIONISTIC, lambda k: "~" * k + "p", "~"),
    (Mode.CTL, lambda k: "AG " * k + "p", "AG"),
    (Mode.PDL, lambda k: "<a>" * k + "p", "<"),
    (Mode.PDL, lambda k: "<a" + "*" * (k - 1) + ">p", "*"),
    (Mode.PDL, lambda k: "<a" + " ; a" * (k - 1) + ">p", ";"),
    (Mode.PDL, lambda k: "<" + "(" * (k - 2) + "p" + ")" * (k - 2) + "?>p",
     "?"),
]


@pytest.mark.parametrize("mode, make, token", DEEP)
def test_formulas_nest_up_to_the_limit(mode, make, token):
    parse_formula(make(MAX_DEPTH), mode)
    text = make(MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} "
                                         "levels") as e:
        parse_formula(text, mode)
    assert (e.value.line, e.value.col) == (1, text.rindex(token) + 1)


def test_the_limit_is_named_where_it_is_crossed():
    text = "p /\\\n" * (MAX_DEPTH + 5) + "p"
    with pytest.raises(ParseError) as e:
        parse_formula(text, Mode.CLASSICAL)
    assert (e.value.line, e.value.col) == (MAX_DEPTH + 1, 3)
    assert parse_program("a" + "*" * MAX_DEPTH) is not None
    with pytest.raises(ParseError) as e:
        parse_program("a" + "*" * (MAX_DEPTH + 1))
    assert e.value.col == MAX_DEPTH + 2


@pytest.mark.parametrize("text", ["~" * 10000 + "p", "p /\\ " * 10000 + "p",
                                  "(" * 10000 + "p" + ")" * 10000,
                                  "p -> " * 10000 + "p"])
def test_very_deep_text_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_formula(text, Mode.CLASSICAL)


def test_trailing_and_foreign_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q", Mode.CLASSICAL)
    with pytest.raises(ParseError) as e:
        parse_formula("p $ q", Mode.CLASSICAL)
    assert "unexpected character" in str(e.value)


def test_program_grammar():
    f = parse_formula("< a ; b* > p", Mode.PDL)
    assert f == ProgDiamond(PSeq(PAtom("a"), PStar(PAtom("b"))), P)
    f = parse_formula("<a u b ; c>p", Mode.PDL)
    assert f.prog == PChoice(PAtom("a"), PSeq(PAtom("b"), PAtom("c")))
    f = parse_formula("<a u b u c>p", Mode.PDL)
    assert f.prog == PChoice(PChoice(PAtom("a"), PAtom("b")), PAtom("c"))
    assert parse_program("(a u b)* ; p?") == PSeq(
        PStar(PChoice(PAtom("a"), PAtom("b"))), PTest(P))


def test_parenthesized_test_versus_program_group():
    f = parse_formula("<(p /\\ q)?>r", Mode.PDL)
    assert f.prog == PTest(And(P, Q))
    f = parse_formula("<(a u b)>r", Mode.PDL)
    assert f.prog == PChoice(PAtom("a"), PAtom("b"))
    f = parse_formula("<(p -> q)? ; s>r", Mode.PDL)
    assert f.prog == PSeq(PTest(Implies(P, Q)), PAtom("s"))


def test_formulas_round_trip_in_every_mode():
    rng = random.Random(7)
    for mode in Mode:
        for _ in range(200):
            f = gen.random_formula(rng, mode, "pqr", depth=4, programs="st")
            assert parse_formula(to_text(f), mode) == f


def test_programs_round_trip():
    rng = random.Random(8)
    for _ in range(200):
        p = gen.random_program(rng, "pq", "st", depth=3)
        assert parse_program(prog_to_text(p)) == p


# --- model documents ------------------------------------------------------

CTL_DOC = """
# two worlds, one lasso
MODE ctl
WORLDS 0 1
REL alpha (0,1) (1,1)
VAL p 1
"""

Z2_DOC = """
MODE classical
OBJECTS x
ARROWS e x x
ARROWS g x x
COMP e e e
COMP e g g
COMP g e g
COMP g g e
INV g g
POINT g
VAL p x
"""


def test_relation_document_codes():
    doc = parse_model(CTL_DOC)
    assert doc.mode is Mode.CTL
    assert doc.worlds == ("0", "1")
    model = build(doc)
    assert isinstance(model.quantale, RelationQuantale)
    assert model.alpha == encode([(0, 1), (1, 1)], 2)
    assert model.valuation["p"] == 1 << 3
    assert model.world_atoms == ("0", "1")
    v = evaluate(model, parse_formula("EG p", Mode.CTL))
    assert [n for n, u in world_elements(doc)
            if model.quantale.leq(u, v)] == ["1"]


def test_named_relations_become_programs():
    doc = parse_model("""
MODE pdl
WORLDS a b
REL alpha (a,a) (b,b)
REL s (a,b)
VAL p b
""")
    model = build(doc)
    assert model.programs == {"s": encode([(0, 1)], 2)}
    v = evaluate(model, parse_formula("<s>p", Mode.PDL))
    assert model.quantale.leq(1 << 0, v)


def test_comments_and_blank_lines_are_ignored():
    doc = parse_model("MODE classical # trailing comment\n\n"
                      "WORLDS w\nREL alpha (w,w)  # loop\n")
    assert doc.worlds == ("w",)


@pytest.mark.parametrize("text, error", [
    ("WORLDS 0\nREL alpha (0,0)", ModelFormatError),          # no MODE
    ("MODE classical\nREL alpha (0,0)\nWORLDS 0", ModelFormatError),
    ("MODE classical\nMODE ctl\nWORLDS 0\nREL alpha (0,0)", ModelFormatError),
    ("MODE wrong\nWORLDS 0\nREL alpha (0,0)", ModelFormatError),
    ("MODE classical\nWORLDS 0 0\nREL alpha (0,0)", ModelFormatError),
    ("MODE classical\nWORLDS 0\nREL alpha (0 0)", ModelFormatError),
    ("MODE classical\nWORLDS 0\nREL alpha (0,0) junk", ModelFormatError),
    ("MODE classical\nWORLDS 0\nVAL p 0", ModelFormatError),  # no alpha
    ("MODE classical\nWORLDS 0\nREL alpha (0,0)\nREL alpha (0,0)",
     ModelFormatError),
    ("MODE classical\nWORLDS 0\nSECTION x", ModelFormatError),
    ("MODE classical\nWORLDS 0 1\nREL alpha (0,2)", UndeclaredWorld),
    ("MODE classical\nWORLDS 0\nREL alpha (0,0)\nVAL p 1", UndeclaredWorld),
])
def test_rejected_documents(text, error):
    with pytest.raises(error):
        parse_model(text)


def test_error_messages_carry_line_numbers():
    with pytest.raises(UndeclaredWorld) as e:
        parse_model("MODE classical\nWORLDS 0 1\n\nREL alpha (0,2)")
    assert str(e.value) == "line 4: world '2' is not declared"


def test_groupoid_document_builds():
    doc = parse_model(Z2_DOC)
    assert doc.is_groupoid
    model = build(doc)
    q = model.quantale
    assert q.n == 4
    assert model.alpha == 1 << 1            # arrow g
    assert model.valuation["p"] == 1 << 0   # identity e
    assert model.world_atoms == ("x",)
    v = evaluate(model, parse_formula("<>p", Mode.CLASSICAL))
    assert v == q.unit


@pytest.mark.parametrize("mangle, error", [
    (lambda t: t.replace("POINT g\n", ""), ModelFormatError),
    (lambda t: t.replace("OBJECTS x", "OBJECTS x\nWORLDS y"),
     ModelFormatError),
    (lambda t: t.replace("COMP g g e", "COMP g g h"), ModelFormatError),
    (lambda t: t.replace("ARROWS e x x", "ARROWS e x y"), UndeclaredWorld),
    (lambda t: t.replace("COMP g g e\n", ""), InvalidGroupoid),
    (lambda t: t.replace("INV g g", "INV g e"), InvalidGroupoid),
])
def test_rejected_groupoid_documents(mangle, error):
    text = mangle(Z2_DOC)
    with pytest.raises(error):
        build(parse_model(text))


def test_groupoid_documents_have_an_arrow_cap():
    lines = ["MODE classical", "OBJECTS x"]
    lines += [f"ARROWS a{i} x x" for i in range(10)]
    lines += ["POINT a0"]
    with pytest.raises(ModelFormatError):
        build(parse_model("\n".join(lines)))


def test_document_quantale_is_lazy_and_document_table_builds_the_table():
    for worlds in ("a", "a b c", "a b c d"):
        doc = parse_model(f"MODE classical\nWORLDS {worlds}\n"
                          "REL alpha (a,a)\n")
        alpha, q = document_quantale(doc)
        assert isinstance(q, RelationQuantale)
        assert alpha == build(doc).alpha == 1
        if len(doc.worlds) > 3:
            with pytest.raises(ModelFormatError, match="limited to 3 worlds"):
                document_table(doc)
        else:
            table_alpha, table = document_table(doc)
            assert table_alpha == alpha and isinstance(table, Quantale)
    doc = parse_model(Z2_DOC)
    alpha, q = document_quantale(doc)
    assert isinstance(q, GroupoidQuantale)
    table_alpha, table = document_table(doc)
    assert isinstance(table, Quantale)
    assert q.n == table.n == 4
    assert alpha == table_alpha == build(doc).alpha == 1 << 1


def test_document_quantale_has_the_arrow_cap():
    lines = ["MODE classical", "OBJECTS x"]
    lines += [f"ARROWS a{i} x x" for i in range(10)]
    lines += ["POINT a0"]
    with pytest.raises(ModelFormatError, match="limited to 9 arrows"):
        document_quantale(parse_model("\n".join(lines)))


def test_ctl_document_needs_time_to_continue():
    text = "MODE ctl\nWORLDS 0 1\nREL alpha (0,1)\nVAL p 1"
    with pytest.raises(TimeEnds):
        build(parse_model(text))


def test_world_elements_are_locale_atoms():
    doc = parse_model(CTL_DOC)
    assert world_elements(doc) == (("0", 1), ("1", 1 << 3))
    doc = parse_model(Z2_DOC)
    assert world_elements(doc) == (("x", 1),)


# --- frame files ----------------------------------------------------------

def test_frame_file_closes_the_sketch():
    frame = parse_frame("""
ELEMENTS bot left right top
LEQ (bot,left) (bot,right)
LEQ (left,top) (right,top)
""")
    assert frame.n == 4 and frame.is_frame()
    i = frame.index
    assert frame.leq(i("bot"), i("top"))
    assert not frame.leq(i("left"), i("right"))
    assert frame.bottom == i("bot") and frame.top == i("top")


@pytest.mark.parametrize("text, error", [
    ("LEQ (a,b)", ModelFormatError),
    ("ELEMENTS a b\nELEMENTS c", ModelFormatError),
    ("ELEMENTS a a", ModelFormatError),
    ("ELEMENTS a b\nLEQ (a,c)", ModelFormatError),
    ("ELEMENTS a b\nORDER (a,b)", ModelFormatError),
    ("", ModelFormatError),
    ("ELEMENTS a b", NotALattice),
])
def test_rejected_frame_files(text, error):
    with pytest.raises(error):
        parse_frame(text)
