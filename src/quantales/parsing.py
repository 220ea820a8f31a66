"""Concrete syntax: formulas, programs, model documents, frame files.

The formula grammar, loosest binding first: `->` (right associative),
`\\/`, `/\\`, then the unary prefixes `~`, `<>`, `[]`, the temporal
operators, and `<program>`; parentheses override.  Unicode aliases for
the connectives are accepted and normalized.  Programs: `u` (choice),
`;` (sequence), postfix `*`, and tests `name?` or `(formula)?`.

Model documents are line oriented with `#` comments.  A relation
document has MODE, WORLDS, one `REL alpha` line for the point, further
REL lines for program letters, and VAL lines.  A groupoid document has
MODE, OBJECTS, ARROWS (name dom cod), optional INV and COMP lines, a
POINT line naming arrows, and VAL lines over objects.  Frame files list
ELEMENTS and generating LEQ pairs.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import ModelFormatError, ParseError, Record, UndeclaredWorld
from .formulas import (
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    MODE_NODES,
    Mode,
    Not,
    Or,
    PAtom,
    PChoice,
    ProgDiamond,
    PSeq,
    PStar,
    PTest,
    TEMPORAL_OPS,
    Temporal,
)
from .relations import RelationQuantale, encode, pair_bit
from .semantics import PointedModel

# lattice and quantale, and with them numpy, are imported only where a
# table is built, by document_table for `quotient` and by parse_frame, and
# groupoids only for a groupoid document; the annotations that name their
# classes are strings

_ALIASES = {
    "◇": "<>", "□": "[]", "¬": "~",
    "∧": "/\\", "∨": "\\/", "→": "->",
}

_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"
    r"|<>|\[\]|->|/\\|\\/"
    r"|[~()<>;*?◇□¬∧∨→]")


class _Tok(Record):
    __slots__ = _fields = ("kind", "line", "col")


_END = "end of input"

# The deepest syntax tree the parser builds.  Each connective and each
# parenthesized group is one level, and a flat chain counts in full:
# `p /\ q /\ r` is the left-nested tree (p /\ q) /\ r, two levels
# deep.  Evaluating, printing and comparing a formula recurse down its
# tree, and at this depth they stay well inside Python's recursion limit.
MAX_DEPTH = 100


def _tokenize(text: str):
    toks = []
    line = 1
    start = 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            start = pos + 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}",
                             line, pos - start + 1)
        kind = _ALIASES.get(m.group(), m.group())
        toks.append(_Tok(kind, line, pos - start + 1))
        pos = m.end()
    toks.append(_Tok(_END, line, pos - start + 1))
    return toks


def _is_name(tok):
    if tok.kind == _END:
        return False
    return tok.kind[0].isalpha() or tok.kind[0] == "_"


class _Parser:
    """Recursive descent over the tokens of one formula or program.

    It counts the levels open around the cursor and the depth of each
    node it builds (by id: the nodes live as long as the parse), and
    fails at the token where the tree would nest deeper than MAX_DEPTH."""

    def __init__(self, toks, mode):
        self.toks = toks
        self.i = 0
        self.mode = mode
        self.open = 0
        self.depths = {}

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ParseError(f"{message}, found {tok.kind!r}",
                         tok.line, tok.col, expected)

    def expect(self, kind):
        if self.peek().kind != kind:
            self.fail(f"expected {kind!r}", {kind})
        return self.take()

    # --- nesting ----------------------------------------------------------

    def too_deep(self, tok):
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels at "
                         f"{tok.kind!r}", tok.line, tok.col)

    def below(self, tok, parse):
        'What parse() reads one level below the operator or group at tok.'
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(tok)
        out = parse()
        self.open -= 1
        return out

    def group(self, tok, parse):
        'What parse() reads in the parentheses opened at tok, one level.'
        out = self.below(tok, parse)
        self.expect(")")
        self.depths[id(out)] = self.depths.get(id(out), 0) + 1
        return out

    def node(self, tok, cls, *args):
        'cls(*args), built at tok, one level above its deepest child.'
        depth = 1 + max(self.depths.get(id(x), 0) for x in args)
        if self.open + depth > MAX_DEPTH:
            self.too_deep(tok)
        out = cls(*args)
        self.depths[id(out)] = depth
        return out

    # --- formulas ---------------------------------------------------------

    def formula(self):
        left = self.disjunction()
        if self.peek().kind == "->":
            tok = self.take()
            return self.node(tok, Implies, left, self.below(tok, self.formula))
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek().kind == "\\/":
            tok = self.take()
            out = self.node(tok, Or, out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek().kind == "/\\":
            tok = self.take()
            out = self.node(tok, And, out, self.unary())
        return out

    def unary(self):
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return self.node(tok, Not, self.below(tok, self.unary))
        if tok.kind == "<>":
            if Diamond not in MODE_NODES[self.mode]:
                self.fail(f"'<>' is not a {self.mode.value} connective")
            self.take()
            return self.node(tok, Diamond, self.below(tok, self.unary))
        if tok.kind == "[]":
            if Box not in MODE_NODES[self.mode]:
                self.fail(f"'[]' is not a {self.mode.value} connective")
            self.take()
            return self.node(tok, Box, self.below(tok, self.unary))
        if tok.kind in TEMPORAL_OPS:
            if Temporal not in MODE_NODES[self.mode]:
                self.fail(f"temporal operator {tok.kind} needs ctl mode")
            self.take()
            return self.node(tok, Temporal, tok.kind,
                             self.below(tok, self.unary))
        if tok.kind == "<":
            if ProgDiamond not in MODE_NODES[self.mode]:
                self.fail("program diamonds need pdl mode")
            self.take()
            prog = self.below(tok, self.program)
            self.expect(">")
            return self.node(tok, ProgDiamond, prog,
                             self.below(tok, self.unary))
        return self.atomish()

    def atomish(self):
        tok = self.peek()
        if _is_name(tok):
            self.take()
            return Atom(tok.kind)
        if tok.kind == "(":
            self.take()
            return self.group(tok, self.formula)
        self.fail("expected a formula", {"atom", "'('"})

    # --- programs ---------------------------------------------------------

    def program(self):
        out = self.sequence()
        while self.peek().kind == "u":
            tok = self.take()
            out = self.node(tok, PChoice, out, self.sequence())
        return out

    def sequence(self):
        out = self.postfix()
        while self.peek().kind == ";":
            tok = self.take()
            out = self.node(tok, PSeq, out, self.postfix())
        return out

    def postfix(self):
        out = self.primary()
        while self.peek().kind == "*":
            out = self.node(self.take(), PStar, out)
        return out

    def primary(self):
        tok = self.peek()
        if _is_name(tok) and tok.kind not in TEMPORAL_OPS:
            self.take()
            if self.peek().kind == "?":
                return self.node(self.take(), PTest, Atom(tok.kind))
            return PAtom(tok.kind)
        if tok.kind == "(":
            if self._group_is_test():
                self.take()
                f = self.group(tok, self.formula)
                return self.node(self.expect("?"), PTest, f)
            self.take()
            return self.group(tok, self.program)
        self.fail("expected a program", {"program atom", "'('"})

    def _group_is_test(self):
        'Whether the parenthesized group at the cursor is followed by `?`.'
        depth = 0
        for j in range(self.i, len(self.toks)):
            kind = self.toks[j].kind
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if depth == 0:
                    return (j + 1 < len(self.toks)
                            and self.toks[j + 1].kind == "?")
            elif kind == _END:
                return False
        return False


def _coerce_mode(mode):
    return mode if isinstance(mode, Mode) else Mode(mode)


def parse_formula(text: str, mode) -> "Formula":
    'Parse a formula in the given mode; connectives outside the mode fail.'
    p = _Parser(_tokenize(text), _coerce_mode(mode))
    out = p.formula()
    if p.peek().kind != _END:
        p.fail("trailing input after the formula", {_END})
    return out


def parse_program(text: str) -> "Program":
    p = _Parser(_tokenize(text), Mode.PDL)
    out = p.program()
    if p.peek().kind != _END:
        p.fail("trailing input after the program", {_END})
    return out


# --- model documents ------------------------------------------------------

class GroupoidDoc(Record):
    """The tables of a groupoid document, by name: objects; arrows as
    (name, dom, cod) triples; inv as (f, g) name pairs, an unlisted arrow
    being its own inverse; comp as (f, g, h) triples meaning f g = h.
    It keeps a __dict__, where finite_groupoid is cached."""

    _fields = ("objects", "arrows", "inv", "comp")

    @cached_property
    def finite_groupoid(self) -> "FiniteGroupoid":
        'The FiniteGroupoid of these tables, validated once per document.'
        from .groupoids import FiniteGroupoid
        oidx = {o: i for i, o in enumerate(self.objects)}
        aidx = {name: i for i, (name, _, _) in enumerate(self.arrows)}
        dom = [oidx[d] for _, d, _ in self.arrows]
        cod = [oidx[c] for _, _, c in self.arrows]
        inv = list(range(len(self.arrows)))
        for f, h in self.inv:
            inv[aidx[f]] = aidx[h]
            inv[aidx[h]] = aidx[f]
        comp = {(aidx[f], aidx[h]): aidx[k] for f, h, k in self.comp}
        names = [name for name, _, _ in self.arrows]
        return FiniteGroupoid(self.objects, names, dom, cod, comp, inv)


class ModelDocument(Record):
    """A parsed model document: its mode and worlds; relations, each name
    to a tuple of world-name pairs, the point being "alpha"; valuations,
    each atom to a tuple of world or object names; and for a groupoid
    document its GroupoidDoc and the arrow names of its point."""

    __slots__ = _fields = ("mode", "worlds", "relations", "valuations",
                           "groupoid", "point")
    _defaults = {"groupoid": None, "point": None}

    @property
    def is_groupoid(self) -> bool:
        return self.groupoid is not None


_PAIR_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")


def _line_pairs(rest, lineno):
    out = []
    pos = 0
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        m = _PAIR_RE.match(rest, pos)
        if m is None:
            raise ModelFormatError(
                f"line {lineno}: expected a (u,v) pair at {rest[pos:].split()[0]!r}")
        out.append((m.group(1), m.group(2)))
        pos = m.end()
    return out


def parse_model(text: str) -> ModelDocument:
    """Parse a model document.

    Declarations must precede use: WORLDS (or OBJECTS and ARROWS) before
    the REL/VAL/POINT/INV/COMP lines that mention them.
    """
    mode = None
    worlds = None
    relations = {}
    valuations = {}
    objects = None
    arrows = []
    arrow_names = set()
    inv_pairs = []
    comp_triples = []
    point = None

    def need_worlds(lineno):
        if worlds is None:
            raise ModelFormatError(f"line {lineno}: WORLDS must come first")

    def need_arrows(lineno, names):
        if objects is None:
            raise ModelFormatError(f"line {lineno}: ARROWS must come first")
        for name in names:
            if name not in arrow_names:
                raise ModelFormatError(f"line {lineno}: unknown arrow {name!r}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        fields = rest.split()

        if key == "MODE":
            if mode is not None:
                raise ModelFormatError(f"line {lineno}: duplicate MODE")
            try:
                mode = Mode(rest.strip())
            except ValueError:
                raise ModelFormatError(
                    f"line {lineno}: unknown mode {rest.strip()!r}") from None
        elif key == "WORLDS":
            if worlds is not None:
                raise ModelFormatError(f"line {lineno}: duplicate WORLDS")
            if objects is not None:
                raise ModelFormatError(
                    f"line {lineno}: WORLDS cannot mix with OBJECTS")
            if len(set(fields)) != len(fields) or not fields:
                raise ModelFormatError(
                    f"line {lineno}: WORLDS needs distinct names")
            worlds = tuple(fields)
        elif key == "REL":
            need_worlds(lineno)
            if not fields:
                raise ModelFormatError(f"line {lineno}: REL needs a name")
            name = fields[0]
            if name in relations:
                raise ModelFormatError(f"line {lineno}: duplicate REL {name!r}")
            pairs = _line_pairs(rest[len(name):], lineno)
            for pair in pairs:
                for w in pair:
                    if w not in worlds:
                        raise UndeclaredWorld(
                            f"line {lineno}: world {w!r} is not declared")
            relations[name] = tuple(pairs)
        elif key == "VAL":
            if not fields:
                raise ModelFormatError(f"line {lineno}: VAL needs an atom name")
            name, members = fields[0], fields[1:]
            if name in valuations:
                raise ModelFormatError(f"line {lineno}: duplicate VAL {name!r}")
            home = worlds if worlds is not None else objects
            if home is None:
                raise ModelFormatError(
                    f"line {lineno}: WORLDS or OBJECTS must come first")
            for w in members:
                if w not in home:
                    raise UndeclaredWorld(
                        f"line {lineno}: world {w!r} is not declared")
            valuations[name] = tuple(members)
        elif key == "OBJECTS":
            if objects is not None:
                raise ModelFormatError(f"line {lineno}: duplicate OBJECTS")
            if worlds is not None:
                raise ModelFormatError(
                    f"line {lineno}: OBJECTS cannot mix with WORLDS")
            if len(set(fields)) != len(fields) or not fields:
                raise ModelFormatError(
                    f"line {lineno}: OBJECTS needs distinct names")
            objects = tuple(fields)
        elif key == "ARROWS":
            if objects is None:
                raise ModelFormatError(f"line {lineno}: OBJECTS must come first")
            if len(fields) != 3:
                raise ModelFormatError(
                    f"line {lineno}: ARROWS takes name, domain, codomain")
            name, d, c = fields
            if name in arrow_names:
                raise ModelFormatError(
                    f"line {lineno}: duplicate arrow {name!r}")
            for obj in (d, c):
                if obj not in objects:
                    raise UndeclaredWorld(
                        f"line {lineno}: object {obj!r} is not declared")
            arrows.append((name, d, c))
            arrow_names.add(name)
        elif key == "INV":
            if len(fields) != 2:
                raise ModelFormatError(f"line {lineno}: INV takes two arrows")
            need_arrows(lineno, fields)
            inv_pairs.append(tuple(fields))
        elif key == "COMP":
            if len(fields) != 3:
                raise ModelFormatError(f"line {lineno}: COMP takes three arrows")
            need_arrows(lineno, fields)
            comp_triples.append(tuple(fields))
        elif key == "POINT":
            if point is not None:
                raise ModelFormatError(f"line {lineno}: duplicate POINT")
            need_arrows(lineno, fields)
            point = tuple(fields)
        else:
            raise ModelFormatError(f"line {lineno}: unknown section {key!r}")

    if mode is None:
        raise ModelFormatError("the document never declares MODE")
    if objects is not None:
        if point is None:
            raise ModelFormatError("a groupoid document needs a POINT line")
        doc = ModelDocument(
            mode, (), {}, valuations,
            GroupoidDoc(objects, tuple(arrows), tuple(inv_pairs),
                        tuple(comp_triples)),
            point)
        return doc
    if worlds is None:
        raise ModelFormatError("the document never declares WORLDS")
    if "alpha" not in relations:
        raise ModelFormatError("the point relation `REL alpha` is missing")
    return ModelDocument(mode, worlds, relations, valuations)


def _relation_codes(doc: ModelDocument):
    nw = len(doc.worlds)
    idx = {w: i for i, w in enumerate(doc.worlds)}
    codes = {name: encode(((idx[u], idx[v]) for u, v in pairs), nw)
             for name, pairs in doc.relations.items()}
    vals = {atom: encode(((idx[w], idx[w]) for w in members), nw)
            for atom, members in doc.valuations.items()}
    return codes, vals


_MAX_GROUPOID_ARROWS = 9


def _groupoid_point(doc: ModelDocument):
    'The validated groupoid of a document, under the arrow cap, and its point.'
    if len(doc.groupoid.arrows) > _MAX_GROUPOID_ARROWS:
        raise ModelFormatError(
            f"groupoid documents are limited to {_MAX_GROUPOID_ARROWS} arrows")
    G = doc.groupoid.finite_groupoid
    aidx = {name: i for i, name in enumerate(G.arrows)}
    return G, sum(1 << aidx[name] for name in set(doc.point))


def document_quantale(doc: ModelDocument):
    """The point element and the lazy quantale of a model document,
    without numpy: a RelationQuantale at any world count, or the
    GroupoidQuantale of a groupoid document (limited to 9 arrows).  Their
    codes agree with the indices of document_table's table."""
    if doc.is_groupoid:
        from .groupoids import GroupoidQuantale
        G, alpha = _groupoid_point(doc)
        return alpha, GroupoidQuantale(G)
    return _relation_codes(doc)[0]["alpha"], RelationQuantale(doc.worlds)


def document_table(doc: ModelDocument):
    """The point element and the validated table quantale of a model
    document, which `quotient` divides: groupoid_quantale for a groupoid
    document, relation_quantale for a relation document of up to 3
    worlds.  A larger relation document raises ModelFormatError."""
    if doc.is_groupoid:
        G, alpha = _groupoid_point(doc)
        from .quantale import groupoid_quantale
        return alpha, groupoid_quantale(G)
    if len(doc.worlds) > 3:
        raise ModelFormatError(
            "quotient needs the table-backed quantale; limited to 3 worlds")
    from .quantale import relation_quantale
    return _relation_codes(doc)[0]["alpha"], relation_quantale(doc.worlds)


def build(doc: ModelDocument) -> PointedModel:
    """A pointed model from a parsed document, over the lazy quantale of
    document_quantale, so evaluation never builds a table."""
    if doc.is_groupoid:
        alpha, q = document_quantale(doc)
        atom_of = dict(world_elements(doc))
        vals = {atom: sum(atom_of[o] for o in set(members))
                for atom, members in doc.valuations.items()}
        return PointedModel(q, alpha, vals, doc.mode,
                            world_atoms=doc.groupoid.objects)
    q = RelationQuantale(doc.worlds)
    codes, vals = _relation_codes(doc)
    alpha = codes.pop("alpha")
    return PointedModel(q, alpha, vals, doc.mode, programs=codes,
                        world_atoms=doc.worlds)


def world_elements(doc: ModelDocument):
    'Pairs (name, locale atom) for decoding formula values into worlds.'
    if doc.is_groupoid:
        G = doc.groupoid.finite_groupoid
        return tuple((name, 1 << G.identities[i])
                     for i, name in enumerate(G.objects))
    nw = len(doc.worlds)
    return tuple((name, pair_bit(i, i, nw))
                 for i, name in enumerate(doc.worlds))


# --- frame files ----------------------------------------------------------

def parse_frame(text: str) -> "FiniteSupLattice":
    """A finite lattice from ELEMENTS and generating LEQ pairs.

    The listed pairs are closed reflexively and transitively before the
    lattice laws are checked, so only a covering sketch is needed.
    """
    from .lattice import make_lattice
    elements = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        if key == "ELEMENTS":
            if elements is not None:
                raise ModelFormatError(f"line {lineno}: duplicate ELEMENTS")
            names = rest.split()
            if len(set(names)) != len(names) or not names:
                raise ModelFormatError(
                    f"line {lineno}: ELEMENTS needs distinct names")
            elements = names
        elif key == "LEQ":
            if elements is None:
                raise ModelFormatError(f"line {lineno}: ELEMENTS must come first")
            for u, v in _line_pairs(rest, lineno):
                for name in (u, v):
                    if name not in elements:
                        raise ModelFormatError(
                            f"line {lineno}: unknown element {name!r}")
                pairs.append((u, v))
        else:
            raise ModelFormatError(f"line {lineno}: unknown section {key!r}")
    if elements is None:
        raise ModelFormatError("the frame file never declares ELEMENTS")
    order = {(e, e) for e in elements} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(order):
            for c, d in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    return make_lattice(elements, order)
