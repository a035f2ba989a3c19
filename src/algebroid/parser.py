"""Parser for the .adf definition language.

Declarations are processed in order into a named environment; errors are
collected as positioned diagnostics without aborting the rest of the
file.  `render` reproduces a canonical text form of a parsed file, and
parse(render(parse(text))) is the identity on well-formed input.

Grammar sketch (statements end with ';' or a braced block):

    ring R = poly(Q; x, y);
    ring S = laurent(Q; z);
    algebroid L over R {
      basis e1, e2;
      anchor e1 -> d/dx, e2 -> x*d/dy;
      bracket [e1, e2] = e2;
    }
    form W on L = x*e1^ ^ e2^;
    connection C on L rank 2 { e1 -> [[0, 1], [0, 0]]; }
    relations RS on L twist W;
    matched M { l1 L1; l2 L2; action12 C12; action21 C21; }
    cover P = p1(tangent, bundle=2);
    cover C {
      chart R0 L0;
      chart R1 L1;
      overlap 0 1 {
        ring O01;
        map 0 { z -> z; }
        map 1 { w -> z^-1; }
        derivations 0 { d/dz -> d/dz; }
        derivations 1 { d/dw -> -z^2*d/dz; }
        transition [[-z^2]];
        bundle [[z]];
      }
      triple 0 1 2;
    }
    cocycle A = atiyah(P);
    cocycle Z on P { phi 0 1 = z^-1*e1^; q 0 = 0; }
    bunch B on P rank 1 { connection 0 { e1 -> [[0]]; } connection 1 { e1 -> [[0]]; } }

Scalar expressions use + - * ^ with integer or fraction literals; a
trailing caret marks a dual basis element, and '^' between dual factors
is the wedge product.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .cech import CechPair, Cover, LocalConnectionBunch, Overlap, atiyah_cocycle, \
    make_p1_cover
from .connections import Connection
from .core import Algebroid, StructureError
from .forms import LForm, sort_with_sign
from .matched import MatchedPair
from .pbw import Item, PbwElement, RelationSystem, normal_form
from .rings import ChartRing, RingElement, RingError, RingMap


@dataclass
class Diagnostic:
    severity: str
    line: int
    column: int
    message: str

    def __str__(self):
        return "%s:%d:%d: %s" % (self.severity, self.line, self.column,
                                 self.message)


# the largest power a generator may carry in a word: e^n is built as a
# word of n letters, so a larger power is refused before it is built
MAX_GENERATOR_POWER = 10_000

# the most terms a power of a sum may hold (see `_power_refused` for the
# bounds): expanding it costs about the square of that, so a power whose
# bound is larger is refused before it is expanded (a monomial's power
# is one term and always allowed)
MAX_POWER_TERMS = 1_000


def _power_refused(base: RingElement, power: int) -> bool:
    """Whether base^power could hold more than MAX_POWER_TERMS terms.

    The n-th power of a k-term sum has at most C(n + k - 1, k - 1)
    terms.  When the base has no negative exponent, it also has at most
    as many as there are monomials, in the v variables the base holds,
    of total degree n * dmin .. n * dmax, where dmin .. dmax are the
    total degrees of the base's terms.  A power is refused only when
    both bounds are too large.  A monomial's power is one term, and a
    negative power of a sum is refused as it is taken."""
    k = len(base.terms)
    if k < 2 or power < 1 or (power < MAX_POWER_TERMS
                              and comb(power + k - 1, k - 1) <= MAX_POWER_TERMS):
        return False
    if any(e < 0 for m in base.terms for e in m):
        return True
    v = sum(any(m[i] for m in base.terms) for i in range(len(base.ring.variables)))
    lo, hi = base.total_degree_range()
    return comb(power * hi + v, v) - comb(power * lo - 1 + v, v) > MAX_POWER_TERMS


class ParseError(Exception):
    def __init__(self, message: str, token: "Token"):
        super().__init__(message)
        self.message = message
        self.token = token


class Token:
    """A token's kind (IDENT DERIV DUAL INT SYM ERROR EOF) and text; a
    DUAL's text is its identifier without the marker caret.  Tokens keep
    no position: `token_positions` finds it when a message needs one."""

    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text


# every token, and comments; whitespace matches nothing.  A caret glued
# to an identifier marks a dual basis element, unless it introduces an
# integer power; any other non-space character is a token of its own
_TOKEN_RE = re.compile(r"#[^\n]*|d/d[A-Za-z_][A-Za-z0-9_]*"
                       r"|[A-Za-z_][A-Za-z0-9_]*(?:\^(?![0-9-]))?|[0-9]+|->|\S")

# a token's kind by its first character, ASCII only as the grammar's
# [A-Za-z_] and [0-9] are (str.isalpha and str.isdigit accept é and ²);
# None marks a comment, and a character not listed is an ERROR
_FIRST_KIND = {**dict.fromkeys(string.ascii_letters + "_", "IDENT"),
               **dict.fromkeys(string.digits, "INT"),
               **dict.fromkeys("(){}[],;=+-*^/.", "SYM"), "#": None}

# the whitespace and comments before a token
_GAP_RE = re.compile(r"(?:\s+|#[^\n]*)*")


def tokenize(text: str) -> List[Token]:
    tokens = []
    for chunk in _TOKEN_RE.findall(text):
        kind = _FIRST_KIND.get(chunk[0], "ERROR")
        if kind == "IDENT":
            if chunk[-1] == "^":
                kind, chunk = "DUAL", chunk[:-1]
            elif chunk[1:2] == "/":
                kind = "DERIV"
        elif kind is None:
            continue
        tokens.append(Token(kind, chunk))
    tokens.append(Token("EOF", ""))
    return tokens


def token_positions(text: str, tokens: Sequence[Token]) -> List[Tuple[int, int]]:
    """(line, column) of each of `tokenize(text)`, both from 1, a column
    counted in characters from the last newline: the whitespace and
    comments before each token are walked, and their newlines counted."""
    out = []
    line, line_start, pos = 1, 0, 0
    for tok in tokens:
        start = _GAP_RE.match(text, pos).end()
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        out.append((line, start - line_start + 1))
        pos = start + len(tok.text) + (tok.kind == "DUAL")
    return out


@dataclass
class Definitions:
    objects: Dict[str, object] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)
    meta: Dict[str, dict] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    def define(self, name: str, kind: str, obj: object, meta: dict):
        self.objects[name] = obj
        self.kinds[name] = kind
        self.meta[name] = meta
        self.order.append(name)

    def lookup(self, name: str, kind: str, token: Token):
        if name not in self.objects:
            raise ParseError("undefined name %r" % name, token)
        if kind is not None and self.kinds[name] != kind:
            raise ParseError(self.mismatch(name, kind), token)
        return self.objects[name]

    def mismatch(self, name: str, kind: str) -> str:
        """The message for `name` used where a `kind` is expected."""
        return "%r is %s, expected %s" % (name, _article(self.kinds[name]),
                                           _article(kind))


def _article(noun: str) -> str:
    return ("an " if noun[0] in "aeiou" else "a ") + noun


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.defs = Definitions()
        self._positions: Optional[List[Tuple[int, int]]] = None

    def position(self, tok: Token) -> Tuple[int, int]:
        """(line, column) of `tok`, one of this parser's tokens; the
        positions are found on the first call, for a message."""
        if self._positions is None:
            self._positions = token_positions(self.text, self.tokens)
        return self._positions[self.tokens.index(tok)]

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    # `expect` and `accept` read the token list themselves, and step past
    # a match at once: no caller asks for EOF, so a match is never EOF

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError("expected %r, found %r" % (want, tok.text or "end of input"), tok)
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def _skip_statement(self, start: int):
        """Move past the failed statement whose first token is
        tokens[start]: to its ';' outside braces, or to the '}' that closes
        its outermost brace.  Braces opened since `start` count, so an
        error inside a nested block skips the whole statement."""
        if self.pos == start:
            self.advance()
        depth = parens = 0
        for tok in self.tokens[start:self.pos]:
            if tok.kind == "SYM":
                depth += (tok.text == "{") - (tok.text == "}")
                parens += (tok.text == "(") - (tok.text == ")")
        last = self.tokens[self.pos - 1]
        if last.kind == "SYM" and (last.text == "}" and depth <= 0 or
                                   last.text == ";" and depth == parens == 0):
            return      # the error came after the statement had ended
        while True:
            tok = self.advance()
            if tok.kind == "EOF":
                return
            if tok.kind != "SYM":
                continue
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth <= 0:
                    return
            elif tok.text == ";" and depth <= 0:
                return

    # -- driver ---------------------------------------------------------------

    def parse(self) -> Definitions:
        while self.peek().kind != "EOF":
            start = self.pos
            try:
                self.statement()
            except (ParseError,) as err:
                self.defs.diagnostics.append(Diagnostic(
                    "error", *self.position(err.token), err.message))
                self._skip_statement(start)
            except (RingError, StructureError) as err:
                # at the last token the failed statement read: the error
                # may come after its ';' or '}' (e.g. Cover.verify)
                tok = self.tokens[max(self.pos - 1, start)]
                self.defs.diagnostics.append(Diagnostic(
                    "error", *self.position(tok), str(err)))
                self._skip_statement(start)
        return self.defs

    def statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError("expected a declaration keyword", tok)
        handler = self._STATEMENTS.get(tok.text)
        if handler is None:
            raise ParseError("unknown declaration %r" % tok.text, tok)
        self.advance()
        handler(self)

    def fresh_name(self) -> str:
        tok = self.expect("IDENT")
        if tok.text in self.defs.objects:
            raise ParseError("name %r is already defined" % tok.text, tok)
        return tok.text

    def ref(self, kind: str) -> Tuple[str, object]:
        """A name defined earlier with the given kind: (name, object)."""
        tok = self.expect("IDENT")
        return tok.text, self.defs.lookup(tok.text, kind, tok)

    # -- statements -------------------------------------------------------------

    def ring_stmt(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        kind_tok = self.expect("IDENT")
        if kind_tok.text not in ("poly", "laurent"):
            raise ParseError("ring kind must be poly or laurent", kind_tok)
        self.expect("SYM", "(")
        base = self.expect("IDENT")
        if base.text != "Q":
            raise ParseError("only the rational base field Q is supported", base)
        self.expect("SYM", ";")
        variables = [self.expect("IDENT").text]
        while self.accept("SYM", ","):
            variables.append(self.expect("IDENT").text)
        self.expect("SYM", ")")
        self.expect("SYM", ";")
        laurent = variables if kind_tok.text == "laurent" else ()
        ring = ChartRing(variables, laurent=laurent)
        self.defs.define(name, "ring", ring, {"kind": kind_tok.text})

    def algebroid_stmt(self):
        name = self.fresh_name()
        self.expect("IDENT", "over")
        ring_name, ring = self.ref("ring")
        self.expect("SYM", "{")
        basis: List[str] = []
        anchors: Dict[str, List[RingElement]] = {}
        brackets: Dict[Tuple[int, int], List[RingElement]] = {}
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT")
            if key.text == "basis":
                while True:
                    tok = self.expect("IDENT")
                    if tok.text in basis:
                        raise ParseError("basis element %r is declared twice"
                                         % tok.text, tok)
                    basis.append(tok.text)
                    if not self.accept("SYM", ","):
                        break
                self.expect("SYM", ";")
            elif key.text == "anchor":
                while True:
                    e = self.expect("IDENT")
                    if e.text not in basis:
                        raise ParseError("unknown basis element %r" % e.text, e)
                    if e.text in anchors:
                        raise ParseError("anchor of %r is given twice" % e.text, e)
                    self.expect("SYM", "->")
                    anchors[e.text] = self.anchor_expr(ring)
                    if not self.accept("SYM", ","):
                        break
                self.expect("SYM", ";")
            elif key.text == "bracket":
                self.expect("SYM", "[")
                a = self.expect("IDENT")
                self.expect("SYM", ",")
                b = self.expect("IDENT")
                self.expect("SYM", "]")
                for t in (a, b):
                    if t.text not in basis:
                        raise ParseError("unknown basis element %r" % t.text, t)
                i, j = basis.index(a.text), basis.index(b.text)
                if (min(i, j), max(i, j)) in brackets:
                    raise ParseError("bracket [%s, %s] is given twice"
                                     % (a.text, b.text), a)
                self.expect("SYM", "=")
                section = self.named_sum(
                    ring, basis, lambda: self.basis_name(basis), (";",),
                    "two basis factors in one term",
                    "section term needs a basis element")
                self.expect("SYM", ";")
                if i == j:
                    if any(not c.is_zero() for c in section):
                        raise ParseError(
                            "bracket of equal basis elements must be zero", a)
                    continue
                if i > j:
                    i, j = j, i
                    section = [-c for c in section]
                brackets[(i, j)] = section
            else:
                raise ParseError("unknown algebroid clause %r" % key.text, key)
        nder = len(ring.derivation_names)
        anchor_rows = []
        for bname in basis:
            anchor_rows.append(anchors.get(bname, [ring.zero] * nder))
        alg = Algebroid(ring, len(basis), anchor_rows, brackets,
                        basis_names=basis)
        self.defs.define(name, "algebroid", alg, {"ring": ring_name})

    def form_stmt(self):
        name = self.fresh_name()
        self.expect("IDENT", "on")
        alg_name, alg = self.ref("algebroid")
        self.expect("SYM", "=")
        form = self.form_expr(alg)
        self.expect("SYM", ";")
        self.defs.define(name, "form", form, {"algebroid": alg_name})

    def basis_name(self, names: Sequence[str], kinds=("IDENT", "DERIV")
                   ) -> Optional[str]:
        """The name in `names` spelled by the next tokens, which are then
        consumed, or None: one token of the given kinds, or a compound
        name like z*d/dz (logarithmic frames) spanning three tokens."""
        tok = self.peek()
        if tok.kind in kinds and tok.text in names:
            self.advance()
            return tok.text
        if (tok.kind == "IDENT"
                and self.tokens[self.pos + 1].text == "*"
                and self.tokens[self.pos + 2].kind == "DERIV"):
            compound = tok.text + "*" + self.tokens[self.pos + 2].text
            if compound in names:
                self.pos += 3
                return compound
        return None

    def basis_ref(self, alg: Algebroid) -> int:
        tok = self.peek()
        name = self.basis_name(alg.basis_names)
        if name is None:
            raise ParseError("unknown basis element %r" % tok.text, tok)
        return alg.basis_names.index(name)

    def connection_stmt(self):
        name = self.fresh_name()
        self.expect("IDENT", "on")
        alg_name, alg = self.ref("algebroid")
        self.expect("IDENT", "rank")
        conn = self.connection_body(alg, int(self.expect("INT").text))
        self.defs.define(name, "connection", conn, {"algebroid": alg_name})

    def connection_body(self, alg: Algebroid, rank: int) -> Connection:
        """`{ e -> [[...]]; ... }`; basis elements left out act by zero."""
        mats = self.arrows(lambda: self.basis_ref(alg),
                           lambda: self.matrix_expr(alg.base, rank))
        rows = [mats.get(i, [[alg.base.zero] * rank for _ in range(rank)])
                for i in range(alg.rank)]
        return Connection(alg, rank, rows)

    def relations_stmt(self):
        name = self.fresh_name()
        self.expect("IDENT", "on")
        alg_name, alg = self.ref("algebroid")
        twist_name, twist = None, None
        if self.accept("IDENT", "twist"):
            twist_name, twist = self.ref("form")
        self.expect("SYM", ";")
        system = RelationSystem(alg, twist)
        self.defs.define(name, "relations", system,
                         {"algebroid": alg_name, "twist": twist_name})

    def matched_stmt(self):
        name = self.fresh_name()
        self.expect("SYM", "{")
        pieces = {}
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT")
            if key.text not in ("l1", "l2", "action12", "action21"):
                raise ParseError("unknown matched-pair clause %r" % key.text, key)
            if key.text in pieces:
                raise ParseError("%s is given twice" % key.text, key)
            kind = "algebroid" if key.text in ("l1", "l2") else "connection"
            pieces[key.text] = self.ref(kind)
            self.expect("SYM", ";")
        for required in ("l1", "l2", "action12", "action21"):
            if required not in pieces:
                raise ParseError("matched pair is missing %r" % required,
                                 self.peek())
        pair = MatchedPair(pieces["l1"][1], pieces["l2"][1],
                           pieces["action12"][1], pieces["action21"][1])
        self.defs.define(name, "matched", pair,
                         {k: v[0] for k, v in pieces.items()})

    def cover_stmt(self):
        name = self.fresh_name()
        if self.accept("SYM", "="):
            kind = self.expect("IDENT")
            if kind.text != "p1":
                raise ParseError("unknown built-in cover %r" % kind.text, kind)
            self.expect("SYM", "(")
            alg_tok = self.expect("IDENT")
            if alg_tok.text not in ("tangent", "log"):
                raise ParseError("p1 cover takes tangent or log", alg_tok)
            bundle = None
            if self.accept("SYM", ","):
                self.expect("IDENT", "bundle")
                self.expect("SYM", "=")
                bundle = self.int_literal()
            self.expect("SYM", ")")
            self.expect("SYM", ";")
            cover = make_p1_cover(alg_tok.text, bundle=bundle)
            self.defs.define(name, "cover", cover,
                             {"builtin": alg_tok.text, "bundle": bundle})
            return
        self.expect("SYM", "{")
        charts: List[Tuple[str, str]] = []
        overlaps: Dict[Tuple[int, int], Overlap] = {}
        overlap_rings = {}
        triples: List[Tuple[int, int, int]] = []
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT")
            if key.text == "chart":
                r_tok = self.expect("IDENT")
                l_tok = self.expect("IDENT")
                self.defs.lookup(r_tok.text, "ring", r_tok)
                self.defs.lookup(l_tok.text, "algebroid", l_tok)
                charts.append((r_tok.text, l_tok.text))
                self.expect("SYM", ";")
            elif key.text == "overlap":
                a_tok = self.expect("INT")
                a, b = int(a_tok.text), int(self.expect("INT").text)
                if (a, b) in overlaps:
                    raise ParseError("overlap %d %d is given twice" % (a, b),
                                     a_tok)
                overlaps[(a, b)], overlap_rings[(a, b)] = \
                    self.overlap_block(charts, a, b)
            elif key.text == "triple":
                t = tuple(int(self.expect("INT").text) for _ in range(3))
                triples.append(t)
                self.expect("SYM", ";")
            else:
                raise ParseError("unknown cover clause %r" % key.text, key)
        chart_objs = [(self.defs.objects[r], self.defs.objects[l])
                      for r, l in charts]
        cover = Cover(chart_objs, overlaps, triples=triples)
        cover.verify()
        self.defs.define(name, "cover", cover,
                         {"charts": charts, "overlap_rings": overlap_rings,
                          "triples": triples})

    def overlap_block(self, charts, a, b):
        open_tok = self.expect("SYM", "{")
        if not (0 <= a < len(charts)) or not (0 <= b < len(charts)) or a >= b:
            raise ParseError("overlap indices must name earlier charts, "
                             "ascending", open_tok)
        ring = ring_name = None
        maps = {}
        ders = {}
        transition = None
        bundle = None
        seen = set()
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT")
            if key.text not in ("ring", "map", "derivations", "transition", "bundle"):
                raise ParseError("unknown overlap clause %r" % key.text, key)
            clause = key.text
            if key.text in ("map", "derivations"):
                side = int(self.expect("INT").text)
                if side not in (a, b):
                    raise ParseError("%s side must be %d or %d"
                                     % (key.text, a, b), key)
                src = self.defs.objects[charts[side][0]]
                clause = "%s %d" % (key.text, side)
            if clause in seen:
                raise ParseError("%s is given twice" % clause, key)
            seen.add(clause)
            if key.text == "ring":
                ring_name, ring = self.ref("ring")
                self.expect("SYM", ";")
                continue
            if ring is None:
                raise ParseError("declare the overlap ring first", key)
            if key.text == "map":
                images = self.arrows(lambda: self.expect("IDENT").text,
                                     lambda: self.scalar_expr(ring))
                maps[side] = RingMap(src, ring, images)
            elif key.text == "derivations":
                def chart_derivation():
                    d = self.expect("DERIV")
                    if d.text not in src.derivation_names:
                        raise ParseError("unknown chart derivation %r" % d.text, d)
                    return d.text
                rows = self.arrows(chart_derivation,
                                   lambda: self.anchor_expr(ring))
                ders[side] = [rows.get(dn, [ring.zero] * len(ring.derivation_names))
                              for dn in src.derivation_names]
            elif key.text == "transition":
                rank = self.defs.objects[charts[a][1]].rank
                transition = self.matrix_expr(ring, rank)
                self.expect("SYM", ";")
            else:
                bundle = self.square_matrix_expr(ring)
                self.expect("SYM", ";")
        if ring is None or a not in maps or b not in maps \
                or a not in ders or b not in ders or transition is None:
            raise ParseError("overlap block is incomplete", open_tok)
        return Overlap(ring, maps[a], maps[b], ders[a], ders[b], transition,
                       bundle), ring_name

    def cocycle_stmt(self):
        name = self.fresh_name()
        if self.accept("SYM", "="):
            fn = self.expect("IDENT")
            if fn.text != "atiyah":
                raise ParseError("unknown cocycle constructor %r" % fn.text, fn)
            self.expect("SYM", "(")
            cover_name, cover = self.ref("cover")
            self.expect("SYM", ")")
            self.expect("SYM", ";")
            pair = atiyah_cocycle(cover)
            self.defs.define(name, "cocycle", pair,
                             {"atiyah": cover_name, "cover": cover_name})
            return
        self.expect("IDENT", "on")
        cover_name, cover = self.ref("cover")
        self.expect("SYM", "{")
        phi = {}
        q = {}
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT")
            if key.text == "phi":
                a_tok = self.expect("INT")
                a, b = int(a_tok.text), int(self.expect("INT").text)
                if (a, b) not in cover.overlaps:
                    raise ParseError("no overlap (%d,%d) in the cover"
                                     % (a, b), key)
                if (a, b) in phi:
                    raise ParseError("phi %d %d is given twice" % (a, b), a_tok)
                self.expect("SYM", "=")
                frame = cover.frame_algebroid(a, b)
                phi[(a, b)] = self.form_expr(frame, expect_degree=1)
                self.expect("SYM", ";")
            elif key.text == "q":
                a_tok = self.peek()
                a = self.chart_ref(cover, key)
                if a in q:
                    raise ParseError("q %d is given twice" % a, a_tok)
                self.expect("SYM", "=")
                q[a] = self.form_expr(cover.chart_algebroid(a), expect_degree=2)
                self.expect("SYM", ";")
            else:
                raise ParseError("unknown cocycle clause %r" % key.text, key)
        pair = CechPair(cover, phi, q)
        self.defs.define(name, "cocycle", pair, {"cover": cover_name})

    def bunch_stmt(self):
        name = self.fresh_name()
        self.expect("IDENT", "on")
        cover_name, cover = self.ref("cover")
        self.expect("IDENT", "rank")
        rank = int(self.expect("INT").text)
        self.expect("SYM", "{")
        conns: Dict[int, Connection] = {}
        while not self.accept("SYM", "}"):
            key = self.expect("IDENT", "connection")
            a_tok = self.peek()
            a = self.chart_ref(cover, key)
            if a in conns:
                raise ParseError("connection of chart %d is given twice" % a,
                                 a_tok)
            conns[a] = self.connection_body(cover.chart_algebroid(a), rank)
        missing = [a for a in range(len(cover.charts)) if a not in conns]
        if missing:
            raise ParseError("bunch is missing connections for charts %s"
                             % missing, self.peek())
        bunch = LocalConnectionBunch(cover, rank,
                                     [conns[a] for a in range(len(cover.charts))])
        self.defs.define(name, "bunch", bunch,
                         {"cover": cover_name, "rank": rank})

    # the statement reader of each declaration keyword (see `statement`)
    _STATEMENTS = {"ring": ring_stmt, "algebroid": algebroid_stmt,
                   "form": form_stmt, "connection": connection_stmt,
                   "relations": relations_stmt, "matched": matched_stmt,
                   "cover": cover_stmt, "cocycle": cocycle_stmt,
                   "bunch": bunch_stmt}

    def arrows(self, key, value) -> dict:
        """`{ k -> v; ... }` with k read by `key()`, v by `value()`; each k
        at most once."""
        self.expect("SYM", "{")
        out = {}
        while not self.accept("SYM", "}"):
            start = self.pos
            k = key()
            if k in out:
                raise ParseError("arrow from %r is given twice" % "".join(
                    t.text for t in self.tokens[start:self.pos]),
                    self.tokens[start])
            self.expect("SYM", "->")
            out[k] = value()
            self.expect("SYM", ";")
        return out

    def chart_ref(self, cover, key: Token) -> int:
        a = int(self.expect("INT").text)
        if not (0 <= a < len(cover.charts)):
            raise ParseError("no chart %d in the cover" % a, key)
        return a

    # -- expressions -----------------------------------------------------------

    def int_literal(self) -> int:
        sign = 1
        if self.accept("SYM", "-"):
            sign = -1
        return sign * int(self.expect("INT").text)

    def sum_of(self, term):
        """term ((+|-) term)*"""
        total = term()
        while True:
            if self.accept("SYM", "+"):
                total = total + term()
            elif self.accept("SYM", "-"):
                total = total - term()
            else:
                return total

    def scalar_expr(self, ring: ChartRing) -> RingElement:
        """+ - * ^ expression in the ring variables."""
        return self.sum_of(lambda: self._product(ring)[1])

    def _product(self, ring: ChartRing, special=None
                ) -> Tuple[list, RingElement, Token]:
        """factor (* factor)*, as (hits, product of the scalar factors,
        first token of the last factor).  `special(hits)`, when given, is
        tried first at each factor (see `combination`).  The monomial
        factors (`_monomial_factor`) go into one running coefficient and
        exponent list, made a term once; every other scalar factor is
        read by `scalar_factor`."""
        hits: list = []
        mono = [1, [0] * len(ring.variables)]
        value, monomial = None, False
        while True:
            tok = self.peek()
            if special is None or not special(hits):
                if self._monomial_factor(ring, mono):
                    monomial = True
                else:
                    factor = self.scalar_factor(ring)
                    value = factor if value is None else value * factor
            if not self.accept("SYM", "*"):
                break
        if monomial:
            term = ring.monomial(mono[1], mono[0]) if mono[0] else ring.zero
            value = term if value is None else value * term
        return hits, ring.one if value is None else value, tok

    def _monomial_factor(self, ring: ChartRing, mono: list) -> bool:
        """Multiply the next factor into mono = [coefficient, exponents]
        and read past it if it is a monomial factor: an INT not followed
        by '/' or '^', or a ring variable with an optional power ^[-]INT
        not followed by a second '^', negative only at a Laurent
        variable.  Otherwise read nothing and return False: such a
        factor, and every error, is left to `scalar_factor`."""
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok.kind == "INT":
            if tokens[pos + 1].text in ("/", "^"):
                return False
            mono[0] *= int(tok.text)
            self.pos = pos + 1
            return True
        if tok.kind != "IDENT" or tok.text not in ring.variables:
            return False
        power, pos = 1, pos + 1
        if tokens[pos].text == "^":
            negative = tokens[pos + 1].text == "-"
            num = tokens[pos + 1 + negative]
            if num.kind != "INT" or negative and tok.text not in ring.laurent:
                return False
            pos += 2 + negative
            if tokens[pos].text == "^":
                return False
            power = -int(num.text) if negative else int(num.text)
        mono[1][ring.variables.index(tok.text)] += power
        self.pos = pos
        return True

    def scalar_factor(self, ring: ChartRing) -> RingElement:
        if self.accept("SYM", "-"):
            return -self.scalar_factor(ring)
        atom = self.scalar_atom(ring)
        while tok := self.accept("SYM", "^"):
            power = self.int_literal()
            if _power_refused(atom, power):
                raise ParseError(
                    "the power at column %d could hold more than %d terms"
                    % (self.position(tok)[1], MAX_POWER_TERMS), tok)
            atom = atom ** power
        return atom

    def scalar_atom(self, ring: ChartRing) -> RingElement:
        tok = self.peek()
        if self.accept("SYM", "("):
            value = self.scalar_expr(ring)
            self.expect("SYM", ")")
            return value
        if tok.kind == "INT":
            self.advance()
            num = int(tok.text)
            if self.accept("SYM", "/"):
                den_tok = self.expect("INT")
                if int(den_tok.text) == 0:
                    raise ParseError("division by zero", den_tok)
                return ring.const(Fraction(num, int(den_tok.text)))
            return ring.const(num)
        if tok.kind == "IDENT":
            if tok.text in ring.variables:
                self.advance()
                return ring.var(tok.text)
            raise ParseError("unknown variable %r" % tok.text, tok)
        raise ParseError("expected a scalar expression", tok)

    def combination(self, ring: ChartRing, special, ends: Sequence[str]):
        """The terms `[+-] factor * factor ...` of a linear combination.

        `special(hits)` reads a factor that is not a scalar and appends what
        it read to the term's hits; it reads nothing and returns False when
        the next factor is a scalar.  Yields (hits, signed coefficient,
        first token of the term's last factor) per term.  A bare 0 before a
        token in `ends` is the empty combination."""
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0" \
                and self.tokens[self.pos + 1].text in ends:
            self.advance()
            return
        sign = 1
        while True:
            hits, coeff, tok = self._product(ring, special)
            yield hits, (coeff if sign == 1 else -coeff), tok
            if self.accept("SYM", "+"):
                sign = 1
            elif self.accept("SYM", "-"):
                sign = -1
            else:
                return

    def named_sum(self, ring: ChartRing, names: Sequence[str], read, ends,
                  twice: str, missing: str) -> List[RingElement]:
        """The coefficient of each of `names` in a combination whose terms
        have exactly one named factor each.  `read()` consumes a named
        factor and returns its name, or returns None before a scalar
        factor; `twice` and `missing` are the messages for a term with two
        named factors and for one with none."""
        out = [ring.zero] * len(names)

        def special(hits):
            tok = self.peek()
            name = read()
            if name is None:
                return False
            if hits:
                raise ParseError(twice, tok)
            hits.append(names.index(name))
            return True

        for hits, coeff, tok in self.combination(ring, special, ends):
            if not hits:
                raise ParseError(missing, tok)
            out[hits[0]] = out[hits[0]] + coeff
        return out

    def anchor_expr(self, ring: ChartRing) -> List[RingElement]:
        """Sum of scalar multiples of declared derivations."""
        def derivation() -> Optional[str]:
            tok = self.peek()
            if tok.kind != "DERIV":
                return None
            self.advance()
            if tok.text not in ring.derivation_names:
                raise ParseError("unknown derivation %r" % tok.text, tok)
            return tok.text

        return self.named_sum(ring, ring.derivation_names, derivation,
                              (";", ","), "two derivation factors in one term",
                              "anchor term needs a derivation factor")

    def dual_name(self, names: Sequence[str]) -> Optional[str]:
        """A dual basis element, or None: a DUAL token, or a derivation or
        compound basis name followed by the marker caret (d/dz lexes as
        DERIV, so d/dz^ is two tokens; likewise z*d/dz^)."""
        tok = self.peek()
        if tok.kind == "DUAL":
            self.advance()
            return tok.text
        name = self.basis_name(names, ("DERIV",))
        if name is not None:
            self.expect("SYM", "^")
        return name

    def form_expr(self, alg: Algebroid, expect_degree: Optional[int] = None
                  ) -> LForm:
        """Sum of wedge terms of dual basis factors with scalar coefficients."""
        names = list(alg.basis_names)
        first_tok = self.peek()

        def wedge(duals: List[int]) -> bool:
            tok = self.peek()
            got = self.dual_name(names)
            if got is None:
                return False
            if got not in names:
                raise ParseError("unknown dual basis element %r" % got, tok)
            duals.append(names.index(got))
            # a bare ^ continues the wedge chain
            while self.accept("SYM", "^"):
                tok = self.peek()
                got = self.dual_name(names)
                if got is None or got not in names:
                    raise ParseError("expected a dual basis element", tok)
                duals.append(names.index(got))
            return True

        terms = [(duals, coeff) for duals, coeff, _
                 in self.combination(alg.base, wedge, (";",))]
        if not terms:
            return LForm(alg, 0 if expect_degree is None else expect_degree, {})
        degrees = {len(d) for d, _ in terms}
        if len(degrees) > 1:
            raise ParseError("form terms have mixed degrees", first_tok)
        degree = degrees.pop()
        if expect_degree is not None and degree != expect_degree \
                and any(not c.is_zero() for _, c in terms):
            raise ParseError("expected a degree-%d form" % expect_degree,
                             first_tok)
        coeffs: Dict[Tuple[int, ...], RingElement] = {}
        for duals, coeff in terms:
            idx, sgn = sort_with_sign(duals)
            if idx is None:
                continue
            val = coeff if sgn == 1 else -coeff
            cur = coeffs.get(idx)
            coeffs[idx] = val if cur is None else cur + val
        return LForm(alg, degree, coeffs)

    def matrix_expr(self, ring: ChartRing, rank: int) -> List[List[RingElement]]:
        rows = self.square_matrix_expr(ring)
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise ParseError("expected a %d x %d matrix" % (rank, rank),
                             self.peek())
        return rows

    def square_matrix_expr(self, ring: ChartRing) -> List[List[RingElement]]:
        self.expect("SYM", "[")
        rows = []
        while True:
            self.expect("SYM", "[")
            row = [self.scalar_expr(ring)]
            while self.accept("SYM", ","):
                row.append(self.scalar_expr(ring))
            self.expect("SYM", "]")
            rows.append(row)
            if not self.accept("SYM", ","):
                break
        self.expect("SYM", "]")
        return rows

    def word_expr(self, system: RelationSystem) -> PbwElement:
        """Entry point for normal-form inputs: sums of products of
        generators and scalars.  Each product is one raw word, reduced by
        one normal_form call."""
        return self.sum_of(lambda: normal_form(self.word_items(system), system))

    def word_items(self, system: RelationSystem) -> List[Item]:
        """factor (* factor)*, as the raw items of one word."""
        items = self.word_factor(system)
        while self.accept("SYM", "*"):
            items += self.word_factor(system)
        return items

    def word_factor(self, system: RelationSystem) -> List[Item]:
        """A generator or a generator power as its letters, or one
        scalar."""
        tok = self.peek()
        names = list(system.algebroid.basis_names)
        if tok.kind in ("IDENT", "DERIV") and tok.text in names:
            self.advance()
            i = names.index(tok.text)
            if not self.accept("SYM", "^"):
                return [i]
            power = self.int_literal()
            if power < 0:
                raise ParseError("generators cannot carry negative powers",
                                 tok)
            if power > MAX_GENERATOR_POWER:
                raise ParseError("generator powers are limited to %d"
                                 % MAX_GENERATOR_POWER, tok)
            return [i] * power
        return [self.scalar_factor(system.ring)]

def parse(text: str) -> Definitions:
    return Parser(text).parse()


def parse_word(text: str, system: RelationSystem) -> PbwElement:
    parser = Parser(text)
    result = parser.word_expr(system)
    if parser.peek().kind != "EOF":
        raise ParseError("unexpected trailing input", parser.peek())
    return result


# -- canonical renderer ----------------------------------------------------------


def _render_sum(ring: ChartRing, names: Sequence[str],
                coeffs: Sequence[RingElement]) -> str:
    """An anchor or a section: the nonzero terms `(c)*name`."""
    parts = []
    for name, coeff in zip(names, coeffs):
        if coeff.is_zero():
            continue
        if coeff == ring.one:
            parts.append(name)
        else:
            parts.append("(%s)*%s" % (coeff, name))
    return " + ".join(parts) if parts else "0"


def render_form(form: LForm) -> str:
    if not form.coeffs:
        return "0"
    names = form.owner.basis_names
    parts = []
    for idx in sorted(form.coeffs):
        label = " ^ ".join("%s^" % names[t] for t in idx)
        coeff = form.coeffs[idx]
        if not idx:
            parts.append("(%s)" % coeff)
        else:
            parts.append("(%s) * %s" % (coeff, label))
    return " + ".join(parts)


def render_matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in rows) + "]"


def _render_connection(conn: Connection) -> List[str]:
    """The `e -> [[...]];` entries of a connection body, zeros left out."""
    return ["%s -> %s;" % (bname, render_matrix(conn.matrices[i]))
            for i, bname in enumerate(conn.algebroid.basis_names)
            if any(not x.is_zero() for row in conn.matrices[i] for x in row)]


def render(defs: Definitions) -> str:
    out: List[str] = []
    for name in defs.order:
        kind = defs.kinds[name]
        obj = defs.objects[name]
        meta = defs.meta[name]
        if kind == "ring":
            out.append("ring %s = %s(Q; %s);"
                       % (name, meta["kind"], ", ".join(obj.variables)))
        elif kind == "algebroid":
            lines = ["algebroid %s over %s {" % (name, meta["ring"])]
            lines.append("  basis %s;" % ", ".join(obj.basis_names))
            anchors = []
            for i, bname in enumerate(obj.basis_names):
                if any(not c.is_zero() for c in obj.anchor[i]):
                    anchors.append("%s -> %s" % (bname, _render_sum(
                        obj.base, obj.base.derivation_names, obj.anchor[i])))
            if anchors:
                lines.append("  anchor %s;" % ", ".join(anchors))
            for (i, j) in sorted(obj.structure):
                lines.append("  bracket [%s, %s] = %s;"
                             % (obj.basis_names[i], obj.basis_names[j],
                                _render_sum(obj.base, obj.basis_names,
                                            obj.structure[(i, j)])))
            lines.append("}")
            out.append("\n".join(lines))
        elif kind == "form":
            body, names = render_form(obj), obj.owner.basis_names
            if obj.degree and not obj.coeffs and names:
                # one zero term keeps a zero p-form's degree
                body = "0 * " + " ^ ".join("%s^" % names[t % len(names)]
                                           for t in range(obj.degree))
            out.append("form %s on %s = %s;" % (name, meta["algebroid"], body))
        elif kind == "connection":
            lines = ["connection %s on %s rank %d {"
                     % (name, meta["algebroid"], obj.rank)]
            lines += ["  " + entry for entry in _render_connection(obj)]
            lines.append("}")
            out.append("\n".join(lines))
        elif kind == "relations":
            if meta["twist"]:
                out.append("relations %s on %s twist %s;"
                           % (name, meta["algebroid"], meta["twist"]))
            else:
                out.append("relations %s on %s;" % (name, meta["algebroid"]))
        elif kind == "matched":
            out.append("matched %s { l1 %s; l2 %s; action12 %s; action21 %s; }"
                       % (name, meta["l1"], meta["l2"], meta["action12"],
                          meta["action21"]))
        elif kind == "cover":
            if "builtin" in meta:
                if meta["bundle"] is not None:
                    out.append("cover %s = p1(%s, bundle=%d);"
                               % (name, meta["builtin"], meta["bundle"]))
                else:
                    out.append("cover %s = p1(%s);" % (name, meta["builtin"]))
            else:
                lines = ["cover %s {" % name]
                for r, l in meta["charts"]:
                    lines.append("  chart %s %s;" % (r, l))
                for (a, b), ov in sorted(obj.overlaps.items()):
                    lines.append("  overlap %d %d {" % (a, b))
                    lines.append("    ring %s;" % meta["overlap_rings"][(a, b)])
                    for side, rm, der in ((a, ov.map_a, ov.der_a),
                                          (b, ov.map_b, ov.der_b)):
                        srcring = obj.charts[side][0]
                        entries = "; ".join("%s -> %s" % (v, rm.images[v])
                                            for v in srcring.variables)
                        lines.append("    map %d { %s; }" % (side, entries))
                        dentries = "; ".join(
                            "%s -> %s" % (dn, _render_sum(
                                ov.ring, ov.ring.derivation_names, der[k]))
                            for k, dn in enumerate(srcring.derivation_names))
                        lines.append("    derivations %d { %s; }"
                                     % (side, dentries))
                    lines.append("    transition %s;"
                                 % render_matrix(ov.transition))
                    if ov.bundle is not None:
                        lines.append("    bundle %s;" % render_matrix(ov.bundle))
                    lines.append("  }")
                for t in meta["triples"]:
                    lines.append("  triple %d %d %d;" % t)
                lines.append("}")
                out.append("\n".join(lines))
        elif kind == "cocycle":
            if "atiyah" in meta:
                out.append("cocycle %s = atiyah(%s);" % (name, meta["atiyah"]))
            else:
                lines = ["cocycle %s on %s {" % (name, meta["cover"])]
                for (a, b), form in sorted(obj.phi.items()):
                    lines.append("  phi %d %d = %s;" % (a, b, render_form(form)))
                for a, form in sorted(obj.q.items()):
                    if not form.is_zero():
                        lines.append("  q %d = %s;" % (a, render_form(form)))
                lines.append("}")
                out.append("\n".join(lines))
        elif kind == "bunch":
            lines = ["bunch %s on %s rank %d {"
                     % (name, meta["cover"], meta["rank"])]
            for a, conn in enumerate(obj.connections):
                lines.append("  connection %d { %s }"
                             % (a, " ".join(_render_connection(conn))))
            lines.append("}")
            out.append("\n".join(lines))
    return "\n".join(out) + "\n"
