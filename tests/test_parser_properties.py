"""Property tests for the parser: any token stream gives diagnostics,
never an exception out of `parse`, what did parse renders to text that
parses back to the same rendering, and a scalar expression parses to
the element that RingElement arithmetic gives."""

import pathlib
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from algebroid.parser import (Definitions, Diagnostic, Parser, parse,  # noqa: E402
                              render, tokenize)
from algebroid.rings import ChartRing  # noqa: E402

from oracles import char_walk_tokenize  # noqa: E402
from test_parser import positioned_tokens  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"


def _text(tok):
    # a DUAL token is an identifier glued to its marker caret
    return tok.text + "^" if tok.kind == "DUAL" else tok.text


CATALOG = [[_text(t) for t in tokenize(path.read_text()) if t.kind != "EOF"]
           for path in sorted(DATA.glob("*.adf"))]
# every token of the catalog files, so integers stay the files' own small ones
VOCABULARY = sorted({t for tokens in CATALOG for t in tokens})

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    derandomize=True)


def only_diagnostics(text):
    defs = parse(text)
    assert isinstance(defs, Definitions)
    assert all(isinstance(d, Diagnostic) for d in defs.diagnostics)
    return defs


@SETTINGS
@given(st.lists(st.sampled_from(VOCABULARY), max_size=40))
def test_vocabulary_streams_give_only_diagnostics(tokens):
    only_diagnostics(" ".join(tokens))


@st.composite
def edited_catalog_file(draw):
    """A catalog file's tokens with a few deleted, replaced or inserted,
    so most of the stream still reaches deep into the grammar."""
    tokens = list(draw(st.sampled_from(CATALOG)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("delete", "replace", "insert")))
        if edit != "insert" and i < len(tokens):
            del tokens[i]
        if edit != "delete":
            tokens.insert(i, draw(st.sampled_from(VOCABULARY)))
    return " ".join(tokens)


@SETTINGS
@given(edited_catalog_file())
def test_edited_catalog_files_round_trip(text):
    defs = only_diagnostics(text)
    canonical = render(defs)
    again = parse(canonical)
    assert again.ok(), (canonical, again.diagnostics)
    assert render(again) == canonical
    # a form's degree survives, a zero p-form's too
    assert [again.objects[n].degree for n in again.order if again.kinds[n] == "form"] \
        == [defs.objects[n].degree for n in defs.order if defs.kinds[n] == "form"]


# -- scalar expressions against RingElement arithmetic --------------------------

RING = ChartRing(["x", "y"], laurent=["x"])    # x Laurent, y polynomial
X, Y = RING.var("x"), RING.var("y")


@st.composite
def leaf(draw):
    """(text, value, needs parentheses as a factor) of a literal, a
    fraction, a constant power, a variable, a power of one or a power of
    a power of one."""
    kind = draw(st.sampled_from(("int", "fraction", "constant power", "variable",
                                 "power", "power", "power of power")))
    if kind == "int":
        n = draw(st.integers(0, 12))
        return str(n), RING.const(n), False
    if kind == "fraction":
        a, b = draw(st.integers(0, 9)), draw(st.integers(1, 9))
        return "%d/%d" % (a, b), RING.const(Fraction(a, b)), False
    if kind == "constant power":
        a, n = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        return "%d^%d" % (a, n), RING.const(a ** n), False
    name = draw(st.sampled_from("xy"))
    var, low = (X, -4) if name == "x" else (Y, 0)
    text, value = name, var
    for _ in range(("variable", "power", "power of power").index(kind)):
        n = draw(st.integers(low, 4))     # x^-2^3 is (x^-2)^3
        text, value = "%s^%d" % (text, n), value ** n
    return text, value, False


def factor_text(node):
    text, _, compound = node
    return "(%s)" % text if compound else text


def combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: (
            "%s*%s" % (factor_text(ab[0]), factor_text(ab[1])),
            ab[0][1] * ab[1][1], False)),
        st.tuples(children, st.sampled_from("+-"), children).map(lambda asb: (
            "%s %s %s" % (asb[0][0], asb[1], factor_text(asb[2])),
            asb[0][1] + asb[2][1] if asb[1] == "+" else asb[0][1] - asb[2][1], True)),
        children.map(lambda a: ("-%s" % factor_text(a), -a[1], False)),
        st.tuples(children.filter(lambda a: len(a[1].terms) <= 4),
                  st.integers(0, 3)).map(lambda an: (
                      "(%s)^%d" % (an[0][0], an[1]), an[0][1] ** an[1], False)),
    )


@settings(SETTINGS, max_examples=400)
@given(st.recursive(leaf(), combine, max_leaves=10))
def test_scalar_expressions_parse_to_ring_arithmetic(node):
    # monomial factors are multiplied into one term as they are read,
    # every other factor by RingElement arithmetic: the two agree
    text, value, _ = node
    parser = Parser(text)
    parsed = parser.scalar_expr(RING)
    assert parser.peek().kind == "EOF", text
    assert parsed == value, text
    assert str(parsed) == str(value)
    assert all(type(c) is int or c.denominator > 1 for c in parsed.terms.values())


# ASCII identifiers and integers, every symbol, comments, derivations and
# carets; whitespace beyond ASCII; letters and digits beyond ASCII (e with
# acute, sharp s, superscript two, Arabic-Indic three, Roman numeral
# twelve, mathematical italic x), which the grammar's [A-Za-z_] and [0-9]
# leave out
UNICODE_PIECES = (["x", "e1", "_b", "Z9", "d", "0", "27", "d/d", "d/dx", "->", "^",
                   "# ring x", "#", " ", "\n"] + list("(){}[],;=+-*/.")
                  + ["\t", "\r", "\x0b", "\x0c", "\u00a0", "\u2028", "\u3000"]
                  + ["\u00e9", "\u00df", "\u00b2", "\u0663", "\u216b", "\U0001d465"])


@settings(SETTINGS, max_examples=1000)
@given(st.lists(st.sampled_from(UNICODE_PIECES), max_size=30), st.booleans())
def test_tokens_and_positions_match_char_walk_oracle(pieces, caret_at_end):
    # the kind, text, line and column of every token, against the walk
    # over every character; a caret may end the input
    text = "".join(pieces) + "^" * caret_at_end
    assert positioned_tokens(text) == char_walk_tokenize(text)
