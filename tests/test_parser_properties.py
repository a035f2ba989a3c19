"""Property tests for the parser: any token stream gives diagnostics,
never an exception out of `parse`, and what did parse renders to text
that parses back to the same rendering."""

import pathlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from algebroid.parser import Definitions, Diagnostic, parse, render, tokenize  # noqa: E402

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
