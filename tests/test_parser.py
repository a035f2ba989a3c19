import pathlib
import random
from fractions import Fraction

import pytest

from algebroid.parser import (Diagnostic, parse, parse_word, render, token_positions,
                              tokenize)
from algebroid.forms import LForm

from oracles import char_walk_tokenize

PLANE = """
ring R = poly(Q; x, y);
algebroid T over R {
  basis e1, e2;
  anchor e1 -> d/dx, e2 -> d/dy;
}
form area on T = e1^ ^ e2^;
form f on T = x^2 + 1/3;
connection C on T rank 1 { e2 -> [[x]]; }
relations W on T;
"""


def test_parse_plane_catalog():
    defs = parse(PLANE)
    assert defs.ok(), defs.diagnostics
    t = defs.objects["T"]
    assert t.rank == 2 and t.verify().verified
    area = defs.objects["area"]
    assert area.coeffs == {(0, 1): t.base.one}
    f = defs.objects["f"]
    assert f.coeffs[()].coefficient((2, 0)) == 1
    assert f.coeffs[()].coefficient((0, 0)) == Fraction(1, 3)


def test_bracket_antisymmetry_normalized():
    defs = parse("""
ring R = poly(Q; x);
algebroid L over R {
  basis e1, e2;
  bracket [e2, e1] = e1;
}
""")
    assert defs.ok()
    l = defs.objects["L"]
    # stored as [e1, e2] = -e1
    assert l.structure_coefficients(0, 1)[0] == -1


def test_bracket_of_equal_elements_diagnostic():
    defs = parse("""
ring R = poly(Q; x);
algebroid L over R {
  basis e1, e2;
  bracket [e1, e1] = e2;
}
""")
    assert not defs.ok()
    assert any("must be zero" in d.message for d in defs.diagnostics)


def test_unbalanced_brace_diagnostic():
    defs = parse("""
ring R = poly(Q; x);
algebroid L over R {
  basis e1;
""")
    assert not defs.ok()
    diag = defs.diagnostics[0]
    assert diag.line >= 4       # reported at the end of input


def test_independent_errors_collected():
    defs = parse("""
ring R = poly(Q; x);
form foo on missing = x;
ring R2 = poly(Q; y);
form bar on missing2 = y;
""")
    errors = [d for d in defs.diagnostics if d.severity == "error"]
    assert len(errors) == 2
    assert "R2" in defs.objects        # later statements still parse


def test_undefined_and_duplicate_names():
    defs = parse("""
ring R = poly(Q; x);
ring R = poly(Q; y);
""")
    assert any("already defined" in d.message for d in defs.diagnostics)


def test_laurent_ring_and_negative_powers():
    defs = parse("""
ring L = laurent(Q; z);
algebroid T over L { basis e1; anchor e1 -> d/dz; }
form f on T = z^-2 + 3*z;
""")
    assert defs.ok()
    f = defs.objects["f"]
    assert f.coeffs[()].coefficient((-2,)) == 1


def test_word_parse_and_reduction():
    defs = parse(PLANE)
    system = defs.objects["W"]
    el = parse_word("e1*x", system)
    r = system.ring
    assert el.terms == {(0,): r.var("x"), (): r.one}
    el2 = parse_word("e2^2*e1 - e1", system)
    assert (0, 1, 1) in el2.terms


def test_round_trip_render():
    for text in (PLANE,):
        defs = parse(text)
        assert defs.ok()
        canonical = render(defs)
        defs2 = parse(canonical)
        assert defs2.ok(), (canonical, defs2.diagnostics)
        assert render(defs2) == canonical
        assert defs.order == defs2.order
        for name in defs.order:
            a, b = defs.objects[name], defs2.objects[name]
            if isinstance(a, LForm):
                # fresh parse builds fresh rings; compare renderings
                assert sorted(a.coeffs) == sorted(b.coeffs)
                assert {i: str(v) for i, v in a.coeffs.items()} \
                    == {i: str(v) for i, v in b.coeffs.items()}


def test_zero_forms_keep_their_degree():
    # a zero p-form renders as one zero term of degree p, a zero 0-form
    # as "0"; a zero twist stays a 2-form for the relations that read it
    text = PLANE + "".join("form z%d on T = %s;\n" % (p, body) for p, body in (
        (0, "0"), (1, "0 * e2^"), (2, "0 * e2^ ^ e1^"), (3, "0 * e1^ ^ e2^ ^ e1^")))
    text += "relations Z on T twist z2;\n"
    defs = parse(text)
    assert defs.ok(), defs.diagnostics
    canonical = render(defs)
    assert "form z0 on T = 0;\nform z1 on T = 0 * e1^;\n" \
        "form z2 on T = 0 * e1^ ^ e2^;\nform z3 on T = 0 * e1^ ^ e2^ ^ e1^;\n" in canonical
    again = parse(canonical)
    assert again.ok(), (canonical, again.diagnostics)
    assert render(again) == canonical
    assert [again.objects["z%d" % p].degree for p in range(4)] == [0, 1, 2, 3]
    assert all(again.objects["z%d" % p].is_zero() for p in range(4))


def held_data(defs):
    """What each cover, cocycle and bunch holds, as text: a renderer that
    drops data renders stably, so comparing renderings alone misses it."""
    out = []
    for name in defs.order:
        kind, obj = defs.kinds[name], defs.objects[name]
        if kind == "cover":
            out.append(repr([(key, ov.map_a.images, ov.map_b.images, ov.der_a,
                              ov.der_b, ov.transition, ov.bundle)
                             for key, ov in sorted(obj.overlaps.items())]))
        elif kind == "cocycle":
            out.append(repr((obj.phi, obj.q)))
        elif kind == "bunch":
            out.append(repr([c.matrices for c in obj.connections]))
    return out


def test_round_trip_catalog_files():
    import pathlib
    data = pathlib.Path(__file__).parent / "data"
    inputs = [(path, path.read_text()) for path in sorted(data.glob("*.adf"))]
    # every data file uses the built-in p1 cover
    inputs.append(("explicit cover", EXPLICIT_COVER))
    for path, text in inputs:
        defs = parse(text)
        assert defs.ok(), (path, defs.diagnostics)
        canonical = render(defs)
        defs2 = parse(canonical)
        assert defs2.ok(), (path, canonical, defs2.diagnostics)
        assert render(defs2) == canonical
        assert defs.order == defs2.order
        assert defs.kinds == defs2.kinds
        assert held_data(defs) == held_data(defs2)


def test_p1_builtin_and_cocycle_blocks():
    defs = parse("""
cover P = p1(tangent, bundle=2);
cocycle A = atiyah(P);
cocycle B on P { phi 0 1 = z^-1 * d/dz^; }
""")
    assert defs.ok(), defs.diagnostics
    a = defs.objects["A"]
    b = defs.objects["B"]
    frame = defs.objects["P"].frame_algebroid(0, 1)
    assert a.phi[(0, 1)].coeffs == {(0,): 2 * frame.base.var("z") ** -1}
    assert b.phi[(0, 1)].coeffs == {(0,): frame.base.var("z") ** -1}


def test_documented_grammar_sample_parses():
    # the single-line style from the language documentation
    defs = parse("""
ring R = poly(Q; x, y);
algebroid L over R { basis e1, e2; anchor e1 -> d/dx, e2 -> x*d/dy; bracket [e1,e2] = e2; }
form W on L = x * e1^ ^ e2^;
connection C on L rank 2 { e1 -> [[0,1],[0,0]]; e2 -> [[0,x],[0,0]]; }
""")
    assert defs.ok(), defs.diagnostics
    # the sample illustrates syntax; its anchor data fails the axioms,
    # and verification says exactly where
    v = defs.objects["L"].verify()
    assert not v.verified and v.witness.kind == "anchor-morphism-failure"
    w = defs.objects["W"]
    assert w.degree == 2


EXPLICIT_COVER = """
ring R0 = poly(Q; z);
ring R1 = poly(Q; w);
ring O = laurent(Q; z);
algebroid T0 over R0 { basis e1; anchor e1 -> d/dz; }
algebroid T1 over R1 { basis f1; anchor f1 -> d/dw; }
cover C {
  chart R0 T0;
  chart R1 T1;
  overlap 0 1 {
    ring O;
    map 0 { z -> z; }
    map 1 { w -> z^-1; }
    derivations 0 { d/dz -> d/dz; }
    derivations 1 { d/dw -> -z^2*d/dz; }
    transition [[-z^2]];
    bundle [[z]];
  }
}
cocycle Z on C { phi 0 1 = 2*z^-1*e1^; q 0 = 0; }
bunch B on C rank 1 { connection 0 { e1 -> [[0]]; } connection 1 { f1 -> [[w]]; } }
"""


def test_explicit_cover_block():
    defs = parse(EXPLICIT_COVER)
    assert defs.ok(), defs.diagnostics
    cover = defs.objects["C"]
    assert (0, 1) in cover.overlaps
    from algebroid.cech import atiyah_cocycle
    pair = atiyah_cocycle(cover)
    z = cover.overlaps[(0, 1)].ring.var("z")
    assert pair.phi[(0, 1)].coeffs == {(0,): z ** -1}


def first_error(text):
    defs = parse(text)
    assert not defs.ok()
    return defs.diagnostics[0]


def test_division_by_zero_diagnostic():
    diag = first_error("""ring R = poly(Q; x);
algebroid T over R { basis e1; anchor e1 -> d/dx; }
form f on T = x + 1/0;
""")
    assert diag == Diagnostic("error", 3, 21, "division by zero")


def test_bunch_chart_out_of_range_diagnostic():
    # the same message a cocycle's q clause gives for a missing chart
    for clause, column in (("bunch B on P rank 1 { connection 5 { } }", 23),
                           ("cocycle Q on P { q 5 = 0; }", 18)):
        diag = first_error("cover P = p1(tangent, bundle=1);\n" + clause + "\n")
        assert diag == Diagnostic("error", 2, column, "no chart 5 in the cover")


def test_recovery_skips_the_whole_nested_statement():
    # an error inside a nested block skips to the statement's own '}'
    for clause in ("bunch B on P rank 1 { connection 5 { } }",
                   "cocycle Q on P { q 5 = 0; }"):
        defs = parse("cover P = p1(tangent, bundle=1);\n" + clause
                     + "\nring S = poly(Q; y);\n")
        assert len(defs.diagnostics) == 1, defs.diagnostics
        assert defs.kinds["S"] == "ring"


def test_anchor_two_derivation_factors_diagnostic():
    diag = first_error("""ring R = poly(Q; x, y);
algebroid A over R { basis e1; anchor e1 -> d/dx*d/dy; }
""")
    assert diag == Diagnostic("error", 2, 50, "two derivation factors in one term")
    defs = parse("""ring R = poly(Q; x, y);
algebroid A over R { basis e1; anchor e1 -> d/dx*y + x*d/dy; }
""")
    assert defs.ok(), defs.diagnostics


def test_duplicate_basis_element_diagnostic():
    for clauses, column in (("basis e1, e1;", 32), ("basis e1; basis f, e1;", 41)):
        diag = first_error("ring R = poly(Q; x, y);\nalgebroid A over R { %s }\n"
                           % clauses)
        assert diag == Diagnostic("error", 2, column,
                                  "basis element 'e1' is declared twice")


# a repeated key is a diagnostic at its first token, never a silent
# replacement of the earlier entry

def test_repeated_anchor_diagnostic():
    head = "ring R = poly(Q; x, y);\nalgebroid A over R { basis e1, e2; "
    for clauses, column in (("anchor e1 -> d/dx, e1 -> x*d/dx;", 55),
                            ("anchor e1 -> d/dx; anchor e2 -> d/dy, e1 -> y*d/dx;", 74)):
        diag = first_error(head + clauses + " }\n")
        assert diag == Diagnostic("error", 2, column, "anchor of 'e1' is given twice")


def test_repeated_bracket_diagnostic():
    head = ("ring R = poly(Q; x);\n"
            "algebroid A over R { basis e1, e2; bracket [e1, e2] = e1; ")
    for second in ("[e2, e1] = e2", "[e1, e2] = e1"):
        diag = first_error(head + "bracket %s; }\n" % second)
        assert diag == Diagnostic("error", 2, 68,
                                  "bracket %s is given twice" % second.split(" =")[0])


def test_repeated_connection_arrow_diagnostic():
    diag = first_error("ring R = poly(Q; x);\n"
                       "algebroid A over R { basis e1; anchor e1 -> d/dx; }\n"
                       "connection C on A rank 1 { e1 -> [[1]]; e1 -> [[x]]; }\n")
    assert diag == Diagnostic("error", 3, 41, "arrow from 'e1' is given twice")
    # a bunch's arrows and its per-chart connections
    diag = first_error(EXPLICIT_COVER.replace(
        "connection 1 { f1 -> [[w]]; }", "connection 1 { f1 -> [[w]]; f1 -> [[1]]; }"))
    assert diag == Diagnostic("error", 21, 81, "arrow from 'f1' is given twice")
    diag = first_error(EXPLICIT_COVER.replace(
        "connection 1 { f1 -> [[w]]; }", "connection 1 { f1 -> [[w]]; } connection 1 { }"))
    assert diag == Diagnostic("error", 21, 94, "connection of chart 1 is given twice")


def test_repeated_overlap_variable_diagnostic():
    for old, new, line, column, name in (
            ("map 0 { z -> z; }", "map 0 { z -> z; z -> 2*z; }", 12, 21, "z"),
            ("derivations 0 { d/dz -> d/dz; }",
             "derivations 0 { d/dz -> d/dz; d/dz -> 2*d/dz; }", 14, 35, "d/dz")):
        diag = first_error(EXPLICIT_COVER.replace(old, new))
        assert diag == Diagnostic("error", line, column,
                                  "arrow from %r is given twice" % name)


def test_repeated_overlap_diagnostic():
    diag = first_error(EXPLICIT_COVER.replace(
        "  }\n}\ncocycle", "  }\n  overlap 0 1 { ring O; }\n}\ncocycle"))
    assert diag == Diagnostic("error", 19, 11, "overlap 0 1 is given twice")


def test_repeated_phi_diagnostic():
    diag = first_error(EXPLICIT_COVER.replace("q 0 = 0;", "phi 0 1 = 0; q 0 = 0;"))
    assert diag == Diagnostic("error", 20, 44, "phi 0 1 is given twice")


def test_repeated_q_diagnostic():
    diag = first_error(EXPLICIT_COVER.replace("q 0 = 0;", "q 0 = 0; q 0 = 0;"))
    assert diag == Diagnostic("error", 20, 51, "q 0 is given twice")


@pytest.mark.parametrize("old,new,line,column,clause", [
    ("map 1 { w -> z^-1; }", "map 1 { w -> z^-1; } map 1 { w -> z; }", 13, 26, "map 1"),
    ("derivations 1 { d/dw -> -z^2*d/dz; }",
     "derivations 1 { d/dw -> -z^2*d/dz; } derivations 1 { d/dw -> d/dz; }",
     15, 42, "derivations 1"),
], ids=["map", "derivations"])
def test_repeated_overlap_side_clause_diagnostic(old, new, line, column, clause):
    diag = first_error(EXPLICIT_COVER.replace(old, new))
    assert diag == Diagnostic("error", line, column, "%s is given twice" % clause)


@pytest.mark.parametrize("old,new,line,column,clause", [
    ("transition [[-z^2]];", "transition [[-z^2]]; transition [[1]];", 16, 26, "transition"),
    ("bundle [[z]];", "bundle [[z]]; bundle [[1]];", 17, 19, "bundle"),
    ("ring O;", "ring O; ring O;", 11, 13, "ring"),
], ids=["transition", "bundle", "ring"])
def test_repeated_overlap_clause_diagnostic(old, new, line, column, clause):
    diag = first_error(EXPLICIT_COVER.replace(old, new))
    assert diag == Diagnostic("error", line, column, "%s is given twice" % clause)


@pytest.mark.parametrize("old,new,column,clause", [
    ("{ l1 L1;", "{ l1 L2; l1 L1;", 20, "l1"),
    ("act21; }", "act21; l2 L1; }", 59, "l2"),
    ("act21; }", "act21; action12 act12; }", 59, "action12"),
    ("act21; }", "act21; action21 act21; }", 59, "action21"),
], ids=["l1", "l2", "action12", "action21"])
def test_repeated_matched_clause_diagnostic(old, new, column, clause):
    text = (pathlib.Path(__file__).parent / "data" / "matched.adf").read_text()
    diag = first_error(text.replace(old, new))
    assert diag == Diagnostic("error", 22, column, "%s is given twice" % clause)


def positioned_tokens(text):
    """(kind, text, line, column) of each token, as the oracle gives them."""
    tokens = tokenize(text)
    return [(tok.kind, tok.text, line, column) for tok, (line, column)
            in zip(tokens, token_positions(text, tokens), strict=True)]


def test_tokenize_matches_char_walk_oracle():
    """The tokenizer gives the character walk's tokens, and
    `token_positions` its lines and columns, on every data file and on
    seeded random strings built from the language's pieces, whitespace
    and a few stray characters."""
    pieces = ["d/d", "d", "x", "e1", "_", "^", "-", ">", "->", "0", "27", "/",
              "*", "+", "(", ")", "{", "}", "[", "]", ",", ";", "=", ".", "# c",
              " ", "  ", "\n", "\t", "\r", "\u00a0", "@", "\u00e9", "!"]
    data = pathlib.Path(__file__).parent / "data"
    texts = [path.read_text() for path in sorted(data.glob("*.adf"))]
    texts += [EXPLICIT_COVER, "", "x^", "x^^", "e1^-1", "e1^ ^ e2^"]
    rng = random.Random(1405)
    texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
              for _ in range(5000)]
    for text in texts:
        assert positioned_tokens(text) == char_walk_tokenize(text), text


@pytest.mark.parametrize("body,column,message", [
    ("2*x^-1*e1^", 20, "element is not a unit: x"),
    ("3*x ^ -1 * e1^", 22, "element is not a unit: x"),
    ("x*0^-1*e1^", 20, "element is not a unit: 0"),
    ("x + 2/0*x", 21, "division by zero"),
])
def test_scalar_factor_diagnostics(body, column, message):
    # a negative power at a polynomial variable, a power of zero and a
    # zero denominator are read by `scalar_factor`, not as monomial
    # factors, so they keep their message and position
    diag = first_error("ring R = poly(Q; x);\n"
                       "algebroid T over R { basis e1; anchor e1 -> d/dx; }\n"
                       "form f on T = %s;\n" % body)
    assert diag == Diagnostic("error", 3, column, message)


def test_nested_power_is_bounded_by_its_degree_range():
    from algebroid.parser import Parser, ParseError
    from algebroid.rings import ChartRing

    r = ChartRing(["x", "y", "z"])
    value = Parser("((x+y)^10)^10").scalar_expr(r)
    assert len(value.terms) == 101
    assert value == (r.var("x") + r.var("y")) ** 100
    # 5,151 monomials of degree 100 in three variables
    with pytest.raises(ParseError, match="could hold more than 1000 terms"):
        Parser("(x+y+z)^100").scalar_expr(r)
    # a Laurent base has no degree bound: C(110, 10) still refuses it
    lr = ChartRing(["x", "y"], laurent=["x"])
    with pytest.raises(ParseError, match="could hold more than 1000 terms"):
        Parser("((x^-1+y)^10)^10").scalar_expr(lr)


def test_power_bound_never_refuses_what_the_term_bound_accepts():
    # the degree-range bound only admits more: a refused power is one
    # the term bound C(n + k - 1, k - 1) refuses too, and an admitted
    # one holds at most MAX_POWER_TERMS terms
    from math import comb

    from algebroid.parser import MAX_POWER_TERMS, _power_refused
    from algebroid.rings import ChartRing

    r = ChartRing(["x", "y", "z"], laurent=["z"])
    rng = random.Random(5)
    for _ in range(300):
        base = r.zero
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(-2 if v == 2 else 0, 3) for v in range(3))
            base = base + r.monomial(exps, rng.randint(1, 5))
        k = len(base.terms)
        for n in (1, 2, 5, 12, 40, 300, 999, 1000, 5000):
            if _power_refused(base, n):
                assert k > 1 and (n >= MAX_POWER_TERMS
                                  or comb(n + k - 1, k - 1) > MAX_POWER_TERMS)
            elif n <= 5:
                assert len((base ** n).terms) <= MAX_POWER_TERMS
