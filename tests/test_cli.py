import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import algebroid
from algebroid import cli
from algebroid.cli import run
from algebroid.matched import verify_matched
from algebroid.parser import parse

from golden_cases import CASES

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def invoke(argv):
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        return code, buf.getvalue()
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name,argv,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_outputs(name, argv, expected):
    code, text = invoke(argv)
    assert code == expected
    golden = (GOLDEN / (name + ".txt")).read_text()
    assert text == golden


def test_outputs_deterministic():
    for name, argv, expected in CASES[:8]:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_parse_error_exit_code():
    bad = DATA / "broken_tmp.adf"
    bad.write_text("ring R = poly(Q; x)\n")      # missing semicolon
    try:
        code, text = invoke(["verify", "broken_tmp.adf", "R"])
        assert code == 2
        assert "error" in text
    finally:
        bad.unlink()


def test_unknown_name_exit_code():
    # undefined and wrong-kind names, first or later argument: exit 2
    for argv, line, error in (
            (["verify", "plane.adf", "nothere"], "undefined name 'nothere'", None),
            (["cohomology", "plane.adf", "nothere"], "undefined name 'nothere'", None),
            (["d", "plane.adf", "T"], "'T' is an algebroid, expected a form",
             "wrong kind for 'T'"),
            (["obstruction", "plane.adf", "C", "T"],
             "'T' is an algebroid, expected a form", "wrong kind for 'T'"),
            (["glue", "p1.adf", "P", "P"], "'P' is a cover, expected a cocycle",
             "wrong kind for 'P'")):
        assert invoke(argv) == (2, "error: %s\n" % line)
        assert invoke(argv + ["--json"]) == (
            2, '{"error": "%s", "exit": 2}\n' % (error or line))


def test_window_env_override():
    os.environ["ADF_WINDOW"] = "4,6"
    try:
        code, text = invoke(["exact", "abelian.adf", "qq"])
        assert code == 3
        assert "degree 4, laurent 6" in text
    finally:
        del os.environ["ADF_WINDOW"]


def test_window_flag_beats_env():
    os.environ["ADF_WINDOW"] = "4,6"
    try:
        code, text = invoke(["exact", "abelian.adf", "qq", "--window", "5,7"])
        assert code == 3
        assert "degree 5, laurent 7" in text
    finally:
        del os.environ["ADF_WINDOW"]


def test_json_outputs_are_json():
    for name, argv, expected in CASES:
        if "--json" not in argv:
            argv = argv + ["--json"]
        code, text = invoke(argv)
        payload = json.loads(text)
        assert payload["exit"] == code


def test_usage_error_exit_code():
    code, _ = invoke(["no-such-command", "plane.adf"])
    assert code == 2


USAGE_ERRORS = pytest.mark.parametrize("argv", [
    ["cohomology", "plane.adf", "T", "--bogus"],
    ["cohomology", "plane.adf"],
    ["chern", "plane.adf", "C", "--k", "3"],
    ["no-such-command", "plane.adf"],
    [],
], ids=["unknown-flag", "missing-name", "bad-choice", "unknown-command", "empty"])


@USAGE_ERRORS
def test_usage_error_without_json_is_stock_argparse_text(argv, monkeypatch):
    # the same arguments on plain argparse parsers write the same stderr
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert invoke(argv) == (2, "")
    monkeypatch.setattr(cli, "_ArgumentParser", argparse.ArgumentParser)
    stock = cli.build_arg_parser()
    with contextlib.redirect_stderr(io.StringIO()) as stock_err:
        with pytest.raises(SystemExit) as exc:
            stock.parse_args(argv)
    assert exc.value.code == 2
    assert err.getvalue() == stock_err.getvalue()


@USAGE_ERRORS
def test_argparse_error_under_json_is_one_json_line(argv):
    # without --json: argparse's usage text on stderr, nothing on stdout;
    # with it: one JSON line on stdout carrying argparse's message
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert invoke(argv) == (2, "")
    usage = err.getvalue()
    assert usage.startswith("usage: adf")
    message = usage.splitlines()[-1].partition(": error: ")[2]
    assert message
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code, text = invoke(argv + ["--json"])
    assert code == 2 and err.getvalue() == ""
    assert text.count("\n") == 1
    assert json.loads(text) == {"error": message, "exit": 2}


def test_help_still_exits_zero():
    with contextlib.redirect_stderr(io.StringIO()):
        code, text = invoke(["cohomology", "-h"])
    assert code == 0 and text.startswith("usage: adf cohomology")
    assert invoke(["cohomology", "-h", "--json"])[0] == 0


@pytest.mark.parametrize("argv,spec", [
    (["cohomology", "plane.adf", "T", "--window", "2"], "-1..2"),
    (["cohomology", "plane.adf", "T", "--window", "2"], "-2,0"),
    (["compare-total", "matched.adf", "M", "--window", "2,2", "--json"], "-2..1"),
])
def test_negative_degrees_parse_as_a_value(argv, spec):
    # `--degrees -1..2` reads like `--degrees=-1..2`, not as an unknown flag
    code, text = invoke(argv + ["--degrees", spec])
    assert (code, text) == invoke(argv + ["--degrees=" + spec])
    assert code == 0
    if "--json" not in argv:
        assert text.startswith("H^%s: dim 0" % spec[:2])


ZERO = "dim 0 (kernel 0, image 0) [stable]"
ZERO_JSON = {"dim": 0, "image": 0, "kernel": 0, "stable": True}


@pytest.mark.parametrize("argv,plain,as_json", [
    # plane.adf's T has rank 2: no degree of these ranges is in 0..2
    (["cohomology", "plane.adf", "T", "--degrees", "3"], "H^3: %s\n" % ZERO,
     {"cohomology": {"3": ZERO_JSON}, "exit": 0, "window": [8, 12]}),
    (["cohomology", "plane.adf", "T", "--degrees=-3..-1"],
     "".join("H^%d: %s\n" % (p, ZERO) for p in (-3, -2, -1)),
     {"cohomology": {str(p): ZERO_JSON for p in (-3, -2, -1)}, "exit": 0,
      "window": [8, 12]}),
    (["compare-total", "matched.adf", "M", "--degrees", "5..6"],
     "degree 5: total 0, twilled 0\ndegree 6: total 0, twilled 0\nagree\n",
     {"agree": True, "exit": 0, "total": {"5": 0, "6": 0}, "twilled": {"5": 0, "6": 0}}),
], ids=["cohomology-3", "cohomology-negative", "compare-total-5..6"])
def test_degrees_outside_the_rank_are_zero(argv, plain, as_json):
    # a range that holds no degree in 0..rank answers (0, 0) at each degree
    assert invoke(argv) == (0, plain)
    code, text = invoke(argv + ["--json"])
    assert code == 0 and json.loads(text) == as_json


@pytest.mark.parametrize("spec", ["0..1000000000", "0..1000", "-1000000000..0"])
@pytest.mark.parametrize("as_json", [False, True])
def test_degree_range_over_the_bound_is_usage_error(spec, as_json):
    # the range is refused before its list is built: one line, exit 2
    from algebroid.cli import MAX_DEGREE_RANGE
    assert MAX_DEGREE_RANGE == 1000
    flag = ["--json"] if as_json else []
    code, text = invoke(["cohomology", "plane.adf", "T", "--degrees=" + spec] + flag)
    message = "degree range %r holds more than 1000 degrees" % spec
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message


def test_degree_range_at_the_bound_answers_every_degree():
    # 1,000 degrees are answered and printed as before the bound
    code, text = invoke(["cohomology", "plane.adf", "T", "--degrees", "-997..2",
                         "--window", "2"])
    lines = text.splitlines()
    assert code == 0 and len(lines) == 1000
    assert lines[:997] == ["H^%d: %s" % (p, ZERO) for p in range(-997, 0)]
    assert lines[997:] == invoke(["cohomology", "plane.adf", "T", "--degrees", "0..2",
                                  "--window", "2"])[1].splitlines()
    code, text = invoke(["compare-total", "matched.adf", "M", "--degrees", "3..1002",
                         "--window", "2,2", "--json"])
    assert code == 0 and len(json.loads(text)["total"]) == 1000


@pytest.mark.parametrize("flags,env", [
    (["--window", "abc"], None),
    (["--window", "-1"], None),
    (["--window", "0,0"], None),
    (["--degrees", "x"], None),
    ([], "abc"),
    ([], "-1"),
    ([], "0,0"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_malformed_flag_exit_code(flags, env, as_json):
    argv = ["cohomology", "plane.adf", "T"] + flags + (["--json"] if as_json else [])
    if env is not None:
        os.environ["ADF_WINDOW"] = env
    try:
        code, text = invoke(argv)
    finally:
        os.environ.pop("ADF_WINDOW", None)
    assert code == 2
    if as_json:
        assert json.loads(text)["error"]
    else:
        assert text.startswith("error: ")


WINDOW_TOO_SMALL = """ring R = poly(Q; x, y);
algebroid A over R { basis e1; anchor e1 -> x^3*d/dx; }
algebroid B over R { basis f1; anchor f1 -> d/dy; }
connection act12 on A rank 1 { }
connection act21 on B rank 1 { }
matched M { l1 A; l2 B; action12 act12; action21 act21; }
"""


@pytest.mark.parametrize("argv", [["cohomology", "A"],
                                  ["compare-total", "M", "--degrees", "0..1"]])
@pytest.mark.parametrize("as_json", [False, True])
def test_window_too_small_is_usage_error(tmp_path, argv, as_json):
    path = tmp_path / "w.adf"
    path.write_text(WINDOW_TOO_SMALL)
    code, text = invoke([argv[0], str(path)] + argv[1:] + ["--window", "2"]
                        + (["--json"] if as_json else []))
    assert code == 2
    if as_json:
        assert "window too small" in json.loads(text)["error"]
    else:
        assert text.startswith("error: window too small")
    code, _ = invoke([argv[0], str(path)] + argv[1:] + ["--window", "3"])
    assert code in (0, 3)


NOT_CLOSED = """ring R = poly(Q; x, y);
algebroid T over R { basis e1, e2; anchor e1 -> d/dx, e2 -> d/dy; }
form nc on T = y * e1^;
connection C on T rank 1 { }
ring S = poly(Q; x, y, z);
algebroid U over S { basis e1, e2, e3; anchor e1 -> d/dx, e2 -> d/dy, e3 -> d/dz; }
form nc2 on U = z * e1^ ^ e2^;
connection D on U rank 1 { }
"""


@pytest.mark.parametrize("argv,message", [
    (["exact", "plane.adf", "fx2"], "exactness is a question for degree >= 1"),
    (["exact", "{tmp}", "nc"], "form is not closed"),
    (["obstruction", "plane.adf", "C", "fx2"], "the twist must be a 2-form"),
    (["obstruction", "{tmp}", "D", "nc2"], "the twist form must be closed"),
    (["relations", "plane.adf", "T", "fx2"], "twist must be a 2-form"),
    (["relations", "{tmp}", "U", "nc2"], "twist form is not closed"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_inapplicable_form_is_usage_error(tmp_path, argv, message, as_json):
    # nothing was refuted: exit 2 with error, not exit 1 with refuted
    path = tmp_path / "nc.adf"
    path.write_text(NOT_CLOSED)
    argv = [str(path) if a == "{tmp}" else a for a in argv]
    code, text = invoke(argv + (["--json"] if as_json else []))
    assert code == 2
    if as_json:
        assert json.loads(text)["error"].startswith(message)
    else:
        assert text.startswith("error: " + message)


@pytest.mark.parametrize("form", ["nosuch", "C"])
@pytest.mark.parametrize("as_json", [False, True])
def test_relations_bad_form_reports_error(form, as_json):
    argv = ["relations", "plane.adf", "T", form] + (["--json"] if as_json else [])
    code, text = invoke(argv)
    assert code == 2
    if as_json:
        assert json.loads(text)["error"]
    else:
        assert text.startswith("error: ")


def test_weyl_closed_form_e2_8_e1_8():
    # plane.adf's monopole twist gives e2 e1 = e1 e2 - 5, so e2^n e1^n is
    # sum_k (-5)^k k! C(n,k)^2 e1^(n-k) e2^(n-k)
    n = 8
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "e2^%d*e1^%d" % (n, n), "--json"])
    assert code == 0
    expected = {",".join(["1"] * (n - k) + ["2"] * (n - k)):
                str((-5) ** k * math.factorial(k) * math.comb(n, k) ** 2)
                for k in range(n + 1)}
    assert json.loads(text)["terms"] == expected


def test_cech_dims_eliminates_once(monkeypatch):
    # h0 and h1, at the window and at the window enlarged by 2, all come
    # from one column reduction of the system that has rows (degree 0 of
    # the Cech complex; degree 1 has no rows): h1 counts lows
    from algebroid.linalg import SparseSystem
    calls = []
    eliminate = SparseSystem._eliminate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return eliminate(self, *args, **kwargs)

    monkeypatch.setattr(SparseSystem, "_eliminate", counted)
    code, _ = invoke(["cech-dims", "p1.adf", "P"])
    assert code == 0
    assert len([system for system in calls if system.rows]) == 1


@pytest.mark.parametrize("text,message", [
    ("ring R = poly(Q; x);\nalgebroid T over R { basis e1; anchor e1 -> 1/0*d/dx; }\n",
     "error:2:47: division by zero"),
    ("cover P = p1(tangent, bundle=1);\nbunch T on P rank 1 { connection 5 { } }\n",
     "error:2:23: no chart 5 in the cover"),
], ids=["zero-denominator", "missing-chart"])
@pytest.mark.parametrize("as_json", [False, True])
def test_invalid_literal_is_positioned_usage_error(tmp_path, text, message, as_json):
    # these raised ZeroDivisionError and IndexError out of run
    path = tmp_path / "bad.adf"
    path.write_text(text)
    code, out = invoke(["verify", str(path), "T"] + (["--json"] if as_json else []))
    assert code == 2
    if as_json:
        assert json.loads(out)["diagnostics"][0] == message
    else:
        assert out.splitlines()[0] == message


@pytest.mark.parametrize("as_json", [False, True])
def test_bunch_rank_must_match_overlap_bundles(tmp_path, as_json):
    # a rank-2 bunch over a line-bundle cover indexed past the bundle
    # matrix and printed an IndexError traceback from lambda-check
    path = tmp_path / "bunch.adf"
    path.write_text("cover P = p1(tangent, bundle=1);\ncocycle A = atiyah(P);\n"
                    "bunch two on P rank 2 {\n  connection 0 { }\n"
                    "  connection 1 { }\n}\n")
    code, out = invoke(["lambda-check", str(path), "P", "A", "two"]
                       + (["--json"] if as_json else []))
    message = "error:6:1: overlap (0,1) has a rank-1 bundle, the bunch has rank 2"
    assert code == 2
    if as_json:
        assert json.loads(out) == {"diagnostics": [message], "exit": 2}
    else:
        assert out == message + "\n"


@pytest.mark.parametrize("as_json", [False, True])
def test_generator_power_over_the_limit_is_usage_error(as_json):
    # e2^n is built as a word of n letters: one past the limit is refused
    # before anything is built (a huge power printed a MemoryError)
    from algebroid.parser import MAX_GENERATOR_POWER
    flag = ["--json"] if as_json else []
    word = "e2^%d" % (MAX_GENERATOR_POWER + 1)
    code, text = invoke(["normal-form", "plane.adf", "monopole", word] + flag)
    message = "generator powers are limited to %d" % MAX_GENERATOR_POWER
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "e2^%d" % MAX_GENERATOR_POWER] + flag)
    assert code == 0
    if as_json:
        assert json.loads(text)["terms"] == {",".join(["2"] * MAX_GENERATOR_POWER): "1"}
    else:
        assert text == "normal form: e2^%d\n" % MAX_GENERATOR_POWER


@pytest.mark.parametrize("as_json", [False, True])
def test_power_of_a_sum_over_the_term_limit_is_usage_error(tmp_path, as_json):
    # (x+y)^n has n + 1 terms and costs about their square to expand: a
    # power whose result could hold more than MAX_POWER_TERMS terms is
    # refused before it is expanded, at its position
    from algebroid.parser import MAX_POWER_TERMS
    flag = ["--json"] if as_json else []
    n = MAX_POWER_TERMS
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "(x+y)^%d*e1" % n] + flag)
    message = "the power at column 6 could hold more than %d terms" % n
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message
    # C(n + 2, 2) terms bound a power of a three-term sum
    code, _ = invoke(["normal-form", "plane.adf", "monopole",
                      "e1*(1 + x + y)^44"] + flag)
    assert code == 2
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "(x+y)^%d*e1" % (n - 1)] + flag)
    assert code == 0
    # a monomial's power is one term, however large
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "(2*x)^10000*e1"] + flag)
    assert code == 0
    assert "x^10000" in text
    # in a file the refusal is a positioned diagnostic
    path = tmp_path / "power.adf"
    path.write_text("ring R = poly(Q; x, y);\n"
                    "algebroid T over R { basis e1; anchor e1 -> (x+y)^5000*d/dx; }\n")
    code, text = invoke(["verify", str(path), "T"] + flag)
    message = "error:2:50: the power at column 50 could hold more than %d terms" % n
    assert code == 2
    if as_json:
        assert json.loads(text) == {"diagnostics": [message], "exit": 2}
    else:
        assert text == message + "\n"


@pytest.mark.parametrize("as_json", [False, True])
def test_nested_power_is_bounded_by_its_degree_range(as_json):
    # ((x+y)^10)^10 has 101 terms: its base has 11 terms, but its degrees
    # bound it, so it is taken; ((x+y)^30)^40 has 1,201 and is refused
    flag = ["--json"] if as_json else []
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "((x+y)^10)^10*e1"] + flag)
    assert code == 0
    assert "x^100 + 100*x^99*y + " in text and "100*x*y^99 + y^100" in text
    code, text = invoke(["normal-form", "plane.adf", "monopole",
                         "((x+y)^30)^40*e1"] + flag)
    message = "the power at column 11 could hold more than 1000 terms"
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message


@pytest.mark.parametrize("as_json", [False, True])
def test_reduction_over_the_term_budget_is_usage_error(as_json):
    # e2^n e1^n adds n^2 product entries of two terms each: n = 316 fits
    # the budget, and n = 400 is refused once the budget is spent
    from algebroid.pbw import MAX_REDUCTION_TERMS
    assert 2 * 316 ** 2 <= MAX_REDUCTION_TERMS < 2 * 317 ** 2
    flag = ["--json"] if as_json else []
    code, text = invoke(["normal-form", "plane.adf", "monopole", "e2^400*e1^400"] + flag)
    message = "the reduction needs more than %d product terms" % MAX_REDUCTION_TERMS
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message


@pytest.mark.parametrize("as_json", [False, True])
def test_so3_word_over_the_term_budget_exits_quickly(tmp_path, as_json):
    # in so(3)* a product entry of e3^n e2^n e1^n x^n holds many terms:
    # n = 5 fills 3,055 entries of 140,818 terms, and at n = 7 the 10,362
    # entries would hold 1,428,466, so the term budget refuses the word
    # long before the entries grow large
    from algebroid.pbw import MAX_REDUCTION_TERMS
    path = tmp_path / "so3.adf"
    path.write_text(SO3_AND_TANGENT + "relations SR on S;\n")
    flag = ["--json"] if as_json else []
    start = time.perf_counter()
    code, text = invoke(["normal-form", str(path), "SR", "e3^7*e2^7*e1^7*x^7"] + flag)
    assert time.perf_counter() - start < 10
    message = "the reduction needs more than %d product terms" % MAX_REDUCTION_TERMS
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message


CURVED_MATCHED = """ring R = poly(Q; x, y);
algebroid A over R { basis e1, e2; anchor e1 -> d/dx, e2 -> d/dy; }
algebroid B over R { basis f1; anchor f1 -> d/dy; }
connection act12 on A rank 1 { e2 -> [[x]]; }
connection act21 on B rank 2 { }
matched M { l1 A; l2 B; action12 act12; action21 act21; }
"""


@pytest.mark.parametrize("command", ["verify", "matched"])
@pytest.mark.parametrize("as_json", [False, True])
def test_verify_refutes_matched_pair_with_curved_action(tmp_path, command, as_json):
    # a curved action is a real refutation, exit 1 with the curvature
    # witness, in the JSON line too
    path = tmp_path / "curved.adf"
    path.write_text(CURVED_MATCHED)
    code, text = invoke([command, str(path), "M"] + (["--json"] if as_json else []))
    witness = "action12 is not flat: curvature witness (0, 1, 0, 0, <1>)"
    assert code == 1
    if as_json:
        assert json.loads(text) == {"exit": 1, "kind": "matched", "verified": False,
                                    "witness": witness}
    else:
        assert text == "refuted: %s\n" % witness


@pytest.mark.parametrize("as_json", [False, True])
def test_compare_total_refuses_matched_pair_with_curved_action(tmp_path, as_json):
    # the action is checked before the twilled sum is built, so a curved
    # one is refused with its curvature witness
    path = tmp_path / "curved.adf"
    path.write_text(CURVED_MATCHED)
    code, text = invoke(["compare-total", str(path), "M"] + (["--json"] if as_json else []))
    witness = "action12 is not flat: curvature witness (0, 1, 0, 0, <1>)"
    assert code == 1
    if as_json:
        assert json.loads(text) == {"error": witness, "exit": 1}
    else:
        assert text == "refuted: %s\n" % witness


WITNESSES = """# the sheared pair of matched.adf with action21 perturbed: equation 1 fails
ring R = poly(Q; x, y, z, w);
algebroid L1 over R { basis e1, e2; anchor e1 -> d/dx, e2 -> d/dy; }
algebroid L2 over R { basis f1, f2; anchor f1 -> x*d/dx + d/dz, f2 -> d/dw; }
connection act12 on L1 rank 2 { }
connection bad21 on L2 rank 2 { f1 -> [[-1, 0], [0, 1]]; }
matched E1 { l1 L1; l2 L2; action12 act12; action21 bad21; }
# the Heisenberg algebra and a line, the line acting on e1 alone: equation
# 3 fails, and equation 2 once the factors are exchanged
ring S = poly(Q; x);
algebroid H over S { basis e1, e2, e3; bracket [e1, e2] = e3; }
algebroid A over S { basis f1; }
connection onA on H rank 1 { }
connection onH on A rank 3 { f1 -> [[1, 0, 0], [0, 0, 0], [0, 0, 0]]; }
matched E3 { l1 H; l2 A; action12 onA; action21 onH; }
matched E2 { l1 A; l2 H; action12 onH; action21 onA; }
# the anchor is no bracket morphism: [d/dx, x*d/dy] = d/dy, a([e1, e2]) = x*d/dy
ring P = poly(Q; x, y);
algebroid N over P { basis e1, e2; anchor e1 -> d/dx, e2 -> x*d/dy; bracket [e1, e2] = e2; }
"""


@pytest.mark.parametrize("name,equation,indices,indices0", [
    ("E1", 1, "(2, 1)", "(1, 0)"),
    ("E2", 2, "(1, 1, 2)", "(0, 0, 1)"),
    ("E3", 3, "(1, 1, 2)", "(0, 0, 1)"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_matched_equation_witnesses(tmp_path, name, equation, indices, indices0, as_json):
    # each equation's refutation through every command that checks the
    # pair, as the command line prints it: one witness text, the indices
    # numbered from 1, of the witness that keeps them numbered from 0
    path = tmp_path / "witnesses.adf"
    path.write_text(WITNESSES)
    assert str(verify_matched(parse(WITNESSES).objects[name]).witness.indices) == indices0
    flag = ["--json"] if as_json else []
    witness = "equation %d fails at indices %s" % (equation, indices)
    verdict = "refuted: %s\n" % witness
    as_verdict = {"equation": equation, "exit": 1, "kind": "matched", "verified": False}
    twilled = total = "not a matched pair: %s" % witness
    for command, plain, data in (
            ("verify", verdict, as_verdict), ("matched", verdict, as_verdict),
            ("twilled", "refuted: %s\n" % twilled, {"error": twilled, "exit": 1}),
            ("compare-total", "refuted: %s\n" % total, {"error": total, "exit": 1})):
        code, text = invoke([command, str(path), name] + flag)
        assert code == 1, command
        if as_json:
            assert json.loads(text) == data, command
        else:
            assert text == plain, command


@pytest.mark.parametrize("as_json", [False, True])
def test_anchor_morphism_witness(tmp_path, as_json):
    path = tmp_path / "witnesses.adf"
    path.write_text(WITNESSES)
    code, text = invoke(["verify", str(path), "N"] + (["--json"] if as_json else []))
    witness = "anchor-morphism-failure on (e1, e2): residual (<0>, <x - 1>)"
    assert code == 1
    if as_json:
        assert json.loads(text) == {"exit": 1, "kind": "algebroid", "verified": False,
                                    "witness": witness}
    else:
        assert text == "refuted: %s\n" % witness


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_of_mismatched_cover_is_parse_error(tmp_path, as_json):
    # covers are verified when they are parsed, so a transition that does
    # not match the charts is a positioned diagnostic with exit 2; verify's
    # cover branch never prints refuted:
    from test_parser import EXPLICIT_COVER
    cover = EXPLICIT_COVER.partition("cocycle Z")[0]
    path = tmp_path / "cover.adf"
    path.write_text(cover.replace("transition [[-z^2]];", "transition [[z^2]];"))
    code, text = invoke(["verify", str(path), "C"] + (["--json"] if as_json else []))
    message = "error:19:1: transition on overlap (0,1) does not match structures"
    assert code == 2
    if as_json:
        assert json.loads(text) == {"diagnostics": [message], "exit": 2}
    else:
        assert text == message + "\n"


SO3_AND_TANGENT = """ring R3 = poly(Q; x, y, z);
algebroid S over R3 {
  basis e1, e2, e3;
  anchor e1 -> z*d/dy - y*d/dz, e2 -> -z*d/dx + x*d/dz, e3 -> y*d/dx - x*d/dy;
  bracket [e1, e2] = e3; bracket [e2, e3] = e1; bracket [e3, e1] = e2;
}
algebroid T over R3 { basis e1, e2, e3; anchor e1 -> d/dx, e2 -> d/dy, e3 -> d/dz; }
"""


@pytest.mark.parametrize("argv,degrees,one_matrix", [
    # so(3)* preserves polynomial degree, so its windows hold whole
    # degrees: no column reaches outside a window; degree 3 is the top
    # degree, whose differential is zero, so it builds no system
    (["cohomology", "{tmp}", "S", "--degrees", "0..3", "--window", "4"], 3, True),
    # the tangent algebroid has drop 1, and the columns of the window + 1
    # land inside the window, since d lowers degree
    (["cohomology", "{tmp}", "T", "--degrees", "0..3", "--window", "4"], 3, True),
    # the total differential has the twilled sum's compiled entries, so
    # only the twilled sum's complex is reduced, at degrees 0..2; f1 ->
    # x d/dx + d/dz keeps x^m at its degree, so the columns of the window
    # + 1 reach outside the window at both image degrees, and those images
    # are still read from the lows of one reduction
    (["compare-total", "matched.adf", "M", "--degrees", "0..2", "--window", "2,2"], 3, True),
    # with that identity refused, the total complex is reduced too
    (["compare-total", "matched.adf", "M", "--degrees", "0..2", "--window", "2,2"], 6, False),
], ids=["so3", "tangent", "compare-total", "compare-total-two-complexes"])
def test_windowed_cohomology_eliminations(tmp_path, monkeypatch, argv, degrees, one_matrix):
    """One column reduction per degree read (`pivots`), none at a degree
    whose differential is zero, none for the rows outside a window
    (`rank`), and no elimination of the weight lattice (`kernel`):
    cohomology and compare-total read no grading."""
    from algebroid import matched
    from algebroid.linalg import SparseSystem
    path = tmp_path / "so3.adf"
    path.write_text(SO3_AND_TANGENT)
    calls = {"_eliminate": 0, "pivots": 0, "rank": 0, "kernel": 0}

    def counted(name):
        real = getattr(SparseSystem, name)

        def method(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        return method

    for name in calls:
        monkeypatch.setattr(SparseSystem, name, counted(name))
    if not one_matrix:
        monkeypatch.setattr(matched, "_total_is_twilled", lambda sl, tw: False)
    code, _ = invoke([str(path) if a == "{tmp}" else a for a in argv])
    assert code in (0, 3)
    assert calls == {"_eliminate": degrees, "pivots": degrees, "rank": 0, "kernel": 0}


def test_parser_reuse_matches_fresh_process():
    # run builds its argument parser once per process; a usage error must
    # leave nothing behind for the questions that follow it
    src = str(pathlib.Path(algebroid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    sequence = [
        (["cohomology", "plane.adf", "T", "--bogus"], 2),
        (["exact", "torus.adf", "qres", "--json"], 1),
        (["cech-dims", "p1.adf", "P"], 0),
    ]
    for argv, expected in sequence:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = invoke(argv)
        fresh = subprocess.run(
            [sys.executable, "-c", "from algebroid.cli import main; main()"] + argv,
            cwd=DATA, env=env, capture_output=True, text=True)
        assert code == fresh.returncode == expected
        assert text == fresh.stdout
        assert err.getvalue() == fresh.stderr


COVER_HEAD = """ring R = poly(Q; z);
algebroid T over R { basis e1; anchor e1 -> d/dz; }
cover C {
"""


def identity_overlap(a, b, bundle):
    return ("  overlap %d %d { ring R; map %d { z -> z; } map %d { z -> z; }\n"
            "    derivations %d { d/dz -> d/dz; } derivations %d { d/dz -> d/dz; }\n"
            "    transition [[1]];%s }\n"
            % (a, b, a, b, a, b, " bundle [[1]];" if bundle else ""))


@pytest.mark.parametrize("body,message", [
    ("  chart R T;\n  chart R T;\n" + identity_overlap(0, 1, True),
     "error:10:1: triple (0,1,2) names no overlap (1,2)"),
    ("  chart R T;\n  chart R T;\n  chart R T;\n" + identity_overlap(0, 1, True)
     + identity_overlap(0, 2, False) + identity_overlap(1, 2, True),
     "error:17:1: triple (0,1,2) needs bundle data of one size on all three overlaps"),
], ids=["missing-overlap", "partial-bundle"])
def test_bad_cover_triple_is_diagnostic(tmp_path, body, message):
    # these raised KeyError and TypeError out of Cover.verify; the
    # diagnostic sits at the cover's closing '}' and the statement after
    # the cover still parses
    path = tmp_path / "triple.adf"
    path.write_text(COVER_HEAD + body + "  triple 0 1 2;\n}\nring S = poly(Q; y);\n")
    assert invoke(["verify", str(path), "S"]) == (2, message + "\n")


@pytest.mark.parametrize("file,name,message", [
    ("p1rank2.adf", "C", "dimension counts are built for line bundles"),
    ("{tmp}", "P", "cover has no bundle data"),
], ids=["rank-2-bundle", "no-bundle"])
@pytest.mark.parametrize("as_json", [False, True])
def test_cech_dims_needs_a_line_bundle(tmp_path, file, name, message, as_json):
    # the dimension count is built for line bundles only: any other cover is
    # a question the input does not admit, not a refutation
    path = tmp_path / "nobundle.adf"
    path.write_text("cover P = p1(tangent);\n")
    file = str(path) if file == "{tmp}" else file
    code, text = invoke(["cech-dims", file, name] + (["--json"] if as_json else []))
    assert code == 2
    if as_json:
        assert json.loads(text) == {"error": message, "exit": 2}
    else:
        assert text == "error: %s\n" % message


# -- argv fuzzing --------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from algebroid.cli import COMMANDS  # noqa: E402

FILES = sorted(p.name for p in DATA.glob("*.adf"))
# the names each catalog file defines, by kind, and PBW words
FILE_NAMES = {}
for f in FILES:
    defs = parse((DATA / f).read_text())
    for name in defs.order:
        FILE_NAMES.setdefault((f, defs.kinds[name]), []).append(name)
        FILE_NAMES.setdefault((f, None), []).append(name)
NAMES = sorted({name for f in FILES for name in FILE_NAMES[f, None]})
WORDS = ["e1*x", "e2^3*e1^3", "e1*e2 - x", "f1*z", "e3", "x^-1*e1"]
# the kind of each positional after the file (None: any), and the commands
# whose last positional is optional
KINDS = {"verify": (None,), "cohomology": ("algebroid",), "d": ("form",),
         "exact": ("form",), "curvature": ("connection",), "flat": ("connection",),
         "chern": ("connection",), "obstruction": ("connection", "form"),
         "matched": ("matched",), "twilled": ("matched",),
         "compare-total": ("matched",), "relations": ("algebroid", "form"),
         "normal-form": ("relations", "word"), "confluence": ("relations",),
         "atiyah": ("cover",), "class-compare": ("cocycle", "cocycle"),
         "glue": ("cover", "cocycle"), "lambda-check": ("cover", "cocycle", "bunch"),
         "cech-dims": ("cover",)}
OPTIONAL_LAST = ("relations", "atiyah")


@st.composite
def argv(draw):
    """A command line of one of the commands over a catalog file, mostly
    a file that defines the kinds it asks for and names of those kinds;
    the windows stay small, since no budget stops a large one yet."""
    command = draw(st.sampled_from(sorted(KINDS)))
    kinds = KINDS[command]
    if command in OPTIONAL_LAST and draw(st.booleans()):
        kinds = kinds[:-1]
    if not draw(st.integers(0, 9)):
        kinds = (None,) * draw(st.integers(0, 3))
    fitting = [f for f in FILES if all((f, k) in FILE_NAMES for k in kinds if k != "word")]
    file = draw(st.sampled_from(fitting if fitting and draw(st.integers(0, 4)) else FILES))
    out = [command, file]
    for kind in kinds:
        fitting = WORDS if kind == "word" else FILE_NAMES.get((file, kind))
        out.append(draw(st.sampled_from(fitting if fitting and draw(st.integers(0, 4))
                                        else NAMES)))
    window = draw(st.none() | st.integers(0, 4).map(str)
                  | st.tuples(st.integers(0, 4), st.integers(1, 4)).map("%d,%d".__mod__))
    if window is not None:
        out += ["--window", window]
    if command in ("cohomology", "compare-total") and draw(st.booleans()):
        # a degree past 10^9 makes a range longer than the bound
        lo, hi = sorted(draw(st.lists(st.integers(-2, 6) | st.just(10 ** 9),
                                      min_size=2, max_size=2)))
        out += ["--degrees", draw(st.sampled_from(
            ("%d..%d" % (lo, hi), "%d,%d" % (lo, hi), "%d.." % lo, "x", "-1..1")))]
    if command in ("chern", "atiyah") and draw(st.booleans()):
        out += ["--k", str(draw(st.integers(-2, 3)))]
    if draw(st.booleans()):
        out.append("--json")
    return out


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(argv())
def test_fuzzed_argv_never_raises(args):
    """No traceback and an exit code from the README table, for any
    command line drawn from the commands, files and names above."""
    assert KINDS.keys() == COMMANDS.keys()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        mp.delenv("ADF_WINDOW", raising=False)
        code, _ = invoke(args)
    assert code in (0, 1, 2, 3), args
    assert "Traceback" not in err.getvalue()
