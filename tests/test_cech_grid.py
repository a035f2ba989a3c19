"""`class-compare` and `cech-dims` over a grid of covers and windows,
plain and --json, against data/cech_grid.json: the stdout and exit codes
of the hand-built Cech systems that the windowed Cech-Chevalley-Eilenberg
complex replaced, captured before `cech-dims` labelled window-relative
answers.

The grid holds the built-in projective line with the tangent and log
structures at bundle degrees -4..4, the covers of
`test_cech.coboundary_pairs` (the three-chart cover, the sheared planes
and the cover whose restriction doubles exponents among them) and the
unglued covers of `test_stencil.algebroids`.
Covers over more variables run only the windows whose slices stay
small.  Each case runs `cli.run` with the definition file's parse
replaced by the case's objects.  A `cech-dims` answer whose dims
`oracles.line_bundle_dims_by_overlaps` finds to change at the window
enlarged by 2 is the pinned one labelled window-unstable, exit 3; every
other answer is the pinned one byte for byte.
"""

import contextlib
import io
import json
import pathlib

import pytest

from algebroid import cli
from algebroid.cech import CechPair, Cover, zero_pair
from algebroid.forms import LForm, TruncationWindow
from algebroid.parser import Definitions, parse

from oracles import line_bundle_dims_by_overlaps
from test_cech import coboundary_pairs
from test_stencil import algebroids

PINS = pathlib.Path(__file__).parent / "data" / "cech_grid.json"
WINDOWS = ("2,2", "8,2", "8,5", "3,12", "60,60", "8,150", "200,8")
# the windows of covers over two variables, and over three
BY_VARIABLES = {1: WINDOWS, 2: WINDOWS[:-1], 3: WINDOWS[:4]}

UNSTABLE = "window-unstable: the dims change at the window enlarged by 2; inconclusive\n"
P1 = """cover P = p1(%s, bundle=%d);
cocycle A = atiyah(P);
cocycle Z on P {
}
"""


def _defs(cover, pair_a, pair_b):
    defs = Definitions()
    defs.define("P", "cover", cover, {})
    defs.define("A", "cocycle", pair_a, {})
    defs.define("B", "cocycle", pair_b, {})
    return defs


def _unglued_pairs():
    """The unglued cover of every algebroid of `test_stencil`, with zero
    pairs and with chart 2-forms q_a = d(x e^2) on the charts of rank 2
    or more, x the chart's first variable."""
    charts = [(l.base, l) for l in algebroids()]
    cover = Cover(charts, {})
    yield cover, zero_pair(cover), zero_pair(cover)
    q = {}
    for a, (ring, l) in enumerate(charts):
        if l.rank >= 2:
            q[a] = LForm(l, 2, LForm(l, 1, {(1,): ring.var(ring.variables[0])}).d().coeffs)
    yield cover, zero_pair(cover), CechPair(cover, {}, q)


def grid():
    """(case id, definitions, argv without --json) of every case."""
    for structure in ("tangent", "log"):
        for k in range(-4, 5):
            defs = parse(P1 % (structure, k))
            name = "p1-%s-%d" % (structure, k)
            for w in WINDOWS:
                yield "%s/class-compare/%s" % (name, w), defs, [
                    "class-compare", name, "Z", "A", "--window", w]
                yield "%s/cech-dims/%s" % (name, w), defs, [
                    "cech-dims", name, "P", "--window", w]
    covers = [("pair-%d" % n, pair) for n, pair in enumerate(coboundary_pairs())]
    covers += [("unglued-%d" % n, pair) for n, pair in enumerate(_unglued_pairs())]
    for name, (cover, pair_a, pair_b) in covers:
        defs = _defs(cover, pair_a, pair_b)
        nv = max(len(ring.variables) for ring, _ in cover.charts)
        for w in BY_VARIABLES[nv]:
            yield "%s/class-compare/%s" % (name, w), defs, [
                "class-compare", name, "A", "B", "--window", w]
            yield "%s/cech-dims/%s" % (name, w), defs, [
                "cech-dims", name, "P", "--window", w]


def run_case(defs, argv):
    """(exit code, stdout) of `cli.run(argv)` with `defs` as the file."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "load", lambda path, out: defs)
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    return code, buf.getvalue()


def labelled(pinned, case, defs):
    """The pinned (exit, stdout) of a case, labelled window-unstable when
    the reference dims change at the window enlarged by 2."""
    code, text = pinned
    if "/cech-dims/" not in case or code != 0:
        return code, text
    cover, window = defs.objects["P"], TruncationWindow(*map(int, case.split("/")[2].split(",")))
    if (line_bundle_dims_by_overlaps(cover, window)
            == line_bundle_dims_by_overlaps(cover, window.enlarged(2))):
        return code, text
    if case.endswith("--json"):
        return 3, json.dumps(dict(json.loads(text), exit=3, stable=False), sort_keys=True,
                             separators=(", ", ": ")) + "\n"
    return 3, text + UNSTABLE


def test_cech_grid_matches_pins():
    pins = json.loads(PINS.read_text())
    got, unstable = {}, 0
    for case, defs, argv in grid():
        for flag in ([], ["--json"]):
            key = case + "/".join([""] + flag)
            got[key] = run_case(defs, argv + flag)
            want = labelled(pins[key], key, defs)
            assert got[key] == want, key
            unstable += want[0] == 3 and pins[key][0] == 0
    assert got.keys() == pins.keys()
    assert unstable == 52


def test_cech_dims_labels_a_window_too_small_for_its_classes():
    # h1(O(-3)) = 2: the box z^-1..z^1 holds only one of the classes
    # z^-1, z^-2, so window 8,1 is labelled; 8,2 holds both
    defs = parse(P1 % ("tangent", -3))
    assert run_case(defs, ["cech-dims", "f", "P", "--window", "8,1"]) == (
        3, "h0 = 0\nh1 = 1\n" + UNSTABLE)
    assert json.loads(run_case(defs, ["cech-dims", "f", "P", "--window", "8,1", "--json"])[1]) \
        == {"exit": 3, "h0": 0, "h1": 1, "stable": False}
    assert run_case(defs, ["cech-dims", "f", "P", "--window", "8,2"]) == (
        0, "h0 = 0\nh1 = 2\n")
    # the five sections of O(4) need the chart window enlarged by the
    # transition degree past the box z^-2..z^2
    assert run_case(parse(P1 % ("tangent", 4)), ["cech-dims", "f", "P", "--window", "8,2"]) \
        == (0, "h0 = 5\nh1 = 0\n")
