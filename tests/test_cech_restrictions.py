"""The restriction rows of `cech._cech_complex`, read from packed powers of
each variable's image, against the term-dict references of oracles.py
(`coboundary_system` for the cut q >= 1 of `coboundary_test`,
`line_bundle_columns` for the cut q = 0 of `line_bundle_cech_dims`), on
random two-chart covers: a chart Q[s^+-1, t] whose Laurent variable is
read at negative exponents through the inverse of its image, a chart
Q[w] over fewer variables, images of several terms in the overlap ring
Q[u^+-1, v], and a frame coefficient of several terms that may be chosen
so that its products with the images of w cancel.  No row may hold a
zero, and integral values are ints."""

from fractions import Fraction

import pytest

from algebroid import cech
from algebroid.cech import (CechPair, Cover, Overlap, coboundary_test,
                            line_bundle_cech_dims, zero_pair)
from algebroid.core import make_trivial_bundle
from algebroid.forms import LForm, TruncationWindow
from algebroid.rings import ChartRing, RingElement, RingMap

from oracles import (SLACK, coboundary_system, is_normal_coefficient, line_bundle_columns,
                     line_bundle_dims_by_overlaps)
from test_cech import decode_cech, recorded_coboundary_system

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]
OVERLAP_MONOMIAL = st.tuples(st.integers(-2, 2), st.integers(0, 2))


def rings():
    """(overlap ring, first chart ring, second chart ring), none with
    derivations, so that any restriction maps make a cover."""
    return (ChartRing(("u", "v"), laurent=("u",), derivations={}),
            ChartRing(("s", "t"), laurent=("s",), derivations={}),
            ChartRing(("w",), derivations={}))


def make_cover(case):
    """The cover of a case: s -> c u^k, t -> the t image, w -> ca a + cb b,
    the frame transition [[1, 0], [f, 1]] with f = lam (ca a - cb b) when
    `cancel` (so f times the image of w loses its cross terms) and the
    random f otherwise, and the line bundle c' u^k'; charts of rank 2
    with zero anchor and bracket."""
    o, ra, rb = rings()
    (sc, sk), t_terms = case["s"], case["t"]
    (a, ca), (b, cb) = case["w"]
    w_image = RingElement(o, {a: ca, b: cb})
    if case["cancel"] is None:
        f = RingElement(o, case["f"])
    else:
        f = RingElement(o, {a: case["cancel"] * ca, b: -case["cancel"] * cb})
    gc, gk = case["bundle"]
    ov = Overlap(o, RingMap(ra, o, {"s": RingElement(o, {(sk, 0): sc}),
                                    "t": RingElement(o, t_terms)}),
                 RingMap(rb, o, {"w": w_image}), [], [],
                 [[o.one, o.zero], [f, o.one]], bundle=[[RingElement(o, {(gk, 0): gc})]])
    return Cover([(ra, make_trivial_bundle(ra, 2)), (rb, make_trivial_bundle(rb, 2))],
                 {(0, 1): ov})


@st.composite
def cases(draw):
    coefficient = st.sampled_from(COEFFICIENTS)
    a, b = draw(st.lists(OVERLAP_MONOMIAL, min_size=2, max_size=2, unique=True))
    return {
        "s": (draw(coefficient), draw(st.sampled_from([-2, -1, 1, 2]))),
        "t": draw(st.dictionaries(OVERLAP_MONOMIAL, coefficient, min_size=2, max_size=3)),
        "w": ((a, draw(coefficient)), (b, draw(coefficient))),
        "cancel": draw(st.one_of(st.none(), coefficient)),
        "f": draw(st.dictionaries(OVERLAP_MONOMIAL, coefficient, min_size=2, max_size=3)),
        "bundle": (draw(coefficient), draw(st.integers(-1, 1))),
        "phi": draw(st.dictionaries(OVERLAP_MONOMIAL, coefficient, min_size=1, max_size=3)),
    }


# s -> 2u, so s^-1 -> u^-1 / 2, against t -> v / 2 + 2 u: the product
# 1/2 * 2 is an integral Fraction; f = u - v against w -> u + v cancels uv
FIXED = {"s": (2, 1), "t": {(0, 1): Fraction(1, 2), (1, 0): 2},
         "w": (((1, 0), 1), ((0, 1), 1)), "cancel": 1, "f": {},
         "bundle": (Fraction(1, 2), 1), "phi": {(-1, 1): 3}}


def assert_normal(cols):
    for col in cols:
        for c in col.values():
            assert is_normal_coefficient(c), c


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=FIXED)
def test_packed_coboundary_rows_match_term_dict_oracle(case):
    cover = make_cover(case)
    frame = cover.frame_algebroid(0, 1)
    o = frame.base
    pair_b = CechPair(cover, {(0, 1): LForm(frame, 1, {(1,): RingElement(o, case["phi"])})}, {})
    for window in (TruncationWindow(2, 2), TruncationWindow(1, 3)):
        result, cols, rhs = recorded_coboundary_system(cover, zero_pair(cover), pair_b, window)
        assert (cols, rhs) == coboundary_system(cover, zero_pair(cover), pair_b, window)
        assert_normal(cols)
        assert result.status in ("equivalent", "inequivalent-in-window")
        if result.status == "equivalent":       # verified by substitution
            assert result == coboundary_test(cover, zero_pair(cover), pair_b, window)


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=FIXED)
def test_packed_line_bundle_rows_match_term_dict_oracle(case):
    cover = make_cover(case)
    complex_ = cech._cech_complex(
        cover, 0, 0, {key: ov.bundle for key, ov in cover.overlaps.items()})
    for window in (TruncationWindow(2, 1), TruncationWindow(2, 2)):
        chart_window, want, _ = line_bundle_columns(cover, window)
        basis = complex_.basis(0, chart_window)
        codes = complex_.codes(chart_window.laurent + SLACK)
        cols = [{} for _ in basis]
        for code, row in complex_.rows(codes, basis).items():
            (_, ((a, b), _)), exps = decode_cech(complex_, codes, code)
            for j, c in row.items():
                cols[j][(a, b, exps)] = -c
        assert cols == want
        assert_normal(cols)
        assert line_bundle_cech_dims(cover, window)[:2] == line_bundle_dims_by_overlaps(
            cover, window)
