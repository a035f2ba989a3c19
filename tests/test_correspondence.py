"""The two sides of the correspondence checked against each other: when
`coboundary_test` certifies B = A + (delta eta, d eta), the chart rules
h_a: e_i -> e_i + eta_a(e_i) are algebra maps Lambda(L_a, q^B_a) ->
Lambda(L_a, q^A_a), and on every overlap they intertwine the gluing maps
of `glue_sridharan`: h_b g^B_ab = g^A_ab h_a on generators.  Such a B is
in A's class, so compared with the zero pair it keeps A's verdict: a
nonzero residue stays a certified "inequivalent" with the same value."""

import pathlib

import pytest

from algebroid.cech import (CechPair, coboundary_test, glue_sridharan,
                            verify_cocycle, zero_pair)
from algebroid.forms import LForm, TruncationWindow
from algebroid.parser import parse
from algebroid.pbw import GeneratorMap, RelationSystem

from test_cech import sheared_plane_cover

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
WINDOW = TruncationWindow(4, 8)


def load(name):
    return parse((DATA / name).read_text()).objects


def chart_rule(source, target, eta):
    """e_i -> e_i + eta(e_i), written out here rather than taken from
    `glue_sridharan`, so that a sign slip in the gluing rule shows."""
    return GeneratorMap(source, target, [
        target.generator(i) + target.scalar(eta.component((i,)))
        for i in range(source.algebroid.rank)])


def check_intertwined(cover, pair_a, pair_b, eta):
    for a in range(len(cover.charts)):
        alg = cover.chart_algebroid(a)
        h = chart_rule(RelationSystem(alg, pair_b.q[a]),
                       RelationSystem(alg, pair_a.q[a]), eta[a])
        assert h.broken_relations() == []
    glue_a, glue_b = glue_sridharan(cover, pair_a), glue_sridharan(cover, pair_b)
    assert glue_a.verified and glue_b.verified
    for (a, b), g_a in glue_a.maps.items():
        g_b = glue_b.maps[(a, b)]
        eta_a, eta_b = cover.restrict(a, b, eta)
        h_a = chart_rule(g_b.source, g_a.source, eta_a)
        h_b = chart_rule(g_b.target, g_a.target, eta_b)
        for i in range(g_a.source.algebroid.rank):
            assert h_b(g_b.image_of_generator(i)) == g_a(h_a.image_of_generator(i))


def test_class_compare_log_pair_intertwines_the_gluings():
    defs = load("p1log.adf")
    cover, pair_z, pair_a = defs["P"], defs["Z"], defs["A"]
    cmp = coboundary_test(cover, pair_z, pair_a)
    assert cmp.status == "equivalent"
    check_intertwined(cover, pair_z, pair_a, cmp.eta)


def base_pairs():
    """(cover, A): both pairs of the p1 and p1log files, and on the
    sheared planes (rank 2, so the chart rules meet a commutator) the
    cocycle phi = x dy, q_0 = dx^dy."""
    out = [(defs["P"], defs[name]) for defs in map(load, ("p1.adf", "p1log.adf"))
           for name in ("Z", "A")]
    cover = sheared_plane_cover()
    frame = cover.frame_algebroid(0, 1)
    r = cover.chart_ring(0)
    pair = CechPair(cover, {(0, 1): LForm(frame, 1, {(1,): r.var("x")})},
                    {0: LForm(cover.chart_algebroid(0), 2, {(0, 1): r.one})})
    assert verify_cocycle(cover, pair).verified
    out += [(cover, zero_pair(cover)), (cover, pair)]
    return out


BASE_PAIRS = base_pairs()


@st.composite
def shifted_pairs(draw, bases=BASE_PAIRS):
    """(cover, A, B, eta) with (cover, A) one of `bases`, B = A + (delta
    eta, d eta) and eta a chart 1-form per chart, with coefficients of
    degree at most 2."""
    cover, pair_a = draw(st.sampled_from(bases))
    eta = {}
    for a in range(len(cover.charts)):
        ring, alg = cover.chart_ring(a), cover.chart_algebroid(a)
        monos = [m for m in WINDOW.monomials(ring) if sum(m) <= 2]
        coeffs = {}
        for i in range(alg.rank):
            terms = draw(st.dictionaries(st.sampled_from(monos),
                                         st.integers(-3, 3), max_size=3))
            coeffs[(i,)] = sum((ring.monomial(m, c) for m, c in terms.items()),
                               ring.zero)
        eta[a] = LForm(alg, 1, coeffs)
    phi = {}
    for (a, b), form in pair_a.phi.items():
        eta_a, eta_b = cover.restrict(a, b, eta)
        phi[(a, b)] = form + eta_a - eta_b
    q = {a: form + eta[a].d() for a, form in pair_a.q.items()}
    return cover, pair_a, CechPair(cover, phi, q), eta


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(shifted_pairs())
def test_certified_coboundaries_intertwine_the_gluings(case):
    cover, pair_a, pair_b, eta = case
    cmp = coboundary_test(cover, pair_a, pair_b, WINDOW)
    assert cmp.status == "equivalent"
    # the drawn eta and the one class-compare returns (they may differ by
    # a global closed form) both pass
    check_intertwined(cover, pair_a, pair_b, eta)
    check_intertwined(cover, pair_a, pair_b, cmp.eta)


# the p1.adf cover with its pairs Z and A: A's residue is nonzero
P1_PAIRS = BASE_PAIRS[:2]


def test_p1_atiyah_pair_is_certified():
    (cover, zero), (_, pair_a) = P1_PAIRS
    cmp = coboundary_test(cover, zero, pair_a, WINDOW)
    assert cmp.certified and cmp.residue_value


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(shifted_pairs(P1_PAIRS))
def test_coboundaries_keep_the_residue_certificate(case):
    cover, pair_a, pair_b, _ = case
    zero = P1_PAIRS[0][1]
    against_a = coboundary_test(cover, zero, pair_a, WINDOW)
    against_b = coboundary_test(cover, zero, pair_b, WINDOW)
    assert against_b.status == against_a.status
    assert against_b.residue_value == against_a.residue_value
