"""`_WindowedComplex.weight_basis`, which lists the first n - 1 exponents
of a window and solves the last from each wanted weight, against
`oracles.window_weight_basis`, which weighs every window monomial."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from algebroid.core import make_tangent  # noqa: E402
from algebroid.forms import TruncationWindow, _WindowedComplex, _ce_complex  # noqa: E402
from algebroid.rings import ChartRing, laurent_ring  # noqa: E402

from oracles import window_weight_basis  # noqa: E402
from test_weights import ALGEBROIDS, IDS  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, database=None,
                    derandomize=True)


@st.composite
def graded_complex(draw):
    """(complex, degree, window, weights): a ring of 0-3 variables, each
    polynomial or Laurent, a rank 1-3 and 0-2 grading vectors with small
    entries (the last variable's weight often 0), and weights of basis
    elements inside and outside the window plus arbitrary ones."""
    nv = draw(st.integers(0, 3))
    names = ["x", "y", "z"][:nv]
    laurent = [v for v in names if draw(st.booleans())]
    ring = ChartRing(names, laurent=laurent)
    rank = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nv + rank,
                                     max_size=nv + rank), max_size=2))
    if nv and draw(st.booleans()):
        for g in vectors:
            g[nv - 1] = 0
    blocks = {q: [((idx, 0), ring) for idx in combinations(range(rank), q)]
              for q in range(rank + 1)}
    complex_ = _WindowedComplex(blocks, None, None, lambda: tuple(map(tuple, vectors)))
    window = TruncationWindow(draw(st.integers(0, 5)), draw(st.integers(1, 4)))
    p = draw(st.integers(0, rank))
    elements = st.tuples(
        st.lists(st.integers(0, rank - 1), max_size=rank, unique=True).map(
            lambda idx: tuple(sorted(idx))),
        st.tuples(*[st.integers(-6 if v in laurent else 0, 7) for v in names]))
    weights = [complex_.weight(idx, m) for idx, m in draw(st.lists(elements, max_size=4))]
    weights += draw(st.lists(st.integers(-4, 4), max_size=2))
    return complex_, p, window, weights


@SETTINGS
@given(graded_complex())
def test_weight_basis_matches_whole_window(case):
    complex_, p, window, weights = case
    assert complex_.weight_basis(p, window, weights) \
        == window_weight_basis(complex_, p, window, weights)


@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_weight_basis_of_every_element_is_the_basis(name, make, lattice, windows):
    # asked for every weight of a slice, the basis is the whole slice
    complex_ = _ce_complex(make())
    for window in windows:
        for p in range(max(complex_.blocks) + 1):
            basis = complex_.basis(p, window)
            weights = {complex_.weight(idx, m) for (idx, _), m in basis}
            assert complex_.weight_basis(p, window, weights) == basis


def test_large_window_lists_only_the_wanted_weight():
    # the tangent algebroid of the torus at window 10000 has about 4 * 10^8
    # window monomials, and the weight of x^-1 y^-1 e1^ two basis elements
    complex_ = _ce_complex(make_tangent(laurent_ring("x", "y")))
    wanted = [complex_.weight((0,), (-1, -1))]
    assert complex_.weight_basis(1, TruncationWindow(10000, 10000), wanted) \
        == window_weight_basis(complex_, 1, TruncationWindow(5, 5), wanted) \
        == [(((0,), 0), (-1, -1)), (((1,), 0), (0, -2))]
