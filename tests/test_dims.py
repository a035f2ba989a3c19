"""`_WindowedComplex.dims`, one elimination per degree whose pivots rank
every nested window, against the whole-slice reference and the block-wise
`dims` of oracles.py: random verified Poisson, foliation, Laurent and
Heisenberg algebroids, Laurent fields whose shifts cross the window's
negative Laurent bound, Poisson structures whose shifts reach past the
window enlarged by the drop, and matched total complexes, at degrees below 0 and
above the rank, windows 0-4 and drops 0-3, so that the window enlarged by
the drop comes before, equals and follows the window + 2 of the
stability check."""

import random
from itertools import product

import pytest

from algebroid.core import (Algebroid, make_foliation, make_lie_algebra_bundle,
                            make_poisson)
from algebroid.forms import TruncationWindow, _ce_complex
from algebroid.matched import (DoubleComplexSlice, MatchedPair, _total_complex,
                               verify_matched)
from algebroid.rings import laurent_ring, poly_ring

from oracles import block_dims, whole_slice_dims
from test_matched import heisenberg_line_pair, matched_pairs
from test_weights import random_poly

GRID = list(product(range(5), range(4)))      # (window degree, drop)


def random_poisson(rng):
    """A Poisson bivector on the plane (every one is), or one on 3-space
    with coefficients of degree at most 1 that passes Jacobi; quadratic
    entries move total degree up, so columns reach outside a window."""
    if rng.random() < 0.5:
        r = poly_ring("x", "y")
        return make_poisson(r, {(0, 1): random_poly(r, rng, 2, 3)})
    r = poly_ring("x", "y", "z")
    while True:
        pi = {(i, j): random_poly(r, rng, 1, terms=2) for i, j in ((0, 1), (0, 2), (1, 2))}
        l = make_poisson(r, pi)
        if l.verify().verified:
            return l


def random_foliation(rng):
    """d/dx, g(x) d/dy and d/dy: [g1, g2] = g'(x) g3."""
    r = poly_ring("x", "y")
    g = r.one + sum((r.monomial((rng.randint(1, 3), 0), rng.randint(-3, 3))
                     for _ in range(2)), r.zero)
    return make_foliation(r, [[1, 0], [0, g], [0, 1]])


def random_laurent(rng):
    """Two commuting fields on the torus: constant, or diagonal Euler
    fields a x d/dx + b y d/dy."""
    r = laurent_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    euler = rng.random() < 0.5
    anchor = []
    for _ in range(2):
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        anchor.append([a * x, b * y] if euler else [a, b])
    return Algebroid(r, 2, anchor, {})


def random_heisenberg(rng):
    """Heisenberg [e1, e2] = c e3, or the filiform [e1, e2] = c e3,
    [e1, e3] = c' e4, as a bundle over the line."""
    c = rng.choice((-2, -1, 1, 3))
    if rng.random() < 0.5:
        return make_lie_algebra_bundle(poly_ring("x"), 3, {(0, 1): {2: c}})
    return make_lie_algebra_bundle(poly_ring("x"), 4, {(0, 1): {2: c},
                                                       (0, 2): {3: rng.choice((1, -2))}})


def random_far_laurent(rng):
    """Commuting fields a x^-3 d/dx and b y^2 d/dy on the torus: the first
    moves the x-exponent by -4, past the window's negative Laurent bound,
    the second moves the y-exponent up past its positive one."""
    r = laurent_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    a, b = (rng.choice((-3, -1, 2)) for _ in range(2))
    return Algebroid(r, 2, [[a * x ** -3, 0], [0, b * y ** 2]], {})


def random_steep_poisson(rng):
    """{x, y} = a x^4 + b y^3 on the plane: the anchor moves total degree
    up by 3, so columns reach past the window enlarged by the drop."""
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    a, b = (rng.choice((-2, 1, 3)) for _ in range(2))
    return make_poisson(r, {(0, 1): a * x ** 4 + b * y ** 3})


MAKERS = [("poisson", random_poisson), ("foliation", random_foliation),
          ("laurent", random_laurent), ("heisenberg", random_heisenberg),
          ("far_laurent", random_far_laurent), ("steep_poisson", random_steep_poisson)]


def window(d):
    return TruncationWindow(d, max(d, 1))


def check(complex_, drop, *windows):
    degrees = range(-1, max(complex_.blocks) + 2)
    got = complex_.dims(dict.fromkeys(degrees, windows), drop)
    assert got == whole_slice_dims(complex_, degrees, windows, drop)
    assert got == block_dims(complex_, degrees, windows, drop)


@pytest.mark.parametrize("name,make", MAKERS, ids=[n for n, _ in MAKERS])
def test_dims_match_references_on_random_algebroids(name, make):
    rng = random.Random("dims/" + name)
    for _ in range(2):
        l = make(rng)
        assert l.verify().verified
        for d, drop in GRID:
            w = window(d)
            check(_ce_complex(l), drop, w, w.enlarged(2))


def verified_pairs(rng, count=3):
    """Random Heisenberg-line pairs, either way round, that are matched."""
    pairs = []
    while len(pairs) < count:
        m = heisenberg_line_pair(rng)
        pairs += [pair for pair in (m, MatchedPair(m.l2, m.l1, m.action21, m.action12))
                  if verify_matched(pair).verified]
    return pairs


def test_dims_match_references_on_total_complexes():
    # pairs over at most two variables run the whole grid, the
    # four-variable pairs of test_matched window 0
    rng = random.Random("dims/matched")
    for m in matched_pairs() + verified_pairs(rng):
        assert verify_matched(m).verified
        top = m.l1.rank + m.l2.rank
        complex_ = _total_complex(DoubleComplexSlice(m, top, window(0)))
        small = len(m.l1.base.variables) <= 2
        for d, drop in GRID:
            if small or d == 0:
                w = window(d)
                check(complex_, drop, w, w.enlarged(2))


def test_chain_of_three_windows_reaching_outside():
    # quadratic Poisson: every column of x^m reaches degree |m| + 1, so
    # each image reads a rank outside its window, at every drop
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    l = make_poisson(r, {(0, 1): x * x + x * y})
    w = TruncationWindow(2)
    for drop in range(4):
        check(_ce_complex(l), drop, w, w.enlarged(1), w.enlarged(3))


def test_windows_must_be_nested():
    l = random_laurent(random.Random(1))
    with pytest.raises(ValueError, match="not nested"):
        _ce_complex(l).dims(dict.fromkeys([0, 1], (TruncationWindow(2, 5),
                                                      TruncationWindow(3, 1))), 0)
