"""`_WindowedComplex.dims`, one elimination per degree whose pivots rank
every nested window, against the whole-slice reference and the block-wise
`dims` of oracles.py: random verified Poisson, foliation, Laurent and
Heisenberg algebroids, Laurent fields whose shifts cross the window's
negative Laurent bound, Poisson structures whose shifts reach past the
window enlarged by the drop, and matched total complexes, at degrees below 0 and
above the rank, windows 0-4 and drops 0-3, so that the window enlarged by
the drop comes before, equals and follows the window + 2 of the
stability check.  The row ids of `dims` (each row keyed by its column in
the next degree's basis, or past it) and the columns clearing keeps out
of assembly are checked on the rank-4 tangent, so(3), a matched total
complex and a quadratic Poisson structure, and on the Cech cut q = 0
whose chart windows pass the wide window of the overlaps."""

import random
from itertools import product

import pytest

from algebroid import forms
from algebroid.cech import line_bundle_cech_dims, make_p1_cover
from algebroid.core import (Algebroid, make_foliation, make_lie_algebra_bundle,
                            make_poisson, make_tangent)
from algebroid.forms import TruncationWindow, _ce_complex
from algebroid.linalg import SparseSystem
from algebroid.matched import (DoubleComplexSlice, MatchedPair, _total_complex,
                               verify_matched)
from algebroid.rings import laurent_ring, poly_ring

from oracles import (SLACK, block_dims, complex_columns, line_bundle_dims_by_overlaps,
                     one_ring, system_from_columns, whole_slice_dims)
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


# -- the row ids of `dims` --------------------------------------------------------


def ascending(windows):
    return sorted(set(windows), key=lambda w: (w.degree, w.laurent))


def layered(complex_, p, windows):
    """Degree p's basis elements by the first of the nested `windows` that
    holds them, in basis order inside each window."""
    return list(dict.fromkeys(e for w in ascending(windows) for e in complex_.basis(p, w)))


def lows_inside(complex_, p, columns_at, rows_at):
    """The elements of degree p + 1 that are lows of degree p's reduced
    columns (its basis at the last of `columns_at`), the rows ordered by
    degree p + 1's layers over `rows_at` and then by code: the lows that
    clearing skips, found from the layers alone, with no row ids."""
    codes = complex_.codes(max(w.bound(one_ring(complex_)) for w in columns_at) + SLACK)
    order = {e: t for t, e in enumerate(layered(complex_, p + 1, rows_at))}
    system = system_from_columns(
        complex_columns(complex_, codes, complex_.basis(p, ascending(columns_at)[-1])),
        key=lambda code: (order.get(codes.decode(code), len(order)), code))
    return {codes.decode(system.row_keys[t]) for t, _ in system.pivots()} & order.keys()


def check_row_ids(complex_, drop, w, monkeypatch):
    """dims at w and w + 2, as `truncated_cohomology` asks, against both
    references, and the columns it hands to `rows`: at each degree the
    layered basis less the lows of the degree below, so no low is ever
    assembled.  Returns (columns cleared, rows past the next degree's
    basis, lows among them) over all degrees."""
    degrees = range(-1, max(complex_.blocks) + 2)
    asks = (w, w.enlarged(2))
    degree_of = {key: p for p, found in complex_.blocks.items() for key, _ in found}
    handed, systems = {}, {}
    rows = complex_.rows

    def spy(codes, basis):
        assert basis
        handed[degree_of[basis[0][0]]] = list(basis)
        return rows(codes, basis)

    class Recording(SparseSystem):
        def pivots(self, clear=()):
            found = super().pivots(clear)
            systems[max(handed)] = (self.row_keys, [self.row_keys[t] for t, _ in found])
            return found

    with monkeypatch.context() as mp:
        mp.setattr(complex_, "rows", spy)
        mp.setattr(forms, "SparseSystem", Recording)
        got = complex_.dims(dict.fromkeys(degrees, asks), drop)
    assert got == whole_slice_dims(complex_, degrees, asks, drop)
    assert got == block_dims(complex_, degrees, asks, drop)
    # one ring, every degree asked: degree p is read at the asked windows
    # and, below a degree with blocks, at their enlargements by the drop
    reads = {p: set(asks) | ({v.enlarged(drop) for v in asks} if p + 1 in complex_.blocks
                             else set()) for p in complex_.blocks}
    nested = ascending(set().union(*reads.values()))

    def upto(p):
        return nested[:nested.index(ascending(reads[p])[-1]) + 1]

    assert handed.keys() == systems.keys() == {
        p for p in complex_.blocks if p + 1 in complex_.blocks}
    cleared = far_rows = far_lows = 0
    for p, basis in handed.items():
        full = layered(complex_, p, upto(p))
        lows = lows_inside(complex_, p - 1, upto(p - 1), upto(p)) if p - 1 in handed else set()
        assert not lows & set(basis)
        assert basis == [e for e in full if e not in lows]
        cleared += len(full) - len(basis)
        far = len(layered(complex_, p + 1, upto(p + 1)))
        keys, low_keys = systems[p]
        far_rows += sum(k >= far for k in keys)
        far_lows += sum(k >= far for k in low_keys)
    return cleared, far_rows, far_lows


def so3():
    r = poly_ring("x", "y", "z")
    x, y, z = (r.var(v) for v in "xyz")
    return make_poisson(r, {(0, 1): z, (1, 2): x, (0, 2): -y})


def quadratic_poisson():
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    return make_poisson(r, {(0, 1): x * x + x * y})


@pytest.mark.parametrize("name", ["tangent4", "so3", "total", "quadratic"])
def test_dims_row_ids_clear_and_read_far_rows(name, monkeypatch):
    """Clearing skips many columns of the rank-4 tangent (drop 1), of
    so(3) at 4 and 6 and of a matched total complex, whose drop 3 puts
    w + drop past w + 2; the total complex and a quadratic Poisson
    structure, whose differential raises degree, have rows past the next
    degree's last read window, outside every window, and lows among them."""
    if name == "tangent4":
        cases = [(_ce_complex(make_tangent(poly_ring("x1", "x2", "x3", "x4"))), 1,
                  TruncationWindow(1))]
    elif name == "so3":
        cases = [(_ce_complex(so3()), 0, TruncationWindow(4))]
    elif name == "total":
        m = matched_pairs()[0]
        top = m.l1.rank + m.l2.rank
        cases = [(_total_complex(DoubleComplexSlice(m, top, window(1))), drop, window(1))
                 for drop in (0, 3)]
    else:
        cases = [(_ce_complex(quadratic_poisson()), drop, TruncationWindow(2))
                 for drop in (0, 3)]
    totals = [sum(found) for found in zip(*(check_row_ids(*case, monkeypatch)
                                            for case in cases))]
    assert totals[0] > 0
    if name in ("total", "quadratic"):
        assert totals[1] > 0 and totals[2] > 0


def test_cech_cut_with_slack_past_the_wide_window():
    """cech-dims reads degree 0 at the box and the wide window enlarged by
    the bundle's slack, past the wide window of degree 1 once the slack
    is above 2: degree 0's rows outside the wide window take far ids.
    h0 and h1, and the stability flag, match the overlap-by-overlap
    reference at the box and the wide window."""
    for k in (-6, -5, 5, 6):
        for structure in ("tangent", "log"):
            cover = make_p1_cover(structure, bundle=k)
            for window in (TruncationWindow(8, 1), TruncationWindow(3, 4)):
                wide = TruncationWindow(window.degree, window.laurent + 2)
                h0, h1, stable = line_bundle_cech_dims(cover, window)
                want = line_bundle_dims_by_overlaps(cover, window)
                assert (h0, h1) == want
                assert stable == (want == line_bundle_dims_by_overlaps(cover, wide))
