"""The weight grading of the compiled Chevalley-Eilenberg kernel
(`Stencil.weights`), the windowed questions that read it or once read it
(`exactness_solve` by weight block, `_WindowedComplex.dims`), against the
whole-slice references of oracles.py and a rank over a prime field."""

import pathlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid.core import (Algebroid, make_foliation, make_lie_algebra_bundle,
                            make_log, make_poisson, make_tangent)
from algebroid.forms import (LForm, TruncationWindow, _ce_complex, compile_d,
                             exactness_solve, truncated_cohomology)
from algebroid.matched import twilled_sum
from algebroid.parser import parse
from algebroid.rings import laurent_ring, poly_ring

from oracles import (complex_columns, rank_mod_prime, system_from_columns,
                     weight_lattice, whole_slice_dims, whole_slice_primitive)
from test_stencil import rank2_connection, sparse_columns


def so3():
    r = poly_ring("x", "y", "z")
    x, y, z = (r.var(v) for v in "xyz")
    return make_poisson(r, {(0, 1): z, (1, 2): x, (2, 0): y})


def laurent_torus():
    """The torus of the benchmark ladder: e1 -> 2 d/dx, e2 -> -3 d/dy."""
    r = laurent_ring("x", "y")
    return Algebroid(r, 2, [[2, 0], [0, -3]], {})


def foliation():
    """d/dx, x^2 d/dy and d/dy: [g1, g2] = 2x g3, a non-constant bracket."""
    r = poly_ring("x", "y")
    return make_foliation(r, [[1, 0], [0, r.var("x") ** 2], [0, 1]])


def ungraded():
    """e1 -> (1 + x) d/dx, e2 -> (1 + y) d/dy: only the zero weight."""
    r = poly_ring("x", "y")
    return Algebroid(r, 2, [[1 + r.var("x"), 0], [0, 1 + r.var("y")]], {})


# (name, algebroid, lattice dimension, windows)
ALGEBROIDS = [
    ("so3", so3, 1, (TruncationWindow(3), TruncationWindow(4))),
    ("tangent3", lambda: make_tangent(poly_ring("x", "y", "z")), 3,
     (TruncationWindow(3), TruncationWindow(5))),
    ("tangent4", lambda: make_tangent(poly_ring("x", "y", "z", "w")), 4,
     (TruncationWindow(2), TruncationWindow(3))),
    ("log", lambda: make_log(poly_ring("x", "y"), ["x", "y"]), 2,
     (TruncationWindow(3), TruncationWindow(5))),
    ("laurent", laurent_torus, 2,
     (TruncationWindow(2, 2), TruncationWindow(3, 2), TruncationWindow(4, 5))),
    ("heisenberg", lambda: make_lie_algebra_bundle(poly_ring("x"), 3, {(0, 1): {2: 1}}), 3,
     (TruncationWindow(2), TruncationWindow(4))),
    ("foliation", foliation, 2, (TruncationWindow(3), TruncationWindow(5))),
    ("ungraded", ungraded, 0, (TruncationWindow(2), TruncationWindow(4))),
]
IDS = [name for name, *_ in ALGEBROIDS]


@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_lattice_dimension(name, make, lattice, windows):
    l = make()
    assert l.verify().verified
    weights = compile_d(l).weights()
    assert len(weights) == lattice
    assert all(type(c) is int for g in weights for c in g)
    # a basis: the vectors are independent
    assert system_from_columns(
        [{t: c for t, c in enumerate(g) if c} for g in weights]).rank() == lattice


def entry_weights_preserved(stencil, labels):
    """Every compiled entry of every (index tuple, module label) moves
    theta^idx (x) b_t * x^m to a term of the same weight, for each
    detected weight (module labels weigh 0)."""
    l = stencil.owner
    nv = len(l.base.variables)
    checked = 0
    for g in stencil.weights():
        w, u = g[:nv], g[nv:]

        def weight(idx, shift):
            return sum(a * b for a, b in zip(w, shift)) + sum(u[i] for i in idx)

        for p in range(l.rank + 1):
            for idx in combinations(range(l.rank), p):
                for t in labels:
                    consts, anchors = stencil._compile((idx, t))
                    for (big, _), shift, _ in consts:
                        assert weight(big, shift) == weight(idx, (0,) * nv)
                        checked += 1
                    for (big, _), _, shift, _ in anchors:
                        assert weight(big, shift) == weight(idx, (0,) * nv)
                        checked += 1
    return checked


@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_every_entry_preserves_every_weight(name, make, lattice, windows):
    l = make()
    checked = entry_weights_preserved(compile_d(l), [0])
    assert checked or not lattice
    # a connection's entries constrain the grading too
    matrices = sparse_columns(rank2_connection(l, random.Random(name)))
    entry_weights_preserved(compile_d(l, matrices), [0, 1])


def test_connection_terms_constrain_the_grading():
    # nabla_{e1} b_0 = x b_1 breaks the weight of x in the tangent grading
    l = make_tangent(poly_ring("x", "y"))
    x = l.base.var("x")
    matrices = [[[(1, x)], []], [[], []]]
    assert len(compile_d(l).weights()) == 2
    assert len(compile_d(l, matrices).weights()) == 1


def test_weights_match_reference_lattice():
    """The lattice of every algebroid in the catalog files, of the twilled
    sum of each matched pair there and of the algebroids above is the
    dense reference's, vector for vector."""
    algebroids, twilled = [], 0
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.adf")):
        defs = parse(path.read_text())
        for name in defs.order:
            if defs.kinds[name] == "algebroid":
                algebroids.append(defs.objects[name])
            elif defs.kinds[name] == "matched":
                algebroids.append(twilled_sum(defs.objects[name]))
                twilled += 1
    assert len(algebroids) >= 8 and twilled
    algebroids += [make() for _, make, *_ in ALGEBROIDS]
    for l in algebroids:
        assert compile_d(l).weights() == weight_lattice(l)


@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_cohomology_matches_whole_slices(name, make, lattice, windows):
    l = make()
    drop, _ = l.coefficient_degree_profile()
    degrees = range(l.rank + 2)
    for window in windows:
        rep = truncated_cohomology(l, degrees, window)
        ref = whole_slice_dims(_ce_complex(l), degrees,
                               (window, window.enlarged(2)), drop)
        for p in degrees:
            ker, im = ref[window][p]
            ker2, im2 = ref[window.enlarged(2)][p]
            stable = ker - im == ker2 - im2
            got = rep.degrees[p]
            assert (got.kernel_dim, got.image_dim, got.stable) == (ker, im, stable), \
                (name, window, p)


@pytest.mark.parametrize("drop", [0, 1, 3])
@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_dims_at_any_drop_match_whole_slices(name, make, lattice, windows, drop):
    # three nested windows in one call share each degree's elimination
    # between the kernel of one window and the image of another, whatever
    # the drop
    l = make()
    w = windows[0]
    chain = (w, w.enlarged(1), w.enlarged(3))
    degrees = range(l.rank + 1)
    got = _ce_complex(l).dims(dict.fromkeys(degrees, chain), drop)
    assert got == whole_slice_dims(_ce_complex(l), degrees, chain, drop)


def random_poly(r, rng, degree, terms=3):
    total = r.zero
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-degree if v in r.laurent else 0, degree)
                     for v in r.variables)
        total = total + r.monomial(exps, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return total


def closed_forms(l, rng, count):
    """Coboundaries d(eta) of random eta below the top degree, then on
    rank-2 and Laurent algebroids two top forms carrying the residue
    monomial (x^-1 y^-1, or 1 without Laurent variables), which are closed
    and not exact on the log and Laurent tori."""
    r = l.base
    for _ in range(count):
        p = rng.randint(0, l.rank - 1)
        eta = LForm(l, p, {idx: random_poly(r, rng, 3)
                           for idx in combinations(range(l.rank), p)
                           if rng.random() < 0.7})
        theta = eta.d()
        if not theta.is_zero():
            yield theta
    if r.laurent or l.rank == 2:
        top = tuple(range(l.rank))
        residue = r.monomial(tuple(-1 if v in r.laurent else 0 for v in r.variables), 3)
        for _ in range(2):
            yield LForm(l, l.rank, {top: random_poly(r, rng, 2) + residue})


@pytest.mark.parametrize("name,make,lattice,windows", ALGEBROIDS, ids=IDS)
def test_primitives_match_whole_slice(name, make, lattice, windows):
    l = make()
    rng = random.Random("primitive/" + name)
    found = 0
    for theta in closed_forms(l, rng, 6):
        for window in windows:
            res = exactness_solve(theta, window)
            ref = whole_slice_primitive(theta, window)
            if ref is None:
                assert res.status == "no-primitive-in-window"
            else:
                assert res.status == "primitive"
                assert {idx: val.terms for idx, val in res.primitive.coeffs.items()} == ref
                found += 1
    assert found


@pytest.mark.parametrize("make,window", [
    (so3, TruncationWindow(4)),
    (lambda: make_tangent(poly_ring("x", "y", "z")), TruncationWindow(6)),
    (laurent_torus, TruncationWindow(5, 5)),
], ids=["so3", "tangent3", "laurent"])
def test_block_ranks_match_rank_mod_prime(make, window):
    # the ladder's slices: the rank over Z/p, the eliminator's rank of the
    # whole slice and the pivots inside the window behind the kernel dims
    l = make()
    complex_ = _ce_complex(l)
    dims = complex_.dims(dict.fromkeys(range(l.rank + 1), (window,)), 0)[window]
    for p in range(l.rank + 1):
        basis = complex_.basis(p, window)
        cols = complex_columns(complex_, complex_.codes(window.bound(l.base)), basis)
        rank = system_from_columns(cols).rank()
        assert rank_mod_prime(cols) == rank == len(basis) - dims[p][0]
