import random
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid.connections import Connection, EValuedForm, extend_connection
from algebroid.core import (Algebroid, StructureError, make_foliation,
                            make_lie_algebra_bundle, make_log, make_poisson,
                            make_tangent, make_trivial_bundle)
from algebroid.forms import (LForm, TruncationWindow, basis_covector, contract,
                             covariant_d, d_L, exactness_solve, function_form,
                             WindowError, residue_certificate,
                             truncated_cohomology, wedge)
from algebroid.matched import MatchedPair, twilled_sum
from algebroid.rings import ChartRing, laurent_ring, poly_ring

from oracles import (ce_cohomology_dims, gather_d_form, gather_extend_connection,
                     integrate_univariate)

HEISENBERG = {(0, 1): {2: 1}}
BAD_RANK3 = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}


def constants_ring():
    return ChartRing(())


def rand_poly(r, rng, coeff_degree=4):
    total = r.zero
    for _ in range(rng.randint(0, 2)):
        exps = []
        for v in r.variables:
            lo = -coeff_degree if v in r.laurent else 0
            exps.append(rng.randint(lo, coeff_degree))
        total = total + r.monomial(tuple(exps), Fraction(rng.randint(-4, 4)))
    return total


def rand_form(l, rng, degree, coeff_degree=4):
    coeffs = {}
    for idx in combinations(range(l.rank), degree):
        total = rand_poly(l.base, rng, coeff_degree)
        if not total.is_zero():
            coeffs[idx] = total
    return LForm(l, degree, coeffs)


def catalog():
    yield make_tangent(poly_ring("x"))
    yield make_tangent(poly_ring("x", "y"))
    yield make_tangent(laurent_ring("x", "y"))
    yield make_lie_algebra_bundle(poly_ring("x"), 3, HEISENBERG)
    yield make_log(poly_ring("x", "y"), ["x"])
    yield make_poisson(poly_ring("x", "y"), {(0, 1): 1})
    r = poly_ring("x", "y")
    yield make_poisson(r, {(0, 1): r.var("x")})


def kernel_catalog():
    """Anchors and brackets of every kind the package builds: identity,
    linear Poisson (so(3)*), logarithmic, Laurent, a foliation with a
    non-constant bracket and a twilled sum with mixed brackets."""
    r3 = poly_ring("x", "y", "z")
    x, y, z = (r3.var(v) for v in ("x", "y", "z"))
    yield make_tangent(r3)
    yield make_poisson(r3, {(0, 1): z, (1, 2): x, (2, 0): y})
    yield make_log(poly_ring("x", "y"), ["x"])
    yield make_tangent(laurent_ring("x", "y"))
    r2 = poly_ring("x", "y")
    yield make_foliation(r2, [[r2.var("x"), r2.var("y")], [1, 0], [0, 1]])
    r4 = poly_ring("x", "y", "z", "w")
    l1 = Algebroid(r4, 2, [[1, 0, 0, 0], [0, 1, 0, 0]], {})
    l2 = Algebroid(r4, 2, [[r4.var("x"), 0, 1, 0], [0, 0, 0, 1]], {})
    yield twilled_sum(MatchedPair(
        l1, l2, Connection.trivial(l1, 2),
        Connection(l2, 2, [[[-1, 0], [0, 0]], [[0, 0], [0, 0]]])))


def test_covariant_d_matches_gather_on_forms():
    rng = random.Random(131)
    for l in kernel_catalog():
        assert l.verify().verified
        for degree in range(l.rank + 1):
            for _ in range(4):
                theta = rand_form(l, rng, degree, coeff_degree=3)
                expected = gather_d_form(theta).coeffs
                got = covariant_d(l, {(idx, 0): v for idx, v in theta.coeffs.items()})
                assert got == {(idx, 0): v for idx, v in expected.items()}
                assert all(not v.is_zero() for v in got.values())
                assert theta.d().coeffs == expected


def test_extend_connection_matches_gather():
    # random connections, flat or not, of module rank 1-3
    rng = random.Random(137)
    for l in kernel_catalog():
        r = l.base
        for rank in (1, 2, 3):
            mats = [[[rand_poly(r, rng, 2) if rng.random() < 0.4 else 0
                      for _ in range(rank)] for _ in range(rank)]
                    for _ in range(l.rank)]
            c = Connection(l, rank, mats)
            for degree in range(l.rank + 1):
                omega = EValuedForm(l, rank, degree, {
                    idx: [rand_poly(r, rng, 3) for _ in range(rank)]
                    for idx in combinations(range(l.rank), degree)})
                got = extend_connection(c, omega)
                expected = gather_extend_connection(c, omega)
                assert got.coeffs == expected.coeffs
                assert (got.degree, got.rank) == (degree + 1, rank)


def test_d_of_function_tangent():
    t = make_tangent(poly_ring("x"))
    f = function_form(t, t.base.var("x") ** 2)
    df = d_L(f)
    assert df.coeffs == {(0,): 2 * t.base.var("x")}


def test_d_on_poisson_plane_matches_anchor_convention():
    r = poly_ring("x", "y")
    p = make_poisson(r, {(0, 1): 1})
    dx_form = d_L(function_form(p, r.var("x")))
    # pairing with dy gives sharp(dy)(x) = -1; with dx gives 0
    assert dx_form.component((1,)) == -1
    assert dx_form.component((0,)).is_zero()


def test_d_squared_zero_randomized():
    rng = random.Random(101)
    for l in catalog():
        for _ in range(8):
            for degree in range(0, min(3, l.rank) + 1):
                theta = rand_form(l, rng, degree)
                assert d_L(d_L(theta)).is_zero()


def test_graded_leibniz_randomized():
    rng = random.Random(103)
    for l in catalog():
        for _ in range(5):
            p = rng.randint(0, min(2, l.rank))
            q = rng.randint(0, min(2, l.rank))
            a = rand_form(l, rng, p, coeff_degree=2)
            b = rand_form(l, rng, q, coeff_degree=2)
            lhs = d_L(wedge(a, b))
            rhs = wedge(d_L(a), b) + (wedge(a, d_L(b)) if p % 2 == 0
                                      else -wedge(a, d_L(b)))
            assert (lhs - rhs).is_zero()


def test_d_on_functions_agrees_with_anchor():
    rng = random.Random(107)
    for l in catalog():
        r = l.base
        for _ in range(5):
            f = rand_form(l, rng, 0).coeffs.get((), r.zero)
            df = d_L(function_form(l, f))
            for i in range(l.rank):
                assert df.component((i,)) == l.anchor_apply(l.basis_section(i), f)


def test_wedge_antisymmetry_and_contract():
    t = make_tangent(poly_ring("x", "y"))
    dx, dy = basis_covector(t, 0), basis_covector(t, 1)
    assert (wedge(dx, dy) + wedge(dy, dx)).is_zero()
    assert contract(wedge(dx, dy), t.basis_section(0)) == dy
    f = function_form(t, t.base.var("x"))
    assert wedge(f, dy) == dy.scale(t.base.var("x"))


def test_contract_is_antiderivation():
    rng = random.Random(109)
    t = make_tangent(poly_ring("x", "y", "z"))
    for _ in range(10):
        a = rand_form(t, rng, 1, coeff_degree=2)
        b = rand_form(t, rng, 2, coeff_degree=2)
        u = t.section([t.base.monomial((rng.randint(0, 1), 0, 0),
                                       Fraction(rng.randint(-2, 2)))
                       for _ in range(3)])
        lhs = contract(wedge(a, b), u)
        rhs = wedge(contract(a, u), b) - wedge(a, contract(b, u))
        assert (lhs - rhs).is_zero()


def test_unverified_owner_refused():
    bad = make_lie_algebra_bundle(poly_ring("x"), 3, BAD_RANK3)
    theta = LForm(bad, 1, {(0,): bad.base.one})
    with pytest.raises(StructureError):
        d_L(theta)


def test_cohomology_rank2_abelian_constants():
    l = make_trivial_bundle(constants_ring(), 2)
    rep = truncated_cohomology(l, [0, 1, 2], TruncationWindow(4, 4))
    assert rep.dim(0) == 1 and rep.dim(1) == 2 and rep.dim(2) == 1
    assert all(r.stable for r in rep.degrees.values())


def test_cohomology_heisenberg_matches_ce_oracle():
    dims = ce_cohomology_dims(3, HEISENBERG, 3)
    assert dims[1] == 2
    l = make_lie_algebra_bundle(constants_ring(), 3, HEISENBERG)
    rep = truncated_cohomology(l, [0, 1, 2, 3], TruncationWindow(2, 2))
    for p in range(4):
        assert rep.dim(p) == dims[p]


def test_cohomology_tangent_line_poincare():
    t = make_tangent(poly_ring("x"))
    for d in (4, 8):
        rep = truncated_cohomology(t, [0, 1], TruncationWindow(d, 4))
        assert rep.dim(0) == 1
        assert rep.dim(1) == 0
        assert rep.degrees[1].stable


def test_cohomology_laurent_circle():
    t = make_tangent(laurent_ring("z"))
    rep = truncated_cohomology(t, [0, 1], TruncationWindow(4, 6))
    assert rep.dim(0) == 1   # constants
    assert rep.dim(1) == 1   # the class of dz/z


def test_exactness_on_affine_line():
    t = make_tangent(poly_ring("x"))
    x = t.base.var("x")
    theta = LForm(t, 1, {(0,): 2 * x})
    res = exactness_solve(theta, TruncationWindow(6, 4))
    assert res.status == "primitive"
    assert res.primitive.coeffs[()] == x ** 2
    # cross-check with the direct integration oracle
    assert integrate_univariate(2 * x) == x ** 2


def test_window_extent_reads_negative_laurent_exponents():
    t = make_tangent(laurent_ring("z"))
    z = t.base.var("z")
    # z^-20 dz: the solve window grows to exponent 20, past the given 12
    res = exactness_solve(LForm(t, 1, {(0,): z ** -20}), TruncationWindow(6, 12))
    assert res.status == "primitive"
    assert res.primitive.coeffs[()] == z ** -19 * Fraction(-1, 19)
    # an anchor z^-13 d/dz needs laurent >= 13
    l = Algebroid(t.base, 1, [[z ** -13]], {})
    with pytest.raises(WindowError, match="laurent >= 13"):
        truncated_cohomology(l, [0], TruncationWindow(6, 12))


def test_exactness_area_form_affine_plane():
    t = make_tangent(poly_ring("x", "y"))
    theta = LForm(t, 2, {(0, 1): t.base.one})
    res = exactness_solve(theta, TruncationWindow(6, 4))
    assert res.status == "primitive"
    assert (d_L(res.primitive) - theta).is_zero()


def test_exactness_torus_obstruction_certified():
    t = make_tangent(laurent_ring("x", "y"))
    xy = t.base.monomial((-1, -1), 1)
    theta = LForm(t, 2, {(0, 1): xy})
    assert d_L(theta).is_zero()
    res = exactness_solve(theta, TruncationWindow(4, 6))
    assert res.status == "no-primitive-in-window"
    assert res.certified
    assert "residue" in res.residue_witness


def test_residue_certificate_scope():
    t = make_tangent(laurent_ring("x", "y"))
    exact = d_L(LForm(t, 1, {(1,): t.base.var("x")}))
    assert residue_certificate(exact) is None
    log = make_log(poly_ring("z"), ["z"])
    # dz/z itself: the basis covector of the log algebroid is not exact
    assert residue_certificate(basis_covector(log, 0)) is not None


def test_not_closed_rejected():
    t = make_tangent(poly_ring("x", "y"))
    theta = LForm(t, 1, {(1,): t.base.var("x")})   # x dy, d != 0
    with pytest.raises(StructureError):
        exactness_solve(theta, TruncationWindow(4, 4))


def test_window_too_small_rejected():
    r = poly_ring("x", "y")
    p = make_poisson(r, {(0, 1): r.var("x") ** 3})
    with pytest.raises(StructureError):
        truncated_cohomology(p, [1], TruncationWindow(2, 2))


def test_window_stability_flag_changes():
    # on the affine line the reports are stable at every window
    t = make_tangent(poly_ring("x"))
    rep = truncated_cohomology(t, [0, 1], TruncationWindow(3, 2))
    assert rep.degrees[0].stable and rep.degrees[1].stable


def test_dims_consistent_across_growing_windows():
    # catalog dims do not grow with the window, and stable flags are
    # confirmed by the explicit recomputation
    cases = [
        (make_tangent(poly_ring("x")), [0, 1]),
        (make_tangent(laurent_ring("z")), [0, 1]),
        (make_lie_algebra_bundle(constants_ring(), 3, HEISENBERG), [0, 1, 2]),
    ]
    for l, degrees in cases:
        previous = None
        for d in (3, 5, 7):
            rep = truncated_cohomology(l, degrees, TruncationWindow(d, d))
            dims = [rep.dim(p) for p in degrees]
            if previous is not None:
                assert all(a >= b for a, b in zip(previous, dims))
            for p in degrees:
                bigger = truncated_cohomology(l, [p], TruncationWindow(d + 2, d + 2))
                assert rep.degrees[p].stable == (rep.dim(p) == bigger.dim(p))
            previous = dims


def test_cohomology_invariant_under_rational_rescaling():
    # {x,y} = a z, {y,z} = b x, {z,x} = c y is Poisson for any a, b, c, and
    # a diagonal change of coordinates (over R) takes positive (a, b, c)
    # to (1, 1, 1) degree by degree, so every windowed dim agrees; the
    # rescaled columns mix int and Fraction entries
    r3 = poly_ring("x", "y", "z")
    x, y, z = (r3.var(v) for v in ("x", "y", "z"))
    reports = [truncated_cohomology(
        make_poisson(r3, {(0, 1): a * z, (1, 2): b * x, (2, 0): c * y}),
        [0, 1, 2, 3], TruncationWindow(3, 3))
        for a, b, c in [(1, 1, 1), (1, Fraction(1, 2), Fraction(1, 6)),
                        (Fraction(2, 3), 3, Fraction(5, 7))]]
    for rep in reports[1:]:
        assert rep.degrees == reports[0].degrees


# -- closed forms at the windows and ranks the kernels are tuned for -----------


@pytest.mark.parametrize("lam", [1, Fraction(-3, 2)])
def test_so3_closed_form_at_large_windows(lam):
    # lam * so(3)*: H^0 and H^3 are spanned by the powers of the Casimir
    # x^2 + y^2 + z^2 times 1 and times the volume form, H^1 = H^2 = 0
    # (Hochschild-Serre); scaling the bracket by lam scales d by lam
    r = poly_ring("x", "y", "z")
    x, y, z = (r.var(v) for v in ("x", "y", "z"))
    l = make_poisson(r, {(0, 1): lam * z, (1, 2): lam * x, (2, 0): lam * y})
    for w in (10, 14, 18):
        rep = truncated_cohomology(l, range(4), TruncationWindow(w))
        assert [rep.dim(p) for p in range(4)] == [w // 2 + 1, 0, 0, w // 2 + 1]


def test_rank4_tangent_poincare_at_window_10():
    t = make_tangent(poly_ring("x", "y", "z", "w"))
    rep = truncated_cohomology(t, range(5), TruncationWindow(10))
    assert [rep.dim(p) for p in range(5)] == [1, 0, 0, 0, 0]
    assert all(d.stable for d in rep.degrees.values())


def test_laurent_two_torus_at_window_12():
    t = make_tangent(laurent_ring("x", "y"))
    rep = truncated_cohomology(t, range(3), TruncationWindow(12, 12))
    assert [rep.dim(p) for p in range(3)] == [1, 2, 1]
    assert all(d.stable for d in rep.degrees.values())
