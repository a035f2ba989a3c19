import random
from fractions import Fraction

import pytest

from algebroid.rings import (ChartRing, RingElement, RingError, RingMap,
                             apply_derivation, apply_ring_map, laurent_ring,
                             poly_ring, ring_arith)

from oracles import is_normal_coefficient, power_by_squaring, substitute


def rand_element(ring, rng, max_degree=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = []
        for v in ring.variables:
            lo = -max_degree if v in ring.laurent else 0
            exps.append(rng.randint(lo, max_degree))
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    total = ring.zero
    for exps, c in terms.items():
        total = total + ring.monomial(exps, c)
    return total


def test_difference_of_squares():
    r = poly_ring("x")
    x = r.var("x")
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_laurent_unit_cancellation():
    r = laurent_ring("x")
    x = r.var("x")
    assert x ** -1 * x == r.one


def test_one_term_power_matches_square_and_multiply():
    r = ChartRing(("x", "y", "z"), laurent=("y", "z"))
    x, y, z = r.var("x"), r.var("y"), r.var("z")
    one_term = [x, r.monomial((2, -1, 3), Fraction(-3, 2)), r.const(7)]
    units = [y, r.monomial((0, -1, 2), Fraction(-3, 2)), r.const(Fraction(2, 7))]
    multi = [x + y, y - Fraction(1, 2) * z ** -1, x * y + 3]
    cases = ([(f, n) for f in one_term + multi for n in (0, 1, 2, 5)]
             + [(f, n) for f in units for n in (-1, -2, -5)])
    for f, n in cases:
        got = f ** n
        assert got == power_by_squaring(f, n), (f, n)
        # int when integral, else a Fraction with denominator > 1, never a float
        assert all(is_normal_coefficient(c) for c in got.terms.values()), (f, n)
    assert (r.zero ** 0, r.zero ** 3) == (r.one, r.zero)


def test_power_of_non_unit_refused():
    r = ChartRing(("x", "y"), laurent=("y",))
    for f in (r.var("x"), r.monomial((1, -2), Fraction(5, 3)), r.var("y") + 1, r.zero):
        for n in (-1, -3):
            with pytest.raises(RingError, match="element is not a unit"):
                f ** n
            with pytest.raises(RingError, match="element is not a unit"):
                power_by_squaring(f, n)


def test_rational_normalization():
    r = poly_ring("x")
    x = r.var("x")
    assert Fraction(2, 3) * x + Fraction(1, 3) * x == x


def test_negative_exponent_rejected_on_polynomial_variable():
    r = poly_ring("x")
    with pytest.raises(RingError):
        r.var("x") ** -1


def test_public_constructor_validates_exponents():
    # closed operations build their results unchecked; the public
    # constructor still rejects what they can never produce
    r = poly_ring("x", "y")
    with pytest.raises(RingError):
        RingElement(r, {(-1, 0): Fraction(1)})
    with pytest.raises(RingError):
        r.monomial((0, -2), 3)
    with pytest.raises(RingError):
        RingElement(r, {(1,): Fraction(1)})
    assert RingElement(laurent_ring("x"), {(-1,): Fraction(1)}).terms == {(-1,): 1}


def test_closed_operations_drop_zero_coefficients():
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    assert ((x + y) - x).terms == {(0, 1): 1}
    assert ((x + 1) * (x - 1) + 1).terms == {(2, 0): 1}
    assert (x * y).derive("d/dy").derive("d/dy").terms == {}
    assert (-(x - x)).terms == {}


def test_owner_mismatch_is_structural_error():
    r1, r2 = poly_ring("x"), poly_ring("x")
    with pytest.raises(RingError):
        ring_arith(r1.var("x"), r2.var("x"), "add")


def test_power_rule():
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    assert apply_derivation("d/dx", x ** 2 * y) == 2 * x * y
    assert apply_derivation("d/dy", x ** 2) == r.zero


def test_power_rule_laurent():
    r = laurent_ring("z")
    z = r.var("z")
    assert apply_derivation("d/dz", z ** -1) == -(z ** -2)


def test_ring_map_substitution():
    src = poly_ring("w")
    dst = laurent_ring("z")
    m = RingMap(src, dst, {"w": dst.var("z") ** -1})
    assert apply_ring_map(m, src.var("w") ** 2) == dst.var("z") ** -2
    assert apply_ring_map(m, src.one + src.var("w")) == dst.one + dst.var("z") ** -1


def test_ring_map_identity():
    r = poly_ring("x", "y")
    m = RingMap.identity(r)
    f = r.var("x") * r.var("y") + 3
    assert m(f) == f


def test_laurent_source_requires_unit_image():
    src = laurent_ring("z")
    dst = poly_ring("x")
    with pytest.raises(RingError):
        RingMap(src, dst, {"z": dst.var("x") + 1})


def test_unit_inverse():
    r = laurent_ring("z")
    u = r.monomial((3,), Fraction(2, 5))
    assert u * u.inverse() == r.one
    with pytest.raises(RingError):
        (r.var("z") + 1).inverse()


def test_ring_laws_randomized():
    rng = random.Random(7)
    r = ChartRing(("x", "y", "z"), laurent=("z",))
    for _ in range(60):
        a, b, c = (rand_element(r, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_leibniz_randomized():
    rng = random.Random(11)
    r = ChartRing(("x", "y"), laurent=("y",))
    for _ in range(50):
        f, g = rand_element(r, rng), rand_element(r, rng)
        for d in r.derivation_names:
            assert (f * g).derive(d) == f * g.derive(d) + g * f.derive(d)


def test_ring_map_is_homomorphism_randomized():
    rng = random.Random(13)
    src = ChartRing(("u", "v"), laurent=("u",))
    dst = laurent_ring("z", "w")
    m = RingMap(src, dst, {"u": dst.var("z") ** -1,
                           "v": dst.var("w") + dst.var("z")})
    for _ in range(40):
        f, g = rand_element(src, rng), rand_element(src, rng)
        assert m(f * g) == m(f) * m(g)
        assert m(f + g) == m(f) + m(g)


def test_rendering_is_canonical():
    r = laurent_ring("x", "y")
    f = r.var("x") ** 2 - Fraction(1, 3) * r.var("y") ** -1 + 4
    assert str(f) == "x^2 + 4 - 1/3*y^-1"
    assert str(r.zero) == "0"


def test_derivations_commute_check():
    # d1 x = y, d2 x = x do not commute: d1 d2 x = x... d2 d1 x = y
    with pytest.raises(RingError):
        ChartRing(("x", "y"), derivations={
            "d1": {"x": {(0, 1): 1}, "y": 0},
            "d2": {"x": {(1, 0): 1}, "y": 0},
        })
    # commuting custom pair is fine
    ChartRing(("x", "y"), derivations={
        "d1": {"x": 1, "y": 0},
        "d2": {"x": 0, "y": 2},
    })


def test_constants_hash_like_their_fraction():
    r = poly_ring("x", "y")
    assert r.one == 1 and 1 in {r.one} and r.one in {1}
    assert r.zero == 0 and 0 in {r.zero} and r.zero in {0}
    half = r.const(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert half in {Fraction(1, 2)} and Fraction(1, 2) in {half}
    assert {r.const(3): "c"}[3] == "c"
    x = r.var("x")
    assert x in {x + 0} and x not in {1}


def test_ring_map_power_table_matches_substitution():
    # the table path of RingMap against repeated squaring of the images:
    # non-monomial images, Laurent inverses with non-unit coefficients, and
    # monomials mixing negative and positive exponents, asked in an order
    # that fills each table from both ends
    rng = random.Random(17)
    dst = ChartRing(("z", "w", "t"), laurent=("z", "w"))
    z, w, t = (dst.var(v) for v in dst.variables)
    src = ChartRing(("u", "v", "s"), laurent=("u", "v"))
    maps = [
        RingMap(src, dst, {"u": z ** -1, "v": dst.monomial((2, -1, 0), Fraction(-3, 2)),
                           "s": t + z * w - Fraction(1, 3)}),
        RingMap(src, dst, {"u": dst.monomial((-1, 3, 0), 5), "v": w,
                           "s": (z + w ** -1) * (t - 2)}),
        RingMap(src, src, {"u": src.var("u") ** 2, "v": src.var("v") ** -1,
                           "s": src.var("s") + src.var("u") * src.var("v")}),
    ]
    for m in maps:
        for _ in range(40):
            f = rand_element(src, rng, max_degree=4, nterms=5)
            assert m(f).terms == substitute(m, f).terms
        for exps in [(-3, 2, 1), (4, -4, 0), (0, 0, 3), (0, 0, 0), (-1, -1, 2)]:
            mono = src.monomial(exps)
            assert m.monomial_terms(exps) == substitute(m, mono).terms
    with pytest.raises(RingError):
        maps[0](dst.var("z"))
