"""Integer-first coefficients against a Fraction-only reference.

Every coefficient of a RingElement is an int when it is integral and a
Fraction otherwise.  These tests compare ring arithmetic, derivations,
ring maps, section brackets and covariant derivatives on random elements
that mix integral and non-integral coefficients with the `frac_*`
reference in oracles, and check that no result holds a float, a zero or
an integral Fraction.
"""

import random
from fractions import Fraction

import pytest

from algebroid.connections import Connection
from algebroid.core import Algebroid, make_log, make_poisson
from algebroid.rings import ChartRing, RingElement, RingError, RingMap

from oracles import (fraction_terms, frac_add, frac_apply_basis, frac_bracket,
                     frac_derive, frac_inverse, frac_map, frac_mul, frac_neg,
                     frac_pow, frac_sub, is_normal_coefficient)


def rand_coefficient(rng):
    """An int, an integral Fraction or a non-integral Fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(2 * rng.randint(-3, 3), 2)
    return Fraction(rng.randint(-6, 6), rng.randint(2, 5))


def rand_exponents(ring, rng, degree=2):
    return tuple(rng.randint(-degree if v in ring.laurent else 0, degree)
                 for v in ring.variables)


def rand_element(ring, rng, nterms=4):
    terms = {rand_exponents(ring, rng): rand_coefficient(rng)
             for _ in range(rng.randint(0, nterms))}
    return RingElement(ring, terms)


def rand_unit(ring, rng):
    exps = tuple(rng.randint(-2, 2) if v in ring.laurent else 0
                 for v in ring.variables)
    c = rand_coefficient(rng) or Fraction(3, 7)
    return ring.monomial(exps, c)


def assert_normal(f):
    assert all(is_normal_coefficient(c) for c in f.terms.values()), f.terms


def rings():
    euler = ChartRing(("x", "y"), derivations={
        "E": {"x": {(1, 0): Fraction(1, 2)}, "y": {}},
        "F": {"x": {}, "y": {(0, 1): 3}}})
    return [ChartRing(("x", "y")), ChartRing(("x", "y", "z"), laurent=("y", "z")),
            euler]


def test_constructors_give_int_exactly_when_integral():
    r = ChartRing(("x", "y"), laurent=("y",))
    x = r.var("x")
    for c in (3, -1, True, Fraction(4, 2), Fraction(-6, 3), Fraction(1, 2),
              Fraction(-7, 3)):
        for f, exps in ((r.const(c), (0, 0)), (r.monomial((1, -1), c), (1, -1)),
                        (r.one * c, (0, 0)), (c * x, (1, 0)),
                        (RingElement(r, {(2, 0): c}), (2, 0))):
            assert f.terms == {exps: c}
            assert_normal(f)
    for c in (0, Fraction(0), False):
        assert r.const(c).terms == {} and r.monomial((1, 0), c).terms == {}
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(RingError, match="not an exact rational scalar"):
            r.const(bad)
        with pytest.raises(RingError, match="not an exact rational scalar"):
            RingElement(r, {(0, 0): bad})
        with pytest.raises(RingError, match="not an exact rational scalar"):
            r.var("x") * bad


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(13)
    for ring in rings():
        n = len(ring.variables)
        for _ in range(60):
            a, b = rand_element(ring, rng), rand_element(ring, rng)
            fa, fb = fraction_terms(a), fraction_terms(b)
            for got, ref in ((a, fa), (a + b, frac_add(fa, fb)),
                             (a - b, frac_sub(fa, fb)), (-a, frac_neg(fa)),
                             (a * b, frac_mul(fa, fb))):
                assert got.terms == ref
                assert_normal(got)
            for k in range(4):
                got = a ** k
                assert got.terms == frac_pow(fa, k, n)
                assert_normal(got)
            for name in ring.derivation_names:
                got = a.derive(name)
                assert got.terms == frac_derive(ring, name, fa)
                assert_normal(got)
            u = rand_unit(ring, rng)
            fu = fraction_terms(u)
            assert u.inverse().terms == frac_inverse(fu)
            assert_normal(u.inverse())
            for k in (-3, -2, -1, 0, 1, 2, 3):
                got = u ** k
                assert got.terms == frac_pow(fu, k, n)
                assert_normal(got)


def test_cancelling_fractions_leave_int_coefficients():
    r = ChartRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    half = Fraction(1, 2)
    for f in ((half * x + half) * 2, (x - half * y) ** 2, half * x + half * x,
              (half * x).derive("d/dx") * 4, RingMap(r, r, {"x": half * x, "y": y})(x * 2)):
        assert_normal(f)


def test_ring_maps_match_fraction_reference():
    rng = random.Random(17)
    source = ChartRing(("u", "v"), laurent=("v",))
    target = ChartRing(("x", "y", "z"), laurent=("y", "z"))
    for _ in range(30):
        rmap = RingMap(source, target, {"u": rand_element(target, rng, 3),
                                        "v": rand_unit(target, rng)})
        for _ in range(4):
            f = rand_element(source, rng)
            got = rmap(f)
            assert got.terms == frac_map(rmap, fraction_terms(f))
            assert_normal(got)


def rand_algebroid(ring, rng, rank):
    nder = len(ring.derivation_names)
    anchor = [[rand_element(ring, rng, 2) for _ in range(nder)] for _ in range(rank)]
    structure = {(i, j): [rand_element(ring, rng, 2) for _ in range(rank)]
                 for i in range(rank) for j in range(i + 1, rank)}
    return Algebroid(ring, rank, anchor, structure)


def algebroids(rng):
    r3 = ChartRing(("x", "y", "z"))
    x, y, z = (r3.var(v) for v in r3.variables)
    lam = Fraction(3, 2)
    so3 = make_poisson(r3, {(0, 1): lam * z, (1, 2): lam * x + Fraction(1, 3),
                            (2, 0): lam * y})
    laurent = ChartRing(("z", "w"), laurent=("z",))
    return [so3, make_log(laurent, ["z"]), rand_algebroid(laurent, rng, 2),
            rand_algebroid(rings()[2], rng, 3)]


def test_section_brackets_match_fraction_reference():
    rng = random.Random(19)
    for l in algebroids(rng):
        for _ in range(8):
            u = [rand_element(l.base, rng, 3) for _ in range(l.rank)]
            v = [rand_element(l.base, rng, 3) for _ in range(l.rank)]
            got = l.bracket(l.section(u), l.section(v))
            ref = frac_bracket(l, [fraction_terms(f) for f in u],
                               [fraction_terms(f) for f in v])
            assert [f.terms for f in got.coefficients] == ref
            for f in got.coefficients:
                assert_normal(f)


def test_connection_apply_basis_matches_fraction_reference():
    rng = random.Random(23)
    for l in algebroids(rng):
        for rank in (1, 2):
            matrices = [[[rand_element(l.base, rng, 2) for _ in range(rank)]
                         for _ in range(rank)] for _ in range(l.rank)]
            c = Connection(l, rank, matrices)
            for i in range(l.rank):
                vector = [rand_element(l.base, rng, 3) for _ in range(rank)]
                got = c.apply_basis(i, vector)
                assert [f.terms for f in got] == frac_apply_basis(
                    c, i, [fraction_terms(f) for f in vector])
                for f in got:
                    assert_normal(f)
