"""Property tests for derivations and anchors on constants: `derive`,
`anchor_apply` and `apply_vector` return zero on a constant f without
building a(u), and agree with `oracles.anchor_vector_apply`, which builds
a(u) and applies it derivation by derivation, on every f."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from algebroid.core import Algebroid, Section, StructureError  # noqa: E402
from algebroid.rings import (ChartRing, RingElement, RingError,  # noqa: E402
                             laurent_ring, poly_ring)

from oracles import anchor_vector_apply, frac_derive, fraction_terms  # noqa: E402


def frame_ring():
    """A Laurent variable z with the declared derivation z*d/dz, as the
    Cech frames have, beside a polynomial variable w with d/dw."""
    return ChartRing(("z", "w"), laurent=("z",),
                     derivations={"z*d/dz": {"z": {(1, 0): 1}}, "d/dw": {"w": 1}})


RINGS = [lambda: poly_ring("x", "y"), lambda: laurent_ring("x", "y"), frame_ring]

coefficients = st.integers(-3, 3).filter(bool) | st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 4))


@st.composite
def nonconstant(draw, ring):
    """A sum of one to three monomials, none of them constant."""
    lo = [-2 if v in ring.laurent else 0 for v in ring.variables]
    exponents = st.tuples(*(st.integers(a, 2) for a in lo)).filter(any)
    terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
    return RingElement(ring, terms)


@st.composite
def element(draw, ring, kind=None):
    """0, a nonzero constant, a non-constant element with no constant
    term, or a nonzero constant plus non-constant terms."""
    kind = kind or draw(st.sampled_from(("zero", "constant", "nonconstant", "mixed")))
    if kind == "zero":
        return ring.zero
    if kind == "constant":
        return ring.const(draw(coefficients))
    part = draw(nonconstant(ring))
    return part if kind == "nonconstant" else part + draw(coefficients)


@st.composite
def setting(draw):
    """(ring, a rank-2 algebroid over it with any anchor, a section, f)."""
    ring = draw(st.sampled_from(RINGS))()
    nder = len(ring.derivation_names)
    anchor = [[draw(element(ring)) for _ in range(nder)] for _ in range(2)]
    alg = Algebroid(ring, 2, anchor, {})
    section = alg.section([draw(element(ring)) for _ in range(2)])
    return ring, alg, section, draw(element(ring))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(setting())
def test_anchor_apply_and_derive_match_the_vector_oracle(case):
    ring, alg, u, f = case
    want = anchor_vector_apply(alg, u, f)
    assert alg.anchor_apply(u, f) == want
    assert ring.apply_vector(alg.anchor_derivation(u), f) == want
    for i in range(alg.rank):
        basis = alg.basis_section(i)
        assert ring.apply_vector(alg.anchor[i], f) == anchor_vector_apply(alg, basis, f)
    for name in ring.derivation_names:
        assert ring.derive(name, f) == RingElement(
            ring, frac_derive(ring, name, fraction_terms(f)))


@pytest.mark.parametrize("make", RINGS)
def test_constants_derive_to_the_rings_zero(make):
    ring = make()
    alg = Algebroid(ring, 1, [[ring.one] * len(ring.derivation_names)], {})
    for f in (ring.zero, ring.one, ring.const(Fraction(-2, 3))):
        assert alg.anchor_apply(alg.basis_section(0), f) is ring.zero
        for name in ring.derivation_names:
            assert ring.derive(name, f) is ring.zero
    # a constant term alone does not make an element constant
    v = ring.var(ring.variables[0])
    assert ring.derive(ring.derivation_names[0], v + 1) == \
        ring.derive(ring.derivation_names[0], v) != 0


def test_misuse_still_raises_on_constants():
    ring, other = poly_ring("x"), poly_ring("x")
    alg = Algebroid(ring, 1, [[1]], {})
    stranger = Algebroid(other, 1, [[1]], {})
    with pytest.raises(RingError, match="unknown derivation"):
        ring.derive("d/dq", ring.one)
    with pytest.raises(RingError, match="different ring"):
        ring.derive("d/dx", other.one)
    with pytest.raises(RingError, match="different ring"):
        ring.apply_vector(alg.anchor[0], other.one)
    with pytest.raises(RingError, match="does not live on this chart"):
        alg.anchor_apply(alg.basis_section(0), other.one)
    with pytest.raises(StructureError, match="different algebroid"):
        alg.anchor_apply(stranger.basis_section(0), ring.one)


def test_basis_section_is_one_shared_section():
    ring = poly_ring("x", "y")
    alg = Algebroid(ring, 3, [[1, 0], [0, 1], [0, 0]], {})
    for i in range(3):
        e = alg.basis_section(i)
        assert e is alg.basis_section(i)
        assert e.coefficients == tuple(ring.one if k == i else ring.zero
                                       for k in range(3))
        assert type(e.coefficients) is tuple
    assert alg.basis_section(-1) is alg.basis_section(2)
    with pytest.raises(IndexError):
        alg.basis_section(3)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(setting(), st.data())
def test_trusted_sections_equal_coerced_sections(case, data):
    """The sections that `+`, `-`, negation, `scale` and `bracket` build
    without coercing their coefficients equal the ones built through
    `Section`, which coerces each coefficient into the base ring."""
    ring, anchored, _, f = case
    structure = {(0, 1): [data.draw(element(ring)) for _ in range(2)]}
    alg = Algebroid(ring, 2, anchored.anchor, structure)
    u, v = (alg.section([data.draw(element(ring)) for _ in range(2)]) for _ in range(2))
    c = data.draw(coefficients)
    built = [(u + v, [a + b for a, b in zip(u.coefficients, v.coefficients)]),
             (u - v, [a - b for a, b in zip(u.coefficients, v.coefficients)]),
             (-u, [-a for a in u.coefficients]),
             (u.scale(f), [f * a for a in u.coefficients]),
             (u.scale(c), [c * a for a in u.coefficients])]
    bracket = alg.bracket(u, v)
    built.append((bracket, list(bracket.coefficients)))
    for trusted, coeffs in built:
        assert trusted == Section(alg, coeffs)
        assert type(trusted.coefficients) is tuple
        assert all(type(x) is RingElement and x.ring is ring for x in trusted.coefficients)
