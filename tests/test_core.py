import random
from fractions import Fraction

import pytest

from algebroid.core import (Algebroid, AlgebroidMorphism, Section, StructureError,
                            make_foliation, make_lie_algebra_bundle, make_log,
                            make_poisson, make_tangent, make_trivial_bundle,
                            verify_axioms)
from algebroid.rings import ChartRing, laurent_ring, poly_ring

from oracles import bivector_is_poisson

HEISENBERG = {(0, 1): {2: 1}}
# [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2: fails Jacobi with residual -2 e3
BAD_RANK3 = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}


def test_tangent_bracket_coordinates():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    u = t.basis_section(0)                      # d/dx
    v = t.basis_section(1).scale(r.var("x"))    # x d/dy
    w = t.bracket(u, v)
    assert w == t.basis_section(1)


def test_bracket_antisymmetry_on_any_section():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    u = t.section([r.var("x") ** 2, r.var("y") + 1])
    assert t.bracket(u, u).is_zero()


def test_zero_anchor_abelian_bracket_vanishes():
    r = poly_ring("x")
    a = make_trivial_bundle(r, 3)
    u = a.section([r.var("x"), r.one, r.zero])
    v = a.section([r.one, r.var("x") ** 2, r.one])
    assert a.bracket(u, v).is_zero()


def test_anchor_apply_examples():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    assert t.anchor_apply(t.basis_section(0), r.var("x") ** 2) == 2 * r.var("x")

    k = make_trivial_bundle(r, 2)
    assert k.anchor_apply(k.basis_section(0), r.var("x")).is_zero()

    rz = poly_ring("z")
    log = make_log(rz, ["z"])
    assert log.anchor_apply(log.basis_section(0), rz.var("z")) == rz.var("z")


def test_verify_tangent():
    assert make_tangent(poly_ring("x", "y")).verify().verified


def test_verify_heisenberg():
    l = make_lie_algebra_bundle(poly_ring("x"), 3, HEISENBERG)
    assert l.verify().verified


def test_jacobi_failure_witness_is_minus_two_e3():
    l = make_lie_algebra_bundle(poly_ring("x"), 3, BAD_RANK3)
    v = l.verify()
    assert not v.verified
    assert v.witness.kind == "jacobi-failure"
    assert v.witness.indices == (0, 1, 2)
    res = v.witness.residual
    assert res.coefficients[2] == -2
    assert res.coefficients[0].is_zero() and res.coefficients[1].is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(5)
    r = poly_ring("x", "y")
    t = make_tangent(r)

    def rand_elem():
        total = r.zero
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            total = total + r.monomial(exps, Fraction(rng.randint(-3, 3)))
        return total

    for _ in range(25):
        u = t.section([rand_elem(), rand_elem()])
        v = t.section([rand_elem(), rand_elem()])
        f = rand_elem()
        lhs = t.bracket(u, v.scale(f))
        rhs = t.bracket(u, v).scale(f) + v.scale(t.anchor_apply(u, f))
        assert (lhs - rhs).is_zero()


def test_make_foliation_abelian():
    r = poly_ring("x", "y")
    f = make_foliation(r, [[1, 0]])
    assert f.rank == 1
    assert f.verify().verified
    assert not f.structure


def test_make_foliation_euler_pair():
    # [x d/dx, d/dx] = -d/dx: re-expands in the generators
    r = poly_ring("x")
    f = make_foliation(r, [[r.var("x")], [1]])
    assert f.verify().verified
    assert f.structure_coefficients(0, 1)[1] == -1


def test_make_foliation_not_involutive():
    # [d/dx, x d/dy] = d/dy which is not in the span of the generators
    r = poly_ring("x", "y")
    with pytest.raises(StructureError):
        make_foliation(r, [[1, 0], [0, r.var("x")]])


def test_make_foliation_eliminates_once(monkeypatch):
    # five generators over x, y, z with two non-commuting pairs: both
    # brackets are solved from one elimination, to the structure table
    # and the diagnostic that a solve per pair gave
    from algebroid.linalg import SparseSystem
    calls = []
    eliminate = SparseSystem._eliminate

    def counted(self, *args):
        calls.append(args)
        return eliminate(self, *args)

    monkeypatch.setattr(SparseSystem, "_eliminate", counted)
    r = poly_ring("x", "y", "z")
    x, y, z = (r.var(v) for v in "xyz")
    f = make_foliation(r, [[1, 0, 0], [0, x, 0], [0, 1, 0], [0, 0, 1], [0, 0, z * z]])
    assert len(calls) == 1 and len(calls[0][0]) == 2
    assert f.structure == {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 2 * z, 0)}
    assert f.verify().verified
    # [d/dx, x d/dy] = d/dy is outside the span of d/dx, x d/dy, y d/dy,
    # d/dz and z^2 d/dz; [x d/dy, y d/dy] = x d/dy and [d/dz, z^2 d/dz]
    # re-expand, and the first pair that does not is named
    calls.clear()
    with pytest.raises(StructureError, match=r"^not involutive in given generators: "
                       r"\[g1, g2\] does not re-expand \(degree bound 6\)$"):
        make_foliation(r, [[1, 0, 0], [0, x, 0], [0, y, 0], [0, 0, 1], [0, 0, z * z]])
    assert len(calls) == 1 and len(calls[0][0]) == 3


def test_poisson_symplectic_plane():
    r = poly_ring("x", "y")
    p = make_poisson(r, {(0, 1): 1})
    assert p.verify().verified
    # anchor conventions: sharp(dx) = d/dy, sharp(dy) = -d/dx
    assert p.anchor[0][1] == 1 and p.anchor[0][0].is_zero()
    assert p.anchor[1][0] == -1 and p.anchor[1][1].is_zero()
    # constant bivector: all brackets vanish
    assert not p.structure


def test_poisson_zero_bivector():
    r = poly_ring("x", "y")
    p = make_poisson(r, {})
    assert p.verify().verified
    assert all(c.is_zero() for row in p.anchor for c in row)


def _pi_lookup(r, pi):
    def pi_entry(i, j):
        if i == j:
            return r.zero
        if (i, j) in pi:
            return r._coerce(pi[(i, j)])
        if (j, i) in pi:
            return -r._coerce(pi[(j, i)])
        return r.zero
    return pi_entry


def test_poisson_decomposable_plus_coupling_is_poisson():
    # pi12 = 1, pi23 = x has zero Jacobiator: both routes agree it passes
    r = poly_ring("x", "y", "z")
    pi = {(0, 1): r.one, (1, 2): r.var("x")}
    assert bivector_is_poisson(r, _pi_lookup(r, pi))
    assert make_poisson(r, pi).verify().verified


def test_poisson_non_jacobi_bivector_fails():
    # pi12 = y, pi23 = 1: Jacobiator of the coordinates is 1, not Poisson.
    # The basis Jacobiator of the cotangent structure vanishes here; the
    # failure shows up in the anchor-morphism identity.
    r = poly_ring("x", "y", "z")
    pi = {(0, 1): r.var("y"), (1, 2): r.one}
    assert not bivector_is_poisson(r, _pi_lookup(r, pi))
    p = make_poisson(r, pi)
    v = p.verify()
    assert not v.verified and v.witness.kind == "anchor-morphism-failure"


def test_poisson_non_jacobi_bivector_jacobi_witness():
    # pi12 = y^2, pi23 = 1: coordinate Jacobiator 2y, basis Jacobiator 2dy
    r = poly_ring("x", "y", "z")
    pi = {(0, 1): r.var("y") ** 2, (1, 2): r.one}
    assert not bivector_is_poisson(r, _pi_lookup(r, pi))
    p = make_poisson(r, pi)
    v = p.verify()
    assert not v.verified and v.witness.kind == "jacobi-failure"
    assert v.witness.residual.coefficients[1] == 2


def test_poisson_matches_schouten_oracle_randomized():
    rng = random.Random(17)
    for nvars in (2, 3):
        names = tuple("xyz"[:nvars])
        for _ in range(12):
            r = ChartRing(names)
            pi = {}
            for i in range(nvars):
                for j in range(i + 1, nvars):
                    coeffs = r.zero
                    for _ in range(rng.randint(0, 2)):
                        exps = tuple(rng.randint(0, 1) for _ in range(nvars))
                        coeffs = coeffs + r.monomial(exps, Fraction(rng.randint(-2, 2)))
                    pi[(i, j)] = coeffs

            def pi_entry(i, j, pi=pi, r=r):
                if i == j:
                    return r.zero
                if i < j:
                    return pi[(i, j)]
                return -pi[(j, i)]

            expected = bivector_is_poisson(r, pi_entry)
            if nvars == 2:
                assert expected  # every bivector in the plane is Poisson
            got = make_poisson(r, pi).verify().verified
            assert got == expected


def test_log_algebroid_charts():
    rz = poly_ring("z")
    log = make_log(rz, ["z"])
    assert log.rank == 1 and log.verify().verified

    rxy = poly_ring("x", "y")
    mixed = make_log(rxy, ["x"])
    assert mixed.verify().verified
    assert not mixed.structure  # [x d/dx, d/dy] = 0

    rl = laurent_ring("z")
    loglaurent = make_log(rl, ["z"])
    assert loglaurent.verify().verified


def test_foliation_inclusion_morphism():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    f = make_foliation(r, [[1, 0]])
    incl = AlgebroidMorphism(f, t, [t.basis_section(0)])
    assert incl.verify()


def test_morphism_rejects_non_bracket_map():
    r = poly_ring("x")
    t = make_tangent(r)
    heis = make_lie_algebra_bundle(r, 3, HEISENBERG)
    bad = AlgebroidMorphism(heis, heis, [heis.basis_section(0),
                                         heis.basis_section(1),
                                         heis.zero_section()])
    assert not bad.verify()
    assert AlgebroidMorphism.identity(heis).verify()
    assert AlgebroidMorphism.identity(t).verify()
