"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Every assertion is exact; windows are pinned where the
criterion states them."""

import contextlib
import io
import os
import pathlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from algebroid.cech import (LocalConnectionBunch, CechPair, Cover,
                            atiyah_cocycle, coboundary_test,
                            line_bundle_cech_dims, make_p1_cover,
                            verify_lambda_module, zero_pair)
from algebroid.cli import run as cli_run
from algebroid.connections import Connection, curvature, is_flat, \
    obstruction_trace_check
from algebroid.core import (Algebroid, make_lie_algebra_bundle, make_log,
                            make_poisson, make_tangent, make_trivial_bundle)
from algebroid.forms import (LForm, TruncationWindow, d_L, exactness_solve,
                             wedge)
from algebroid.matched import (DoubleComplexSlice, MatchedPair,
                               total_cohomology_compare, verify_matched)
from algebroid.pbw import (RelationSystem, build_relations, confluence_check,
                           cocycle_from_extension, extension_from_cocycle,
                           gr_symbol, normal_form)
from algebroid.rings import ChartRing, laurent_ring, poly_ring

from golden_cases import CASES
from oracles import bivector_is_poisson
from test_cli import invoke

HEISENBERG = {(0, 1): {2: 1}}
BAD_RANK3 = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}
SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}


def report(n, label, ok):
    print("criterion %2d (%s): %s" % (n, label, "PASS" if ok else "FAIL"))
    assert ok


def catalog_algebroids():
    yield "tangent-line", make_tangent(poly_ring("x"))
    yield "tangent-plane", make_tangent(poly_ring("x", "y"))
    yield "tangent-torus", make_tangent(laurent_ring("x", "y"))
    yield "heisenberg", make_lie_algebra_bundle(poly_ring("x"), 3, HEISENBERG)
    yield "log-plane", make_log(poly_ring("x", "y"), ["x"])
    yield "poisson-symplectic", make_poisson(poly_ring("x", "y"), {(0, 1): 1})
    r = poly_ring("x", "y")
    yield "poisson-linear", make_poisson(r, {(0, 1): r.var("x")})


def rand_form(l, rng, degree, coeff_degree=4):
    r = l.base
    coeffs = {}
    for idx in combinations(range(l.rank), degree):
        total = r.zero
        for _ in range(rng.randint(0, 2)):
            exps = []
            for v in r.variables:
                lo = -coeff_degree if v in r.laurent else 0
                exps.append(rng.randint(lo, coeff_degree))
            total = total + r.monomial(tuple(exps), Fraction(rng.randint(-4, 4)))
        if not total.is_zero():
            coeffs[idx] = total
    return LForm(l, degree, coeffs)


def test_criterion_1_axiom_suite():
    ok = True
    ok &= make_tangent(poly_ring("x", "y")).verify().verified
    ok &= make_lie_algebra_bundle(poly_ring("x"), 3, HEISENBERG).verify().verified
    ok &= make_log(poly_ring("x", "y"), ["x"]).verify().verified
    ok &= make_poisson(poly_ring("x", "y"), {(0, 1): 1}).verify().verified
    bad = make_lie_algebra_bundle(poly_ring("x"), 3, BAD_RANK3).verify()
    ok &= (not bad.verified and bad.witness.kind == "jacobi-failure"
           and bad.witness.indices == (0, 1, 2)
           and bad.witness.residual.coefficients[2] == -2
           and bad.witness.residual.coefficients[0].is_zero()
           and bad.witness.residual.coefficients[1].is_zero())
    r3 = poly_ring("x", "y", "z")
    pi = {(0, 1): r3.var("y") ** 2, (1, 2): r3.one}

    def pi_entry(i, j):
        if i == j:
            return r3.zero
        if (i, j) in pi:
            return pi[(i, j)]
        if (j, i) in pi:
            return -pi[(j, i)]
        return r3.zero

    ok &= not bivector_is_poisson(r3, pi_entry)
    ok &= not make_poisson(r3, pi).verify().verified
    report(1, "axiom suite", ok)


def test_criterion_2_differential_suite():
    rng = random.Random(202)
    ok = True
    for name, l in catalog_algebroids():
        count = 0
        while count < 100:
            degree = count % 4
            if degree > l.rank:
                degree = degree % (l.rank + 1)
            theta = rand_form(l, rng, degree)
            ok &= d_L(d_L(theta)).is_zero()
            count += 1
    pairs = 0
    for name, l in catalog_algebroids():
        for _ in range(8):
            p = rng.randint(0, min(2, l.rank))
            q = rng.randint(0, min(2, l.rank))
            a = rand_form(l, rng, p, coeff_degree=2)
            b = rand_form(l, rng, q, coeff_degree=2)
            lhs = d_L(wedge(a, b))
            rhs = wedge(d_L(a), b) + (wedge(a, d_L(b)) if p % 2 == 0
                                      else -wedge(a, d_L(b)))
            ok &= (lhs - rhs).is_zero()
            pairs += 1
    ok &= pairs >= 50
    report(2, "differential suite", ok)


def test_criterion_3_pbw_classification():
    rng = random.Random(303)
    ok = True

    # designed instance 1: monopole is confluent
    r = poly_ring("x", "y")
    t = make_tangent(r)
    monopole = build_relations(t, LForm(t, 2, {(0, 1): r.const(5)}))
    ok &= confluence_check(monopole) is None

    # designed instance 2: unclosed twist, ambiguity with unit difference
    r3 = poly_ring("x", "y", "z")
    t3 = make_tangent(r3)
    s = RelationSystem(t3, LForm(t3, 2, {(1, 2): r3.var("x")}))
    rep = confluence_check(s)
    ok &= rep is not None and rep.difference.terms == {(): -r3.one}

    # designed instance 3: broken Jacobi, ambiguity matching the Jacobiator
    bad = make_lie_algebra_bundle(poly_ring("x"), 3, BAD_RANK3)
    rep = confluence_check(RelationSystem(bad))
    ok &= rep is not None and rep.difference.terms == {(2,): bad.base.const(-2)}

    # randomized family, both implications
    known_good = [{}, HEISENBERG, SL2, {(0, 1): {2: 1}, (0, 2): {1: -1}}]
    rbase = poly_ring("x")
    cases = confluent_seen = broken_seen = 0
    while cases < 20:
        if rng.random() < 0.5:
            scale = rng.choice([1, 2, -1])
            pick = rng.choice(known_good)
            constants = {ij: {k: scale * v for k, v in comp.items()}
                         for ij, comp in pick.items()}
        else:
            constants = {}
            for i, j in combinations(range(3), 2):
                comp = {}
                for k in range(3):
                    if rng.random() < 0.4:
                        comp[k] = rng.randint(-2, 2)
                constants[(i, j)] = comp
        l = make_lie_algebra_bundle(rbase, 3, constants)
        q = LForm(l, 2, {idx: rbase.const(rng.randint(-2, 2))
                         for idx in combinations(range(3), 2)})
        jaco = l.verify().verified
        closed = d_L(q).is_zero() if jaco else None
        conf = confluence_check(RelationSystem(l, q)) is None
        ok &= (conf == (jaco and closed)) if jaco else (not conf)
        confluent_seen += conf
        broken_seen += not conf
        cases += 1
    ok &= confluent_seen > 0 and broken_seen > 0
    report(3, "pbw classification", ok)


def test_criterion_4_monopole_relations():
    ok = True
    r = poly_ring("x", "y", "z")
    t = make_tangent(r)
    qvals = {(0, 1): r.const(3), (0, 2): r.var("x"), (1, 2): r.const(-2)}
    s = build_relations(t, LForm(t, 2, qvals))
    names = ("x", "y", "z")
    for i, vname in enumerate(names):
        for j in range(3):
            xi = r.var(vname)
            comm = normal_form([xi, j], s) - normal_form([j, xi], s)
            want = s.scalar(-1 if i == j else 0)
            ok &= (comm - want).is_zero()
    for i, j in combinations(range(3), 2):
        comm = normal_form([i, j], s) - normal_form([j, i], s)
        ok &= comm.terms == {(): qvals[(i, j)]}
    report(4, "monopole relations", ok)


def test_criterion_5_round_trips():
    ok = True
    r = poly_ring("x", "y")
    t = make_tangent(r)
    q = LForm(t, 2, {(0, 1): r.var("x") ** 2 + r.var("y")})
    ext = extension_from_cocycle(t, q)
    ok &= ext.total.verify().verified
    ok &= cocycle_from_extension(ext.total, base=t) == q

    psi = LForm(t, 1, {(0,): r.var("y") ** 2, (1,): r.var("x") * r.var("y")})
    q1 = cocycle_from_extension(ext.total, base=t)
    q2 = cocycle_from_extension(ext.total, base=t, splitting=psi)
    ok &= (q2 - q1) == d_L(psi)

    # gr symbols: ascending words of length d vs Sym monomial counts
    for n in (2, 3):
        for d in range(5):
            words = set()

            def grow(word, start):
                if len(word) == d:
                    words.add(word)
                    return
                for k in range(start, n):
                    grow(word + (k,), k)

            grow((), 0)
            ok &= len(words) == comb(n + d - 1, d)
    # multiplicativity of the symbol on a twisted system
    s = build_relations(t, LForm(t, 2, {(0, 1): r.const(2)}))
    rng = random.Random(505)
    for _ in range(10):
        def rand_el():
            items = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.75:
                    items.append(rng.randrange(2))
                else:
                    items.append(r.monomial((rng.randint(0, 1), 0),
                                            rng.randint(1, 3)))
            return normal_form(items, s)
        a, b = rand_el(), rand_el()
        ok &= gr_symbol(a * b) == gr_symbol(a) * gr_symbol(b)
    report(5, "correspondence round trips", ok)


def test_criterion_6_lambda_module_single_chart():
    rng = random.Random(606)
    r = poly_ring("x", "y")
    t = make_tangent(r)
    cover = Cover([(r, t)], {})
    q = LForm(t, 2, {(0, 1): r.var("x") + 2})
    p = r.monomial((2, 0), Fraction(1, 2)) + 2 * r.var("x")
    base_mats = [[[r.zero, r.zero], [r.zero, r.zero]],
                 [[p, r.zero], [r.zero, p]]]
    pair = CechPair(cover, {}, {0: q})
    ok = True
    matched_cases = broken_cases = 0
    for trial in range(11):
        mats = [[[x for x in row] for row in m] for m in base_mats]
        if trial > 0:
            i = rng.randrange(2)
            s_, t_ = rng.randrange(2), rng.randrange(2)
            mats[i][s_][t_] = mats[i][s_][t_] + r.monomial(
                (rng.randint(0, 1), rng.randint(0, 1)), rng.randint(1, 3))
        conn = Connection(t, 2, mats)
        verdict = bool(verify_lambda_module(
            cover, pair, LocalConnectionBunch(cover, 2, [conn])))
        fmat = curvature(conn).entry(0, 1)
        qval = q.component((0, 1))
        matches = all(fmat[a][b] == (qval if a == b else r.zero)
                      for a in range(2) for b in range(2))
        ok &= verdict == matches
        matched_cases += matches
        broken_cases += not matches
    ok &= matched_cases > 0 and broken_cases > 0
    report(6, "lambda module equivalence", ok)


def test_criterion_7_obstruction():
    ok = True
    window = TruncationWindow(8, 12)
    torus = make_tangent(laurent_ring("x", "y"))
    q = LForm(torus, 2, {(0, 1): torus.base.monomial((-1, -1), 1)})
    rep = obstruction_trace_check(Connection.trivial(torus, 2), q, window)
    ok &= rep.status == "obstructed" and rep.detail.certified

    code, _ = invoke(["exact", "torus.adf", "qres", "--window", "8,12"])
    ok &= code == 1

    plane = make_tangent(poly_ring("x", "y"))
    qa = LForm(plane, 2, {(0, 1): plane.base.one})
    rep = obstruction_trace_check(Connection.trivial(plane, 1), qa, window)
    ok &= rep.status == "consistent"
    ok &= (d_L(rep.primitive) - qa).is_zero()
    report(7, "trace obstruction", ok)


def test_criterion_8_cech_atiyah():
    from oracles import p1_line_bundle_dims_by_counting
    ok = True
    window = TruncationWindow(8, 12)
    for k in range(-3, 5):
        cover = make_p1_cover("tangent", bundle=k)
        got = line_bundle_cech_dims(cover, window)[:2]
        ok &= got == p1_line_bundle_dims_by_counting(k, 12)
        if k == -2:
            ok &= got[1] == 1
        if k >= -1:
            ok &= got[1] == 0
    for k in range(-3, 4):
        cover = make_p1_cover("tangent", bundle=k)
        pair = atiyah_cocycle(cover)
        cmp = coboundary_test(cover, zero_pair(cover), pair,
                              TruncationWindow(6, 8))
        ok &= (cmp.status == "equivalent") == (k == 0)
        if k != 0:
            ok &= cmp.certified and cmp.residue_value == k
    for k in (1, 2, 3):
        cover = make_p1_cover("log", bundle=k)
        pair = atiyah_cocycle(cover)
        cmp = coboundary_test(cover, pair, zero_pair(cover),
                              TruncationWindow(6, 8))
        ok &= cmp.status == "equivalent"
        a0 = -cmp.eta[0].component((0,))
        ok &= a0 == k
        conn = Connection(cover.chart_algebroid(0), 1, [[[a0]]])
        ok &= is_flat(conn).flat
    report(8, "cech and atiyah on the line", ok)


def _sheared_pair():
    r = poly_ring("x", "y", "z", "w")
    l1 = Algebroid(r, 2, [[1, 0, 0, 0], [0, 1, 0, 0]], {},
                   basis_names=("e1", "e2"))
    l2 = Algebroid(r, 2, [[r.var("x"), 0, 1, 0], [0, 0, 0, 1]], {},
                   basis_names=("f1", "f2"))
    act12 = Connection(l1, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    act21 = Connection(l2, 2, [[[-1, 0], [0, 0]], [[0, 0], [0, 0]]])
    return MatchedPair(l1, l2, act12, act21)


def _kunneth_pair():
    c = ChartRing(())
    h = make_lie_algebra_bundle(c, 3, HEISENBERG)
    a = make_trivial_bundle(c, 1)
    z12 = Connection(h, 1, [[[0]]] * 3)
    z21 = Connection(a, 3, [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
    return MatchedPair(h, a, z12, z21)


def test_criterion_9_matched_pairs():
    ok = True
    good = _sheared_pair()
    ok &= verify_matched(good).verified
    ok &= DoubleComplexSlice(good, 3, TruncationWindow(2, 2)) \
        .commutation_check() is None
    bad21 = Connection(good.l2, 2, [[[-1, 0], [0, 1]], [[0, 0], [0, 0]]])
    bad = MatchedPair(good.l1, good.l2, good.action12, bad21)
    ok &= not verify_matched(bad).verified
    ok &= DoubleComplexSlice(bad, 3, TruncationWindow(2, 2)) \
        .commutation_check() is not None

    for pair, window in ((good, TruncationWindow(2, 2)),
                         (_kunneth_pair(), TruncationWindow(2, 2))):
        rep = total_cohomology_compare(pair, [0, 1, 2], window)
        ok &= rep.agree
        from algebroid.matched import twilled_sum
        from algebroid.forms import truncated_cohomology
        stable = truncated_cohomology(twilled_sum(pair), [0, 1, 2], window)
        ok &= all(stable.degrees[p].stable for p in (0, 1, 2))
    report(9, "matched pairs", ok)


def test_criterion_10_cli_golden():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    ok = True
    checked = 0
    for name, argv, expected in CASES:
        code, text = invoke(argv)
        ok &= code == expected
        ok &= text == (golden_dir / (name + ".txt")).read_text()
        checked += 1
    ok &= checked >= 12
    report(10, "cli golden files", ok)
