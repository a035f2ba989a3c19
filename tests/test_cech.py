import pathlib
import random
from fractions import Fraction

import pytest

from algebroid import cech, forms
from algebroid.cech import (CechPair, Cover, GluingReport, LocalConnectionBunch,
                            Overlap, atiyah_cocycle,
                            coboundary_test, glue_sridharan,
                            line_bundle_cech_dims, make_p1_cover,
                            push_algebroid, verify_cocycle,
                            verify_lambda_module, zero_pair)
from algebroid.connections import Connection, curvature, is_flat
from algebroid.core import Section, StructureError, make_tangent
from algebroid.forms import LForm, TruncationWindow, d_L, pullback
from algebroid.linalg import SparseSystem
from algebroid.pbw import normal_form
from algebroid.rings import RingMap, laurent_ring, poly_ring

from algebroid.parser import parse
from oracles import (SLACK, coboundary_system, glue_relation_failures,
                     integrate_univariate, lambda_overlap_failures, line_bundle_columns,
                     line_bundle_dims_by_overlaps, p1_line_bundle_dims_by_counting)


def test_p1_cover_tangent_transition_agrees():
    cover = make_p1_cover("tangent")
    cover.verify()
    pa, pb = cover.pushed_pair(0, 1)
    # d/dw pushes to -z^2 d/dz
    assert pb.anchor[0][0] == -(cover.overlaps[(0, 1)].ring.var("z") ** 2)


def test_p1_cover_log_global_euler_field():
    cover = make_p1_cover("log")
    cover.verify()
    ov = cover.overlaps[(0, 1)]
    assert ov.transition[0][0] == -1


def test_chain_rule_violation_caught():
    rz = poly_ring("z")
    overlap = laurent_ring("z")
    m = RingMap(rz, overlap, {"z": overlap.var("z") ** -1})
    with pytest.raises(StructureError):
        push_algebroid(make_tangent(rz), m, [[overlap.one]])


def test_verify_cocycle_zero_pair_and_degenerate_notes():
    cover = make_p1_cover("tangent")
    rep = verify_cocycle(cover, zero_pair(cover))
    assert rep.verified
    assert any("no 2-forms" in d for d in rep.degenerate)


def test_verify_cocycle_k_dz_over_z():
    cover = make_p1_cover("tangent", bundle=3)
    pair = atiyah_cocycle(cover)
    frame = cover.frame_algebroid(0, 1)
    z = frame.base.var("z")
    assert pair.phi[(0, 1)].coeffs == {(0,): 3 * z ** -1}
    assert verify_cocycle(cover, pair).verified


def test_atiyah_log_frame_constant():
    cover = make_p1_cover("log", bundle=2)
    pair = atiyah_cocycle(cover)
    frame = cover.frame_algebroid(0, 1)
    assert pair.phi[(0, 1)].coeffs == {(0,): frame.base.const(2)}


def test_atiyah_zero_twist_trivial():
    cover = make_p1_cover("tangent", bundle=0)
    pair = atiyah_cocycle(cover)
    assert pair.phi[(0, 1)].is_zero()


def test_atiyah_class_nonzero_iff_twist():
    for k in range(-3, 4):
        cover = make_p1_cover("tangent", bundle=k)
        pair = atiyah_cocycle(cover)
        cmp = coboundary_test(cover, zero_pair(cover), pair,
                              TruncationWindow(6, 8))
        if k == 0:
            assert cmp.status == "equivalent"
        else:
            assert cmp.status == "inequivalent"      # residue certificate
            assert cmp.residue_value == k


def test_coboundary_recovers_constructed_eta():
    cover = make_p1_cover("tangent")
    rz = cover.chart_ring(0)
    alg0 = cover.chart_algebroid(0)
    eta0 = LForm(alg0, 1, {(0,): rz.var("z") ** 2 + 1})
    eta = {0: eta0, 1: LForm(cover.chart_algebroid(1), 1, {})}
    # build p2 = p1 + delta(eta) with p1 = 0
    frame = cover.frame_algebroid(0, 1)
    ov = cover.overlaps[(0, 1)]
    from algebroid.cech import push_form
    pa, pb = cover.pushed_pair(0, 1)
    frame_in_b = [Section(pb, [row[j] for row in ov.transition_inverse])
                  for j in range(frame.rank)]
    phi = push_form(eta[0], ov.map_a, pa) - pullback(
        push_form(eta[1], ov.map_b, pb), frame, frame_in_b)
    p2 = CechPair(cover, {(0, 1): phi}, {})
    cmp = coboundary_test(cover, zero_pair(cover), p2, TruncationWindow(6, 8))
    assert cmp.status == "equivalent"
    # the solved eta witnesses the same coboundary (verified internally)


def test_log_pullback_equivalent_to_zero_with_connection():
    for k in (1, 2, 3):
        cover = make_p1_cover("log", bundle=k)
        pair = atiyah_cocycle(cover)
        cmp = coboundary_test(cover, pair, zero_pair(cover),
                              TruncationWindow(6, 8))
        assert cmp.status == "equivalent"
        # transporting the trivial flat module along eta gives d - eta,
        # whose chart-0 operator is d + k dz/z in the log frame
        a0 = -cmp.eta[0].component((0,))
        assert a0 == k
        conn = Connection(cover.chart_algebroid(0), 1, [[[a0]]])
        assert is_flat(conn).flat


def test_line_bundle_is_module_over_its_own_atiyah_pair():
    for k in (-2, 1, 3):
        cover = make_p1_cover("tangent", bundle=k)
        pair = atiyah_cocycle(cover)
        bunch = LocalConnectionBunch(cover, 1, [
            Connection(cover.chart_algebroid(0), 1, [[[0]]]),
            Connection(cover.chart_algebroid(1), 1, [[[0]]])])
        assert verify_lambda_module(cover, pair, bunch).verified


def test_lambda_module_trivial_flat():
    cover = make_p1_cover("tangent", bundle=0)
    bunch = LocalConnectionBunch(cover, 1, [
        Connection(cover.chart_algebroid(0), 1, [[[0]]]),
        Connection(cover.chart_algebroid(1), 1, [[[0]]])])
    assert verify_lambda_module(cover, zero_pair(cover), bunch).verified


def test_lambda_module_log_connection_example():
    k = 3
    cover = make_p1_cover("log", bundle=k)
    c0 = Connection(cover.chart_algebroid(0), 1, [[[k]]])
    c1 = Connection(cover.chart_algebroid(1), 1, [[[-2 * k]]])
    rep = verify_lambda_module(cover, zero_pair(cover),
                               LocalConnectionBunch(cover, 1, [c0, c1]))
    assert rep.verified
    assert is_flat(c0).flat and is_flat(c1).flat


def test_lambda_module_perturbation_witnessed():
    k = 2
    cover = make_p1_cover("log", bundle=k)
    c0 = Connection(cover.chart_algebroid(0), 1, [[[k + 1]]])   # broken
    c1 = Connection(cover.chart_algebroid(1), 1, [[[-2 * k]]])
    rep = verify_lambda_module(cover, zero_pair(cover),
                               LocalConnectionBunch(cover, 1, [c0, c1]))
    assert not rep.verified
    assert any("overlap (0,1)" in f for f in rep.failures)


def single_chart_cover():
    r = poly_ring("x", "y")
    return Cover([(r, make_tangent(r))], {}), r


def test_single_chart_module_iff_curvature_matches():
    rng = random.Random(61)
    cover, r = single_chart_cover()
    alg = cover.chart_algebroid(0)
    q = LForm(alg, 2, {(0, 1): r.var("x") + 2})
    primitive = integrate_univariate  # placeholder to silence linters
    # F(0,1) = a_0(A_1) - a_1(A_0) + [A_0, A_1]; choose A_0 = 0,
    # A_1 = (x^2/2 + 2x) id so the curvature is exactly q id
    p = r.monomial((2, 0), Fraction(1, 2)) + 2 * r.var("x")
    good = Connection(alg, 2, [[[0, 0], [0, 0]],
                               [[p, 0], [0, p]]])
    pair = CechPair(cover, {}, {0: q})
    bunch = LocalConnectionBunch(cover, 2, [good])
    assert verify_lambda_module(cover, pair, bunch).verified
    f = curvature(good)
    assert f.entry(0, 1)[0][0] == q.component((0, 1))

    for _ in range(10):
        mats = [[[row[:] for row in m] for m in
                 [[[r.zero, r.zero], [r.zero, r.zero]],
                  [[p, r.zero], [r.zero, p]]]]][0]
        i = rng.randrange(2)
        s, t = rng.randrange(2), rng.randrange(2)
        mats[i][s][t] = mats[i][s][t] + r.monomial(
            (rng.randint(0, 1), rng.randint(0, 1)), rng.randint(1, 3))
        perturbed = Connection(alg, 2, mats)
        ok = verify_lambda_module(cover, pair,
                                  LocalConnectionBunch(cover, 2, [perturbed]))
        fmat = curvature(perturbed).entry(0, 1)
        matches = all(fmat[a][b] == (q.component((0, 1)) if a == b else r.zero)
                      for a in range(2) for b in range(2))
        assert bool(ok) == matches


def test_glue_identity_when_phi_zero():
    cover = make_p1_cover("tangent", bundle=0)
    rep = glue_sridharan(cover, zero_pair(cover))
    assert rep.verified
    gmap = rep.maps[(0, 1)]
    gen = gmap.image_of_generator(0)
    assert gen.terms == {(0,): gmap.target.ring.one}


def test_glue_atiyah_pair():
    cover = make_p1_cover("tangent", bundle=2)
    pair = atiyah_cocycle(cover)
    rep = glue_sridharan(cover, pair)
    assert rep.verified
    gmap = rep.maps[(0, 1)]
    z = gmap.target.ring.var("z")
    assert gmap.image_of_generator(0).terms == {(0,): gmap.target.ring.one,
                                                (): 2 * z ** -1}


def test_glue_broken_phi_fails():
    cover = make_p1_cover("tangent")
    frame = cover.frame_algebroid(0, 1)
    z = frame.base.var("z")
    # phi = z dz is not compatible with Q = 0 on rank 1?  rank-1 overlaps
    # have no 2-forms, so break the coefficient relation instead: use a
    # 3-chart cover below.  Here break d phi = delta Q via chart forms.
    cover3, frames = toy_three_chart_cover()
    phi = {(0, 1): LForm(frames[(0, 1)], 1, {(0,): frames[(0, 1)].base.var("z")}),
           (0, 2): LForm(frames[(0, 2)], 1, {}),
           (1, 2): LForm(frames[(1, 2)], 1, {})}
    pair = CechPair(cover3, phi, {})
    rep = verify_cocycle(cover3, pair)
    assert not rep.verified        # triple overlap condition fails
    glue = glue_sridharan(cover3, pair)
    assert not glue.verified


def toy_three_chart_cover():
    """Three identical affine charts glued by identities: exercises the
    triple-overlap conditions."""
    r = poly_ring("z")
    t = make_tangent(r)
    charts = [(r, t)] * 3
    overlaps = {}
    for key in ((0, 1), (0, 2), (1, 2)):
        m = RingMap.identity(r)
        overlaps[key] = Overlap(r, m, m, [[r.one]], [[r.one]], [[r.one]],
                                bundle=[[r.one]])
    cover = Cover(charts, overlaps, triples=[(0, 1, 2)])
    cover.verify()
    frames = {key: cover.frame_algebroid(*key) for key in overlaps}
    return cover, frames


def test_three_chart_triple_conditions():
    cover, frames = toy_three_chart_cover()
    r = cover.chart_ring(0)
    dz = {key: LForm(frames[key], 1, {(0,): r.one}) for key in frames}
    good = CechPair(cover, {(0, 1): dz[(0, 1)],
                            (1, 2): dz[(1, 2)],
                            (0, 2): dz[(0, 2)].scale(r.const(2))}, {})
    rep = verify_cocycle(cover, good)
    assert rep.verified
    glue = glue_sridharan(cover, good)
    assert glue.verified

    bad = CechPair(cover, {(0, 1): dz[(0, 1)]}, {})
    rep = verify_cocycle(cover, bad)
    assert not rep.verified
    assert any("triple" in f for f in rep.failures)


def plane_two_chart_cover():
    """Two copies of the affine plane glued by the identity; rank-2 charts
    make the commutator relations of the gluing nontrivial."""
    r = poly_ring("x", "y")
    t = make_tangent(r)
    m = RingMap.identity(r)
    ident = [[r.one, r.zero], [r.zero, r.one]]
    ov = Overlap(r, m, m, ident, ident, ident, bundle=None)
    cover = Cover([(r, t), (r, t)], {(0, 1): ov})
    cover.verify()
    return cover


def test_glue_unclosed_phi_breaks_relations():
    cover = plane_two_chart_cover()
    frame = cover.frame_algebroid(0, 1)
    r = frame.base
    # d(x dy) = dx^dy != 0 = delta Q: the gluing map cannot preserve the
    # commutator relation of the two generators
    phi = LForm(frame, 1, {(1,): r.var("x")})
    pair = CechPair(cover, {(0, 1): phi}, {})
    assert not verify_cocycle(cover, pair).verified
    rep = glue_sridharan(cover, pair)
    assert not rep.verified
    assert any("commutator" in f for f in rep.failures)
    # a closed phi glues fine
    good = CechPair(cover, {(0, 1): LForm(frame, 1, {(1,): r.const(4)})}, {})
    assert verify_cocycle(cover, good).verified
    assert glue_sridharan(cover, good).verified


def test_cech_dims_match_counting_oracle():
    for k in range(-3, 5):
        cover = make_p1_cover("tangent", bundle=k)
        got = line_bundle_cech_dims(cover, TruncationWindow(8, 12))
        expected = p1_line_bundle_dims_by_counting(k, 12)
        assert got == expected + (True,)
    assert p1_line_bundle_dims_by_counting(-2, 12) == (0, 1)
    assert p1_line_bundle_dims_by_counting(4, 12) == (5, 0)


def test_glue_across_different_chart_twists():
    # Q_0 = dx^dy, Q_1 = 0: the gluing needs d phi = Q_0 - Q_1, so
    # phi = x dy glues the twisted algebra onto the untwisted one
    cover = plane_two_chart_cover()
    frame = cover.frame_algebroid(0, 1)
    r = frame.base
    alg0 = cover.chart_algebroid(0)
    q0 = LForm(alg0, 2, {(0, 1): r.one})
    phi = LForm(frame, 1, {(1,): r.var("x")})
    pair = CechPair(cover, {(0, 1): phi}, {0: q0})
    assert verify_cocycle(cover, pair).verified
    rep = glue_sridharan(cover, pair)
    assert rep.verified
    gmap = rep.maps[(0, 1)]
    # source system is twisted, target untwisted
    assert gmap.source.twist.component((0, 1)) == r.one
    assert gmap.target.twist.is_zero()
    # and the flipped assignment breaks both checks
    bad = CechPair(cover, {(0, 1): phi}, {1: LForm(alg0, 2, {(0, 1): r.one})})
    assert not verify_cocycle(cover, bad).verified
    assert not glue_sridharan(cover, bad).verified


def test_gluing_maps_are_algebra_morphisms_on_short_words():
    rng = random.Random(71)
    cover = plane_two_chart_cover()
    frame = cover.frame_algebroid(0, 1)
    r = frame.base
    # y dx + x dy is closed, so it glues the untwisted systems
    pair = CechPair(cover, {(0, 1): LForm(frame, 1,
                                          {(0,): r.var("y"), (1,): r.var("x")})},
                    {})
    assert verify_cocycle(cover, pair).verified
    rep = glue_sridharan(cover, pair)
    assert rep.verified
    gmap = rep.maps[(0, 1)]

    def rand_el():
        items = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                items.append(rng.randrange(2))
            else:
                items.append(r.monomial((rng.randint(0, 1), rng.randint(0, 1)),
                                        rng.randint(-2, 2)))
        return normal_form(items, gmap.source)

    for _ in range(10):
        a, b = rand_el(), rand_el()
        assert (gmap(a * b) - gmap(a) * gmap(b)).is_zero()


def coboundary_pairs():
    """(cover, pair_a, pair_b): the p1 tangent and log covers with their
    Atiyah pairs, the three-chart cover, the sheared planes with chart
    2-forms, so that overlap and chart rows both occur, one of them of a
    degree no window reaches, and the cover whose restriction doubles
    exponents."""
    for structure, k in (("tangent", 2), ("log", 3)):
        cover = make_p1_cover(structure, bundle=k)
        yield cover, zero_pair(cover), atiyah_cocycle(cover)
    cover, frames = toy_three_chart_cover()
    z = cover.chart_ring(0).var("z")
    yield cover, zero_pair(cover), CechPair(cover, {
        key: LForm(frame, 1, {(0,): z ** 2 + key[1]}) for key, frame in frames.items()}, {})
    cover = sheared_plane_cover()
    r = cover.chart_ring(0)
    x, y = r.var("x"), r.var("y")
    frame = cover.frame_algebroid(0, 1)
    yield cover, zero_pair(cover), CechPair(
        cover, {(0, 1): LForm(frame, 1, {(0,): x * y, (1,): r.const(4)})},
        {a: LForm(cover.chart_algebroid(a), 2,
                  {(0, 1): cover.chart_ring(a).var("xu"[a]) + a}) for a in (0, 1)})
    # a chart 2-form of degree 12, past the exponents of every window's
    # columns: its right-hand side must be coded apart from their rows
    yield cover, zero_pair(cover), CechPair(
        cover, {}, {0: LForm(cover.chart_algebroid(0), 2, {(0, 1): x ** 12 + y})})
    cover = squared_line_cover()
    frame = cover.frame_algebroid(0, 1)
    u = frame.base.var("u")
    yield cover, zero_pair(cover), CechPair(
        cover, {(0, 1): LForm(frame, 1, {(0,): 2 * u ** 4 - 3 * u ** -6})}, {})


def squared_line_cover():
    """Two lines glued through u, z = u^2 and w = u^-2, with the line
    bundle u^2: restriction doubles exponents, so the codes of the Cech
    complex must reach past the window's."""
    rz, rw, o = poly_ring("z"), poly_ring("w"), laurent_ring("u")
    u = o.var("u")
    ov = Overlap(o, RingMap(rz, o, {"z": u ** 2}), RingMap(rw, o, {"w": u ** -2}),
                 [[Fraction(1, 2) * u ** -1]], [[Fraction(-1, 2) * u ** 3]],
                 [[-(u ** 4)]], bundle=[[u ** 2]])
    cover = Cover([(rz, make_tangent(rz)), (rw, make_tangent(rw))], {(0, 1): ov})
    cover.verify()
    return cover


def sheared_plane_cover():
    """Two planes glued by u = x, v = y + x: the transition [[1, 0], [-1, 1]]
    is not symmetric, so a transposed frame matrix shows."""
    r, s = poly_ring("x", "y"), poly_ring("u", "v")
    x, y = r.var("x"), r.var("y")
    ov = Overlap(r, RingMap.identity(r), RingMap(s, r, {"u": x, "v": y + x}),
                 [[r.one, r.zero], [r.zero, r.one]],
                 [[r.one, -r.one], [r.zero, r.one]],
                 [[r.one, r.zero], [-r.one, r.one]])
    cover = Cover([(r, make_tangent(r)), (s, make_tangent(s))], {(0, 1): ov})
    cover.verify()
    return cover


def decode_cech(complex_, codes, code):
    """((index tuple, (chart or overlap, label)), exponents) of a row code
    of a `cech._cech_complex`, the exponents those of its block's ring."""
    key, exps = codes.decode(code)
    ring = dict(block for found in complex_.blocks.values() for block in found)[key]
    assert not any(exps[len(ring.variables):])
    return key, exps[:len(ring.variables)]


def recorded_coboundary_system(cover, pair_a, pair_b, window):
    """(result, columns, rhs) of one `coboundary_test`: the rows it reads
    from its Cech complex, as `_WindowedComplex.solve` gives them to
    `SparseSystem.from_rows`, read as columns, and the right-hand side it
    solves for, each row code decoded to ("ov", first chart, second
    chart, index, exponents) or ("ch", chart, index tuple, exponents) by
    the codes it asked the complex for."""
    systems, rhss, made = [], [], []
    cech_complex = cech._cech_complex

    class Recording(SparseSystem):
        @classmethod
        def from_rows(cls, rows, ncols):
            systems.append((rows, ncols))
            return super().from_rows(rows, ncols)

        def solve(self, rhs, basis):
            rhss.extend(rhs)
            return super().solve(rhs, basis)

    def recording_complex(*args, **kwargs):
        complex_ = cech_complex(*args, **kwargs)
        make = complex_.codes
        complex_.codes = lambda bound: made.append((complex_, make(bound))) or made[-1][1]
        return complex_

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "SparseSystem", Recording)
        mp.setattr(cech, "_cech_complex", recording_complex)
        result = coboundary_test(cover, pair_a, pair_b, window)
    ((rows, ncols),), (rhs,), ((complex_, codes),) = systems, rhss, made

    def decode(code):
        (idx, (sigma, _)), exps = decode_cech(complex_, codes, code)
        if isinstance(sigma, tuple):
            return ("ov",) + sigma + (idx[0], exps)
        return ("ch", sigma, idx, exps)

    cols = [{} for _ in range(ncols)]
    for code, row in rows.items():
        for j, c in row.items():
            cols[j][decode(code)] = c
    return result, cols, {decode(code): c for code, c in rhs.items()}


def test_coboundary_system_matches_overlap_oracle():
    for window in (TruncationWindow(2, 2), TruncationWindow(4, 5)):
        for cover, pair_a, pair_b in coboundary_pairs():
            _, cols, rhs = recorded_coboundary_system(cover, pair_a, pair_b, window)
            assert (cols, rhs) == coboundary_system(cover, pair_a, pair_b, window)


def test_cech_dims_match_overlap_oracle():
    """The rows of the complex that `line_bundle_cech_dims` reads, on the
    chart sections of the window enlarged by the transition degree, are
    the overlap-by-overlap reference's columns with the opposite sign,
    and its dims are the reference's, on the p1 covers, the three-chart
    cover and the cover whose restriction doubles exponents."""
    covers = [make_p1_cover(structure, bundle=k) for structure in ("tangent", "log")
              for k in range(-3, 4)] + [toy_three_chart_cover()[0], squared_line_cover()]
    for cover in covers:
        complex_ = cech._cech_complex(
            cover, 0, 0, {key: ov.bundle for key, ov in cover.overlaps.items()})
        for window in (TruncationWindow(8, 1), TruncationWindow(8, 2),
                       TruncationWindow(8, 5), TruncationWindow(3, 12)):
            chart_window, want, _ = line_bundle_columns(cover, window)
            basis = complex_.basis(0, chart_window)
            codes = complex_.codes(chart_window.laurent + SLACK)
            cols = [{} for _ in basis]
            for code, row in complex_.rows(codes, basis).items():
                (_, ((a, b), _)), exps = decode_cech(complex_, codes, code)
                for j, c in row.items():
                    cols[j][(a, b, exps)] = -c
            assert cols == want
            assert (line_bundle_cech_dims(cover, window)[:2]
                    == line_bundle_dims_by_overlaps(cover, window))


def perturbed_bunch(cover, bunch, rng):
    """The bunch with one connection entry per chart moved by a small
    monomial of the chart ring."""
    conns = []
    for a, conn in enumerate(bunch.connections):
        ring = cover.chart_ring(a)
        mats = [[list(row) for row in mat] for mat in conn.matrices]
        i, s, t = (rng.randrange(len(mats)), rng.randrange(bunch.rank),
                   rng.randrange(bunch.rank))
        mats[i][s][t] = mats[i][s][t] + ring.monomial(
            (rng.randint(0, 2),), rng.choice((-2, -1, 1)))
        conns.append(Connection(conn.algebroid, bunch.rank, mats))
    return LocalConnectionBunch(cover, bunch.rank, conns)


def test_lambda_overlap_matches_entry_oracle():
    """The overlap gauge built from matrix products gives the failure
    strings of the entry-by-entry loop, on the p1 and p1log bunches and
    on rank-2 bunches over bundle-free covers, each perturbed at random."""
    data = pathlib.Path(__file__).parent / "data"
    rng = random.Random(1411)
    cases = []
    for name, pair_name, bunch_name in (("p1.adf", "A", "triv"),
                                        ("p1log.adf", "Z", "logconn")):
        defs = parse((data / name).read_text())
        cases.append((defs.objects["P"], defs.objects[pair_name],
                      defs.objects[bunch_name]))
    for kind in ("tangent", "log"):
        cover = make_p1_cover(kind)
        cases.append((cover, zero_pair(cover), LocalConnectionBunch(cover, 2, [
            Connection(cover.chart_algebroid(a), 2, [[[0, 0], [0, 0]]])
            for a in range(2)])))
    failing = 0
    for cover, pair, bunch in cases:
        for trial in range(8):
            if trial:
                bunch = perturbed_bunch(cover, bunch, rng)
            got = [f for f in verify_lambda_module(cover, pair, bunch).failures
                   if f.startswith("overlap")]
            assert got == lambda_overlap_failures(cover, pair, bunch)
            failing += bool(got)
    assert failing > 20


def sheared_space_cover():
    """Two copies of 3-space glued by u = x, v = y + x, w = z: rank-3
    frames, so three gg relations per gluing, through a non-identity
    transition."""
    r, s = poly_ring("x", "y", "z"), poly_ring("u", "v", "w")
    x, y, z = r.var("x"), r.var("y"), r.var("z")
    one, zero = r.one, r.zero
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    ov = Overlap(r, RingMap.identity(r), RingMap(s, r, {"u": x, "v": y + x, "w": z}),
                 ident, [[one, -one, zero], [zero, one, zero], [zero, zero, one]],
                 [[one, zero, zero], [-one, one, zero], [zero, zero, one]])
    cover = Cover([(r, make_tangent(r)), (s, make_tangent(s))], {(0, 1): ov})
    cover.verify()
    return cover


def test_glue_failures_match_written_out_loop():
    """The relation failures of `glue` on perturbed pairs against the loop
    that builds its own images, frame change and naive products: on the
    p1 and p1log covers, the three-chart cover and the rank-2 and rank-3
    covers, starting from pairs that glue with Q_a - Q_b = d phi != 0."""
    data = pathlib.Path(__file__).parent / "data"
    rng = random.Random(1603)
    covers = [parse((data / name).read_text()).objects["P"]
              for name in ("p1.adf", "p1log.adf")]
    covers += [toy_three_chart_cover()[0], plane_two_chart_cover(),
               sheared_plane_cover(), sheared_space_cover()]
    glued = failing = 0
    for cover in covers:
        for trial in range(6):
            phi = {}
            for key in cover.overlaps:
                frame = cover.frame_algebroid(*key)
                ring = frame.base
                phi[key] = LForm(frame, 1, {(i,): ring.monomial(
                    tuple(rng.randint(0, 2) for _ in ring.variables),
                    rng.randint(1, 3)) for i in range(frame.rank)})
            # chart 0 restricts to the frame unchanged on these covers, so
            # Q_0 = d phi_01 and Q_1 = 0 glue
            alg0 = cover.chart_algebroid(0)
            q = {0: LForm(alg0, 2, d_L(phi[(0, 1)]).coeffs)} if alg0.rank > 1 else {}
            if trial % 2:
                key = rng.choice(sorted(cover.overlaps))
                i = rng.randrange(cover.frame_algebroid(*key).rank)
                ring = cover.frame_algebroid(*key).base
                phi[key] = phi[key] + LForm(phi[key].owner, 1, {(i,): ring.var(
                    rng.choice(ring.variables))})
            if trial % 3 == 2 and alg0.rank > 1:
                ring = cover.chart_ring(1)
                q[1] = LForm(cover.chart_algebroid(1), 2, {(0, 1): ring.monomial(
                    (rng.randint(0, 1),) * len(ring.variables), 2)})
            pair = CechPair(cover, phi, q)
            got = [f for f in glue_sridharan(cover, pair).failures
                   if f.startswith("overlap")]
            assert sorted(got) == sorted(glue_relation_failures(cover, pair))
            glued += not got
            failing += any("commutator" in f for f in got)
    assert glued > 10 and failing > 5
