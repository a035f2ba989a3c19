import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid.connections import Connection, is_flat
from algebroid.core import (Algebroid, StructureError, make_lie_algebra_bundle,
                            make_tangent, make_trivial_bundle)
from algebroid.forms import (RowCodes, TruncationWindow, covariant_d, truncated_cohomology,
                             _ce_complex, _tuple_keys)
from algebroid.matched import (DoubleComplexSlice, MatchedPair, _total_complex, twilled_sum,
                               total_cohomology_compare, verify_matched)
from algebroid.rings import ChartRing, poly_ring

from oracles import (ce_cohomology_dims, commutation_witness, flatten_columns,
                     gather_d1, gather_d2, matched_equations_by_factor,
                     total_dims_by_bidegree)

HEISENBERG = {(0, 1): {2: 1}}


def two_foliation_pair():
    """L1 = <d/dx>, L2 = <d/dy> inside the tangent algebroid of Q[x,y]."""
    r = poly_ring("x", "y")
    l1 = Algebroid(r, 1, [[1, 0]], {}, basis_names=("e1",))
    l2 = Algebroid(r, 1, [[0, 1]], {}, basis_names=("f1",))
    zero12 = Connection(l1, 1, [[[0]]])
    zero21 = Connection(l2, 1, [[[0]]])
    return MatchedPair(l1, l2, zero12, zero21)


def sheared_tangent_pair():
    """tangent Q[x,y,z,w] split as <dx,dy> + <dz + x dx, dw>: the ambient
    bracket [dx, dz + x dx] = dx feeds a nonzero action."""
    r = poly_ring("x", "y", "z", "w")
    l1 = Algebroid(r, 2, [[1, 0, 0, 0], [0, 1, 0, 0]], {}, basis_names=("e1", "e2"))
    l2 = Algebroid(r, 2, [[r.var("x"), 0, 1, 0], [0, 0, 0, 1]], {},
                   basis_names=("f1", "f2"))
    act12 = Connection(l1, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    act21 = Connection(l2, 2, [[[-1, 0], [0, 0]], [[0, 0], [0, 0]]])
    return MatchedPair(l1, l2, act12, act21)


def swapped_sheared_pair():
    """The sheared pair with its factors exchanged, so that action12 is
    the nonzero action of <dz + x dx, dw> on <dx, dy>."""
    m = sheared_tangent_pair()
    return MatchedPair(m.l2, m.l1, m.action21, m.action12)


def kunneth_pair():
    c = ChartRing(())
    h = make_lie_algebra_bundle(c, 3, HEISENBERG)
    a = make_trivial_bundle(c, 1)
    z12 = Connection(h, 1, [[[0]]] * 3)
    z21 = Connection(a, 3, [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
    return MatchedPair(h, a, z12, z21)


def test_zero_actions_abelian_pair_verified():
    c = ChartRing(())
    a1, a2 = make_trivial_bundle(c, 2), make_trivial_bundle(c, 2)
    z12 = Connection(a1, 2, [[[0, 0], [0, 0]]] * 2)
    z21 = Connection(a2, 2, [[[0, 0], [0, 0]]] * 2)
    m = MatchedPair(a1, a2, z12, z21)
    assert verify_matched(m).verified
    tw = twilled_sum(m)
    assert tw.verify().verified
    assert not tw.structure          # direct sum of abelians


def test_two_foliation_pair_verified_and_recovers_tangent():
    m = two_foliation_pair()
    assert verify_matched(m).verified
    tw = twilled_sum(m)
    assert tw.verify().verified
    t = make_tangent(m.l1.base)
    assert tw.rank == t.rank
    assert not tw.structure
    assert [list(row) for row in tw.anchor] == [list(row) for row in t.anchor]


def test_sheared_pair_verified_and_twilled_passes():
    m = sheared_tangent_pair()
    assert verify_matched(m).verified
    tw = twilled_sum(m)
    assert tw.verify().verified
    # mixed bracket {e1, f1} = e1
    comps = tw.structure_coefficients(0, 2)
    assert comps[0] == 1 and all(c.is_zero() for c in comps[1:])


def test_perturbed_action_fails_equation_one():
    m = sheared_tangent_pair()
    bad21 = Connection(m.l2, 2, [[[-1, 0], [0, 1]], [[0, 0], [0, 0]]])
    bad = MatchedPair(m.l1, m.l2, m.action12, bad21)
    v = verify_matched(bad)
    assert not v.verified and v.witness.equation == 1
    with pytest.raises(StructureError):
        twilled_sum(bad)
    forced = twilled_sum(bad, check=False)
    assert not forced.verify().verified


def test_nonflat_action_refused():
    r = poly_ring("x", "y")
    l1 = Algebroid(r, 2, [[1, 0], [0, 1]], {}, basis_names=("e1", "e2"))
    l2 = Algebroid(r, 1, [[0, 0]], {}, basis_names=("f1",))
    curved = Connection(l1, 1, [[[0]], [[r.var("x")]]])
    flat21 = Connection(l2, 2, [[[0, 0], [0, 0]]])
    m = MatchedPair(l1, l2, curved, flat21)
    with pytest.raises(StructureError, match="action12"):
        verify_matched(m)


def test_commutation_iff_matched():
    good = sheared_tangent_pair()
    assert DoubleComplexSlice(good, 3, TruncationWindow(2, 2)).commutation_check() is None
    bad21 = Connection(good.l2, 2, [[[-1, 0], [0, 1]], [[0, 0], [0, 0]]])
    bad = MatchedPair(good.l1, good.l2, good.action12, bad21)
    assert DoubleComplexSlice(bad, 3, TruncationWindow(2, 2)).commutation_check() is not None


def test_double_complex_differentials_square_to_zero():
    m = sheared_tangent_pair()
    sl = DoubleComplexSlice(m, 2, TruncationWindow(1, 1))
    base = m.l1.base
    for (p, q), basis in sorted(sl.bases.items()):
        if p + q > 1:
            continue
        for (i1, i2), mono in basis:
            term = {(i1, i2): base.monomial(mono)}
            once = sl.d1(term)
            twice = sl.d1(once)
            assert all(v.is_zero() for v in twice.values())
            once2 = sl.d2(term)
            twice2 = sl.d2(once2)
            assert all(v.is_zero() for v in twice2.values())


def test_kunneth_total_dims():
    m = kunneth_pair()
    rep = total_cohomology_compare(m, [0, 1, 2], TruncationWindow(2, 2))
    h_heis = ce_cohomology_dims(3, HEISENBERG, 3)
    h_ab = {0: 1, 1: 1}
    for n in (0, 1, 2):
        expected = sum(h_heis.get(p, 0) * h_ab.get(n - p, 0) for p in range(n + 1))
        assert rep.total_dims[n] == expected
        assert rep.twilled_dims[n] == expected
    assert rep.agree


def test_two_foliation_total_matches_twilled():
    m = two_foliation_pair()
    rep = total_cohomology_compare(m, [0, 1, 2], TruncationWindow(3, 2))
    assert rep.agree
    t = make_tangent(m.l1.base)
    direct = truncated_cohomology(t, [0, 1, 2], TruncationWindow(3, 2))
    for n in (0, 1, 2):
        assert rep.twilled_dims[n] == direct.dim(n)


def test_sheared_total_matches_twilled():
    m = sheared_tangent_pair()
    rep = total_cohomology_compare(m, [0, 1, 2], TruncationWindow(2, 2))
    assert rep.agree


def test_slice_freed_before_twilled_systems(monkeypatch):
    # the slice, with its stencils' offset tables, is released once the
    # total dims are known, so the twilled sum's systems are built without it
    from algebroid import matched
    slices, alive = [], []

    class Recorded(DoubleComplexSlice):
        def __init__(self, *args):
            super().__init__(*args)
            slices.append(weakref.ref(self))

    def ce_complex(tw, real=matched._ce_complex):
        alive.append(slices[-1]() is not None)
        return real(tw)

    monkeypatch.setattr(matched, "DoubleComplexSlice", Recorded)
    monkeypatch.setattr(matched, "_ce_complex", ce_complex)
    rep = total_cohomology_compare(sheared_tangent_pair(), [0, 1, 2],
                                   TruncationWindow(2, 2))
    assert rep.agree and alive == [False]


def polynomial_action_pair():
    """tangent Q[x,y] split as <dx> + <dy + x^2 dx>: the cross bracket
    [dx, dy + x^2 dx] = 2x dx makes the action coefficients polynomial."""
    r = poly_ring("x", "y")
    l1 = Algebroid(r, 1, [[1, 0]], {}, basis_names=("e1",))
    l2 = Algebroid(r, 1, [[r.var("x") ** 2, 1]], {}, basis_names=("f1",))
    act12 = Connection(l1, 1, [[[0]]])
    act21 = Connection(l2, 1, [[[-2 * r.var("x")]]])
    return MatchedPair(l1, l2, act12, act21)


def matched_pairs():
    return [two_foliation_pair(), sheared_tangent_pair(), swapped_sheared_pair(),
            kunneth_pair(), polynomial_action_pair()]


@pytest.mark.parametrize("window", [TruncationWindow(2, 2), TruncationWindow(3, 2)])
def test_total_dims_match_bidegree_oracle(window):
    for m in matched_pairs():
        degrees = range(m.l1.rank + m.l2.rank + 2)
        rep = total_cohomology_compare(m, degrees, window)
        assert rep.total_dims == total_dims_by_bidegree(m, degrees, window)


def test_polynomial_action_pair():
    m = polynomial_action_pair()
    assert verify_matched(m).verified
    tw = twilled_sum(m)
    assert tw.verify().verified
    # mixed bracket {e1, f1} = 2x e1
    comps = tw.structure_coefficients(0, 1)
    assert comps[0] == 2 * m.l1.base.var("x")
    assert DoubleComplexSlice(m, 3, TruncationWindow(3, 2)).commutation_check() is None
    rep = total_cohomology_compare(m, [0, 1, 2], TruncationWindow(3, 2))
    assert rep.agree


def test_rank_zero_second_factor_reduces():
    r = poly_ring("x")
    l1 = make_tangent(r)
    l2 = Algebroid(r, 0, [], {}, basis_names=())
    act12 = Connection(l1, 0, [[] for _ in range(1)])
    act21 = Connection(l2, 1, [])
    m = MatchedPair(l1, l2, act12, act21)
    assert verify_matched(m).verified
    rep = total_cohomology_compare(m, [0, 1], TruncationWindow(4, 2))
    direct = truncated_cohomology(l1, [0, 1], TruncationWindow(4, 2))
    assert rep.total_dims == {0: direct.dim(0), 1: direct.dim(1)}
    assert rep.agree


def test_swapped_sheared_pair_nonzero_action12():
    m = swapped_sheared_pair()
    assert any(not x.is_zero() for mat in m.action12.matrices
               for row in mat for x in row)
    assert verify_matched(m).verified
    sl = DoubleComplexSlice(m, 3, TruncationWindow(2, 2))
    assert sl.commutation_check() is None
    acted = 0
    for (p, q), basis in sorted(sl.bases.items()):
        for (i1, i2), mono in basis:
            term = {(i1, i2): m.l1.base.monomial(mono)}
            once = sl.d1(term)
            assert all(v.is_zero() for v in sl.d1(once).values())
            once2 = sl.d2(term)
            assert all(v.is_zero() for v in sl.d2(once2).values())
            plain = covariant_d(m.l1, term)
            acted += once != plain
    assert acted          # the action12 term of d1 is live
    rep = total_cohomology_compare(m, [0, 1, 2], TruncationWindow(2, 2))
    assert rep.total_dims == rep.twilled_dims


def random_cochain(m, rng, p, q):
    r = m.l1.base
    out = {}
    for i1 in combinations(range(m.l1.rank), p):
        for i2 in combinations(range(m.l2.rank), q):
            if rng.random() < 0.3:
                continue
            val = r.zero
            for _ in range(rng.randint(1, 2)):
                exps = tuple(rng.randint(0, 2) for _ in r.variables)
                val = val + r.monomial(exps, Fraction(rng.randint(-3, 3)))
            if not val.is_zero():
                out[(i1, i2)] = val
    return out


def broken_sheared_pair():
    """The sheared pair with action21 perturbed: equation 1 fails."""
    m = sheared_tangent_pair()
    return MatchedPair(m.l1, m.l2, m.action12, Connection(
        m.l2, 2, [[[-1, 0], [0, 1]], [[0, 0], [0, 0]]]))


def test_double_complex_matches_gather_randomized():
    pairs = matched_pairs() + [broken_sheared_pair()]
    rng = random.Random(139)
    for m in pairs:
        sl = DoubleComplexSlice(m, m.l1.rank + m.l2.rank, TruncationWindow(2, 2))
        for p in range(m.l1.rank + 1):
            for q in range(m.l2.rank + 1):
                for _ in range(3):
                    coeffs = random_cochain(m, rng, p, q)
                    assert sl.d1(coeffs) == gather_d1(m, p, q, coeffs)
                    assert sl.d2(coeffs) == gather_d2(m, p, q, coeffs)


def cancelling_pair():
    """Q[x,y,z] split as <dx + dy> + <(x - y) dz>, with zero actions: d1
    of d2 z = (x - y) f^1 sums two terms to zero, so a composite of the
    commutation check holds a cancelled entry."""
    r = poly_ring("x", "y", "z")
    l1 = Algebroid(r, 1, [[1, 1, 0]], {}, basis_names=("e1",))
    l2 = Algebroid(r, 1, [[0, 0, r.var("x") - r.var("y")]], {}, basis_names=("f1",))
    return MatchedPair(l1, l2, Connection(l1, 1, [[[0]]]), Connection(l2, 1, [[[0]]]))


def assert_rows_match_gather(sl):
    """Every row the slice's private `_rows` gives for d1 and d2, at every
    bidegree under the slice's current codes, decodes to the gather
    columns."""
    m = sl.pair
    pairs = sl._codes[0]
    for (p, q), basis in sorted(sl.bases.items()):
        for second, gather in ((False, gather_d1), (True, gather_d2)):
            cols = [{} for _ in basis]
            for code, row in sl._rows(second, basis).items():
                for j, c in row.items():
                    cols[j][pairs.decode(code)] = c
            assert cols == flatten_columns(
                [gather(m, p, q, {(i1, i2): m.l1.base.monomial(mono)})
                 for (i1, i2), mono in basis], lambda label, mm: (label, mm))


@pytest.mark.parametrize("window", [TruncationWindow(2, 2), TruncationWindow(3, 2)])
def test_integer_commutation_check_matches_oracles(window):
    """The integer check returns the witness of the RingElement loop and
    of the composite of the gather differentials, on every pair, and
    every row of d1 and d2 it is built from is the gather column."""
    witnesses = []
    for m in matched_pairs() + [cancelling_pair(), broken_sheared_pair()]:
        sl = DoubleComplexSlice(m, m.l1.rank + m.l2.rank, window)
        got = sl.commutation_check()
        assert got == commutation_witness(sl)
        assert got == commutation_witness(sl, gather=True)
        witnesses.append(got)
        assert_rows_match_gather(sl)
    assert witnesses[:-1] == [None] * 6 and witnesses[-1] is not None
    # actions that mix module labels, so rows of different labels share
    # row codes; matched or not, the witnesses and rows agree
    rng = random.Random(1409)
    for _ in range(3):
        m = heisenberg_line_pair(rng)
        for pair in (m, MatchedPair(m.l2, m.l1, m.action21, m.action12)):
            sl = DoubleComplexSlice(pair, pair.l1.rank + pair.l2.rank, window)
            got = sl.commutation_check()
            assert got == commutation_witness(sl) == commutation_witness(sl, gather=True)
            assert_rows_match_gather(sl)


def heisenberg_line_pair(rng):
    """The Heisenberg algebra h ([e1, e2] = e3) and a line a, with random
    integer actions: a acts on h by any 3x3 matrix, h on a by (c1, c2, 0),
    so both actions are flat and equation 3 holds only by chance."""
    base = kunneth_pair()
    h, a = base.l1, base.l2
    on_a = Connection(h, 1, [[[rng.randint(-1, 1)]], [[rng.randint(-1, 1)]], [[0]]])
    on_h = Connection(a, 3, [[[rng.randint(-1, 1) for _ in range(3)]
                              for _ in range(3)]])
    return MatchedPair(h, a, on_a, on_h)


def perturbed_sheared_pair(rng):
    """The sheared pair with one action entry moved by a small polynomial."""
    m = sheared_tangent_pair()
    r = m.l1.base
    which = rng.randrange(2)
    action = (m.action12, m.action21)[which]
    mats = [[list(row) for row in mat] for mat in action.matrices]
    i, s, t = rng.randrange(2), rng.randrange(2), rng.randrange(2)
    mats[i][s][t] = mats[i][s][t] + r.monomial(
        tuple(rng.randint(0, 1) for _ in r.variables), rng.choice((-1, 1)))
    moved = Connection(action.algebroid, 2, mats)
    if which == 0:
        return MatchedPair(m.l1, m.l2, moved, m.action21)
    return MatchedPair(m.l1, m.l2, m.action12, moved)


def test_verify_matched_matches_per_factor_oracle():
    """One loop over both mirrored equations gives the verdict, equation
    number, indices and residual of the loops spelled out per factor."""
    rng = random.Random(1403)
    pairs = matched_pairs() + [broken_sheared_pair()]
    for _ in range(12):
        m = heisenberg_line_pair(rng)
        pairs += [m, MatchedPair(m.l2, m.l1, m.action21, m.action12)]
    pairs += [perturbed_sheared_pair(rng) for _ in range(12)]
    equations = set()
    for m in pairs:
        if not (is_flat(m.action12).flat and is_flat(m.action21).flat):
            with pytest.raises(StructureError, match="not flat"):
                verify_matched(m)
            continue
        got, want = verify_matched(m), matched_equations_by_factor(m)
        assert got == want
        equations.add(got.witness.equation if got.witness else None)
    assert equations == {None, 1, 2, 3}


def heisenberg_derivation_pair():
    """The Heisenberg algebra h and a line a acting on h by the derivation
    e1 -> e1, e2 -> 0, e3 -> e3: a matched pair with a nonzero action."""
    base = kunneth_pair()
    on_h = Connection(base.l2, 3, [[[1, 0, 0], [0, 0, 0], [0, 0, 1]]])
    return MatchedPair(base.l1, base.l2, base.action12, on_h)


@pytest.mark.parametrize("window", [TruncationWindow(2, 2), TruncationWindow(3, 3)])
def test_total_and_twilled_systems_are_one_matrix(window):
    """The total complex of the double complex and the twilled sum's
    Chevalley-Eilenberg complex list the same basis and give identical
    rows in every degree under one code layout, as the compiled identity
    that lets `compare-total` reduce only the twilled sum's complex
    promises."""
    pairs = matched_pairs() + [heisenberg_derivation_pair()]
    for m in pairs + [MatchedPair(m.l2, m.l1, m.action21, m.action12) for m in pairs]:
        n = m.l1.rank + m.l2.rank
        tw = twilled_sum(m)
        sl = DoubleComplexSlice(m, n, window)
        total, ce = _total_complex(sl), _ce_complex(tw)
        codes = sl.codes(window.bound(tw.base) + max(sl.reach, tw._stencil.reach))
        ce_codes = RowCodes(_tuple_keys(n), len(tw.base.variables), codes.bias)
        for p in range(n + 1):
            basis, ce_basis = total.basis(p, window), ce.basis(p, window)
            assert [(sl.keys[idx], mono) for (idx, _), mono in ce_basis] == basis
            assert total.rows(codes, basis) == ce.rows(ce_codes, ce_basis)


def mirrored(pairs):
    return pairs + [MatchedPair(m.l2, m.l1, m.action21, m.action12) for m in pairs]


def has_d2(m):
    """Whether d2 has a compiled entry at some key (the Kunneth pair's
    line acts by zero and has a zero anchor, so its d2 is zero)."""
    sl = DoubleComplexSlice(m, m.l1.rank + m.l2.rank, TruncationWindow(0, 1))
    return any(sl.affine(True, key) for key in sl.keys.values())


def test_total_differential_is_twilled_on_compiled_entries(monkeypatch):
    """The compiled identity holds on every matched pair and its mirror,
    and a flipped sign on the d2 part of the total differential breaks it
    wherever d2 is not zero."""
    from algebroid import matched
    pairs = mirrored(matched_pairs() + [heisenberg_derivation_pair()])
    slices = [DoubleComplexSlice(m, m.l1.rank + m.l2.rank, TruncationWindow(1, 1))
              for m in pairs]
    for m, sl in zip(pairs, slices):
        assert matched._total_is_twilled(sl, twilled_sum(m))
    flipped = matched._d2_sign
    monkeypatch.setattr(matched, "_d2_sign", lambda key: -flipped(key))
    planted = [not has_d2(m) for m in pairs]
    assert planted.count(True) == 1
    assert [matched._total_is_twilled(sl, twilled_sum(m))
            for m, sl in zip(pairs, slices)] == planted


def test_flipped_d2_sign_reduces_the_total_complex(monkeypatch):
    """With the sign of d2 flipped in the total differential, identity (a)
    fails, so the total complex itself is reduced: it is isomorphic to the
    correct one (scale bidegree (p, q) by (-1)^q), and its dims are the
    bidegree oracle's."""
    from algebroid import matched
    flipped = matched._d2_sign
    reduced = []

    def total_complex(sl, real=matched._total_complex):
        reduced.append(sl.pair)
        return real(sl)

    monkeypatch.setattr(matched, "_d2_sign", lambda key: -flipped(key))
    monkeypatch.setattr(matched, "_total_complex", total_complex)
    window = TruncationWindow(2, 2)
    pairs = [m for m in mirrored(matched_pairs()) if has_d2(m)]
    for m in pairs:
        degrees = range(m.l1.rank + m.l2.rank + 2)
        rep = total_cohomology_compare(m, degrees, window)
        assert reduced[-1] is m
        assert rep.total_dims == total_dims_by_bidegree(m, degrees, window)
        assert rep.agree
    assert len(reduced) == len(pairs) == 9


def test_fallback_report_matches_fast_path(monkeypatch):
    """Refusing identity (a) reduces both complexes and gives the report
    of the one-matrix path on every pair."""
    from algebroid import matched
    window = TruncationWindow(2, 2)
    fast = [total_cohomology_compare(m, range(m.l1.rank + m.l2.rank + 1), window)
            for m in matched_pairs()]
    monkeypatch.setattr(matched, "_total_is_twilled", lambda sl, tw: False)
    slow = [total_cohomology_compare(m, range(m.l1.rank + m.l2.rank + 1), window)
            for m in matched_pairs()]
    assert slow == fast


@pytest.mark.parametrize("window,want", [
    # the operators differ, but at no window monomial: no witness
    (TruncationWindow(0, 1), None),
    (TruncationWindow(1, 1), (0, 0, ((), (), (0, 1, 0, 0)))),
])
def test_commutation_witness_scans_the_window(window, want):
    m = broken_sheared_pair()
    sl = DoubleComplexSlice(m, m.l1.rank + m.l2.rank, window)
    assert sl._commutator(((), ()))
    assert sl.commutation_check() == want
    assert commutation_witness(sl) == commutation_witness(sl, gather=True) == want


def test_twilled_sum_of_a_matched_pair_is_verified():
    """`total_cohomology_compare` does not verify the twilled sum: on every
    matched pair the tests build, its axioms hold whenever `verify_matched`
    holds, and a pair that is not matched is refused with its witness
    before the twilled sum is built."""
    rng = random.Random(1411)
    pairs = mirrored(matched_pairs() + [heisenberg_derivation_pair()])
    pairs += mirrored([heisenberg_line_pair(rng) for _ in range(12)])
    pairs += [perturbed_sheared_pair(rng) for _ in range(12)]
    verified = 0
    for m in pairs:
        if not (is_flat(m.action12).flat and is_flat(m.action21).flat):
            continue
        if verify_matched(m).verified:
            assert twilled_sum(m, check=False)._verify_now().verified
            verified += 1
    assert verified >= 12
    with pytest.raises(StructureError, match=r"^not a matched pair: equation 1 "
                       r"fails at indices \(2, 1\)$"):
        total_cohomology_compare(broken_sheared_pair(), [0, 1, 2], TruncationWindow(2, 2))
