"""The compiled Chevalley-Eilenberg kernel (`forms.compile_d`) against its
references: the ring-arithmetic scatter loop and the gather loops of
oracles.py, image by image, and every windowed column it builds, its row
codes decoded, against the columns flattened from those references and
the tuple-keyed column evaluator `oracles.stencil_column`."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from algebroid.cech import Cover, zero_pair
from algebroid.connections import Connection, EValuedForm, extend_connection
from algebroid.core import (Algebroid, make_foliation, make_log, make_poisson,
                            make_tangent)
from algebroid.forms import (LForm, RowCodes, TruncationWindow, _ce_complex,
                             _tuple_keys, compile_d, covariant_d)
from algebroid.matched import DoubleComplexSlice
from algebroid.rings import ChartRing, laurent_ring, poly_ring

from oracles import (complex_columns, decode_column, flatten_columns, gather_d1,
                     gather_d2, gather_d_form, gather_extend_connection,
                     scatter_covariant_d, stencil_column, total_complex)
from test_cech import recorded_coboundary_system
from test_matched import assert_rows_match_gather, matched_pairs


def euler_algebroid():
    """Q[x,y] whose declared derivations are the Euler field x d/dx + y d/dy
    and the rotation x d/dy - y d/dx (they commute); e1 -> E, e2 -> x R
    with [e1, e2] = e2, since [E, x R] = x R."""
    r = ChartRing(("x", "y"), derivations={
        "E": {"x": {(1, 0): 1}, "y": {(0, 1): 1}},
        "R": {"x": {(0, 1): -1}, "y": {(1, 0): 1}}})
    return Algebroid(r, 2, [[1, 0], [0, r.var("x")]], {(0, 1): [0, 1]})


def algebroids():
    r3 = poly_ring("x", "y", "z")
    x, y, z = (r3.var(v) for v in ("x", "y", "z"))
    r2 = poly_ring("x", "y")
    yield make_tangent(r3)
    yield make_poisson(r3, {(0, 1): z, (1, 2): x, (2, 0): y})
    yield make_log(r2, ["x"])
    yield make_tangent(laurent_ring("x", "y"))
    yield euler_algebroid()
    yield make_foliation(r2, [[r2.var("x"), r2.var("y")], [1, 0], [0, 1]])


def rand_poly(r, rng, degree, terms=2):
    total = r.zero
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(-degree if v in r.laurent else 0, degree)
                     for v in r.variables)
        total = total + r.monomial(exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return total


def rank2_connection(l, rng):
    """Rank-2 matrices with non-constant entries in every direction."""
    r = l.base
    mats = [[[rand_poly(r, rng, 2) if rng.random() < 0.6 else r.zero
              for _ in range(2)] for _ in range(2)] for _ in range(l.rank)]
    for i in range(l.rank):
        mats[i][0][1] = mats[i][0][1] + r.var(r.variables[i % len(r.variables)])
    return Connection(l, 2, mats)


def sparse_columns(c):
    """covariant_d's matrices argument for a Connection."""
    return [[[(s, row[t]) for s, row in enumerate(mat) if not row[t].is_zero()]
             for t in range(c.rank)] for mat in c.matrices]


def label_codes(stencil, labels, bound):
    """Row codes keyed (index tuple, label) for every label, for monomials
    with exponents of size at most `bound`."""
    l = stencil.owner
    return RowCodes([(idx, t) for idx, _ in _tuple_keys(l.rank) for t in labels],
                    len(l.base.variables), bound + stencil.reach)


def shuffled_terms(rng, rank, degree, labels, poly):
    """Coefficients {(index tuple, label): element} for every tuple of the
    degree and label, inserted in a shuffled order, with each key's tuple
    a fresh object equal to the others with its indices."""
    keys = [(idx, t) for idx in combinations(range(rank), degree) for t in labels]
    rng.shuffle(keys)
    return {(tuple(list(idx)), t): poly() for idx, t in keys}


def one_column(stencil, codes, idx, t, mono):
    """The image of theta^idx (x) b_t * x^mono as {row code: value}, read
    from a one-element `rows` batch."""
    return {code: row[0] for code, row in stencil.rows(codes, [((idx, t), mono)]).items()}


def test_algebroids_verified():
    for l in algebroids():
        assert l.verify().verified, l
    l = euler_algebroid()
    assert l.base.derivation_names == ("E", "R")
    assert l.structure == {(0, 1): (0, 1)}


def test_covariant_d_matches_scatter_and_gather():
    rng = random.Random(211)
    for l in algebroids():
        for degree in range(l.rank + 1):
            for _ in range(4):
                coeffs = {(idx, 0): rand_poly(l.base, rng, 3)
                          for idx in combinations(range(l.rank), degree)
                          if rng.random() < 0.7}
                got = covariant_d(l, coeffs)
                assert got == scatter_covariant_d(l, coeffs)
                assert all(not v.is_zero() for v in got.values())
                theta = LForm(l, degree, {idx: v for (idx, _), v in coeffs.items()})
                assert got == {(idx, 0): v
                               for idx, v in gather_d_form(theta).coeffs.items()}
            # two module labels, their terms interleaved in non-ascending
            # tuple order: each label is a copy of the form differential
            coeffs = shuffled_terms(rng, l.rank, degree, ("a", "b"),
                                    lambda: rand_poly(l.base, rng, 3))
            got = covariant_d(l, coeffs)
            assert got == scatter_covariant_d(l, coeffs)
            for t in ("a", "b"):
                theta = LForm(l, degree, {idx: v for (idx, s), v in coeffs.items() if s == t})
                assert {idx: v for (idx, s), v in got.items() if s == t} == \
                    gather_d_form(theta).coeffs


def test_connection_kernel_matches_scatter_and_gather():
    rng = random.Random(223)
    for l in algebroids():
        c = rank2_connection(l, rng)
        mats = sparse_columns(c)
        stencil = compile_d(l, mats)
        for degree in range(l.rank + 1):
            for _ in range(3):
                coeffs = {(idx, t): rand_poly(l.base, rng, 2)
                          for idx in combinations(range(l.rank), degree)
                          for t in range(2) if rng.random() < 0.7}
                expected = scatter_covariant_d(l, coeffs, mats)
                assert covariant_d(l, coeffs, mats) == expected
                assert stencil.apply(coeffs) == expected
                omega = EValuedForm(l, 2, degree, {
                    idx: [coeffs.get((idx, t), 0) for t in range(2)]
                    for idx in combinations(range(l.rank), degree)})
                assert (extend_connection(c, omega).coeffs
                        == gather_extend_connection(c, omega).coeffs)
            coeffs = shuffled_terms(rng, l.rank, degree, (0, 1),
                                    lambda: rand_poly(l.base, rng, 2))
            expected = scatter_covariant_d(l, coeffs, mats)
            assert covariant_d(l, coeffs, mats) == expected
            assert stencil.apply(coeffs) == expected


def test_columns_match_scatter_monomial_by_monomial():
    rng = random.Random(227)
    for l in algebroids():
        ring = l.base
        mats = sparse_columns(rank2_connection(l, rng))
        plain, twisted = compile_d(l), compile_d(l, mats)
        assert compile_d(l) is plain           # kept on the algebroid
        for degree in range(l.rank + 1):
            for idx in combinations(range(l.rank), degree):
                for _ in range(3):
                    mono = tuple(rng.randint(-3 if v in ring.laurent else 0, 3)
                                 for v in ring.variables)
                    basis = ring.monomial(mono)
                    for stencil, matrices, labels in ((plain, None, [0]),
                                                      (twisted, mats, [0, 1])):
                        codes = label_codes(stencil, labels, 3)
                        for t in labels:
                            (want,) = flatten_columns(
                                [scatter_covariant_d(l, {(idx, t): basis}, matrices)],
                                lambda key, m: (key, m))
                            got = decode_column(codes, one_column(stencil, codes, idx, t, mono))
                            assert got == stencil_column(stencil, idx, t, mono) == want


@pytest.mark.parametrize("window", [TruncationWindow(2, 1), TruncationWindow(3, 2)])
def test_differential_entries_match_oracle_columns(window):
    for l in algebroids():
        ring = l.base
        complex_ = _ce_complex(l)
        codes = complex_.codes(window.bound(ring))
        for p in range(l.rank + 1):
            basis = complex_.basis(p, window)
            want = flatten_columns(
                [scatter_covariant_d(l, {key: ring.monomial(m)})
                 for key, m in basis], lambda key, m: (key, m))
            assert [decode_column(codes, col)
                    for col in complex_columns(complex_, codes, basis)] == want
            assert [stencil_column(compile_d(l), idx, 0, m) for (idx, _), m in basis] == want
            gathered = flatten_columns(
                [gather_d_form(LForm(l, p, {idx: ring.monomial(m)})).coeffs
                 for (idx, _), m in basis], lambda idx, m: ((idx, 0), m))
            assert want == gathered


def test_total_columns_match_gather_columns():
    """The oracle total complex's columns, on a fresh slice and on one
    that has run commutation_check, are d1 + (-1)^p d2 of the gather
    differentials, and so is every row of d1 and d2 they merge."""
    for m in matched_pairs():
        ring = m.l1.base
        n1 = m.l1.rank
        top = n1 + m.l2.rank
        window = TruncationWindow(2, 2)
        warm = DoubleComplexSlice(m, top, window)
        assert warm.commutation_check() is None
        assert_rows_match_gather(warm)
        complexes = [total_complex(DoubleComplexSlice(m, top, window)),
                     total_complex(warm)]

        monos = window.monomials(ring)
        for n in range(top + 1):
            basis = complexes[0].basis(n, window)
            # keyed (I, J), in the twilled sum's order of merged tuples
            assert [i1 + tuple(n1 + j for j in i2) for (i1, i2), _ in basis[::len(monos)]] \
                == list(combinations(range(top), n))
            want = []
            for (i1, i2), mono in basis:
                p, q = len(i1), len(i2)
                term = {(i1, i2): ring.monomial(mono)}
                col = {(key, mm): c for key, val in gather_d1(m, p, q, term).items()
                       for mm, c in val.terms.items()}
                col.update({(key, mm): (-1) ** p * c
                            for key, val in gather_d2(m, p, q, term).items()
                            for mm, c in val.terms.items()})
                want.append(col)
            for complex_ in complexes:
                codes = complex_.codes(window.bound(ring))
                assert [decode_column(codes, col)
                        for col in complex_columns(complex_, codes, basis)] == want


def test_cech_chart_columns_match_scatter():
    """The chart equations d eta_a of coboundary_test, on a cover of
    unglued charts of rank 2 and 3, column by column."""
    charts = [(l.base, l) for l in algebroids()]
    cover = Cover(charts, {})
    window = TruncationWindow(2, 2)
    result, cols, _ = recorded_coboundary_system(cover, zero_pair(cover),
                                                 zero_pair(cover), window)
    assert result.status == "equivalent"
    want = []
    for a, (ring, l) in enumerate(charts):
        for i in range(l.rank):
            for mono in window.monomials(ring):
                image = scatter_covariant_d(l, {((i,), 0): ring.monomial(mono)})
                want.extend(flatten_columns(
                    [image], lambda key, m, a=a: ("ch", a, key[0], m)))
    assert cols == want


def test_column_values_are_int_on_integer_data():
    # integer algebroids give int columns; rational data and connections
    # give int or Fraction, never a float
    rng = random.Random(229)
    r3 = poly_ring("x", "y", "z")
    x, y, z = (r3.var(v) for v in ("x", "y", "z"))
    halves = make_poisson(r3, {(0, 1): z * Fraction(1, 2), (1, 2): x * Fraction(1, 3),
                               (2, 0): y * Fraction(1, 6)})
    for l in list(algebroids()) + [halves]:
        ring = l.base
        integral = l is not halves
        mats = sparse_columns(rank2_connection(l, rng))
        for stencil, labels in ((compile_d(l), [0]), (compile_d(l, mats), [0, 1])):
            for degree in range(l.rank + 1):
                for idx in combinations(range(l.rank), degree):
                    mono = tuple(rng.randint(-2 if v in ring.laurent else 0, 3)
                                 for v in ring.variables)
                    codes = label_codes(stencil, labels, 3)
                    for t in labels:
                        for v in one_column(stencil, codes, idx, t, mono).values():
                            if integral and stencil.matrices is None:
                                assert type(v) is int
                            else:
                                assert type(v) in (int, Fraction)
