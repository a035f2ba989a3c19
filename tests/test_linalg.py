import random
from fractions import Fraction

import pytest

from algebroid.linalg import DimensionError, SparseSystem
from algebroid.rings import RingError

from oracles import (RationalMatrix, fraction_eliminate, is_normal_coefficient,
                     kernel_basis, rank, solve_linear)


def test_rank_one_kernel():
    a = RationalMatrix.from_rows([[1, 1], [2, 2]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert a.mul_vector(v) == [0, 0]
    # spans (1, -1)
    assert v[0] * Fraction(-1) == v[1]


def test_identity_kernel_trivial():
    assert kernel_basis(RationalMatrix.identity(3)) == []


def test_inconsistent_system_certificate():
    a = RationalMatrix.from_rows([[1, 0], [0, 0]])
    res = solve_linear(a, [0, 1])
    assert res.status == "inconsistent"
    y = res.certificate
    # y.A = 0 but y.b != 0
    assert all(sum(y[i] * a.entries[i][j] for i in range(2)) == 0 for j in range(2))
    assert y[0] * 0 + y[1] * 1 != 0


def test_solution_verifies():
    a = RationalMatrix.from_rows([[2, 1], [1, 3]])
    res = solve_linear(a, [Fraction(5), Fraction(10)])
    assert res.status == "solution"
    assert a.mul_vector(res.solution) == [Fraction(5), Fraction(10)]


def test_randomized_solve_and_kernel():
    rng = random.Random(23)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
             for _ in range(n)])
        x = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        b = a.mul_vector(x)
        res = solve_linear(a, b)
        assert res.status == "solution"
        assert a.mul_vector(res.solution) == b
        for v in kernel_basis(a):
            assert a.mul_vector(v) == [0] * n
        assert rank(a) + len(kernel_basis(a)) == m


def test_dimension_mismatch():
    a = RationalMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionError):
        solve_linear(a, [1, 2])


def system_of_rows(rows):
    """The system whose row i is rows[i], with row keys 0..n-1."""
    return SparseSystem.from_columns(
        [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(len(rows[0]))],
        range(len(rows)))


def test_sparse_matches_dense():
    rng = random.Random(31)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(m)] for _ in range(n)]
        a = RationalMatrix.from_rows(rows)
        s = system_of_rows(rows)
        assert s.rank() == rank(a)
        x = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        b = a.mul_vector(x)
        got = s.solve(b)
        assert got is not None
        assert a.mul_vector(got) == b
        if rank(a) < n:
            # build an unreachable rhs when the row space is deficient
            res = solve_linear(a, [Fraction(1)] + [Fraction(0)] * (n - 1))
            sparse_res = s.solve([Fraction(1)] + [Fraction(0)] * (n - 1))
            assert (res.status == "solution") == (sparse_res is not None)

        # the same matrix as tuple-keyed columns: row i is keyed keys[i],
        # which sorts in row order, and relabelled sorts in another order
        keys = [(i % 2, (i, -i)) for i in range(n)]
        keys.sort()
        relabel = dict(zip(keys, rng.sample([("r", t) for t in range(n)], n)))
        cols = [{keys[i]: rows[i][j] for i in range(n) if rows[i][j]}
                for j in range(m)]
        keyed = SparseSystem.from_columns(cols)
        moved = SparseSystem.from_columns(
            [{relabel[k]: c for k, c in col.items()} for col in cols],
            relabel.values())
        assert keyed.rank() == moved.rank() == rank(a)
        inside = set(rng.sample(keys, rng.randint(0, n)))
        outside = RationalMatrix.from_rows(
            [rows[i] for i in range(n) if keys[i] not in inside] or [[0] * m])
        assert keyed.image_rank_inside(inside) == rank(a) - rank(outside)
        assert moved.image_rank_inside({relabel[k] for k in inside}) == \
            rank(a) - rank(outside)
        for rhs in (b, [Fraction(rng.randint(-2, 2)) for _ in range(n)]):
            dense = solve_linear(a, rhs)
            by_key = {keys[i]: rhs[i] for i in range(n) if rhs[i]}
            got = SparseSystem.from_columns(cols, by_key).solve_keyed(by_key)
            got_moved = moved.solve_keyed(
                {relabel[k]: c for k, c in by_key.items()})
            if dense.status == "solution":
                assert got == got_moved == dense.solution
            else:
                assert got is None and got_moved is None


def rand_system(rng, n, m):
    """Rows of a random n x m matrix: integral and non-integral entries,
    about a third of them zero, and one all-zero column when m > 1."""
    empty = rng.randrange(m) if m > 1 else None
    return [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
             if j != empty and rng.random() < 0.65 else Fraction(0)
             for j in range(m)] for _ in range(n)]


def test_integer_elimination_matches_fraction_and_dense():
    rng = random.Random(43)
    for trial in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_system(rng, n, m)
        a = RationalMatrix.from_rows(rows)
        by_set = system_of_rows(rows)
        # integral entries as int, so columns mix int and Fraction values
        cols = [{(i % 3, i): int(v) if v.denominator == 1 else v
                 for i, v in enumerate(rows[t][j] for t in range(n)) if v}
                for j in range(m)]
        keys = [(i % 3, i) for i in range(n)]
        by_cols = SparseSystem.from_columns(cols, keys)

        # the same pivots, and each reduced row a multiple of the Fraction
        # one on the integer-scaled columns
        ref_pivots, ref_rows, _ = fraction_eliminate(by_set.rows, m)
        pivots, int_rows, _, scales = by_set._eliminate()
        assert pivots == ref_pivots
        for got, ref in zip(int_rows, ref_rows):
            assert got.keys() == ref.keys()
            assert all(type(v) is int for v in got.values())
            ratios = {v / (ref[c] * scales.get(c, 1)) for c, v in got.items()}
            assert len(ratios) <= 1
        col_pivots = by_cols._eliminate()[0]
        assert [c for _, c in col_pivots] == [c for _, c in pivots]

        assert by_set.rank() == by_cols.rank() == rank(a)
        inside = set(rng.sample(keys, rng.randint(0, n)))
        outside = RationalMatrix.from_rows(
            [rows[i] for i in range(n) if keys[i] not in inside] or [[0] * m])
        assert by_cols.image_rank_inside(inside) == rank(a) - rank(outside)

        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
        for rhs in (a.mul_vector(x),
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)],
                    [Fraction(0)] * n):
            dense = solve_linear(a, rhs)
            got_set = by_set.solve(rhs)
            got_cols = by_cols.solve_keyed({keys[i]: rhs[i] for i in range(n)})
            if dense.status == "solution":
                assert got_set == got_cols == dense.solution
                # int when integral, else a Fraction with denominator > 1
                assert all(is_normal_coefficient(v) or (type(v) is int and v == 0)
                           for v in got_set + got_cols)
            else:
                assert got_set is None and got_cols is None


def test_inconsistent_integer_systems():
    # a zero row with a nonzero rhs, and a dependent row whose rhs breaks
    # the dependency, each with a rational rhs
    s = SparseSystem.from_columns(
        [{"a": 2, "b": 4}, {"a": Fraction(1, 3), "b": Fraction(2, 3)}], ["c"])
    assert s.rank() == 1
    assert s.solve_keyed({"c": Fraction(1, 2)}) is None
    assert s.solve_keyed({"a": 1, "b": 3}) is None
    assert s.solve_keyed({"a": Fraction(1, 2), "b": 1}) == [Fraction(1, 4), Fraction(0)]
    empty = SparseSystem(2, 3)
    assert empty.rank() == 0
    assert empty.solve([0, 0]) == [Fraction(0)] * 3
    assert empty.solve([0, Fraction(1, 7)]) is None


def test_set_rejects_inexact_values():
    # an inexact entry or right-hand side, not a silently rounded one
    with pytest.raises(RingError):
        SparseSystem.from_columns([{"a": 0.5}]).rank()
    with pytest.raises(RingError):
        SparseSystem.from_columns([{"a": 1}]).solve_keyed({"a": 0.5})
