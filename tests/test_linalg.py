import random
from fractions import Fraction

import pytest

from algebroid.linalg import (DimensionError, RationalMatrix, SparseSystem,
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


def test_sparse_matches_dense():
    rng = random.Random(31)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(m)] for _ in range(n)]
        a = RationalMatrix.from_rows(rows)
        s = SparseSystem(n, m)
        for i in range(n):
            for j in range(m):
                if rows[i][j]:
                    s.set(i, j, rows[i][j])
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
