import random
from fractions import Fraction
from math import gcd

import pytest

from algebroid.rings import RingError

from oracles import (DimensionError, RationalMatrix, fraction_eliminate,
                     image_inside, integer_kernel, is_normal_coefficient,
                     kernel_basis, rank, row_eliminate, solve_linear,
                     system_from_columns)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


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


def system_of_rows(rows, ncols=None):
    """The system whose row i is rows[i], keyed i; a zero row has no key."""
    m = len(rows[0]) if ncols is None else ncols
    return system_from_columns(
        [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(m)])


def solve_vector(system, rhs_by_key):
    """`solve` with column j keyed (j, 0), as a dense vector (zeros as
    int 0); None when there is no solution."""
    (terms,) = system.solve([rhs_by_key], [(j, 0) for j in range(system.ncols)])
    if terms is None:
        return None
    assert all(is_normal_coefficient(v) for t in terms.values() for v in t.values())
    return [terms.get(j, {}).get(0, 0) for j in range(system.ncols)]


def image_from_lows(cols, inside):
    """The image vectors of keyed columns that vanish outside the keys
    `inside`, counted from lows: those rows come first, so a reduced
    column lies inside exactly when its low is one of them."""
    s = system_from_columns(cols, key=lambda k: (k not in inside, k))
    held = sum(k in inside for k in s.row_keys)
    return sum(low < held for low, _ in s.pivots())


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
        got = solve_vector(s, dict(enumerate(b)))
        assert got is not None
        assert a.mul_vector(got) == b
        if rank(a) < n:
            # build an unreachable rhs when the row space is deficient
            res = solve_linear(a, [Fraction(1)] + [Fraction(0)] * (n - 1))
            sparse_res = solve_vector(s, {0: Fraction(1)})
            assert (res.status == "solution") == (sparse_res is not None)

        # the same matrix as tuple-keyed columns: row i is keyed keys[i],
        # which sorts in row order, and relabelled sorts in another order
        keys = [(i % 2, (i, -i)) for i in range(n)]
        keys.sort()
        relabel = dict(zip(keys, rng.sample([("r", t) for t in range(n)], n)))
        cols = [{keys[i]: rows[i][j] for i in range(n) if rows[i][j]}
                for j in range(m)]
        keyed = system_from_columns(cols)
        moved = system_from_columns(
            [{relabel[k]: c for k, c in col.items()} for col in cols])
        assert keyed.rank() == moved.rank() == rank(a)
        inside = set(rng.sample(keys, rng.randint(0, n)))
        outside = RationalMatrix.from_rows(
            [rows[i] for i in range(n) if keys[i] not in inside] or [[0] * m])
        assert image_from_lows(cols, inside) == rank(a) - rank(outside)
        moved_inside = {relabel[k] for k in inside}
        assert image_from_lows([{relabel[k]: c for k, c in col.items()} for col in cols],
                               moved_inside) == rank(a) - rank(outside)
        assert image_inside(cols, inside) == rank(a) - rank(outside)
        for rhs in (b, [Fraction(rng.randint(-2, 2)) for _ in range(n)]):
            dense = solve_linear(a, rhs)
            by_key = {keys[i]: rhs[i] for i in range(n) if rhs[i]}
            got = solve_vector(keyed, by_key)
            got_moved = solve_vector(
                moved, {relabel[k]: c for k, c in by_key.items()})
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
        by_cols = system_from_columns(cols)

        # the reference row eliminator: the pivots of the Fraction one, and
        # each reduced row a multiple of its row on the integer-scaled columns
        ref_pivots, ref_rows, _ = fraction_eliminate(by_set.rows, m)
        row_pivots, int_rows, scales = row_eliminate(by_set.rows, m)
        assert row_pivots == ref_pivots
        for got, ref in zip(int_rows, ref_rows):
            assert got.keys() == ref.keys()
            assert all(type(v) is int for v in got.values())
            ratios = {v / (ref[c] * scales.get(c, 1)) for c, v in got.items()}
            assert len(ratios) <= 1

        # the column reduction: the reference's pivot columns, whatever the
        # row order, each with its own low
        for system in (by_set, by_cols):
            pivots = system.pivots()
            assert [c for _, c in pivots] == [c for _, c in ref_pivots]
            lows = [low for low, _ in pivots]
            assert len(set(lows)) == len(lows)
            assert all(0 <= low < len(system.rows) for low in lows)
        assert by_set.rank() == by_cols.rank() == rank(a)
        inside = set(rng.sample(keys, rng.randint(0, n)))
        outside = RationalMatrix.from_rows(
            [rows[i] for i in range(n) if keys[i] not in inside] or [[0] * m])
        assert image_from_lows(cols, inside) == rank(a) - rank(outside)
        # clearing columns known to depend on the earlier ones changes no pivot
        free = [c for c in range(m) if c not in {c for _, c in ref_pivots}]
        cleared = set(rng.sample(free, rng.randint(0, len(free))))
        assert by_cols.pivots(cleared) == by_cols.pivots()

        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
        for rhs in (a.mul_vector(x),
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)],
                    [Fraction(0)] * n):
            dense = solve_linear(a, rhs)
            got_set = solve_vector(by_set, dict(enumerate(rhs)))
            got_cols = solve_vector(by_cols, {keys[i]: rhs[i] for i in range(n)})
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
    s = system_from_columns(
        [{"a": 2, "b": 4}, {"a": Fraction(1, 3), "b": Fraction(2, 3)}])
    assert s.rank() == 1
    assert solve_vector(s, {"c": Fraction(1, 2)}) is None
    assert solve_vector(s, {"a": 1, "b": 3}) is None
    assert solve_vector(s, {"a": Fraction(1, 2), "b": 1}) == [Fraction(1, 4), Fraction(0)]
    empty = system_from_columns([{}, {}, {}])
    assert empty.rank() == 0
    assert solve_vector(empty, {"a": 0, "b": 0}) == [Fraction(0)] * 3
    assert solve_vector(empty, {"a": 0, "b": Fraction(1, 7)}) is None


@pytest.mark.parametrize("outside", [3, -1, Fraction(2, 5), Fraction(-7, 3)])
def test_solve_outside_every_column(outside):
    # a right-hand side at a key no column touches: a nonzero value (int
    # or Fraction) has no solution, a zero one changes nothing
    s = system_from_columns([{"a": 1}, {"a": 1, "b": Fraction(1, 2)}])
    basis = [("u", 0), ("v", 0)]
    want = {"u": {0: 1}, "v": {0: 2}}
    assert s.solve([{"a": 3, "b": 1}], basis) == [want]
    assert s.solve([{"a": 3, "b": 1, "z": outside}], basis) == [None]
    assert s.solve([{"z": outside}], basis) == [None]
    for zero in (0, Fraction(0)):
        assert s.solve([{"a": 3, "b": 1, "z": zero}], basis) == [want]
        assert s.solve([{"z": zero}], basis) == [{}]


def test_right_hand_sides_solved_together():
    # one elimination for all right-hand sides (none when each has a
    # nonzero value at a key no column touches), each reduced against the
    # system's pivots only: equal inconsistent ones are both inconsistent,
    # and each answer is the answer of its own solve
    rng = random.Random(47)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_system(rng, n, m)
        s = system_of_rows(rows)
        a = RationalMatrix.from_rows(rows)
        rhss = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                rhs = a.mul_vector(x)
            else:
                rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            rhss.append(dict(enumerate(rhs)))
            if rng.random() < 0.3:
                rhss.append(dict(rhss[-1]))
        basis = [(j, 0) for j in range(m)]
        calls = []
        eliminate = s._eliminate

        def counted(*args, **kwargs):
            calls.append(args)
            return eliminate(*args, **kwargs)

        s._eliminate = counted
        together = s.solve(rhss, basis)
        assert len(calls) <= 1
        del s._eliminate
        assert together == [s.solve([rhs], basis)[0] for rhs in rhss]
        for rhs, got in zip(rhss, together):
            dense = solve_linear(a, [rhs[i] for i in range(n)])
            assert (got is None) == (dense.status != "solution")
    inconsistent = {"a": 1, "b": 3}
    s = system_from_columns([{"a": 2, "b": 4}])
    assert s.solve([inconsistent, dict(inconsistent), {"a": 1, "b": 2}],
                   [("u", 0)]) == [None, None, {"u": {0: Fraction(1, 2)}}]


def test_set_rejects_inexact_values():
    # an inexact entry or right-hand side, not a silently rounded one
    with pytest.raises(RingError):
        system_from_columns([{"a": 0.5}]).rank()
    with pytest.raises(RingError):
        system_from_columns([{"a": 1}]).solve([{"a": 0.5}], [(0, 0)])
    with pytest.raises(RingError):
        system_from_columns([{"a": 1}]).solve([{"z": 0.5}], [(0, 0)])


@st.composite
def integer_matrix(draw):
    """(rows, ncols): a random, an all-zero or a full-rank integer matrix,
    any of them with zero rows or zero columns.  A full-rank one is upper
    triangular with a nonzero diagonal, its columns then permuted."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("random", "zero", "full")))
    entry = st.integers(-4, 4)
    if kind == "zero":
        return [[0] * m for _ in range(n)], m
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if kind == "full":
        for i in range(min(n, m)):
            rows[i][:i] = [0] * i
            rows[i][i] = draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1)))
        for i in range(m, n):
            rows[i] = [0] * m
        order = draw(st.permutations(range(m)))
        rows = [[r[j] for j in order] for r in rows]
    return rows, m


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(integer_matrix(), st.sampled_from((1, 1, 2, 6)))
@example(([], 3), 1)                   # no rows
@example(([[], []], 0), 1)             # no columns
@example(([[0, 0, 0], [0, 0, 0]], 3), 2)   # rank 0
@example(([[0, 2, 1], [3, 0, 0]], 3), 1)   # full rank
def test_kernel_matches_dense_reference(matrix, denominator):
    """`kernel` is the dense `integer_kernel`, vector for vector; entries
    divided by a denominator leave the kernel as it is."""
    rows, m = matrix
    s = system_of_rows([[Fraction(v, denominator) for v in r] for r in rows], m)
    got = s.kernel()
    assert tuple(got) == integer_kernel(rows, m)
    a = RationalMatrix(len(rows), m, rows)
    assert len(got) == m - rank(a)
    for v in got:
        assert all(type(x) is int for x in v)
        assert a.mul_vector(v) == [0] * len(rows)
    # one vector per non-pivot column, ascending: positive there, zero at
    # the others, coprime
    free = [c for c in range(m) if c not in {c for _, c in s.pivots()}]
    assert len(got) == len(free)
    for v, f in zip(got, free):
        assert v[f] > 0 and not any(v[c] for c in free if c != f)
        assert gcd(*v) == 1
