"""Exact rational linear algebra.

Every linear system the library solves is a `SparseSystem` built from
keyed sparse columns (`SparseSystem.from_columns`) and reduced by one
sparse eliminator with a fixed deterministic pivot order.  The dense
fraction-free Bareiss routines (`rank`, `kernel_basis`, `solve_linear`)
are kept as the reference the tests compare the sparse path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import (Container, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .rings import as_fraction


class DimensionError(Exception):
    pass


class RationalMatrix:
    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise DimensionError("entry grid does not match declared shape")
            self.entries = [[as_fraction(x) for x in row] for row in entries]

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m.entries[i][i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.entries == other.entries)

    def mul_vector(self, v: Sequence[Fraction]) -> List[Fraction]:
        if len(v) != self.cols:
            raise DimensionError("vector length does not match columns")
        return [sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
                for row in self.entries]

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.rows, self.cols)


def _integer_rows(entries: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in entries:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def _bareiss(rows: List[List[int]]) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Fraction-free forward elimination.

    Returns the echelon rows and the list of (row, col) pivot positions.
    Destructive on `rows`. Division steps are exact by the Bareiss identity.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[Tuple[int, int]] = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        for r in range(pr + 1, nrows):
            factor = rows[r][pc]
            for c in range(ncols):
                rows[r][c] = (rows[r][c] * piv - factor * rows[pr][c]) // prev
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


@dataclass
class LinearSolveResult:
    status: str                       # "solution" | "inconsistent"
    solution: Optional[List[Fraction]] = None
    certificate: Optional[List[Fraction]] = None   # y with y.A = 0, y.b != 0


def solve_linear(a: RationalMatrix, b: Sequence) -> LinearSolveResult:
    """Solve A x = b exactly; on failure return a Fredholm witness y."""
    b = [as_fraction(x) for x in b]
    if len(b) != a.rows:
        raise DimensionError("right-hand side length does not match rows")
    n, m = a.rows, a.cols
    # augmented [A | b | I]: the I block tracks row operations so an
    # inconsistent row yields a left null combination of the original rows.
    aug = []
    for i in range(n):
        row = list(a.entries[i]) + [b[i]] + [Fraction(0)] * n
        row[m + 1 + i] = Fraction(1)
        aug.append(row)
    rows, pivots = _bareiss(_integer_rows(aug))
    a_pivots = [(r, c) for (r, c) in pivots if c < m]
    for r, c in pivots:
        if c == m:  # pivot in the b column: inconsistent row found
            cert = [Fraction(rows[r][m + 1 + j]) for j in range(n)]
            return LinearSolveResult("inconsistent", certificate=cert)
    # back-substitution over the A|b part
    x = [Fraction(0)] * m
    for r, c in reversed(a_pivots):
        s = Fraction(rows[r][m])
        for j in range(c + 1, m):
            if rows[r][j]:
                s -= Fraction(rows[r][j]) * x[j]
        x[c] = s / Fraction(rows[r][c])
    return LinearSolveResult("solution", solution=x)


def kernel_basis(a: RationalMatrix) -> List[List[Fraction]]:
    """Exact basis of the null space, one vector per free column."""
    rows, pivots = _bareiss(_integer_rows(a.entries))
    pivot_cols = [c for (_, c) in pivots]
    free_cols = [c for c in range(a.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, c in reversed(pivots):
            s = Fraction(0)
            for j in range(c + 1, a.cols):
                if rows[r][j]:
                    s -= Fraction(rows[r][j]) * v[j]
            v[c] = s / Fraction(rows[r][c])
        basis.append(v)
    return basis


def rank(a: RationalMatrix) -> int:
    _, pivots = _bareiss(_integer_rows(a.entries))
    return len(pivots)


class SparseSystem:
    """Rows as {column: Fraction}; deterministic sparse elimination.

    Used for the big windowed cochain matrices, which touch only a few
    columns per row. Pivot choice is by ascending column, then sparsest
    eligible row, then lowest row index, so results are reproducible.
    """

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: List[Dict[int, Fraction]] = [dict() for _ in range(nrows)]
        self.row_pos: Dict[Hashable, int] = {}
        self._rank: Optional[int] = None

    @classmethod
    def from_columns(cls, cols: Sequence[Mapping[Hashable, Fraction]],
                     keys: Iterable[Hashable] = ()) -> "SparseSystem":
        """Column j is cols[j], a {row key: value} map; the rows are the
        sorted union of the column keys and `keys`, placed by `row_pos`.
        Rank and the solution `solve` returns depend only on column order.
        """
        row_keys = sorted({k for col in cols for k in col} | set(keys))
        system = cls(len(row_keys), len(cols))
        system.row_pos = {k: t for t, k in enumerate(row_keys)}
        for j, col in enumerate(cols):
            for k, c in col.items():
                system.set(system.row_pos[k], j, c)
        return system

    def set(self, i: int, j: int, value) -> None:
        self._rank = None
        value = as_fraction(value)
        if value == 0:
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = value

    def _eliminate(self, rhs: Optional[List[Fraction]] = None):
        """Forward elimination; returns (pivots, reduced rows, reduced rhs).

        After the sweep every non-pivot row is empty, so consistency and
        back-substitution read off directly.
        """
        rows = [dict(r) for r in self.rows]
        vec = list(rhs) if rhs is not None else None
        col_rows: Dict[int, Set[int]] = {}
        for i, r in enumerate(rows):
            for c in r:
                col_rows.setdefault(c, set()).add(i)
        used = [False] * len(rows)
        pivots: List[Tuple[int, int]] = []
        for c in range(self.ncols):
            holders = [i for i in sorted(col_rows.get(c, ()))
                       if not used[i] and c in rows[i]]
            if not holders:
                continue
            pivot = min(holders, key=lambda i: (len(rows[i]), i))
            used[pivot] = True
            pivots.append((pivot, c))
            pv = rows[pivot][c]
            for i in holders:
                if i == pivot:
                    continue
                factor = rows[i][c] / pv
                for cc, vv in rows[pivot].items():
                    new = rows[i].get(cc, Fraction(0)) - factor * vv
                    if new == 0:
                        if cc in rows[i]:
                            del rows[i][cc]
                            col_rows[cc].discard(i)
                    else:
                        rows[i][cc] = new
                        col_rows.setdefault(cc, set()).add(i)
                if vec is not None:
                    vec[i] = vec[i] - factor * vec[pivot]
        return pivots, rows, vec

    def rank(self) -> int:
        if self._rank is None:
            pivots, _, _ = self._eliminate()
            self._rank = len(pivots)
        return self._rank

    def image_rank_inside(self, inside: Container[Hashable]) -> int:
        """Rank minus the rank left after deleting the rows keyed in
        `inside` (a `from_columns` system): the windowed image dimension."""
        outside = SparseSystem(self.nrows, self.ncols)
        outside.rows = [{} if k in inside else self.rows[t]
                        for k, t in self.row_pos.items()]
        return self.rank() - outside.rank()

    def solve(self, rhs: Sequence) -> Optional[List[Fraction]]:
        """One exact solution of (rows) x = rhs, or None if inconsistent."""
        if len(rhs) != self.nrows:
            raise DimensionError("rhs length does not match rows")
        pivots, rows, vec = self._eliminate([as_fraction(x) for x in rhs])
        pivot_rows = {i for (i, _) in pivots}
        for i in range(self.nrows):
            if i not in pivot_rows and vec[i] != 0:
                return None
        x = [Fraction(0)] * self.ncols
        for i, c in reversed(pivots):
            s = vec[i]
            for cc, vv in rows[i].items():
                if cc != c:
                    s -= vv * x[cc]
            x[c] = s / rows[i][c]
        return x

    def solve_keyed(self, rhs_by_key: Mapping[Hashable, Fraction]
                    ) -> Optional[List[Fraction]]:
        """`solve` with the right-hand side given as {row key: value};
        keys not named are zero."""
        rhs = [Fraction(0)] * self.nrows
        for k, v in rhs_by_key.items():
            rhs[self.row_pos[k]] = v
        return self.solve(rhs)
