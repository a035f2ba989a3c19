"""Exact rational linear algebra.

Every linear system the library solves is a `SparseSystem` built from
keyed sparse columns (`SparseSystem.from_columns`) and reduced by one
sparse eliminator with a fixed deterministic pivot order.  Elimination
runs on integers: each column is scaled by the lcm of its denominators,
rows are combined fraction-free and divided by their content, and only
back-substitution returns to `Fraction`; solutions come back as `int`
where they are integral (`rings.as_fraction`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (Container, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .rings import Coefficient, as_fraction


class DimensionError(Exception):
    pass


def _scale_columns(rows: List[Dict[int, Fraction]]) -> Dict[int, int]:
    """Multiply each column by the lcm of its denominators, in place;
    returns the multipliers other than 1."""
    scales: Dict[int, int] = {}
    for r in rows:
        for c, v in r.items():
            if type(v) is not int:
                d = as_fraction(v).denominator
                if d != 1:
                    s = scales.get(c, 1)
                    scales[c] = s * d // gcd(s, d)
    for r in rows:
        for c, v in r.items():
            s = scales.get(c, 1)
            if type(v) is not int:
                r[c] = v.numerator * (s // v.denominator)
            elif s != 1:
                r[c] = v * s
    return scales


class SparseSystem:
    """Rows as {column: exact rational}; deterministic sparse elimination.

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
        pos = system.row_pos = {k: t for t, k in enumerate(row_keys)}
        rows = system.rows
        for j, col in enumerate(cols):
            for k, c in col.items():
                if c:
                    rows[pos[k]][j] = c
        return system

    def _eliminate(self, rhs: Optional[List[int]] = None):
        """Forward elimination on the integer-scaled columns; returns
        (pivots, reduced rows, reduced rhs, column scales).

        What is reduced is the system with column c multiplied by
        scales.get(c, 1), and the integer `rhs`.  After the sweep every
        non-pivot row is empty, so consistency and back-substitution read
        off directly.
        """
        rows = [dict(r) for r in self.rows]
        col_rows: Dict[int, Set[int]] = {}
        integral = True
        for i, r in enumerate(rows):
            for c, v in r.items():
                col_rows.setdefault(c, set()).add(i)
                if type(v) is not int:
                    integral = False
        scales = {} if integral else _scale_columns(rows)
        vec = list(rhs) if rhs is not None else None
        used = [False] * len(rows)
        pivots: List[Tuple[int, int]] = []
        # fill-in only reaches columns of the pivot row, so no key is added
        for c in sorted(col_rows):
            holders = [i for i in col_rows[c] if not used[i]]
            if not holders:
                continue
            if len(holders) == 1:
                pivot = holders[0]
                used[pivot] = True
                pivots.append((pivot, c))
                continue
            holders.sort()
            pivot = min(holders, key=lambda i: len(rows[i]))
            used[pivot] = True
            pivots.append((pivot, c))
            prow = rows[pivot]
            pv = prow[c]
            for i in holders:
                if i == pivot:
                    continue
                # row_i := (pv * row_i - f * row_pivot) / gcd(pv, f), then
                # divided by its content; the same zero pattern as over Q
                row = rows[i]
                f = row[c]
                g = gcd(pv, f)
                a, b = pv // g, f // g
                if a != 1:
                    for cc in row:
                        row[cc] *= a
                for cc, vv in prow.items():
                    new = row.get(cc, 0) - b * vv
                    if new:
                        row[cc] = new
                        col_rows.setdefault(cc, set()).add(i)
                    elif cc in row:
                        del row[cc]
                        col_rows[cc].discard(i)
                if vec is not None:
                    vec[i] = a * vec[i] - b * vec[pivot]
                    content = gcd(vec[i], *row.values())
                else:
                    content = gcd(*row.values())
                if content > 1:
                    for cc in row:
                        row[cc] //= content
                    if vec is not None:
                        vec[i] //= content
        return pivots, rows, vec, scales

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len(self._eliminate()[0])
        return self._rank

    def pivot_columns(self) -> List[int]:
        """The columns independent of the columns before them, ascending:
        in a block-diagonal system, the pivots of each block."""
        return [c for _, c in self._eliminate()[0]]

    def image_rank_inside(self, inside: Container[Hashable]) -> int:
        """Rank minus the rank left after deleting the rows keyed in
        `inside` (a `from_columns` system): the windowed image dimension."""
        outside = SparseSystem(self.nrows, self.ncols)
        outside.rows = [{} if k in inside else self.rows[t]
                        for k, t in self.row_pos.items()]
        return self.rank() - outside.rank()

    def solve(self, rhs: Sequence) -> Optional[List[Coefficient]]:
        """One exact solution of (rows) x = rhs, or None if inconsistent;
        each value an int when integral, otherwise a Fraction."""
        if len(rhs) != self.nrows:
            raise DimensionError("rhs length does not match rows")
        column = [{0: v} for v in rhs]
        rhs_scale = _scale_columns(column).get(0, 1)
        pivots, rows, vec, scales = self._eliminate([r[0] for r in column])
        pivot_rows = {i for (i, _) in pivots}
        for i in range(self.nrows):
            if i not in pivot_rows and vec[i] != 0:
                return None
        # y solves the scaled system; x_c = scales[c] * y_c / rhs_scale
        y = [Fraction(0)] * self.ncols
        for i, c in reversed(pivots):
            s = Fraction(vec[i])
            for cc, vv in rows[i].items():
                if cc != c and y[cc]:
                    s -= vv * y[cc]
            y[c] = s / rows[i][c]
        return [as_fraction(v * scales.get(c, 1) / rhs_scale) if v else 0
                for c, v in enumerate(y)]

    def solve_keyed(self, rhs_by_key: Mapping[Hashable, Coefficient]
                    ) -> Optional[List[Coefficient]]:
        """`solve` with the right-hand side given as {row key: value};
        keys not named are zero."""
        rhs = [0] * self.nrows
        for k, v in rhs_by_key.items():
            rhs[self.row_pos[k]] = v
        return self.solve(rhs)

    def solve_terms(self, rhs_by_key: Mapping[Hashable, Coefficient],
                    basis: Sequence[Tuple[Hashable, Hashable]]
                    ) -> Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]:
        """`solve_keyed`, grouped: column j is keyed basis[j] = (label,
        monomial) and the nonzero solution comes back as {label:
        {monomial: value}}; None when the system has no solution."""
        sol = self.solve_keyed(rhs_by_key)
        if sol is None:
            return None
        terms: Dict[Hashable, Dict[Hashable, Coefficient]] = {}
        for (label, mono), c in zip(basis, sol):
            if c:
                terms.setdefault(label, {})[mono] = c
        return terms
