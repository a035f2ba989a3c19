"""Exact rational linear algebra.

Every linear system the library solves is a `SparseSystem`, built from
keyed sparse rows (`SparseSystem.from_rows`; the windowed cochain
systems key theirs by the integer row codes of `forms.RowCodes`) or
from keyed sparse columns (`SparseSystem.from_columns`, which transposes
them into rows), and reduced by one sparse eliminator with a fixed
deterministic pivot order.  Elimination runs on integers: each column is
scaled by the lcm of its denominators, rows are combined fraction-free
and divided by their content, and only back-substitution returns to
`Fraction`; solutions come back as `int` where they are integral
(`rings.as_fraction`).  Each right-hand side is eliminated as one more
column, reduced against the system's own pivots only.  The same
elimination gives the primitive integer kernel basis
(`SparseSystem.kernel`), from which `forms.Stencil.weights` reads its
grading lattice.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import (Container, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .rings import Coefficient, as_fraction


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
    `row_keys[t]` is the key of row t when the system was built from
    keyed rows or columns.
    """

    def __init__(self, rows: List[Dict[int, Coefficient]], ncols: int,
                 row_keys: Sequence[Hashable] = ()):
        self.rows = rows
        self.ncols = ncols
        self.row_keys = row_keys
        self._rank: Optional[int] = None

    @classmethod
    def from_rows(cls, rows: Mapping[Hashable, Dict[int, Coefficient]],
                  ncols: int) -> "SparseSystem":
        """Row t is rows[k] for the t-th smallest key k, used as given (so
        without zero values).  Rank, the kernel and the solution `solve`
        returns depend only on column order."""
        keys = sorted(rows)
        return cls([rows[k] for k in keys], ncols, keys)

    @classmethod
    def from_columns(cls, cols: Sequence[Mapping[Hashable, Coefficient]]
                     ) -> "SparseSystem":
        """Column j is cols[j], a {row key: value} map; the rows are the
        sorted union of the column keys."""
        rows: Dict[Hashable, Dict[int, Coefficient]] = defaultdict(dict)
        for j, col in enumerate(cols):
            for k, c in col.items():
                if c:
                    rows[k][j] = c
        return cls.from_rows(rows, len(cols))

    def _eliminate(self, rhs: Sequence[Mapping[int, Coefficient]] = ()):
        """Forward elimination on the integer-scaled columns; returns
        (pivots, reduced rows, column scales).

        What is reduced is the system with column c multiplied by
        scales.get(c, 1).  The right-hand side rhs[k], {row: value}, joins
        it as column ncols + k; only the system's own columns are pivoted,
        so each right-hand side is reduced against those pivots and never
        against another one.  After the sweep every non-pivot row holds
        right-hand-side columns only, so back-substitution reads off
        directly and rhs[k] is inconsistent exactly when a non-pivot row
        holds column ncols + k.
        """
        rows = [dict(r) for r in self.rows]
        for k, col in enumerate(rhs):
            for t, v in col.items():
                if v:
                    rows[t][self.ncols + k] = v
        col_rows: Dict[int, Set[int]] = defaultdict(set)
        integral = True
        for i, r in enumerate(rows):
            for c, v in r.items():
                col_rows[c].add(i)
                if type(v) is not int:
                    integral = False
        scales = {} if integral else _scale_columns(rows)
        used = [False] * len(rows)
        pivots: List[Tuple[int, int]] = []
        # fill-in only reaches columns of the pivot row, so no key is added
        for c in sorted(col_rows):
            if c >= self.ncols:
                break
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
                        col_rows[cc].add(i)
                    elif cc in row:
                        del row[cc]
                        col_rows[cc].discard(i)
                content = gcd(*row.values())
                if content > 1:
                    for cc in row:
                        row[cc] //= content
        return pivots, rows, scales

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
        `inside`: the windowed image dimension."""
        outside = SparseSystem([{} if k in inside else row
                                for k, row in zip(self.row_keys, self.rows)], self.ncols)
        return self.rank() - outside.rank()

    def kernel(self) -> List[Tuple[int, ...]]:
        """The primitive integer basis of the kernel: one vector per
        non-pivot column, ascending, zero at the other non-pivot columns,
        with coprime entries and positive at its own column.  Back-substitution stays
        fraction-free: the vector is rescaled at each pivot instead."""
        pivots, rows, scales = self._eliminate()
        back = [(c, rows[i][c], rows[i].items()) for i, c in reversed(pivots)]
        basis = []
        for free in sorted(set(range(self.ncols)) - {c for _, c in pivots}):
            v = [0] * self.ncols
            v[free] = 1
            for c, p, items in back:
                s = 0
                for cc, vv in items:
                    if v[cc]:
                        s -= vv * v[cc]
                if s:
                    g = gcd(s, p)
                    if p != g:
                        v = [x * (p // g) for x in v]
                    v[c] = s // g
            # v solves the scaled system; the kernel vector is scales * v
            if scales:
                v = [x * scales.get(c, 1) for c, x in enumerate(v)]
            g = gcd(*v) if v[free] > 0 else -gcd(*v)
            basis.append(tuple(v) if g == 1 else tuple(x // g for x in v))
        return basis

    def solve(self, rhss: Sequence[Mapping[Hashable, Coefficient]],
              basis: Sequence[Tuple[Hashable, Hashable]]
              ) -> List[Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]]:
        """One exact solution of (rows) x = rhs for each right-hand side,
        all from one elimination.  Each is given as {row key: value} (keys
        not named are zero) and column j is keyed basis[j] = (label,
        monomial).  A nonzero solution comes back as {label: {monomial:
        value}}, each value an int when integral, otherwise a Fraction;
        None when there is no solution, as when a nonzero value sits at a
        key that no column touches."""
        pos = {k: t for t, k in enumerate(self.row_keys)}
        cols: List[Optional[Dict[int, Coefficient]]] = []
        for rhs_by_key in rhss:
            col: Optional[Dict[int, Coefficient]] = {}
            for k, v in rhs_by_key.items():
                if k in pos:
                    col[pos[k]] = v
                elif as_fraction(v):
                    col = None
                    break
            cols.append(col)
        if all(col is None for col in cols):
            return cols
        m = self.ncols
        pivots, rows, scales = self._eliminate([col or {} for col in cols])
        pivot_rows = {i for i, _ in pivots}
        # the right-hand-side columns that a non-pivot row still holds
        unsolved = {c for i, row in enumerate(rows) if i not in pivot_rows for c in row}
        out: List[Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]] = []
        for k, col in enumerate(cols):
            r = m + k
            if col is None or r in unsolved:
                out.append(None)
                continue
            # y solves the scaled system; x_c = scales[c] * y_c / scales[r]
            y = [Fraction(0)] * (m + len(cols))
            for i, c in reversed(pivots):
                s = Fraction(rows[i].get(r, 0))
                for cc, vv in rows[i].items():
                    if cc != c and y[cc]:
                        s -= vv * y[cc]
                y[c] = s / rows[i][c]
            terms: Dict[Hashable, Dict[Hashable, Coefficient]] = {}
            for c, ((label, mono), v) in enumerate(zip(basis, y)):
                if v:
                    terms.setdefault(label, {})[mono] = as_fraction(
                        v * scales.get(c, 1) / scales.get(r, 1))
            out.append(terms)
        return out
