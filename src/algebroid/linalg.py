"""Exact rational linear algebra.

Every linear system the library solves is a `SparseSystem` built from
keyed sparse columns (`SparseSystem.from_columns`) and reduced by one
sparse eliminator with a fixed deterministic pivot order.  Elimination
runs on integers: each column is scaled by the lcm of its denominators,
rows are combined fraction-free and divided by their content, and only
back-substitution returns to `Fraction`; solutions come back as `int`
where they are integral (`rings.as_fraction`).  A right-hand side is
eliminated as one more column.  The same elimination gives the
primitive integer kernel basis (`SparseSystem.kernel`), from which
`forms.Stencil.weights` reads its grading lattice.
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
    """

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: List[Dict[int, Fraction]] = [dict() for _ in range(nrows)]
        self.row_pos: Dict[Hashable, int] = {}
        self._rank: Optional[int] = None

    @classmethod
    def from_columns(cls, cols: Sequence[Mapping[Hashable, Fraction]]
                     ) -> "SparseSystem":
        """Column j is cols[j], a {row key: value} map; the rows are the
        sorted union of the column keys, placed by `row_pos`.  Rank, the
        kernel and the solution `solve` returns depend only on column order.
        """
        row_keys = sorted({k for col in cols for k in col})
        system = cls(len(row_keys), len(cols))
        pos = system.row_pos = {k: t for t, k in enumerate(row_keys)}
        rows = system.rows
        for j, col in enumerate(cols):
            for k, c in col.items():
                if c:
                    rows[pos[k]][j] = c
        return system

    def _eliminate(self, rhs: Optional[Mapping[int, Coefficient]] = None):
        """Forward elimination on the integer-scaled columns; returns
        (pivots, reduced rows, column scales).

        What is reduced is the system with column c multiplied by
        scales.get(c, 1).  A right-hand side {row: value} joins it as the
        last column, `ncols`, so the system is inconsistent exactly when
        that column holds a pivot.  After the sweep every non-pivot row is
        empty, so back-substitution reads off directly.
        """
        rows = [dict(r) for r in self.rows]
        for t, v in (rhs or {}).items():
            if v:
                rows[t][self.ncols] = v
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
        `inside` (a `from_columns` system): the windowed image dimension."""
        outside = SparseSystem(self.nrows, self.ncols)
        outside.rows = [{} if k in inside else self.rows[t]
                        for k, t in self.row_pos.items()]
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

    def solve(self, rhs_by_key: Mapping[Hashable, Coefficient],
              basis: Sequence[Tuple[Hashable, Hashable]]
              ) -> Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]:
        """One exact solution of (rows) x = rhs, with the right-hand side
        given as {row key: value} (keys not named are zero) and column j
        keyed basis[j] = (label, monomial).  The nonzero solution comes
        back as {label: {monomial: value}}, each value an int when
        integral, otherwise a Fraction; None when there is no solution,
        as when a nonzero value sits at a key that no column touches."""
        rhs, m = {}, self.ncols
        for k, v in rhs_by_key.items():
            if k in self.row_pos:
                rhs[self.row_pos[k]] = v
            elif as_fraction(v):
                return None
        pivots, rows, scales = self._eliminate(rhs)
        if pivots and pivots[-1][1] == m:
            return None
        # y solves the scaled system; x_c = scales[c] * y_c / scales[m]
        y = [Fraction(0)] * (m + 1)
        for i, c in reversed(pivots):
            s = Fraction(rows[i].get(m, 0))
            for cc, vv in rows[i].items():
                if cc != c and y[cc]:
                    s -= vv * y[cc]
            y[c] = s / rows[i][c]
        terms: Dict[Hashable, Dict[Hashable, Coefficient]] = {}
        for c, ((label, mono), v) in enumerate(zip(basis, y)):
            if v:
                terms.setdefault(label, {})[mono] = as_fraction(
                    v * scales.get(c, 1) / scales.get(m, 1))
        return terms
