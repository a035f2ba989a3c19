"""Exact rational linear algebra.

Every linear system the library solves is a `SparseSystem`, built from
keyed sparse rows (`from_rows`: the windowed cochain systems, the Cech
ones among them, key theirs by the integer row codes of
`forms.RowCodes`, or in `dims` by the column of each row in the next
degree's basis), and reduced by one routine, the column reduction of
persistent homology (Zomorodian & Carlsson, DCG 33, 2005): each column in
turn is reduced by the earlier reduced columns until it is zero or its
low, its last nonzero row in the row order the caller gives, is new.
The nonzero reduced columns are the pivot columns, each independent of
the columns before it, and their lows are distinct: the image vectors of
a column prefix that lie in the first k rows are spanned by its reduced
columns with low below k.  Columns are scaled to integers by the lcm of
their denominators and combined fraction-free; solutions come back as
`int` where they are integral (`rings.as_fraction`).  For a kernel or a
solution each column also carries its transform, the combination of
input columns it has been reduced to: that of a column reducing to zero
is a kernel vector (`forms.Stencil.weights` reads its lattice from
them), and each right-hand side is reduced as one more column, against
the pivot columns only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (Collection, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from .rings import Coefficient, as_fraction


def _scale_columns(cols: List[Dict[int, Coefficient]]) -> Dict[int, int]:
    """Multiply each column by the lcm of its denominators, in place;
    returns the multipliers other than 1."""
    scales: Dict[int, int] = {}
    for c, col in enumerate(cols):
        s = 1
        for v in col.values():
            if type(v) is not int:
                d = as_fraction(v).denominator
                s = s * d // gcd(s, d)
        for r, v in col.items():
            if type(v) is not int:
                col[r] = v.numerator * (s // v.denominator)
            elif s != 1:
                col[r] = v * s
        if s != 1:
            scales[c] = s
    return scales


def _combine(col: Dict[int, int], a: int, other: Dict[int, int], b: int) -> None:
    """col := a * col - b * other, in place."""
    if a != 1:
        for r in col:
            col[r] *= a
    for r, v in other.items():
        new = col.get(r, 0) - b * v
        if new:
            col[r] = new
        else:
            del col[r]


class SparseSystem:
    """Rows as {column: exact rational}, reduced column by column.

    `rows[t]` is row t of the input and `row_keys[t]` its key when the
    system was built from keyed rows; the row order is the
    order of `rows`, and it decides the lows of the reduced columns.
    Rank, the pivot columns, the kernel and the solution `solve` returns
    depend only on column order.
    """

    def __init__(self, rows: List[Dict[int, Coefficient]], ncols: int,
                 row_keys: Sequence[Hashable] = ()):
        self.rows = rows
        self.ncols = ncols
        self.row_keys = row_keys

    @classmethod
    def from_rows(cls, rows: Mapping[Hashable, Dict[int, Coefficient]],
                  ncols: int) -> "SparseSystem":
        """Row t is rows[k] for the t-th smallest key k, used as given (so
        without zero values)."""
        keys = sorted(rows)
        return cls([rows[k] for k in keys], ncols, keys)

    def _eliminate(self, rhs: Sequence[Mapping[int, Coefficient]] = (),
                   clear: Collection[int] = (), transforms: bool = False):
        """Column reduction of the integer-scaled columns; returns
        (pivots, relations, column scales).

        `pivots` holds (low, column) of each nonzero reduced column, by
        column, of the system with column c multiplied by scales.get(c, 1).
        rhs[k], {row: value}, joins it as column ncols + k, reduced against
        the pivot columns only.  The columns in `clear` must depend on the
        columns before them; they are skipped, which leaves the pivots as
        they are.  With `transforms` or a right-hand side, `relations` maps
        each column that reduces to zero to its transform {column: int}, a
        relation among the scaled columns, nonzero at its own column and
        otherwise supported on pivot columns; else it is empty.
        """
        n = self.ncols
        cols: List[Dict[int, Coefficient]] = [{} for _ in range(n + len(rhs))]
        integral = True
        for t, row in enumerate(self.rows):
            for c, v in row.items():
                cols[c][t] = v
                if type(v) is not int:
                    integral = False
        for k, col in enumerate(rhs):
            cols[n + k] = {t: v for t, v in col.items() if v}
        scales = _scale_columns(cols) if not integral or rhs else {}
        track = transforms or bool(rhs)
        reduced: Dict[int, Tuple[Dict[int, int], Optional[Dict[int, int]]]] = {}
        pivots: List[Tuple[int, int]] = []
        relations: Dict[int, Dict[int, int]] = {}
        for j, col in enumerate(cols):
            if j in clear:
                continue
            vec = {j: 1} if track else None
            while col:
                low = max(col)
                hit = reduced.get(low)
                if hit is None:
                    break
                pcol, pvec = hit
                pv, f = pcol[low], col[low]
                g = gcd(pv, f)
                a, b = pv // g, f // g
                _combine(col, a, pcol, b)
                if track:
                    _combine(vec, a, pvec, b)
                if a != 1 and col:
                    parts = (col, vec) if track else (col,)
                    content = gcd(*(v for part in parts for v in part.values()))
                    for part in parts if content > 1 else ():
                        for r in part:
                            part[r] //= content
            if not col:
                if track:
                    relations[j] = vec
            elif j < n:
                reduced[low] = (col, vec)
                pivots.append((low, j))
        return pivots, relations, scales

    def pivots(self, clear: Collection[int] = ()) -> List[Tuple[int, int]]:
        """(low row, column) of each pivot column, ascending by column.
        The pivot columns are the columns independent of the columns
        before them, in a block-diagonal system the pivots of each block.
        The columns in `clear` must be known to depend on the columns
        before them; they are skipped."""
        return self._eliminate(clear=clear)[0]

    def rank(self) -> int:
        return len(self.pivots())

    def kernel(self) -> List[Tuple[int, ...]]:
        """The primitive integer basis of the kernel: one vector per
        non-pivot column, ascending, zero at the other non-pivot columns,
        with coprime entries and positive at its own column.  It is the
        transform of that column, which reduces to zero."""
        _, relations, scales = self._eliminate(transforms=True)
        basis = []
        for free, vec in relations.items():
            v = [0] * self.ncols        # scales * vec: a relation among the columns
            for c, x in vec.items():
                v[c] = x * scales.get(c, 1)
            g = gcd(*v) if v[free] > 0 else -gcd(*v)
            basis.append(tuple(v) if g == 1 else tuple(x // g for x in v))
        return basis

    def solve(self, rhss: Sequence[Mapping[Hashable, Coefficient]],
              basis: Sequence[Tuple[Hashable, Hashable]]
              ) -> List[Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]]:
        """One exact solution of (rows) x = rhs for each right-hand side,
        all from one reduction, zero at every non-pivot column.  Each is
        given as {row key: value} (keys not named are zero) and column j
        is keyed basis[j] = (label, monomial).  A nonzero solution comes
        back as {label: {monomial: value}}, each value an int when
        integral, otherwise a Fraction; None when there is no solution, as
        when a nonzero value sits at a key that no column touches."""
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
        _, relations, scales = self._eliminate([col or {} for col in cols])
        out: List[Optional[Dict[Hashable, Dict[Hashable, Coefficient]]]] = []
        for k, col in enumerate(cols):
            r = self.ncols + k
            vec = relations.get(r)
            if col is None or vec is None:
                out.append(None)
                continue
            # (scaled columns) vec = 0 with vec[r] != 0, so
            # x_c = -scales[c] * vec[c] / (scales[r] * vec[r])
            den = -vec.pop(r) * scales.get(r, 1)
            terms: Dict[Hashable, Dict[Hashable, Coefficient]] = {}
            for c in sorted(vec):
                label, mono = basis[c]
                terms.setdefault(label, {})[mono] = as_fraction(
                    Fraction(vec[c] * scales.get(c, 1), den))
            out.append(terms)
        return out
