"""Connections along an algebroid on free modules: curvature, flatness,
the extension to module-valued forms, and trace forms of the curvature.

A connection on a rank-r module stores one r x r matrix per basis
direction; the full covariant operator along e_i applies the anchor
derivation entrywise and then the matrix, which satisfies the Leibniz
rule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (Algebroid, AlgebroidMorphism, InputError, InternalError,
                   Section, StructureError)
from .forms import (ExactnessResult, IndexTuple, LForm, TruncationWindow,
                    covariant_d, exactness_solve, sort_with_sign)
from .rings import RingElement

Matrix = Tuple[Tuple[RingElement, ...], ...]


def _as_matrix(l: Algebroid, rank: int, rows: Sequence[Sequence]) -> Matrix:
    if len(rows) != rank or any(len(r) != rank for r in rows):
        raise StructureError("connection matrices must be %d x %d" % (rank, rank))
    return tuple(tuple(l.base._coerce(x) for x in row) for row in rows)


def _mat_mul(a: Matrix, b: Matrix, zero) -> Matrix:
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), zero)
                       for j in range(n)) for i in range(n))


def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(f, a: Matrix) -> Matrix:
    return tuple(tuple(f * x for x in row) for row in a)


def _mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


class Connection:
    """Per-direction operator matrices A_i over the base ring; the operator
    along e_i acts as s -> a(e_i)(s) + A_i s."""

    def __init__(self, algebroid: Algebroid, rank: int,
                 matrices: Sequence[Sequence[Sequence]]):
        if rank < 0:
            raise StructureError("module rank must be nonnegative")
        if len(matrices) != algebroid.rank:
            raise StructureError("one matrix per basis direction required")
        self.algebroid = algebroid
        self.rank = rank
        self.matrices: Tuple[Matrix, ...] = tuple(
            _as_matrix(algebroid, rank, m) for m in matrices)

    @classmethod
    def trivial(cls, algebroid: Algebroid, rank: int) -> "Connection":
        zero = algebroid.base.zero
        z = [[zero] * rank for _ in range(rank)]
        return cls(algebroid, rank, [z] * algebroid.rank)

    def apply_basis(self, i: int, vector: Sequence[RingElement]) -> List[RingElement]:
        """Covariant derivative along e_i of a coordinate vector."""
        l = self.algebroid
        if len(vector) != self.rank:
            raise StructureError("vector length does not match module rank")
        out = []
        for a in range(self.rank):
            val = l.base.apply_vector(l.anchor[i], vector[a])
            for b in range(self.rank):
                if not self.matrices[i][a][b].is_zero():
                    val = val + self.matrices[i][a][b] * vector[b]
            out.append(val)
        return out

    def apply_section(self, direction: Section,
                      vector: Sequence[RingElement]) -> List[RingElement]:
        """Covariant derivative along an arbitrary section (base-linear)."""
        l = self.algebroid
        out = [l.base.zero] * self.rank
        for i, c in enumerate(direction.coefficients):
            if c.is_zero():
                continue
            piece = self.apply_basis(i, vector)
            for a in range(self.rank):
                out[a] = out[a] + c * piece[a]
        return out


@dataclass
class CurvatureTensor:
    algebroid: Algebroid
    rank: int
    entries: Dict[Tuple[int, int], Matrix]     # keys i < j

    def entry(self, i: int, j: int) -> Matrix:
        zero = self.algebroid.base.zero
        if i == j:
            return tuple(tuple(zero for _ in range(self.rank))
                         for _ in range(self.rank))
        if i < j:
            got = self.entries.get((i, j))
        else:
            got = self.entries.get((j, i))
            if got is not None:
                got = _mat_scale(self.algebroid.base.const(-1), got)
        if got is None:
            return tuple(tuple(zero for _ in range(self.rank))
                         for _ in range(self.rank))
        return got


@dataclass
class FlatnessReport:
    flat: bool
    witness: Optional[Tuple[int, int, int, int, RingElement]] = None

    def __bool__(self):
        return self.flat


class EValuedForm:
    """Module-valued alternating form: one coefficient vector per tuple."""

    def __init__(self, algebroid: Algebroid, rank: int, degree: int,
                 coeffs: Mapping[IndexTuple, Sequence] | None = None):
        self.algebroid = algebroid
        self.rank = rank
        self.degree = degree
        clean: Dict[IndexTuple, Tuple[RingElement, ...]] = {}
        for idx, vec in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
                raise StructureError("index tuples must be ascending of the degree")
            vec = tuple(algebroid.base._coerce(v) for v in vec)
            if len(vec) != rank:
                raise StructureError("coefficient vector length mismatch")
            if any(not v.is_zero() for v in vec):
                clean[idx] = vec
        self.coeffs = clean

    def component(self, indices: Sequence[int]) -> Tuple[RingElement, ...]:
        zero = self.algebroid.base.zero
        idx, sign = sort_with_sign(indices)
        if idx is None or idx not in self.coeffs:
            return tuple(zero for _ in range(self.rank))
        vec = self.coeffs[idx]
        if sign == 1:
            return vec
        return tuple(-v for v in vec)

    def __sub__(self, other: "EValuedForm") -> "EValuedForm":
        out = {idx: list(vec) for idx, vec in self.coeffs.items()}
        for idx, vec in other.coeffs.items():
            cur = out.setdefault(idx, [self.algebroid.base.zero] * self.rank)
            for a in range(self.rank):
                cur[a] = cur[a] - vec[a]
        return EValuedForm(self.algebroid, self.rank, self.degree, out)

    def is_zero(self) -> bool:
        return not self.coeffs


def curvature(c: Connection) -> CurvatureTensor:
    """F(e_i, e_j) = a_i(A_j) - a_j(A_i) + [A_i, A_j] - sum_k c_ij^k A_k."""
    l = c.algebroid
    l.require_verified("curvature")
    zero = l.base.zero
    entries = {}
    for i, j in combinations(range(l.rank), 2):
        ai_of_aj = tuple(tuple(l.base.apply_vector(l.anchor[i], x) for x in row)
                         for row in c.matrices[j])
        aj_of_ai = tuple(tuple(l.base.apply_vector(l.anchor[j], x) for x in row)
                         for row in c.matrices[i])
        mat = _mat_sub(ai_of_aj, aj_of_ai)
        mat = _mat_add(mat, _mat_sub(_mat_mul(c.matrices[i], c.matrices[j], zero),
                                     _mat_mul(c.matrices[j], c.matrices[i], zero)))
        struct = l.structure_coefficients(i, j)
        for k in range(l.rank):
            if not struct[k].is_zero():
                mat = _mat_sub(mat, _mat_scale(struct[k], c.matrices[k]))
        if not _mat_is_zero(mat):
            entries[(i, j)] = mat
    return CurvatureTensor(l, c.rank, entries)


def is_flat(c: Connection) -> FlatnessReport:
    f = curvature(c)
    for (i, j), mat in sorted(f.entries.items()):
        for a, row in enumerate(mat):
            for b, val in enumerate(row):
                if not val.is_zero():
                    return FlatnessReport(False, (i, j, a, b, val))
    return FlatnessReport(True)


def extend_connection(c: Connection, omega: EValuedForm) -> EValuedForm:
    """Covariant differential on module-valued forms (graded rule)."""
    l = c.algebroid
    l.require_verified("the covariant differential")
    if omega.algebroid is not l or omega.rank != c.rank:
        raise StructureError("form does not match the connection's module")
    # column t of A_i: nabla_{e_i} b_t = sum_s A_i[s][t] b_s
    columns = [[[(s, row[t]) for s, row in enumerate(mat) if not row[t].is_zero()]
                for t in range(c.rank)] for mat in c.matrices]
    image = covariant_d(l, {(idx, t): v for idx, vec in omega.coeffs.items()
                            for t, v in enumerate(vec) if not v.is_zero()},
                        columns)
    out: Dict[IndexTuple, List[RingElement]] = {}
    for (idx, t), v in image.items():
        out.setdefault(idx, [l.base.zero] * c.rank)[t] = v
    return EValuedForm(l, c.rank, omega.degree + 1, out)


def chern_trace_form(c: Connection, k: int = 1) -> LForm:
    """Trace of the k-th wedge power of the curvature; closed by the
    differential identity, asserted exactly.  Only k = 1, 2 are offered."""
    l = c.algebroid
    f = curvature(c)
    if k == 1:
        coeffs = {}
        for (i, j), mat in f.entries.items():
            tr = l.base.zero
            for a in range(c.rank):
                tr = tr + mat[a][a]
            if not tr.is_zero():
                coeffs[(i, j)] = tr
        out = LForm(l, 2, coeffs)
    elif k == 2:
        coeffs = {}
        zero = l.base.zero
        for big in combinations(range(l.rank), 4):
            total = zero
            for first in combinations(range(4), 2):
                second = tuple(t for t in range(4) if t not in first)
                perm = first + second
                sign = sort_with_sign(perm)[1]
                fa = f.entry(big[perm[0]], big[perm[1]])
                fb = f.entry(big[perm[2]], big[perm[3]])
                prod = _mat_mul(fa, fb, zero)
                tr = zero
                for a in range(c.rank):
                    tr = tr + prod[a][a]
                total = total + (tr if sign == 1 else -tr)
            if not total.is_zero():
                coeffs[big] = total
        out = LForm(l, 4, coeffs)
    else:
        raise StructureError("trace powers beyond 2 are not offered")
    if not out.d().is_zero():
        raise InternalError("trace form is not closed")
    return out


@dataclass
class ObstructionReport:
    status: str                 # "consistent" | "obstructed" | "obstructed-in-window"
    detail: ExactnessResult

    @property
    def primitive(self):
        return self.detail.primitive


def obstruction_trace_check(c: Connection, q: LForm,
                            window: TruncationWindow | None = None
                            ) -> ObstructionReport:
    """Requiring curvature Q * id forces trace(F) = rank * Q, whose class
    must vanish; decide exactness of rank * Q in the window."""
    if q.owner is not c.algebroid or q.degree != 2:
        raise InputError("the twist must be a 2-form on the same algebroid")
    if not q.d().is_zero():
        raise InputError("the twist form must be closed")
    scaled = q.scale(c.algebroid.base.const(c.rank))
    if scaled.is_zero():
        return ObstructionReport("consistent", ExactnessResult(
            "primitive", primitive=LForm(c.algebroid, 1, {}), window=window))
    res = exactness_solve(scaled, window)
    if res.status == "primitive":
        return ObstructionReport("consistent", res)
    if res.certified:
        return ObstructionReport("obstructed", res)
    return ObstructionReport("obstructed-in-window", res)


def pull_connection(morphism: AlgebroidMorphism, c: Connection) -> Connection:
    """Connection along the source induced by composing with the morphism."""
    if c.algebroid is not morphism.target:
        raise StructureError("connection does not live on the morphism target")
    if not morphism.verify():
        raise StructureError("not an algebroid morphism")
    l = morphism.source
    mats = []
    for i in range(l.rank):
        image = morphism.images[i]
        acc = [[l.base.zero] * c.rank for _ in range(c.rank)]
        for j, coeff in enumerate(image.coefficients):
            if coeff.is_zero():
                continue
            for a in range(c.rank):
                for b in range(c.rank):
                    acc[a][b] = acc[a][b] + coeff * c.matrices[j][a][b]
        mats.append(acc)
    return Connection(l, c.rank, mats)


def pull_curvature(morphism: AlgebroidMorphism, f: CurvatureTensor) -> CurvatureTensor:
    l = morphism.source
    entries = {}
    for i, j in combinations(range(l.rank), 2):
        u, v = morphism.images[i], morphism.images[j]
        acc = [[l.base.zero] * f.rank for _ in range(f.rank)]
        for p, cp in enumerate(u.coefficients):
            if cp.is_zero():
                continue
            for q, cq in enumerate(v.coefficients):
                if cq.is_zero():
                    continue
                mat = f.entry(p, q)
                for a in range(f.rank):
                    for b in range(f.rank):
                        acc[a][b] = acc[a][b] + cp * cq * mat[a][b]
        mat = tuple(tuple(row) for row in acc)
        if not _mat_is_zero(mat):
            entries[(i, j)] = mat
    return CurvatureTensor(l, f.rank, entries)
