"""Matched pairs of algebroids, the twilled sum, and the associated
double complex.

The two module actions are Connection values (they must be flat).  The
compatibility equations are checked on basis tuples.  For the double
complex we differentiate each tensor slot with the other factor's action
as coefficients, with no interleaving sign; in this normalization the
two differentials commute exactly when the pair is matched, and the
total differential carries the alternating sign on the second one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .connections import Connection, is_flat
from .core import Algebroid, Section, StructureError
from .forms import IndexTuple, TruncationWindow, sort_with_sign, \
    truncated_cohomology, _window_check
from .linalg import SparseSystem
from .rings import RingElement


@dataclass
class MatchedPair:
    l1: Algebroid
    l2: Algebroid
    action12: Connection     # l1 acting on the module underlying l2
    action21: Connection     # l2 acting on the module underlying l1

    def __post_init__(self):
        if self.l1.base is not self.l2.base:
            raise StructureError("matched pairs need a shared base ring")
        if self.action12.algebroid is not self.l1 or self.action12.rank != self.l2.rank:
            raise StructureError("action12 must be an l1-connection of rank rank(l2)")
        if self.action21.algebroid is not self.l2 or self.action21.rank != self.l1.rank:
            raise StructureError("action21 must be an l2-connection of rank rank(l1)")


@dataclass
class MatchedWitness:
    equation: int                   # 1, 2 or 3
    indices: Tuple[int, ...]
    residual: object


@dataclass
class MatchedVerification:
    verified: bool
    witness: Optional[MatchedWitness] = None


def _act12(m: MatchedPair, i: int, section2: Section) -> Section:
    """action of e_i (l1 basis) on a section of l2."""
    vec = m.action12.apply_basis(i, list(section2.coefficients))
    return Section(m.l2, vec)


def _act21(m: MatchedPair, j: int, section1: Section) -> Section:
    vec = m.action21.apply_basis(j, list(section1.coefficients))
    return Section(m.l1, vec)


def _act12_along(m: MatchedPair, direction1: Section, section2: Section) -> Section:
    vec = m.action12.apply_section(direction1, list(section2.coefficients))
    return Section(m.l2, vec)


def _act21_along(m: MatchedPair, direction2: Section, section1: Section) -> Section:
    vec = m.action21.apply_section(direction2, list(section1.coefficients))
    return Section(m.l1, vec)


def verify_matched(m: MatchedPair) -> MatchedVerification:
    """Check flatness of both actions and the three compatibility
    equations on basis tuples."""
    for name, action in (("action12", m.action12), ("action21", m.action21)):
        rep = is_flat(action)
        if not rep.flat:
            raise StructureError("%s is not flat: curvature witness %s"
                                 % (name, rep.witness))

    base = m.l1.base
    n1, n2 = m.l1.rank, m.l2.rank

    # equation 1: [a1(u1), a2(u2)] = -a1(act21_{u2} u1) + a2(act12_{u1} u2)
    nder = len(base.derivation_names)
    names = base.derivation_names
    for i in range(n1):
        for j in range(n2):
            v1 = m.l1.anchor_derivation(m.l1.basis_section(i))
            v2 = m.l2.anchor_derivation(m.l2.basis_section(j))
            lhs = []
            for d in range(nder):
                acc = base.zero
                for e in range(nder):
                    if not v1[e].is_zero():
                        acc = acc + v1[e] * base.derive(names[e], v2[d])
                    if not v2[e].is_zero():
                        acc = acc - v2[e] * base.derive(names[e], v1[d])
                lhs.append(acc)
            t21 = m.l1.anchor_derivation(_act21(m, j, m.l1.basis_section(i)))
            t12 = m.l2.anchor_derivation(_act12(m, i, m.l2.basis_section(j)))
            residual = [lhs[d] + t21[d] - t12[d] for d in range(nder)]
            if any(not x.is_zero() for x in residual):
                return MatchedVerification(False, MatchedWitness(
                    1, (i, j), tuple(residual)))

    # equation 2: act12_{u1} {u2, v2} = {act12_{u1} u2, v2} + {u2, act12_{u1} v2}
    #             + act12_{act21_{v2} u1} u2 - act12_{act21_{u2} u1} v2
    for i in range(n1):
        for j, k in combinations(range(n2), 2):
            u1 = m.l1.basis_section(i)
            u2, v2 = m.l2.basis_section(j), m.l2.basis_section(k)
            lhs = _act12_along(m, u1, m.l2.bracket(u2, v2))
            rhs = (m.l2.bracket(_act12(m, i, u2), v2)
                   + m.l2.bracket(u2, _act12(m, i, v2))
                   + _act12_along(m, _act21(m, k, u1), u2)
                   - _act12_along(m, _act21(m, j, u1), v2))
            residual = lhs - rhs
            if not residual.is_zero():
                return MatchedVerification(False, MatchedWitness(
                    2, (i, j, k), residual))

    # equation 3: the mirror statement
    for j in range(n2):
        for i, k in combinations(range(n1), 2):
            u2 = m.l2.basis_section(j)
            u1, v1 = m.l1.basis_section(i), m.l1.basis_section(k)
            lhs = _act21_along(m, u2, m.l1.bracket(u1, v1))
            rhs = (m.l1.bracket(_act21(m, j, u1), v1)
                   + m.l1.bracket(u1, _act21(m, j, v1))
                   + _act21_along(m, _act12(m, k, u2), u1)
                   - _act21_along(m, _act12(m, i, u2), v1))
            residual = lhs - rhs
            if not residual.is_zero():
                return MatchedVerification(False, MatchedWitness(
                    3, (j, i, k), residual))

    return MatchedVerification(True)


def twilled_sum(m: MatchedPair, check: bool = True) -> Algebroid:
    """The algebroid on the direct sum with the mixed bracket
    {e_i, f_j} = act12_{e_i} f_j - act21_{f_j} e_i."""
    if check:
        v = verify_matched(m)
        if not v.verified:
            raise StructureError(
                "not a matched pair: equation %d fails on %s"
                % (v.witness.equation, v.witness.indices))
    base = m.l1.base
    n1, n2 = m.l1.rank, m.l2.rank
    n = n1 + n2
    nder = len(base.derivation_names)
    anchor = []
    for i in range(n1):
        anchor.append(list(m.l1.anchor[i]))
    for j in range(n2):
        anchor.append(list(m.l2.anchor[j]))
    structure: Dict[Tuple[int, int], List[RingElement]] = {}
    for i, j in combinations(range(n1), 2):
        comps = m.l1.structure_coefficients(i, j)
        if any(not c.is_zero() for c in comps):
            structure[(i, j)] = list(comps) + [base.zero] * n2
    for i, j in combinations(range(n2), 2):
        comps = m.l2.structure_coefficients(i, j)
        if any(not c.is_zero() for c in comps):
            structure[(n1 + i, n1 + j)] = [base.zero] * n1 + list(comps)
    for i in range(n1):
        for j in range(n2):
            part2 = _act12(m, i, m.l2.basis_section(j))
            part1 = _act21(m, j, m.l1.basis_section(i))
            comps = [-c for c in part1.coefficients] + list(part2.coefficients)
            if any(not c.is_zero() for c in comps):
                structure[(i, n1 + j)] = comps
    names = tuple(m.l1.basis_names) + tuple(m.l2.basis_names)
    return Algebroid(base, n, anchor, structure, basis_names=names)


class DoubleComplexSlice:
    """Windowed bases of (p, q) pieces with both differentials as sparse
    column maps keyed by (I, J, monomial)."""

    def __init__(self, m: MatchedPair, max_total: int,
                 window: TruncationWindow):
        self.pair = m
        self.window = window
        self.max_total = max_total
        base = m.l1.base
        monos = window.monomials(base)
        self.bases: Dict[Tuple[int, int], List[Tuple[IndexTuple, IndexTuple, tuple]]] = {}
        for p in range(0, m.l1.rank + 1):
            for q in range(0, m.l2.rank + 1):
                if p + q > max_total + 1:
                    continue
                self.bases[(p, q)] = [
                    (i1, i2, mm)
                    for i1 in combinations(range(m.l1.rank), p)
                    for i2 in combinations(range(m.l2.rank), q)
                    for mm in monos]

    def component_value(self, coeffs, i1, i2):
        """look up with antisymmetrization in each slot separately."""
        s1, sign1 = sort_with_sign(i1)
        s2, sign2 = sort_with_sign(i2)
        if s1 is None or s2 is None:
            return None
        val = coeffs.get((s1, s2))
        if val is None:
            return None
        return val if sign1 * sign2 == 1 else -val

    def d1_of_basis(self, p, q, i1, i2, mono):
        """image in K^{p+1,q} of the basis element, as {(I,J): element}."""
        m = self.pair
        base = m.l1.base
        coeffs = {(i1, i2): base.monomial(mono, 1)}
        return self._d1_general(p, q, coeffs)

    def _d1_general(self, p, q, coeffs):
        m = self.pair
        base = m.l1.base
        out: Dict[Tuple[IndexTuple, IndexTuple], RingElement] = {}

        def add(i1, i2, val):
            if val.is_zero():
                return
            cur = out.get((i1, i2))
            out[(i1, i2)] = val if cur is None else cur + val

        for big in combinations(range(m.l1.rank), p + 1):
            for j2 in combinations(range(m.l2.rank), q):
                total = base.zero
                for a in range(p + 1):
                    rest = big[:a] + big[a + 1:]
                    sign = (-1) ** a
                    # action of e_{big[a]} on the q-slot with coefficients
                    val = None
                    got = coeffs.get((rest, j2))
                    if got is not None:
                        val = m.l1.anchor_apply(m.l1.basis_section(big[a]), got)
                        total = total + (val if sign == 1 else -val)
                    # substitution terms: - omega(rest; ..., act f_jt, ...)
                    for t in range(q):
                        col = m.action12.matrices[big[a]]
                        for l in range(m.l2.rank):
                            entry = col[l][j2[t]]
                            if entry.is_zero():
                                continue
                            replaced = j2[:t] + (l,) + j2[t + 1:]
                            v = self.component_value(coeffs, rest, replaced)
                            if v is None:
                                continue
                            term = entry * v
                            total = total - (term if sign == 1 else -term)
                for a, b in combinations(range(p + 1), 2):
                    struct = m.l1.structure_coefficients(big[a], big[b])
                    if all(c.is_zero() for c in struct):
                        continue
                    rest = tuple(x for t, x in enumerate(big) if t not in (a, b))
                    sgn = (-1) ** (a + b)
                    for k in range(m.l1.rank):
                        if struct[k].is_zero():
                            continue
                        v = self.component_value(coeffs, (k,) + rest, j2)
                        if v is None:
                            continue
                        term = struct[k] * v
                        total = total + (term if sgn == 1 else -term)
                add(big, j2, total)
        return out

    def d2_of_basis(self, p, q, i1, i2, mono):
        m = self.pair
        base = m.l1.base
        coeffs = {(i1, i2): base.monomial(mono, 1)}
        return self._d2_general(p, q, coeffs)

    def _d2_general(self, p, q, coeffs):
        m = self.pair
        base = m.l1.base
        out: Dict[Tuple[IndexTuple, IndexTuple], RingElement] = {}

        def add(i1, i2, val):
            if val.is_zero():
                return
            cur = out.get((i1, i2))
            out[(i1, i2)] = val if cur is None else cur + val

        for j1 in combinations(range(m.l1.rank), p):
            for big in combinations(range(m.l2.rank), q + 1):
                total = base.zero
                for a in range(q + 1):
                    rest = big[:a] + big[a + 1:]
                    sign = (-1) ** a
                    got = coeffs.get((j1, rest))
                    if got is not None:
                        val = m.l2.anchor_apply(m.l2.basis_section(big[a]), got)
                        total = total + (val if sign == 1 else -val)
                    for t in range(p):
                        col = m.action21.matrices[big[a]]
                        for l in range(m.l1.rank):
                            entry = col[l][j1[t]]
                            if entry.is_zero():
                                continue
                            replaced = j1[:t] + (l,) + j1[t + 1:]
                            v = self.component_value(coeffs, replaced, rest)
                            if v is None:
                                continue
                            term = entry * v
                            total = total - (term if sign == 1 else -term)
                for a, b in combinations(range(q + 1), 2):
                    struct = m.l2.structure_coefficients(big[a], big[b])
                    if all(c.is_zero() for c in struct):
                        continue
                    rest = tuple(x for t, x in enumerate(big) if t not in (a, b))
                    sgn = (-1) ** (a + b)
                    for k in range(m.l2.rank):
                        if struct[k].is_zero():
                            continue
                        v = self.component_value(coeffs, j1, (k,) + rest)
                        if v is None:
                            continue
                        term = struct[k] * v
                        total = total + (term if sgn == 1 else -term)
                add(j1, big, total)
        return out

    def commutation_check(self) -> Optional[Tuple[int, int, tuple]]:
        """d1 d2 = d2 d1 on every bidegree of the slice (the alternating-
        sign rule in the standard normalization is this identity after
        rescaling the second differential by bidegree signs).  Returns a
        witness (p, q, basis element) or None."""
        m = self.pair
        for (p, q), basis in sorted(self.bases.items()):
            if p + 1 > m.l1.rank or q + 1 > m.l2.rank:
                continue
            if p + q + 2 > self.max_total + 1:
                continue
            for (i1, i2, mono) in basis:
                first = self.d2_of_basis(p, q, i1, i2, mono)
                path_a = self._d1_general(p, q + 1, first)
                second = self.d1_of_basis(p, q, i1, i2, mono)
                path_b = self._d2_general(p + 1, q, second)
                keys = set(path_a) | set(path_b)
                base = m.l1.base
                for key in keys:
                    va = path_a.get(key, base.zero)
                    vb = path_b.get(key, base.zero)
                    if not (va - vb).is_zero():
                        return (p, q, (i1, i2, mono))
        return None


@dataclass
class TotalCompareReport:
    window: TruncationWindow
    total_dims: Dict[int, int]
    twilled_dims: Dict[int, int]

    @property
    def agree(self) -> bool:
        return all(self.total_dims[n] == self.twilled_dims[n]
                   for n in self.total_dims)


def _total_basis(sl: DoubleComplexSlice, n: int):
    out = []
    for (p, q), basis in sorted(sl.bases.items()):
        if p + q == n:
            out.extend(((p, q), b) for b in basis)
    return out


def _total_columns(sl: DoubleComplexSlice, dom):
    """Columns of the total differential d1 + (-1)^p d2, keyed by
    (bidegree, I, J, monomial)."""
    cols = []
    for (p, q), (i1, i2, mono) in dom:
        col: Dict[tuple, Fraction] = {}
        for (a1, a2), val in sl.d1_of_basis(p, q, i1, i2, mono).items():
            for mm, c in val.terms.items():
                key = ((p + 1, q), a1, a2, mm)
                col[key] = col.get(key, Fraction(0)) + c
        sgn = (-1) ** p
        for (a1, a2), val in sl.d2_of_basis(p, q, i1, i2, mono).items():
            for mm, c in val.terms.items():
                key = ((p, q + 1), a1, a2, mm)
                col[key] = col.get(key, Fraction(0)) + sgn * c
        cols.append(col)
    return cols


def total_cohomology_compare(m: MatchedPair, degrees: Sequence[int],
                             window: TruncationWindow | None = None
                             ) -> TotalCompareReport:
    """Dims of the total complex of the double complex against the
    twilled sum's truncated cohomology, in matching degrees."""
    window = window or TruncationWindow()
    v = verify_matched(m)
    if not v.verified:
        raise StructureError("not a matched pair; equation %d fails"
                             % v.witness.equation)
    tw = twilled_sum(m, check=False)
    tw.require_verified("total complex comparison")
    _window_check(tw, window)
    drop, _ = tw.coefficient_degree_profile()

    max_total = max(degrees)
    sl = DoubleComplexSlice(m, max_total + 1, window)
    wit = sl.commutation_check()
    if wit is not None:
        raise StructureError("double complex commutation fails at %s" % (wit,))

    big = DoubleComplexSlice(m, max_total + 1, window.enlarged(drop))
    total_dims: Dict[int, int] = {}
    for n in sorted(set(degrees)):
        dom = _total_basis(sl, n)
        ker = len(dom) - SparseSystem.from_columns(_total_columns(sl, dom)).rank()
        im = 0
        if n > 0:
            prev = _total_basis(big, n - 1)
            inside_keys = {((p, q), i1, i2, mono)
                           for ((p, q), (i1, i2, mono)) in dom}
            im = SparseSystem.from_columns(
                _total_columns(big, prev)).image_rank_inside(inside_keys)
        total_dims[n] = ker - im

    rep = truncated_cohomology(tw, sorted(set(degrees)), window)
    twilled_dims = {n: rep.dim(n) for n in sorted(set(degrees))}
    return TotalCompareReport(window, total_dims, twilled_dims)
