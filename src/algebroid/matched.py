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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .connections import Connection, is_flat
from .core import Algebroid, Section, StructureError, vector_field_bracket
from .forms import IndexTuple, RowCodes, TruncationWindow, compile_d, sort_with_sign, \
    _ce_complex, _tuple_keys, _window_check, _WindowedComplex
from .rings import ChartRing, RingElement


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

    def describe(self) -> str:
        """The failing equation and its basis indices, numbered from 1."""
        return "equation %d fails at indices %s" % (
            self.equation, tuple(t + 1 for t in self.indices))


@dataclass
class MatchedVerification:
    verified: bool
    witness: Optional[MatchedWitness] = None


def _act(action: Connection, module: Algebroid, i: int, section: Section) -> Section:
    """action of e_i (action's algebroid) on a section of `module`."""
    return Section(module, action.apply_basis(i, list(section.coefficients)))


def _act_along(action: Connection, module: Algebroid, direction: Section,
               section: Section) -> Section:
    return Section(module, action.apply_section(direction, list(section.coefficients)))


def verify_matched(m: MatchedPair) -> MatchedVerification:
    """Check flatness of both actions and the three compatibility
    equations on basis tuples."""
    for name, action in (("action12", m.action12), ("action21", m.action21)):
        rep = is_flat(action)
        if not rep.flat:
            raise StructureError("%s is not flat: curvature witness %s"
                                 % (name, rep.witness))

    # equation 1: [a1(u1), a2(u2)] = -a1(act21_{u2} u1) + a2(act12_{u1} u2)
    for i in range(m.l1.rank):
        for j in range(m.l2.rank):
            lhs = vector_field_bracket(m.l1.base, m.l1.anchor[i], m.l2.anchor[j])
            u1, u2 = m.l1.basis_section(i), m.l2.basis_section(j)
            t21 = m.l1.anchor_derivation(_act(m.action21, m.l1, j, u1))
            t12 = m.l2.anchor_derivation(_act(m.action12, m.l2, i, u2))
            residual = [x + y - z for x, y, z in zip(lhs, t21, t12)]
            if any(not x.is_zero() for x in residual):
                return MatchedVerification(False, MatchedWitness(
                    1, (i, j), tuple(residual)))

    # equation 2: act12_{u1} {u2, v2} = {act12_{u1} u2, v2} + {u2, act12_{u1} v2}
    #             + act12_{act21_{v2} u1} u2 - act12_{act21_{u2} u1} v2;
    # equation 3 is its mirror, with the factors exchanged
    for eq, la, lb, act, back in ((2, m.l1, m.l2, m.action12, m.action21),
                                  (3, m.l2, m.l1, m.action21, m.action12)):
        for i in range(la.rank):
            u = la.basis_section(i)
            for j, k in combinations(range(lb.rank), 2):
                v, w = lb.basis_section(j), lb.basis_section(k)
                lhs = _act_along(act, lb, u, lb.bracket(v, w))
                rhs = (lb.bracket(_act(act, lb, i, v), w)
                       + lb.bracket(v, _act(act, lb, i, w))
                       + _act_along(act, lb, _act(back, la, k, u), v)
                       - _act_along(act, lb, _act(back, la, j, u), w))
                residual = lhs - rhs
                if not residual.is_zero():
                    return MatchedVerification(False, MatchedWitness(
                        eq, (i, j, k), residual))

    return MatchedVerification(True)


def twilled_sum(m: MatchedPair, check: bool = True) -> Algebroid:
    """The algebroid on the direct sum with the mixed bracket
    {e_i, f_j} = act12_{e_i} f_j - act21_{f_j} e_i."""
    if check:
        v = verify_matched(m)
        if not v.verified:
            raise StructureError("not a matched pair: %s" % v.witness.describe())
    base = m.l1.base
    n1, n2 = m.l1.rank, m.l2.rank
    n = n1 + n2
    anchor = []
    structure: Dict[Tuple[int, int], List[RingElement]] = {}
    for alg, offset in ((m.l1, 0), (m.l2, n1)):
        anchor.extend(list(row) for row in alg.anchor)
        pad = n - offset - alg.rank
        for i, j in combinations(range(alg.rank), 2):
            comps = alg.structure_coefficients(i, j)
            if any(not c.is_zero() for c in comps):
                structure[(offset + i, offset + j)] = (
                    [base.zero] * offset + list(comps) + [base.zero] * pad)
    for i in range(n1):
        for j in range(n2):
            part2 = _act(m.action12, m.l2, i, m.l2.basis_section(j))
            part1 = _act(m.action21, m.l1, j, m.l1.basis_section(i))
            comps = [-c for c in part1.coefficients] + list(part2.coefficients)
            if any(not c.is_zero() for c in comps):
                structure[(i, n1 + j)] = comps
    names = tuple(m.l1.basis_names) + tuple(m.l2.basis_names)
    return Algebroid(base, n, anchor, structure, basis_names=names)


def _on_forms(action: Connection) -> List[Dict[IndexTuple, list]]:
    """The connection that `action` induces on forms of every degree over
    its module, in covariant_d's matrices form: nabla_i theta^J has the
    coefficient -sum_t theta^J(f_k1, .., nabla_i f_kt, .., f_kq) at
    theta^K."""
    labels = [big for q in range(action.rank + 1)
              for big in combinations(range(action.rank), q)]
    out = []
    for mat in action.matrices:          # nabla_i f_k = sum_l mat[l][k] f_l
        cols: Dict[IndexTuple, Dict[IndexTuple, RingElement]] = {
            src: {} for src in labels}
        for big in labels:
            for t, k in enumerate(big):
                for l, row in enumerate(mat):
                    if row[k].is_zero():
                        continue
                    src, sign = sort_with_sign(big[:t] + (l,) + big[t + 1:])
                    if src is None:
                        continue
                    col = cols[src]
                    term = row[k] if sign == -1 else -row[k]
                    col[big] = col[big] + term if big in col else term
        out.append({src: [(big, v) for big, v in col.items() if not v.is_zero()]
                    for src, col in cols.items()})
    return out


class DoubleComplexSlice:
    """Windowed bases of (p, q) pieces with both differentials as sparse
    rows keyed by row codes.

    A basis element is ((I, J), monomial), one key object (I, J) per
    pair of index tuples.  Its code is that of ((merged tuple, 0),
    monomial) in the twilled sum's Chevalley-Eilenberg layout, the merged
    tuple being I followed by J shifted by rank(l1): the slice's codes
    number the keys (I, J) in that order.  d1's stencil keys its targets
    (I', J) and d2's (J', I), so d2 reads the same codes under swapped
    keys, and every row comes out keyed in the one layout."""

    def __init__(self, m: MatchedPair, max_total: int,
                 window: TruncationWindow):
        self.pair = m
        self.window = window
        self.max_total = max_total
        n1 = m.l1.rank
        # merged tuple -> its key (I, J), in the order of _tuple_keys
        self.keys: Dict[IndexTuple, Tuple[IndexTuple, IndexTuple]] = {
            idx: (idx[:bisect_left(idx, n1)],
                  tuple(i - n1 for i in idx[bisect_left(idx, n1):]))
            for idx, _ in _tuple_keys(n1 + m.l2.rank)}
        # each key's swapped key (J, I), one object per pair
        self._swapped = {key: key[::-1] for key in self.keys.values()}
        # (p, q) -> its basis; the merged tuples of one (p, q) ascend as
        # their pairs (I, J) do
        monos = window.monomials(m.l1.base)
        self.bases: Dict[Tuple[int, int], List[Tuple[tuple, IndexTuple]]] = {}
        for key in self.keys.values():
            if len(key[0]) + len(key[1]) <= max_total + 1:
                self.bases.setdefault((len(key[0]), len(key[1])), []).extend(
                    (key, mm) for mm in monos)
        # d1 on l1 with values in the forms of l2; d2 the mirror, keys swapped
        self._d1 = compile_d(m.l1, _on_forms(m.action12))
        self._d2 = compile_d(m.l2, _on_forms(m.action21))
        self.reach = max(self._d1.reach, self._d2.reach)
        # (the codes keyed (I, J), the same codes keyed (J, I))
        self._codes: Optional[Tuple[RowCodes, RowCodes]] = None

    def codes(self, bias: int) -> RowCodes:
        """The slice's row codes keyed (I, J), with at least this bias.
        They are kept while large enough; a larger bias makes new ones."""
        if self._codes is None or self._codes[0].bias < bias:
            nv = len(self.pair.l1.base.variables)
            self._codes = (RowCodes(self.keys.values(), nv, bias),
                           RowCodes(self._swapped.values(), nv, bias))
        return self._codes[0]

    def d1(self, coeffs):
        """The l1-differential of a cochain {(I, J): element}, with values
        in the forms of l2 under action12."""
        return self._d1.apply(coeffs)

    def d2(self, coeffs):
        """The mirror of d1: the l2-differential, with values in the forms
        of l1 under action21."""
        image = self._d2.apply({(i2, i1): v for (i1, i2), v in coeffs.items()})
        return {(i1, i2): v for (i2, i1), v in image.items()}

    def _rows(self, second: bool, items: Sequence[Tuple[tuple, IndexTuple]]
              ) -> Dict[int, Dict[int, object]]:
        """d1, or d2 if `second`, at the basis elements ((I, J), monomial)
        of `items`, as rows {code: {column: value}} under the current
        codes, column j the image of items[j]: one `Stencil.rows`, on the
        keys (I, J) for d1 and on their swapped keys (J, I) for d2."""
        codes, swapped = self._codes
        if not second:
            return self._d1.rows(codes, items)
        basis, last = [], None
        for key, mono in items:
            if key is not last:
                last, swap = key, self._swapped[key]
            basis.append((swap, mono))
        return self._d2.rows(swapped, basis)

    def _composite(self, second: bool, items) -> Dict[int, Dict[int, object]]:
        """d1 d2 (or d2 d1 if `second`) at `items`, as rows without zero
        values: the outer differential at the row codes of the inner
        one's image, times that image."""
        inner = self._rows(not second, items)
        keys = sorted(inner)
        outer = self._rows(second, list(map(self._codes[0].decode, keys)))
        out = {}
        for code, row in outer.items():
            acc: Dict[int, object] = {}
            for k, a in row.items():
                for j, b in inner[keys[k]].items():
                    acc[j] = acc.get(j, 0) + a * b
            acc = {j: c for j, c in acc.items() if c}
            if acc:
                out[code] = acc
        return out

    def commutation_check(self) -> Optional[Tuple[int, int, tuple]]:
        """d1 d2 = d2 d1 on every bidegree of the slice (the alternating-
        sign rule in the standard normalization is this identity after
        rescaling the second differential by bidegree signs).  Returns a
        witness (p, q, (I, J, monomial)) or None.  Both composites of a
        bidegree are sparse products of integer rows; the witness is the
        first basis element whose columns differ."""
        m = self.pair
        # a composite reaches two shifts past the window
        self.codes(self.window.bound(m.l1.base) + 2 * self.reach)
        for (p, q), basis in sorted(self.bases.items()):
            if p + 1 > m.l1.rank or q + 1 > m.l2.rank:
                continue
            if p + q + 2 > self.max_total + 1:
                continue
            one, two = self._composite(False, basis), self._composite(True, basis)
            if one != two:
                key, mono = basis[min(j for code in one.keys() | two.keys()
                                      for j in _differ(one.get(code, {}),
                                                       two.get(code, {})))]
                return (p, q, key + (mono,))
        return None


def _differ(a: Mapping[int, object], b: Mapping[int, object]) -> List[int]:
    """The columns where two rows hold different values."""
    return [j for j in a.keys() | b.keys() if a.get(j) != b.get(j)]


@dataclass
class TotalCompareReport:
    window: TruncationWindow
    total_dims: Dict[int, int]
    twilled_dims: Dict[int, int]

    @property
    def agree(self) -> bool:
        return all(self.total_dims[n] == self.twilled_dims[n]
                   for n in self.total_dims)


def _total_complex(sl: DoubleComplexSlice) -> _WindowedComplex:
    """The total complex of the double complex, d1 + (-1)^p d2, on the
    twilled sum's cochains: l2's indices follow l1's, shifted by its rank,
    and each merged tuple is keyed by its (I, J), so the basis elements
    are the slice's.  Its codes are the slice's, so the d1 rows and the
    signed d2 rows share one layout and are merged; the two parts land in
    different bidegrees."""

    def rows(codes, basis):
        out = sl._rows(False, basis)
        for code, row in sl._rows(True, basis).items():
            target = out[code]
            for j, c in row.items():
                target[j] = -c if len(basis[j][0][0]) % 2 else c
        return out

    blocks: Dict[int, List[Tuple[tuple, ChartRing]]] = {}
    for idx, key in sl.keys.items():
        blocks.setdefault(len(idx), []).append((key, sl.pair.l1.base))
    return _WindowedComplex(blocks, lambda bound: sl.codes(bound + sl.reach), rows)


def total_cohomology_compare(m: MatchedPair, degrees: Sequence[int],
                             window: TruncationWindow | None = None
                             ) -> TotalCompareReport:
    """Dims of the total complex of the double complex against the
    twilled sum's truncated cohomology, in matching degrees.

    The two are one matrix: on the same basis, under one code layout, the
    total complex's rows equal those of the twilled sum's
    Chevalley-Eilenberg complex in every degree (pinned by
    `test_total_and_twilled_systems_are_one_matrix`), so the second
    elimination repeats the first."""
    window = window or TruncationWindow()
    v = verify_matched(m)
    if not v.verified:
        raise StructureError("not a matched pair: %s" % v.witness.describe())
    tw = twilled_sum(m, check=False)
    tw.require_verified("total complex comparison")
    _window_check(tw, window)
    drop, _ = tw.coefficient_degree_profile()

    sl = DoubleComplexSlice(m, max(degrees) + 1, window)
    wit = sl.commutation_check()
    if wit is not None:
        raise StructureError("double complex commutation fails at %s" % (wit,))

    def cohomology(complex_):
        dims = complex_.dims(dict.fromkeys(degrees, (window,)), drop)[window]
        return {n: ker - im for n, (ker, im) in dims.items()}

    total = cohomology(_total_complex(sl))
    del sl      # free the stencils' offsets before the twilled sum's systems
    return TotalCompareReport(window, total, cohomology(_ce_complex(tw)))
