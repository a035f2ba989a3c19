"""Matched pairs of algebroids, the twilled sum, and the associated
double complex.

The two module actions are Connection values (they must be flat).  The
compatibility equations are checked on basis tuples.  For the double
complex we differentiate each tensor slot with the other factor's action
as coefficients, with no interleaving sign; in this normalization the
two differentials commute exactly when the pair is matched, and the
total differential carries the alternating sign on the second one.

The total-cohomology comparison decides d1 d2 = d2 d1, and that the total
differential is the twilled sum's Chevalley-Eilenberg differential
(Mokri, Glasgow Math. J. 39, 1997), once per key on the compiled stencil
entries.  The second is a formal identity of the compiled formulas, so
the two complexes are one matrix and one reduction, of the twilled sum's
complex, gives the dims of both; the total complex itself is built only
by the tests, as their reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .connections import Connection, is_flat
from .core import Algebroid, InternalError, Section, StructureError, vector_field_bracket
from .forms import IndexTuple, TruncationWindow, compile_d, sort_with_sign, \
    _ce_complex, _tuple_keys, _window_check
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

    def describe(self) -> str:
        """The failing equation and its basis indices, numbered from 1."""
        return "equation %d fails at indices %s" % (
            self.equation, tuple(t + 1 for t in self.indices))


@dataclass
class MatchedVerification:
    verified: bool
    witness: Optional[MatchedWitness] = None


def _act(action: Connection, module: Algebroid, i: int, section: Section) -> Section:
    """action of e_i (action's algebroid) on a section of `module`.  A
    matched pair's factors share one base ring, so the action's values
    are elements of the module's base ring already (so in `_act_along`)."""
    return Section._trusted(module, action.apply_basis(i, list(section.coefficients)))


def _act_along(action: Connection, module: Algebroid, direction: Section,
               section: Section) -> Section:
    return Section._trusted(module, action.apply_section(direction,
                                                         list(section.coefficients)))


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
    """Windowed bases of (p, q) pieces, with both differentials as
    compiled entries per key.

    A basis element is ((I, J), monomial), one key object (I, J) per
    pair of index tuples.  `keys` maps each merged tuple, I followed by J
    shifted by rank(l1), to its key (I, J), in the twilled sum's order of
    merged tuples.  d1's stencil keys its targets (I', J) and d2's
    (J', I), so d2 reads the same entries under swapped keys."""

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
        # d1 on l1 with values in the forms of l2; d2 the mirror, keys swapped
        self._d1 = compile_d(m.l1, _on_forms(m.action12))
        self._d2 = compile_d(m.l2, _on_forms(m.action21))

    @cached_property
    def bases(self) -> Dict[Tuple[int, int], List[Tuple[tuple, IndexTuple]]]:
        """(p, q) -> its window basis, up to total degree max_total + 1;
        the merged tuples of one (p, q) ascend as their pairs (I, J) do.
        Listed on first use: only a failed commutation identity reads it."""
        monos = self.window.monomials(self.pair.l1.base)
        bases: Dict[Tuple[int, int], List[Tuple[tuple, IndexTuple]]] = {}
        for key in self.keys.values():
            if len(key[0]) + len(key[1]) <= self.max_total + 1:
                bases.setdefault((len(key[0]), len(key[1])), []).extend(
                    (key, mm) for mm in monos)
        return bases

    def d1(self, coeffs):
        """The l1-differential of a cochain {(I, J): element}, with values
        in the forms of l2 under action12."""
        return self._d1.apply(coeffs)

    def d2(self, coeffs):
        """The mirror of d1: the l2-differential, with values in the forms
        of l1 under action21."""
        image = self._d2.apply({(i2, i1): v for (i1, i2), v in coeffs.items()})
        return {(i1, i2): v for (i2, i1), v in image.items()}

    def affine(self, second: bool, key: tuple) -> Dict[tuple, tuple]:
        """d1's (or d2's if `second`) entries at key (I, J) as affine
        functions of the source exponents (`Stencil.affine`), with targets
        keyed (I', J') for both."""
        if second:
            return {(target[::-1], shift): f
                    for (target, shift), f in self._d2.affine(key[::-1]).items()}
        return self._d1.affine(key)

    def _commutator(self, key: tuple) -> List[Dict[Tuple[int, int], object]]:
        """d1 d2 - d2 d1 at key (I, J) as polynomials in the source
        exponents m, one per (target key, shift), the nonzero ones only.
        A polynomial {(i, j): c} with i <= j sums c * a_i * a_j over
        a = (1, m_1, .., m_nv): each composite multiplies an inner entry,
        affine in m, by an outer entry read at the inner image's exponents
        m + shift, so it has degree at most 2."""
        out: Dict[tuple, Dict[Tuple[int, int], object]] = {}
        for outer, sign in ((False, 1), (True, -1)):
            for (middle, shift), inner in self.affine(not outer, key).items():
                for (target, more), f in self.affine(outer, middle).items():
                    f = (f[0] + sum(map(mul, f[1:], shift)),) + f[1:]
                    poly = out.setdefault((target, tuple(map(add, shift, more))), {})
                    for i, a in enumerate(inner):
                        for j, b in enumerate(f):
                            if a and b:
                                ij = (i, j) if i <= j else (j, i)
                                poly[ij] = poly.get(ij, 0) + sign * a * b
        return [poly for poly in ({ij: c for ij, c in poly.items() if c}
                                  for poly in out.values()) if poly]

    def commutation_check(self) -> Optional[Tuple[int, int, tuple]]:
        """d1 d2 = d2 d1 on every bidegree of the slice (the alternating-
        sign rule in the standard normalization is this identity after
        rescaling the second differential by bidegree signs).  Returns a
        witness (p, q, (I, J, monomial)) or None.

        The identity is decided per key on the compiled entries: the
        commutator's polynomials (`_commutator`) vanish at every key, or
        the bidegrees of the keys where they do not are scanned, sorted,
        each basis in order, for the first basis element at which one of
        its key's polynomials is nonzero: the first column where the two
        composites differ on the window.  An identity that fails only off
        the window has no witness."""
        m = self.pair
        gaps = {}
        for key in self.keys.values():
            p, q = len(key[0]), len(key[1])
            if p < m.l1.rank and q < m.l2.rank and p + q + 1 <= self.max_total:
                polys = self._commutator(key)
                if polys:
                    gaps[key] = polys
        for p, q in sorted({(len(key[0]), len(key[1])) for key in gaps}):
            for key, mono in self.bases[p, q]:
                at = (1,) + mono
                if any(sum(c * at[i] * at[j] for (i, j), c in poly.items())
                       for poly in gaps.get(key, ())):
                    return (p, q, key + (mono,))
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


def _d2_sign(key: tuple) -> int:
    """The sign of d2 in the total differential at a source key (I, J):
    (-1)^|I|."""
    return -1 if len(key[0]) % 2 else 1


def _total_is_twilled(sl: DoubleComplexSlice, tw: Algebroid) -> bool:
    """Whether the total differential d1 + (-1)^|I| d2 has the compiled
    entries of the twilled sum's Chevalley-Eilenberg differential at every
    key, read as affine functions of the source exponents (`affine`) with
    the twilled sum's merged tuples keyed (I, J).  Then the two complexes
    have one matrix on every window, so one column reduction answers for
    both.  d1 and d2 land in different bidegrees, so their entries never
    share a target."""
    ce = compile_d(tw)
    for idx, key in sl.keys.items():
        sign = _d2_sign(key)
        total = dict(sl.affine(False, key))
        total.update((entry, tuple(sign * c for c in f))
                     for entry, f in sl.affine(True, key).items())
        if total != {(sl.keys[target], shift): f
                     for ((target, _), shift), f in ce.affine((idx, 0)).items()}:
            return False
    return True


def total_cohomology_compare(m: MatchedPair, degrees: Sequence[int],
                             window: TruncationWindow | None = None
                             ) -> TotalCompareReport:
    """Dims of the total complex of the double complex against the
    twilled sum's truncated cohomology, in matching degrees.

    Two identities are decided on the compiled stencils, once per key and
    so for every window at once: d1 d2 = d2 d1 (`commutation_check`,
    whose failure is refused with its witness), and that the total
    differential is the twilled sum's Chevalley-Eilenberg differential
    (`_total_is_twilled`).  The second holds for every matched pair, so
    its failure is an `InternalError`; the two complexes are then one
    matrix on the window, and one column reduction per degree read, of
    the twilled sum's complex, gives both dims."""
    window = window or TruncationWindow()
    v = verify_matched(m)
    if not v.verified:
        raise StructureError("not a matched pair: %s" % v.witness.describe())
    # the twilled sum of a matched pair is a Lie algebroid (Mokri, Glasgow
    # Math. J. 39, 1997), so its axioms are not checked again
    tw = twilled_sum(m, check=False)
    _window_check(tw, window)
    drop, _ = tw.coefficient_degree_profile()

    sl = DoubleComplexSlice(m, max(degrees) + 1, window)
    wit = sl.commutation_check()
    if wit is not None:
        raise StructureError("double complex commutation fails at %s" % (wit,))
    if not _total_is_twilled(sl, tw):
        raise InternalError("total differential is not the twilled sum's")
    del sl      # free the compiled stencils before the twilled sum's systems
    dims = _ce_complex(tw).dims(dict.fromkeys(degrees, (window,)), drop)[window]
    twilled = {n: ker - im for n, (ker, im) in dims.items()}
    return TotalCompareReport(window, dict(twilled), twilled)
