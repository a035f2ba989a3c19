"""Explicit finite covers and the global constructions over them:
cocycle pairs, class comparison, Atiyah cocycles, gluing of the twisted
enveloping algebras, and modules presented as bunches of local
connections.

A cover stores chart rings with algebroid presentations and, per
overlap, the overlap ring, the two restriction maps, the chain-rule
transport of each chart's derivations, and the transition matrix
identifying the two pushed algebroids.  Everything on an overlap is
expressed in the frame pushed from the lower-numbered chart.

The built-in model is the two-chart projective line; covers with triple
overlaps are supported when the overlapping data live in one shared
ring with identity transitions (enough to exercise the triple-overlap
conditions on file-supplied covers).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .connections import (Connection, curvature, _mat_add, _mat_mul,
                          _mat_scale, _mat_sub)
from .core import (Algebroid, AlgebroidMorphism, InputError, InternalError,
                   Section, StructureError, make_log, make_tangent)
from .forms import (LForm, RowCodes, TruncationWindow, IndexTuple, compile_d, pullback,
                    _ring_det, _WindowedComplex)
from .pbw import GeneratorMap, PbwElement, RelationSystem
from .rings import (ChartRing, Coefficient, RingElement, RingMap, laurent_ring,
                    poly_ring)


def push_algebroid(alg: Algebroid, rmap: RingMap,
                   der_transport: Sequence[Sequence[RingElement]]) -> Algebroid:
    """Transport an algebroid along a ring map whose derivation chain rule
    is given explicitly: rmap(d_k f) = sum_e transport[k][e] * D_e(rmap f)."""
    target = rmap.target
    nder_src = len(alg.base.derivation_names)
    nder_dst = len(target.derivation_names)
    if len(der_transport) != nder_src or any(len(r) != nder_dst
                                             for r in der_transport):
        raise StructureError("derivation transport has the wrong shape")
    for k, name in enumerate(alg.base.derivation_names):
        for v in alg.base.variables:
            lhs = rmap(alg.base.derive(name, alg.base.var(v)))
            rhs = target.apply_vector(der_transport[k], rmap(alg.base.var(v)))
            if lhs != rhs:
                raise StructureError(
                    "derivation transport violates the chain rule on %r" % v)
    anchor = []
    for i in range(alg.rank):
        row = [target.zero] * nder_dst
        for k in range(nder_src):
            coeff = rmap(alg.anchor[i][k])
            if coeff.is_zero():
                continue
            for e in range(nder_dst):
                if not der_transport[k][e].is_zero():
                    row[e] = row[e] + coeff * der_transport[k][e]
        anchor.append(row)
    structure = {}
    for (i, j), comps in alg.structure.items():
        structure[(i, j)] = [rmap(c) for c in comps]
    return Algebroid(target, alg.rank, anchor, structure,
                     basis_names=alg.basis_names)


def ring_matrix_inverse(ring: ChartRing,
                        mat: Sequence[Sequence[RingElement]]
                        ) -> List[List[RingElement]]:
    """Adjugate inverse; the determinant must be a unit of the ring."""
    n = len(mat)
    det = _ring_det(ring, mat)
    if not det.is_unit():
        raise StructureError("matrix determinant %s is not a unit" % det)
    inv_det = det.inverse()
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = _ring_det(ring, minor) if minor else ring.one
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof * inv_det
    return out


class Overlap:
    """Shared locus of two charts with all transport data.

    transition T expresses the second chart's pushed basis in the first
    chart's pushed frame: f_i = sum_j T[j][i] e_j.  The optional bundle
    transition G identifies module components, v_first = G v_second.
    """

    def __init__(self, ring: ChartRing,
                 map_a: RingMap, map_b: RingMap,
                 der_a: Sequence[Sequence], der_b: Sequence[Sequence],
                 transition: Sequence[Sequence],
                 bundle: Optional[Sequence[Sequence]] = None):
        self.ring = ring
        if map_a.target is not ring or map_b.target is not ring:
            raise StructureError("restriction maps must land in the overlap ring")
        self.map_a = map_a
        self.map_b = map_b
        self.der_a = tuple(tuple(ring._coerce(x) for x in row) for row in der_a)
        self.der_b = tuple(tuple(ring._coerce(x) for x in row) for row in der_b)
        self.transition = tuple(tuple(ring._coerce(x) for x in row)
                                for row in transition)
        self.transition_inverse = tuple(
            tuple(row) for row in ring_matrix_inverse(ring, self.transition))
        self.bundle = None
        self.bundle_inverse = None
        if bundle is not None:
            self.bundle = tuple(tuple(ring._coerce(x) for x in row)
                                for row in bundle)
            self.bundle_inverse = tuple(
                tuple(row) for row in ring_matrix_inverse(ring, self.bundle))


class Cover:
    def __init__(self, charts: Sequence[Tuple[ChartRing, Algebroid]],
                 overlaps: Mapping[Tuple[int, int], Overlap],
                 triples: Sequence[Tuple[int, int, int]] = (),
                 residue: Optional[dict] = None):
        self.charts = list(charts)
        self.overlaps = dict(overlaps)
        self.triples = list(triples)
        self.residue = residue
        self._pushed: Dict[Tuple[int, int], Tuple[Algebroid, Algebroid]] = {}
        for (a, b), ov in self.overlaps.items():
            if not (0 <= a < b < len(self.charts)):
                raise StructureError("overlap indices must be ascending chart ids")
            pa = push_algebroid(self.charts[a][1], ov.map_a, ov.der_a)
            pb = push_algebroid(self.charts[b][1], ov.map_b, ov.der_b)
            self._pushed[(a, b)] = (pa, pb)

    def chart_ring(self, a: int) -> ChartRing:
        return self.charts[a][0]

    def chart_algebroid(self, a: int) -> Algebroid:
        return self.charts[a][1]

    def pushed_pair(self, a: int, b: int) -> Tuple[Algebroid, Algebroid]:
        return self._pushed[(a, b)]

    def frame_algebroid(self, a: int, b: int) -> Algebroid:
        """The reference algebroid on the overlap: the pushed first chart."""
        return self._pushed[(a, b)][0]

    def restrict(self, a: int, b: int,
                 forms: Mapping[int, LForm]) -> Tuple[LForm, LForm]:
        """forms[a] and forms[b] on the overlap (a, b), in its reference frame."""
        ov = self.overlaps[(a, b)]
        pa, pb = self._pushed[(a, b)]
        # pa's basis in pb's: e_j = sum_i S[i][j] f_i, S the inverse transition
        frame = [Section(pb, [row[j] for row in ov.transition_inverse])
                 for j in range(pa.rank)]
        return (push_form(forms[a], ov.map_a, pa),
                pullback(push_form(forms[b], ov.map_b, pb), pa, frame))

    def verify(self) -> None:
        """Transitions identify the pushed structures; bundle transitions
        are invertible; declared triples satisfy the cocycle condition."""
        for (a, b), ov in self.overlaps.items():
            pa, pb = self._pushed[(a, b)]
            if not pa.verify().verified or not pb.verify().verified:
                raise StructureError("pushed chart structure fails axioms")
            images = [Section(pa, [ov.transition[j][i] for j in range(pa.rank)])
                      for i in range(pb.rank)]
            iso = AlgebroidMorphism(pb, pa, images)
            if not iso.verify():
                raise StructureError(
                    "transition on overlap (%d,%d) does not match structures"
                    % (a, b))
        for (a, b, c) in self.triples:
            keys = ((a, b), (b, c), (a, c))
            missing = [k for k in keys if k not in self.overlaps]
            if missing:
                raise StructureError("triple (%d,%d,%d) names no overlap (%d,%d)"
                                     % ((a, b, c) + missing[0]))
            trio = [self.overlaps[k] for k in keys]
            ring = trio[0].ring
            if any(o.ring is not ring for o in trio):
                raise StructureError(
                    "triple (%d,%d,%d) requires one shared overlap ring"
                    % (a, b, c))
            for label, mats in (("frame", [o.transition for o in trio]),
                                ("bundle", [o.bundle for o in trio])):
                if mats == [None] * 3:
                    continue
                if None in mats or len({len(m) for m in mats}) > 1:
                    raise StructureError(
                        "triple (%d,%d,%d) needs %s data of one size on all "
                        "three overlaps" % (a, b, c, label))
                m_ab, m_bc, m_ac = mats
                if m_ac != _mat_mul(m_ab, m_bc, ring.zero):
                    raise StructureError(
                        "%s transitions break the cocycle rule on (%d,%d,%d)"
                        % (label, a, b, c))


def push_form(form: LForm, rmap: RingMap, target: Algebroid) -> LForm:
    """Apply the restriction map to every coefficient (same frame)."""
    coeffs = {idx: rmap(val) for idx, val in form.coeffs.items()}
    return LForm(target, form.degree, coeffs)


class CechPair:
    """phi per overlap (reference frame), Q per chart."""

    def __init__(self, cover: Cover,
                 phi: Mapping[Tuple[int, int], LForm],
                 q: Mapping[int, LForm]):
        self.cover = cover
        self.phi: Dict[Tuple[int, int], LForm] = {}
        for key in cover.overlaps:
            form = phi.get(key)
            frame = cover.frame_algebroid(*key)
            if form is None:
                form = LForm(frame, 1, {})
            if form.owner is not frame or form.degree != 1:
                raise StructureError(
                    "phi%s must be a 1-form in the overlap reference frame"
                    % (key,))
            self.phi[key] = form
        self.q: Dict[int, LForm] = {}
        for a in range(len(cover.charts)):
            form = q.get(a)
            alg = cover.chart_algebroid(a)
            if form is None:
                form = LForm(alg, 2, {})
            if form.owner is not alg or form.degree != 2:
                raise StructureError("q[%d] must be a chart 2-form" % a)
            self.q[a] = form

    def difference(self, other: "CechPair") -> "CechPair":
        if other.cover is not self.cover:
            raise StructureError("pairs live on different covers")
        phi = {k: self.phi[k] - other.phi[k] for k in self.phi}
        q = {a: self.q[a] - other.q[a] for a in self.q}
        return CechPair(self.cover, phi, q)


def zero_pair(cover: Cover) -> CechPair:
    return CechPair(cover, {}, {})


@dataclass
class CheckReport:
    """Failed conditions, and conditions empty at these ranks, of a check."""
    verified: bool
    failures: List[str] = field(default_factory=list)
    degenerate: List[str] = field(default_factory=list)

    def __bool__(self):
        return self.verified


def verify_cocycle(cover: Cover, pair: CechPair) -> CheckReport:
    """The three closedness equations, exactly; rank-starved identities
    (no 2- or 3-forms on small charts) are reported as degenerate.

    The Cech difference is oriented first-chart-minus-second throughout
    (the orientation under which the generator rule u -> u + phi(u) glues
    the twisted algebras and a bundle is a module over its own Atiyah
    pair), so the middle equation reads d phi_ab = Q_a - Q_b."""
    failures = []
    degenerate = []
    for (a, b) in sorted(cover.overlaps):
        frame = cover.frame_algebroid(a, b)
        frame.require_verified("cocycle checking")
        dphi = pair.phi[(a, b)].d()
        qa, qb = cover.restrict(a, b, pair.q)
        if frame.rank < 2:
            degenerate.append("overlap (%d,%d): no 2-forms on rank-%d frame"
                              % (a, b, frame.rank))
        residual = dphi - (qa - qb)
        if not residual.is_zero():
            failures.append("d phi != delta Q on overlap (%d,%d): %s"
                            % (a, b, residual))
    for a in range(len(cover.charts)):
        alg = cover.chart_algebroid(a)
        if alg.rank < 3:
            degenerate.append("chart %d: no 3-forms on rank-%d chart"
                              % (a, alg.rank))
        dq = pair.q[a].d()
        if not dq.is_zero():
            failures.append("d Q != 0 on chart %d: %s" % (a, dq))
    for (a, b, c) in cover.triples:
        ring = cover.overlaps[(a, b)].ring
        total: Dict[IndexTuple, RingElement] = {}
        for key, sign in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            for idx, val in pair.phi[key].coeffs.items():
                cur = total.get(idx, ring.zero)
                total[idx] = cur + (val if sign == 1 else -val)
        if any(not v.is_zero() for v in total.values()):
            failures.append("delta phi != 0 on triple (%d,%d,%d)" % (a, b, c))
    return CheckReport(not failures, failures, degenerate)


def make_p1_cover(algebroid: str = "tangent", bundle: Optional[int] = None
                  ) -> Cover:
    """Two charts Q[z], Q[w] glued by w -> 1/z; tangent or logarithmic
    structure; optional line bundle with transition z^k."""
    rz = poly_ring("z")
    rw = poly_ring("w")
    overlap = laurent_ring("z")
    z = overlap.var("z")
    if algebroid == "tangent":
        alg0 = make_tangent(rz)
        alg1 = make_tangent(rw)
        transition = [[-(z ** 2)]]
        residue = {"overlap": (0, 1), "component": (0,), "exponents": (-1,)}
    elif algebroid == "log":
        alg0 = make_log(rz, ["z"])
        alg1 = make_log(rw, ["w"])
        transition = [[overlap.const(-1)]]
        residue = None
    else:
        raise StructureError("unknown built-in algebroid %r" % algebroid)
    map0 = RingMap(rz, overlap, {"z": z})
    map1 = RingMap(rw, overlap, {"w": z ** -1})
    der0 = [[overlap.one]]
    der1 = [[-(z ** 2)]]
    bundle_mat = None
    if bundle is not None:
        bundle_mat = [[overlap.monomial((bundle,), 1)]]
    ov = Overlap(overlap, map0, map1, der0, der1, transition, bundle_mat)
    cover = Cover([(rz, alg0), (rw, alg1)], {(0, 1): ov}, residue=residue)
    cover.verify()
    return cover


def atiyah_cocycle(cover: Cover) -> CechPair:
    """phi = g^{-1} d g from the bundle transitions, zero chart forms."""
    phi = {}
    for key, ov in cover.overlaps.items():
        if ov.bundle is None:
            raise StructureError("cover has no bundle on overlap %s" % (key,))
        if len(ov.bundle) != 1:
            raise StructureError("Atiyah cocycles are built for line bundles")
        g = ov.bundle[0][0]
        if not g.is_unit():
            raise StructureError("line bundle transition must be a unit")
        frame = cover.frame_algebroid(*key)
        frame.require_verified("Atiyah cocycle")
        ginv = g.inverse()
        coeffs = {}
        for i in range(frame.rank):
            val = ginv * frame.base.apply_vector(frame.anchor[i], g)
            if not val.is_zero():
                coeffs[(i,)] = val
        phi[key] = LForm(frame, 1, coeffs)
    return CechPair(cover, phi, {})


@dataclass
class ClassComparison:
    status: str                # "equivalent" | "inequivalent" | "inequivalent-in-window"
    eta: Optional[Dict[int, LForm]] = None
    residue_value: Optional[Fraction] = None
    window: Optional[TruncationWindow] = None

    @property
    def certified(self) -> bool:
        return self.status == "inequivalent"


def _size(terms) -> int:
    """The largest |exponent| of the terms, 0 without any."""
    return max((abs(e) for exps in terms for e in exps), default=0)


def _pack(codes: RowCodes, terms) -> List[Tuple[int, Coefficient]]:
    """Terms {exponents: coefficient} as packed (offset, coefficient): the
    offset of x^e is the code of x^e minus the code of x^0 under `codes`,
    so offsets add as exponents do."""
    places = codes.places
    return [(sum(map(mul, places, exps)), c) for exps, c in terms.items()]


def _packed_product(a, b) -> List[Tuple[int, Coefficient]]:
    """The product of two packed term lists, equal offsets summed, without
    zero values and with integral coefficients as int, as `mul_terms`.
    Packing is a ring map, so this is the packed `mul_terms` of the terms;
    it decodes wherever the product's exponents fit the codes."""
    out: Dict[int, Coefficient] = {}
    for o1, c1 in a:
        for o2, c2 in b:
            o = o1 + o2
            cur = out.get(o)
            out[o] = c1 * c2 if cur is None else cur + c1 * c2
    return [(o, c if type(c) is int or c.denominator != 1 else c.numerator)
            for o, c in out.items() if c]


def _packed_image(codes: RowCodes, rmap: RingMap, powers: Dict, mono: IndexTuple) -> list:
    """The packed image of x^mono under rmap: the packed product of the
    packed powers of each variable's image (of its inverse, for a negative
    exponent).  powers[rmap][i] holds variable i's packed powers by
    exponent, for the call's codes, filled outward from exponent 0 on
    first use, each the packed product of its neighbour towards 0 and the
    power at 1 or -1, the packed image or inverse."""
    tables = powers.get(rmap)
    if tables is None:
        tables = powers[rmap] = [{0: [(0, 1)]} for _ in mono]
    out = None
    for i, e in enumerate(mono):
        if not e:
            continue
        table = tables[i]
        if e not in table:
            step = 1 if e > 0 else -1
            if step not in table:
                unit = tuple(step if v == i else 0 for v in range(len(mono)))
                table[step] = _pack(codes, rmap.monomial_terms(unit))
            k = e
            while k - step not in table:
                k -= step
            for k in range(k, e + step, step):
                table[k] = _packed_product(table[k - step], table[step])
        out = table[e] if out is None else _packed_product(out, table[e])
    return [(0, 1)] if out is None else out


def _cech_complex(cover: Cover, lo: int, hi: int, frames: Mapping) -> _WindowedComplex:
    """The windowed Cech-Chevalley-Eilenberg complex of the cover in total
    degrees lo and lo + 1 of its cut lo <= q <= hi, lo 0 or 1.

    Block (sigma, I, t) is an ascending q-tuple I of the basis of a chart,
    or of the reference frame of an overlap, sigma, over its ring, with
    the module label t = 0, in total degree q on a chart and q + 1 on an
    overlap.  It is keyed (I, (sigma, t)), so each chart's stencil writes
    its rows under the complex's codes.  A chart block of degree lo has
    its chart's stencil rows when lo < hi, and restricts to every overlap
    (a, b) it is the first chart of with sign +, and to every overlap
    (b, a) with sign -, its component i = I[0] (0 for I = ()) landing on
    component k times frames[(b, a)][i][k]: the bundle transition at
    q = 0, the inverse transition at q = 1.  A restriction row is read
    from packed terms under the call's codes (`_packed_image`, times the
    frame coefficient's `_pack`), the packed form of the term-dict
    products `RingMap.monomial_terms` and `mul_terms` give.  Nothing of
    total degree lo + 2 or on a triple overlap is built."""
    blocks: Dict[int, List[Tuple[tuple, ChartRing]]] = {lo: [], lo + 1: []}
    stencils = {}
    for a, (ring, alg) in enumerate(cover.charts):
        for q in range(lo, min(hi, lo + 1) + 1):
            blocks[q] += [((idx, (a, 0)), ring) for idx in combinations(range(alg.rank), q)]
        if lo < hi and alg.rank > lo:
            alg.require_verified("the Cech complex")
            stencils[a] = compile_d(alg)
    restricting = {key for key, _ in blocks[lo]}    # the chart blocks of degree lo
    for key in sorted(cover.overlaps):
        ov = cover.overlaps[key]
        blocks[lo + 1] += [((idx, (key, 0)), ov.ring)
                           for idx in combinations(range(len(ov.transition)), lo)]
    keys = [key for n in sorted(blocks) for key, _ in blocks[n]]
    nv = max(len(ring.variables) for found in blocks.values() for _, ring in found)
    # a monomial with exponents of size at most `bound` restricts to one of
    # size at most bound * spread, which a frame or a stencil moves by at
    # most reach
    spread = max([1] + [sum(_size(img.terms) for img in m.images.values())
                        for ov in cover.overlaps.values() for m in (ov.map_a, ov.map_b)])
    reach = max([stencil.reach for stencil in stencils.values()]
                + [_size(c.terms) for frame in frames.values() for row in frame for c in row],
                default=0)

    def plan(codes: RowCodes, idx: IndexTuple, a: int) -> list:
        """(restriction map, [(code of the target block at exponent 0, packed
        frame coefficient, or None for 1)]) per overlap of chart a."""
        out = []
        for key, ov in cover.overlaps.items():
            if a == key[0]:
                out.append((ov.map_a, [(codes.code((idx, (key, 0)), ()), None)]))
            elif a == key[1]:
                out.append((ov.map_b, [
                    (codes.code(((k,) if idx else (), (key, 0)), ()), _pack(codes, (-c).terms))
                    for k, c in enumerate(frames[key][idx[0] if idx else 0])]))
        return out

    def rows(codes: RowCodes, basis) -> Dict[int, dict]:
        out: Dict[int, dict] = defaultdict(dict)
        runs: Dict[int, list] = defaultdict(list)   # chart -> (column, element) of its stencil
        powers: Dict[RingMap, List[Dict[int, list]]] = {}
        last = None
        for j, (key, mono) in enumerate(basis):
            if key is not last:
                last, (idx, (a, _)) = key, key
                live = key in restricting
                targets = plan(codes, idx, a) if live else ()
            for rmap, images in targets:
                img = _packed_image(codes, rmap, powers, mono)
                for base, frame in images:
                    for off, c in (img if frame is None else _packed_product(frame, img)):
                        out[base + off][j] = c
            if live and a in stencils:
                runs[a].append((j, basis[j]))
        for a, run in runs.items():
            for code, row in stencils[a].rows(codes, [item for _, item in run]).items():
                for i, c in row.items():
                    out[code][run[i][0]] = c
        return out

    return _WindowedComplex(blocks, lambda bound: RowCodes(keys, nv, bound * spread + reach),
                            rows)


def coboundary_test(cover: Cover, pair_a: CechPair, pair_b: CechPair,
                    window: TruncationWindow | None = None) -> ClassComparison:
    """Decide whether the two cocycle pairs differ by a coboundary
    (delta eta, d eta) with per-chart 1-forms eta inside the window: one
    solve from total degree 1 to total degree 2 of the cut q >= 1 of
    `_cech_complex`, with phi on its overlap blocks and Q on its chart
    blocks.  A positive answer returns the eta and is verified by
    substitution.  A negative answer is window-relative unless the cover
    carries a residue functional, whose nonzero value is an exact
    certificate.
    """
    window = window or TruncationWindow()
    diff = pair_b.difference(pair_a)
    complex_ = _cech_complex(cover, 1, 2, {key: ov.transition_inverse
                                            for key, ov in cover.overlaps.items()})
    terms = complex_.solve(
        complex_.basis(1, window), max(window.bound(ring) for ring, _ in cover.charts),
        {((idx, (sigma, 0)), m): c for sigma, form in [*diff.phi.items(), *diff.q.items()]
         for idx, val in form.coeffs.items() for m, c in val.terms.items()})
    if terms is not None:
        eta = {a: LForm(alg, 1, {idx: RingElement(ring, t)
                                 for (idx, (b, _)), t in terms.items() if b == a})
               for a, (ring, alg) in enumerate(cover.charts)}
        _verify_coboundary(cover, diff, eta)
        return ClassComparison("equivalent", eta=eta, window=window)

    if cover.residue is not None:
        key = cover.residue["overlap"]
        comp = cover.residue["component"]
        exps = cover.residue["exponents"]
        val = diff.phi[key].component(comp).coefficient(exps)
        if val != 0:
            return ClassComparison("inequivalent", residue_value=val,
                                   window=window)
    return ClassComparison("inequivalent-in-window", window=window)


def _verify_coboundary(cover: Cover, diff: CechPair,
                       eta: Dict[int, LForm]) -> None:
    for (a, b) in cover.overlaps:
        ea, eb = cover.restrict(a, b, eta)
        if not ((ea - eb) - diff.phi[(a, b)]).is_zero():
            raise InternalError("overlap equation unverified")
    for a in range(len(cover.charts)):
        alg = cover.chart_algebroid(a)
        if alg.rank < 2:
            continue
        if not (eta[a].d() - diff.q[a]).is_zero():
            raise InternalError("chart equation unverified")


@dataclass
class GluingReport:
    verified: bool
    maps: Dict[Tuple[int, int], GeneratorMap]
    failures: List[str] = field(default_factory=list)


def glue_sridharan(cover: Cover, pair: CechPair) -> GluingReport:
    """Build the overlap gluing maps and check they preserve relations on
    generators; on declared triples the three maps must compose to the
    identity."""
    maps = {}
    failures = []
    for (a, b) in sorted(cover.overlaps):
        frame = cover.frame_algebroid(a, b)
        qa, qb = cover.restrict(a, b, pair.q)
        target = RelationSystem(frame, qb)
        phi = pair.phi[(a, b)]
        # the generator rule u -> u + phi(u)
        gmap = maps[(a, b)] = GeneratorMap(RelationSystem(frame, qa), target, [
            PbwElement(target, {(i,): 1, (): phi.component((i,))})
            for i in range(frame.rank)])
        for i, right in gmap.broken_relations():
            if isinstance(right, str):
                failures.append(
                    "overlap (%d,%d): coefficient relation broken at e%d,%s"
                    % (a, b, i + 1, right))
            else:
                failures.append(
                    "overlap (%d,%d): commutator of images of e%d,e%d "
                    "does not match the glued relation"
                    % (a, b, i + 1, right + 1))
    for (a, b, c) in cover.triples:
        mab, mbc, mac = maps[(a, b)], maps[(b, c)], maps[(a, c)]
        frame = cover.frame_algebroid(a, b)
        for i in range(frame.rank):
            step = mab.image_of_generator(i)
            composed = mbc(PbwElement(mbc.source, dict(step.terms)))
            direct = mac.image_of_generator(i)
            if composed.terms != direct.terms:
                failures.append("triple (%d,%d,%d): gluing maps do not "
                                "compose to the identity rule" % (a, b, c))
    return GluingReport(not failures, maps, failures)


class LocalConnectionBunch:
    def __init__(self, cover: Cover, rank: int,
                 connections: Sequence[Connection]):
        if len(connections) != len(cover.charts):
            raise StructureError("one connection per chart required")
        for a, conn in enumerate(connections):
            if conn.algebroid is not cover.chart_algebroid(a):
                raise StructureError("connection %d is not on its chart" % a)
            if conn.rank != rank:
                raise StructureError("connection %d has the wrong rank" % a)
        for (a, b), ov in sorted(cover.overlaps.items()):
            if ov.bundle is not None and len(ov.bundle) != rank:
                raise InputError("overlap (%d,%d) has a rank-%d bundle, the "
                                 "bunch has rank %d" % (a, b, len(ov.bundle), rank))
        self.cover = cover
        self.rank = rank
        self.connections = list(connections)


def verify_lambda_module(cover: Cover, pair: CechPair,
                         bunch: LocalConnectionBunch) -> CheckReport:
    """Curvature Q*id on every chart; connection differences id*phi on
    every overlap; and the module-action commutator identity rechecked by
    composing the actions on frame vectors."""
    failures = []
    degenerate = []
    r = bunch.rank
    for a, conn in enumerate(bunch.connections):
        alg = cover.chart_algebroid(a)
        if alg.rank < 2:
            degenerate.append("chart %d: curvature condition is empty at rank %d"
                              % (a, alg.rank))
        f = curvature(conn)
        q = pair.q[a]
        for i, j in combinations(range(alg.rank), 2):
            mat = f.entry(i, j)
            qval = q.component((i, j))
            for s in range(r):
                for t in range(r):
                    want = qval if s == t else alg.base.zero
                    if mat[s][t] != want:
                        failures.append(
                            "chart %d: curvature(%d,%d)[%d,%d] = %s, expected %s"
                            % (a, i + 1, j + 1, s, t, mat[s][t], want))
        # module-action route: acting by e_i then e_j on frame vectors
        ring = alg.base
        for i, j in combinations(range(alg.rank), 2):
            for t in range(r):
                vec = [ring.one if s == t else ring.zero for s in range(r)]
                first = conn.apply_basis(j, vec)
                lhs = conn.apply_basis(i, first)
                second = conn.apply_basis(i, vec)
                lhs = [x - y for x, y in zip(lhs, conn.apply_basis(j, second))]
                br = Section(alg, alg.structure_coefficients(i, j))
                lhs = [x - y for x, y in zip(lhs, conn.apply_section(br, vec))]
                qval = pair.q[a].component((i, j))
                lhs[t] = lhs[t] - qval
                if any(not x.is_zero() for x in lhs):
                    failures.append(
                        "chart %d: module action of [e%d,e%d] does not match"
                        % (a, i + 1, j + 1))
    for (a, b), ov in sorted(cover.overlaps.items()):
        frame = cover.frame_algebroid(a, b)
        zero = ov.ring.zero
        ident = tuple(tuple(ov.ring.one if s == t else zero for t in range(r))
                      for s in range(r))
        g = ov.bundle if ov.bundle is not None else ident
        ginv = ov.bundle_inverse if ov.bundle is not None else ident
        mats_a = [tuple(tuple(ov.map_a(x) for x in row) for row in mat)
                  for mat in bunch.connections[a].matrices]
        mats_b = [tuple(tuple(ov.map_b(x) for x in row) for row in mat)
                  for mat in bunch.connections[b].matrices]
        for jdir in range(frame.rank):
            # second chart matrices, re-indexed to the reference directions
            b_dir = tuple((zero,) * r for _ in range(r))
            for i, row in enumerate(ov.transition_inverse):
                if not row[jdir].is_zero():
                    b_dir = _mat_add(b_dir, _mat_scale(row[jdir], mats_b[i]))
            # gauge to the first chart's module frame: g (a(g^-1) + B g^-1)
            a_ginv = tuple(tuple(frame.base.apply_vector(frame.anchor[jdir], x)
                                 for x in row) for row in ginv)
            gauged = _mat_mul(g, _mat_add(a_ginv, _mat_mul(b_dir, ginv, zero)), zero)
            got = _mat_sub(mats_a[jdir], gauged)
            phival = pair.phi[(a, b)].component((jdir,))
            for s in range(r):
                for t in range(r):
                    want = phival if s == t else zero
                    if got[s][t] != want:
                        failures.append(
                            "overlap (%d,%d): connection difference in "
                            "direction %d entry (%d,%d) is %s, expected %s"
                            % (a, b, jdir + 1, s, t, got[s][t], want))
    return CheckReport(not failures, failures, degenerate)


def line_bundle_cech_dims(cover: Cover, window: TruncationWindow | None = None
                          ) -> Tuple[int, int, bool]:
    """(h0, h1) of the line bundle at the window, and whether they are the
    same at the window enlarged by 2, from one column reduction of the
    cut q = 0 of `_cech_complex`.  h1 is the cokernel of degree 1, the
    overlap sections in the box of exponents of size at most the window's
    Laurent bound, under the chart sections of the box enlarged by the
    transition degree, so that every missing monomial is a genuine
    cohomology class; h0 is the kernel on those chart sections.
    """
    window = window or TruncationWindow()
    slack = 0
    for ov in cover.overlaps.values():
        if ov.bundle is None:
            raise InputError("cover has no bundle data")
        if len(ov.bundle) != 1:
            raise InputError("dimension counts are built for line bundles")
        lo, hi = ov.bundle[0][0].total_degree_range()
        slack = max(slack, abs(lo), abs(hi))
    box = TruncationWindow(window.laurent, window.laurent)
    wide = box.enlarged(2)
    dims = _cech_complex(cover, 0, 0, {key: ov.bundle for key, ov in cover.overlaps.items()}
                         ).dims({0: (box.enlarged(slack), wide.enlarged(slack)),
                                 1: (box, wide)}, slack)

    def at(w: TruncationWindow) -> Tuple[int, int]:
        kernel, image = dims[w][1]
        return dims[w.enlarged(slack)][0][0], kernel - image

    return at(box) + (at(box) == at(wide),)
