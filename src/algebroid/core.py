"""Lie algebroid structures on free modules over a chart ring.

An algebroid of rank n is given by an anchor (each basis section maps to
a combination of the ring's declared derivations) and a structure table
for the bracket on basis sections.  The general bracket is forced by
antisymmetry and the Leibniz rule; the axioms are verified on basis
tuples, which suffices because the remaining identities hold by
construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .rings import ChartRing, Coefficient, RingElement, RingError, as_fraction


class StructureError(Exception):
    """Malformed algebroid data (shape problems, not axiom failures)."""


class InputError(StructureError):
    """A question its input does not admit (a window too small, a form of
    the wrong degree or not closed): a usage error, not a refutation."""


class Section:
    """A section of an algebroid: coordinates in the module basis.

    Sections are immutable: `coefficients` is a tuple and every operation
    returns a new section, so one section may be shared (see
    `Algebroid.basis_section`)."""

    __slots__ = ("owner", "coefficients")

    def __init__(self, owner: "Algebroid", coefficients: Sequence[RingElement]):
        if len(coefficients) != owner.rank:
            raise StructureError("coefficient count does not match rank")
        self.owner = owner
        self.coefficients = tuple(owner.base._coerce(c) for c in coefficients)

    @classmethod
    def _trusted(cls, owner: "Algebroid", coefficients: Sequence[RingElement]
                 ) -> "Section":
        """A section from rank-many coefficients known to be elements of
        the owner's base ring (the results of closed ring operations)."""
        self = object.__new__(cls)
        self.owner = owner
        self.coefficients = tuple(coefficients)
        return self

    def __add__(self, other: "Section") -> "Section":
        self._check(other)
        return Section._trusted(self.owner, [a + b for a, b in
                                             zip(self.coefficients, other.coefficients)])

    def __sub__(self, other: "Section") -> "Section":
        self._check(other)
        return Section._trusted(self.owner, [a - b for a, b in
                                             zip(self.coefficients, other.coefficients)])

    def __neg__(self):
        return Section._trusted(self.owner, [-a for a in self.coefficients])

    def scale(self, f) -> "Section":
        f = self.owner.base._coerce(f)
        return Section._trusted(self.owner, [f * a for a in self.coefficients])

    def _check(self, other):
        if not isinstance(other, Section) or other.owner is not self.owner:
            raise StructureError("sections belong to different algebroids")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def __eq__(self, other):
        return (isinstance(other, Section) and other.owner is self.owner
                and self.coefficients == other.coefficients)

    def __str__(self):
        names = self.owner.basis_names
        parts = ["(%s)*%s" % (c, names[i])
                 for i, c in enumerate(self.coefficients) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


@dataclass
class AxiomWitness:
    kind: str                 # "jacobi-failure" | "anchor-morphism-failure"
    indices: Tuple[int, ...]
    residual: object          # Section (jacobi) or derivation vector mismatch

    def describe(self, owner: "Algebroid") -> str:
        names = [owner.basis_names[i] for i in self.indices]
        return "%s on (%s): residual %s" % (self.kind, ", ".join(names), self.residual)


@dataclass
class Verification:
    verified: bool
    witness: Optional[AxiomWitness] = None


class Algebroid:
    """Free-module Lie algebroid over a ChartRing.

    anchor[i][d] is the coefficient of the d-th declared derivation in the
    image of basis section i.  structure[(i, j)][k] (i < j) is the
    coefficient of e_k in the bracket of e_i and e_j; the (j, i) entries
    are implied by antisymmetry.
    """

    def __init__(self, base: ChartRing, rank: int,
                 anchor: Sequence[Sequence],
                 structure: Mapping[Tuple[int, int], Sequence],
                 basis_names: Sequence[str] | None = None):
        if rank < 0:
            raise StructureError("rank must be nonnegative")
        self.base = base
        self.rank = rank
        nder = len(base.derivation_names)
        if len(anchor) != rank:
            raise StructureError("anchor must have one row per basis section")
        self.anchor: Tuple[Tuple[RingElement, ...], ...] = tuple(
            self._anchor_row(row, nder) for row in anchor)
        table: Dict[Tuple[int, int], Tuple[RingElement, ...]] = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < j < rank):
                raise StructureError("structure indices must satisfy 0 <= i < j < rank")
            vals = tuple(base._coerce(c) for c in coeffs)
            if len(vals) != rank:
                raise StructureError("structure entry must list all %d components" % rank)
            if any(not v.is_zero() for v in vals):
                table[(i, j)] = vals
        self.structure = table
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(rank))
        if len(self.basis_names) != rank:
            raise StructureError("basis name count does not match rank")
        self._verification: Optional[Verification] = None
        self._stencil = None        # forms.compile_d's trivial-connection kernel
        self._basis: Optional[Tuple[Section, ...]] = None    # see basis_section

    def _anchor_row(self, row, nder) -> Tuple[RingElement, ...]:
        vals = tuple(self.base._coerce(c) for c in row)
        if len(vals) != nder:
            raise StructureError(
                "anchor row needs one coefficient per declared derivation")
        return vals

    # -- basic operations ---------------------------------------------------

    def section(self, coefficients: Sequence) -> Section:
        return Section(self, coefficients)

    def basis_section(self, i: int) -> Section:
        """e_i, one shared section per index, built on first use."""
        if self._basis is None:
            one, zero = self.base.one, self.base.zero
            self._basis = tuple(
                Section(self, [one if k == t else zero for k in range(self.rank)])
                for t in range(self.rank))
        return self._basis[i]

    def zero_section(self) -> Section:
        return Section(self, [self.base.zero] * self.rank)

    def structure_coefficients(self, i: int, j: int) -> Tuple[RingElement, ...]:
        """Components of the bracket of basis sections i and j."""
        if i == j:
            return tuple([self.base.zero] * self.rank)
        if i < j:
            return self.structure.get((i, j),
                                      tuple([self.base.zero] * self.rank))
        coeffs = self.structure.get((j, i))
        if coeffs is None:
            return tuple([self.base.zero] * self.rank)
        return tuple(-c for c in coeffs)

    def anchor_derivation(self, u: Section) -> Tuple[RingElement, ...]:
        """The vector field a(u) as coefficients of the declared derivations."""
        nder = len(self.base.derivation_names)
        out = [self.base.zero] * nder
        for i, c in enumerate(u.coefficients):
            if c.is_zero():
                continue
            for d in range(nder):
                if not self.anchor[i][d].is_zero():
                    out[d] = out[d] + c * self.anchor[i][d]
        return tuple(out)

    def anchor_apply(self, u: Section, f: RingElement) -> RingElement:
        """a(u)(f); a constant f gives the zero without building a(u).  On a
        basis section e_i, `base.apply_vector(anchor[i], f)` is the same."""
        if f.ring is not self.base:
            raise RingError("function does not live on this chart")
        if u.owner is not self:
            raise StructureError("section belongs to a different algebroid")
        if f.is_constant():
            return self.base.zero
        return self.base.apply_vector(self.anchor_derivation(u), f)

    def bracket(self, u: Section, v: Section) -> Section:
        """Bracket of sections, expanded by bilinearity and Leibniz."""
        if u.owner is not self or v.owner is not self:
            raise StructureError("sections belong to a different algebroid")
        out = [self.base.zero] * self.rank
        # structure part: u_i v_j [e_i, e_j]
        for i, ui in enumerate(u.coefficients):
            if ui.is_zero():
                continue
            for j, vj in enumerate(v.coefficients):
                if vj.is_zero() or i == j:
                    continue
                c = self.structure_coefficients(i, j)
                coeff = ui * vj
                for k in range(self.rank):
                    if not c[k].is_zero():
                        out[k] = out[k] + coeff * c[k]
        # derivation parts: a(u)(v_j) e_j - a(v)(u_i) e_i
        for j, vj in enumerate(v.coefficients):
            if not vj.is_zero():
                out[j] = out[j] + self.anchor_apply(u, vj)
        for i, ui in enumerate(u.coefficients):
            if not ui.is_zero():
                out[i] = out[i] - self.anchor_apply(v, ui)
        return Section._trusted(self, out)

    # -- axioms --------------------------------------------------------------

    def verify(self) -> Verification:
        """Check Jacobi on basis triples and the anchor morphism condition.

        The verdict is cached; failures carry a nonzero residual witness.
        """
        if self._verification is not None:
            return self._verification
        result = self._verify_now()
        self._verification = result
        return result

    def _verify_now(self) -> Verification:
        for i, j, k in combinations(range(self.rank), 3):
            ei, ej, ek = (self.basis_section(t) for t in (i, j, k))
            jac = (self.bracket(self.bracket(ei, ej), ek)
                   + self.bracket(self.bracket(ej, ek), ei)
                   + self.bracket(self.bracket(ek, ei), ej))
            if not jac.is_zero():
                return Verification(False, AxiomWitness(
                    "jacobi-failure", (i, j, k), jac))
        for i, j in combinations(range(self.rank), 2):
            lhs = self.anchor_derivation(
                Section(self, self.structure_coefficients(i, j)))
            rhs = vector_field_bracket(self.base, self.anchor[i], self.anchor[j])
            diff = [a - b for a, b in zip(lhs, rhs)]
            if any(not d.is_zero() for d in diff):
                return Verification(False, AxiomWitness(
                    "anchor-morphism-failure", (i, j), tuple(diff)))
        return Verification(True)

    def require_verified(self, context: str = "operation") -> None:
        v = self.verify()
        if not v.verified:
            raise StructureError(
                "%s requires a verified algebroid; %s"
                % (context, v.witness.describe(self)))

    # -- degree bookkeeping (used by the windowed complexes) -------------------

    def coefficient_degree_profile(self) -> Tuple[int, int]:
        """(drop, bump): how far d_L can move total degree down or up."""
        drop = 0
        bump = 0
        for row in self.anchor:
            for g in row:
                if g.is_zero():
                    continue
                lo, hi = g.total_degree_range()
                drop = max(drop, 1 - lo)
                bump = max(bump, hi - 1)
        for coeffs in self.structure.values():
            for c in coeffs:
                if c.is_zero():
                    continue
                lo, hi = c.total_degree_range()
                drop = max(drop, -lo)
                bump = max(bump, hi)
        return drop, max(bump, 0)

    def __repr__(self):
        return "Algebroid(rank %d over %r)" % (self.rank, self.base)


def vector_field_bracket(r: ChartRing, v: Sequence[RingElement],
                         w: Sequence[RingElement]) -> Tuple[RingElement, ...]:
    """[v, w] of vector fields given as coefficients of the ring's declared
    (commuting) derivations: [v, w]_d = sum_e v_e d_e(w_d) - w_e d_e(v_d)."""
    return tuple(r.apply_vector(v, wd) - r.apply_vector(w, vd) for vd, wd in zip(v, w))


def verify_axioms(l: Algebroid) -> Verification:
    return l.verify()


# -- catalog constructors ------------------------------------------------------


def make_tangent(r: ChartRing) -> Algebroid:
    """The tangent algebroid: identity anchor, commutator bracket (zero table)."""
    n = len(r.derivation_names)
    if n != len(r.variables):
        raise StructureError("tangent algebroid needs one derivation per variable")
    anchor = [[1 if d == i else 0 for d in range(n)] for i in range(n)]
    return Algebroid(r, n, anchor, {}, basis_names=r.derivation_names)


def make_trivial_bundle(r: ChartRing, n: int) -> Algebroid:
    """Rank-n bundle with zero anchor and zero bracket."""
    nder = len(r.derivation_names)
    return Algebroid(r, n, [[0] * nder for _ in range(n)], {})


def make_lie_algebra_bundle(r: ChartRing, rank: int,
                            constants: Mapping[Tuple[int, int], Mapping[int, object]]
                            ) -> Algebroid:
    """Zero-anchor bundle with the given constant structure table."""
    nder = len(r.derivation_names)
    structure = {}
    for (i, j), comps in constants.items():
        row = [0] * rank
        for k, val in comps.items():
            row[k] = as_fraction(val)
        structure[(i, j)] = row
    return Algebroid(r, rank, [[0] * nder for _ in range(rank)], structure)


def make_foliation(r: ChartRing, generators: Sequence[Sequence]) -> Algebroid:
    """Algebroid on free generators of an involutive family of vector fields.

    Each generator is a coefficient vector over the declared derivations.
    Pairwise commutators are re-expanded in the generators by solving a
    bounded-degree linear system; failure means the family is not
    involutive in the given presentation.
    """
    from .linalg import SparseSystem

    nder = len(r.derivation_names)
    gens = [tuple(r._coerce(c) for c in g) for g in generators]
    if any(len(g) != nder for g in gens):
        raise StructureError("generator rows must match the derivation count")
    m = len(gens)

    degree_bound = 2 * max((c.total_degree_range()[1] for g in gens for c in g
                            if not c.is_zero()), default=0) + 2

    # unknowns: coefficients of each g_k over the monomial window;
    # column (k, mono) is mono * g_k, its rows keyed (derivation, exponents)
    basis = [(k, mono) for k in range(m)
             for mono in _poly_monomials(r, degree_bound)]
    rows: Dict[tuple, Dict[int, Coefficient]] = defaultdict(dict)
    for j, (k, mono) in enumerate(basis):
        for d in range(nder):
            for sexps, scoeff in gens[k][d].terms.items():
                rows[d, tuple(x + y for x, y in zip(sexps, mono))][j] = scoeff
    system = SparseSystem.from_rows(rows, len(basis))
    # every non-commuting pair's bracket, solved from one elimination
    pairs, targets = [], []
    for i, j in combinations(range(m), 2):
        target = vector_field_bracket(r, gens[i], gens[j])
        if any(not t.is_zero() for t in target):
            pairs.append((i, j))
            targets.append({(d, exps): coeff for d in range(nder)
                            for exps, coeff in target[d].terms.items()})
    structure = {}
    for (i, j), terms in zip(pairs, system.solve(targets, basis) if pairs else ()):
        if terms is None:
            raise StructureError(
                "not involutive in given generators: [g%d, g%d] does not "
                "re-expand (degree bound %d)" % (i + 1, j + 1, degree_bound))
        structure[(i, j)] = [RingElement(r, terms.get(k, {})) for k in range(m)]

    anchor = [[g[d] for d in range(nder)] for g in gens]
    return Algebroid(r, m, anchor, structure)


def _poly_monomials(r: ChartRing, degree: int) -> List[Tuple[int, ...]]:
    """All exponent tuples with nonnegative entries and total degree <= degree."""
    nv = len(r.variables)
    out: List[Tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nv)
    return sorted(out)


def make_poisson(r: ChartRing, pi: Mapping[Tuple[int, int], object]) -> Algebroid:
    """Cotangent algebroid of a bivector: basis dx_i, anchor by contraction.

    Conventions: the anchor of dx_i is sum_j pi[i][j] d/dx_j with
    pi[j][i] = -pi[i][j]; the bracket of basis one-forms expands to
    {dx_i, dx_j} = d(pi[i][j]), the Koszul bracket.  Jacobi then holds
    exactly when the bivector is Poisson.
    """
    n = len(r.variables)
    if len(r.derivation_names) != n:
        raise StructureError("need one coordinate derivation per variable")
    table: Dict[Tuple[int, int], RingElement] = {}
    for (i, j), val in pi.items():
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise StructureError("bivector indices out of range")
        elem = r._coerce(val)
        if i < j:
            table[(i, j)] = table.get((i, j), r.zero) + elem
        else:
            table[(j, i)] = table.get((j, i), r.zero) - elem

    def pi_entry(i, j):
        if i == j:
            return r.zero
        if i < j:
            return table.get((i, j), r.zero)
        return -table.get((j, i), r.zero)

    anchor = [[pi_entry(i, j) for j in range(n)] for i in range(n)]
    structure = {}
    for i, j in combinations(range(n), 2):
        pij = pi_entry(i, j)
        comps = [r.derive(r.derivation_names[k], pij) for k in range(n)]
        if any(not c.is_zero() for c in comps):
            structure[(i, j)] = comps
    names = tuple("d" + v for v in r.variables)
    return Algebroid(r, n, anchor, structure, basis_names=names)


def make_log(r: ChartRing, divisor: Sequence[str]) -> Algebroid:
    """Vector fields tangent to the coordinate divisor: x d/dx on divisor
    variables, plain d/dx elsewhere.  All basis brackets vanish."""
    n = len(r.variables)
    if len(r.derivation_names) != n:
        raise StructureError("need one coordinate derivation per variable")
    divisor = set(divisor)
    unknown = divisor - set(r.variables)
    if unknown:
        raise StructureError("divisor variables not in the ring: %s" % sorted(unknown))
    anchor = []
    names = []
    for i, v in enumerate(r.variables):
        row = [r.zero] * n
        if v in divisor:
            row[i] = r.var(v)
            names.append("%s*d/d%s" % (v, v))
        else:
            row[i] = r.one
            names.append("d/d" + v)
        anchor.append(row)
    return Algebroid(r, n, anchor, {}, basis_names=names)


class AlgebroidMorphism:
    """Module map between algebroids over the same chart ring.

    Given by images of the source basis; `verify` checks anchor
    compatibility and bracket preservation on basis pairs.
    """

    def __init__(self, source: Algebroid, target: Algebroid,
                 images: Sequence[Section]):
        if source.base is not target.base:
            raise StructureError("morphisms require a shared base ring")
        if len(images) != source.rank:
            raise StructureError("need one image per source basis section")
        for s in images:
            if s.owner is not target:
                raise StructureError("images must be sections of the target")
        self.source = source
        self.target = target
        self.images = tuple(images)

    def apply(self, u: Section) -> Section:
        if u.owner is not self.source:
            raise StructureError("section is not in the source algebroid")
        out = self.target.zero_section()
        for i, c in enumerate(u.coefficients):
            if not c.is_zero():
                out = out + self.images[i].scale(c)
        return out

    def verify(self) -> bool:
        for i in range(self.source.rank):
            lhs = self.source.anchor[i]
            rhs = self.target.anchor_derivation(self.images[i])
            if any((a - b) != 0 for a, b in zip(lhs, rhs)):
                return False
        for i, j in combinations(range(self.source.rank), 2):
            lhs = self.apply(Section(self.source,
                                     self.source.structure_coefficients(i, j)))
            rhs = self.target.bracket(self.images[i], self.images[j])
            if not (lhs - rhs).is_zero():
                return False
        return True

    @classmethod
    def identity(cls, l: Algebroid) -> "AlgebroidMorphism":
        return cls(l, l, [l.basis_section(i) for i in range(l.rank)])
