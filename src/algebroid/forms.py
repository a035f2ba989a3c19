"""Alternating forms on an algebroid, the differential, and windowed
cohomology.

A degree-p form stores one ring coefficient per strictly ascending
p-tuple of basis indices.  The differential follows the alternating-sum
formula (anchor terms plus bracket terms) and is only offered on
verified algebroids, where it squares to zero.

The cochain complexes are infinite-dimensional over a polynomial chart,
so dimension counts and exactness questions are answered on a finite
window of coefficient monomials.  Positive answers (a primitive, a
kernel vector) are exact; negative answers are labeled window-relative
unless a residue functional certifies them outright.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, count, permutations, repeat
from operator import mul
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .core import Algebroid, InputError, InternalError, Section, StructureError
from .linalg import SparseSystem
from .rings import ChartRing, Coefficient, RingElement, as_fraction

IndexTuple = Tuple[int, ...]


def sort_with_sign(indices: Sequence[int]) -> Tuple[Optional[IndexTuple], int]:
    """Ascending rearrangement and permutation sign; (None, 0) on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def compile_d(l: Algebroid, matrices: Optional[Sequence[Mapping]] = None
              ) -> "Stencil":
    """`covariant_d` compiled for one (algebroid, connection); the trivial
    connection's kernel is compiled once per algebroid and kept on it."""
    if matrices is not None:
        return Stencil(l, matrices)
    if l._stencil is None:
        l._stencil = Stencil(l)
    return l._stencil


def covariant_d(l: Algebroid,
                coeffs: Mapping[Tuple[IndexTuple, Hashable], RingElement],
                matrices: Optional[Sequence[Mapping]] = None
                ) -> Dict[Tuple[IndexTuple, Hashable], RingElement]:
    """The Chevalley-Eilenberg differential with values in a module that
    carries an l-connection.

    `coeffs` maps (ascending index tuple I, module label t) to the ring
    coefficient of theta^I (x) b_t.  `matrices[i][t]` lists the (s, m)
    with nabla_{e_i} b_t = sum m * b_s; without `matrices` the connection
    is trivial.  The formula

        d w(e_0..e_p) = sum_a (-1)^a nabla_{e_a} w(.., no e_a, ..)
                        + sum_{a<b} (-1)^(a+b) w([e_a, e_b], .., no e_a, e_b, ..)

    is evaluated by the compiled kernel (`compile_d`), term by term.  The
    result uses the same keys and holds no zero values.
    """
    return compile_d(l, matrices).apply(coeffs)


def _tuple_keys(rank: int) -> List[Tuple[IndexTuple, int]]:
    """(index tuple, 0) for every ascending tuple of 0..rank-1, by length
    and then in ascending order: the row keys of a Chevalley-Eilenberg
    complex with trivial coefficients, in the order of its row codes."""
    return [(idx, 0) for p in range(rank + 1) for idx in combinations(range(rank), p)]


class RowCodes:
    """Packed integer row codes of the windowed systems of one call.

    The code of ((index tuple, module label), monomial) is
    block * radix^nv + the packed monomial, where keys[block] is the
    (tuple, label) pair and the packed monomial holds exponent e_v + bias
    as its digit at radix^(nv-1-v), so the first variable is the most
    significant digit and a Laurent exponent becomes a nonnegative digit.
    With radix 2 * bias + 1, every exponent of size at most `bias` is one
    digit and no digit carries: codes of one block sort like their
    monomials, and blocks numbered in sorted key order sort like the keys.
    A call takes bias = the largest |exponent| of its largest window plus
    the largest shift of its stencils (`Stencil.reach`), so that the
    images of its basis elements fit too.  An exponent shift s moves a
    code by the unbiased packing of s, so a compiled stencil entry is one
    int offset per call (`Stencil.rows`).  A monomial in fewer variables
    packs into the leading digits, its missing variables at exponent 0,
    so the blocks of rings with fewer variables share the codes: their
    codes too sort like their monomials.
    """

    def __init__(self, keys: Iterable[Hashable], nv: int, bias: int):
        self.keys = list(keys)
        self.block = {key: b for b, key in enumerate(self.keys)}
        self.bias = bias
        radix = 2 * bias + 1
        self.places = [radix ** (nv - 1 - v) for v in range(nv)]
        self.scale = radix ** nv
        self.zero = (self.scale - 1) // 2      # the packed exponent 0: every digit is bias
        self._monos: Dict[int, IndexTuple] = {}  # packed monomial -> exponents, once decoded

    def mono(self, mono: IndexTuple) -> int:
        """The packed monomial: the code of (keys[0], mono), and the
        remainder of every code of mono modulo `scale`."""
        return self.zero + sum(map(mul, self.places, mono))

    def code(self, key: Hashable, mono: IndexTuple) -> int:
        return self.block[key] * self.scale + self.mono(mono)

    def decode(self, code: int) -> Tuple[Hashable, IndexTuple]:
        """(key, monomial) of a code."""
        block, packed = divmod(code, self.scale)
        mono = self._monos.get(packed)
        if mono is None:
            digits, rest = [], packed
            for place in self.places:
                digit, rest = divmod(rest, place)
                digits.append(digit - self.bias)
            mono = self._monos[packed] = tuple(digits)
        return self.keys[block], mono


class Stencil:
    """The differential of `covariant_d` for one (algebroid, connection),
    as integer stencils.

    Every ring coefficient d touches becomes a list of (exponent shift,
    coefficient): the structure constants, the connection entries, and
    the anchor of e_i folded through the ring's derivation actions, whose
    terms also name a variable v (they act on x^m with the factor m_v).
    Integral coefficients are stored as int, so on integer algebroids a
    column costs only int arithmetic.  The entry list of each (index
    tuple I, module label t) gathers the terms that theta^I (x) b_t
    scatters: anchor and connection terms for each i not in I, bracket
    terms for each k in I through the c_ij^k with i, j outside I - {k}.
    It is built on first use and kept; `rows` turns it into offsets of
    `RowCodes`, once per (codes, (I, t)).  `reach` is the largest size of a
    component of a term's shift.
    """

    def __init__(self, l: Algebroid, matrices: Optional[Sequence[Mapping]] = None):
        ring = l.base
        self.owner = l
        self.matrices = matrices
        # e_i acts on x^m as sum over (v, shift, c) of m_v * c * x^(m + shift)
        self.anchor: List[List[Tuple[int, IndexTuple, Fraction]]] = []
        for row in l.anchor:
            acc: Dict[Tuple[int, IndexTuple], Fraction] = {}
            for name, g in zip(ring.derivation_names, row):
                for v, act in enumerate(ring.derivation_action(name)):
                    for gexp, gc in g.terms.items():
                        for aexp, ac in act.terms.items():
                            shift = tuple(a + b - (w == v) for w, (a, b)
                                          in enumerate(zip(gexp, aexp)))
                            acc[(v, shift)] = acc.get((v, shift), 0) + gc * ac
            self.anchor.append([(v, shift, c) for (v, shift), c in acc.items() if c])
        self.feeds: List[List[Tuple[int, int, RingElement]]] = [[] for _ in range(l.rank)]
        for (i, j), comps in l.structure.items():
            for k, c in enumerate(comps):
                if not c.is_zero():
                    self.feeds[k].append((i, j, c))
        self.reach = max((abs(e) for shift, _ in self._shifts() for e in shift), default=0)
        self._entries: Dict[Tuple[IndexTuple, Hashable], tuple] = {}
        self._codes: Optional[RowCodes] = None
        self._offsets: Dict[Tuple[IndexTuple, Hashable], tuple] = {}
        self._weights: Optional[Tuple[Tuple[int, ...], ...]] = None

    def _shifts(self) -> Iterable[Tuple[IndexTuple, Tuple[Tuple[int, int], ...]]]:
        """(shift, signed basis indices) of every term: (i, 1) for an anchor
        or connection term of e_i, (i, 1), (j, 1), (k, -1) for a monomial
        of c_ij^k."""
        for i, terms in enumerate(self.anchor):
            for _, shift, _ in terms:
                yield shift, ((i, 1),)
        for i, by_label in enumerate(self.matrices or ()):
            for entries in (by_label.values() if isinstance(by_label, Mapping)
                            else by_label):
                for _, m in entries:
                    for shift in m.terms:
                        yield shift, ((i, 1),)
        for k, feeds in enumerate(self.feeds):
            for i, j, c in feeds:
                for shift in c.terms:
                    yield shift, ((i, 1), (j, 1), (k, -1))

    def weights(self) -> Tuple[Tuple[int, ...], ...]:
        """An integer basis of the gradings that every entry preserves:
        vectors (w on the ring's variables | u on the basis indices) with
        theta^idx (x) b_t * x^m of weight w.m + sum of u_i over idx, one
        component per vector (module labels weigh 0).  An anchor or
        connection term of e_i with shift s needs w.s + u_i = 0, and a
        monomial x^s of c_ij^k needs w.s + u_i + u_j - u_k = 0; the basis
        is `SparseSystem.kernel` of these constraint rows.  Computed on
        first use and kept; empty when only the zero grading exists."""
        if self._weights is None:
            nv = len(self.owner.base.variables)
            constraints = set()
            for shift, signed in self._shifts():
                row = list(shift) + [0] * self.owner.rank
                for i, sign in signed:
                    row[nv + i] += sign
                constraints.add(tuple(row))
            system = SparseSystem([{j: x for j, x in enumerate(row) if x}
                                   for row in constraints], nv + self.owner.rank)
            self._weights = tuple(system.kernel())
        return self._weights

    def _compile(self, key: Tuple[IndexTuple, Hashable]) -> tuple:
        """(constant terms [(key, shift, c)], anchor terms [(key, v, shift, c)])
        of theta^idx (x) b_t at key = (idx, t), keyed by (target tuple,
        module label); built on first use and kept."""
        entries = self._entries.get(key)
        if entries is not None:
            return entries
        idx, t = key
        consts: Dict[tuple, Fraction] = {}
        anchors: Dict[tuple, Fraction] = {}

        def put(table, key, c, negate):
            table[key] = table.get(key, 0) + (-c if negate else c)

        for i in range(self.owner.rank):
            pos = bisect_left(idx, i)
            if pos < len(idx) and idx[pos] == i:
                continue
            big = idx[:pos] + (i,) + idx[pos:]
            negate = pos % 2 == 1
            for v, shift, c in self.anchor[i]:
                put(anchors, ((big, t), v, shift), c, negate)
            if self.matrices is not None:
                for s, m in self.matrices[i][t]:
                    for shift, c in m.terms.items():
                        put(consts, ((big, s), shift), c, negate)
        for pos, k in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            for i, j, c_ij in self.feeds[k]:
                if i in rest or j in rest:
                    continue
                big = tuple(sorted(rest + (i, j)))
                negate = (big.index(i) + big.index(j) + pos) % 2 == 1
                for shift, c in c_ij.terms.items():
                    put(consts, ((big, t), shift), c, negate)
        entries = self._entries[key] = (
            [(target, shift, as_fraction(c)) for (target, shift), c in consts.items() if c],
            [(target, v, shift, as_fraction(c))
             for (target, v, shift), c in anchors.items() if c])
        return entries

    def affine(self, key: Tuple[IndexTuple, Hashable]
               ) -> Dict[Tuple[Tuple[IndexTuple, Hashable], IndexTuple], Tuple[Coefficient, ...]]:
        """The entries of theta^idx (x) b_t at key = (idx, t) as affine
        functions of the source exponents m: {(target key, shift): (c_0,
        c_1, .., c_nv)}, the image of x^m holding c_0 + sum_v c_(v+1) * m_v
        at the target key times x^(m + shift).  No entry is all zero."""
        consts, anchors = self._compile(key)
        width = len(self.owner.base.variables) + 1
        out: Dict[tuple, list] = {}
        for target, shift, c in consts:
            out.setdefault((target, shift), [0] * width)[0] = c
        for target, v, shift, c in anchors:
            out.setdefault((target, shift), [0] * width)[v + 1] = c
        return {entry: tuple(f) for entry, f in out.items()}

    def _offset_entries(self, codes: RowCodes, key: Tuple[IndexTuple, Hashable]) -> tuple:
        """The entries of theta^idx (x) b_t at key = (idx, t) as offsets
        under `codes`, one per target (key, shift): (constant terms
        [(offset, c)], lone anchor terms [(offset, v, c)], targets that
        several terms share [(offset, constant part, ((v, c), ...))]).
        Made once per (codes, key) and kept until other codes are asked
        for."""
        if self._codes is not codes:
            self._codes, self._offsets = codes, {}
        out = self._offsets.get(key)
        if out is not None:
            return out
        out = self._offsets[key] = ([], [], [])
        for (target, shift), (c, *linear) in self.affine(key).items():
            off = codes.block[target] * codes.scale + sum(map(mul, codes.places, shift))
            terms = tuple((v, cv) for v, cv in enumerate(linear) if cv)
            if not terms:
                out[0].append((off, c))
            elif not c and len(terms) == 1:
                out[1].append((off,) + terms[0])
            else:
                out[2].append((off, c, terms))
        return out

    def rows(self, codes: RowCodes,
             basis: Sequence[Tuple[Tuple[IndexTuple, Hashable], IndexTuple]]
             ) -> Dict[int, Dict[int, Coefficient]]:
        """The images of theta^idx (x) b_t * x^mono over the (key, mono) of
        `basis`, key = (idx, t), as rows {row code: {column: value}} with
        column j the image of basis[j], built row-wise in one pass and
        without zero values; each value is an int or a Fraction.  Each
        entry costs one int add: its offset plus the code of the column's
        monomial.  The offsets are fetched when the key object changes, so
        consecutive elements of one key should share one key object."""
        zero, places = codes.zero, codes.places
        rows: Dict[int, Dict[int, Coefficient]] = defaultdict(dict)
        last = None
        for j, (key, mono) in enumerate(basis):
            if key is not last:
                last = key
                consts, anchors, shared = self._offset_entries(codes, key)
            at = zero + sum(map(mul, places, mono))
            for off, c in consts:
                rows[off + at][j] = c
            for off, v, c in anchors:
                e = mono[v]
                if e:
                    rows[off + at][j] = c * e
            for off, c, terms in shared:
                for v, cv in terms:
                    e = mono[v]
                    if e:
                        c = c + cv * e
                if c:
                    rows[off + at][j] = c
        return rows

    def apply(self, coeffs: Mapping[Tuple[IndexTuple, Hashable], RingElement]
              ) -> Dict[Tuple[IndexTuple, Hashable], RingElement]:
        """`covariant_d` of `coeffs`: one `rows` over all terms, each row
        summed against the terms' coefficients, then decoded."""
        keys: Dict[Hashable, None] = {}
        for key in coeffs:
            for entries in self._compile(key):
                keys.update(dict.fromkeys(entry[0] for entry in entries))
        bound = max((abs(e) for f in coeffs.values() for mono in f.terms for e in mono),
                    default=0)
        codes = RowCodes(keys, len(self.owner.base.variables), bound + self.reach)
        basis = [(key, mono) for key, f in coeffs.items() for mono in f.terms]
        scale = [c for f in coeffs.values() for c in f.terms.values()]
        grouped: Dict[tuple, Dict[IndexTuple, Coefficient]] = {}
        for k, row in self.rows(codes, basis).items():
            c = sum(scale[j] * v for j, v in row.items())
            if c:
                key, mono = codes.decode(k)
                grouped.setdefault(key, {})[mono] = c
        return {key: RingElement(self.owner.base, terms)
                for key, terms in grouped.items()}


class LForm:
    """Alternating p-form with ring coefficients on ascending index tuples."""

    __slots__ = ("owner", "degree", "coeffs")

    def __init__(self, owner: Algebroid, degree: int,
                 coeffs: Mapping[IndexTuple, RingElement] | None = None):
        if degree < 0:
            raise StructureError("form degree must be nonnegative")
        self.owner = owner
        self.degree = degree
        clean: Dict[IndexTuple, RingElement] = {}
        for idx, val in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise StructureError("index tuple does not match degree")
            if any(not (0 <= t < owner.rank) for t in idx):
                raise StructureError("index out of range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise StructureError("index tuples must be strictly ascending")
            val = owner.base._coerce(val)
            if not val.is_zero():
                clean[idx] = val
        self.coeffs = clean

    # -- algebra -------------------------------------------------------------

    def _check(self, other: "LForm"):
        if other.owner is not self.owner:
            raise StructureError("forms live on different algebroids")

    def __add__(self, other: "LForm") -> "LForm":
        self._check(other)
        if other.degree != self.degree:
            raise StructureError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for idx, val in other.coeffs.items():
            cur = out.get(idx)
            out[idx] = val if cur is None else cur + val
        return LForm(self.owner, self.degree, out)

    def __sub__(self, other: "LForm") -> "LForm":
        return self + (-other)

    def __neg__(self) -> "LForm":
        return LForm(self.owner, self.degree,
                     {i: -v for i, v in self.coeffs.items()})

    def scale(self, f) -> "LForm":
        f = self.owner.base._coerce(f)
        return LForm(self.owner, self.degree,
                     {i: f * v for i, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, LForm) and other.owner is self.owner
                and other.degree == self.degree and other.coeffs == self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def component(self, indices: Sequence[int]) -> RingElement:
        """Value on basis sections in any order (with sign)."""
        idx, sign = sort_with_sign(indices)
        if idx is None:
            return self.owner.base.zero
        val = self.coeffs.get(idx)
        if val is None:
            return self.owner.base.zero
        return val if sign == 1 else -val

    def evaluate(self, *sections: Section) -> RingElement:
        """Multilinear evaluation on arbitrary sections."""
        if len(sections) != self.degree:
            raise StructureError("evaluation needs %d sections" % self.degree)
        base = self.owner.base
        total = base.zero
        if self.degree == 0:
            return self.coeffs.get((), base.zero)
        for idx, val in self.coeffs.items():
            total = total + val * _ring_det(
                base, [[s.coefficients[t] for t in idx] for s in sections])
        return total

    # -- calculus -------------------------------------------------------------

    def wedge(self, other: "LForm") -> "LForm":
        self._check(other)
        p, q = self.degree, other.degree
        out: Dict[IndexTuple, RingElement] = {}
        for i1, v1 in self.coeffs.items():
            for i2, v2 in other.coeffs.items():
                merged, sign = sort_with_sign(i1 + i2)
                if merged is None:
                    continue
                term = v1 * v2 if sign == 1 else -(v1 * v2)
                cur = out.get(merged)
                out[merged] = term if cur is None else cur + term
        return LForm(self.owner, p + q, out)

    def contract(self, u: Section) -> "LForm":
        if u.owner is not self.owner:
            raise StructureError("section belongs to a different algebroid")
        if self.degree == 0:
            raise StructureError("cannot contract a degree-0 form")
        out: Dict[IndexTuple, RingElement] = {}
        for idx, val in self.coeffs.items():
            for pos, t in enumerate(idx):
                c = u.coefficients[t]
                if c.is_zero():
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                term = c * val if pos % 2 == 0 else -(c * val)
                cur = out.get(rest)
                out[rest] = term if cur is None else cur + term
        return LForm(self.owner, self.degree - 1, out)

    def d(self) -> "LForm":
        """The algebroid differential; requires a verified owner."""
        self.owner.require_verified("the differential")
        return self._d_unchecked()

    def _d_unchecked(self) -> "LForm":
        image = covariant_d(self.owner, {(idx, 0): val
                                         for idx, val in self.coeffs.items()})
        return LForm(self.owner, self.degree + 1,
                     {idx: val for (idx, _), val in image.items()})

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.owner.basis_names
        parts = []
        for idx in sorted(self.coeffs):
            label = "^".join("%s^" % names[t] for t in idx) if idx else "1"
            parts.append("(%s)*%s" % (self.coeffs[idx], label) if idx
                         else "(%s)" % self.coeffs[idx])
        return " + ".join(parts)

    __repr__ = __str__


def _ring_det(ring: ChartRing, mat: Sequence[Sequence[RingElement]]) -> RingElement:
    """Determinant of a square matrix over the ring (Leibniz expansion)."""
    total = ring.zero
    for perm in permutations(range(len(mat))):
        sign = sort_with_sign(perm)[1]
        prod = ring.one
        for row, col in enumerate(perm):
            prod = prod * mat[row][col]
            if prod.is_zero():
                break
        total = total + (prod if sign == 1 else -prod)
    return total


def d_L(theta: LForm) -> LForm:
    return theta.d()


def wedge(a: LForm, b: LForm) -> LForm:
    return a.wedge(b)


def contract(theta: LForm, u: Section) -> LForm:
    return theta.contract(u)


def function_form(l: Algebroid, f) -> LForm:
    return LForm(l, 0, {(): l.base._coerce(f)})


def basis_covector(l: Algebroid, i: int) -> LForm:
    return LForm(l, 1, {(i,): l.base.one})


def pullback(form: LForm, source: Algebroid,
             images: Sequence[Section]) -> LForm:
    """The form on `source` whose value on basis sections e_i, e_j, ...
    is form's value on images[i], images[j], ... (sections of its
    algebroid over the same ring)."""
    return LForm(source, form.degree, {
        idx: form.evaluate(*[images[t] for t in idx])
        for idx in combinations(range(source.rank), form.degree)})


# -- windowed slices ------------------------------------------------------------


class WindowError(InputError):
    """A window too small for the question."""


@dataclass(frozen=True)
class TruncationWindow:
    """Finite slice of the cochain spaces: total polynomial degree at most
    `degree`, Laurent exponents within [-laurent, laurent]."""
    degree: int = 8
    laurent: int = 12

    def __post_init__(self):
        if self.degree < 0 or self.laurent < 1:
            raise StructureError("window bounds out of range")

    def enlarged(self, amount: int) -> "TruncationWindow":
        return TruncationWindow(self.degree + amount, self.laurent + amount)

    def bound(self, ring: ChartRing) -> int:
        """The largest |exponent| of a window monomial over `ring`."""
        return max((self.laurent if v in ring.laurent else self.degree
                    for v in ring.variables), default=0)

    def ranges(self, ring: ChartRing) -> List[Tuple[int, int]]:
        """(lowest, highest) exponent of each variable of `ring`; a window
        monomial also spends at most `degree` on its positive exponents."""
        return [(-self.laurent, self.laurent) if v in ring.laurent else (0, self.degree)
                for v in ring.variables]

    def monomials(self, ring: ChartRing) -> Tuple[IndexTuple, ...]:
        """The exponent tuples of the window in ascending order, built
        once per (ring, window) and kept on the ring."""
        monos = ring._window_monomials.get(self)
        if monos is None:
            # (prefix, degree budget left); extending in ascending exponent
            # order keeps the prefixes sorted
            level, ranges = [((), self.degree)], self.ranges(ring)
            for lo, hi in ranges[:-1]:
                level = [(m + (e,), left - max(e, 0)) for m, left in level
                         for e in range(lo, min(hi, left) + 1)]
            monos = ((),)
            if ranges:      # the last exponent leaves no budget to track
                lo, hi = ranges[-1]
                monos = tuple(m + (e,) for m, left in level for e in range(lo, min(hi, left) + 1))
            ring._window_monomials[self] = monos
        return monos


@dataclass
class DegreeReport:
    kernel_dim: int
    image_dim: int
    stable: bool

    @property
    def cohomology_dim(self) -> int:
        return self.kernel_dim - self.image_dim


@dataclass
class CohomologyReport:
    window: TruncationWindow
    degrees: Dict[int, DegreeReport] = field(default_factory=dict)

    def dim(self, p: int) -> int:
        return self.degrees[p].cohomology_dim


_RADIX = 1 << 64


class _WindowedComplex:
    """A cochain complex on window slices.

    Degree p is the list blocks[p] of blocks (key, ring): its basis is
    (key, window monomial of the ring) for each block in turn, one key
    object shared by all of a block's basis elements, and a degree that
    `blocks` does not name is zero.  `codes(bound)` gives the `RowCodes`
    of a call whose monomials have exponents of size at most `bound`,
    numbering the blocks so that within one degree the codes sort like
    (block, monomial).  `rows(codes, basis)` gives the images of a list
    of basis elements as rows {code: {column: value}}, column j the image
    of basis[j].
    `grading` returns vectors (w | u) as `Stencil.weights` gives them: the
    differential maps the basis elements of each weight into the same
    weight one degree up.  It is called only when a weight is asked for,
    and only on a Chevalley-Eilenberg complex: one ring, degrees 0..rank,
    blocks keyed (index tuple, label).
    """

    def __init__(self, blocks: Mapping[int, Sequence[Tuple[Hashable, ChartRing]]],
                 codes, rows, grading=tuple):
        self.blocks = blocks
        self.codes = codes
        self.rows = rows
        self._grading = grading
        self._packed: Optional[Tuple[List[int], List[int]]] = None

    def basis(self, p: int, window: TruncationWindow) -> List[Tuple[Hashable, IndexTuple]]:
        return [(key, m) for key, ring in self.blocks.get(p, ())
                for m in window.monomials(ring)]

    def solve(self, basis: Sequence[Tuple[Hashable, IndexTuple]], bound: int,
              rhs: Mapping[Tuple[Hashable, IndexTuple], Coefficient]
              ) -> Optional[Dict[Hashable, Dict[IndexTuple, Coefficient]]]:
        """`SparseSystem.solve` of d x = rhs, a cochain {(key, monomial):
        value}, for x in the span of `basis`, whose monomials have
        exponents of size at most `bound`: {key: {monomial: value}}, or
        None.  The codes cover the exponents of rhs too, so a term that no
        column reaches has a code of its own."""
        codes = self.codes(max([bound] + [abs(e) for _, m in rhs for e in m]))
        (terms,) = SparseSystem.from_rows(self.rows(codes, basis), len(basis)).solve(
            [{codes.code(key, m): c for (key, m), c in rhs.items()}], basis)
        return terms

    def _weights(self) -> Tuple[List[int], List[int]]:
        """(weight of each variable's exponent, weight of each index).  A
        weight is kept as one int, component k as the digit at _RADIX^k
        (digits signed, so the packing is injective while every component
        is smaller than _RADIX / 2 in size); packing is linear, so an
        element's weight is its monomial's plus its indices'."""
        if self._packed is None:
            grading, nv = self._grading(), len(self.blocks[0][0][1].variables)
            packed = [sum(g[at] * _RADIX ** k for k, g in enumerate(grading))
                      for at in range(nv + max(self.blocks))]
            self._packed = (packed[:nv], packed[nv:])
        return self._packed

    def weight(self, idx: IndexTuple, mono: IndexTuple) -> int:
        mono_weight, index_weight = self._weights()
        return sum(map(mul, mono_weight, mono)) + sum(index_weight[i] for i in idx)

    def weight_basis(self, p: int, window: TruncationWindow, weights: Iterable[int]
                     ) -> List[Tuple[Hashable, IndexTuple]]:
        """The basis elements of the given weights, in basis order.

        Only the monomials of the first n - 1 variables are listed, with
        their weights; the last exponent is solved from each wanted
        weight by exact division of the packed ints, which finds every
        match in range as packing is linear and injective there.  A last
        variable of weight 0 matches its whole range or nothing."""
        mono_weight, index_weight = self._weights()
        weights = set(weights)
        blocks = self.blocks.get(p, ())
        if not mono_weight:
            return [(key, ()) for key, _ in blocks
                    if sum(index_weight[i] for i in key[0]) in weights]
        *ranges, (lo, hi) = window.ranges(self.blocks[0][0][1])
        # (prefix, its weight, degree budget left), ascending like `monomials`
        level = [((), 0, window.degree)]
        for (first, last), w in zip(ranges, mono_weight):
            level = [(m + (e,), wt + e * w, left - max(e, 0)) for m, wt, left in level
                     for e in range(first, min(last, left) + 1)]
        w = mono_weight[-1]
        out = []
        for key, _ in blocks:
            shift = sum(index_weight[i] for i in key[0])
            # the last exponent (target - weight) / w rises with the target
            # when w > 0, so the matches of one prefix come out ascending
            targets = sorted({wt - shift for wt in weights}, reverse=w < 0)
            for m, wt, left in level:
                top = min(hi, left)
                if not w:
                    if wt in targets:
                        out.extend((key, m + (e,)) for e in range(lo, top + 1))
                    continue
                for t in targets:
                    e, r = divmod(t - wt, w)
                    if not r and lo <= e <= top:
                        out.append((key, m + (e,)))
        return out

    def dims(self, asks: Mapping[int, Iterable[TruncationWindow]], drop: int
             ) -> Dict[TruncationWindow, Dict[int, Tuple[int, int]]]:
        """{window: {p: (kernel dim, windowed image dim)}} for each degree p
        and each window asks[p], degrees ascending; (0, 0) at a degree with
        no blocks.  The image counts the coboundaries of (p-1)-cochains
        from the window enlarged by `drop` that land inside the window.

        The windows and their enlargements by `drop` must be nested, and
        one column reduction per degree (`SparseSystem.pivots`) reads them
        all; a degree whose next degree has no blocks has rank 0 and
        builds nothing.  Each degree's basis is ordered by the first of
        them that holds an element, in basis order inside each such layer
        (the layers of each block's ring), so each window's slice is a
        prefix of one list of columns, whose rank is its pivot count.
        Each row of degree p's system is keyed by its column in degree
        p + 1's basis, or by len(that basis) + its code when that basis
        lacks it, so the rows inside each window read at p + 1 are again
        a prefix; a window's image is the number of reduced columns of the
        enlarged window's prefix whose low lies below the window's size.
        The rows past every such window need no order of their own: ranks
        and pivot columns do not depend on the row order.  Degree p
        does not build the columns that are lows of degree p - 1
        (clearing: Chen & Kerber, EuroCG 2011): each is the last entry of
        a coboundary, so its column depends on the ones before it.  The
        differential preserves the weights of `Stencil.weights` and blocks
        of different weights share no rows, so the rank of one weight's
        block is the number of pivot columns of that weight: per-weight
        answers can be read from the same pivots."""
        out: Dict[TruncationWindow, Dict[int, Tuple[int, int]]] = {}
        reads: Dict[int, set] = {}          # degree -> the windows it is read at
        for p in sorted(asks):
            for w in asks[p]:
                out.setdefault(w, {})[p] = (0, 0)
            if p in self.blocks:
                reads.setdefault(p, set()).update(asks[p])
                if p - 1 in self.blocks:
                    reads.setdefault(p - 1, set()).update(w.enlarged(drop) for w in asks[p])
        if not reads:
            return out
        nested = sorted(set().union(*reads.values()), key=lambda w: (w.degree, w.laurent))
        at = {w: k for k, w in enumerate(nested)}
        ring_of = {key: ring for found in self.blocks.values() for key, ring in found}
        codes = self.codes(max(nested[-1].bound(ring) for ring in ring_of.values()))
        # per ring: the monomials first held by each of `nested`, counting
        # only the windows that a degree with blocks over the ring is read
        # at (the other layers are empty)
        layers: Dict[ChartRing, List[List[IndexTuple]]] = {}
        reads_at = {p: {at[w] for w in ws} for p, ws in reads.items()}
        for ring in dict.fromkeys(ring_of.values()):
            kept = set().union(*(reads_at[p] for p in reads
                                 if any(r is ring for _, r in self.blocks[p])))
            layer: Dict[IndexTuple, int] = {}
            layers[ring] = []
            for k, w in enumerate(nested):
                monos = w.monomials(ring) if k in kept else ()
                layers[ring].append([m for m in monos if m not in layer])
                layer.update(dict.fromkeys(layers[ring][-1], k))
                if monos and len(layer) != len(monos):
                    raise ValueError("windows are not nested")
        # per read degree: its basis, layer by layer, its size inside each
        # of `nested` up to the last it is read at, and when it holds the
        # rows of the degree below, the {code: column} of its basis
        bases: Dict[int, List[Tuple[Hashable, IndexTuple]]] = {}
        sizes: Dict[int, List[int]] = {}
        index: Dict[int, Dict[int, int]] = {}
        packed: Dict[ChartRing, List[List[int]]] = {}   # a ring's layers, packed
        for p in reads:
            basis, sizes[p], row_codes = bases.setdefault(p, []), [], []
            for k in range(max(reads_at[p]) + 1):
                for key, ring in self.blocks[p]:
                    basis.extend(zip(repeat(key), layers[ring][k]))
                    if p - 1 in reads:
                        if ring not in packed:
                            packed[ring] = [list(map(codes.mono, monos)) for monos in layers[ring]]
                        base = codes.block[key] * codes.scale
                        row_codes.extend(map(base.__add__, packed[ring][k]))
                sizes[p].append(len(basis))
            index[p] = dict(zip(row_codes, count()))
        lows: Dict[int, List[int]] = {}     # degree -> the low of each pivot, by column
        ranks: Dict[tuple, int] = {}
        for p in sorted(reads):
            if p + 1 not in self.blocks:
                # the differential into a zero degree is zero: no system
                ranks.update(((p, w), 0) for w in reads[p])
                continue
            basis, ids = bases[p], index.get(p + 1, {})
            cleared = {low for low in lows.get(p - 1, ()) if low < len(basis)}
            columns = [j for j in range(len(basis)) if j not in cleared]
            far = len(ids)
            system = SparseSystem.from_rows(
                {ids.get(code, far + code): row for code, row in self.rows(
                    codes, [basis[j] for j in columns] if cleared else basis).items()},
                len(columns))
            pivots = system.pivots()
            lows[p] = [system.row_keys[t] for t, _ in pivots]
            pivot_columns = [columns[j] for _, j in pivots]
            for w in reads[p]:
                ranks[p, w] = bisect_left(pivot_columns, sizes[p][at[w]])
        for p in reads.keys() & asks.keys():
            for w in asks[p]:
                image = 0
                if p - 1 in self.blocks:
                    inside = sizes[p][at[w]]
                    image = sum(low < inside for low in lows[p - 1][:ranks[p - 1, w.enlarged(drop)]])
                out[w][p] = (sizes[p][at[w]] - ranks[p, w], image)
        return out


def _ce_complex(l: Algebroid) -> _WindowedComplex:
    """The Chevalley-Eilenberg complex of l with trivial coefficients,
    graded by the weights its stencil preserves: degree p holds one block
    per ascending p-tuple."""
    stencil, keys = compile_d(l), _tuple_keys(l.rank)
    nv = len(l.base.variables)
    blocks: Dict[int, List[Tuple[Hashable, ChartRing]]] = {}
    for key in keys:
        blocks.setdefault(len(key[0]), []).append((key, l.base))
    return _WindowedComplex(
        blocks, lambda bound: RowCodes(keys, nv, bound + stencil.reach),
        stencil.rows, stencil.weights)


def _extent(ring: ChartRing, elements: Iterable[RingElement]) -> Tuple[int, int]:
    """(largest total degree, largest |Laurent exponent|) over the nonzero
    elements, each at least 0."""
    maxdeg = maxexp = 0
    for g in elements:
        if not g.is_zero():
            maxdeg = max(maxdeg, g.total_degree_range()[1])
            for i, v in enumerate(ring.variables):
                if v in ring.laurent:
                    lo, hi = g.exponent_range(i)
                    maxexp = max(maxexp, abs(lo), abs(hi))
    return maxdeg, maxexp


def _window_check(l: Algebroid, window: TruncationWindow) -> None:
    maxdeg, maxexp = _extent(l.base, chain(*l.anchor, *l.structure.values()))
    maxexp = max(maxexp, 1)
    if window.degree < maxdeg or window.laurent < maxexp:
        raise WindowError(
            "window too small relative to coefficient degrees "
            "(need degree >= %d, laurent >= %d)" % (maxdeg, maxexp))


def truncated_cohomology(l: Algebroid, degrees: Iterable[int],
                         window: TruncationWindow | None = None) -> CohomologyReport:
    """Exact kernel/image dimensions on the window slice.

    The kernel is the honest kernel of the differential on the slice.
    The image dimension counts coboundaries of (p-1)-forms from a
    slightly enlarged slice that land inside the window, so reported
    cohomology can only shrink as windows grow.  Each degree carries a
    stability flag from a recomputation at degree + 2.
    """
    l.require_verified("cohomology")
    window = window or TruncationWindow()
    _window_check(l, window)
    drop, _bump = l.coefficient_degree_profile()
    wider = window.enlarged(2)
    dims = _ce_complex(l).dims(dict.fromkeys(degrees, (window, wider)), drop)
    report = CohomologyReport(window)
    for p, (ker, im) in dims[window].items():
        ker2, im2 = dims[wider][p]
        report.degrees[p] = DegreeReport(
            ker, im, stable=(ker - im) == (ker2 - im2))
    return report


@dataclass
class ExactnessResult:
    status: str                       # "primitive" | "no-primitive-in-window"
    primitive: Optional[LForm] = None
    certified: bool = False           # True: obstruction is window-independent
    residue_witness: Optional[str] = None
    window: Optional[TruncationWindow] = None


def exactness_solve(theta: LForm, window: TruncationWindow | None = None
                    ) -> ExactnessResult:
    """Find eta with d eta = theta inside the window, or report failure.

    Positive answers are verified by substitution before being returned.
    A failure is window-relative unless the residue certificate applies.
    """
    l = theta.owner
    l.require_verified("exactness solving")
    window = window or TruncationWindow()
    if theta.degree == 0:
        raise InputError("exactness is a question for degree >= 1")
    if not theta.d().is_zero():
        raise InputError("form is not closed; exactness is undefined")

    drop, _ = l.coefficient_degree_profile()
    needed = max(_extent(l.base, theta.coeffs.values()))
    dom_window = TruncationWindow(max(window.degree, needed) + drop,
                                  max(window.laurent, needed) + drop)
    complex_, p = _ce_complex(l), theta.degree - 1
    # d preserves weight, so only the columns of the weights of theta's
    # terms can reach them; a pivot column is independent of the earlier
    # columns of its own weight and free columns are zero, so the other
    # weights would solve to zero
    basis = complex_.weight_basis(p, dom_window, {
        complex_.weight(idx, m) for idx, val in theta.coeffs.items() for m in val.terms})
    terms = complex_.solve(basis, dom_window.bound(l.base), {
        ((idx, 0), m): c for idx, val in theta.coeffs.items() for m, c in val.terms.items()})
    if terms is not None:
        primitive = LForm(l, p, {idx: RingElement(l.base, t)
                                 for (idx, _), t in terms.items()})
        if not (primitive._d_unchecked() - theta).is_zero():
            raise InternalError("primitive failed verification")
        return ExactnessResult("primitive", primitive=primitive, window=window)
    witness = residue_certificate(theta)
    if witness is not None:
        return ExactnessResult("no-primitive-in-window", certified=True,
                               residue_witness=witness, window=window)
    return ExactnessResult("no-primitive-in-window", window=window)


def residue_certificate(theta: LForm) -> Optional[str]:
    """Window-independent non-exactness certificate.

    Applies when the owner has a zero structure table and each basis
    anchor is a single monomial c * v^eps * d/dv (eps 0 or 1).  Then no
    coboundary component at (i_1..i_p) contains a monomial whose
    v-exponent equals eps - 1 for every i_a: the derivative kills it.
    Finding such a monomial in theta proves theta is not exact.
    """
    l = theta.owner
    if l.structure:
        return None
    profile = {}
    ring = l.base
    for i in range(l.rank):
        entry = None
        for d, g in enumerate(l.anchor[i]):
            if g.is_zero():
                continue
            if entry is not None:
                return None          # anchor mixes derivations
            entry = (d, g)
        if entry is None:
            return None              # zero anchor direction: no certificate
        d, g = entry
        if len(g.terms) != 1:
            return None
        ((exps, _coeff),) = g.terms.items()
        # the monomial may involve only the derivation's own variable
        name = ring.derivation_names[d]
        if not name.startswith("d/d"):
            return None
        var = name[3:]
        vi = ring.variable_index(var)
        if any(e != 0 for t, e in enumerate(exps) if t != vi):
            return None
        eps = exps[vi]
        if eps not in (0, 1):
            return None
        profile[i] = (vi, eps)
    for idx, val in theta.coeffs.items():
        targets = {}
        ok = True
        for t in idx:
            vi, eps = profile[t]
            want = eps - 1
            if targets.setdefault(vi, want) != want:
                ok = False
                break
        if not ok:
            continue
        for exps in val.terms:
            if all(exps[vi] == want for vi, want in targets.items()):
                desc = ", ".join("%s^%d" % (ring.variables[vi], want)
                                 for vi, want in sorted(targets.items()))
                return ("component (%s), residue monomial %s"
                        % (",".join(str(t + 1) for t in idx), desc))
    return None
