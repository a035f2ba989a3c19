"""Twisted enveloping algebras as directed rewriting systems.

Generators e_1 < ... < e_n over the base ring, with rules

    e_i * f   ->  f * e_i + a(e_i)(f)
    e_j * e_i ->  e_i * e_j + [e_j, e_i] + Q(e_j, e_i)      (j > i)

mechanically generated from an algebroid and a degree-2 twist form.
Normal forms are sums of ascending generator words with left ring
coefficients.  The rewriting system is confluent exactly when the
algebroid axioms hold and the twist is closed; `confluence_check`
resolves the minimal overlaps and returns the first broken diamond.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import Algebroid, AlgebroidMorphism, Section, StructureError
from .forms import LForm
from .rings import RingElement

Word = Tuple[int, ...]
Item = Union[int, RingElement]

# a system's normal-form memo is emptied when a reduction starts with more
# entries than this, so a long-lived system does not grow without bound;
# e2^16 e1^16 needs about 4,000
_MEMO_LIMIT = 20000


class RelationSystem:
    """Rule set for (algebroid, twist).  This raw constructor performs no
    axiom checks so that broken inputs can be fed to confluence_check;
    use build_relations for the validated path."""

    def __init__(self, algebroid: Algebroid, twist: Optional[LForm] = None):
        self.algebroid = algebroid
        self.ring = algebroid.base
        if twist is None:
            twist = LForm(algebroid, 2, {})
        if twist.owner is not algebroid or twist.degree != 2:
            raise StructureError("twist must be a 2-form on the same algebroid")
        self.twist = twist
        # normal-form terms of every word reduced so far, see normal_form
        self._normal_forms: Dict[tuple, Dict[Word, RingElement]] = {}

    def one(self) -> "PbwElement":
        return PbwElement(self, {(): self.ring.one})

    def generator(self, i: int) -> "PbwElement":
        if not (0 <= i < self.algebroid.rank):
            raise StructureError("generator index out of range")
        return PbwElement(self, {(i,): self.ring.one})

    def scalar(self, f) -> "PbwElement":
        return PbwElement(self, {(): self.ring._coerce(f)})

    def of_section(self, s: Section) -> "PbwElement":
        if s.owner is not self.algebroid:
            raise StructureError("section belongs to a different algebroid")
        terms = {(i,): c for i, c in enumerate(s.coefficients) if not c.is_zero()}
        return PbwElement(self, terms)


def build_relations(l: Algebroid, q: Optional[LForm] = None) -> RelationSystem:
    """Validated constructor: the algebroid must verify and the twist must
    be closed."""
    l.require_verified("building relations")
    system = RelationSystem(l, q)
    if q is not None and not q.d().is_zero():
        raise StructureError("twist form is not closed")
    return system


class PbwElement:
    """Normal-form sum: ascending generator words with left coefficients."""

    __slots__ = ("system", "terms")

    def __init__(self, system: RelationSystem, terms: Dict[Word, RingElement]):
        self.system = system
        clean = {}
        for word, coeff in terms.items():
            if any(a > b for a, b in zip(word, word[1:])):
                raise StructureError("words must be ascending; reduce first")
            if not coeff.is_zero():
                clean[word] = coeff
        self.terms = clean

    def _check(self, other: "PbwElement"):
        if other.system is not self.system:
            raise StructureError("elements belong to different systems")

    def __add__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return PbwElement(self.system, out)

    def __sub__(self, other: "PbwElement") -> "PbwElement":
        return self + (-other)

    def __neg__(self) -> "PbwElement":
        return PbwElement(self.system, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        out: Dict[Word, RingElement] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_into(out, normal_form((c1,) + w1 + (c2,) + w2,
                                           self.system).terms)
        return PbwElement(self.system, out)

    def scale(self, f) -> "PbwElement":
        f = self.system.ring._coerce(f)
        return PbwElement(self.system,
                          {w: f * c for w, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, PbwElement) and other.system is self.system
                and other.terms == self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def filtration_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.system.algebroid.basis_names
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[w]
            gens = _word_string(w, names)
            if not gens:
                parts.append("(%s)" % coeff)
            elif coeff == self.system.ring.one:
                parts.append(gens)
            else:
                parts.append("(%s)*%s" % (coeff, gens))
        return " + ".join(parts)

    __repr__ = __str__


def sum_elements(system: RelationSystem,
                 parts: Iterable[PbwElement]) -> PbwElement:
    """Sum of elements of one system, accumulated in one term dict."""
    out: Dict[Word, RingElement] = {}
    for p in parts:
        if p.system is not system:
            raise StructureError("elements belong to different systems")
        _add_into(out, p.terms)
    return PbwElement(system, out)


def _word_string(word: Word, names: Sequence[str]) -> str:
    pieces = []
    t = 0
    while t < len(word):
        run = 1
        while t + run < len(word) and word[t + run] == word[t]:
            run += 1
        pieces.append(names[word[t]] if run == 1
                      else "%s^%d" % (names[word[t]], run))
        t += run
    return "*".join(pieces)


def _leftmost_redex(word: Tuple[Item, ...]) -> Optional[Tuple[int, str]]:
    if word and isinstance(word[0], RingElement):
        return (0, "fold")
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        a_gen, b_gen = isinstance(a, int), isinstance(b, int)
        if not a_gen and not b_gen:
            return (t, "merge")
        if a_gen and not b_gen:
            return (t, "gf")
        if a_gen and b_gen and a > b:
            return (t, "gg")
    return None


def _rewrite_at(system: RelationSystem, word: Tuple[Item, ...], t: int,
                kind: str) -> List[Tuple[Item, ...]]:
    """One merge, gf or gg rule application; returns replacement words (to
    be summed).  A leading coefficient ("fold") is the caller's to scale by."""
    l = system.algebroid
    if kind == "merge":
        merged = word[t] * word[t + 1]
        if merged.is_zero():
            return []
        return [word[:t] + (merged,) + word[t + 2:]]
    if kind == "gf":
        i, f = word[t], word[t + 1]
        out = [word[:t] + (f, i) + word[t + 2:]]
        if f.is_constant():      # anchors act by derivations
            return out
        derived = l.anchor_apply(l.basis_section(i), f)
        if not derived.is_zero():
            out.append(word[:t] + (derived,) + word[t + 2:])
        return out
    if kind == "gg":
        j, i = word[t], word[t + 1]
        out = [word[:t] + (i, j) + word[t + 2:]]
        struct = l.structure_coefficients(j, i)
        for k in range(l.rank):
            if not struct[k].is_zero():
                out.append(word[:t] + (struct[k], k) + word[t + 2:])
        q = system.twist.component((j, i))
        if not q.is_zero():
            out.append(word[:t] + (q,) + word[t + 2:])
        return out
    raise StructureError("unknown rule kind %r" % kind)


def _as_word(items: Iterable[Item], ring) -> Tuple[Item, ...]:
    """Raw items as a word: generator indices stay, scalars become ring
    elements of the system's base ring."""
    word: List[Item] = []
    for it in items:
        if isinstance(it, int):
            word.append(it)
        elif isinstance(it, RingElement):
            if it.ring is not ring:
                raise StructureError("coefficient from a different ring")
            word.append(it)
        else:
            word.append(ring._coerce(it))
    return tuple(word)


def _item_key(item: Item):
    # RingElement.__eq__ coerces ints (1 == ring.one), so a coefficient is
    # keyed by its sorted terms, a tuple that never equals a generator index
    if isinstance(item, int):
        return item
    return tuple(sorted(item.terms.items()))


def _add_into(out: Dict[Word, RingElement],
              terms: Dict[Word, RingElement]) -> None:
    for w, c in terms.items():
        cur = out.get(w)
        out[w] = c if cur is None else cur + c


def normal_form(items: Iterable[Item], system: RelationSystem) -> PbwElement:
    """Leftmost-innermost reduction of a raw word to the ascending basis.

    Items are generator indices (int) or base-ring elements.  Each rule
    strictly decreases (generator degree, inversion count, coefficient
    position), so the reduction terminates.  NF(word) is the sum of NF(r)
    over the replacements r of the leftmost redex, and NF(c * rest) =
    c * NF(rest).  The redex choice is fixed, so the answer is that of
    rewriting every branch separately, for confluent and broken systems
    alike; it is independent of the strategy exactly when the system is
    confluent.  The terms of every intermediate word are memoised on the
    system, so shared subwords are reduced once (e2^n e1^n is polynomial
    in n), and the evaluation runs on an explicit stack, so word length is
    not bounded by the recursion limit.
    """
    memo = system._normal_forms
    if len(memo) > _MEMO_LIMIT:
        memo.clear()
    word = _as_word(items, system.ring)
    key = tuple(map(_item_key, word))
    one = system.ring.one
    # frames: (word, key, fold coefficient or None, children or None)
    stack = [(word, key, None, None)]
    while stack:
        word, key, scale, children = stack.pop()
        if children is None:
            if key in memo:
                continue
            redex = _leftmost_redex(word)
            if redex is None:
                memo[key] = {word: one}
                continue
            t, kind = redex
            if kind == "fold":
                scale = word[0]
                if scale.is_zero():
                    memo[key] = {}
                    continue
                children = [(word[1:], key[1:])]
            else:
                # replacements keep word[:t] and word[t + 2:], so only the
                # rewritten middle needs new keys
                after = len(word) - t - 2
                children = [(r, key[:t] + tuple(map(_item_key,
                                                    r[t:len(r) - after]))
                             + key[t + 2:])
                            for r in _rewrite_at(system, word, t, kind)]
            stack.append((word, key, scale, children))
            stack.extend((w, k, None, None) for w, k in children
                         if k not in memo)
            continue
        if scale is not None:
            terms = {w: scale * c for w, c in memo[children[0][1]].items()}
        else:
            terms = {}
            for _, k in children:
                _add_into(terms, memo[k])
        memo[key] = {w: c for w, c in terms.items() if not c.is_zero()}
    return PbwElement(system, memo[key])


@dataclass
class AmbiguityReport:
    word: Tuple[Item, ...]
    normal_form_left: PbwElement      # resolving the left pair first
    normal_form_right: PbwElement     # resolving the right pair first

    @property
    def difference(self) -> PbwElement:
        # oriented so that broken Jacobi data reproduces its Jacobiator
        return self.normal_form_right - self.normal_form_left

    def __str__(self):
        return ("overlap %s: left-first %s, right-first %s, difference %s"
                % (self.word, self.normal_form_left, self.normal_form_right,
                   self.difference))


def _reduce_branches(system: RelationSystem,
                     branches: List[Tuple[Item, ...]]) -> PbwElement:
    return sum_elements(system, (normal_form(b, system) for b in branches))


def confluence_check(system: RelationSystem) -> Optional[AmbiguityReport]:
    """Resolve every minimal overlap both ways; None means confluent.

    Overlaps are e_k e_j e_i (k > j > i) and e_j e_i x for each variable
    x; by the Leibniz structure of the rules, vanishing on variables
    settles the general coefficient case.
    """
    l, ring = system.algebroid, system.ring
    for i, j, k in combinations(range(l.rank), 3):
        word: Tuple[Item, ...] = (k, j, i)
        left = _reduce_branches(system, _rewrite_at(system, word, 0, "gg"))
        right = _reduce_branches(system, _rewrite_at(system, word, 1, "gg"))
        if not (left - right).is_zero():
            return AmbiguityReport(word, left, right)
    for i, j in combinations(range(l.rank), 2):
        for v in ring.variables:
            word = (j, i, ring.var(v))
            left = _reduce_branches(system, _rewrite_at(system, word, 0, "gg"))
            right = _reduce_branches(system, _rewrite_at(system, word, 1, "gf"))
            if not (left - right).is_zero():
                return AmbiguityReport(word, left, right)
    return None


class SymElement:
    """Commutative image of PBW words: monomials in the module generators."""

    __slots__ = ("system", "terms")

    def __init__(self, system: RelationSystem, terms: Dict[Word, RingElement]):
        self.system = system
        self.terms = {tuple(sorted(w)): c for w, c in terms.items()
                      if not c.is_zero()}

    def __mul__(self, other: "SymElement") -> "SymElement":
        out: Dict[Word, RingElement] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = tuple(sorted(w1 + w2))
                val = c1 * c2
                cur = out.get(key)
                out[key] = val if cur is None else cur + val
        return SymElement(self.system, out)

    def __eq__(self, other):
        return (isinstance(other, SymElement) and other.system is self.system
                and other.terms == self.terms)

    def is_zero(self):
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.system.algebroid.basis_names
        return " + ".join("(%s)*%s" % (c, _word_string(w, names)) if w
                          else "(%s)" % c
                          for w, c in sorted(self.terms.items(),
                                             key=lambda t: (len(t[0]), t[0])))

    __repr__ = __str__


def gr_symbol(p: PbwElement) -> SymElement:
    """Top filtration-degree part as a commutative monomial sum."""
    top = p.filtration_degree()
    return SymElement(p.system,
                      {w: c for w, c in p.terms.items() if len(w) == top})


@dataclass
class AbelianExtension:
    """Central extension of an algebroid by the base ring, index 0 central."""
    total: Algebroid
    quotient: Algebroid
    center_index: int = 0


def extension_from_cocycle(l: Algebroid, q: LForm) -> AbelianExtension:
    """Rank n+1 algebroid: central generator at index 0, bracket of lifts
    picks up the twist value on the center.  Verifies exactly when the
    twist is closed (an unclosed twist breaks Jacobi)."""
    if q.owner is not l or q.degree != 2:
        raise StructureError("cocycle must be a 2-form on the algebroid")
    base = l.base
    n = l.rank
    nder = len(base.derivation_names)
    anchor = [[base.zero] * nder]
    for i in range(n):
        anchor.append(list(l.anchor[i]))
    structure: Dict[Tuple[int, int], List[RingElement]] = {}
    for i, j in combinations(range(n), 2):
        comps = l.structure_coefficients(i, j)
        qval = q.component((i, j))
        if qval.is_zero() and all(c.is_zero() for c in comps):
            continue
        structure[(i + 1, j + 1)] = [qval] + list(comps)
    names = ("c",) + tuple(l.basis_names)
    total = Algebroid(base, n + 1, anchor, structure, basis_names=names)
    return AbelianExtension(total, l)


def cocycle_from_extension(lp: Algebroid, base: Optional[Algebroid] = None,
                           splitting: Optional[LForm] = None) -> LForm:
    """Extract the twist of an extension with central index 0.

    `splitting` is a 1-form psi on the quotient: the lift of e_i is
    e_{i+1} + psi_i * c.  Changing the splitting by psi changes the
    result by d psi.
    """
    ring = lp.base
    n = lp.rank - 1
    if n < 0:
        raise StructureError("extension must have positive rank")
    if any(not x.is_zero() for x in lp.anchor[0]):
        raise StructureError("index 0 is not anchored trivially")
    for j in range(1, lp.rank):
        comps = lp.structure_coefficients(0, j)
        if any(not c.is_zero() for c in comps):
            raise StructureError("index 0 is not central")
    if base is None:
        anchor = [list(lp.anchor[i + 1]) for i in range(n)]
        structure = {}
        for i, j in combinations(range(n), 2):
            comps = lp.structure_coefficients(i + 1, j + 1)
            tail = list(comps[1:])
            if any(not c.is_zero() for c in tail):
                structure[(i, j)] = tail
        base = Algebroid(ring, n, anchor, structure,
                         basis_names=lp.basis_names[1:])
    if splitting is None:
        splitting = LForm(base, 1, {})
    if splitting.owner is not base or splitting.degree != 1:
        raise StructureError("splitting must be a 1-form on the quotient")

    def lift(i: int) -> Section:
        coeffs = [ring.zero] * lp.rank
        coeffs[i + 1] = ring.one
        coeffs[0] = splitting.component((i,))
        return Section(lp, coeffs)

    coeffs = {}
    for i, j in combinations(range(n), 2):
        br = lp.bracket(lift(i), lift(j))
        val = br.coefficients[0]
        # subtract psi of the quotient bracket
        struct = base.structure_coefficients(i, j)
        for k in range(n):
            if not struct[k].is_zero():
                val = val - struct[k] * splitting.component((k,))
        if not val.is_zero():
            coeffs[(i, j)] = val
    return LForm(base, 2, coeffs)


def pullback_form(morphism: AlgebroidMorphism, q: LForm) -> LForm:
    """(psi^* q)(u, ...) = q(psi u, ...) on basis tuples."""
    src = morphism.source
    coeffs = {}
    for idx in combinations(range(src.rank), q.degree):
        val = q.evaluate(*[morphism.apply(src.basis_section(t)) for t in idx])
        if not val.is_zero():
            coeffs[idx] = val
    return LForm(src, q.degree, coeffs)


class PbwMap:
    """Filtered-algebra map induced by an algebroid morphism; the source
    twist must be the pullback of the target twist (checked)."""

    def __init__(self, morphism: AlgebroidMorphism, target: RelationSystem):
        if target.algebroid is not morphism.target:
            raise StructureError("system does not live on the morphism target")
        if not morphism.verify():
            raise StructureError("not an algebroid morphism")
        self.morphism = morphism
        self.target = target
        self.source = RelationSystem(morphism.source,
                                     pullback_form(morphism, target.twist))

    def __call__(self, p: PbwElement) -> PbwElement:
        if p.system is not self.source:
            raise StructureError("element is not in the source system")
        parts = []
        for word, coeff in p.terms.items():
            acc = self.target.scalar(coeff)
            for i in word:
                acc = acc * self.target.of_section(self.morphism.images[i])
            parts.append(acc)
        return sum_elements(self.target, parts)

    def image_of_raw(self, items: Sequence[Item]) -> PbwElement:
        acc = self.target.one()
        for it in items:
            if isinstance(it, int):
                acc = acc * self.target.of_section(self.morphism.images[it])
            else:
                acc = acc * self.target.scalar(it)
        return acc

    def preserves_normal_forms(self, words: Iterable[Sequence[Item]]) -> bool:
        for items in words:
            via_nf = self(normal_form(items, self.source))
            direct = self.image_of_raw(items)
            if not (via_nf - direct).is_zero():
                return False
        return True


def pushforward_algebra_map(morphism: AlgebroidMorphism,
                            target: RelationSystem) -> PbwMap:
    return PbwMap(morphism, target)
