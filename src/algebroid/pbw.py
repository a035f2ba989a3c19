"""Twisted enveloping algebras as directed rewriting systems.

Generators e_1 < ... < e_n over the base ring, with rules

    e_i * f   ->  f * e_i + a(e_i)(f)
    e_j * e_i ->  e_i * e_j + [e_j, e_i] + Q(e_j, e_i)      (j > i)

mechanically generated from an algebroid and a degree-2 twist form.
Normal forms are sums of ascending generator words with left ring
coefficients; inside a reduction an ascending word is its exponent
vector, as Gr of the algebra is the symmetric algebra of the
generators.  The rewriting system is confluent exactly when the
algebroid axioms hold and the twist is closed; `confluence_check`
resolves the minimal overlaps and returns the first broken diamond.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (Algebroid, AlgebroidMorphism, InputError, Section,
                   StructureError)
from .forms import LForm, pullback
from .rings import Coefficient, Exponents, RingElement

# a word is a tuple of generator indices (>= 0) and coefficient codes (< 0,
# see RelationSystem._code); normal-form words are ascending generator words
Word = Tuple[int, ...]
Item = Union[int, RingElement]
# an ascending generator word as its exponent vector, how often each
# generator occurs in it, packed into one int: generator i's count is
# the digit i in radix 2^_BITS (a word holds fewer than 2^32 letters)
Powers = int
_BITS = 32
# normal-form terms, flat: (powers, exponents) -> int or Fraction, the
# term x^exponents * e^powers
Terms = Dict[Tuple[Powers, Exponents], Coefficient]

# Both bounds count the terms of the product memo's entries, not the
# entries: a twisted Weyl entry holds two terms, an so(3)* entry with a
# polynomial in the word thousands.  A system's memo is emptied when a
# reduction starts with more terms than this, so a long-lived system does
# not grow without bound (e2^n e1^n needs 2 n^2)
_MEMO_LIMIT = 40_000

# the most memo terms one reduction may add: past it the word is refused
# (InputError).  e2^n e1^n fits up to n = 316 (80 MB peak as a process);
# e3^n e2^n e1^n x^n in so(3)* adds 140,818 at n = 5 and is refused from
# n = 6 on; a refused word stops below about 95 MB
MAX_REDUCTION_TERMS = 200_000


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
            raise InputError("twist must be a 2-form on the same algebroid")
        self.twist = twist
        # NF(u * a) by (powers of u, item a), see normal_form, and the
        # number of terms it holds
        self._products: Dict[Tuple[Powers, int], Terms] = {}
        self._terms = 0
        # the non-constant coefficients that words hold, by code
        self._coefficients: List[RingElement] = []
        self._codes: Dict[tuple, int] = {}
        self._rules = None      # see _compiled

    def _bound_memo(self) -> None:
        """Empty the memo, the coefficient codes its keys hold and the
        rules (whose gf edges hold codes too) when the memo holds more
        than _MEMO_LIMIT terms; called before a reduction encodes its
        word."""
        if self._terms > _MEMO_LIMIT:
            self._products = {}
            self._terms = 0
            self._coefficients = []
            self._codes = {}
            self._rules = None

    def _code(self, f: RingElement) -> int:
        """The word item of the non-constant coefficient f: -1 - k, where
        f is _coefficients[k]."""
        key = tuple(sorted(f.terms.items()))
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = ~len(self._coefficients)
            self._coefficients.append(f)
        return code

    def _encode(self, items: Iterable[Item]) -> Tuple[Coefficient, Word]:
        """(c, word) with raw items = c * word: the constants factored out,
        the other coefficients coded."""
        scale: Coefficient = 1
        word = []
        for it in _as_word(items, self.ring, self.algebroid.rank):
            if isinstance(it, int):
                word.append(it)
            elif it.is_constant():
                scale *= it.constant_term()
            else:
                word.append(self._code(it))
        return scale, tuple(word)

    def _edge(self, f: RingElement, items: Word = ()
              ) -> Optional[Tuple[Coefficient, Word]]:
        """The rewrite edge to f * items: a constant f is the edge's
        number, any other f a leading item; None if f is zero."""
        if f.is_zero():
            return None
        if f.is_constant():
            return f.constant_term(), items
        return 1, (self._code(f),) + items

    def _commutator(self, j: int, i: int) -> "PbwElement":
        """The right-hand side of [e_j, e_i] = [e_j, e_i]_L + Q(e_j, e_i):
        its bracket terms in ascending generator order, then its twist
        value."""
        terms = {(k,): c for k, c
                 in enumerate(self.algebroid.structure_coefficients(j, i))}
        terms[()] = self.twist.component((j, i))
        return PbwElement._trusted(
            self, {w: c for w, c in terms.items() if not c.is_zero()})

    def relations(self) -> List[Tuple[int, Union[int, str], "PbwElement"]]:
        """The defining relations [e_i, right] = rhs as triples (i, right,
        rhs): the gf relations [e_i, x] = a(e_i)(x) on the variable names
        x, then the gg relations [e_j, e_i] for j > i (see _commutator)."""
        l, ring = self.algebroid, self.ring
        rels = [(i, v, self.scalar(ring.apply_vector(l.anchor[i], ring.var(v))))
                for v in ring.variables for i in range(l.rank)]
        rels += [(j, i, self._commutator(j, i))
                 for j in range(l.rank) for i in range(j)]
        return rels

    def _compiled(self):
        """The rule tables, built on first use: for j > i the edges of
        e_j e_i -> e_i e_j + [e_j, e_i], and the gf edges met so far (see
        _edges)."""
        if self._rules is None:
            l = self.algebroid
            gg = {(j, i): [(1, (i, j))] + [
                      self._edge(c, w)
                      for w, c in self._commutator(j, i).terms.items()]
                  for j in range(l.rank) for i in range(j)}
            self._rules = (gg, {})
        return self._rules

    def _edges(self, b: int, a: int) -> List[Tuple[Coefficient, Word]]:
        """The edges (c, mid) of the redex e_b a, so that e_b a = sum of
        c * mid: a gg redex for a generator a < b, a gf redex
        e_b f -> f e_b + a(e_b)(f) for a coefficient code a."""
        gg, gf = self._compiled()
        if a >= 0:
            return gg[b, a]
        edges = gf.get((b, a))
        if edges is None:
            derived = self.ring.apply_vector(self.algebroid.anchor[b],
                                             self._coefficients[~a])
            edges = gf[b, a] = [(1, (a, b))]
            if not derived.is_zero():
                edges.append(self._edge(derived))
        return edges

    def _rewrite(self, word: Word, t: int) -> List[Tuple[Coefficient, Word]]:
        """One rule application at the generator word[t] and word[t + 1]:
        the edges (c, r) such that word = sum of c * r."""
        head, tail = word[:t], word[t + 2:]
        return [(c, head + mid + tail)
                for c, mid in self._edges(word[t], word[t + 1])]

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
        raise InputError("twist form is not closed")
    return system


class PbwElement:
    """Normal-form sum: ascending generator words with left coefficients."""

    __slots__ = ("system", "terms")

    def __init__(self, system: RelationSystem, terms: Dict[Word, RingElement]):
        self.system = system
        rank, coerce = system.algebroid.rank, system.ring._coerce
        clean = {}
        for word, coeff in terms.items():
            if any(a > b for a, b in zip(word, word[1:])):
                raise StructureError("words must be ascending; reduce first")
            if word and not (0 <= word[0] and word[-1] < rank):
                raise StructureError("generator index out of range")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, system: RelationSystem,
                 terms: Dict[Word, RingElement]) -> "PbwElement":
        """An element from terms whose words are known to be ascending and
        whose coefficients are nonzero (a reduction's result)."""
        self = object.__new__(cls)
        self.system, self.terms = system, terms
        return self

    def _check(self, other: "PbwElement"):
        if other.system is not self.system:
            raise StructureError("elements belong to different systems")

    def __add__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return PbwElement(self.system, out)

    def __sub__(self, other: "PbwElement") -> "PbwElement":
        return self + (-other)

    def __neg__(self) -> "PbwElement":
        return PbwElement(self.system, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "PbwElement") -> "PbwElement":
        """The left element's flat terms multiplied on the right by each
        term of other, its coefficient first."""
        self._check(other)
        system = self.system
        system._bound_memo()
        state: Terms = {}
        for w, coeff in self.terms.items():
            u = 0
            for i in w:
                u += 1 << _BITS * i
            for e, c in coeff.terms.items():
                state[u, e] = c
        out: Terms = {}
        for w, coeff in other.terms.items():
            scale, word = system._edge(coeff, w)
            _add_into(out, _fold(system, state, word).items(), scale)
        return _element(system, _nonzero(out))

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


def _as_word(items: Iterable[Item], ring, rank: int) -> Tuple[Item, ...]:
    """Raw items as a word: generator indices stay, scalars become ring
    elements of the system's base ring."""
    word: List[Item] = []
    for it in items:
        if isinstance(it, int):
            if not 0 <= it < rank:
                raise StructureError("generator index out of range")
            word.append(it)
        elif isinstance(it, RingElement):
            if it.ring is not ring:
                raise StructureError("coefficient from a different ring")
            word.append(it)
        else:
            word.append(ring._coerce(it))
    return tuple(word)


def _add_into(out: dict, terms: Iterable, c: Coefficient = 1) -> None:
    """out += c * terms, for terms given as (key, value) pairs."""
    if c == 1 and not out:
        out.update(terms)
        return
    get = out.get
    for k, v in terms:
        if c != 1:
            v = c * v
        cur = get(k)
        out[k] = v if cur is None else cur + v


def _nonzero(terms: Terms) -> Terms:
    return {k: v for k, v in terms.items() if v}


def _times(system: RelationSystem, terms: Iterable, a: int,
           out: Terms) -> list:
    """out += terms * a for one item a of an encoded word: each term
    x^e u gives x^e NF(u a).  NF(u a) is immediate when u a is ascending
    or u is empty, and is otherwise read from the system's product memo;
    the terms whose entry the memo lacks are skipped and returned."""
    memo = system._products
    skipped = []
    get = out.get
    step = 1 << _BITS * a if a >= 0 else 0
    for (u, e), c in terms:
        if a >= 0:
            if u < step << _BITS:           # u a is ascending
                key = (u + step, e)
                cur = get(key)
                out[key] = c if cur is None else cur + c
                continue
            nf = memo.get((u, a))
        elif u:
            nf = memo.get((u, a))
        else:                               # f times the empty word
            nf = {(u, f): v for f, v
                  in system._coefficients[~a].terms.items()}
        if nf is None:
            skipped.append(((u, e), c))
            continue
        shift = any(e)
        if c == 1 and not shift and not out:
            out.update(nf)
            continue
        for (w, f), v in nf.items():
            key = (w, tuple(map(add, e, f)) if shift else f)
            if c != 1:
                v = c * v
            cur = get(key)
            out[key] = v if cur is None else cur + v
    return skipped


def _entry(system: RelationSystem, key: Tuple[Powers, int]):
    """NF(u a) for the key (u, a) of a redex, as a generator: u = u' e_b
    with b > a, or with a a coefficient code.  The redex e_b a is
    replaced by its edges (c, mid), and NF(u a) is the sum of
    c * NF(u' mid), u' multiplied by the items of mid in turn.  A step
    whose memo entries are missing yields their keys, and is finished
    once they are filled."""
    u, a = key
    b = (u.bit_length() - 1) // _BITS           # u's last generator
    start = (u - (1 << _BITS * b), (0,) * len(system.ring.variables))
    out: Terms = {}
    for c, mid in system._edges(b, a):
        terms = {start: 1}
        for m in mid:
            product: Terms = {}
            skipped = _times(system, terms.items(), m, product)
            if skipped:
                yield [(v, m) for (v, _), _ in skipped]
                _times(system, skipped, m, product)
            terms = product
        _add_into(out, terms.items(), c)
    return _nonzero(out)


def _fill(system: RelationSystem, keys: List[Tuple[Powers, int]],
          ceiling: int) -> None:
    """Memoise NF(u a) for each key and every entry it needs, on an
    explicit stack of suspended entries, so word length is not bounded
    by the recursion limit.  Raises InputError when the memo's terms
    grow past `ceiling`."""
    memo = system._products
    stack = [[key, None] for key in keys]
    while stack:
        frame = stack[-1]
        if frame[1] is None:
            if frame[0] in memo:
                stack.pop()
                continue
            frame[1] = _entry(system, frame[0])
        try:
            needed = next(frame[1])
        except StopIteration as done:
            memo[frame[0]] = done.value
            system._terms += len(done.value)
            stack.pop()
            if system._terms > ceiling:
                raise InputError("the reduction needs more than %d product "
                                 "terms" % MAX_REDUCTION_TERMS)
        else:
            stack.extend([key, None] for key in needed)


def _fold(system: RelationSystem, state: Terms, word: Word) -> Terms:
    """NF(state * word): the items of an encoded word multiplied into the
    state one at a time, from the left, filling the memo entries a step
    lacks before finishing it and adding at most MAX_REDUCTION_TERMS terms
    to the memo."""
    ceiling = system._terms + MAX_REDUCTION_TERMS
    for a in word:
        out: Terms = {}
        skipped = _times(system, state.items(), a, out)
        if skipped:
            _fill(system, [(u, a) for (u, _), _ in skipped], ceiling)
            _times(system, skipped, a, out)
        state = _nonzero(out)
    return state


def _unit(system: RelationSystem) -> Terms:
    """The state of the empty word, the element 1."""
    return {(0, (0,) * len(system.ring.variables)): 1}


def _element(system: RelationSystem, terms: Terms,
             scale: Coefficient = 1) -> PbwElement:
    """scale * terms as an element, one coefficient per word."""
    by_word: Dict[Word, Dict[Exponents, Coefficient]] = {}
    for (u, e), v in terms.items():
        word = ()
        for i in range(system.algebroid.rank):
            word += (i,) * (u >> _BITS * i & (1 << _BITS) - 1)
        by_word.setdefault(word, {})[e] = scale * v
    ring = system.ring
    return PbwElement._trusted(system, {
        w: RingElement._trusted(ring, coeffs) for w, coeffs in by_word.items()})


def normal_form(items: Iterable[Item], system: RelationSystem) -> PbwElement:
    """Leftmost-innermost reduction of a raw word to the ascending basis.

    Items are generator indices (int) or base-ring elements.  Each rule
    strictly decreases (generator degree, inversion count, coefficient
    position), so the reduction terminates.  The redex choice is fixed,
    so the answer is that of rewriting every branch separately, for
    confluent and broken systems alike; it is independent of the strategy
    exactly when the system is confluent.

    A constant c is central and anchors kill it: once the redexes left of
    it are gone, the fixed strategy only swaps c leftward and folds it,
    so NF(u c v) = c NF(u v).  Constants therefore never enter a word:
    they are factored out of the input, and a rewrite that yields one
    carries it as its edge's number.

    The strategy rewrites every redex inside a prefix before the one at
    its right boundary, so NF(w a) = NF(NF(w) a) for a word w and an item
    a: the word is folded into a flat state {(powers, exponents):
    coefficient} from the left, each term x^e u times a giving
    x^e NF(u a).  NF(u a) for an ascending u is memoised on the system
    under (exponent vector of u, a), so e2^n e1^n needs O(n^2) entries
    of two terms each.  The result is grouped by word only on the way
    out.  A reduction that would add more than MAX_REDUCTION_TERMS terms
    to the memo is refused with InputError.
    """
    system._bound_memo()
    scale, word = system._encode(items)
    if not scale:
        return PbwElement._trusted(system, {})
    return _element(system, _fold(system, _unit(system), word), scale)


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


def _resolve(system: RelationSystem, word: Word, t: int) -> Terms:
    """The normal-form terms of an encoded word after one rule
    application at word[t], word[t + 1]."""
    out: Terms = {}
    for c, r in system._rewrite(word, t):
        _add_into(out, _fold(system, _unit(system), r).items(), c)
    return _nonzero(out)


def confluence_check(system: RelationSystem) -> Optional[AmbiguityReport]:
    """Resolve every minimal overlap both ways; None means confluent.

    Overlaps are e_k e_j e_i (k > j > i) and e_j e_i x for each variable
    x; by the Leibniz structure of the rules, vanishing on variables
    settles the general coefficient case.
    """
    l, ring = system.algebroid, system.ring
    overlaps: List[Tuple[Item, ...]] = [
        (k, j, i) for i, j, k in combinations(range(l.rank), 3)]
    overlaps += [(j, i, ring.var(v)) for i, j in combinations(range(l.rank), 2)
                 for v in ring.variables]
    for items in overlaps:
        system._bound_memo()
        _, word = system._encode(items)
        left = _resolve(system, word, 0)
        right = _resolve(system, word, 1)
        if left != right:
            return AmbiguityReport(items, _element(system, left),
                                   _element(system, right))
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


class GeneratorMap:
    """The algebra map source -> target that fixes coefficients and sends
    each generator e_i of the source to images[i], a target element."""

    def __init__(self, source: RelationSystem, target: RelationSystem,
                 images: Sequence[PbwElement]):
        if (len(images) != source.algebroid.rank
                or any(p.system is not target for p in images)):
            raise StructureError("one target image per source generator required")
        self.source = source
        self.target = target
        self._images = list(images)

    def image_of_generator(self, i: int) -> PbwElement:
        return self._images[i]

    def __call__(self, p: PbwElement) -> PbwElement:
        if p.system is not self.source:
            raise StructureError("element is not in the source system")
        out: Dict[Word, RingElement] = {}
        for word, coeff in p.terms.items():
            acc = self.target.scalar(coeff)
            for i in word:
                acc = acc * self._images[i]
            _add_into(out, acc.terms.items())
        return PbwElement(self.target, out)

    def broken_relations(self) -> List[Tuple[int, Union[int, str]]]:
        """The source relations [u, v] = w that the rule does not carry
        into the target, [g(u), g(v)] != g(w) there, as (u, v) pairs of a
        generator index and a generator index or variable name."""
        target, images = self.target, self._images
        broken = []
        for i, right, rhs in self.source.relations():
            u = images[i]
            v = (target.scalar(target.ring.var(right))
                 if isinstance(right, str) else images[right])
            if not (u * v - v * u - self(rhs)).is_zero():
                broken.append((i, right))
        return broken


def pushforward_algebra_map(morphism: AlgebroidMorphism,
                            target: RelationSystem) -> GeneratorMap:
    """The filtered-algebra map induced by an algebroid morphism, from the
    system of the pulled-back target twist (the morphism is checked)."""
    if target.algebroid is not morphism.target:
        raise StructureError("system does not live on the morphism target")
    if not morphism.verify():
        raise StructureError("not an algebroid morphism")
    source = RelationSystem(morphism.source, pullback(
        target.twist, morphism.source, morphism.images))
    return GeneratorMap(source, target,
                        [target.of_section(s) for s in morphism.images])
