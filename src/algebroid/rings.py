"""Exact coefficient rings.

Multivariate polynomial and Laurent polynomial arithmetic over the
rationals, with named derivations (extended from their action on the
variables by the Leibniz rule) and ring homomorphisms given by variable
substitution.

Coefficients are exact rationals: `int` when integral, otherwise
`fractions.Fraction`, normalised at every constructor (`as_fraction`) and
after every operation (`_clean`), so integer data stays on `int`
arithmetic.  Every division of coefficients goes through `Fraction`, so
no float enters.  Elements are immutable; an operation returns a fresh
value or an unchanged operand.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Coefficient = Union[int, Fraction]
Terms = Mapping[Exponents, Coefficient]


class RingError(Exception):
    """Structural misuse: mismatched owners, bad exponents, unknown names."""


def as_fraction(value) -> Coefficient:
    """value as an exact rational coefficient: an int when it is integral,
    otherwise a Fraction; anything else (a float) is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise RingError("not an exact rational scalar: %r" % (value,))


class ChartRing:
    """Q[x1,...,xn] with a chosen subset of variables inverted (Laurent).

    `derivations` maps a derivation name to its action on each variable;
    the default is the coordinate derivation d/dv for every variable v.
    Declared derivations must commute pairwise (checked on variables at
    construction, which suffices by the Leibniz rule).
    """

    def __init__(self, variables: Sequence[str], laurent: Iterable[str] = (),
                 derivations: Mapping[str, Mapping[str, object]] | None = None):
        self.variables: Tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise RingError("variable names must be distinct")
        self._index = {v: i for i, v in enumerate(self.variables)}
        unknown = set(laurent) - set(self.variables)
        if unknown:
            raise RingError("laurent flag for unknown variables: %s" % sorted(unknown))
        self.laurent: frozenset = frozenset(laurent)
        self._origin = (0,) * len(self.variables)   # the exponents of a constant
        self.zero = RingElement(self, {})
        self.one = RingElement(self, {self._origin: 1})
        # TruncationWindow -> its monomials, filled by forms on first use
        self._window_monomials: Dict[object, tuple] = {}

        declared = derivations is not None
        if not declared:
            derivations = {
                "d/d" + v: {w: (1 if w == v else 0) for w in self.variables}
                for v in self.variables
            }
        self.derivation_names: Tuple[str, ...] = tuple(derivations)
        self._derivation_actions: Dict[str, Tuple[RingElement, ...]] = {}
        for name, action in derivations.items():
            row = []
            for v in self.variables:
                val = action.get(v, 0)
                if isinstance(val, dict):
                    # exponent-tuple spec, usable before the ring exists
                    val = RingElement(self, {tuple(k): c for k, c in val.items()})
                row.append(self._coerce(val))
            self._derivation_actions[name] = tuple(row)
        if declared:    # coordinate derivations have constant actions
            self._check_derivations_commute()

    # -- construction helpers -------------------------------------------

    def _coerce(self, value) -> "RingElement":
        if isinstance(value, RingElement):
            if value.ring is not self:
                raise RingError("element belongs to a different ring")
            return value
        return self.const(value)

    def const(self, c) -> "RingElement":
        c = as_fraction(c)
        if not c:
            return self.zero
        return RingElement(self, {(0,) * len(self.variables): c})

    def var(self, name: str) -> "RingElement":
        if name not in self._index:
            raise RingError("unknown variable %r" % name)
        exps = [0] * len(self.variables)
        exps[self._index[name]] = 1
        return RingElement(self, {tuple(exps): 1})

    def monomial(self, exponents: Sequence[int], coeff=1) -> "RingElement":
        return RingElement(self, {tuple(exponents): coeff})

    def variable_index(self, name: str) -> int:
        if name not in self._index:
            raise RingError("unknown variable %r" % name)
        return self._index[name]

    # -- derivations ------------------------------------------------------

    def derivation_action(self, name: str) -> Tuple["RingElement", ...]:
        try:
            return self._derivation_actions[name]
        except KeyError:
            raise RingError("unknown derivation %r" % name) from None

    def derive(self, name: str, f: "RingElement") -> "RingElement":
        """Apply the named derivation to f (Leibniz extension, power rule);
        a constant f gives the zero."""
        if f.ring is not self:
            raise RingError("element belongs to a different ring")
        action = self.derivation_action(name)
        if f.is_constant():
            return self.zero
        out: Dict[Exponents, Coefficient] = {}
        for exps, coeff in f.terms.items():
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                act = action[i]
                if not act.terms:
                    continue
                lowered = list(exps)
                lowered[i] = e - 1
                base = coeff * e
                for aexps, acoeff in act.terms.items():
                    key = tuple(x + y for x, y in zip(lowered, aexps))
                    out[key] = out.get(key, 0) + base * acoeff
        return RingElement._trusted(self, out)

    def apply_vector(self, vector: Sequence["RingElement"], f: "RingElement"
                     ) -> "RingElement":
        """The vector field sum_d vector[d] * D_d, given by its coefficients
        over the declared derivations D_d, applied to f; a constant f gives
        the zero."""
        if f.ring is not self:
            raise RingError("element belongs to a different ring")
        out = self.zero
        if f.is_constant():
            return out
        for name, c in zip(self.derivation_names, vector):
            if c.terms:
                out = out + c * self.derive(name, f)
        return out

    def _check_derivations_commute(self) -> None:
        names = self.derivation_names
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                for v in self.variables:
                    x = self.var(v)
                    lhs = self.derive(names[a], self.derive(names[b], x))
                    rhs = self.derive(names[b], self.derive(names[a], x))
                    if lhs != rhs:
                        raise RingError(
                            "derivations %s and %s do not commute on %s"
                            % (names[a], names[b], v))

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        parts = []
        for v in self.variables:
            parts.append(v + "^±1" if v in self.laurent else v)
        return "ChartRing(%s)" % ", ".join(parts)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


def _clean(terms: Terms) -> Dict[Exponents, Coefficient]:
    """terms without zero values and with integral Fractions as int: the
    term-dict form of `as_fraction`, for coefficients that are already
    exact (sums and products of Fractions can be integral)."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


def _product(a: Terms, b: Terms) -> Dict[Exponents, Coefficient]:
    out: Dict[Exponents, Coefficient] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            cur = out.get(key)
            out[key] = c1 * c2 if cur is None else cur + c1 * c2
    return out


def mul_terms(a: Terms, b: Terms) -> Dict[Exponents, Coefficient]:
    """The product of two term dicts {exponents: coefficient}, without
    zero values and with integral coefficients as int."""
    return _clean(_product(a, b))


def poly_ring(*variables: str) -> ChartRing:
    """Q[variables] with coordinate derivations."""
    return ChartRing(variables)


def laurent_ring(*variables: str) -> ChartRing:
    """Q[variables, inverses] with coordinate derivations."""
    return ChartRing(variables, laurent=variables)


class RingElement:
    """A finite sum of monomials with exact rational coefficients.

    `terms` maps exponent tuples to nonzero coefficients, each an int when
    integral and otherwise a Fraction; exponents may be negative only at
    Laurent variables of the owner.  The constructor normalises its
    coefficients with `as_fraction`.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChartRing, terms: Mapping[Exponents, Coefficient]):
        clean: Dict[Exponents, Coefficient] = {}
        nvars = len(ring.variables)
        for exps, coeff in terms.items():
            coeff = as_fraction(coeff)
            if not coeff:
                continue
            if len(exps) != nvars:
                raise RingError("exponent tuple of wrong length")
            for i, e in enumerate(exps):
                if e < 0 and ring.variables[i] not in ring.laurent:
                    raise RingError(
                        "negative exponent at non-Laurent variable %r"
                        % ring.variables[i])
            clean[exps] = coeff
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: ChartRing,
                 terms: Mapping[Exponents, Coefficient]) -> "RingElement":
        """An element from terms whose exponents are known to be valid and
        whose coefficients are exact (the result of a closed operation);
        zero coefficients are dropped and integral ones made int."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = _clean(terms)
        return self

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise RingError("operands belong to different rings")
            return other
        return self.ring.const(other)

    # elements are immutable, so a zero operand returns the other one

    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            out[exps] = coeff if cur is None else cur + coeff
        return RingElement._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement._trusted(self.ring,
                                    {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other) if other.terms else self

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        return RingElement._trusted(self.ring, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError("exponents must be integers")
        # a negative power of a non-unit falls through to inverse(), which
        # refuses it; a negative power of an int would be a float, so it is
        # taken in Fraction
        if len(self.terms) == 1 and (n >= 0 or self.is_unit()):
            ((exps, coeff),) = self.terms.items()
            power = coeff ** n if n >= 0 else Fraction(coeff) ** n
            return RingElement._trusted(self.ring, {tuple(e * n for e in exps): power})
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, RingElement) or other.ring is not self.ring:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- unit structure ------------------------------------------------------

    def is_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        (exps,) = self.terms
        return all(e == 0 or self.ring.variables[i] in self.ring.laurent
                   for i, e in enumerate(exps))

    def inverse(self) -> "RingElement":
        if not self.is_unit():
            raise RingError("element is not a unit: %s" % self)
        ((exps, coeff),) = self.terms.items()
        return RingElement(self.ring,
                           {tuple(-e for e in exps): Fraction(1) / coeff})

    # -- structure helpers ----------------------------------------------------

    def derive(self, name: str) -> "RingElement":
        return self.ring.derive(name, self)

    def constant_term(self) -> Coefficient:
        return self.terms.get(self.ring._origin, 0)

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and self.ring._origin in terms)

    def total_degree_range(self) -> Tuple[int, int]:
        """(min, max) of the signed total degree over the support; (0, 0) if zero."""
        if not self.terms:
            return (0, 0)
        degs = [sum(e) for e in self.terms]
        return (min(degs), max(degs))

    def exponent_range(self, var_index: int) -> Tuple[int, int]:
        if not self.terms:
            return (0, 0)
        exps = [e[var_index] for e in self.terms]
        return (min(exps), max(exps))

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        return self.terms.get(tuple(exponents), 0)

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(self.ring.variables, exps) if e != 0)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(coeff), mono)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "<%s>" % self

    def __hash__(self):
        # constants equal their Fraction (and int), so they hash alike
        if self.is_constant():
            return hash(self.constant_term())
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))


class RingMap:
    """Ring homomorphism determined by images of the source variables.

    Images of Laurent variables must be units of the target (checked at
    construction so substitution of negative exponents is always defined).
    The powers of each image (of its inverse, for negative exponents) are
    kept in a table filled outward from exponent 0 as they are first
    needed, each from its neighbour by one product; every image of a
    monomial is read from it.
    """

    def __init__(self, source: ChartRing, target: ChartRing,
                 images: Mapping[str, RingElement]):
        self.source = source
        self.target = target
        self.images: Dict[str, RingElement] = {}
        self._inverses: Dict[str, RingElement] = {}
        for v in source.variables:
            if v not in images:
                raise RingError("no image for source variable %r" % v)
            img = images[v]
            if not isinstance(img, RingElement) or img.ring is not target:
                raise RingError("image of %r is not a target element" % v)
            self.images[v] = img
            if v in source.laurent:
                if not img.is_unit():
                    raise RingError(
                        "image of Laurent variable %r must be a unit" % v)
                self._inverses[v] = img.inverse()
        self._powers = [{0: target.one.terms} for _ in source.variables]

    def _power(self, i: int, e: int) -> Terms:
        table = self._powers[i]
        if e not in table:
            v = self.source.variables[i]
            step = 1 if e > 0 else -1
            factor = (self.images[v] if e > 0 else self._inverses[v]).terms
            k = e
            while k - step not in table:
                k -= step
            for k in range(k, e + step, step):
                table[k] = mul_terms(table[k - step], factor)
        return table[e]

    def monomial_terms(self, exps: Exponents) -> Terms:
        """The terms of the image of the monomial x^exps.  The dict may be
        the table's own and must not be changed."""
        out = None
        for i, e in enumerate(exps):
            if e:
                power = self._power(i, e)
                out = power if out is None else mul_terms(out, power)
        return self.target.one.terms if out is None else out

    def __call__(self, f: RingElement) -> RingElement:
        if f.ring is not self.source:
            raise RingError("element is not in the source ring")
        out: Dict[Exponents, Coefficient] = {}
        for exps, coeff in f.terms.items():
            for key, c in self.monomial_terms(exps).items():
                cur = out.get(key)
                out[key] = coeff * c if cur is None else cur + coeff * c
        return RingElement._trusted(self.target, out)

    @classmethod
    def identity(cls, ring: ChartRing) -> "RingMap":
        return cls(ring, ring, {v: ring.var(v) for v in ring.variables})


def ring_arith(a: RingElement, b: RingElement, op: str) -> RingElement:
    """Exact +, * or - with owner check; kept as an explicit entry point."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "sub":
        return a - b
    raise RingError("unknown operation %r" % op)


def apply_derivation(name: str, f: RingElement) -> RingElement:
    return f.ring.derive(name, f)


def apply_ring_map(m: RingMap, f: RingElement) -> RingElement:
    return m(f)
