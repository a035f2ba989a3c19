"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's structure tables and differentials:
the Poisson checks work on functions, the Chevalley-Eilenberg ranks come
from explicitly enumerated basis matrices, and the one-variable
integration oracle inverts d/dx directly on monomials.  The PBW oracle
enumerates every rewrite branch of the library's reduction strategy
separately and merges equal words only at the end.
"""

from fractions import Fraction
from itertools import combinations


def poisson_bracket_of_functions(ring, pi_entry, f, g):
    """{f, g} = sum_ij pi(i,j) d_i(f) d_j(g) on the coordinate chart."""
    names = ring.derivation_names
    n = len(names)
    total = ring.zero
    for i in range(n):
        for j in range(n):
            p = pi_entry(i, j)
            if p.is_zero():
                continue
            total = total + p * ring.derive(names[i], f) * ring.derive(names[j], g)
    return total


def poisson_jacobiator(ring, pi_entry, f, g, h):
    br = lambda a, b: poisson_bracket_of_functions(ring, pi_entry, a, b)
    return br(br(f, g), h) + br(br(g, h), f) + br(br(h, f), g)


def bivector_is_poisson(ring, pi_entry):
    """Jacobi on all coordinate triples, which decides it for a bivector."""
    xs = [ring.var(v) for v in ring.variables]
    for i, j, k in combinations(range(len(xs)), 3):
        if not poisson_jacobiator(ring, pi_entry, xs[i], xs[j], xs[k]).is_zero():
            return False
    return True


def ce_cohomology_dims(rank, constants, max_degree):
    """Chevalley-Eilenberg cohomology dims over Q for constant structure
    tables with zero anchor, by explicit matrices of the alternating-sum
    differential on basis index tuples."""
    from algebroid.linalg import RationalMatrix, kernel_basis, rank as mat_rank

    def bracket(i, j):
        out = {}
        if i == j:
            return out
        if i < j:
            src, sign = (i, j), 1
        else:
            src, sign = (j, i), -1
        for k, c in constants.get(src, {}).items():
            out[k] = Fraction(c) * sign
        return out

    def d_matrix(p):
        dom = list(combinations(range(rank), p))
        cod = list(combinations(range(rank), p + 1))
        mat = RationalMatrix(len(cod), len(dom))
        # d(theta)(u_0..u_p) = sum_{a<b} (-1)^{a+b} theta([u_a,u_b], rest)
        for row, cod_tuple in enumerate(cod):
            for a, b in combinations(range(p + 1), 2):
                rest = tuple(x for t, x in enumerate(cod_tuple) if t not in (a, b))
                for k, c in bracket(cod_tuple[a], cod_tuple[b]).items():
                    if k in rest:
                        continue
                    merged = tuple(sorted(rest + (k,)))
                    pos = merged.index(k)
                    sign = (-1) ** (a + b) * (-1) ** pos
                    col = dom.index(merged)
                    mat.entries[row][col] += Fraction(sign) * c
        return mat, len(dom)

    dims = {}
    prev_rank = 0
    for p in range(max_degree + 1):
        mat, dom_dim = d_matrix(p)
        ker = dom_dim - mat_rank(mat)
        dims[p] = ker - prev_rank
        prev_rank = mat_rank(mat)
    return dims


def integrate_univariate(f):
    """Exact antiderivative of a one-variable polynomial, None on x^-1."""
    ring = f.ring
    out = ring.zero
    for exps, coeff in f.terms.items():
        (e,) = exps
        if e == -1:
            return None
        out = out + ring.monomial((e + 1,), coeff / (e + 1))
    return out


def p1_line_bundle_dims_by_counting(k, exponent_window):
    """h0/h1 of the twist-k bundle on the two-chart line by monomial
    bookkeeping: a global section is a pair (f0, f1) with f0 = z^k f1(1/z),
    and the overlap cokernel consists of the exponents in the window hit
    by neither z^j (j >= 0) nor z^(k-j)."""
    w = exponent_window
    h0 = sum(1 for j in range(0, w + 1) if 0 <= k - j)
    image = {e for e in range(0, w + 1)} | {k - j for j in range(0, 2 * w + 1)}
    h1 = sum(1 for e in range(-w, w + 1) if e not in image)
    return h0, h1


def naive_normal_form(items, system):
    """Leftmost-innermost PBW reduction, one stack entry per rewrite branch.

    Exponential in the word length but independent of any sharing between
    branches, so it is the reference for `algebroid.pbw.normal_form`."""
    from algebroid.pbw import PbwElement, _as_word, _leftmost_redex, _rewrite_at

    ring = system.ring
    result = {}
    stack = [(_as_word(items, ring), ring.one)]
    while stack:
        word, coeff = stack.pop()
        if coeff.is_zero():
            continue
        redex = _leftmost_redex(word)
        if redex is None:
            cur = result.get(word)
            result[word] = coeff if cur is None else cur + coeff
            continue
        t, kind = redex
        if kind == "fold":
            stack.append((word[1:], coeff * word[0]))
            continue
        for replacement in _rewrite_at(system, word, t, kind):
            stack.append((replacement, coeff))
    return PbwElement(system, result)
