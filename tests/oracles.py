"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's structure tables and differentials:
the Poisson checks work on functions, the Chevalley-Eilenberg ranks come
from explicitly enumerated basis matrices, and the one-variable
integration oracle inverts d/dx directly on monomials.  The PBW oracle
enumerates every rewrite branch of the library's reduction strategy
separately and merges equal words only at the end.  The gather
differentials evaluate the Chevalley-Eilenberg formula one output tuple
at a time; the scatter differential pushes each input term to the tuples
it reaches with ring arithmetic.  Both are references for the compiled
kernel behind `forms.covariant_d`; `stencil_column` is the tuple-keyed
column evaluator that the packed row codes replaced, the reference for
`Stencil.rows` once its codes are decoded (`decode_column`), and
`total_dims_by_bidegree` lays
the matched-pair total complex out by bidegree from them, and
`commutation_witness` checks d1 d2 = d2 d1 with RingElement arithmetic,
the reference for the integer `DoubleComplexSlice.commutation_check`.
The dense fraction-free Bareiss
routines (`RationalMatrix`, `rank`, `kernel_basis`, `solve_linear`, which
raise `DimensionError` on a length mismatch) are the reference for the
sparse integer column reduction `linalg.SparseSystem`.  `row_eliminate`
is the row-pivot eliminator that it replaced, `fraction_eliminate` that
eliminator's pivot rule over Fraction, and `keyed_pivots` and
`image_inside` read pivot columns and windowed images (by definition, a
rank difference) from it; `integer_kernel` is the dense row reduction
that `SparseSystem.kernel`'s primitive basis is tested against, and
`weight_lattice` derives the constraints of `forms.Stencil.weights` from
the anchor and the structure constants by Fraction arithmetic, and
`substitute` is the ring-arithmetic reference for `rings.RingMap`, with
`power_by_squaring` the reference for `RingElement.__pow__`.  The `frac_*`
functions redo ring arithmetic, derivations, ring maps, section brackets
and covariant derivatives on term dicts whose coefficients are all
Fraction, the reference for the int-or-Fraction coefficients of `rings`,
and `anchor_vector_apply` builds a(u) and applies it derivation by
derivation, the reference for `anchor_apply` and `derive`, which return
zero on a constant without building a(u).
`coboundary_system` and `line_bundle_dims_by_overlaps` lay the Cech
systems out overlap by overlap, the reference for the one restriction
that writes the rows of `cech`, and `system_from_columns` builds a
`linalg.SparseSystem` from keyed columns for the tests that give one so.  `whole_slice_dims` and `whole_slice_primitive` solve
each windowed cohomology and exactness question from a whole degree
slice, the reference for `forms._WindowedComplex.dims` and the weight
blocks of `exactness_solve`, and `window_weight_basis` lists a weight's
basis elements from the weight of every window monomial, the reference
for `forms._WindowedComplex.weight_basis`; `block_dims` is the block-wise `dims` that
ranked each weight block of each slice once per call, and
`rank_mod_prime` is a rank over a prime field that shares no code with
the eliminator.  `char_walk_tokenize` is the tokenizer that walks every
whitespace character, the reference for `parser.tokenize` and the
positions `parser.token_positions` finds;
`matched_equations_by_factor` spells the matched-pair equations 2 and 3
out once per factor, the reference for the one mirrored loop of
`matched.verify_matched`; and `lambda_overlap_failures` sums the overlap
gauge of a Lambda-module entry by entry, the reference for the matrix
products of `cech.verify_lambda_module`.  `relation_rules` writes the
relations of a twisted enveloping algebra out from the anchor, the
bracket and the twist, and `glue_relation_failures` checks the gluing
rule on them with its own images, its own frame change and products
from `naive_normal_form`: the references for `RelationSystem.relations`
and the `adf relations` and `glue` paths that read it.
`preserves_normal_forms` maps raw words of a `pbw.GeneratorMap` both
before and after reduction, the normal-form reference for its
`broken_relations`.  `whole_word_normal_form` is the PBW reduction
memoised on whole intermediate words that the product memo of
`pbw.normal_form` replaced.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from algebroid.rings import RingElement, RingError, as_fraction


class DimensionError(Exception):
    """A dense matrix, vector or right-hand side of the wrong length."""


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
    from oracles import RationalMatrix, rank as mat_rank  # `rank` is a parameter here

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
        out = out + ring.monomial((e + 1,), Fraction(coeff) / (e + 1))
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


def leftmost_redex(word):
    """(position, kind) of the leftmost redex of a word of generator
    indices and ring elements, or None."""
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


def rewrite_at(system, word, t, kind):
    """One merge, gf or gg rule application, with ring elements kept in the
    word; returns the replacement words (to be summed)."""
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
    raise ValueError("unknown rule kind %r" % kind)


def naive_normal_form(items, system):
    """Leftmost-innermost PBW reduction, one stack entry per rewrite branch.

    Exponential in the word length but independent of any sharing between
    branches, and it applies the rules from the algebroid and the twist
    directly, with every coefficient kept in the word, so it is the
    reference for `algebroid.pbw.normal_form`."""
    from algebroid.pbw import PbwElement, _as_word

    ring = system.ring
    result = {}
    stack = [(_as_word(items, ring, system.algebroid.rank), ring.one)]
    while stack:
        word, coeff = stack.pop()
        if coeff.is_zero():
            continue
        redex = leftmost_redex(word)
        if redex is None:
            cur = result.get(word)
            result[word] = coeff if cur is None else cur + coeff
            continue
        t, kind = redex
        if kind == "fold":
            stack.append((word[1:], coeff * word[0]))
            continue
        for replacement in rewrite_at(system, word, t, kind):
            stack.append((replacement, coeff))
    return PbwElement(system, result)


def naive_confluence_check(system):
    """`algebroid.pbw.confluence_check` from `rewrite_at` and
    `naive_normal_form`: (overlap word, left-first normal form,
    right-first normal form) of the first overlap whose two resolutions
    differ, or None."""
    from itertools import combinations

    l, ring = system.algebroid, system.ring
    overlaps = [((k, j, i), "gg") for i, j, k in combinations(range(l.rank), 3)]
    overlaps += [((j, i, ring.var(v)), "gf")
                 for i, j in combinations(range(l.rank), 2)
                 for v in ring.variables]
    for word, right_kind in overlaps:
        left, right = (
            pbw_sum(system, (naive_normal_form(r, system)
                                  for r in rewrite_at(system, word, t, kind)))
            for t, kind in ((0, "gg"), (1, right_kind)))
        if not (left - right).is_zero():
            return word, left, right
    return None


def whole_word_normal_form(items, system):
    """`algebroid.pbw.normal_form` as it was before the product memo: the
    same leftmost-innermost reduction, memoised on whole intermediate
    words (in a dict local to the call).  NF(word) is the sum over the
    edges (c, r) of the leftmost redex of c * NF(r), and NF(f * rest) =
    f * NF(rest) for a leading coefficient f, evaluated on an explicit
    stack.  Constants are factored out of the word by `system._encode`
    and edges come from `system._rewrite`, as in the library."""
    from operator import add

    from algebroid.pbw import PbwElement
    from algebroid.rings import _clean

    def leftmost(word):
        # the first coefficient of a word that starts with a generator
        # follows a generator, so two adjacent coefficients never merge
        for t in range(len(word) - 1):
            b = word[t + 1]
            if b < 0 or word[t] > b:
                return t
        return None

    def edge_sum(edges):
        out = {}
        for c, r in edges:
            for k, v in memo[r].items():
                out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    scale, root = system._encode(items)
    memo = {}
    zero = (0,) * len(system.ring.variables)
    # frames: (word, leading coefficient's terms or None, edges or None)
    stack = [(root, None, None)]
    while stack:
        word, fold, edges = stack.pop()
        if edges is None:
            if word in memo:
                continue
            if word and word[0] < 0:
                fold = system._coefficients[~word[0]].terms.items()
                edges = [(1, word[1:])]
            else:
                t = leftmost(word)
                if t is None:
                    memo[word] = {(word, zero): 1}
                    continue
                edges = system._rewrite(word, t)
            stack.append((word, fold, edges))
            stack.extend((w, None, None) for _, w in edges if w not in memo)
        elif fold is not None:
            out = {}
            for (w, e), v in memo[edges[0][1]].items():
                for f, c in fold:
                    key = (w, tuple(map(add, f, e)))
                    out[key] = out.get(key, 0) + c * v
            memo[word] = _clean(out)
        else:
            memo[word] = edge_sum(edges)
    by_word = {}
    for (w, e), v in memo[root].items():
        by_word.setdefault(w, {})[e] = scale * v
    return PbwElement(system, {w: RingElement._trusted(system.ring, coeffs)
                               for w, coeffs in by_word.items() if scale})


# -- gather- and scatter-style Chevalley-Eilenberg differentials ----------------


def scatter_covariant_d(l, coeffs, matrices=None):
    """`forms.covariant_d` evaluated with ring arithmetic: each nonzero
    input term theta^I (x) b_t goes to the (p+1)-tuples it reaches, anchor
    and connection terms for i not in I, bracket terms for k in I through
    the c_ij^k with i, j outside I - {k}.  No zero values in the result."""
    base = l.base
    fields = [[(name, g) for name, g in zip(base.derivation_names, row)
               if not g.is_zero()] for row in l.anchor]
    feeds = [[] for _ in range(l.rank)]
    for (i, j), comps in l.structure.items():
        for k, c in enumerate(comps):
            if not c.is_zero():
                feeds[k].append((i, j, c))
    out = {}

    def add(key, val, negate):
        cur = out.get(key)
        if cur is None:
            out[key] = -val if negate else val
        else:
            out[key] = cur - val if negate else cur + val

    for (idx, t), f in coeffs.items():
        derivs = {}
        for i in range(l.rank):
            pos = bisect_left(idx, i)
            if pos < len(idx) and idx[pos] == i:
                continue
            big = idx[:pos] + (i,) + idx[pos:]
            negate = pos % 2 == 1
            val = None
            for name, g in fields[i]:
                df = derivs.get(name)
                if df is None:
                    df = derivs[name] = base.derive(name, f)
                if not df.is_zero():
                    val = g * df if val is None else val + g * df
            if val is not None:
                add((big, t), val, negate)
            if matrices is not None:
                for s, m in matrices[i][t]:
                    add((big, s), m * f, negate)
        for pos, k in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            for i, j, c in feeds[k]:
                if i in rest or j in rest:
                    continue
                big = tuple(sorted(rest + (i, j)))
                add((big, t), c * f, (big.index(i) + big.index(j) + pos) % 2 == 1)
    return {key: val for key, val in out.items() if not val.is_zero()}


def stencil_column(stencil, idx, t, mono):
    """The image of theta^idx (x) b_t * x^mono under a `forms.Stencil`,
    keyed ((target tuple, module label), monomial), without zero values:
    the tuple-keyed column evaluator the row codes replaced, summing the
    stencil's compiled entries one tuple key at a time.  The reference
    for `Stencil.rows`, decoded."""
    consts, anchors = stencil._compile((idx, t))
    out = {}
    for key, shift, c in consts:
        k = (key, tuple(a + b for a, b in zip(mono, shift)))
        cur = out.get(k)
        out[k] = c if cur is None else cur + c
    for key, v, shift, c in anchors:
        e = mono[v]
        if e:
            k = (key, tuple(a + b for a, b in zip(mono, shift)))
            cur = out.get(k)
            out[k] = c * e if cur is None else cur + c * e
    return {k: c for k, c in out.items() if c}


# added to the exponent bound of the row codes the references ask for, so
# that they do not share the bias the windowed calls derive: a carry
# there changes a call's rows but not the references'
SLACK = 16


def decode_column(codes, col):
    """A column {row code: value} keyed (key, monomial) instead."""
    return {codes.decode(k): c for k, c in col.items()}


def complex_columns(complex_, codes, basis):
    """The columns {row code: value} of a `forms._WindowedComplex` at the
    basis elements, transposed from its rows."""
    cols = [{} for _ in basis]
    for k, row in complex_.rows(codes, basis).items():
        for j, c in row.items():
            cols[j][k] = c
    return cols


def system_from_columns(cols, key=None):
    """The `linalg.SparseSystem` whose column j is cols[j], a {row key:
    value} map: its rows are the union of the column keys, sorted (by
    `key`, when given), and zero values are dropped."""
    from collections import defaultdict
    from algebroid.linalg import SparseSystem

    rows = defaultdict(dict)
    for j, col in enumerate(cols):
        for k, c in col.items():
            if c:
                rows[k][j] = c
    keys = sorted(rows, key=key)
    return SparseSystem([rows[k] for k in keys], len(cols), keys)


def flatten_columns(images, key):
    """Sparse columns from ring-valued images {label: element}: the term
    x^m of the value at `label` goes to row `key(label, m)`."""
    return [{key(label, m): c for label, val in image.items()
             for m, c in val.terms.items()} for image in images]


def gather_d_form(theta):
    """d of an LForm: for each (p+1)-tuple, the alternating sum of anchor
    terms plus the bracket terms."""
    from algebroid.forms import LForm

    L = theta.owner
    p = theta.degree
    out = {}

    def accumulate(idx, val):
        if val.is_zero():
            return
        cur = out.get(idx)
        out[idx] = val if cur is None else cur + val

    for big in combinations(range(L.rank), p + 1):
        total = L.base.zero
        # anchor terms
        for a in range(p + 1):
            rest = big[:a] + big[a + 1:]
            coeff = theta.coeffs.get(rest)
            if coeff is None:
                continue
            term = L.anchor_apply(L.basis_section(big[a]), coeff)
            total = total + (term if a % 2 == 0 else -term)
        # bracket terms
        for a, b in combinations(range(p + 1), 2):
            struct = L.structure_coefficients(big[a], big[b])
            if all(c.is_zero() for c in struct):
                continue
            rest = tuple(x for t, x in enumerate(big) if t not in (a, b))
            sign_ab = (-1) ** (a + b)
            for k in range(L.rank):
                if struct[k].is_zero():
                    continue
                val = theta.component((k,) + rest)
                if val.is_zero():
                    continue
                term = struct[k] * val
                total = total + (term if sign_ab == 1 else -term)
        accumulate(big, total)
    return LForm(L, p + 1, out)


def gather_extend_connection(c, omega):
    """Covariant differential of a module-valued form, tuple by tuple."""
    from algebroid.connections import EValuedForm

    l = c.algebroid
    p = omega.degree
    out = {}

    def accumulate(idx, vec, sign):
        cur = out.setdefault(idx, [l.base.zero] * c.rank)
        for a in range(c.rank):
            cur[a] = cur[a] + vec[a] if sign == 1 else cur[a] - vec[a]

    for big in combinations(range(l.rank), p + 1):
        for a in range(p + 1):
            rest = big[:a] + big[a + 1:]
            vec = omega.coeffs.get(rest)
            if vec is None:
                continue
            accumulate(big, c.apply_basis(big[a], vec), (-1) ** a)
        for a, b in combinations(range(p + 1), 2):
            struct = l.structure_coefficients(big[a], big[b])
            if all(x.is_zero() for x in struct):
                continue
            rest = tuple(x for t, x in enumerate(big) if t not in (a, b))
            for k in range(l.rank):
                if struct[k].is_zero():
                    continue
                vec = omega.component((k,) + rest)
                if all(v.is_zero() for v in vec):
                    continue
                scaled = tuple(struct[k] * v for v in vec)
                accumulate(big, scaled, (-1) ** (a + b))
    return EValuedForm(l, c.rank, p + 1, out)


def _component_value(coeffs, i1, i2):
    """look up with antisymmetrization in each slot separately."""
    from algebroid.forms import sort_with_sign

    s1, sign1 = sort_with_sign(i1)
    s2, sign2 = sort_with_sign(i2)
    if s1 is None or s2 is None:
        return None
    val = coeffs.get((s1, s2))
    if val is None:
        return None
    return val if sign1 * sign2 == 1 else -val


def gather_d1(m, p, q, coeffs):
    """d1 of a (p, q) cochain {(I, J): element} of the matched pair's
    double complex, as {(I, J): element} without zero values."""
    base = m.l1.base
    out = {}

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
                        v = _component_value(coeffs, rest, replaced)
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
                    v = _component_value(coeffs, (k,) + rest, j2)
                    if v is None:
                        continue
                    term = struct[k] * v
                    total = total + (term if sgn == 1 else -term)
            add(big, j2, total)
    return out


def gather_d2(m, p, q, coeffs):
    """The mirror of gather_d1: l2 differentiates the second slot with
    action21 on the first."""
    base = m.l1.base
    out = {}

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
                        v = _component_value(coeffs, replaced, rest)
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
                    v = _component_value(coeffs, j1, (k,) + rest)
                    if v is None:
                        continue
                    term = struct[k] * v
                    total = total + (term if sgn == 1 else -term)
            add(j1, big, total)
    return out


def commutation_witness(sl, gather=False):
    """`DoubleComplexSlice.commutation_check` with RingElement arithmetic:
    the first basis element, in the check's order, where d1 d2 and d2 d1
    differ, as (p, q, (I, J, monomial)), or None.  The composites come
    from the slice's RingElement differentials, or with `gather` from
    gather_d1 and gather_d2."""
    m = sl.pair
    for (p, q), basis in sorted(sl.bases.items()):
        if p + 1 > m.l1.rank or q + 1 > m.l2.rank:
            continue
        if p + q + 2 > sl.max_total + 1:
            continue
        for (i1, i2), mono in basis:
            term = {(i1, i2): m.l1.base.monomial(mono)}
            if gather:
                one = gather_d1(m, p, q + 1, gather_d2(m, p, q, term))
                two = gather_d2(m, p + 1, q, gather_d1(m, p, q, term))
            else:
                one = sl.d1(sl.d2(term))
                two = sl.d2(sl.d1(term))
            if one != two:
                return (p, q, (i1, i2, mono))
    return None


def total_dims_by_bidegree(m, degrees, window):
    """Cohomology dims of the total complex of a matched pair's double
    complex on the window, laid out by bidegree: degree n has the basis
    ((p, q), I, J, monomial) over every p + q = n, the columns are
    gather_d1 + (-1)^p gather_d2 keyed the same way, and the image of
    degree n - 1 comes from the window enlarged by the twilled sum's
    degree drop."""
    from algebroid.matched import twilled_sum

    ring = m.l1.base
    drop, _ = twilled_sum(m).coefficient_degree_profile()

    def basis(n, w):
        monos = w.monomials(ring)
        return [((p, n - p), i1, i2, mono) for p in range(n + 1)
                for i1 in combinations(range(m.l1.rank), p)
                for i2 in combinations(range(m.l2.rank), n - p)
                for mono in monos]

    def columns(dom):
        cols = []
        for (p, q), i1, i2, mono in dom:
            term = {(i1, i2): ring.monomial(mono)}
            col = {((p + 1, q), a1, a2, mm): c
                   for (a1, a2), val in gather_d1(m, p, q, term).items()
                   for mm, c in val.terms.items()}
            col.update({((p, q + 1), a1, a2, mm): (-1) ** p * c
                        for (a1, a2), val in gather_d2(m, p, q, term).items()
                        for mm, c in val.terms.items()})
            cols.append(col)
        return cols

    dims = {}
    for n in sorted(set(degrees)):
        dom = basis(n, window)
        ker = len(dom) - len(keyed_pivots(columns(dom)))
        im = 0
        if n > 0:
            im = image_inside(columns(basis(n - 1, window.enlarged(drop))), dom)
        dims[n] = ker - im
    return dims


# -- windowed cohomology and exactness, one whole slice at a time ----------------


def one_ring(complex_):
    """The ring of every block of a `forms._WindowedComplex` over one ring."""
    (ring,) = {ring for blocks in complex_.blocks.values() for _, ring in blocks}
    return ring


def whole_slice_dims(complex_, degrees, windows, drop):
    """{window: {p: (kernel dim, windowed image dim)}} as
    `forms._WindowedComplex.dims` defines them, with no weight blocks:
    the kernel from every column of the degree-p slice, the image as the
    rank of d_(p-1) on the window enlarged by `drop` minus its rank on
    the rows outside the window, all by `row_eliminate`."""

    def columns(p, w, codes):
        return complex_columns(complex_, codes, complex_.basis(p, w))

    out = {}
    for w in windows:
        out[w] = {}
        codes = complex_.codes(w.enlarged(drop).bound(one_ring(complex_)) + SLACK)
        for p in sorted(set(degrees)):
            if p not in complex_.blocks:
                out[w][p] = (0, 0)
                continue
            d = columns(p, w, codes)
            im = 0
            if p > 0:
                inside = {codes.code(key, m) for key, m in complex_.basis(p, w)}
                im = image_inside(columns(p - 1, w.enlarged(drop), codes), inside)
            out[w][p] = (len(d) - len(keyed_pivots(d)), im)
    return out


def block_dims(complex_, degrees, windows, drop):
    """{window: {p: (kernel dim, windowed image dim)}} as `whole_slice_dims`
    gives them, summed over the weight blocks of each slice (grouped by
    `complex_.weight`).  The windows are nested, so two blocks of one
    degree and weight with as many columns are the same block, and with as
    many basis elements of that weight inside the image's window they
    split the same way: each block's rank, and its rank outside each
    window, is computed once per call, and a block keeps only its rank and
    the windows that hold all of its rows."""

    def block_ranks(blocks):
        # one elimination of the block-diagonal system of the blocks
        owner = [t for t, cols in enumerate(blocks) for _ in cols]
        cols = [col for b in blocks for col in b]
        ranks = [0] * len(blocks)
        if any(cols):
            for c in keyed_pivots(cols):
                ranks[owner[c]] += 1
        return ranks

    def blocks_of(p, w):
        out = {}
        for key, m in complex_.basis(p, w):
            out.setdefault(complex_.weight(key[0], m), []).append((key, m))
        return out

    degrees, windows = sorted(set(degrees)), list(windows)
    ring = one_ring(complex_)
    codes = complex_.codes(max(w.enlarged(drop).bound(ring) for w in windows)
                           + SLACK)
    reads = {}
    for t, w in enumerate(windows):
        for p in degrees:
            if p in complex_.blocks:
                reads.setdefault((p, w), []).append((t, p, False))
                if p > 0:
                    reads.setdefault((p - 1, w.enlarged(drop)), []).append((t, p, True))
    kept = [{codes.mono(m) for m in w.monomials(ring)} for w in windows]
    ranks, outside, kernel, image = {}, {}, {}, {}
    for (p, window), asks in reads.items():
        blocks = blocks_of(p, window)
        keys = [((p, wt, len(b)), wt) for wt, b in blocks.items()]
        new = {key: complex_columns(complex_, codes, blocks[wt])
               for key, wt in keys if key not in ranks}
        for (key, cols), r in zip(new.items(), block_ranks(list(new.values()))):
            rows = {k % codes.scale for col in cols for k in col}
            ranks[key] = (r, {t for t, monos in enumerate(kept) if rows <= monos})
        for t, q, is_image in asks:
            if not is_image:
                kernel[t, q] = sum(key[2] - ranks[key][0] for key, _ in keys)
                continue
            inside = {wt: len(b) for wt, b in blocks_of(q, windows[t]).items()}
            total, split, todo = 0, [], {}
            for key, wt in keys:
                r, holds = ranks[key]
                n_in = inside.get(wt, 0)
                if not (r and n_in):
                    continue
                total += r
                if t in holds:
                    continue
                split.append(key + (n_in,))
                if split[-1] not in outside and split[-1] not in todo:
                    todo[split[-1]] = [
                        {k: c for k, c in col.items() if k % codes.scale not in kept[t]}
                        for col in complex_columns(complex_, codes, blocks[wt])]
            outside.update(zip(todo, block_ranks(list(todo.values()))))
            image[t, q] = total - sum(outside[key] for key in split)
    return {w: {p: (kernel.get((t, p), 0), image.get((t, p), 0)) for p in degrees}
            for t, w in enumerate(windows)}


def whole_slice_primitive(theta, window):
    """The {index tuple: {monomial: value}} that `forms.exactness_solve`
    returns as its primitive, solved from every column of the
    degree-(p-1) slice of its domain window; None when there is none."""
    from algebroid.forms import TruncationWindow, _ce_complex, _extent

    l = theta.owner
    drop, _ = l.coefficient_degree_profile()
    needed = max(_extent(l.base, theta.coeffs.values()))
    dom = TruncationWindow(max(window.degree, needed) + drop,
                           max(window.laurent, needed) + drop)
    complex_, p = _ce_complex(l), theta.degree - 1
    codes = complex_.codes(max(
        [dom.bound(l.base)]
        + [abs(e) for val in theta.coeffs.values() for m in val.terms for e in m]))
    rhs = {codes.code((idx, 0), m): c for idx, val in theta.coeffs.items()
           for m, c in val.terms.items()}
    basis = complex_.basis(p, dom)
    (terms,) = system_from_columns(
        complex_columns(complex_, codes, basis)).solve([rhs], basis)
    return None if terms is None else {idx: t for (idx, _), t in terms.items()}


def window_weight_basis(complex_, p, window, weights):
    """The basis elements of the given weights in basis order, as
    `forms._WindowedComplex.weight_basis` gives them, from the weight of
    every monomial of the window."""
    mono_weight, index_weight = complex_._weights()
    weights = set(weights)
    groups = {}
    for m in window.monomials(one_ring(complex_)):
        groups.setdefault(sum(map(mul, mono_weight, m)), []).append(m)
    out = []
    for key, _ in complex_.blocks.get(p, ()):
        shift = sum(index_weight[i] for i in key[0])
        monos = [m for wt in weights for m in groups.get(wt - shift, ())]
        out.extend((key, m) for m in sorted(monos))
    return out


PRIME = (1 << 61) - 1


def rank_mod_prime(cols, prime=PRIME):
    """The rank of keyed columns {row key: rational} over Z/prime, by
    column reduction against pivots normalised at their smallest row key:
    a second, independent rank (Dumas & Villard, CASC 2002).  It equals
    the rational rank unless the prime divides a minor."""
    pivots = {}
    rank_ = 0
    for col in cols:
        v = {}
        for k, c in col.items():
            c = Fraction(c)
            c = c.numerator * pow(c.denominator, -1, prime) % prime
            if c:
                v[k] = c
        while v:
            lead = min(v)
            if lead not in pivots:
                inv = pow(v[lead], -1, prime)
                pivots[lead] = {k: c * inv % prime for k, c in v.items()}
                rank_ += 1
                break
            f = v[lead]
            for k, c in pivots[lead].items():
                c = (v.get(k, 0) - f * c) % prime
                if c:
                    v[k] = c
                else:
                    v.pop(k, None)
    return rank_


# -- dense fraction-free linear algebra ----------------------------------------


class RationalMatrix:
    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise DimensionError("entry grid does not match declared shape")
            self.entries = [[as_fraction(x) for x in row] for row in entries]

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m.entries[i][i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.entries == other.entries)

    def mul_vector(self, v: Sequence[Fraction]) -> List[Fraction]:
        if len(v) != self.cols:
            raise DimensionError("vector length does not match columns")
        return [sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
                for row in self.entries]

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.rows, self.cols)


def _integer_rows(entries: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in entries:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def _bareiss(rows: List[List[int]]) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Fraction-free forward elimination.

    Returns the echelon rows and the list of (row, col) pivot positions.
    Destructive on `rows`. Division steps are exact by the Bareiss identity.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[Tuple[int, int]] = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        for r in range(pr + 1, nrows):
            factor = rows[r][pc]
            for c in range(ncols):
                rows[r][c] = (rows[r][c] * piv - factor * rows[pr][c]) // prev
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


@dataclass
class LinearSolveResult:
    status: str                       # "solution" | "inconsistent"
    solution: Optional[List[Fraction]] = None
    certificate: Optional[List[Fraction]] = None   # y with y.A = 0, y.b != 0


def solve_linear(a: RationalMatrix, b: Sequence) -> LinearSolveResult:
    """Solve A x = b exactly; on failure return a Fredholm witness y."""
    b = [as_fraction(x) for x in b]
    if len(b) != a.rows:
        raise DimensionError("right-hand side length does not match rows")
    n, m = a.rows, a.cols
    # augmented [A | b | I]: the I block tracks row operations so an
    # inconsistent row yields a left null combination of the original rows.
    aug = []
    for i in range(n):
        row = list(a.entries[i]) + [b[i]] + [Fraction(0)] * n
        row[m + 1 + i] = Fraction(1)
        aug.append(row)
    rows, pivots = _bareiss(_integer_rows(aug))
    a_pivots = [(r, c) for (r, c) in pivots if c < m]
    for r, c in pivots:
        if c == m:  # pivot in the b column: inconsistent row found
            cert = [Fraction(rows[r][m + 1 + j]) for j in range(n)]
            return LinearSolveResult("inconsistent", certificate=cert)
    # back-substitution over the A|b part
    x = [Fraction(0)] * m
    for r, c in reversed(a_pivots):
        s = Fraction(rows[r][m])
        for j in range(c + 1, m):
            if rows[r][j]:
                s -= Fraction(rows[r][j]) * x[j]
        x[c] = s / Fraction(rows[r][c])
    return LinearSolveResult("solution", solution=x)


def kernel_basis(a: RationalMatrix) -> List[List[Fraction]]:
    """Exact basis of the null space, one vector per free column."""
    rows, pivots = _bareiss(_integer_rows(a.entries))
    pivot_cols = [c for (_, c) in pivots]
    free_cols = [c for c in range(a.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, c in reversed(pivots):
            s = Fraction(0)
            for j in range(c + 1, a.cols):
                if rows[r][j]:
                    s -= Fraction(rows[r][j]) * v[j]
            v[c] = s / Fraction(rows[r][c])
        basis.append(v)
    return basis


def rank(a: RationalMatrix) -> int:
    _, pivots = _bareiss(_integer_rows(a.entries))
    return len(pivots)


def fraction_eliminate(rows, ncols, rhs=None):
    """Sparse forward elimination over Fraction with the pivot rule of
    `row_eliminate` (ascending column, sparsest eligible row, lowest row
    index): row_i -= (row_i[c] / pivot) * row_pivot.  Returns
    (pivots, reduced rows, reduced rhs)."""
    rows = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    vec = [Fraction(v) for v in rhs] if rhs is not None else None
    used = [False] * len(rows)
    pivots = []
    for c in range(ncols):
        holders = [i for i in range(len(rows)) if not used[i] and c in rows[i]]
        if not holders:
            continue
        pivot = min(holders, key=lambda i: (len(rows[i]), i))
        used[pivot] = True
        pivots.append((pivot, c))
        pv = rows[pivot][c]
        for i in holders:
            if i == pivot:
                continue
            factor = rows[i][c] / pv
            for cc, vv in rows[pivot].items():
                new = rows[i].get(cc, Fraction(0)) - factor * vv
                if new == 0:
                    rows[i].pop(cc, None)
                else:
                    rows[i][cc] = new
            if vec is not None:
                vec[i] = vec[i] - factor * vec[pivot]
    return pivots, rows, vec


def row_eliminate(rows, ncols):
    """The row-pivot sparse eliminator that `linalg.SparseSystem` ran
    before its column reduction: forward elimination on the columns each
    scaled by the lcm of its denominators, pivoting at each column in
    ascending order on its sparsest holder row, then the lowest row
    index, with rows combined fraction-free and divided by their content.
    Returns (pivots as (row, column), reduced rows, column scales); the
    reduced rows are multiples of `fraction_eliminate`'s."""
    rows = [dict(r) for r in rows]
    scales = {}
    for r in rows:
        for c, v in r.items():
            if type(v) is not int:
                s, d = scales.get(c, 1), as_fraction(v).denominator
                scales[c] = s * d // gcd(s, d)
    for r in rows:
        for c, v in r.items():
            s = scales.get(c, 1)
            r[c] = v * s if type(v) is int else v.numerator * (s // v.denominator)
    col_rows = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    used = [False] * len(rows)
    pivots = []
    for c in sorted(col_rows):
        holders = sorted(i for i in col_rows[c] if not used[i])
        if not holders:
            continue
        pivot = min(holders, key=lambda i: len(rows[i]))
        used[pivot] = True
        pivots.append((pivot, c))
        prow = rows[pivot]
        pv = prow[c]
        for i in holders:
            if i == pivot:
                continue
            row = rows[i]
            f = row[c]
            g = gcd(pv, f)
            a, b = pv // g, f // g
            for cc in row:
                row[cc] *= a
            for cc, vv in prow.items():
                new = row.get(cc, 0) - b * vv
                if new:
                    row[cc] = new
                    col_rows.setdefault(cc, set()).add(i)
                elif cc in row:
                    del row[cc]
                    col_rows[cc].discard(i)
            content = gcd(*row.values())
            if content > 1:
                for cc in row:
                    row[cc] //= content
    return pivots, rows, {c: s for c, s in scales.items() if s != 1}


def keyed_pivots(cols, deleted=frozenset()):
    """The pivot columns of keyed columns {row key: value}, ascending,
    after deleting the rows keyed in `deleted`: `row_eliminate`'s."""
    rows = {}
    for j, col in enumerate(cols):
        for k, v in col.items():
            if v and k not in deleted:
                rows.setdefault(k, {})[j] = v
    return [c for _, c in row_eliminate(list(rows.values()), len(cols))[0]]


def image_inside(cols, inside):
    """The dimension of the image vectors of keyed columns that vanish
    at every row key outside `inside`, by its definition: the rank minus
    the rank after deleting the rows keyed in `inside`."""
    return len(keyed_pivots(cols)) - len(keyed_pivots(cols, set(inside)))


def integer_kernel(rows: Sequence[Sequence[int]], n: int
                    ) -> Tuple[Tuple[int, ...], ...]:
    """A basis of the rational kernel of the integer rows (length n), one
    vector per free column of the reduced row echelon form, each scaled
    to coprime integers with a positive entry at its free column: the
    dense reference for `SparseSystem.kernel`."""
    reduced: List[List[int]] = []       # primitive rows, pivot columns cleared
    pivots: List[int] = []
    for row in rows:
        for r, c in zip(reduced, pivots):
            if row[c]:
                row = [r[c] * a - row[c] * b for a, b in zip(row, r)]
        c = next((c for c, v in enumerate(row) if v), None)
        if c is None:
            continue
        g = gcd(*row)
        row = [v // g for v in row]
        for t, r in enumerate(reduced):
            if r[c]:
                r = [row[c] * a - r[c] * b for a, b in zip(r, row)]
                g = gcd(*r)
                reduced[t] = [v // g for v in r]
        reduced.append(row)
        pivots.append(c)
    scale = lcm(*(r[c] for r, c in zip(reduced, pivots)))
    basis = []
    for free in range(n):
        if free not in pivots:
            v = [0] * n
            v[free] = scale
            for r, c in zip(reduced, pivots):
                v[c] = -r[free] * scale // r[c]
            g = gcd(*v)
            basis.append(tuple(x // g for x in v))
    return tuple(basis)


def weight_lattice(l):
    """The reference for `Stencil.weights` of l with the trivial
    connection: `integer_kernel` of the rows w.s + u_i for each monomial
    x_v * x^s of a(e_i)(x_v), from `frac_anchor_apply`, and w.s + u_i +
    u_j - u_k for each monomial x^s of c_ij^k."""
    nv, n = len(l.base.variables), len(l.base.variables) + l.rank
    rows = set()
    for i in range(l.rank):
        unit = [{(0,) * nv: Fraction(1)} if t == i else {} for t in range(l.rank)]
        for v in range(nv):
            x_v = {tuple(int(t == v) for t in range(nv)): Fraction(1)}
            for exps in frac_anchor_apply(l, unit, x_v):
                row = [e - (t == v) for t, e in enumerate(exps)] + [0] * l.rank
                row[nv + i] += 1
                rows.add(tuple(row))
    for i, j in combinations(range(l.rank), 2):
        for k, c in enumerate(l.structure_coefficients(i, j)):
            for exps in c.terms:
                row = list(exps) + [0] * l.rank
                row[nv + i] += 1
                row[nv + j] += 1
                row[nv + k] -= 1
                rows.add(tuple(row))
    return integer_kernel(sorted(rows), n)


# -- ring maps by ring arithmetic --------------------------------------------------


def power_by_squaring(f, n):
    """f ** n by square-and-multiply, through the inverse for n < 0: the
    reference for the one-term path of `RingElement.__pow__`."""
    if n < 0:
        return power_by_squaring(f.inverse(), -n)
    result = f.ring.one
    while n:
        if n & 1:
            result = result * f
        f = f * f
        n >>= 1
    return result


def substitute(rmap, f):
    """rmap(f) with RingElement arithmetic: each term's coefficient times
    the powers of the variable images (of their inverses for negative
    exponents), each power rebuilt by repeated squaring."""
    if f.ring is not rmap.source:
        raise RingError("element is not in the source ring")
    result = rmap.target.zero
    for exps, coeff in f.terms.items():
        term = rmap.target.const(coeff)
        for v, e in zip(rmap.source.variables, exps):
            if e > 0:
                term = term * power_by_squaring(rmap.images[v], e)
            elif e < 0:
                term = term * power_by_squaring(rmap.images[v].inverse(), -e)
        result = result + term
    return result


# -- ring arithmetic over Fraction only ----------------------------------------------


def is_normal_coefficient(c) -> bool:
    """c is a nonzero int when integral and otherwise a Fraction with
    denominator > 1: never a float, a bool, a zero or an integral Fraction."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def fraction_terms(f):
    """The terms of a RingElement (or of a term dict) with every
    coefficient coerced to Fraction."""
    terms = f.terms if isinstance(f, RingElement) else f
    return {e: Fraction(c) for e, c in terms.items()}


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def frac_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _nonzero(out)


def frac_neg(a):
    return {e: -c for e, c in a.items()}


def frac_sub(a, b):
    return frac_add(a, frac_neg(b))


def frac_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _nonzero(out)


def frac_inverse(a):
    """The inverse of a one-term unit a."""
    ((e, c),) = a.items()
    return {tuple(-x for x in e): Fraction(1) / c}


def frac_pow(a, n, nvars):
    """a ** n by n repeated products, of the inverse when n < 0."""
    base = frac_inverse(a) if n < 0 else a
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(abs(n)):
        out = frac_mul(out, base)
    return out


def frac_derive(ring, name, a):
    """The named derivation of ring applied to the term dict a, by the
    power rule on each variable and the derivation's action on it."""
    action = [fraction_terms(g) for g in ring.derivation_action(name)]
    out = {}
    for e, c in a.items():
        for i, ei in enumerate(e):
            if ei:
                lowered = e[:i] + (ei - 1,) + e[i + 1:]
                out = frac_add(out, frac_mul({lowered: c * ei}, action[i]))
    return out


def frac_map(rmap, a):
    """rmap applied to the term dict a: each monomial replaced by the
    product of the powers of the variable images."""
    nvars = len(rmap.target.variables)
    images = [fraction_terms(rmap.images[v]) for v in rmap.source.variables]
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for img, ei in zip(images, e):
            term = frac_mul(term, frac_pow(img, ei, nvars))
        out = frac_add(out, term)
    return out


def frac_anchor_apply(l, u, f):
    """a(u)(f) for a section u of l and a term dict f."""
    out = {}
    for i, ui in enumerate(u):
        for name, a in zip(l.base.derivation_names, l.anchor[i]):
            out = frac_add(out, frac_mul(frac_mul(ui, fraction_terms(a)),
                                         frac_derive(l.base, name, f)))
    return out


def anchor_vector_apply(l, u, f):
    """a(u)(f) by the route that does not look at f first: the vector a(u)
    summed from u's coefficients and the anchor with ring arithmetic, then
    applied derivation by derivation, each derivative of f by
    `frac_derive`.  The reference for `Algebroid.anchor_apply` and
    `ChartRing.derive`, which return zero on a constant f at once."""
    ring = l.base
    out = ring.zero
    for d, name in enumerate(ring.derivation_names):
        coeff = ring.zero
        for i, c in enumerate(u.coefficients):
            coeff = coeff + c * l.anchor[i][d]
        if not coeff.is_zero():
            out = out + coeff * RingElement(ring, frac_derive(ring, name, fraction_terms(f)))
    return out


def frac_bracket(l, u, v):
    """The bracket of the sections u, v of l (lists of term dicts):
    [u, v]_k = sum_ij u_i v_j c_ij^k + a(u)(v_k) - a(v)(u_k)."""
    out = []
    for k in range(l.rank):
        acc = frac_sub(frac_anchor_apply(l, u, v[k]), frac_anchor_apply(l, v, u[k]))
        for i in range(l.rank):
            for j in range(l.rank):
                c = fraction_terms(l.structure_coefficients(i, j)[k])
                acc = frac_add(acc, frac_mul(frac_mul(u[i], v[j]), c))
        out.append(acc)
    return out


def frac_apply_basis(c, i, vector):
    """The covariant derivative along e_i of a vector of term dicts:
    a(e_i)(s_a) + sum_b A_i[a][b] s_b."""
    l = c.algebroid
    e = [{(0,) * len(l.base.variables): Fraction(1)} if k == i else {}
         for k in range(l.rank)]
    out = []
    for a in range(c.rank):
        acc = frac_anchor_apply(l, e, vector[a])
        for b in range(c.rank):
            acc = frac_add(acc, frac_mul(fraction_terms(c.matrices[i][a][b]), vector[b]))
        out.append(acc)
    return out


# -- Cech systems, overlap by overlap ------------------------------------------------


def coboundary_system(cover, pair_a, pair_b, window):
    """(columns, rhs) of `cech.coboundary_test`, laid out overlap by
    overlap: per overlap, the restricted monomials of the first chart's
    unknowns with sign + and of the second chart's with sign -, moved to
    the reference frame by the inverse transition; per chart of rank >= 2,
    d eta from `scatter_covariant_d`.  Columns run over (chart, basis
    index, window monomial)."""
    from algebroid.rings import mul_terms
    diff = pair_b.difference(pair_a)
    monos = [window.monomials(cover.chart_ring(a)) for a in range(len(cover.charts))]
    position = {}
    for a in range(len(cover.charts)):
        for i in range(cover.chart_algebroid(a).rank):
            for mono in monos[a]:
                position[(a, i, mono)] = len(position)
    cols = [{} for _ in position]
    rhs = {}
    for (a, b), ov in sorted(cover.overlaps.items()):
        frame = cover.frame_algebroid(a, b)
        for i in range(cover.chart_algebroid(a).rank):
            for mono in monos[a]:
                col = cols[position[(a, i, mono)]]
                for exps, c in ov.map_a.monomial_terms(mono).items():
                    col[("ov", a, b, i, exps)] = c
        for i in range(cover.chart_algebroid(b).rank):
            for mono in monos[b]:
                col = cols[position[(b, i, mono)]]
                img = ov.map_b.monomial_terms(mono)
                for j in range(frame.rank):
                    coeff = ov.transition_inverse[i][j]
                    if coeff.is_zero():
                        continue
                    for exps, c in mul_terms(coeff.terms, img).items():
                        col[("ov", a, b, j, exps)] = -c
        for j in range(frame.rank):
            for exps, c in diff.phi[(a, b)].component((j,)).terms.items():
                rhs[("ov", a, b, j, exps)] = c
    for a in range(len(cover.charts)):
        alg = cover.chart_algebroid(a)
        if alg.rank < 2:
            continue
        ring = cover.chart_ring(a)
        for i in range(alg.rank):
            for mono in monos[a]:
                col = cols[position[(a, i, mono)]]
                image = scatter_covariant_d(alg, {((i,), 0): ring.monomial(mono)})
                for (jdx, _), val in image.items():
                    for exps, c in val.terms.items():
                        col[("ch", a, jdx, exps)] = c
        for jdx, val in diff.q[a].coeffs.items():
            for exps, c in val.terms.items():
                rhs[("ch", a, jdx, exps)] = c
    return cols, rhs


def line_bundle_columns(cover, window):
    """(chart window, columns, window keys) of the Cech complex of
    `cech.line_bundle_cech_dims`, laid out overlap by overlap: one column
    per (chart, monomial of the chart window, the window enlarged by the
    transition degree), keyed (first chart, second chart, exponents); a
    first-chart section restricts with sign -, a second-chart section
    with sign + after multiplication by the bundle transition g.  The
    window keys are those of the overlap monomials inside the window."""
    from algebroid.forms import TruncationWindow
    from algebroid.rings import mul_terms
    slack = 0
    for ov in cover.overlaps.values():
        lo, hi = ov.bundle[0][0].total_degree_range()
        slack = max(slack, abs(lo), abs(hi))
    chart_window = TruncationWindow(window.laurent + slack, window.laurent + slack)
    cols = []
    position = {}
    for a in range(len(cover.charts)):
        for mono in chart_window.monomials(cover.chart_ring(a)):
            position[(a, mono)] = len(cols)
            cols.append({})
    box = TruncationWindow(window.laurent, window.laurent)
    window_keys = set()
    for (a, b), ov in sorted(cover.overlaps.items()):
        g = ov.bundle[0][0]
        window_keys.update((a, b, exps) for exps in box.monomials(ov.ring))
        for mono in chart_window.monomials(cover.chart_ring(a)):
            for exps, c in ov.map_a.monomial_terms(mono).items():
                cols[position[(a, mono)]][(a, b, exps)] = -c
        for mono in chart_window.monomials(cover.chart_ring(b)):
            for exps, c in mul_terms(g.terms, ov.map_b.monomial_terms(mono)).items():
                cols[position[(b, mono)]][(a, b, exps)] = c
    return chart_window, cols, window_keys


def line_bundle_dims_by_overlaps(cover, window):
    """(h0, h1) as `cech.line_bundle_cech_dims` defines them, from the
    columns of `line_bundle_columns`."""
    _, cols, window_keys = line_bundle_columns(cover, window)
    h0 = len(cols) - len(keyed_pivots(cols))
    h1 = len(window_keys) - image_inside(cols, window_keys)
    return h0, h1


# -- the character-walk tokenizer -------------------------------------------------

_CHAR_WALK_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<deriv>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<sym>[(){}\[\],;=+\-*^/.])
""", re.VERBOSE)


def char_walk_tokenize(text):
    """Tokens as (kind, text, line, column), line and column kept by
    walking every whitespace character, and the dual caret found by
    looking past each identifier: a caret followed by an ASCII digit or
    '-' is a power, as the grammar's integers are [0-9]."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _CHAR_WALK_RE.match(text, pos)
        if m is None:
            tokens.append(("ERROR", text[pos], line, col))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            for ch in chunk:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = m.end()
            continue
        if kind == "comment":
            pos = m.end()
            col += len(chunk)
            continue
        if kind == "ident":
            end = m.end()
            if end < len(text) and text[end] == "^":
                nxt = text[end + 1: end + 2]
                if not (nxt.isascii() and nxt.isdigit() or nxt == "-"):
                    tokens.append(("DUAL", chunk, line, col))
                    col += len(chunk) + 1
                    pos = end + 1
                    continue
            tokens.append(("IDENT", chunk, line, col))
        elif kind == "deriv":
            tokens.append(("DERIV", chunk, line, col))
        elif kind == "int":
            tokens.append(("INT", chunk, line, col))
        elif kind == "arrow":
            tokens.append(("SYM", "->", line, col))
        else:
            tokens.append(("SYM", chunk, line, col))
        col += len(chunk)
        pos = m.end()
    tokens.append(("EOF", "", line, col))
    return tokens


# -- matched-pair equations, one loop per equation -----------------------------------


def matched_equations_by_factor(m):
    """The three compatibility equations of `matched.verify_matched`, each
    spelled out for its own factor: a MatchedVerification with the first
    failing equation's number, indices (acting index first) and residual.
    Flatness of the actions is not checked here."""
    from algebroid.core import Section, vector_field_bracket
    from algebroid.matched import MatchedVerification, MatchedWitness

    def act12(i, section2):
        return Section(m.l2, m.action12.apply_basis(i, list(section2.coefficients)))

    def act21(j, section1):
        return Section(m.l1, m.action21.apply_basis(j, list(section1.coefficients)))

    def act12_along(direction1, section2):
        return Section(m.l2, m.action12.apply_section(direction1,
                                                      list(section2.coefficients)))

    def act21_along(direction2, section1):
        return Section(m.l1, m.action21.apply_section(direction2,
                                                      list(section1.coefficients)))

    base = m.l1.base
    n1, n2 = m.l1.rank, m.l2.rank
    nder = len(base.derivation_names)
    for i in range(n1):
        for j in range(n2):
            lhs = vector_field_bracket(base, m.l1.anchor[i], m.l2.anchor[j])
            t21 = m.l1.anchor_derivation(act21(j, m.l1.basis_section(i)))
            t12 = m.l2.anchor_derivation(act12(i, m.l2.basis_section(j)))
            residual = [lhs[d] + t21[d] - t12[d] for d in range(nder)]
            if any(not x.is_zero() for x in residual):
                return MatchedVerification(False, MatchedWitness(
                    1, (i, j), tuple(residual)))
    for i in range(n1):
        for j, k in combinations(range(n2), 2):
            u1 = m.l1.basis_section(i)
            u2, v2 = m.l2.basis_section(j), m.l2.basis_section(k)
            lhs = act12_along(u1, m.l2.bracket(u2, v2))
            rhs = (m.l2.bracket(act12(i, u2), v2)
                   + m.l2.bracket(u2, act12(i, v2))
                   + act12_along(act21(k, u1), u2)
                   - act12_along(act21(j, u1), v2))
            residual = lhs - rhs
            if not residual.is_zero():
                return MatchedVerification(False, MatchedWitness(
                    2, (i, j, k), residual))
    for j in range(n2):
        for i, k in combinations(range(n1), 2):
            u2 = m.l2.basis_section(j)
            u1, v1 = m.l1.basis_section(i), m.l1.basis_section(k)
            lhs = act21_along(u2, m.l1.bracket(u1, v1))
            rhs = (m.l1.bracket(act21(j, u1), v1)
                   + m.l1.bracket(u1, act21(j, v1))
                   + act21_along(act12(k, u2), u1)
                   - act21_along(act12(i, u2), v1))
            residual = lhs - rhs
            if not residual.is_zero():
                return MatchedVerification(False, MatchedWitness(
                    3, (j, i, k), residual))
    return MatchedVerification(True)


# -- the overlap conditions of a Lambda-module, entry by entry ------------------------


def lambda_overlap_failures(cover, pair, bunch):
    """The overlap failures of `cech.verify_lambda_module`: on every
    overlap and reference direction, the connection difference
    A_a - g (a(g^-1) + B g^-1) against phi * id, summed entry by entry."""
    failures = []
    r = bunch.rank
    for (a, b), ov in sorted(cover.overlaps.items()):
        frame = cover.frame_algebroid(a, b)
        g = ov.bundle if ov.bundle is not None else tuple(
            tuple(ov.ring.one if i == j else ov.ring.zero for j in range(r))
            for i in range(r))
        ginv = ov.bundle_inverse if ov.bundle_inverse is not None else g
        conn_a = bunch.connections[a]
        conn_b = bunch.connections[b]
        phi = pair.phi[(a, b)]
        for jdir in range(frame.rank):
            a_mat = [[ov.map_a(conn_a.matrices[jdir][s][t])
                      for t in range(r)] for s in range(r)]
            b_dir = [[ov.ring.zero] * r for _ in range(r)]
            for i in range(frame.rank):
                coeff = ov.transition_inverse[i][jdir]
                if coeff.is_zero():
                    continue
                for s in range(r):
                    for t in range(r):
                        b_dir[s][t] = b_dir[s][t] + coeff * ov.map_b(
                            conn_b.matrices[i][s][t])
            direction = frame.basis_section(jdir)
            gauged = [[ov.ring.zero] * r for _ in range(r)]
            for s in range(r):
                for t in range(r):
                    val = ov.ring.zero
                    for u in range(r):
                        val = val + g[s][u] * frame.anchor_apply(
                            direction, ginv[u][t])
                        for w in range(r):
                            val = val + g[s][u] * b_dir[u][w] * ginv[w][t]
                    gauged[s][t] = val
            phival = phi.component((jdir,))
            for s in range(r):
                for t in range(r):
                    want = phival if s == t else ov.ring.zero
                    got = a_mat[s][t] - gauged[s][t]
                    if got != want:
                        failures.append(
                            "overlap (%d,%d): connection difference in "
                            "direction %d entry (%d,%d) is %s, expected %s"
                            % (a, b, jdir + 1, s, t, got, want))
    return failures


# -- the relations of a twisted enveloping algebra, written out ----------------------


def relation_rules(alg, twist):
    """The rule lines of `adf relations`: e_i*x -> x*e_i + (a(e_i)(x)) for
    each variable x, then e_j*e_i -> e_i*e_j + [e_j, e_i] + (Q(e_j, e_i))
    for j > i, zero terms left out."""
    names = alg.basis_names
    rules = []
    for v in alg.base.variables:
        for i in range(alg.rank):
            action = alg.anchor_apply(alg.basis_section(i), alg.base.var(v))
            rules.append("%s*%s -> %s*%s%s" % (
                names[i], v, v, names[i],
                "" if action.is_zero() else " + (%s)" % action))
    for j in range(alg.rank):
        for i in range(j):
            extra = ["(%s)*%s" % (c, names[k])
                     for k, c in enumerate(alg.structure_coefficients(j, i))
                     if not c.is_zero()]
            q = twist.component((j, i))
            if not q.is_zero():
                extra.append("(%s)" % q)
            rules.append("%s*%s -> %s*%s%s" % (
                names[j], names[i], names[i], names[j],
                (" + " + " + ".join(extra)) if extra else ""))
    return rules


def pbw_sum(system, parts):
    """The sum of elements of one system, one `+` at a time."""
    from algebroid.pbw import PbwElement

    total = PbwElement(system, {})
    for p in parts:
        total = total + p
    return total


def naive_product(x, y):
    """x * y of two elements of one system, each pair of terms reduced by
    `naive_normal_form`."""
    system = x.system
    return pbw_sum(system, [
        naive_normal_form((c1,) + w1 + (c2,) + w2, system)
        for w1, c1 in x.terms.items() for w2, c2 in y.terms.items()])


def image_of_raw(gmap, items):
    """The product, in the target of the `pbw.GeneratorMap` gmap, of the
    images of a raw word's items: generator indices and coefficients."""
    target = gmap.target
    acc = target.one()
    for it in items:
        acc = acc * (gmap.image_of_generator(it) if isinstance(it, int)
                     else target.scalar(it))
    return acc


def preserves_normal_forms(gmap, words):
    """Whether reducing each raw word in the source and then mapping it
    agrees with mapping its items and multiplying in the target: the
    normal-form reference for `GeneratorMap.broken_relations`."""
    from algebroid.pbw import normal_form

    return all((gmap(normal_form(items, gmap.source))
                - image_of_raw(gmap, items)).is_zero() for items in words)


def _overlap_twists(cover, pair, a, b):
    """Q_a and Q_b on the overlap (a, b) in its reference frame; Q_b is
    moved from the second chart's frame f by (S^* Q)(e_j1, e_j2) = sum over
    k < l of Q_kl (S_kj1 S_lj2 - S_lj1 S_kj2), S the inverse transition."""
    from algebroid.forms import LForm

    ov = cover.overlaps[(a, b)]
    frame = cover.frame_algebroid(a, b)
    s = ov.transition_inverse
    qa = LForm(frame, 2, {idx: ov.map_a(v) for idx, v in pair.q[a].coeffs.items()})
    qb = {}
    for (j1, j2) in combinations(range(frame.rank), 2):
        val = ov.ring.zero
        for (k, l), v in pair.q[b].coeffs.items():
            val = val + ov.map_b(v) * (s[k][j1] * s[l][j2] - s[l][j1] * s[k][j2])
        qb[(j1, j2)] = val
    return qa, LForm(frame, 2, qb)


def glue_relation_failures(cover, pair):
    """The relation failures of `cech.glue_sridharan`: on each overlap,
    the images g(e_i) = e_i + phi(e_i) in the target system of Q_b must
    satisfy [g(e_j), g(e_i)] = g([e_j, e_i] + Q_a(e_j, e_i)) for i < j and
    [g(e_i), x] = a(e_i)(x) for each variable x."""
    from algebroid.pbw import PbwElement, RelationSystem

    failures = []
    for (a, b) in sorted(cover.overlaps):
        frame = cover.frame_algebroid(a, b)
        ring = frame.base
        qa, qb = _overlap_twists(cover, pair, a, b)
        target = RelationSystem(frame, qb)
        phi = pair.phi[(a, b)]
        g = [PbwElement(target, {(i,): ring.one, (): phi.component((i,))})
             for i in range(frame.rank)]

        def commutator(x, y):
            return naive_product(x, y) - naive_product(y, x)

        for i, j in combinations(range(frame.rank), 2):
            rhs = PbwElement(target, {(): qa.component((j, i))})
            for k, c in enumerate(frame.structure_coefficients(j, i)):
                if not c.is_zero():
                    rhs = rhs + PbwElement(target, {(): c * phi.component((k,)),
                                                    (k,): c})
            if not (commutator(g[j], g[i]) - rhs).is_zero():
                failures.append(
                    "overlap (%d,%d): commutator of images of e%d,e%d "
                    "does not match the glued relation" % (a, b, j + 1, i + 1))
        for i in range(frame.rank):
            for v in ring.variables:
                x = PbwElement(target, {(): ring.var(v)})
                anchored = frame.anchor_apply(frame.basis_section(i), ring.var(v))
                if not (commutator(g[i], x)
                        - PbwElement(target, {(): anchored})).is_zero():
                    failures.append(
                        "overlap (%d,%d): coefficient relation broken at e%d,%s"
                        % (a, b, i + 1, v))
    return failures
