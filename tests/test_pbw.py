import contextlib
import io
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from algebroid.cli import run
from algebroid.core import (Algebroid, StructureError, make_foliation,
                            make_lie_algebra_bundle, make_log, make_poisson,
                            make_tangent, make_trivial_bundle,
                            AlgebroidMorphism)
from algebroid.forms import LForm, d_L, pullback
from algebroid.pbw import (AbelianExtension, GeneratorMap, PbwElement,
                           RelationSystem, build_relations,
                           cocycle_from_extension, confluence_check,
                           extension_from_cocycle, gr_symbol, normal_form,
                           pushforward_algebra_map)
from algebroid.parser import Definitions, parse_word, render
from algebroid.rings import ChartRing, RingError, laurent_ring, poly_ring

from oracles import (is_normal_coefficient, naive_confluence_check,
                     naive_normal_form, naive_product, preserves_normal_forms,
                     relation_rules, rewrite_at, whole_word_normal_form)

HEISENBERG = {(0, 1): {2: 1}}
BAD_RANK3 = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}
SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}   # h, e, f basis


def weyl(nvars=2):
    t = make_tangent(poly_ring(*("xyzw"[:nvars])))
    return build_relations(t)


def test_weyl_commutation():
    w = weyl()
    r = w.ring
    got = normal_form([0, r.var("x")], w)
    assert got.terms == {(0,): r.var("x"), (): r.one}
    # independent variable commutes
    got2 = normal_form([0, r.var("y")], w)
    assert got2.terms == {(0,): r.var("y")}


def test_enveloping_algebra_relations():
    # zero anchor, zero twist: ordered products pick up the bracket
    r = poly_ring("x")
    heis = make_lie_algebra_bundle(r, 3, HEISENBERG)
    u = build_relations(heis)
    got = normal_form([1, 0], u)            # e2 e1 = e1 e2 - e3
    assert got.terms == {(0, 1): r.one, (2,): -r.one}
    # coefficients commute past generators (anchor is zero)
    got2 = normal_form([0, r.var("x")], u)
    assert got2.terms == {(0,): r.var("x")}


def test_abelian_constant_twist():
    r = poly_ring("x")
    a = make_trivial_bundle(r, 2)
    q = LForm(a, 2, {(0, 1): r.const(7)})
    s = build_relations(a, q)
    got = normal_form([1, 0], s)
    assert got.terms == {(0, 1): r.one, (): r.const(-7)}


def test_already_ascending_word_unchanged():
    w = weyl()
    got = normal_form([0, 0, 1], w)
    assert got.terms == {(0, 0, 1): w.ring.one}


def test_monopole_relations_paper_values():
    # [x^i, d_j] = delta^i_j and [d_i, d_j] = Q_ij on the twisted Weyl algebra
    r = poly_ring("x", "y", "z")
    t = make_tangent(r)
    qvals = {(0, 1): r.const(3), (0, 2): r.var("x"), (1, 2): r.const(-2)}
    q = LForm(t, 2, qvals)
    assert d_L(q).is_zero()
    s = build_relations(t, q)
    for i, vname in enumerate(("x", "y", "z")):
        for j in range(3):
            xi = r.var(vname)
            # x^i e_j - e_j x^i = -delta^i_j  i.e. [x^i, d_j] acts as -d_j(x^i)
            lhs = normal_form([xi, j], s) - normal_form([j, xi], s)
            expected = s.scalar(-1 if i == j else 0)
            assert (lhs - expected).is_zero()
    for i, j in combinations(range(3), 2):
        comm = normal_form([i, j], s) - normal_form([j, i], s)
        assert comm.terms == {(): qvals[(i, j)]}


def test_monopole_confluent():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    s = build_relations(t, LForm(t, 2, {(0, 1): r.const(5)}))
    assert confluence_check(s) is None


def test_unclosed_twist_breaks_confluence_with_unit_difference():
    r = poly_ring("x", "y", "z")
    t = make_tangent(r)
    s = RelationSystem(t, LForm(t, 2, {(1, 2): r.var("x")}))
    rep = confluence_check(s)
    assert rep is not None
    assert rep.word == (2, 1, 0)
    assert rep.difference.terms == {(): -r.one}


def test_jacobi_failure_matches_jacobiator():
    r = poly_ring("x")
    bad = make_lie_algebra_bundle(r, 3, BAD_RANK3)
    s = RelationSystem(bad)
    rep = confluence_check(s)
    assert rep is not None
    assert rep.difference.terms == {(2,): r.const(-2)}
    res = bad.verify().witness.residual
    assert res.coefficients[2] == -2


def test_build_relations_rejects_unclosed_twist():
    r = poly_ring("x", "y", "z")
    t = make_tangent(r)
    with pytest.raises(StructureError):
        build_relations(t, LForm(t, 2, {(1, 2): r.var("x")}))


def random_normal_form(items, system, rng):
    """Reduce with a random redex choice; agreement with the fixed
    strategy is the operational meaning of confluence."""
    from algebroid.rings import RingElement
    ring = system.ring
    result = {}
    stack = [(tuple(items), ring.one)]
    while stack:
        word, coeff = stack.pop()
        if coeff.is_zero():
            continue
        redexes = []
        if word and isinstance(word[0], RingElement):
            redexes.append((0, "fold"))
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            ag, bg = isinstance(a, int), isinstance(b, int)
            if not ag and not bg:
                redexes.append((t, "merge"))
            elif ag and not bg:
                redexes.append((t, "gf"))
            elif ag and bg and a > b:
                redexes.append((t, "gg"))
        if not redexes:
            key = tuple(word)
            cur = result.get(key)
            result[key] = coeff if cur is None else cur + coeff
            continue
        t, kind = redexes[rng.randrange(len(redexes))]
        if kind == "fold":
            stack.append((word[1:], coeff * word[0]))
            continue
        for replacement in rewrite_at(system, word, t, kind):
            stack.append((replacement, coeff))
    return PbwElement(system, result)


def random_valid_system(rng):
    """A confluent (L, Q): either a twisted Weyl system on the plane or a
    known Lie algebra bundle with a constant closed twist."""
    if rng.random() < 0.5:
        r = poly_ring("x", "y")
        t = make_tangent(r)
        # every 2-form on the rank-2 plane is closed
        q = LForm(t, 2, {(0, 1): r.monomial((rng.randint(0, 1), 0),
                                            rng.randint(-3, 3))})
        return build_relations(t, q)
    r = poly_ring("x")
    pick = rng.choice([{}, HEISENBERG, SL2])
    l = make_lie_algebra_bundle(r, 3, pick)
    q = LForm(l, 2, {idx: r.const(rng.randint(-2, 2))
                     for idx in combinations(range(3), 2)})
    if not d_L(q).is_zero():
        q = LForm(l, 2, {})
    return build_relations(l, q)


def test_strategy_independence_when_confluent():
    rng = random.Random(41)
    for _ in range(20):
        s = random_valid_system(rng)
        assert confluence_check(s) is None
        r = s.ring
        n = s.algebroid.rank
        for _ in range(3):
            items = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.7:
                    items.append(rng.randrange(n))
                else:
                    exps = tuple(rng.randint(0, 2) for _ in r.variables)
                    items.append(r.monomial(exps, rng.randint(-3, 3)))
            fixed = normal_form(items, s)
            for _ in range(2):
                assert (random_normal_form(items, s, rng) - fixed).is_zero()


def _random_items(rng, system, length):
    """Generators mixed with non-constant, constant and zero coefficients."""
    r = system.ring
    items = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.65:
            items.append(rng.randrange(system.algebroid.rank))
        elif roll < 0.8:
            exps = tuple(rng.randint(-2 if v in r.laurent else 0, 2)
                         for v in r.variables)
            items.append(r.monomial(exps, rng.randint(1, 3)) + rng.randint(-2, 2))
        elif roll < 0.92:
            items.append(r.const(rng.choice([-2, 1, 3])))
        else:
            items.append(r.zero)
    return items


def structure_function_systems():
    """Systems whose brackets have non-constant coefficients: a valid
    rank-2 one ([e1, e2] = x e2, e2 anchored to zero) with a twist, and a
    rank-3 one that breaks Jacobi."""
    r = poly_ring("x", "y")
    x, y = r.var("x"), r.var("y")
    valid = Algebroid(r, 2, [[1, 0], [0, 0]], {(0, 1): [0, x]})
    broken = Algebroid(r, 3, [[1, 0], [0, 0], [0, y]],
                       {(0, 1): [0, x, Fraction(1, 2)], (1, 2): [y, 0, 0]})
    return [build_relations(valid, LForm(valid, 2, {(0, 1): x * y + 2})),
            RelationSystem(broken, LForm(broken, 2, {(0, 2): x - 1}))]


def laurent_twist_system():
    """The plane with x inverted and the non-constant twist x^-1 + 3y, so
    that x and x^-1 in one word multiply to a constant."""
    r = laurent_ring("x", "y")
    t = make_tangent(r)
    return build_relations(t, LForm(t, 2, {(0, 1): r.var("x") ** -1
                                           + 3 * r.var("y")}))


def broken_systems():
    """A Lie algebra bundle that breaks Jacobi, and the R^3 tangent
    algebroid with an unclosed twist."""
    r3 = poly_ring("x", "y", "z")
    t3 = make_tangent(r3)
    return [RelationSystem(make_lie_algebra_bundle(poly_ring("x"), 3,
                                                   BAD_RANK3)),
            RelationSystem(t3, LForm(t3, 2, {(1, 2): r3.var("x")}))]


def fractional_twist_systems():
    """The plane with the constant twist c = 3/2, and with a non-constant
    twist whose coefficients are fractions."""
    r = poly_ring("x", "y")
    t = make_tangent(r)
    return [build_relations(t, LForm(t, 2, {(0, 1): r.const(Fraction(3, 2))})),
            build_relations(t, LForm(t, 2, {(0, 1): Fraction(2, 3) * r.var("x")
                                            + Fraction(3, 2)}))]


def assert_reduced(p):
    """Every word of p is an ascending generator word and every
    coefficient a nonzero element of the system's ring whose coefficients
    are in normal form: what the unchecked element constructor assumes."""
    rank, ring = p.system.algebroid.rank, p.system.ring
    for word, coeff in p.terms.items():
        assert all(0 <= i < rank for i in word)
        assert list(word) == sorted(word)
        assert coeff.ring is ring and coeff.terms
        assert all(is_normal_coefficient(c) for c in coeff.terms.values())


def test_memoised_normal_form_matches_naive_randomized():
    rng = random.Random(53)
    broken = broken_systems()
    systems = [random_valid_system(rng) for _ in range(12)] + broken
    systems += structure_function_systems() + [laurent_twist_system()]
    systems += fractional_twist_systems()
    for s in systems:
        r = s.ring
        x, top = r.var("x"), s.algebroid.rank - 1
        # constants and zeros between generators, and a coefficient that
        # meets its inverse
        words = [[top, Fraction(3, 2), 0, r.const(-2), top],
                 [top, 0, r.zero, top], [Fraction(-1, 3), top, 0, r.const(5)]]
        if "x" in r.laurent:
            words += [[top, x, 0, x ** -1, top],
                      [x ** -1, top, r.const(2), x, 0]]
        for items in words:
            got = normal_form(items, s)
            assert_reduced(got)
            assert got.terms == naive_normal_form(items, s).terms
        for _ in range(10):
            items = _random_items(rng, s, rng.randint(1, 8))
            got = normal_form(items, s)
            assert_reduced(got)
            assert got.terms == naive_normal_form(items, s).terms
        before = naive_confluence_check(s)
        after = confluence_check(s)
        if before is None:
            assert after is None
        else:
            word, left, right = before
            assert_reduced(after.normal_form_left)
            assert_reduced(after.normal_form_right)
            assert after.word == word
            assert after.normal_form_left.terms == left.terms
            assert after.normal_form_right.terms == right.terms
            assert after.difference.terms == (right - left).terms
    assert all(confluence_check(s) is not None for s in broken)
    assert confluence_check(structure_function_systems()[0]) is None
    assert confluence_check(laurent_twist_system()) is None


def _random_word_text(rng, system, factors):
    """A product of generator powers and scalar factors as text, with its
    items flattened: e.g. e3^2*x*e1*(3/2)*e2."""
    r = system.ring
    x = r.var("x")
    scalars = [("x", x), ("(3/2)", Fraction(3, 2)), ("(-2)", r.const(-2)),
               ("(1 - x)", 1 - x), ("(x^2 - 1/3)", x ** 2 - Fraction(1, 3))]
    if "x" in r.laurent:
        scalars.append(("x^-1", x ** -1))
    names = system.algebroid.basis_names
    text, items = [], []
    for _ in range(factors):
        if rng.random() < 0.6:
            i, k = rng.randrange(len(names)), rng.randint(1, 2)
            text.append(names[i] if k == 1 else "%s^%d" % (names[i], k))
            items += [i] * k
        else:
            name, value = rng.choice(scalars)
            text.append(name)
            items.append(value)
    return "*".join(text), items


def test_parsed_products_match_naive_randomized():
    # each summand of a parsed word is one raw word: its factors'
    # letters and scalars go to one normal_form call
    rng = random.Random(59)
    systems = (broken_systems() + fractional_twist_systems()
               + structure_function_systems() + [laurent_twist_system()])
    for s in systems:
        for _ in range(6):
            text, items = _random_word_text(rng, s, rng.randint(2, 6))
            got = parse_word(text, s)
            assert_reduced(got)
            assert got.terms == naive_normal_form(items, s).terms, text
    s = broken_systems()[1]
    x = s.ring.var("x")
    got = parse_word("d/dz^2*x*d/dx*(3/2)*d/dy", s)
    assert got.terms == naive_normal_form(
        [2, 2, x, 0, Fraction(3, 2), 1], s).terms


def so3_relations(lam=1):
    """so(3) as the linear Poisson algebroid on Q[x, y, z], its anchor and
    bracket scaled by lam."""
    r = poly_ring("x", "y", "z")
    x, y, z = (lam * r.var(v) for v in "xyz")
    return build_relations(Algebroid(
        r, 3, [[0, z, -y], [-z, 0, x], [y, -x, 0]],
        {(0, 1): [0, 0, lam], (1, 2): [lam, 0, 0], (0, 2): [0, -lam, 0]}))


# the so(3) words of the pbw-words bench: the blocks e_a^3 e_b^3 e_c^3 and
# the three alternating words
SO3_BENCH_WORDS = ["e3^3*e2^3*e1^3", "e3^3*e1^3*e2^3", "e2^3*e3^3*e1^3",
                   "e2^3*e1^3*e3^3", "e1^3*e3^3*e2^3", "e1^3*e2^3*e3^3",
                   "e1*e2*e3*e1*e2*e3*e1*e2*e3", "e2*e3*e1*e2*e3*e1*e2*e3*e1",
                   "e3*e1*e2*e3*e1*e2*e3*e1*e2"]


@pytest.mark.parametrize("lam", [1, Fraction(-3, 2)])
def test_so3_bench_words_match_whole_word_reduction(lam):
    s = so3_relations(lam)
    for text in SO3_BENCH_WORDS:
        items = []
        for factor in text.split("*"):
            gen, _, power = factor.partition("^")
            items += [int(gen[1:]) - 1] * int(power or 1)
        got = normal_form(items, s)
        assert_reduced(got)
        assert got.terms == whole_word_normal_form(items, s).terms, text
        assert parse_word(text, s).terms == got.terms
    assert len(normal_form([2] * 3 + [1] * 3 + [0] * 3, s).terms) == 33


def test_broken_systems_match_naive_on_seeded_words():
    # no confluence gate: a broken system keeps the answer of the fixed
    # leftmost-innermost strategy
    rng = random.Random(61)
    for s in broken_systems() + [structure_function_systems()[1]]:
        for _ in range(12):
            items = _random_items(rng, s, rng.randint(1, 10))
            got = normal_form(items, s)
            assert_reduced(got)
            assert got.terms == naive_normal_form(items, s).terms
            assert got.terms == whole_word_normal_form(items, s).terms


def test_products_match_naive_randomized():
    # PbwElement.__mul__ multiplies the left element's flat terms on the
    # right by each term of the other
    rng = random.Random(67)
    systems = (broken_systems() + fractional_twist_systems()
               + structure_function_systems() + [laurent_twist_system()])
    for s in systems:
        for _ in range(4):
            x, y = (normal_form(_random_items(rng, s, rng.randint(0, 4)), s)
                    for _ in range(2))
            got = x * y
            assert_reduced(got)
            assert got.terms == naive_product(x, y).terms


def test_memo_keys_hold_no_constant_coefficients():
    # so(3) brackets are constants: they ride on rewrite edges, never in
    # a word, so every coefficient a memo key holds is non-constant
    s = so3_relations()
    x, y = s.ring.var("x"), s.ring.var("y")
    got = normal_form([2] * 3 + [1] * 3 + [0] * 3, s)
    assert len(got.terms) == 33
    # a key is (exponent vector of an ascending word, item), the item a
    # generator index (>= 0) or a coefficient code (< 0); a word of
    # generators alone keys generators alone
    assert s._products and all(a >= 0 for _, a in s._products)
    # a coefficient in the word is coded; the constants its rewrites
    # yield are not
    normal_form([2, 1, x * y, 0, 2], s)
    coded = {a for _, a in s._products if a < 0}
    assert coded
    assert not any(s._coefficients[~a].is_constant() for a in coded)


def test_reduction_budget_refuses_a_word_and_keeps_the_memo_whole(monkeypatch):
    # one reduction may add MAX_REDUCTION_TERMS memo terms; past them it
    # stops with InputError, and the entries it did add are whole, so the
    # next words reduce as on a fresh system.  Each entry of e2^n e1^n
    # here holds two terms
    from algebroid import pbw
    from algebroid.core import InputError

    def twisted_weyl():
        t = make_tangent(poly_ring("x", "y"))
        return RelationSystem(t, LForm(t, 2, {(0, 1): t.base.const(-5)}))

    fresh = twisted_weyl()
    expected = [str(normal_form([1] * n + [0] * n, fresh)) for n in (6, 9)]
    assert len(fresh._products) == 81
    assert fresh._terms == sum(map(len, fresh._products.values())) == 162
    monkeypatch.setattr(pbw, "MAX_REDUCTION_TERMS", 100)
    s = twisted_weyl()
    normal_form([1] * 7 + [0] * 7, s)
    assert len(s._products) == 49 and s._terms == 98
    with pytest.raises(InputError, match="more than 100 product terms"):
        normal_form([1] * 12 + [0] * 12, s)
    assert [str(normal_form([1] * n + [0] * n, s)) for n in (6, 9)] == expected


def test_small_memo_limit_gives_the_same_answers(monkeypatch):
    # the memo is emptied between reductions once it holds more than
    # _MEMO_LIMIT terms; its codes and rules go with it, so a session
    # answers alike under any limit
    from algebroid import pbw

    def session():
        rng = random.Random(71)
        answers = []
        for s in (broken_systems() + structure_function_systems()
                  + [laurent_twist_system()]):
            for _ in range(8):
                p = normal_form(_random_items(rng, s, rng.randint(1, 8)), s)
                answers.append({w: str(c) for w, c in p.terms.items()})
            answers.append(str(confluence_check(s)))
        return answers

    expected = session()
    monkeypatch.setattr(pbw, "_MEMO_LIMIT", 3)
    assert session() == expected
    s = structure_function_systems()[1]
    normal_form([2, 1, s.ring.var("x"), 0, 2, 1], s)
    assert s._terms > 3 and s._coefficients and s._rules is not None
    s._bound_memo()
    assert (s._products, s._terms, s._coefficients, s._codes, s._rules) \
        == ({}, 0, [], {}, None)


def test_weyl_closed_form():
    # e2^n e1^n with e2 e1 = e1 e2 - c: sum_k (-c)^k k! C(n,k)^2 e1^(n-k) e2^(n-k)
    r = poly_ring("x", "y")
    t = make_tangent(r)
    c = Fraction(3, 2)
    s = build_relations(t, LForm(t, 2, {(0, 1): r.const(c)}))
    for n in list(range(13)) + [32, 48]:
        got = normal_form([1] * n + [0] * n, s)
        assert got.terms == {
            (0,) * (n - k) + (1,) * (n - k):
                r.const((-c) ** k * factorial(k) * comb(n, k) ** 2)
            for k in range(n + 1)}


def test_long_word_reduces_without_recursion():
    w = weyl()
    r = w.ring
    n = sys.getrecursionlimit() + 100
    got = normal_form([0] * n + [r.var("x")], w)
    assert got.terms == {(0,) * n: r.var("x"), (0,) * (n - 1): r.const(n)}


def test_confluence_iff_axioms_randomized():
    rng = random.Random(43)
    r = poly_ring("x")
    known_good = [
        {},                                           # abelian
        HEISENBERG,
        SL2,
        {(0, 1): {2: 1}, (0, 2): {1: -1}},            # e(2)-like
    ]
    cases = 0
    confluent_seen = broken_seen = 0
    while cases < 20:
        if rng.random() < 0.5:
            scale = rng.choice([1, 2, -1])
            pick = rng.choice(known_good)
            constants = {ij: {k: scale * v for k, v in comp.items()}
                         for ij, comp in pick.items()}
        else:
            constants = {}
            for i, j in combinations(range(3), 2):
                comp = {}
                for k in range(3):
                    if rng.random() < 0.4:
                        comp[k] = rng.randint(-2, 2)
                constants[(i, j)] = comp
        l = make_lie_algebra_bundle(r, 3, constants)
        q = LForm(l, 2, {idx: r.const(rng.randint(-2, 2))
                         for idx in combinations(range(3), 2)})
        s = RelationSystem(l, q)
        jaco = l.verify().verified
        closed = d_L(q).is_zero() if jaco else None
        conf = confluence_check(s) is None
        if jaco:
            assert conf == closed
        else:
            assert not conf
        cases += 1
        confluent_seen += conf
        broken_seen += not conf
    assert confluent_seen and broken_seen


def test_gr_symbol_examples():
    w = weyl()
    r = w.ring
    el = normal_form([0, r.var("x")], w)          # x e1 + 1
    assert gr_symbol(el).terms == {(0,): r.var("x")}
    prod = normal_form([1, 0], w)                  # e1 e2 (tangent, Q=0)
    assert gr_symbol(prod).terms == {(0, 1): r.one}


def test_gr_symbol_multiplicative_randomized():
    rng = random.Random(47)
    r = poly_ring("x", "y")
    t = make_tangent(r)
    s = build_relations(t, LForm(t, 2, {(0, 1): r.const(2)}))
    for _ in range(10):
        def rand_el():
            items = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.75:
                    items.append(rng.randrange(2))
                else:
                    items.append(r.monomial((rng.randint(0, 1), 0),
                                            rng.randint(1, 3)))
            return normal_form(items, s)
        a, b = rand_el(), rand_el()
        assert gr_symbol(a * b) == gr_symbol(a) * gr_symbol(b)


def test_pbw_monomial_counts_match_sym():
    # ascending words in n generators of length d biject with Sym monomials
    w = weyl(3)
    for d in range(5):
        words = {tuple(sorted(word))
                 for word in _ascending_words(3, d)}
        assert len(words) == comb(3 + d - 1, d)


def _ascending_words(n, d):
    if d == 0:
        yield ()
        return
    for word in _ascending_words(n, d - 1):
        start = word[-1] if word else 0
        for k in range(start, n):
            yield word + (k,)


def test_extension_round_trip():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    q = LForm(t, 2, {(0, 1): r.var("x")})
    ext = extension_from_cocycle(t, q)
    assert ext.total.verify().verified
    back = cocycle_from_extension(ext.total, base=t)
    assert back == q


def test_extension_trivial_cocycle():
    r = poly_ring("x")
    heis = make_lie_algebra_bundle(r, 3, HEISENBERG)
    ext = extension_from_cocycle(heis, LForm(heis, 2, {}))
    assert ext.total.verify().verified
    # direct sum brackets: central generator never appears
    for (i, j), comps in ext.total.structure.items():
        assert comps[0].is_zero()


def test_extension_unclosed_cocycle_fails_axioms():
    r = poly_ring("x", "y", "z")
    t = make_tangent(r)
    q = LForm(t, 2, {(1, 2): r.var("x")})
    ext = extension_from_cocycle(t, q)
    v = ext.total.verify()
    assert not v.verified and v.witness.kind == "jacobi-failure"


def test_splitting_change_is_exact():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    q = LForm(t, 2, {(0, 1): r.var("y") ** 2})
    ext = extension_from_cocycle(t, q)
    psi = LForm(t, 1, {(0,): r.var("x") * r.var("y"), (1,): r.var("x")})
    q1 = cocycle_from_extension(ext.total, base=t)
    q2 = cocycle_from_extension(ext.total, base=t, splitting=psi)
    assert (q2 - q1) == d_L(psi)


def test_cocycle_extraction_rejects_malformed():
    r = poly_ring("x")
    heis = make_lie_algebra_bundle(r, 3, HEISENBERG)   # center is index 2
    with pytest.raises(StructureError):
        cocycle_from_extension(heis)


def test_pushforward_embeds_weyl_line():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    fol = make_foliation(r, [[1, 0]])
    incl = AlgebroidMorphism(fol, t, [t.basis_section(0)])
    target = build_relations(t)
    f = pushforward_algebra_map(incl, target)
    assert f.source.twist.is_zero()
    words = [[0], [0, 0], [0, r.var("x")], [r.var("x"), 0, r.var("y"), 0]]
    assert preserves_normal_forms(f, words)
    image = f(normal_form([0, r.var("x")], f.source))
    assert image.terms == {(0,): r.var("x"), (): r.one}


def test_pushforward_identity_and_zero():
    r = poly_ring("x")
    t = make_tangent(r)
    target = build_relations(t)
    ident = pushforward_algebra_map(AlgebroidMorphism.identity(t), target)
    el = normal_form([0, r.var("x"), 0], ident.source)
    assert (ident(el) - el_as(target, el)).is_zero()

    from algebroid.core import Algebroid
    zero = Algebroid(r, 0, [], {}, basis_names=())
    incl = AlgebroidMorphism(zero, t, [])
    f = pushforward_algebra_map(incl, target)
    scalar = f.source.scalar(r.var("x") + 2)
    assert f(scalar).terms == {(): r.var("x") + 2}


def el_as(system, el):
    return PbwElement(system, dict(el.terms))


def test_pullback_twist_checked():
    r = poly_ring("x", "y")
    t = make_tangent(r)
    q = LForm(t, 2, {(0, 1): r.one})
    target = build_relations(t, q)
    fol = make_foliation(r, [[1, 0]])
    incl = AlgebroidMorphism(fol, t, [t.basis_section(0)])
    f = pushforward_algebra_map(incl, target)
    # rank-1 source: the pullback of any 2-form vanishes
    assert f.source.twist.is_zero()
    assert pullback(q, fol, incl.images).is_zero()


def raw_words(system, length=3):
    """Every raw word of at most `length` items over the generators and
    the variables of the system's ring."""
    items = list(range(system.algebroid.rank)) + [
        system.ring.var(v) for v in system.ring.variables]
    words = [[]]
    for _ in range(length):
        words += [w + [it] for w in words if len(w) == len(words[-1])
                  for it in items]
    return words[1:]


def pushforward_cases():
    """The pushforward maps of the tests above: the foliation line into
    the plain and the twisted Weyl plane, the identity of the Weyl line,
    and the zero algebroid into it."""
    r = poly_ring("x", "y")
    t = make_tangent(r)
    incl = AlgebroidMorphism(make_foliation(r, [[1, 0]]), t, [t.basis_section(0)])
    yield pushforward_algebra_map(incl, build_relations(t))
    yield pushforward_algebra_map(
        incl, build_relations(t, LForm(t, 2, {(0, 1): r.one})))
    line = make_tangent(poly_ring("x"))
    target = build_relations(line)
    yield pushforward_algebra_map(AlgebroidMorphism.identity(line), target)
    zero = Algebroid(line.base, 0, [], {}, basis_names=())
    yield pushforward_algebra_map(AlgebroidMorphism(zero, line, []), target)


def test_pushforwards_preserve_relations_and_normal_forms():
    for f in pushforward_cases():
        assert f.broken_relations() == []
        assert preserves_normal_forms(f, raw_words(f.source))


def test_generator_rules_that_are_no_morphism_fail_both_checks():
    s = so3_relations()
    e1, e2, e3 = (s.generator(i) for i in range(3))
    words = raw_words(s, 2)
    ident = GeneratorMap(s, s, [e1, e2, e3])
    assert ident.broken_relations() == [] and preserves_normal_forms(ident, words)
    scaled = GeneratorMap(s, s, [e1.scale(2), e2, e3])
    swapped = GeneratorMap(s, s, [e2, e1, e3])
    # [2 e1, e2] = 2 e3 and [e2, e1] = -e3, against the images e3 of [e1, e2]
    assert (1, 0) in scaled.broken_relations()
    assert (1, 0) in swapped.broken_relations()
    for bad in (scaled, swapped):
        assert not preserves_normal_forms(bad, words)
    with pytest.raises(StructureError):
        GeneratorMap(s, s, [e1, e2])
    with pytest.raises(StructureError):
        GeneratorMap(s, build_relations(s.algebroid), [e1, e2, e3])


def test_pbw_element_checks_generators_and_coefficients():
    r = poly_ring("x")
    s = build_relations(make_trivial_bundle(r, 1))
    with pytest.raises(StructureError):
        PbwElement(s, {(7,): r.one})
    with pytest.raises(StructureError):
        PbwElement(s, {(-1,): r.one})
    # a plain number is a constant of the system's ring
    assert PbwElement(s, {(0,): 3}).terms == {(0,): r.const(3)}
    assert str(PbwElement(s, {(0,): 3}) * s.generator(0)) == "(3)*e1^2"
    with pytest.raises(RingError):
        PbwElement(s, {(0,): poly_ring("x").one})


def _random_poly(r, rng):
    return sum((r.monomial(tuple(rng.randint(0, 2) for _ in r.variables),
                           rng.choice([-3, -1, 1, 2, Fraction(1, 2)]))
                for _ in range(rng.randint(1, 2))), r.zero)


def _random_algebroid(rng):
    """A Poisson, foliation, log or Heisenberg algebroid with random data."""
    kind = rng.choice(["poisson2", "poisson3", "foliation", "log", "heisenberg"])
    if kind == "poisson2":
        r = poly_ring("x", "y")
        return make_poisson(r, {(0, 1): _random_poly(r, rng)})
    if kind == "poisson3":
        r = poly_ring("x", "y", "z")
        return make_poisson(r, {(0, 1): rng.randint(-2, 2),
                                (0, 2): rng.randint(-2, 2),
                                (1, 2): rng.randint(1, 3)})
    if kind == "foliation":
        r = poly_ring("x", "y", "z")
        x, z = r.var("x"), r.var("z")
        # x^k d/dx and c d/dy + c' z d/dz commute
        return make_foliation(r, [[x ** rng.randint(0, 2), 0, 0],
                                  [0, rng.randint(1, 3), rng.randint(-2, 2) * z]])
    if kind == "log":
        r = poly_ring(*("xyz"[:rng.randint(2, 3)]))
        return make_log(r, [v for v in r.variables if rng.random() < 0.5])
    return make_lie_algebra_bundle(poly_ring("x"), 3,
                                   {(0, 1): {2: rng.choice([-2, 1, 3])}})


def _random_closed_twist(l, rng):
    """A random 2-form if it is closed, else d of a random 1-form."""
    r = l.base
    q = LForm(l, 2, {idx: _random_poly(r, rng)
                     for idx in combinations(range(l.rank), 2)
                     if rng.random() < 0.7})
    if d_L(q).is_zero():
        return q
    return d_L(LForm(l, 1, {(i,): _random_poly(r, rng) for i in range(l.rank)}))


def test_relations_text_matches_written_out_rules(tmp_path):
    """`adf relations` on random algebroids and closed twists, rendered to
    a definition file, against the rules written out from the anchor, the
    bracket and the twist."""
    rng = random.Random(1601)
    path = tmp_path / "rel.adf"
    kinds = set()
    for _ in range(25):
        source = _random_algebroid(rng)
        # basis names the definition language can spell
        l = Algebroid(source.base, source.rank, source.anchor, source.structure)
        q = _random_closed_twist(l, rng)
        defs = Definitions()
        defs.define("R", "ring", l.base, {"kind": "poly"})
        defs.define("A", "algebroid", l, {"ring": "R"})
        defs.define("Q", "form", q, {"algebroid": "A"})
        path.write_text(render(defs))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(["relations", str(path), "A", "Q"]) == 0
        assert buf.getvalue().splitlines() == relation_rules(l, q)
        kinds.add((bool(l.structure), q.is_zero()))
    assert len(kinds) == 4


def test_relations_hold_in_naive_normal_forms():
    """Each relation [e_i, u] = rhs of confluent and broken systems: the
    naive reductions of e_i u and u e_i differ by rhs."""
    rng = random.Random(1602)
    systems = [random_valid_system(rng) for _ in range(6)]
    systems += structure_function_systems() + broken_systems()
    systems += fractional_twist_systems() + [laurent_twist_system()]
    for s in systems:
        rels = s.relations()
        assert len(rels) == (s.algebroid.rank * len(s.ring.variables)
                             + comb(s.algebroid.rank, 2))
        for i, right, rhs in rels:
            u = s.ring.var(right) if isinstance(right, str) else right
            got = naive_normal_form([i, u], s) - naive_normal_form([u, i], s)
            assert got == rhs
    assert any(confluence_check(s) is not None for s in systems)
