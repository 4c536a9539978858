import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fermatcalc.exactnum import CyclotomicNumber, euler_phi, root_of_unity, zeta
from fermatcalc.fermat_hodge import (
    ProductClassSpec,
    hessian_coefficient,
    linear_cycle_poly,
    pair_classes,
    product_class_poly,
)
from fermatcalc.idealcalc import FermatContext, reduce_mod_jacobian
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    count_monomials,
    divide,
    geometric_factor,
    leading_term,
    lex_order,
    monomials_of_degree,
    pair_leader_order,
)

from conftest import coefficient_pool, random_product_coefficients, random_reduced_class


def variables(nvars):
    return [Polynomial.variable(nvars, i) for i in range(nvars)]


def test_geometric_factor_small_cases():
    x = variables(4)
    assert geometric_factor(4, 2, 3, 2, 3) == x[2] + x[3].scale(2)
    ones = geometric_factor(4, 0, 1, 1, 5)
    expected = sum(
        (Polynomial.monomial(4, (3 - q, q, 0, 0)) for q in range(1, 4)),
        Polynomial.monomial(4, (3, 0, 0, 0)),
    )
    assert ones == expected
    assert geometric_factor(4, 0, 1, 0, 5) == Polynomial.monomial(4, (3, 0, 0, 0))


def test_geometric_factor_rejects_equal_indices():
    with pytest.raises(ValueError):
        geometric_factor(4, 1, 1, 2, 5)


@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_geometric_factor_telescopes(d, pick):
    a = coefficient_pool(2 * d)[pick]
    x = variables(4)
    factor = geometric_factor(4, 0, 1, a, d)
    assert factor.homogeneous_degree() == d - 2
    product = (x[0] - x[1].scale(a)) * factor
    expected = Polynomial(4, [((d - 1, 0, 0, 0), 1), ((0, d - 1, 0, 0), -(a ** (d - 1)))])
    assert product == expected


def test_leading_term_under_orders():
    a = zeta(10)
    x = variables(4)
    f = x[0] - x[1].scale(a)
    assert leading_term(f, lex_order(4)) == ((1, 0, 0, 0), CyclotomicNumber.one())
    swapped = MonomialOrder((1, 0, 2, 3))
    mono, coeff = leading_term(swapped and f, swapped)
    assert mono == (0, 1, 0, 0) and coeff == -a
    g = Polynomial(4, [((0, 4, 0, 0), 1), ((1, 3, 0, 0), 1)])
    assert leading_term(g, lex_order(4))[0] == (1, 3, 0, 0)
    with pytest.raises(ValueError):
        leading_term(Polynomial.zero(4), lex_order(4))


def test_power_is_the_repeated_product_with_no_square_past_the_last_bit(monkeypatch):
    z = zeta(10)
    x = variables(4)
    p = x[0] - x[1].scale(z) + x[2].scale(2)
    products = [Polynomial.constant(4, 1)]
    for _ in range(6):
        products.append(products[-1] * p)
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for k, expected in enumerate(products):
        calls.clear()
        assert p ** k == expected
        # one product per set bit (the first by 1) and one square per bit below the top
        assert len(calls) == bin(k).count("1") + max(k.bit_length() - 1, 0)


def test_division_by_monomial_powers_drops_high_exponents():
    d = 5
    gens = [Polynomial.monomial(4, tuple(d - 1 if t == i else 0 for t in range(4))) for i in range(4)]
    f = Polynomial(
        4,
        [((4, 1, 0, 0), 2), ((3, 1, 1, 0), 3), ((0, 0, 5, 0), 1), ((2, 1, 1, 1), 7)],
    )
    _, remainder = divide(f, gens, lex_order(4))
    assert remainder == Polynomial(4, [((3, 1, 1, 0), 3), ((2, 1, 1, 1), 7)])


def test_division_substitutes_binomials():
    a = zeta(10)
    x = variables(4)
    quotients, remainder = divide(
        Polynomial.monomial(4, (2, 0, 0, 0)), [x[0] - x[1].scale(a)], lex_order(4)
    )
    assert remainder == Polynomial.monomial(4, (0, 2, 0, 0), a * a)
    assert quotients[0] * (x[0] - x[1].scale(a)) + remainder == Polynomial.monomial(4, (2, 0, 0, 0))


def test_division_reassembles(quintic_surface):
    rng = random.Random(11)
    ctx = quintic_surface
    pool = coefficient_pool(ctx.m)
    order = lex_order(4)
    monos3 = list(monomials_of_degree(4, 3))
    for _ in range(10):
        f = Polynomial(4, [(m, rng.choice(pool)) for m in rng.sample(monos3, 6)])
        divisors = [
            variables(4)[0] - variables(4)[1].scale(rng.choice(pool)),
            Polynomial.monomial(4, (0, 2, 0, 0)),
        ]
        quotients, remainder = divide(f, divisors, order)
        total = remainder
        for q, g in zip(quotients, divisors):
            total = total + q * g
        assert total == f
        lts = [leading_term(g, order)[0] for g in divisors]
        for mono in remainder.terms:
            assert not any(all(l[i] <= mono[i] for i in range(4)) for l in lts)


def test_remainder_stable_under_divisor_permutation_for_groebner_inputs():
    # binomial pair system plus the odd-variable powers: already a Groebner
    # basis, so the division remainder cannot depend on the listing order
    d = 5
    a, b = zeta(2 * d), zeta(2 * d) ** 7
    x = variables(4)
    basis = [
        x[0] - x[1].scale(a),
        x[2] - x[3].scale(b),
        Polynomial.monomial(4, (0, d - 1, 0, 0)),
        Polynomial.monomial(4, (0, 0, 0, d - 1)),
    ]
    order = pair_leader_order(4)
    rng = random.Random(3)
    pool = coefficient_pool(2 * d)
    monos = list(monomials_of_degree(4, 5))
    for _ in range(5):
        f = Polynomial(4, [(m, rng.choice(pool)) for m in rng.sample(monos, 8)])
        _, base = divide(f, basis, order)
        for _ in range(3):
            shuffled = basis[:]
            rng.shuffle(shuffled)
            _, other = divide(f, shuffled, order)
            assert other == base


def test_membership_of_binomial_powers_in_the_paired_basis():
    # (L - x_0)^(d-1) lies in the span of the odd power generators: the
    # division must terminate with zero remainder and a constant quotient
    # against exactly one of them.
    d = 5
    a = zeta(2 * d) ** 3
    x = variables(4)
    L1 = x[0] - x[1].scale(a)
    L2 = x[2] - x[3].scale(zeta(2 * d))
    p1 = Polynomial.monomial(4, (0, d - 1, 0, 0))
    p3 = Polynomial.monomial(4, (0, 0, 0, d - 1))
    basis = [L1, L2, p1, p3]
    f = (L1 - x[0]) ** (d - 1)
    quotients, remainder = divide(f, basis, pair_leader_order(4))
    assert remainder.is_zero()
    assert quotients[0].is_zero() and quotients[1].is_zero()
    assert quotients[2] == Polynomial.constant(4, (-a) ** (d - 1))
    assert quotients[3].is_zero()


def test_leading_term_multiplicative():
    rng = random.Random(5)
    pool = coefficient_pool(10)
    order = lex_order(4)
    monos = list(monomials_of_degree(4, 3))
    for _ in range(10):
        f = Polynomial(4, [(m, rng.choice(pool)) for m in rng.sample(monos, 4)])
        g = Polynomial(4, [(m, rng.choice(pool)) for m in rng.sample(monos, 4)])
        mf, cf = leading_term(f, order)
        mg, cg = leading_term(g, order)
        mp, cp = leading_term(f * g, order)
        assert mp == tuple(x + y for x, y in zip(mf, mg))
        assert cp == cf * cg


def test_zero_and_mismatch_rules():
    f = Polynomial.monomial(4, (1, 0, 0, 0))
    assert (f * Polynomial.zero(4)).is_zero()
    with pytest.raises(ValueError):
        f + Polynomial.monomial(3, (1, 0, 0))
    with pytest.raises(ValueError):
        divide(f, [Polynomial.zero(4)], lex_order(4))


def test_homogeneous_degree():
    assert Polynomial.zero(4).homogeneous_degree() is None
    assert Polynomial.monomial(4, (1, 2, 0, 0)).homogeneous_degree() == 3
    mixed = Polynomial(4, [((1, 0, 0, 0), 1), ((1, 1, 0, 0), 1)])
    assert mixed.homogeneous_degree() is None


def test_monomial_enumeration_is_descending_lex():
    monos = list(monomials_of_degree(3, 2))
    assert monos == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    bounded = list(monomials_of_degree(4, 6, cap=3))
    assert len(bounded) == 44
    assert all(max(m) <= 3 and sum(m) == 6 for m in bounded)


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder((0, 0, 1, 2))
    assert pair_leader_order(6).priority == (0, 2, 4, 1, 3, 5)


@pytest.mark.parametrize("nvars", range(5))
def test_count_monomials_matches_the_enumeration(nvars):
    for degree in range(-2, 6):
        assert count_monomials(nvars, degree) == len(list(monomials_of_degree(nvars, degree)))


@pytest.mark.parametrize("nvars,cap", [(0, 2), (1, 3), (4, 2), (6, 3), (5, 0)])
def test_capped_count_matches_the_enumeration(nvars, cap):
    from fermatcalc.multipoly import count_capped_monomials

    for degree in range(-1, nvars * cap + 3):
        expected = sum(1 for _ in monomials_of_degree(nvars, degree, cap))
        assert count_capped_monomials(nvars, degree, cap) == expected


# ---------------------------------------------------------------------------
# The product against the term-pair loop that drops cancelled sums
# ---------------------------------------------------------------------------


def term_pair_product(p, q):
    """The term-pair loop that deletes a monomial whenever its running sum
    cancels: one `CyclotomicNumber` product and one sum per term pair, in
    loop order.  Returns the terms, the lcm of the pair conductors reaching
    each monomial, and the monomials whose running sum cancelled to zero on
    the way (where this loop restarts its conductor lcm, and
    `Polynomial.__mul__`, which keeps zero sums to the end, does not)."""
    data, reached, cancelled = {}, {}, set()
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            reached[key] = math.lcm(reached.get(key, 1), c1.m, c2.m)
            c = c1 * c2
            cur = data.get(key)
            if cur is not None:
                c = cur + c
            if c:
                data[key] = c
            elif key in data:
                del data[key]
                cancelled.add(key)
    return data, reached, cancelled


def assert_matches_term_pairs(p, q):
    """p * q has the loop's monomials and, coefficient by coefficient, the
    loop's (m, nums, den); where the loop's running sum cancelled, the same
    value at the lcm of all the pair conductors reaching it."""
    product = p * q
    expected, reached, cancelled = term_pair_product(p, q)
    assert product.nvars == p.nvars
    assert product.terms.keys() == expected.keys()
    for e, c in expected.items():
        got = product.terms[e]
        if e in cancelled:
            assert got == c and got.m == reached[e]
        else:
            assert (got.m, got.nums, got.den) == (c.m, c.nums, c.den)
    return product


PRODUCT_CONDUCTORS = [1, 3, 4, 5, 8, 10, 14, 18]


@st.composite
def cyclotomic_values(draw, conductors):
    m = draw(st.sampled_from(conductors))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
    nums = draw(st.lists(entry, min_size=euler_phi(m), max_size=euler_phi(m)))
    den = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(2**64, 2**70)))
    return CyclotomicNumber(m, nums, den)


@st.composite
def polynomials(draw, nvars, conductors, max_exponent, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_exponent)] * nvars)
    terms = st.lists(st.tuples(exps, cyclotomic_values(conductors)), max_size=max_terms)
    return Polynomial(nvars, draw(terms))


conductor_sets = st.lists(st.sampled_from(PRODUCT_CONDUCTORS), min_size=1, max_size=3, unique=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_product_matches_the_term_pair_loop(data):
    nvars = data.draw(st.integers(0, 3))
    conductors = data.draw(conductor_sets)
    max_exponent = data.draw(st.sampled_from([1, 2, 300]))
    p = data.draw(polynomials(nvars, conductors, max_exponent))
    q = data.draw(polynomials(nvars, conductors, max_exponent))
    assert_matches_term_pairs(p, q)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_cancels_cross_terms_exactly(data):
    # (D x0 + D x1)(C x0 - C x1): every cross term D_i C_j x0 x1 cancels
    # against its mirror, within one conductor and across several
    conductors = data.draw(conductor_sets)
    c = data.draw(polynomials(3, conductors, 2, max_terms=4))
    d = data.draw(polynomials(3, conductors, 2, max_terms=4))

    def shifted(f, var, sign=1):
        return [
            (tuple(e + (v == var) for v, e in enumerate(exps)), sign * coeff)
            for exps, coeff in f.terms.items()
        ]

    p = Polynomial(3, shifted(d, 0) + shifted(d, 1))
    q = Polynomial(3, shifted(c, 0) + shifted(c, 1, -1))
    product = assert_matches_term_pairs(p, q)
    x = variables(3)
    assert product == (x[0] * x[0] - x[1] * x[1]) * d * c


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PRODUCT_CONDUCTORS), st.integers(0, 17), st.integers(2, 9), st.integers(1, 3)
)
def test_product_telescopes_like_the_loop(m, k, d, r):
    # (x0 - a x1) * sum_q x0^(d-2-q) (a x1)^q: the factor's first
    # coefficient is the conductor-1 one, the others lie at m
    a = root_of_unity(m, k) * r
    x = variables(2)
    factor = geometric_factor(2, 0, 1, a, d)
    product = assert_matches_term_pairs(x[0] - x[1].scale(a), factor)
    assert product == Polynomial(2, [((d - 1, 0), 1), ((0, d - 1), -(a ** (d - 1)))])


def test_product_edge_operands():
    c = CyclotomicNumber(8, [1, 0, 2**70, -3], 5)
    for nvars in (0, 1, 3):
        one_term = Polynomial.monomial(nvars, (300,) * nvars, c)
        assert (Polynomial.zero(nvars) * one_term).is_zero()
        assert (one_term * Polynomial.zero(nvars)).is_zero()
        assert_matches_term_pairs(one_term, one_term)
        assert_matches_term_pairs(one_term, Polynomial.constant(nvars, Fraction(-1, 3)))
    # a mixed-conductor cancellation: (1 + x)(1 - x) at conductors 1 and 8
    one, x = Polynomial.constant(1, 1), Polynomial.variable(1, 0).scale(CyclotomicNumber.one(8))
    product = assert_matches_term_pairs(one + x, one - x)
    assert product.terms.keys() == {(0,), (2,)}
    assert product.terms[(0,)].m == 1 and product.terms[(2,)].m == 8


# ---------------------------------------------------------------------------
# The pairing's dot product against the reduced full product
# ---------------------------------------------------------------------------


def reference_pairing(p, q, ctx):
    """The socle coefficient of the reduced full product p * q over the
    Hessian coefficient."""
    socle = (ctx.d - 2,) * ctx.nvars
    return reduce_mod_jacobian(p * q, ctx).coeff(socle) / hessian_coefficient(ctx)


def assert_pairs_like_the_full_product(p, q, ctx):
    got, expected = pair_classes(p, q, ctx).c, reference_pairing(p, q, ctx)
    assert (got.m, got.nums, got.den) == (expected.m, expected.nums, expected.den)
    return got


@st.composite
def socle_classes(draw, ctx, conductors, max_terms=8):
    # exponents up to d-1, so that some terms have no capped complement
    monos = list(monomials_of_degree(ctx.nvars, ctx.sigma, cap=ctx.d - 1))
    terms = st.lists(st.tuples(st.sampled_from(monos), cyclotomic_values(conductors)),
                     min_size=1, max_size=max_terms)
    p = Polynomial(ctx.nvars, draw(terms))
    assume(p.terms)
    return p


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pairing_matches_the_reduced_product(data):
    n, d = data.draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (2, 6), (4, 3), (4, 4)]))
    ctx = FermatContext(n, d)
    conductors = data.draw(conductor_sets)
    p = data.draw(socle_classes(ctx, conductors))
    q = data.draw(socle_classes(ctx, conductors))
    if data.draw(st.booleans()):
        # f <g, q> - g <f, q> pairs with q to a zero sum of nonzero parts
        f, g = p, data.draw(socle_classes(ctx, conductors))
        p = f.scale(reference_pairing(g, q, ctx)) - g.scale(reference_pairing(f, q, ctx))
        assume(p.terms)
        assert not assert_pairs_like_the_full_product(p, q, ctx)
    assert_pairs_like_the_full_product(p, q, ctx)
    assert_pairs_like_the_full_product(q, p, ctx)


def test_pairing_keeps_the_conductor_of_a_cancelled_sum():
    # the socle terms give z - z + 1: the partial sum cancels at conductor 8
    # before the conductor-1 product arrives
    ctx, z = FermatContext(2, 4), zeta(8)
    p = Polynomial(4, [((2, 2, 0, 0), z), ((2, 0, 2, 0), z), ((0, 2, 2, 0), 1)])
    q = Polynomial(4, [((0, 0, 2, 2), 1), ((0, 2, 0, 2), -1), ((2, 0, 0, 2), 1)])
    got = assert_pairs_like_the_full_product(p, q, ctx)
    assert got * hessian_coefficient(ctx) == 1 and got.m == 8


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4), (4, 5)])
def test_pairing_of_classes_matches_the_reduced_product(n, d):
    ctx = FermatContext(n, d)
    rng = random.Random(10 * n + d)
    alpha = tuple(rng.randrange(1, 2 * d, 2) for _ in range(n // 2 + 1))
    spec = ProductClassSpec(random_product_coefficients(ctx, rng), CyclotomicNumber.one())
    classes = [
        linear_cycle_poly(alpha, ctx),
        product_class_poly(spec, ctx),
        random_reduced_class(ctx, rng, 40),
    ]
    for p in classes:
        for q in classes:
            assert_pairs_like_the_full_product(q, p, ctx)


def test_pairing_builds_no_polynomial(monkeypatch):
    ctx = FermatContext(4, 5)
    p, q = linear_cycle_poly((1, 1, 1), ctx), linear_cycle_poly((1, 3, 5), ctx)
    assert len(p.terms) == len(q.terms) == 64
    calls = {"polynomial": 0, "field": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    # no product polynomial, and one field product per matching pair of terms
    monkeypatch.setattr(Polynomial, "__init__", counted("polynomial", Polynomial.__init__))
    monkeypatch.setattr(Polynomial, "_raw", classmethod(counted("polynomial", Polynomial._raw.__func__)))
    monkeypatch.setattr(Polynomial, "__mul__", counted("polynomial", Polynomial.__mul__))
    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted("field", CyclotomicNumber.__mul__))
    pair_classes(p, q, ctx)
    assert calls["polynomial"] == 0 and calls["field"] <= len(p.terms) + 8
