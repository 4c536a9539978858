import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fermatcalc.bounds import second_minimum_bound, tangent_codim
from fermatcalc.exactnum import CyclotomicNumber, root_of_unity, unit_circle_check, zeta
from fermatcalc.idealcalc import (
    ColonIdeal,
    FermatContext,
    reduce_mod_jacobian,
    solve_linear_forms,
)
from fermatcalc.ioformats import polynomial_from_json, polynomial_to_json
from fermatcalc.multipoly import Polynomial, monomials_of_degree
from fermatcalc.fermat_hodge import (
    ProductClassSpec,
    all_pairings,
    complete_intersection_ideal,
    default_pairing,
    hessian_coefficient,
    in_special_unit_group,
    linear_cycle_poly,
    pair_classes,
    plane_in_fermat,
    product_class_poly,
    rationality_certificate,
    rationality_scan,
    recover_product_structure,
    special_family,
)

from conftest import (
    coefficient_pool,
    divide_by_echelon_rows,
    ideal_hilbert_dims,
    ideal_slice,
    pair_sum_cofactor,
    random_reduced_class,
    recover_by_elimination,
    standard_decomposition,
)


def geometric_sum(a, b, d):
    """sum a^p b^q over p+q = d-2; equals (a^(d-1) - b^(d-1))/(a-b) off the
    diagonal, and the derivative value on it."""
    total = CyclotomicNumber.zero()
    for p in range(d - 1):
        total = total + a**p * b ** (d - 2 - p)
    return total


def variables(nvars):
    return [Polynomial.variable(nvars, i) for i in range(nvars)]


# ---------------------------------------------------------------------------
# class constructions
# ---------------------------------------------------------------------------


def test_linear_cycle_poly_cubic_surface():
    ctx = FermatContext(2, 3)
    z6 = zeta(6)
    x = variables(4)
    expected = ((x[0] + x[1].scale(z6)) * (x[2] + x[3].scale(z6))).scale(z6 * z6)
    assert linear_cycle_poly((1, 1), ctx) == expected


def test_linear_cycle_poly_degree_and_reduction(quintic_surface):
    from fermatcalc.idealcalc import reduce_mod_jacobian

    ctx = quintic_surface
    for alpha in [(1, 1), (3, 9), (7, 5)]:
        p = linear_cycle_poly(alpha, ctx)
        assert p.homogeneous_degree() == ctx.sigma
        assert reduce_mod_jacobian(p, ctx) == p


def test_linear_cycle_spec_validation(quintic_surface):
    ctx = quintic_surface
    with pytest.raises(ValueError):
        linear_cycle_poly((2, 1), ctx)  # even exponent
    with pytest.raises(ValueError):
        linear_cycle_poly((1, 11), ctx)  # out of range
    with pytest.raises(ValueError):
        linear_cycle_poly((1,), ctx)  # wrong length
    with pytest.raises(ValueError):
        linear_cycle_poly((1, 1), ctx, ((0, 1), (1, 3)))


def test_product_class_matches_linear_cycle(quintic_surface):
    ctx = quintic_surface
    alpha = (3, 7)
    spec = ProductClassSpec(
        tuple(root_of_unity(ctx.m, a) for a in alpha),
        root_of_unity(ctx.m, sum(alpha)),
    )
    assert product_class_poly(spec, ctx) == linear_cycle_poly(alpha, ctx)


def test_product_class_degenerate_zero_coefficients(quintic_surface):
    ctx = quintic_surface
    spec = ProductClassSpec(
        (CyclotomicNumber.zero(), CyclotomicNumber.zero()), CyclotomicNumber.one()
    )
    assert product_class_poly(spec, ctx) == Polynomial.monomial(4, (3, 0, 3, 0))


def test_hessian_coefficient_against_symbolic_determinant():
    import sympy

    for n, d in [(2, 3), (2, 5), (4, 4)]:
        ctx = FermatContext(n, d)
        xs = sympy.symbols(f"x0:{ctx.nvars}")
        F = sum(v**d for v in xs)
        hess = sympy.Matrix(ctx.nvars, ctx.nvars, lambda i, j: sympy.diff(F, xs[i], xs[j]))
        det = sympy.expand(hess.det())
        socle = sympy.prod(v ** (d - 2) for v in xs)
        coeff = sympy.Poly(det, *xs).coeff_monomial(socle)
        assert hessian_coefficient(ctx) == int(coeff)
    assert hessian_coefficient(FermatContext(2, 5)).as_rational() == 160000
    assert hessian_coefficient(FermatContext(2, 3)).as_rational() == 6**4


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def test_pairing_with_jacobian_multiple_vanishes(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_poly((1, 1), ctx)
    q = Polynomial.monomial(4, (4, 2, 0, 0))  # multiple of x_0^4
    result = pair_classes(p, q, ctx)
    assert result.c.is_zero()
    assert result.c_rational == 0


def test_self_pairing_of_linear_cycles_is_rational(quintic_surface):
    ctx = quintic_surface
    for alpha in [(1, 1), (3, 7), (9, 9)]:
        p = linear_cycle_poly(alpha, ctx)
        result = pair_classes(p, p, ctx)
        # closed form: the socle coefficient is (-1)^(sum alpha) (d-1)^(n/2+1)
        sign = -1 if sum(alpha) % 2 else 1
        expected = Fraction(sign * (ctx.d - 1) ** (ctx.n // 2 + 1), (ctx.d * (ctx.d - 1)) ** ctx.nvars)
        assert result.c_rational == expected
        half_fact = 1  # (n/2)! = 1 for n = 2
        assert result.intersection_rational == expected * -(
            (ctx.d - 1) ** ctx.nvars * ctx.d
        ) / half_fact**2


def test_pairing_matches_the_product_formula(quintic_surface):
    # socle coefficient of a product class against a linear cycle equals
    # c_lambda * zeta^(sum alpha) * prod_j geometric_sum(a_j, zeta^alpha_j)
    ctx = quintic_surface
    z = zeta(ctx.m)
    spec = ProductClassSpec((CyclotomicNumber.from_rational(2), z + 1), z**3)
    p = product_class_poly(spec, ctx)
    for alpha in [(1, 1), (3, 7), (9, 5), (5, 5)]:
        delta = linear_cycle_poly(alpha, ctx)
        got = pair_classes(p, delta, ctx).c * hessian_coefficient(ctx)
        expected = spec.c_lambda * root_of_unity(ctx.m, sum(alpha))
        for a, al in zip(spec.a, alpha):
            expected = expected * geometric_sum(a, root_of_unity(ctx.m, al), ctx.d)
        assert got == expected


def test_pairing_ratio_formula(quintic_surface):
    # fixing all slots but one and swapping the exponent 2d-r for 2d-s
    # multiplies the pairing coefficient by
    # (a^(d-1)+z^r)(a z^s-1) / ((a^(d-1)+z^s)(a z^r-1))
    ctx = quintic_surface
    z = zeta(ctx.m)
    a = CyclotomicNumber.from_rational(2)
    p = product_class_poly(ProductClassSpec((a, z), CyclotomicNumber.one()), ctx)
    for r, s in [(1, 3), (3, 7), (1, 9)]:
        c_beta = pair_classes(p, linear_cycle_poly((2 * ctx.d - r, 1), ctx), ctx).c
        c_beta_prime = pair_classes(p, linear_cycle_poly((2 * ctx.d - s, 1), ctx), ctx).c
        lhs = c_beta / c_beta_prime
        rhs = ((a ** (ctx.d - 1) + z**r) * (a * z**s - 1)) / (
            (a ** (ctx.d - 1) + z**s) * (a * z**r - 1)
        )
        assert lhs == rhs


def test_pairing_scaling_covariance(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_poly((1, 3), ctx)
    q = linear_cycle_poly((7, 9), ctx)
    base = pair_classes(p, q, ctx).c
    s, t = Fraction(3, 2), Fraction(-5, 7)
    scaled = pair_classes(p.scale(s), q.scale(t), ctx).c
    assert scaled == base * (s * t)
    # rationality verdicts are invariant under rational rescaling
    assert (scaled.as_rational() is None) == (base.as_rational() is None)


def test_pairing_rejects_wrong_degrees(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_poly((1, 1), ctx)
    with pytest.raises(ValueError):
        pair_classes(p, Polynomial.monomial(4, (1, 0, 0, 0)), ctx)


def test_pairing_rejects_a_variable_count_mismatch(quintic_surface):
    # degree 6 = sigma, so only the variable count is wrong
    p = Polynomial.monomial(3, (2, 2, 2))
    with pytest.raises(ValueError, match="variable count mismatch"):
        pair_classes(p, p, quintic_surface)
    q = linear_cycle_poly((1, 1), quintic_surface)
    with pytest.raises(ValueError, match="variable count mismatch"):
        pair_classes(q, p, quintic_surface)


@pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 6), (4, 3), (4, 4)])
def test_product_of_two_classes_reduces_to_the_socle_monomial(n, d):
    # p*q has degree 2 sigma, the socle degree of the Jacobian ring, whose
    # degree-2-sigma part is spanned by the socle monomial alone
    ctx = FermatContext(n, d)
    rng = random.Random(100 * n + d)
    socle = (d - 2,) * ctx.nvars
    classes = [random_reduced_class(ctx, rng, terms=6) for _ in range(3)]
    classes.append(linear_cycle_poly((1,) * (n // 2 + 1), ctx))
    supports = [set(reduce_mod_jacobian(p * q, ctx).terms) for p in classes for q in classes]
    assert all(support <= {socle} for support in supports)
    assert any(supports)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_for_a_linear_cycle_is_all_rational(quintic_surface):
    ctx = quintic_surface
    cert = rationality_certificate(linear_cycle_poly((1, 1), ctx), ctx)
    assert cert.verdict == "all rational"
    assert len(cert.rows) == ctx.d ** (ctx.n // 2 + 1)
    assert all(r.flag in ("rational", "zero") for r in cert.rows)


def test_certificate_flags_an_irrational_class(quintic_surface):
    ctx = quintic_surface
    spec = ProductClassSpec(
        (CyclotomicNumber.from_rational(2), CyclotomicNumber.one()),
        CyclotomicNumber.one(),
    )
    cert = rationality_certificate(product_class_poly(spec, ctx), ctx)
    assert cert.verdict == "counterexample"
    assert cert.counterexample is not None
    assert cert.counterexample.flag == "irrational"


def test_certificate_all_pairings(quintic_surface):
    ctx = quintic_surface
    assert len(all_pairings(2)) == 3
    assert len(all_pairings(4)) == 15
    cert = rationality_certificate(
        linear_cycle_poly((1, 1), ctx), ctx, all_coordinate_pairings=True
    )
    assert len(cert.rows) == 3 * 25
    assert cert.verdict == "all rational"


@pytest.mark.parametrize("n,d", [(2, 5), (4, 4)])
def test_certificate_rows_match_the_full_product(n, d):
    # `certify --all-pairings` rows against the reduced full product p * delta
    def rows(p):
        cert = rationality_certificate(p, ctx, all_coordinate_pairings=True)
        return [(r.pairing, r.alpha, r.flag, r.c.m, r.c.nums, r.c.den) for r in cert.rows]

    ctx = FermatContext(n, d)
    socle = (d - 2,) * ctx.nvars
    delta = linear_cycle_poly((1,) * (n // 2 + 1), ctx)
    (g1, c1), (g2, c2) = list(delta.terms.items())[:2]
    # c2 x^(socle-g1) - c1 x^(socle-g2): its first row, against delta, cancels to zero
    cancelling = Polynomial(ctx.nvars, [(tuple(s - e for s, e in zip(socle, g1)), c2),
                                        (tuple(s - e for s, e in zip(socle, g2)), -c1)])
    for p in (cancelling, random_reduced_class(ctx, random.Random(0), 6)):
        fast = rows(p)
        for pairing, alpha, _, *value in fast:
            cycle = linear_cycle_poly(alpha, ctx, pairing)
            c = reduce_mod_jacobian(p * cycle, ctx).coeff(socle) / hessian_coefficient(ctx)
            assert value == [c.m, c.nums, c.den]
        assert all(m == 1 for _, _, flag, m, _, _ in fast if flag == "zero")
        assert (fast[0][2] == "zero") == (p is cancelling)


def permutation_sign(perm) -> int:
    """The sign of the permutation i -> perm[i] of range(len(perm))."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = perm[j], length + 1
        sign *= (-1) ** max(length - 1, 0)
    return sign


@pytest.mark.parametrize("n,d,a,all_coordinate_pairings", [
    (2, 5, (1, 3), True), (4, 4, (1, 3, 5), True), (2, 7, (1, 5), True),
    (4, 5, (1, 1, 3), True), (6, 4, (1, 3, 5, 7), False),  # all 105 pairings are refused
])
def test_linear_cycle_rows_follow_the_intersection_closed_form(n, d, a, all_coordinate_pairings):
    # the row of delta_b over pi' against delta_a over the default pairing is
    # c_self * eps * (1-d)^(k-h): k the affine dimension of P_a meet P_b, eps
    # the sign taking the flattened default pairing to pi', h = n/2+1
    # (Movasati and Villaflor Loyola, arXiv:1705.00084)
    ctx = FermatContext(n, d)
    h = n // 2 + 1

    def forms(pairing, alpha):
        x = variables(ctx.nvars)
        return [x[p] - x[q].scale(root_of_unity(ctx.m, b)) for (p, q), b in zip(pairing, alpha)]

    base = default_pairing(n)
    flat_base = [v for pair in base for v in pair]
    own = forms(base, a)
    cert = rationality_certificate(linear_cycle_poly(a, ctx), ctx, all_coordinate_pairings)
    c_self = next(r.c for r in cert.rows if (r.pairing, r.alpha) == (base, a))
    assert not c_self.is_zero()
    for r in cert.rows:
        flat = [v for pair in r.pairing for v in pair]
        eps = permutation_sign([flat.index(v) for v in flat_base])
        k = ctx.nvars - len(solve_linear_forms(own + forms(r.pairing, r.alpha), ctx.nvars))
        want = c_self * (eps * Fraction(1 - d) ** (k - h))
        assert r.flag == "rational"
        assert (r.c.m, r.c.nums, r.c.den) == (want.m, want.nums, want.den), (r.pairing, r.alpha)


def test_certificates_refuse_exactly_above_their_budget(quintic_surface, monkeypatch):
    from fermatcalc import fermat_hodge

    ctx = quintic_surface
    p = linear_cycle_poly((1, 1), ctx)  # 16 terms; 25 rows, each against a 16-term cycle
    monkeypatch.setattr(fermat_hodge, "CERTIFICATE_MAX_WORK", 25 * 16 * 16)
    assert len(rationality_certificate(p, ctx).rows) == 25
    with pytest.raises(ValueError, match=r"\(2, 5\) with 16 class terms .* = 19200 term pairs"):
        rationality_certificate(p, ctx, all_coordinate_pairings=True)
    # a (2, 4) family member has 9 terms and 16 rows against 9-term cycles
    i = root_of_unity(4, 1)
    a = (zeta(8) * ((3 + 4 * i) / 5).promote(8), zeta(8))
    monkeypatch.setattr(fermat_hodge, "CERTIFICATE_MAX_WORK", 16 * 9 * 9)
    assert special_family(4, a, FermatContext(2, 4)).certificate.all_rational
    monkeypatch.setattr(fermat_hodge, "CERTIFICATE_MAX_WORK", 16 * 9 * 9 - 1)
    with pytest.raises(ValueError, match="above the certificate limit of 1295"):
        special_family(4, a, FermatContext(2, 4))


@pytest.mark.parametrize("n,d,terms,all_coordinate_pairings,refused", [
    (4, 5, 64, True, False),  # 15 pairings of 125 rows: 7.7e6
    (4, 7, 216, False, False),  # 1.6e7
    (4, 5, 40, True, False),  # a dense 40-term class
    (4, 9, 512, False, True),  # 1.9e8
    (2, 20, 361, False, True),  # 5.2e7
    (22, 3, 4096, True, True),  # 23!! pairings, counted without listing them
])
def test_certificate_budget_envelope(n, d, terms, all_coordinate_pairings, refused):
    from fermatcalc.fermat_hodge import _check_certificate_size

    ctx = FermatContext(n, d)
    if refused:
        with pytest.raises(ValueError, match="above the certificate limit of 20000000"):
            _check_certificate_size(ctx, terms, all_coordinate_pairings)
    else:
        _check_certificate_size(ctx, terms, all_coordinate_pairings)


# ---------------------------------------------------------------------------
# structure recovery
# ---------------------------------------------------------------------------


def test_recover_round_trips_linear_cycles(quintic_surface):
    ctx = quintic_surface
    alpha = (3, 9)
    p = linear_cycle_poly(alpha, ctx)
    spec = recover_product_structure(p, ctx)
    assert spec.pairing == default_pairing(2)
    assert spec.a == tuple(root_of_unity(ctx.m, a) for a in alpha)
    assert spec.c_lambda == root_of_unity(ctx.m, sum(alpha))
    assert product_class_poly(spec, ctx) == p


def test_recover_round_trips_random_products(quintic_surface):
    ctx = quintic_surface
    rng = random.Random(17)
    pool = [c for c in coefficient_pool(ctx.m) if not c.is_zero()]
    for _ in range(5):
        spec = ProductClassSpec(
            (rng.choice(pool), rng.choice(pool)), rng.choice(pool)
        )
        recovered = recover_product_structure(product_class_poly(spec, ctx), ctx)
        assert recovered.a == spec.a
        assert recovered.c_lambda == spec.c_lambda


def test_recover_handles_zero_coefficients(quintic_surface):
    ctx = quintic_surface
    spec = ProductClassSpec(
        (CyclotomicNumber.zero(), CyclotomicNumber.zero()),
        CyclotomicNumber.from_rational(3),
    )
    p = product_class_poly(spec, ctx)
    recovered = recover_product_structure(p, ctx)
    # zero slots pair the pivot with the lowest free variable index
    assert recovered.pairing == ((0, 1), (2, 3))
    assert all(a.is_zero() for a in recovered.a)
    assert product_class_poly(recovered, ctx) == p


def test_recover_handles_unusual_pairings(quintic_surface):
    # a pure monomial class is a product class over the pairing that matches
    # each appearing variable with an absent one
    ctx = quintic_surface
    spec = recover_product_structure(Polynomial.monomial(4, (3, 3, 0, 0)), ctx)
    assert spec.pairing == ((0, 2), (1, 3))
    assert all(a.is_zero() for a in spec.a)


def test_recover_rejects_classes_without_product_structure(quintic_surface):
    ctx = quintic_surface
    p = Polynomial(4, [((3, 3, 0, 0), 1), ((0, 0, 3, 3), 1)])  # J_1 = 0
    with pytest.raises(ValueError, match="no product structure"):
        recover_product_structure(p, ctx)
    # binomial-shaped: the colon slice of G(2) G(3) plus a term inside J is
    # the product's binomials, and a changed coefficient keeps its support,
    # yet neither rebuilds
    product = product_class_poly(ProductClassSpec((2, 3), CyclotomicNumber.one()), ctx)
    changed = dict(product.terms)
    changed[(0, 3, 0, 3)] = changed[(0, 3, 0, 3)] + 1
    for p in (product + Polynomial.monomial(4, (4, 2, 0, 0)), Polynomial(4, changed)):
        with pytest.raises(ValueError, match="no product structure"):
            recover_product_structure(p, ctx)


def structure(spec):
    """(pairing, a, c_lambda) with every value as (m, nums, den)."""
    return spec.pairing, [(a.m, a.nums, a.den) for a in spec.a], (
        spec.c_lambda.m, spec.c_lambda.nums, spec.c_lambda.den)


RECOVERY_POINTS = ((2, 3), (4, 3), (6, 3), (2, 4), (4, 4), (6, 4), (2, 5), (4, 5), (2, 9))


def recovery_classes(ctx, rng):
    """Linear cycles, and product classes over random pairings with pairs of
    either orientation, zero coefficients, the scale i, and rationals held at
    conductor 2d (zeta^d = -1)."""
    m, half = ctx.m, ctx.n // 2 + 1
    i = root_of_unity(4, 1)
    pool = [root_of_unity(m, k) for k in range(m)] + [
        root_of_unity(m, ctx.d), CyclotomicNumber.from_rational(2).promote(m),
        CyclotomicNumber.from_rational(Fraction(-3, 2)), i * 3, zeta(m) + 1]
    pairings = all_pairings(ctx.n)
    odd = range(1, 2 * ctx.d, 2)
    yield linear_cycle_poly(tuple(rng.choice(odd) for _ in range(half)), ctx)
    yield linear_cycle_poly(tuple(rng.choice(odd) for _ in range(half)), ctx,
                            rng.choice(pairings))
    for c in (CyclotomicNumber.one(), i, root_of_unity(m, ctx.d),
              CyclotomicNumber.from_rational(3).promote(m)):
        pairing = tuple((q, p) if rng.random() < 0.5 else (p, q) for p, q in rng.choice(pairings))
        a = tuple(CyclotomicNumber.zero() if rng.random() < 0.25 else rng.choice(pool)
                  for _ in range(half))
        yield product_class_poly(ProductClassSpec(a, c, pairing), ctx)
    yield product_class_poly(ProductClassSpec((CyclotomicNumber.zero(),) * half, i), ctx)


@pytest.mark.parametrize("n,d", RECOVERY_POINTS)
def test_recover_matches_the_elimination_route(n, d):
    ctx = FermatContext(n, d)
    for p in recovery_classes(ctx, random.Random(f"recover:{n}:{d}")):
        recovered = recover_product_structure(p, ctx)
        assert structure(recovered) == structure(recover_by_elimination(p, ctx))
        assert product_class_poly(recovered, ctx) == p


def test_recover_leaves_a_coefficient_over_a_unit_leading_coefficient_unscaled():
    # P = -(x_2 + zeta_6^3 x_0) x_1 leads with x_0 x_1 at coefficient 1 over
    # Q(zeta_6); a_0 = -1 keeps conductor 1, as elimination leaves a monic row
    ctx = FermatContext(2, 3)
    spec = ProductClassSpec((root_of_unity(6, 3), CyclotomicNumber.zero()),
                            -CyclotomicNumber.one(), ((2, 0), (1, 3)))
    p = product_class_poly(spec, ctx)
    expected = (((0, 2), (1, 3)), [(1, (-1,), 1), (1, (0,), 1)], (6, (1, 0), 1))
    assert structure(recover_product_structure(p, ctx)) == expected
    assert structure(recover_by_elimination(p, ctx)) == expected


@pytest.mark.parametrize("n,d", [(2, 3), (2, 5), (4, 4), (2, 9)])
def test_recover_refuses_near_products_on_both_routes(n, d):
    ctx = FermatContext(n, d)
    half = n // 2 + 1
    a = tuple(root_of_unity(ctx.m, 2 * j + 1) for j in range(half))
    p = product_class_poly(ProductClassSpec(a, CyclotomicNumber.from_rational(3)), ctx)
    outside = next(e for e in monomials_of_degree(ctx.nvars, ctx.sigma, cap=d - 2) if e not in p.terms)
    moved = dict(p.terms)
    moved[outside] = moved.pop(max(moved))
    inside_j = (d - 1, ctx.sigma - d + 1) + (0,) * (ctx.nvars - 2)
    for q in (p + Polynomial.monomial(ctx.nvars, outside), Polynomial(ctx.nvars, moved),
              p + Polynomial.monomial(ctx.nvars, inside_j)):
        with pytest.raises(ValueError, match="no product structure"):
            recover_product_structure(q, ctx)
        with pytest.raises(ValueError, match="product s"):
            recover_by_elimination(q, ctx)


def test_recover_refuses_factors_that_share_a_variable():
    # (x_0 + 2 x_2)(x_1 + 3 x_2) at (2, 3) has the term count, leading term
    # and step terms of a product, but its two factors share x_2
    ctx = FermatContext(2, 3)
    x = variables(4)
    p = (x[0] + x[2].scale(2)) * (x[1] + x[2].scale(3))
    for recover in (recover_product_structure, recover_by_elimination):
        with pytest.raises(ValueError, match="product s"):
            recover(p, ctx)


def test_recover_refuses_a_large_non_product_before_rebuilding_it():
    import time

    # n/2+2 terms with the support of a product's leading and step terms at
    # (40, 40); rebuilding it would take 39^21 terms
    ctx = FermatContext(40, 40)
    lead = (38, 0) * 21
    steps = [lead[:2 * j] + (37, 1) + lead[2 * j + 2:] for j in range(21)]
    p = Polynomial(ctx.nvars, [(e, 1) for e in [lead, *steps]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no product structure"):
        recover_product_structure(p, ctx)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# the coefficient rationality scan
# ---------------------------------------------------------------------------


def test_scan_accepts_negative_unit_roots():
    for k in (1, 3, 5, 7, 9):
        report = rationality_scan(root_of_unity(10, k), 5)
        assert report.direct and report.scan
        assert not report.cross_ratio_rational


def test_scan_rejects_non_roots_for_degree_five():
    for a in (CyclotomicNumber.from_rational(2),
              CyclotomicNumber.from_rational(Fraction(3, 2)),
              zeta(10) + 1):
        report = rationality_scan(a, 5)
        assert not report.scan
        assert not report.direct
        assert report.witness is not None
        r, s, value = report.witness
        assert value.as_rational() is None


def test_scan_cross_ratio_is_certified_irrational_for_degree_five():
    report = rationality_scan(CyclotomicNumber.from_rational(2), 5)
    w = -(report.cross_ratio + 1)  # recovers zeta_5 + zeta_5^(-1)
    assert report.cross_ratio.as_rational() is None
    assert (w * w + w - 1).is_zero()  # its minimal polynomial is x^2 + x - 1


def test_scan_degree_six_has_non_root_survivors():
    # i * u with u a conjugate quotient unit: passes the scan although
    # a^6 + 1 != 0, which is exactly why degree 6 is excluded
    u = (8 + 5 * zeta(3)) / 7
    assert unit_circle_check(u)
    a = root_of_unity(4, 1) * u
    report = rationality_scan(a, 6)
    assert report.scan and not report.direct
    assert report.cross_ratio_rational
    # plain i, by contrast, satisfies i^6 = -1
    assert rationality_scan(root_of_unity(4, 1), 6).direct


def test_scan_validates_degree():
    with pytest.raises(ValueError):
        rationality_scan(CyclotomicNumber.one(), 2)


def test_scan_refuses_exactly_above_its_budget(monkeypatch):
    from fermatcalc import fermat_hodge

    monkeypatch.setattr(fermat_hodge, "PROP11_MAX_WORK", 5**2 * 4**3)  # d = 5 over Q(zeta_10)
    assert rationality_scan(CyclotomicNumber.from_rational(2), 5).direct is False
    with pytest.raises(ValueError, match=r"d = 5 over Q\(zeta_20\) needs d\^2 phi\^3 = 12800"):
        rationality_scan(root_of_unity(4, 1), 5)
    # the count at 2d, which the command line takes before parsing a
    fermat_hodge.check_prop11_size(5, 10)
    with pytest.raises(ValueError, match=r"d = 5 over Q\(zeta_20\) needs d\^2 phi\^3 = 12800"):
        fermat_hodge.check_prop11_size(5, 20)


def per_pair_scan(a, d):
    """The scan as one division per pair of odd roots, the reference for
    `rationality_scan`: its witness (or None), and which of the two factors
    (a x - 1) and (a^(d-1) + y) of a skipped pair's denominator vanished."""
    m = math.lcm(a.m, 2 * d)
    av = a.promote(m)
    a_pow = av ** (d - 1)
    odd_powers = [(k, root_of_unity(2 * d, k).promote(m)) for k in range(1, 2 * d, 2)]
    skipped = set()
    for (r, x), (s, y) in itertools.product(odd_powers, repeat=2):
        den = (a_pow + y) * (av * x - 1)
        if den.is_zero():
            skipped |= {"x"} if (av * x - 1).is_zero() else {"y"}
            continue
        value = (a_pow + x) * (av * y - 1) / den
        if value.as_rational() is None:
            return (r, s, value), skipped
    return None, skipped


@pytest.mark.parametrize("d", range(3, 13))
def test_factored_scan_matches_the_per_pair_formula(d):
    i = root_of_unity(4, 1)
    z = root_of_unity(2 * d, 1)
    literals = [z, z**3, i * z, CyclotomicNumber.from_rational(2),
                CyclotomicNumber.from_rational(Fraction(-1, 3)), (3 + 4 * i) / 5,
                i * ((8 + 5 * zeta(3)) / 7)]
    for a in literals:
        report = rationality_scan(a, d)
        witness, skipped = per_pair_scan(a, d)
        assert report.scan == (witness is None)
        assert report.witness == witness
        if witness is not None:  # the same representation, so the same output bytes
            value = report.witness[2]
            assert (value.m, value.nums, value.den) == (witness[2].m, witness[2].nums, witness[2].den)
        if a is z:  # a = zeta_2d leaves each factor of the denominator undefined somewhere
            assert skipped == {"x", "y"}


def test_scan_soundness_for_degrees_five_and_seven():
    # wherever the scan passes with an irrational cross ratio, the direct
    # condition must hold; swept over all unit roots and a few rationals
    for d in (5, 7):
        candidates = [root_of_unity(2 * d, k) for k in range(2 * d)]
        candidates += [
            CyclotomicNumber.from_rational(2),
            CyclotomicNumber.from_rational(Fraction(-5, 3)),
        ]
        for a in candidates:
            if a.is_zero():
                continue
            report = rationality_scan(a, d)
            assert not report.cross_ratio_rational
            if report.scan:
                assert report.direct


# ---------------------------------------------------------------------------
# planes and complete intersections
# ---------------------------------------------------------------------------


def test_plane_containment_for_root_coefficients(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    x = variables(4)
    forms = [x[0] - x[1].scale(z), x[2] - x[3].scale(z**3)]
    report = plane_in_fermat(forms, ctx)
    assert report.contained
    assert report.socle == ctx.sigma and report.socle_ok
    rebuilt = Polynomial.zero(4)
    for L, q in zip(forms, report.quotients):
        rebuilt = rebuilt + L * q
    assert rebuilt == ctx.fermat_polynomial()


def test_plane_rejected_for_non_root_coefficients(quintic_surface):
    ctx = quintic_surface
    x = variables(4)
    report = plane_in_fermat([x[0] - x[1].scale(2), x[2] - x[3].scale(zeta(10))], ctx)
    assert not report.contained
    assert not report.residual.is_zero()


def test_plane_requires_independent_forms(quintic_surface):
    ctx = quintic_surface
    x = variables(4)
    L = x[0] - x[1].scale(zeta(10))
    with pytest.raises(ValueError, match="dependent"):
        plane_in_fermat([L, L.scale(2)], ctx)


def test_plane_ideal_slices_match_the_colon_ideal(quintic_surface):
    # the plane's ideal <L_i, Q_i> has the same graded pieces as the colon
    # ideal of the corresponding class polynomial, in every degree up to sigma
    ctx = quintic_surface
    alpha = (1, 7)
    forms = [
        variables(4)[0] - variables(4)[1].scale(root_of_unity(ctx.m, alpha[0])),
        variables(4)[2] - variables(4)[3].scale(root_of_unity(ctx.m, alpha[1])),
    ]
    report = plane_in_fermat(forms, ctx)
    assert report.contained
    ci = ColonIdeal(linear_cycle_poly(alpha, ctx), ctx)
    for k in range(ctx.sigma + 1):
        assert ideal_slice(report.generators, k) == ci.slice(k)


def test_plane_with_general_position_forms(quintic_surface):
    # forms mixing the pairs still parametrize correctly
    ctx = quintic_surface
    z = zeta(10)
    x = variables(4)
    L1 = x[0] - x[1].scale(z)
    L2 = x[2] - x[3].scale(z**3)
    mixed = [L1 + L2, L1 - L2]
    report = plane_in_fermat(mixed, ctx)
    assert report.contained
    rebuilt = Polynomial.zero(4)
    for L, q in zip(mixed, report.quotients):
        rebuilt = rebuilt + L * q
    assert rebuilt == ctx.fermat_polynomial()


def plane_by_division(forms, ctx):
    """(residual, cofactors or None) of the plane {forms = 0} by dividing F by
    the forms' echelon rows in pivot-first order, the cofactors mapped back
    through the rows' tag columns."""
    pivots = solve_linear_forms(forms, ctx.nvars)
    hat, remainder = divide_by_echelon_rows(ctx.fermat_polynomial(), pivots)
    if remainder:
        return remainder, None
    cofactors = []
    for j in range(len(forms)):
        q = Polynomial.zero(ctx.nvars)
        for pv, h in zip(sorted(pivots), hat):
            t = pivots[pv].get(ctx.nvars + j)
            if t is not None:
                q = q + h.scale(t)
        cofactors.append(q)
    return remainder, cofactors


def exact_terms(p):
    return {e: (c.m, c.nums, c.den) for e, c in p.terms.items()}


PLANE_POINTS = [(2, 5), (2, 7), (4, 4), (4, 5), (6, 4)]


@st.composite
def plane_forms(draw, ctx):
    """Forms of one of four kinds: binomials x_p - zeta_2d^k x_q over a drawn
    pairing with odd k (on F); rational binomials x_p - a x_q; binomials with
    one even k (off F); or dense forms with drawn coefficients, whose echelon
    rows have r >= 2.  Binomials are then mixed by a drawn matrix when it is
    invertible.  The forms may also pass through JSON, as a --forms file
    reads them, which puts every coefficient, a pivot's 1 too, at the common
    conductor."""
    nvars, half = ctx.nvars, ctx.n // 2 + 1
    x = variables(nvars)
    kind = draw(st.sampled_from(["binomial", "rational", "off", "dense"]), label="kind")
    pool = coefficient_pool(ctx.m)
    if kind == "dense":
        forms = [sum((x[v].scale(draw(st.sampled_from(pool))) for v in range(nvars)),
                     Polynomial.zero(nvars)) for _ in range(half)]
    else:
        order = draw(st.permutations(range(nvars)), label="pairing")
        if kind == "rational":
            coeffs = [draw(st.sampled_from([-1, 1, 2, Fraction(-1, 2)])) for _ in range(half)]
        else:
            ks = [draw(st.integers(0, ctx.d - 1)) * 2 + 1 for _ in range(half)]
            if kind == "off":
                ks[draw(st.integers(0, half - 1))] -= 1
            coeffs = [root_of_unity(ctx.m, k) for k in ks]
        forms = [x[order[2 * j]] - x[order[2 * j + 1]].scale(a) for j, a in enumerate(coeffs)]
        mix = [[draw(st.sampled_from(pool + [CyclotomicNumber.zero()])) for _ in forms]
               for _ in forms]
        mixed = [sum((f.scale(c) for f, c in zip(forms, row) if c), Polynomial.zero(nvars))
                 for row in mix]
        if all(mixed) and len(solve_linear_forms(mixed, nvars)) == half:
            forms = mixed
    if draw(st.booleans(), label="through JSON"):
        forms = [polynomial_from_json(polynomial_to_json(f)) for f in forms]
    return forms


@pytest.mark.parametrize("n,d", PLANE_POINTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plane_closed_form_matches_division_by_the_echelon_rows(n, d, data):
    ctx = FermatContext(n, d)
    forms = data.draw(plane_forms(ctx))
    try:
        report = plane_in_fermat(forms, ctx)
    except ValueError:  # dependent forms
        assume(False)
    remainder, cofactors = plane_by_division(forms, ctx)
    assert exact_terms(report.residual) == exact_terms(remainder)
    assert polynomial_to_json(report.residual) == polynomial_to_json(remainder)
    assert report.contained == (cofactors is not None)
    if report.contained:
        assert [exact_terms(q) for q in report.quotients] == [exact_terms(q) for q in cofactors]
        assert [polynomial_to_json(q) for q in report.quotients] == [
            polynomial_to_json(q) for q in cofactors]


def test_complete_intersection_linear_type_matches_linear_cycle(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    x = variables(4)
    f = [x[0] - x[1].scale(z), x[2] - x[3].scale(z**7)]
    g = [pair_sum_cofactor(ctx, j, fi) for j, fi in enumerate(f)]
    report = complete_intersection_ideal(f, g, ctx)
    profile = ColonIdeal(linear_cycle_poly((1, 7), ctx), ctx).hilbert_profile()
    assert report.dims[: ctx.sigma + 1] == profile.dims
    assert report.socle == ctx.sigma and report.socle_ok
    assert report.square.member


def test_complete_intersection_conic_type(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    x = variables(4)
    f1 = x[0] - x[1].scale(z)
    f2 = (x[2] - x[3].scale(z)) * (x[2] - x[3].scale(z**3))
    f = [f1, f2]
    g = [pair_sum_cofactor(ctx, j, fi) for j, fi in enumerate(f)]
    report = complete_intersection_ideal(f, g, ctx)
    assert report.dims[ctx.d] == 3 == 2 * ctx.d - 7
    assert report.tangent.classification == "attains-second-minimum"
    assert report.socle == ctx.sigma and report.socle_ok
    assert report.square.member
    assert report.dims == (1, 3, 5, 6, 5, 3, 1, 0)


def test_complete_intersection_rejects_non_decompositions(quintic_surface):
    ctx = quintic_surface
    x = variables(4)
    f = [x[0], x[2]]
    g = [x[0] ** 4, x[2] ** 4]
    with pytest.raises(ValueError, match="not a decomposition"):
        complete_intersection_ideal(f, g, ctx)


DECOMPOSITIONS = [
    (n, d, ks, quadric)
    for n, d in ((2, 5), (2, 7), (4, 4), (4, 5))
    for ks, quadric in (
        ((1,) * (n // 2 + 1), False),
        ((3, 2 * d - 1, 1)[: n // 2 + 1], False),
        ((1,) * (n // 2) + (1, 3), True),
        ((2 * d - 1,) * (n // 2) + (3, 2 * d - 1), True),
    )
] + [
    (2, 5, (1, 1, 3), True),  # the README's dan-ci example, --type 1,2 --a z,z,z^3
    (2, 5, (1, 3), False),  # the decomposition file of the CLI test
]


@pytest.mark.parametrize("n,d,ks,quadric", DECOMPOSITIONS,
                         ids=[f"{n}-{d}-{'-'.join(map(str, ks))}" for n, d, ks, _ in DECOMPOSITIONS])
def test_square_witness_is_the_elimination_witness(n, d, ks, quadric):
    ctx = FermatContext(n, d)
    f, g = standard_decomposition(ctx, ks, quadric)
    report = complete_intersection_ideal(f, g, ctx)
    assert report.square.member
    total = Polynomial.zero(ctx.nvars)
    for i, j, gamma, coeff in report.square.witness:
        total = total + (report.generators[i] * report.generators[j]
                         * Polynomial.monomial(ctx.nvars, gamma)).scale(coeff)
    assert total == ctx.fermat_polynomial()


def test_socle_checks_refuse_exactly_above_their_budget(quintic_surface, monkeypatch):
    from fermatcalc import fermat_hodge

    # over Q(zeta_10), phi = 4: each coefficient product counts (4 + 128)^2 steps
    ctx = quintic_surface
    step = 132 ** 2
    forms, cofactors = standard_decomposition(ctx, (1, 3), False)
    # two binomial rows: 2^2 (1+1) C(5, 1) = 40 products
    assert fermat_hodge.plane_term_pairs(ctx) == 40
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 40 * step)
    assert plane_in_fermat(forms, ctx).contained
    # type 1,1: each binomial times its 5-term cofactor, 2 * 10 products
    assert complete_intersection_ideal(forms, cofactors, ctx).socle_ok
    # type 1,2: 2 * 5 + 3 * 4 products, the quadric's cofactor a 4-term cubic
    f, g = standard_decomposition(ctx, (1, 1, 3), True)
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 22 * step)
    assert complete_intersection_ideal(f, g, ctx).socle_ok
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 22 * step - 1)
    with pytest.raises(ValueError, match=r"\(2, 5\) over Q\(zeta_10\) needs 22 term pairs "
                                         r"\(phi\+128\)\^2 = 383328 steps, above .* of 383327$"):
        complete_intersection_ideal(f, g, ctx)
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 40 * step - 1)
    with pytest.raises(ValueError, match=r"\(2, 5\) over Q\(zeta_10\) needs 40 term pairs "
                                         r"\(phi\+128\)\^2 = 696960 steps"):
        plane_in_fermat(forms, ctx)
    # the same boundary over Q, 40 * 129^2
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 40 * 129 ** 2)
    fermat_hodge.check_socle_size(ctx, 40, 1)
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 40 * 129 ** 2 - 1)
    with pytest.raises(ValueError, match=r"\(2, 5\) over Q\(zeta_1\) needs 40 term pairs "
                                         r"\(phi\+128\)\^2 = 665640 steps"):
        fermat_hodge.check_socle_size(ctx, 40, 1)


def test_plane_counts_its_echelon_rows_before_restricting(quintic_surface, monkeypatch):
    from fermatcalc import fermat_hodge

    # rows x_0 + x_2 + x_3 and x_1 + x_2 - x_3 have r = 2 free variables each:
    # 2^2 (2+1) C(6, 2) = 180 rational products, each 129^2 steps
    ctx = quintic_surface
    x = variables(4)
    forms = [x[0] + x[2] + x[3], x[1] + x[2] - x[3]]
    assert fermat_hodge.plane_term_pairs(ctx, 2) == 180
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 180 * 129 ** 2)
    assert not plane_in_fermat(forms, ctx).contained
    monkeypatch.setattr(fermat_hodge, "SOCLE_MAX_WORK", 180 * 129 ** 2 - 1)

    def refuse(*args):
        raise AssertionError("a polynomial product ran")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    with pytest.raises(ValueError, match=r"\(2, 5\) over Q\(zeta_1\) needs 180 term pairs"):
        plane_in_fermat(forms, ctx)


def test_complete_intersection_runs_no_square_elimination(quintic_surface):
    f, g = standard_decomposition(quintic_surface, (1, 1, 3), True)
    report = complete_intersection_ideal(f, g, quintic_surface)
    one = CyclotomicNumber.one()
    assert report.square.member
    assert report.square.witness == ((0, 1, (0, 0, 0, 0), one), (2, 3, (0, 0, 0, 0), one))


def eliminated_socle_check(generators, ctx):
    """The socle check with its dimensions by elimination, the reference for
    the degree product of `fermat_hodge._socle_check`."""
    dims = tuple(ideal_hilbert_dims(generators, ctx.sigma + 1))
    socle = max((k for k, v in enumerate(dims) if v), default=None)
    return dims, socle, dims[ctx.sigma] == 1 and dims[ctx.sigma + 1] == 0


def assert_matches_elimination(monkeypatch, build):
    """build() gives the same whole report with the socle check eliminated."""
    from fermatcalc import fermat_hodge

    with monkeypatch.context() as patched:
        patched.setattr(fermat_hodge, "_socle_check", eliminated_socle_check)
        reference = build()
    report = build()
    assert report == reference
    return report


CROSS_CHECKED = [
    (n, d, (1,) * (n // 2 + 1) + (3,) * quadric, quadric)
    for n, d in ((2, 5), (2, 7), (4, 4), (4, 5), (6, 4))
    for quadric in (False, True)
]


@pytest.mark.parametrize("n,d,ks,quadric", CROSS_CHECKED,
                         ids=[f"{n}-{d}-{'-'.join(map(str, ks))}" for n, d, ks, _ in CROSS_CHECKED])
def test_decomposition_dims_match_elimination(n, d, ks, quadric, monkeypatch):
    ctx = FermatContext(n, d)
    f, g = standard_decomposition(ctx, ks, quadric)
    report = assert_matches_elimination(monkeypatch, lambda: complete_intersection_ideal(f, g, ctx))
    assert report.socle == ctx.sigma and report.socle_ok


@pytest.mark.parametrize("n,d", [(2, 5), (4, 4)])
def test_plane_socle_checks_match_elimination_over_every_pairing(n, d, monkeypatch):
    ctx = FermatContext(n, d)
    x = variables(ctx.nvars)
    alpha = tuple(range(1, 2 * (n // 2 + 1), 2))
    for pairing in all_pairings(n):
        forms = [x[p] - x[q].scale(root_of_unity(ctx.m, a)) for a, (p, q) in zip(alpha, pairing)]
        report = assert_matches_elimination(monkeypatch, lambda: plane_in_fermat(forms, ctx))
        assert report.contained and report.socle == ctx.sigma and report.socle_ok
        # the plane's ideal is the colon ideal of its linear cycle
        ci = ColonIdeal(linear_cycle_poly(alpha, ctx, pairing), ctx)
        for k in range(ctx.sigma + 1):
            assert ideal_slice(report.generators, k) == ci.slice(k), (pairing, k)


@pytest.mark.parametrize("n,d,quadric", [(2, 5, False), (4, 4, True)])
def test_koszul_twisted_decomposition_matches_elimination(n, d, quadric, monkeypatch):
    # f_1 (g_1 + h f_2) + f_2 (g_2 - h f_1) = f_1 g_1 + f_2 g_2
    ctx = FermatContext(n, d)
    f, g = standard_decomposition(ctx, (1,) * (n // 2 + 1) + (3,) * quadric, quadric)
    x = variables(ctx.nvars)
    degree = d - f[0].homogeneous_degree() - f[1].homogeneous_degree()
    h = x[0] ** degree - (x[2] * x[ctx.nvars - 1] ** (degree - 1)).scale(zeta(ctx.m))
    g[0], g[1] = g[0] + h * f[1], g[1] - h * f[0]
    report = assert_matches_elimination(monkeypatch, lambda: complete_intersection_ideal(f, g, ctx))
    assert report.socle == ctx.sigma and report.socle_ok


def partial(p, v):
    """dp/dx_v."""
    return Polynomial(p.nvars, [(e[:v] + (e[v] - 1,) + e[v + 1:], c * e[v])
                                for e, c in p.terms.items() if e[v]])


def complete_intersection_class(f, g, ctx):
    """det Jac(f_1, g_1, ..., f_(n/2+1), g_(n/2+1)), the class of the cycle
    {f_1 = ... = 0} up to scale (Villaflor Loyola, arXiv:1812.03964).  f_j and
    g_j are forms in x_(2j), x_(2j+1), so the Jacobian is block-diagonal and
    the determinant is prod_j (df_j/dx dg_j/dy - df_j/dy dg_j/dx)."""
    det = Polynomial.constant(ctx.nvars, 1)
    for j, (fj, gj) in enumerate(zip(f, g)):
        x, y = 2 * j, 2 * j + 1
        det = det * (partial(fj, x) * partial(gj, y) - partial(fj, y) * partial(gj, x))
    return det


@pytest.mark.parametrize("n,d,quadric", [(n, d, quadric) for n, d in ((2, 5), (2, 7), (4, 4), (4, 5))
                                         for quadric in (False, True)])
def test_complete_intersection_class_is_an_oracle_for_the_decomposition(n, d, quadric):
    ctx = FermatContext(n, d)
    ks = tuple(range(1, 2 * (n // 2 + 1 + quadric), 2))
    f, g = standard_decomposition(ctx, ks, quadric)
    report = complete_intersection_ideal(f, g, ctx)
    det = complete_intersection_class(f, g, ctx)
    assert ColonIdeal(det, ctx).hilbert_profile().dims == report.dims[: ctx.sigma + 1]
    if quadric:
        assert tangent_codim(det, ctx).value == second_minimum_bound(n, d)
    else:
        # each block is d a_j G(a_j): the plane's coefficients, scale prod_j d a_j
        a = tuple(root_of_unity(ctx.m, k) for k in ks)
        spec = recover_product_structure(det, ctx)
        assert spec.pairing == default_pairing(n) and spec.a == a
        assert spec.c_lambda == math.prod((v * d for v in a), start=CyclotomicNumber.one())


@pytest.mark.parametrize("n,d,quadric", [
    pytest.param(n, d, quadric, id=f"{n}-{d}" + "-quadric" * quadric)
    for n, d in ((2, 5), (2, 7), (4, 4), (4, 5)) for quadric in (False, True)])
def test_complete_intersection_class_slices_are_the_decomposition_ideal(n, d, quadric):
    # (J : P_Z)_k of the det Jac class against the reduced echelon slices of
    # the decomposition ideal, eliminated from the generators themselves, at
    # every degree: J + <f_1, ..., f_(n/2+1)> for type 1,...,1 (the closed
    # form), <f_1, g_1, ..., f_(n/2+1), g_(n/2+1)> for type 1,...,1,2
    ctx = FermatContext(n, d)
    ks = tuple(range(1, 2 * (n // 2 + 1 + quadric), 2))
    f, g = standard_decomposition(ctx, ks, quadric)
    ci = ColonIdeal(complete_intersection_class(f, g, ctx), ctx)
    gens = [*f, *g] if quadric else [*f, *(x ** (d - 1) for x in variables(ctx.nvars))]
    for k in range(ctx.sigma + 1):
        assert ci.slice(k) == ideal_slice(gens, k), k


def test_constant_factor_gives_the_unit_ideal(quintic_surface, monkeypatch):
    ctx = quintic_surface
    f, g = standard_decomposition(ctx, (1, 3), False)
    two = Polynomial.constant(ctx.nvars, 2)
    f[0], g[0] = two, (f[0] * g[0]).scale(Fraction(1, 2))
    report = assert_matches_elimination(monkeypatch, lambda: complete_intersection_ideal(f, g, ctx))
    assert report.dims == (0,) * (ctx.sigma + 2)
    assert report.socle is None and report.socle_ok is False
    assert report.tangent.value == 0


def test_plane_and_dan_ci_run_no_elimination(quintic_surface, monkeypatch, capsys):
    import json

    from fermatcalc import idealcalc
    from fermatcalc.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("an exact elimination ran")

    monkeypatch.setattr(idealcalc, "echelon", refuse)
    ctx = quintic_surface
    forms, cofactors = standard_decomposition(ctx, (1, 3), False)
    assert plane_in_fermat(forms, ctx).socle_ok
    f, g = standard_decomposition(ctx, (1, 1, 3), True)
    assert complete_intersection_ideal(f, g, ctx).socle_ok
    assert main(["plane", "--n", "2", "--d", "5", "--a", "z,z^3"]) == 0
    assert json.loads(capsys.readouterr().out)["socle_ok"] is True
    assert main(["dan-ci", "--n", "2", "--d", "5", "--type", "1,2", "--a", "z,z,z^3"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 3, 5, 6, 5, 3, 1, 0]


# ---------------------------------------------------------------------------
# special unit families (d = 3, 4, 6)
# ---------------------------------------------------------------------------


def test_unit_group_membership():
    i = root_of_unity(4, 1)
    assert in_special_unit_group(zeta(8) * ((3 + 4 * i) / 5).promote(8), 4)
    assert in_special_unit_group(zeta(8), 4)
    assert not in_special_unit_group((3 + 4 * i) / 5, 4)  # missing prefactor
    assert not in_special_unit_group(CyclotomicNumber.from_rational(2), 3)
    assert in_special_unit_group((8 + 5 * zeta(3)) / 7, 3)
    assert in_special_unit_group(i * ((8 + 5 * zeta(3)) / 7), 6)
    with pytest.raises(ValueError):
        in_special_unit_group(i, 5)


def test_special_family_quartic_surface():
    ctx = FermatContext(2, 4)
    i = root_of_unity(4, 1)
    a = (zeta(8) * ((3 + 4 * i) / 5).promote(8), zeta(8))
    result = special_family(4, a, ctx)
    assert result.certificate.all_rational
    assert result.j1_dim == 2
    # the first coefficient is genuinely away from the root locus
    assert not (a[0] ** 4 + 1).is_zero()


def test_special_family_root_point_is_a_linear_cycle_in_disguise():
    ctx = FermatContext(2, 4)
    result = special_family(4, (zeta(8), zeta(8)), ctx)
    assert result.certificate.all_rational
    assert result.j1_dim == 2


def test_special_family_cubic_fourfold():
    ctx = FermatContext(4, 3)
    u = (8 + 5 * zeta(3)) / 7
    a = (u, CyclotomicNumber.from_rational(-1), CyclotomicNumber.one())
    result = special_family(3, a, ctx)
    assert result.certificate.all_rational
    assert result.j1_dim == 3


def test_special_family_members_have_distinct_degree_one_slices():
    ctx = FermatContext(2, 4)
    i = root_of_unity(4, 1)
    first = special_family(4, (zeta(8) * ((3 + 4 * i) / 5).promote(8), zeta(8)), ctx)
    second = special_family(4, (zeta(8), zeta(8)), ctx)
    p1 = product_class_poly(first.spec, ctx)
    p2 = product_class_poly(second.spec, ctx)
    assert ColonIdeal(p1, ctx).slice(1) != ColonIdeal(p2, ctx).slice(1)


def test_special_family_pairs_rationally_over_every_coordinate_pairing():
    # the default certificate only covers the standard pairing; the full scan
    # over all pairings comes out rational as well (a discovered fact, pinned)
    ctx = FermatContext(2, 4)
    i = root_of_unity(4, 1)
    member = special_family(4, (zeta(8) * ((3 + 4 * i) / 5).promote(8), zeta(8)), ctx)
    poly = product_class_poly(member.spec, ctx)
    cert = rationality_certificate(poly, ctx, all_coordinate_pairings=True)
    assert cert.verdict == "all rational"
    assert len(cert.rows) == 3 * 16


def test_special_family_rejects_outsiders():
    ctx = FermatContext(2, 4)
    with pytest.raises(ValueError, match="unit family"):
        special_family(4, (CyclotomicNumber.from_rational(2), zeta(8)), ctx)
    with pytest.raises(ValueError):
        special_family(5, (zeta(10), zeta(10)), FermatContext(2, 5))


def special_by_linear_cycles(d, a, ctx):
    """The family member by building and pairing every linear cycle: the
    normalisation scan over `pair_classes`, then `rationality_certificate`."""
    from fermatcalc.idealcalc import pairing_product

    unnormalized = pairing_product(ctx, default_pairing(ctx.n), a, 1)
    alphas = itertools.product(range(1, 2 * d, 2), repeat=len(a))
    alpha, c = next((alpha, c) for alpha in alphas
                    if (c := pair_classes(unnormalized, linear_cycle_poly(alpha, ctx), ctx).c))
    class_poly = unnormalized.scale(scale := c.inverse())
    return alpha, scale, rationality_certificate(class_poly, ctx), ColonIdeal(class_poly, ctx).slice(1).dim


def assert_special_matches_linear_cycles(d, a, ctx):
    def value(c):
        return c.m, c.nums, c.den

    def rows(cert):
        return [(r.pairing, r.alpha, value(r.c), r.c_rational, r.flag) for r in cert.rows]

    result = special_family(d, a, ctx)
    alpha, scale, cert, j1_dim = special_by_linear_cycles(d, a, ctx)
    assert result.normalization_alpha == alpha
    assert value(result.spec.c_lambda) == value(scale)
    assert rows(result.certificate) == rows(cert)
    assert result.certificate.verdict == cert.verdict == "all rational"
    assert result.j1_dim == j1_dim


_i, _w = root_of_unity(4, 1), zeta(3)
PYTHAGOREAN = ((1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17))  # |x + y i| = r
EISENSTEIN = ((1, 0, 1), (8, 5, 7), (3, 8, 7), (7, 15, 13))  # |x + y zeta_3| = r


@st.composite
def special_unit(draw, d):
    """A member of the degree-d unit family, at a conductor of 1, 4 or 2d times its own."""
    if d == 4:
        x, y, r = draw(st.sampled_from(PYTHAGOREAN))
        sx, sy = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
        u = zeta(8) * (sx * x + sy * y * _i) / r * _i ** draw(st.integers(0, 3))
    else:
        x, y, r = draw(st.sampled_from(EISENSTEIN))
        if draw(st.booleans()):
            x, y = y, x
        u = draw(st.sampled_from((1, -1))) * (x + y * _w) / r * _w ** draw(st.integers(0, 2))
        u = u if d == 3 else _i * u
        if d == 3 and draw(st.booleans()):
            u = CyclotomicNumber.from_rational(draw(st.sampled_from((1, -1))))
    return u.promote(math.lcm(u.m, draw(st.sampled_from((1, 4, 2 * d)))))


@pytest.mark.parametrize("n,d,a", [
    (2, 4, (zeta(8), zeta(8))),  # the root point
    (2, 4, (zeta(8) * (3 + 4 * _i) / 5, zeta(8))),
    (4, 4, (zeta(8) * (5 - 12 * _i) / 13, zeta(8) * _i, -zeta(8))),
    (2, 3, (CyclotomicNumber.one(), -CyclotomicNumber.one())),  # 1 pairs to zero at alpha = 3
    (4, 3, (-CyclotomicNumber.one(), CyclotomicNumber.one(4), (8 + 5 * _w) / 7)),
    (2, 3, (_w**2, CyclotomicNumber.one())),  # zero at alpha = (1, 1): normalised at (3, 1)
    (2, 6, (_i, -_i)),
    (4, 6, (_i, _i * _w, -_i * (3 + 8 * _w) / 7)),
])
def test_special_family_matches_the_linear_cycle_route(n, d, a):
    assert_special_matches_linear_cycles(d, a, FermatContext(n, d))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_special_family_matches_the_linear_cycle_route_on_random_units(data):
    n, d = data.draw(st.sampled_from((2, 4))), data.draw(st.sampled_from((3, 4, 6)))
    a = tuple(data.draw(special_unit(d)) for _ in range(n // 2 + 1))
    assert_special_matches_linear_cycles(d, a, FermatContext(n, d))


def test_special_family_builds_no_linear_cycle(monkeypatch):
    from fermatcalc import fermat_hodge

    def refuse(*args, **kwargs):
        raise AssertionError("special_family builds or pairs a linear cycle")

    for name in ("linear_cycle_poly", "pair_classes", "rationality_certificate"):
        monkeypatch.setattr(fermat_hodge, name, refuse)
    result = special_family(4, (zeta(8) * (3 + 4 * _i) / 5, zeta(8)), FermatContext(2, 4))
    assert result.certificate.all_rational and len(result.certificate.rows) == 16


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


def test_product_class_colon_ideal_has_the_paired_binomial_presentation(quintic_surface):
    # for nonzero coefficients the colon ideal is generated by the pair
    # binomials together with the odd-variable powers, root or not
    ctx = quintic_surface
    x = variables(4)
    for coeffs in [
        (zeta(10), zeta(10) ** 7),
        (CyclotomicNumber.from_rational(2), zeta(10) + 1),
    ]:
        spec = ProductClassSpec(coeffs, CyclotomicNumber.one())
        ci = ColonIdeal(product_class_poly(spec, ctx), ctx)
        gens = [
            x[0] - x[1].scale(coeffs[0]),
            x[2] - x[3].scale(coeffs[1]),
            Polynomial.monomial(4, (0, 4, 0, 0)),
            Polynomial.monomial(4, (0, 0, 0, 4)),
        ]
        for k in range(ctx.sigma + 1):
            assert ideal_slice(gens, k) == ci.slice(k)


def test_rescaled_classes_share_slices_and_pair_proportionally(quintic_surface):
    # classes with identical colon slices in every degree differ by a scalar,
    # detected by pairing both against a common non-annihilating monomial class
    ctx = quintic_surface
    p = linear_cycle_poly((3, 7), ctx)
    q = p.scale(Fraction(5, 3))
    ci_p, ci_q = ColonIdeal(p, ctx), ColonIdeal(q, ctx)
    for k in range(ctx.sigma + 1):
        assert ci_p.slice(k) == ci_q.slice(k)
    socle = (ctx.d - 2,) * ctx.nvars
    gamma = next(
        m
        for m in monomials_of_degree(ctx.nvars, ctx.sigma)
        if min(a - b for a, b in zip(socle, m)) >= 0
        and not ci_p.reduced.coeff(tuple(a - b for a, b in zip(socle, m))).is_zero()
    )
    probe = Polynomial.monomial(ctx.nvars, gamma)
    cp = pair_classes(p, probe, ctx).c
    cq = pair_classes(q, probe, ctx).c
    assert not cp.is_zero()
    assert (cq / cp).as_rational() == Fraction(5, 3)


def test_plane_containment_iff_recovered_coefficients_are_roots(quintic_surface):
    # both directions on generated instances: the plane of a product class
    # lies in the hypersurface exactly when every coefficient satisfies
    # a^d = -1
    ctx = quintic_surface
    x = variables(4)
    cases = [
        ((root_of_unity(10, 3), root_of_unity(10, 9)), True),
        ((root_of_unity(10, 1), CyclotomicNumber.from_rational(2)), False),
        ((CyclotomicNumber.from_rational(Fraction(3, 2)), root_of_unity(10, 5)), False),
    ]
    for coeffs, expected in cases:
        spec = ProductClassSpec(coeffs, CyclotomicNumber.one())
        recovered = recover_product_structure(product_class_poly(spec, ctx), ctx)
        forms = [
            x[p] - x[q].scale(a) for (p, q), a in zip(recovered.pairing, recovered.a)
        ]
        report = plane_in_fermat(forms, ctx)
        assert report.contained is expected
        assert expected is all((a**ctx.d + 1).is_zero() for a in recovered.a)
