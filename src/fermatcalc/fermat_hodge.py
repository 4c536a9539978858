"""Hodge-class constructions and pairings on Fermat hypersurfaces.

A class is represented by its polynomial of socle degree
sigma = (d-2)(n/2+1).  Linear cycles (linear subvarieties cut out by
binomials x_p - zeta_{2d}^alpha x_q) and, more generally, product classes
built from geometric factors over a coordinate pairing are constructed
explicitly.  Intersection pairings are read off the socle coefficient of the
reduced product and normalized by the Hessian coefficient of the Fermat
polynomial; every value is exact, so rationality checks are coordinate
checks in a cyclotomic field.

The rational scale of a class polynomial is not pinned down by the geometry;
this module fixes the convention that linear-cycle polynomials carry scale 1.
All rationality verdicts are invariant under rational rescaling, so the
convention is harmless, and it is recorded in serialized pairing output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

from fermatcalc import bounds
from fermatcalc.echelon import echelon_insert
from fermatcalc.exactnum import CyclotomicNumber, root_of_unity, unit_circle_check, zeta
from fermatcalc.idealcalc import (
    ColonIdeal,
    FermatContext,
    SquareMembership,
    ideal_hilbert_dims,
    ideal_square_membership,
    reduce_mod_jacobian,
)
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    divide,
    geometric_factor,
    leading_term,
)

__all__ = [
    "LinearCycleSpec",
    "ProductClassSpec",
    "PairingResult",
    "CertificateRow",
    "RationalityCertificate",
    "RationalityScanReport",
    "PlaneContainment",
    "CompleteIntersectionReport",
    "SpecialFamilyResult",
    "default_pairing",
    "all_pairings",
    "linear_cycle_poly",
    "product_class_poly",
    "hessian_coefficient",
    "pair_classes",
    "rationality_certificate",
    "recover_product_structure",
    "rationality_scan",
    "plane_in_fermat",
    "complete_intersection_ideal",
    "special_family",
    "in_special_unit_group",
]


def default_pairing(n: int) -> tuple[tuple[int, int], ...]:
    """The coordinate pairing (x_0,x_1), (x_2,x_3), ..."""
    return tuple((2 * j, 2 * j + 1) for j in range(n // 2 + 1))


def all_pairings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every way to group the n+2 coordinates into unordered pairs, each pair
    normalized as (low, high), in lexicographic order."""
    result = []

    def rec(remaining: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not remaining:
            result.append(acc)
            return
        first = remaining[0]
        for other in remaining[1:]:
            rest = tuple(v for v in remaining[1:] if v != other)
            rec(rest, acc + ((first, other),))

    rec(tuple(range(n + 2)), ())
    return result


def _validate_pairing(pairing, nvars: int):
    flat = [v for pair in pairing for v in pair]
    if sorted(flat) != list(range(nvars)):
        raise ValueError(f"pairing {pairing} must cover each of {nvars} coordinates once")


@dataclass(frozen=True)
class LinearCycleSpec:
    """A linear cycle: exponents alpha (odd, in 1..2d-1, one per pair) over a
    coordinate pairing.  Pair (p, q) contributes the plane equation
    x_p - zeta_{2d}^alpha x_q = 0."""

    alpha: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...] | None = None

    def resolved_pairing(self, ctx: FermatContext) -> tuple[tuple[int, int], ...]:
        pairing = self.pairing if self.pairing is not None else default_pairing(ctx.n)
        _validate_pairing(pairing, ctx.nvars)
        if len(self.alpha) != len(pairing):
            raise ValueError(
                f"expected {len(pairing)} exponents, got {len(self.alpha)}"
            )
        return pairing

    def validate(self, ctx: FermatContext):
        self.resolved_pairing(ctx)
        for a in self.alpha:
            if a % 2 == 0 or not 1 <= a <= 2 * ctx.d - 1:
                raise ValueError(
                    f"exponent {a} must be odd and within 1..{2 * ctx.d - 1}"
                )


@dataclass(frozen=True)
class ProductClassSpec:
    """A product class: coefficients a_j over a coordinate pairing together
    with a nonzero scale."""

    a: tuple[CyclotomicNumber, ...]
    c_lambda: CyclotomicNumber
    pairing: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.c_lambda.is_zero():
            raise ValueError("scale must be nonzero")

    def resolved_pairing(self, n: int) -> tuple[tuple[int, int], ...]:
        pairing = self.pairing if self.pairing is not None else default_pairing(n)
        _validate_pairing(pairing, n + 2)
        if len(self.a) != len(pairing):
            raise ValueError(f"expected {len(pairing)} coefficients, got {len(self.a)}")
        return pairing


def linear_cycle_poly(spec, ctx: FermatContext) -> Polynomial:
    """The class polynomial of a linear cycle:
    zeta_{2d}^(sum alpha) * prod_j geometric_factor(p_j, q_j, zeta_{2d}^alpha_j).

    A bare exponent tuple is accepted in place of a spec.
    """
    if not isinstance(spec, LinearCycleSpec):
        spec = LinearCycleSpec(tuple(spec))
    spec.validate(ctx)
    pairing = spec.resolved_pairing(ctx)
    poly = Polynomial.constant(ctx.nvars, root_of_unity(ctx.m, sum(spec.alpha)))
    for (p, q), a in zip(pairing, spec.alpha):
        poly = poly * geometric_factor(ctx.nvars, p, q, root_of_unity(ctx.m, a), ctx.d)
    return poly


def product_class_poly(spec: ProductClassSpec, ctx: FermatContext) -> Polynomial:
    """The class polynomial c_lambda * prod_j geometric_factor(p_j, q_j, a_j)."""
    pairing = spec.resolved_pairing(ctx.n)
    poly = Polynomial.constant(ctx.nvars, spec.c_lambda)
    for (p, q), a in zip(pairing, spec.a):
        poly = poly * geometric_factor(ctx.nvars, p, q, a, ctx.d)
    return poly


def hessian_coefficient(ctx: FermatContext) -> CyclotomicNumber:
    """Coefficient of (x_0...x_{n+1})^(d-2) in det Hess(F) for the Fermat
    polynomial: the Hessian is diagonal, so this is (d(d-1))^(n+2)."""
    return CyclotomicNumber.from_rational((ctx.d * (ctx.d - 1)) ** ctx.nvars)


@dataclass(frozen=True)
class PairingResult:
    """Intersection pairing of two classes.

    c is the socle coefficient of the reduced product divided by the Hessian
    coefficient; the intersection number is the exact rational multiple
    -1/((n/2)!)^2 * (d-1)^(n+2) * d of c.  Values are reported modulo the
    rational scale ambiguity of the class polynomials.
    """

    c: CyclotomicNumber
    intersection: CyclotomicNumber
    c_rational: Fraction | None
    intersection_rational: Fraction | None
    non_socle: Polynomial


def pair_classes(p: Polynomial, q: Polynomial, ctx: FermatContext) -> PairingResult:
    if p.homogeneous_degree() != ctx.sigma or q.homogeneous_degree() != ctx.sigma:
        raise ValueError(f"both classes must be homogeneous of degree {ctx.sigma}")
    reduced = reduce_mod_jacobian(p * q, ctx)
    socle = (ctx.d - 2,) * ctx.nvars
    socle_coeff = reduced.coeff(socle)
    non_socle = reduced - Polynomial.monomial(ctx.nvars, socle, socle_coeff)
    c = socle_coeff / hessian_coefficient(ctx)
    half = ctx.n // 2
    factor = Fraction(-(ctx.d - 1) ** ctx.nvars * ctx.d, math.factorial(half) ** 2)
    intersection = c * factor
    return PairingResult(
        c=c,
        intersection=intersection,
        c_rational=c.as_rational(),
        intersection_rational=intersection.as_rational(),
        non_socle=non_socle,
    )


# ---------------------------------------------------------------------------
# Rationality certificates over linear cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateRow:
    pairing: tuple[tuple[int, int], ...]
    alpha: tuple[int, ...]
    c: CyclotomicNumber
    c_rational: Fraction | None
    flag: str  # "rational" | "irrational" | "zero"


@dataclass(frozen=True)
class RationalityCertificate:
    rows: tuple[CertificateRow, ...]
    verdict: str  # "all rational" | "counterexample"
    counterexample: CertificateRow | None

    @property
    def all_rational(self) -> bool:
        return self.verdict == "all rational"


def _certificate_row(p, ctx, pairing, alpha) -> CertificateRow:
    delta = linear_cycle_poly(LinearCycleSpec(alpha, pairing), ctx)
    result = pair_classes(p, delta, ctx)
    if result.c.is_zero():
        flag = "zero"
    elif result.c_rational is not None:
        flag = "rational"
    else:
        flag = "irrational"
    return CertificateRow(pairing, alpha, result.c, result.c_rational, flag)


def _certificate_chunk(args) -> list[CertificateRow]:
    p, ctx, items = args
    return [_certificate_row(p, ctx, pairing, alpha) for pairing, alpha in items]


def rationality_certificate(
    p: Polynomial,
    ctx: FermatContext,
    all_coordinate_pairings: bool = False,
    jobs: int = 1,
) -> RationalityCertificate:
    """Pair a class against every linear cycle and certify the rationality of
    the outcomes.

    By default the scan covers the d^(n/2+1) exponent tuples over the
    standard coordinate pairing; with `all_coordinate_pairings` it covers
    every pairing.  Work is distributed over `jobs` processes and gathered in
    enumeration order, so output does not depend on the worker count.
    """
    if p.homogeneous_degree() != ctx.sigma:
        raise ValueError(f"class must be homogeneous of degree {ctx.sigma}")
    pairings = all_pairings(ctx.n) if all_coordinate_pairings else [default_pairing(ctx.n)]
    odd = range(1, 2 * ctx.d, 2)
    items = [
        (pairing, alpha)
        for pairing in pairings
        for alpha in itertools.product(odd, repeat=ctx.n // 2 + 1)
    ]
    if jobs > 1 and len(items) > 1:
        chunks = max(1, len(items) // (4 * jobs))
        payload = [
            (p, ctx, items[i : i + chunks]) for i in range(0, len(items), chunks)
        ]
        with Pool(processes=jobs) as pool:
            rows = [row for part in pool.map(_certificate_chunk, payload) for row in part]
    else:
        rows = [_certificate_row(p, ctx, pairing, alpha) for pairing, alpha in items]
    counterexample = next((r for r in rows if r.flag == "irrational"), None)
    verdict = "all rational" if counterexample is None else "counterexample"
    return RationalityCertificate(tuple(rows), verdict, counterexample)


# ---------------------------------------------------------------------------
# Structure recovery
# ---------------------------------------------------------------------------


def recover_product_structure(p: Polynomial, ctx: FermatContext) -> ProductClassSpec:
    """Recover the coefficients, pairing and scale of a product class from
    the degree-one slice of its colon ideal.

    Raises ValueError("no product structure") when that slice does not have
    dimension n/2+1, and ValueError("violates product shape") when the
    echelonized linear forms are not binomials x_p - a*x_q or the rebuilt
    product does not reproduce p.
    """
    ci = ColonIdeal(p, ctx)
    s1 = ci.slice(1)
    half = ctx.n // 2 + 1
    if s1.dim != half:
        raise ValueError("no product structure")
    pivots: list[int] = []
    partners: dict[int, tuple[int, CyclotomicNumber | None]] = {}
    for form in s1.basis:
        items = form.sorted_terms(ci.order)
        lead = items[0][0].index(1)
        if len(items) == 1:
            partners[lead] = (-1, None)  # partner assigned below
        elif len(items) == 2:
            other = items[1][0].index(1)
            partners[lead] = (other, -items[1][1])
        else:
            raise ValueError("violates product shape")
        pivots.append(lead)
    used = {q for q, _ in partners.values() if q >= 0}
    if len(used) != sum(1 for q, _ in partners.values() if q >= 0):
        raise ValueError("violates product shape")
    free = [
        v for v in range(ctx.nvars) if v not in partners and v not in used
    ]
    pairs = []
    coeffs = []
    for lead in sorted(partners):
        q, a = partners[lead]
        if q < 0:
            q = free.pop(0)
            a = CyclotomicNumber.zero()
        pairs.append((lead, q))
        coeffs.append(a)
    rebuilt = Polynomial.constant(ctx.nvars, 1)
    for (pv, qv), a in zip(pairs, coeffs):
        rebuilt = rebuilt * geometric_factor(ctx.nvars, pv, qv, a, ctx.d)
    anchor, anchor_coeff = leading_term(rebuilt, ci.order)
    c_lambda = p.coeff(anchor) / anchor_coeff
    if c_lambda.is_zero() or rebuilt.scale(c_lambda) != p:
        raise ValueError("violates product shape")
    return ProductClassSpec(tuple(coeffs), c_lambda, tuple(pairs))


# ---------------------------------------------------------------------------
# The rationality scan on a single coefficient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalityScanReport:
    """Outcome of scanning the pairing-ratio rationality conditions on a.

    direct: whether a^d + 1 = 0.
    scan:   whether (a^(d-1)+x)(ay-1) / ((a^(d-1)+y)(ax-1)) is rational for
            every well-defined pair x, y among the odd powers of zeta_{2d}.
    cross_ratio: the obstruction value -1 - (zeta_d + zeta_d^(-1)); when it
            is irrational, a passing scan forces the direct condition.
    """

    d: int
    a: CyclotomicNumber
    direct: bool
    scan: bool
    witness: tuple[int, int, CyclotomicNumber] | None
    cross_ratio: CyclotomicNumber
    cross_ratio_rational: bool


def rationality_scan(a, d: int) -> RationalityScanReport:
    if d < 3:
        raise ValueError("degree must be at least 3")
    if not isinstance(a, CyclotomicNumber):
        a = CyclotomicNumber.from_rational(a)
    m = math.lcm(a.m, 2 * d)
    av = a.promote(m)
    a_pow = av ** (d - 1)
    odd_powers = [(k, root_of_unity(2 * d, k).promote(m)) for k in range(1, 2 * d, 2)]
    direct = (av**d + 1).is_zero()
    scan = True
    witness = None
    for (r, x), (s, y) in itertools.product(odd_powers, repeat=2):
        den = (a_pow + y) * (av * x - 1)
        if den.is_zero():
            continue
        value = (a_pow + x) * (av * y - 1) / den
        if value.as_rational() is None:
            scan = False
            witness = (r, s, value)
            break
    zd = zeta(d)
    cross_ratio = -1 - (zd + zd.inverse())
    cross_rational = cross_ratio.as_rational() is not None
    if scan and not cross_rational and not direct:
        raise RuntimeError(
            "scan passed with an irrational cross ratio but a^d + 1 != 0; "
            "this contradicts the forcing argument"
        )
    return RationalityScanReport(
        d=d,
        a=a,
        direct=direct,
        scan=scan,
        witness=witness,
        cross_ratio=cross_ratio,
        cross_ratio_rational=cross_rational,
    )


# ---------------------------------------------------------------------------
# Planes inside the Fermat hypersurface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneContainment:
    contained: bool
    residual: Polynomial
    quotients: tuple[Polynomial, ...] | None
    generators: tuple[Polynomial, ...] | None
    socle: int | None
    socle_ok: bool | None


def plane_in_fermat(forms, ctx: FermatContext) -> PlaneContainment:
    """Decide whether the linear subspace {L_1 = ... = L_{n/2+1} = 0} lies in
    the Fermat hypersurface.

    The plane is parametrized by solving the echelonized forms for their
    pivot variables and substituting into F; containment means the
    restriction vanishes identically.  On containment the cofactors Q_i with
    F = sum L_i Q_i are produced by dividing F by the echelon forms and
    transforming back, and the ideal <L_i, Q_i> is returned together with a
    socle check (quotient dimension 1 in degree sigma, 0 above).
    """
    forms = list(forms)
    half = ctx.n // 2 + 1
    if len(forms) != half:
        raise ValueError(f"expected {half} linear forms")
    for L in forms:
        if L.nvars != ctx.nvars or L.homogeneous_degree() != 1:
            raise ValueError("inputs must be homogeneous linear forms")
    # Echelonize the coefficient matrix; form i carries the tag column
    # nvars + i, which tracks the row transformation.
    width = ctx.nvars
    pivots: dict[int, dict[int, CyclotomicNumber]] = {}
    for i, L in enumerate(forms):
        row = {e.index(1): c for e, c in L.terms.items()}
        row[width + i] = CyclotomicNumber.one()
        echelon_insert(pivots, row, width)
    if len(pivots) != half:
        raise ValueError("linear forms are dependent")
    pivot_vars = sorted(pivots)
    F = ctx.fermat_polynomial()
    restricted = F
    for pv in pivot_vars:
        replacement = Polynomial(
            ctx.nvars,
            [
                (tuple(1 if t == c else 0 for t in range(ctx.nvars)), -v)
                for c, v in pivots[pv].items()
                if c != pv and c < width
            ],
        )
        restricted = restricted.substitute_linear(pv, replacement)
    if not restricted.is_zero():
        return PlaneContainment(False, restricted, None, None, None, None)
    # Divide F by the echelon forms under a pivot-first order, then transform
    # the quotients back to the original forms.
    priority = tuple(pivot_vars) + tuple(
        v for v in range(ctx.nvars) if v not in pivots
    )
    order = MonomialOrder(priority)
    echelon_forms = [
        Polynomial(
            ctx.nvars,
            [
                (tuple(1 if t == c else 0 for t in range(ctx.nvars)), v)
                for c, v in pivots[pv].items()
                if c < width
            ],
        )
        for pv in pivot_vars
    ]
    hat_quotients, remainder = divide(F, echelon_forms, order)
    if not remainder.is_zero():
        raise RuntimeError("division remainder should vanish on a contained plane")
    quotients = []
    for j in range(half):
        q = Polynomial.zero(ctx.nvars)
        for i, pv in enumerate(pivot_vars):
            t = pivots[pv].get(width + j)
            if t is not None:
                q = q + hat_quotients[i].scale(t)
        quotients.append(q)
    rebuilt = Polynomial.zero(ctx.nvars)
    for L, q in zip(forms, quotients):
        rebuilt = rebuilt + L * q
    if rebuilt != F:
        raise RuntimeError("cofactor reconstruction failed")
    generators = tuple(forms) + tuple(quotients)
    top = ideal_hilbert_dims(generators, ctx.sigma + 1)
    socle = max((k for k, v in enumerate(top) if v), default=None)
    socle_ok = top[ctx.sigma] == 1 and top[ctx.sigma + 1] == 0
    return PlaneContainment(True, restricted, tuple(quotients), generators, socle, socle_ok)


# ---------------------------------------------------------------------------
# Complete intersection ideals from a decomposition of F
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompleteIntersectionReport:
    generators: tuple[Polynomial, ...]
    dims: tuple[int, ...]  # quotient dimensions, degrees 0..sigma+1
    socle: int | None
    socle_ok: bool
    square: SquareMembership
    tangent: "bounds.BoundReport"


def complete_intersection_ideal(f, g, ctx: FermatContext) -> CompleteIntersectionReport:
    """The ideal generated by a complete-intersection decomposition
    F = sum f_i g_i, with its quotient dimensions (by degreewise echelon
    spans), socle check, and membership of F in the ideal's square."""
    f, g = list(f), list(g)
    if len(f) != len(g) or len(f) != ctx.n // 2 + 1:
        raise ValueError(f"expected {ctx.n // 2 + 1} factor pairs")
    total = Polynomial.zero(ctx.nvars)
    for fi, gi in zip(f, g):
        df, dg = fi.homogeneous_degree(), gi.homogeneous_degree()
        if df is None or dg is None or df + dg != ctx.d:
            raise ValueError(f"factor degrees must sum to {ctx.d}")
        total = total + fi * gi
    if total != ctx.fermat_polynomial():
        raise ValueError("not a decomposition of F")
    generators = tuple(v for pair in zip(f, g) for v in pair)
    dims = tuple(ideal_hilbert_dims(generators, ctx.sigma + 1))
    socle = max((k for k, v in enumerate(dims) if v), default=None)
    socle_ok = dims[ctx.sigma] == 1 and dims[ctx.sigma + 1] == 0
    square = ideal_square_membership(ctx.fermat_polynomial(), generators)
    tangent = bounds.codim_report(dims[ctx.d], ctx.n, ctx.d)
    return CompleteIntersectionReport(generators, dims, socle, socle_ok, square, tangent)


# ---------------------------------------------------------------------------
# Special families for d = 3, 4, 6
# ---------------------------------------------------------------------------

_UNIT_PREFACTOR = {3: (1, 1), 4: (8, 1), 6: (4, 1)}  # (conductor, exponent)
_UNIT_FIELD = {3: 3, 4: 4, 6: 3}


def in_special_unit_group(a: CyclotomicNumber, d: int) -> bool:
    """Membership in the degree-d unit family: after stripping the fixed
    prefactor (1, zeta_8, or i for d = 3, 4, 6), the value must lie in the
    quadratic cyclotomic field of the family and on the unit circle."""
    if d not in _UNIT_PREFACTOR:
        raise ValueError("special families exist only for d in {3, 4, 6}")
    pm, pk = _UNIT_PREFACTOR[d]
    u = a / root_of_unity(pm, pk)
    target = _UNIT_FIELD[d]
    u = u.promote(math.lcm(u.m, target))
    try:
        u = u.demote(target)
    except ValueError:
        return False
    return unit_circle_check(u)


@dataclass(frozen=True)
class SpecialFamilyResult:
    spec: ProductClassSpec
    certificate: RationalityCertificate
    j1_dim: int
    normalization_alpha: tuple[int, ...]


def special_family(d: int, a, ctx: FermatContext) -> SpecialFamilyResult:
    """Build the normalized product class for a tuple of special units and
    certify that it pairs rationally with every standard linear cycle.

    The scale is the inverse of the first nonzero linear-cycle pairing
    coefficient in lexicographic exponent order.
    """
    if ctx.d != d:
        raise ValueError("context degree does not match the family degree")
    a = tuple(v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v) for v in a)
    if len(a) != ctx.n // 2 + 1:
        raise ValueError(f"expected {ctx.n // 2 + 1} coefficients")
    for j, coeff in enumerate(a):
        if not in_special_unit_group(coeff, d):
            raise ValueError(f"coefficient {j} is not in the degree-{d} unit family")
    unnormalized = Polynomial.constant(ctx.nvars, 1)
    for (p, q), coeff in zip(default_pairing(ctx.n), a):
        unnormalized = unnormalized * geometric_factor(ctx.nvars, p, q, coeff, ctx.d)
    normalization = None
    scale = None
    for alpha in itertools.product(range(1, 2 * d, 2), repeat=ctx.n // 2 + 1):
        c = pair_classes(unnormalized, linear_cycle_poly(alpha, ctx), ctx).c
        if not c.is_zero():
            normalization = alpha
            scale = c.inverse()
            break
    if scale is None:
        raise ValueError("all pairing coefficients vanish; cannot normalize")
    spec = ProductClassSpec(a, scale, default_pairing(ctx.n))
    class_poly = unnormalized.scale(scale)
    certificate = rationality_certificate(class_poly, ctx)
    if not certificate.all_rational:
        raise ValueError("family member pairs irrationally with a linear cycle")
    j1_dim = ColonIdeal(class_poly, ctx).slice(1).dim
    return SpecialFamilyResult(spec, certificate, j1_dim, normalization)
