"""Hodge-class constructions and pairings on Fermat hypersurfaces.

A class is represented by its polynomial of socle degree
sigma = (d-2)(n/2+1).  Linear cycles (linear subvarieties cut out by
binomials x_p - zeta_{2d}^alpha x_q) and, more generally, product classes
built from geometric factors over a coordinate pairing are constructed
explicitly.  Intersection pairings are read off the socle coefficient of the
product mod J, the dot product sum_e p_e q_(socle-e) over the terms of one
class, and normalized by the Hessian coefficient of the Fermat polynomial;
every value is exact, so rationality checks are coordinate checks in a
cyclotomic field.

The ideal of a decomposition F = sum_i f_i g_i (a plane's L_i, Q_i or a
complete-intersection type's f_i, g_i) needs no elimination.  A common zero
of its n+2 generators would be a zero of F and of every dF/dx_k =
sum_i (df_i/dx_k g_i + f_i dg_i/dx_k), a singular point of the smooth Fermat
hypersurface.  So the n+2 forms have no common zero in P^(n+1) and are a
regular sequence in the n+2 variables, and the quotient has Hilbert series
prod_i (1 + t + ... + t^(e_i - 1)) over their degrees e_i (Stanley, Hilbert
functions of graded algebras, Adv. Math. 28 (1978)).  A constant generator
gives the unit ideal, and its factor is the empty sum: every dimension is 0.

The rational scale of a class polynomial is not pinned down by the geometry;
this module fixes the convention that linear-cycle polynomials carry scale 1.
All rationality verdicts are invariant under rational rescaling, so the
convention is harmless, and it is recorded in serialized pairing output.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from fermatcalc import bounds
from fermatcalc.exactnum import (CyclotomicNumber, check_conductor, euler_phi, root_of_unity,
                                 unit_circle_check, zeta)
from fermatcalc.idealcalc import (FermatContext, pairing_product, product_structure, reduce_class,
                                  solve_linear_forms)
from fermatcalc.multipoly import Monomial, Polynomial, monomial_div
from fermatcalc.record import Record

__all__ = [
    "ProductClassSpec",
    "PairingResult",
    "CertificateRow",
    "RationalityCertificate",
    "RationalityScanReport",
    "PlaneContainment",
    "SquareMembership",
    "CompleteIntersectionReport",
    "SpecialFamilyResult",
    "default_pairing",
    "all_pairings",
    "linear_cycle_poly",
    "product_class_poly",
    "hessian_coefficient",
    "pair_classes",
    "rationality_certificate",
    "CERTIFICATE_MAX_WORK",
    "recover_product_structure",
    "rationality_scan",
    "PROP11_MAX_WORK",
    "check_prop11_size",
    "SOCLE_MAX_WORK",
    "check_socle_size",
    "plane_term_pairs",
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


def _resolve_pairing(pairing, n: int, count: int, noun: str) -> tuple[tuple[int, int], ...]:
    """`pairing`, or the default one when it is None, checked to cover the
    n+2 coordinates once and to have one pair for each of `count` `noun`."""
    pairing = pairing if pairing is not None else default_pairing(n)
    if sorted(v for pair in pairing for v in pair) != list(range(n + 2)):
        raise ValueError(f"pairing {pairing} must cover each of {n + 2} coordinates once")
    if count != len(pairing):
        raise ValueError(f"expected {len(pairing)} {noun}, got {count}")
    return pairing


class ProductClassSpec(Record):
    """A product class: coefficients a_j over a coordinate pairing together
    with a nonzero scale."""

    a: tuple[CyclotomicNumber, ...]
    c_lambda: CyclotomicNumber
    pairing: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.c_lambda.is_zero():
            raise ValueError("scale must be nonzero")


def linear_cycle_poly(alpha, ctx: FermatContext, pairing=None) -> Polynomial:
    """The class polynomial of the linear cycle x_p - zeta_{2d}^alpha_j x_q = 0
    over each pair (p, q) of `pairing` (default `default_pairing`), alpha_j odd
    in 1..2d-1: zeta_{2d}^(sum alpha) * prod_j geometric_factor(p_j, q_j, zeta_{2d}^alpha_j)."""
    pairing = _resolve_pairing(pairing, ctx.n, len(alpha), "exponents")
    for a in alpha:
        if a % 2 == 0 or not 1 <= a <= 2 * ctx.d - 1:
            raise ValueError(
                f"exponent {a} must be odd and within 1..{2 * ctx.d - 1}"
            )
    coeffs = [root_of_unity(ctx.m, a) for a in alpha]
    scale = root_of_unity(ctx.m, sum(alpha))
    return pairing_product(ctx, pairing, coeffs, scale)


def product_class_poly(spec: ProductClassSpec, ctx: FermatContext) -> Polynomial:
    """The class polynomial c_lambda * prod_j geometric_factor(p_j, q_j, a_j)."""
    pairing = _resolve_pairing(spec.pairing, ctx.n, len(spec.a), "coefficients")
    return pairing_product(ctx, pairing, spec.a, spec.c_lambda)


def hessian_coefficient(ctx: FermatContext) -> CyclotomicNumber:
    """Coefficient of (x_0...x_{n+1})^(d-2) in det Hess(F) for the Fermat
    polynomial: the Hessian is diagonal, so this is (d(d-1))^(n+2)."""
    return CyclotomicNumber.from_rational((ctx.d * (ctx.d - 1)) ** ctx.nvars)


class PairingResult(Record):
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


def pair_classes(p: Polynomial, q: Polynomial, ctx: FermatContext) -> PairingResult:
    """p*q has degree 2 sigma, the socle degree of the Jacobian ring, so mod J
    it is the socle monomial times the dot product sum_e p_e q_(socle-e).  As
    in `Polynomial.__mul__`, a cancelled partial sum keeps its conductor, and
    a zero sum is the conductor-1 zero."""
    if p.nvars != ctx.nvars or q.nvars != ctx.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} and {q.nvars}, expected {ctx.nvars}")
    if p.homogeneous_degree() != ctx.sigma or q.homogeneous_degree() != ctx.sigma:
        raise ValueError(f"both classes must be homogeneous of degree {ctx.sigma}")
    socle = (ctx.d - 2,) * ctx.nvars
    lookups = ((a, q.terms.get(monomial_div(socle, e))) for e, a in p.terms.items())
    dot = sum((a * b for a, b in lookups if b is not None), CyclotomicNumber.zero())
    c = (dot or CyclotomicNumber.zero()) / hessian_coefficient(ctx)
    half = ctx.n // 2
    factor = Fraction(-(ctx.d - 1) ** ctx.nvars * ctx.d, math.factorial(half) ** 2)
    intersection = c * factor
    return PairingResult(c, intersection, c.as_rational(), intersection.as_rational())


# ---------------------------------------------------------------------------
# Rationality certificates over linear cycles
# ---------------------------------------------------------------------------


class CertificateRow(Record):
    pairing: tuple[tuple[int, int], ...]
    alpha: tuple[int, ...]
    c: CyclotomicNumber
    c_rational: Fraction | None
    flag: str  # "rational" | "irrational" | "zero"


class RationalityCertificate(Record):
    rows: tuple[CertificateRow, ...]
    verdict: str  # "all rational" | "counterexample"
    counterexample: CertificateRow | None

    @property
    def all_rational(self) -> bool:
        return self.verdict == "all rational"


# Most rows * |P| * (d-1)^(n/2+1) term pairs a rationality certificate accepts,
# rows = pairings * d^(n/2+1).  The count overstates the work: each `certify`
# row builds one linear cycle of (d-1)^(n/2+1) terms and does |P| lookups into
# it, and `special_family` builds no linear cycle at all.  It is kept so that
# the same inputs are refused.  On a 2-core x86_64 host,
# `certify --alpha 1,1,1` at (4, 7) (1.6e7) takes 1.3-1.8 s and at (4, 5) with
# all 15 pairings (7.7e6) 1.5-1.8 s; (4, 9) (1.9e8) and (2, 20) (5.2e7) are
# refused.
CERTIFICATE_MAX_WORK = 20_000_000


def _check_certificate_size(ctx: FermatContext, terms: int, all_coordinate_pairings: bool) -> None:
    """Refuse a certificate above CERTIFICATE_MAX_WORK for a class of `terms`
    terms, counted before any linear cycle is built."""
    half = ctx.n // 2 + 1
    pairings = math.prod(range(1, ctx.n + 2, 2)) if all_coordinate_pairings else 1
    work = pairings * ctx.d**half * terms * (ctx.d - 1) ** half
    if work > CERTIFICATE_MAX_WORK:
        raise ValueError(
            f"(n, d) = ({ctx.n}, {ctx.d}) with {terms} class terms needs rows * |P| * "
            f"(d-1)^(n/2+1) = {work} term pairs, above the certificate limit of {CERTIFICATE_MAX_WORK}"
        )


def _certificate_row(pairing, alpha, c: CyclotomicNumber) -> CertificateRow:
    """The row of pairing coefficient c, flagged zero, rational or irrational."""
    c_rational = c.as_rational()
    flag = "zero" if c.is_zero() else "irrational" if c_rational is None else "rational"
    return CertificateRow(pairing, alpha, c, c_rational, flag)


def _certificate(entries) -> RationalityCertificate:
    """The certificate of the (pairing, alpha, c) rows in order; the first
    irrational row is the counterexample."""
    rows = tuple(_certificate_row(*entry) for entry in entries)
    counterexample = next((r for r in rows if r.flag == "irrational"), None)
    verdict = "all rational" if counterexample is None else "counterexample"
    return RationalityCertificate(rows, verdict, counterexample)


def rationality_certificate(
    p: Polynomial,
    ctx: FermatContext,
    all_coordinate_pairings: bool = False,
) -> RationalityCertificate:
    """Pair a class against every linear cycle and certify the rationality of
    the outcomes.

    By default the scan covers the d^(n/2+1) exponent tuples over the
    standard coordinate pairing; with `all_coordinate_pairings` it covers
    every pairing.  Rows follow that enumeration order.
    """
    if p.homogeneous_degree() != ctx.sigma:
        raise ValueError(f"class must be homogeneous of degree {ctx.sigma}")
    _check_certificate_size(ctx, len(p.terms), all_coordinate_pairings)
    pairings = all_pairings(ctx.n) if all_coordinate_pairings else [default_pairing(ctx.n)]
    odd = range(1, 2 * ctx.d, 2)
    return _certificate(
        (pairing, alpha, pair_classes(p, linear_cycle_poly(alpha, ctx, pairing), ctx).c)
        for pairing in pairings
        for alpha in itertools.product(odd, repeat=ctx.n // 2 + 1)
    )


# ---------------------------------------------------------------------------
# Structure recovery
# ---------------------------------------------------------------------------


def recover_product_structure(p: Polynomial, ctx: FermatContext) -> ProductClassSpec:
    """Recover the coefficients, pairing and scale of a product class
    c * prod_j G(a_j), G(a) = sum_s x_p^(d-2-s) (a x_q)^s, from its support
    by `idealcalc.product_structure`: its colon ideal is J + <x_p - a_j x_q>
    (`idealcalc` module docstring), so nothing is eliminated.

    Raises ValueError("no product structure") unless p has the (d-1)^k terms
    of a product with k nonzero a_j and every term but the lead is a_j times
    its neighbour one step back along a pair, the proof.
    """
    reduce_class(p, ctx)
    structure = product_structure(p, ctx)
    if structure is None:
        raise ValueError("no product structure")
    pairs, coeffs, c_lambda = structure
    return ProductClassSpec(coeffs, c_lambda, pairs)


# ---------------------------------------------------------------------------
# The rationality scan on a single coefficient
# ---------------------------------------------------------------------------


class RationalityScanReport(Record):
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


# Most d^2 phi(L)^3 the rationality scan accepts, L = lcm(conductor of a, 2d).
# The scan takes 2d field inverses of cost about phi(L)^3 and up to d^2 field
# products of cost about phi(L)^2, so the count overstates it about phi(L)-fold.
# a = zeta_2d at d = 29 (1.8e7) passes; d = 39 (2.1e7) is refused.
PROP11_MAX_WORK = 20_000_000


def check_prop11_size(d: int, m: int) -> None:
    """Refuse a rationality scan at degree d over Q(zeta_m) above PROP11_MAX_WORK.
    2d divides the scan's conductor, so m = 2d is a lower bound, checkable before a is parsed."""
    check_conductor(m)
    if (work := d * d * euler_phi(m) ** 3) > PROP11_MAX_WORK:
        raise ValueError(f"d = {d} over Q(zeta_{m}) needs d^2 phi^3 = {work} steps, "
                         f"above the prop11 limit of {PROP11_MAX_WORK}")


def rationality_scan(a, d: int) -> RationalityScanReport:
    if d < 3:
        raise ValueError("degree must be at least 3")
    if not isinstance(a, CyclotomicNumber):
        a = CyclotomicNumber.from_rational(a)
    m = math.lcm(a.m, 2 * d)
    check_prop11_size(d, m)
    av = a.promote(m)
    a_pow = av ** (d - 1)
    odd_powers = [(k, root_of_unity(2 * d, k).promote(m)) for k in range(1, 2 * d, 2)]
    direct = (av**d + 1).is_zero()
    # The pair value is u(x) t(y); a pair where either factor is undefined is skipped.
    us = [(r, (a_pow + x) / (av * x - 1)) for r, x in odd_powers if not (av * x - 1).is_zero()]
    ts = [(s, (av * y - 1) / (a_pow + y)) for s, y in odd_powers if not (a_pow + y).is_zero()]
    witness = None
    for (r, u), (s, t) in itertools.product(us, ts):
        if (value := u * t).as_rational() is None:
            witness = (r, s, value)
            break
    zd = zeta(d)
    cross_ratio = -1 - (zd + zd.inverse())
    cross_rational = cross_ratio.as_rational() is not None
    if witness is None and not cross_rational and not direct:
        raise RuntimeError(
            "scan passed with an irrational cross ratio but a^d + 1 != 0; "
            "this contradicts the forcing argument"
        )
    return RationalityScanReport(
        d=d,
        a=a,
        direct=direct,
        scan=witness is None,
        witness=witness,
        cross_ratio=cross_ratio,
        cross_ratio_rational=cross_rational,
    )


# ---------------------------------------------------------------------------
# Planes inside the Fermat hypersurface
# ---------------------------------------------------------------------------


# Most steps that `plane_in_fermat` and `complete_intersection_ideal` accept:
# their coefficient products over Q(zeta_L), each (phi(L)+128)^2 steps, the
# schoolbook product of phi coordinates plus a fixed cost that rational
# coefficients measure at about 128^2 coordinate products.  The socle check
# itself reads its dimensions off the generator degrees in O(sigma) per
# generator.  On a 2-core x86_64 host `plane --n 2 --a z,z` takes 0.03 s at
# d = 70 and 1.1 s at d = 600 (9.6e8 steps); the slowest accepted requests,
# `dan-ci --type 1,...,1,2` over conductors with many prime factors (dense
# products), take about 5 s.
SOCLE_MAX_WORK = 1_000_000_000


def check_socle_size(ctx: FermatContext, pairs: int, L: int | None = None) -> None:
    """Refuse a plane or decomposition of F whose `pairs` coefficient products
    over Q(zeta_L) take more than SOCLE_MAX_WORK steps.  Without L the count
    takes phi(L) = 1, its least value, so that the command line can refuse
    before it parses a coefficient (which builds the field)."""
    phi = 1 if L is None else euler_phi(L)
    work = pairs * (phi + 128) ** 2
    if work > SOCLE_MAX_WORK:
        field, bound = ("", "at least ") if L is None else (f" over Q(zeta_{L})", "")
        raise ValueError(
            f"(n, d) = ({ctx.n}, {ctx.d}){field} needs {bound}{pairs} term pairs (phi+128)^2 = "
            f"{work} steps, above the socle-check limit of {SOCLE_MAX_WORK}"
        )


def plane_term_pairs(ctx: FermatContext, r: int = 1) -> int:
    """Coefficient products of `plane_in_fermat` for echelon rows with at most
    r free variables (r = 1 for binomials): (n/2+1)^2 (r+1) C(d-1+r, r).

    The n/2+1 rows x_p - r_p take the powers r_p^s for s <= d, each of at
    most C(s-1+r, r-1) terms and r products per term of the last; the
    quotient sum_{s<d} x_p^(d-1-s) r_p^s of a row has at most C(d-1+r, r)
    terms.  Each cofactor combines up to n/2+1 quotients, one product per
    term, and the check sum_i L_i Q_i multiplies it by its form."""
    half = ctx.n // 2 + 1
    return half * half * (r + 1) * math.comb(ctx.d - 1 + r, r)


def _conductor(inputs) -> int:
    return math.lcm(*(c.m for v in inputs for c in v.terms.values()))


def _socle_check(generators, ctx: FermatContext) -> tuple[tuple[int, ...], int | None, bool]:
    """Quotient dimensions in degrees 0..sigma+1 (module docstring), the top nonzero
    degree, and whether the quotient is one-dimensional in degree sigma and zero above."""
    # prod (1 + t + ... + t^(e-1)) over the generator degrees e
    dims = tuple(bounds.divisor_counts([g.homogeneous_degree() - 1 for g in generators],
                                       ctx.sigma + 1))
    socle = max((k for k, v in enumerate(dims) if v), default=None)
    return dims, socle, dims[ctx.sigma] == 1 and dims[ctx.sigma + 1] == 0


class PlaneContainment(Record):
    contained: bool
    residual: Polynomial
    quotients: tuple[Polynomial, ...] | None
    generators: tuple[Polynomial, ...] | None
    socle: int | None
    socle_ok: bool | None


def plane_in_fermat(forms, ctx: FermatContext) -> PlaneContainment:
    """Decide whether the linear subspace {L_1 = ... = L_{n/2+1} = 0} lies in
    the Fermat hypersurface.

    The forms' echelon rows read x_p - r_p, r_p in the free variables.  By
    x_p^d - r_p^d = (x_p - r_p) sum_{s<d} x_p^(d-1-s) r_p^s, the powers r_p^s
    give F on the plane (its free part plus sum_p r_p^d), which vanishes on
    containment, and each row's quotient.  Mapped back through the tag columns
    the quotients are the cofactors Q_i of F = sum L_i Q_i, and the ideal
    <L_i, Q_i> is returned with a socle check (dimension 1 in degree sigma, 0
    above; module docstring)."""
    forms = list(forms)
    half = ctx.n // 2 + 1
    if len(forms) != half:
        raise ValueError(f"expected {half} linear forms")
    for L in forms:
        if L.nvars != ctx.nvars or L.homogeneous_degree() != 1:
            raise ValueError("inputs must be homogeneous linear forms")
    # the binomial count first, before the echelon divides by pivot coefficients
    conductor = _conductor(forms)
    check_socle_size(ctx, plane_term_pairs(ctx), conductor)
    F = ctx.fermat_polynomial()
    width = ctx.nvars
    pivots = solve_linear_forms(forms, width)
    if len(pivots) != half:
        raise ValueError("linear forms are dependent")
    r = max(sum(c != pv and c < width for c in row) for pv, row in pivots.items())
    check_socle_size(ctx, plane_term_pairs(ctx, r), conductor)
    # Powers start at the pivot entry, 1 at the conductor the echelon left it,
    # which each quotient coefficient then carries as a division by the row would.
    pivot_vars = sorted(pivots)
    restricted = Polynomial(width, [(e, c) for e, c in F.terms.items()
                                    if e.index(ctx.d) not in pivots])
    hat_quotients = []
    for pv in pivot_vars:
        r_p = Polynomial(width, [(tuple(int(t == c) for t in range(width)), -v)
                                 for c, v in pivots[pv].items() if c != pv and c < width])
        power, terms = Polynomial.constant(width, pivots[pv][pv]), {}
        for s in range(ctx.d):
            terms.update((e[:pv] + (ctx.d - 1 - s,) + e[pv + 1:], c)
                         for e, c in power.terms.items())
            power = power * r_p
        hat_quotients.append(Polynomial(width, terms))
        restricted = restricted + power
    if not restricted.is_zero():
        return PlaneContainment(False, restricted, None, None, None, None)
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
    _, socle, socle_ok = _socle_check(generators, ctx)
    return PlaneContainment(True, restricted, tuple(quotients), generators, socle, socle_ok)


# ---------------------------------------------------------------------------
# Complete intersection ideals from a decomposition of F
# ---------------------------------------------------------------------------


class SquareMembership(Record):
    """F = sum coeff * g_i * g_j * x^gamma over the witness's (i, j, gamma,
    coeff), the g the report's generators."""

    member: bool
    witness: tuple[tuple[int, int, Monomial, CyclotomicNumber], ...]


class CompleteIntersectionReport(Record):
    generators: tuple[Polynomial, ...]
    dims: tuple[int, ...]  # quotient dimensions, degrees 0..sigma+1
    socle: int | None
    socle_ok: bool
    square: SquareMembership
    tangent: "bounds.BoundReport"


def complete_intersection_ideal(f, g, ctx: FermatContext) -> CompleteIntersectionReport:
    """The ideal generated by a complete-intersection decomposition
    F = sum f_i g_i, with its quotient dimensions (off the generator degrees,
    module docstring), socle check, and membership of F in the ideal's
    square.  The generators are (f_1, g_1, f_2, g_2, ...), so the checked
    identity F = sum f_i g_i is itself the square witness: no elimination."""
    f, g = list(f), list(g)
    if len(f) != len(g) or len(f) != ctx.n // 2 + 1:
        raise ValueError(f"expected {ctx.n // 2 + 1} factor pairs")
    check_socle_size(ctx, sum(len(fi.terms) * len(gi.terms) for fi, gi in zip(f, g)),
                     _conductor(f + g))
    total = Polynomial.zero(ctx.nvars)
    for fi, gi in zip(f, g):
        df, dg = fi.homogeneous_degree(), gi.homogeneous_degree()
        if df is None or dg is None or df + dg != ctx.d:
            raise ValueError(f"factor degrees must sum to {ctx.d}")
        total = total + fi * gi
    if total != ctx.fermat_polynomial():
        raise ValueError("not a decomposition of F")
    generators = tuple(v for pair in zip(f, g) for v in pair)
    dims, socle, socle_ok = _socle_check(generators, ctx)
    one, origin = CyclotomicNumber.one(), (0,) * ctx.nvars
    square = SquareMembership(True, tuple((2 * i, 2 * i + 1, origin, one) for i in range(len(f))))
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
    return u.in_subfield(_UNIT_FIELD[d]) and unit_circle_check(u)


class SpecialFamilyResult(Record):
    spec: ProductClassSpec
    certificate: RationalityCertificate
    j1_dim: int
    normalization_alpha: tuple[int, ...]


def special_family(d: int, a, ctx: FermatContext) -> SpecialFamilyResult:
    """Build the normalized product class for a tuple of special units and
    certify that it pairs rationally with every standard linear cycle.

    The class c * prod_j G(a_j) and the linear cycle zeta^(sum alpha) *
    prod_j G(zeta^alpha_j), G(a) = sum_s x_p^(d-2-s) (a x_q)^s, are products
    over the same pairs, so their dot product (`pair_classes`) factors pair
    by pair: c * zeta^(sum alpha) * prod_j f_j(alpha_j), with
    f_j(k) = sum_{s<=d-2} a_j^s zeta^(k(d-2-s)) (the product form of
    linear-cycle periods, Movasati-Villaflor Loyola, arXiv:1705.00084).  No
    linear cycle is built.  The scale c is the inverse of the first nonzero
    pairing coefficient in lexicographic exponent order.  `j1_dim` is n/2+1,
    by the closed colon ideal of the `idealcalc` docstring: no class is built.
    """
    if ctx.d != d:
        raise ValueError("context degree does not match the family degree")
    a = tuple(v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v) for v in a)
    if len(a) != ctx.n // 2 + 1:
        raise ValueError(f"expected {ctx.n // 2 + 1} coefficients")
    for j, coeff in enumerate(a):
        if not in_special_unit_group(coeff, d):
            raise ValueError(f"coefficient {j} is not in the degree-{d} unit family")
    # counted as for `certify` on this class, so that the same inputs are refused
    _check_certificate_size(ctx, (d - 1) ** (ctx.n // 2 + 1), False)
    odd = range(1, 2 * d, 2)
    factor_sums = []
    for coeff in a:
        powers = [coeff**s for s in range(d - 1)]
        factor_sums.append({k: sum((v * root_of_unity(ctx.m, k * (d - 2 - s))
                                    for s, v in enumerate(powers)), CyclotomicNumber.zero())
                            for k in odd})
    dots = [(alpha, math.prod((f[k] for f, k in zip(factor_sums, alpha)),
                              start=root_of_unity(ctx.m, sum(alpha))))
            for alpha in itertools.product(odd, repeat=len(a))]
    normalization, dot0 = next(((alpha, dot) for alpha, dot in dots if dot), (None, None))
    if dot0 is None:
        raise ValueError("all pairing coefficients vanish; cannot normalize")
    inverse0 = dot0.inverse()
    spec = ProductClassSpec(a, inverse0 * hessian_coefficient(ctx), default_pairing(ctx.n))
    certificate = _certificate(
        (spec.pairing, alpha, dot * inverse0 if dot else CyclotomicNumber.zero()) for alpha, dot in dots)
    if not certificate.all_rational:
        raise ValueError("family member pairs irrationally with a linear cycle")
    return SpecialFamilyResult(spec, certificate, ctx.n // 2 + 1, normalization)
