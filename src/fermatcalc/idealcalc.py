"""Graded ideal calculus for the Fermat Jacobian ring.

For F = x_0^d + ... + x_{n+1}^d the Jacobian ideal is the monomial ideal
generated by the x_i^(d-1), so reduction modulo it just deletes every
monomial with an exponent >= d-1.  The annihilator (colon ideal) of a class
polynomial P of socle degree sigma = (d-2)(n/2+1) is computed degree by
degree as the exact kernel of the multiplication-by-P matrix from the full
degree-k monomial space into the reduced degree-(sigma+k) monomial space
(exponents <= d-2 componentwise).  That reduced target is far smaller than
the full degree space, which is what keeps the scans at desk scale.

All linear algebra is exact elimination over Q(zeta_m) by the engine in
`fermatcalc.echelon`.  Columns follow the active monomial order, so every
echelon basis returned here is the unique reduced echelon form of its
subspace: slices computed along different routes can be compared verbatim.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from fermatcalc.echelon import echelon, echelon_insert, reduce_row
from fermatcalc.exactnum import CyclotomicNumber
from fermatcalc.multipoly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    count_monomials,
    divide,
    leading_term,
    lex_order,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)

__all__ = [
    "FermatContext",
    "DegreeSlice",
    "HilbertProfile",
    "ColonIdeal",
    "GroebnerResult",
    "SquareMembership",
    "reduce_mod_jacobian",
    "colon_slice",
    "hilbert_profile",
    "lt_slice",
    "buchberger",
    "s_polynomial",
    "pairing_rank",
    "ideal_square_membership",
    "ideal_slice",
    "ideal_hilbert_dims",
    "standard_monomials",
]


@dataclass(frozen=True)
class FermatContext:
    """Ambient data for the Fermat hypersurface x_0^d + ... + x_{n+1}^d = 0.

    n is the (even) dimension, d >= 3 the degree.  Derived quantities: the
    socle degree sigma = (d-2)(n/2+1) and the working conductor m = 2d.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("dimension n must be a positive even integer")
        if self.d < 3:
            raise ValueError("degree d must be at least 3")

    @property
    def nvars(self) -> int:
        return self.n + 2

    @property
    def sigma(self) -> int:
        return (self.d - 2) * (self.n // 2 + 1)

    @property
    def m(self) -> int:
        return 2 * self.d

    def fermat_polynomial(self) -> Polynomial:
        terms = []
        for i in range(self.nvars):
            exps = [0] * self.nvars
            exps[i] = self.d
            terms.append((tuple(exps), 1))
        return Polynomial(self.nvars, terms)


def reduce_mod_jacobian(p: Polynomial, ctx: FermatContext) -> Polynomial:
    """Normal form modulo <x_0^(d-1), ..., x_{n+1}^(d-1)>: drop every
    monomial with some exponent >= d-1."""
    cap = ctx.d - 2
    kept = {e: c for e, c in p.terms.items() if max(e) <= cap}
    if len(kept) == len(p.terms):
        return p
    return Polynomial(p.nvars, kept)


# ---------------------------------------------------------------------------
# Degree slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSlice:
    """A graded piece of an ideal (polynomial basis in reduced echelon form)
    or of the quotient algebra (complement basis of monomials)."""

    degree: int
    kind: str  # "ideal" or "quotient"
    basis: tuple[Polynomial, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, f: Polynomial, order: MonomialOrder) -> Polynomial:
        """Remainder of f against the echelon basis (ideal slices only)."""
        for b in self.basis:
            lt, lc = leading_term(b, order)
            c = f.terms.get(lt)
            if c is not None:
                f = f - b.scale(c / lc)
        return f

    def contains(self, f: Polynomial, order: MonomialOrder) -> bool:
        return self.reduce(f, order).is_zero()


@dataclass(frozen=True)
class HilbertProfile:
    """Dimensions of the quotient algebra in degrees 0..sigma.

    The constructor checks the Gorenstein constraints: one-dimensional ends
    and the symmetry dims[k] = dims[sigma-k].
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = self.dims
        if not dims or dims[0] != 1 or dims[-1] != 1:
            raise ValueError(f"profile ends must be 1-dimensional, got {dims}")
        if any(dims[k] != dims[len(dims) - 1 - k] for k in range(len(dims))):
            raise ValueError(f"profile is not symmetric: {dims}")

    @property
    def sigma(self) -> int:
        return len(self.dims) - 1


class ColonIdeal:
    """The annihilator ideal (J^F : P) of a class polynomial P, computed and
    cached degree by degree.

    P must be homogeneous of degree sigma with a nonzero reduction modulo the
    Jacobian ideal; classes inside the Jacobian ideal have zero primitive
    part and no associated Artinian Gorenstein algebra.
    """

    def __init__(self, p: Polynomial, ctx: FermatContext, order: MonomialOrder | None = None):
        if p.nvars != ctx.nvars:
            raise ValueError(f"expected {ctx.nvars} variables, got {p.nvars}")
        if p.homogeneous_degree() != ctx.sigma:
            raise ValueError(f"class polynomial must be homogeneous of degree {ctx.sigma}")
        reduced = reduce_mod_jacobian(p, ctx)
        if reduced.is_zero():
            raise ValueError("class has zero primitive part")
        self.ctx = ctx
        self.order = order or lex_order(ctx.nvars)
        self.reduced = reduced
        self._cache: dict[int, tuple] = {}

    def _multiplication_rows(self, targets, index: dict[Monomial, int]) -> list[dict]:
        """Nonzero rows of multiplication by P: the row of target tau holds
        P's coefficient at tau - beta in column index[beta]."""
        rows = []
        for tau in targets:
            row: dict[int, CyclotomicNumber] = {}
            for gamma, c in self.reduced.terms.items():
                col = index.get(monomial_div(tau, gamma))
                if col is not None:
                    row[col] = c
            if row:
                rows.append(row)
        return rows

    def _kernel_data(self, k: int):
        """Echelon data of the multiplication matrix at degree k: a tuple
        (source monomials ascending, pivot dict, pivot cols, free cols)."""
        data = self._cache.get(k)
        if data is not None:
            return data
        if k < 0:
            raise ValueError("negative degree")
        ctx = self.ctx
        source = sorted(monomials_of_degree(ctx.nvars, k), key=self.order.key)
        index = {m: i for i, m in enumerate(source)}
        targets = monomials_of_degree(ctx.nvars, ctx.sigma + k, cap=ctx.d - 2)
        pivots = echelon(self._multiplication_rows(targets, index))
        pivot_cols = sorted(pivots)
        free_cols = [i for i in range(len(source)) if i not in pivots]
        data = (source, pivots, pivot_cols, free_cols)
        self._cache[k] = data
        return data

    def rank(self, k: int) -> int:
        """dim of the image of multiplication by P on the degree-k slice,
        which equals the quotient dimension dim R_k."""
        if k > self.ctx.sigma:
            return 0
        return len(self._kernel_data(k)[2])

    def slice(self, k: int) -> DegreeSlice:
        """Reduced echelon basis of the degree-k piece of the colon ideal."""
        if k > self.ctx.sigma:
            basis = [
                Polynomial.monomial(self.ctx.nvars, m)
                for m in self.order.sort_descending(monomials_of_degree(self.ctx.nvars, k))
            ]
            return DegreeSlice(k, "ideal", tuple(basis))
        source, pivots, pivot_cols, free_cols = self._kernel_data(k)
        basis = []
        for f in free_cols:
            terms = [(source[f], CyclotomicNumber.one())]
            for pc in pivot_cols:
                v = pivots[pc].get(f)
                if v is not None:
                    terms.append((source[pc], -v))
            basis.append(Polynomial(self.ctx.nvars, terms))
        basis.sort(key=lambda b: self.order.key(leading_term(b, self.order)[0]), reverse=True)
        return DegreeSlice(k, "ideal", tuple(basis))

    def quotient_monomials(self, k: int) -> tuple[Monomial, ...]:
        """Monomial complement basis of R_k (the non-leading-term monomials)."""
        if k > self.ctx.sigma:
            return ()
        source, _, pivot_cols, _ = self._kernel_data(k)
        return tuple(self.order.sort_descending(source[c] for c in pivot_cols))

    def quotient_slice(self, k: int) -> DegreeSlice:
        basis = tuple(
            Polynomial.monomial(self.ctx.nvars, m) for m in self.quotient_monomials(k)
        )
        return DegreeSlice(k, "quotient", basis)

    def leading_monomials(self, k: int) -> frozenset[Monomial]:
        """Leading terms of the echelonized degree-k ideal slice."""
        if k > self.ctx.sigma:
            return frozenset(monomials_of_degree(self.ctx.nvars, k))
        source, _, _, free_cols = self._kernel_data(k)
        return frozenset(source[f] for f in free_cols)

    def hilbert_profile(self) -> HilbertProfile:
        return HilbertProfile(tuple(self.rank(k) for k in range(self.ctx.sigma + 1)))

    def pairing_rank(self, i: int) -> int:
        """Rank of the multiplication pairing R_i x R_(sigma-i) -> R_sigma on
        the monomial complement bases."""
        if not 0 <= i <= self.ctx.sigma:
            raise ValueError(f"pairing degree must lie in 0..{self.ctx.sigma}")
        socle = (self.ctx.d - 2,) * self.ctx.nvars
        targets = [monomial_div(socle, u) for u in self.quotient_monomials(i)]
        right = self.quotient_monomials(self.ctx.sigma - i)
        index = {v: jdx for jdx, v in enumerate(right)}
        return len(echelon(self._multiplication_rows(targets, index)))

    def lt_generators(self, up_to: int) -> list[list[Monomial]]:
        """Minimal monomial generators of the leading-term ideal, degree by
        degree, through degree `up_to`."""
        gens: list[list[Monomial]] = []
        for k in range(up_to + 1):
            current = self.leading_monomials(k)
            fresh = [
                m
                for m in current
                if not any(
                    monomial_divides(g, m) for degree in gens for g in degree
                )
            ]
            gens.append(sorted(fresh, key=self.order.key, reverse=True))
        return gens


# Module-level wrappers around ColonIdeal, matching the operation surface.


def colon_slice(
    p: Polynomial, k: int, ctx: FermatContext, order: MonomialOrder | None = None
) -> DegreeSlice:
    """Echelon basis of {Q of degree k : Q*P = 0 in the Jacobian ring}."""
    return ColonIdeal(p, ctx, order).slice(k)


def hilbert_profile(
    p: Polynomial, ctx: FermatContext, order: MonomialOrder | None = None
) -> HilbertProfile:
    return ColonIdeal(p, ctx, order).hilbert_profile()


def pairing_rank(p: Polynomial, i: int, ctx: FermatContext) -> int:
    return ColonIdeal(p, ctx).pairing_rank(i)


def lt_slice(slice_: DegreeSlice, order: MonomialOrder) -> frozenset[Monomial]:
    """Leading terms of the basis polynomials of a slice."""
    return frozenset(leading_term(b, order)[0] for b in slice_.basis)


# ---------------------------------------------------------------------------
# Generated ideals: degreewise spans, Groebner bases, membership
# ---------------------------------------------------------------------------


def ideal_slice(
    gens: Sequence[Polynomial], k: int, order: MonomialOrder | None = None
) -> DegreeSlice:
    """Reduced echelon basis of the degree-k piece of the ideal generated by
    homogeneous polynomials `gens`."""
    if not gens:
        raise ValueError("no generators")
    nvars = gens[0].nvars
    order = order or lex_order(nvars)
    cols = sorted(monomials_of_degree(nvars, k), key=order.key, reverse=True)
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        dg = g.homogeneous_degree()
        if dg is None:
            raise ValueError("generators must be homogeneous and nonzero")
        if dg > k:
            continue
        for gamma in monomials_of_degree(nvars, k - dg):
            shifted = {monomial_mul(e, gamma): c for e, c in g.terms.items()}
            rows.append({index[e]: c for e, c in shifted.items()})
    pivots = echelon(rows)
    basis = []
    for pc in sorted(pivots):
        row = pivots[pc]
        basis.append(Polynomial(nvars, [(cols[c], v) for c, v in row.items()]))
    return DegreeSlice(k, "ideal", tuple(basis))


def ideal_hilbert_dims(
    gens: Sequence[Polynomial], up_to: int, order: MonomialOrder | None = None
) -> list[int]:
    """Quotient dimensions [dim (S/I)_k for k = 0..up_to] by echelon spans."""
    nvars = gens[0].nvars
    return [
        count_monomials(nvars, k) - ideal_slice(gens, k, order).dim
        for k in range(up_to + 1)
    ]


def standard_monomials(lts: Iterable[Monomial], k: int, nvars: int) -> list[Monomial]:
    """Degree-k monomials divisible by none of the given leading terms."""
    lts = list(lts)
    return [
        m
        for m in monomials_of_degree(nvars, k)
        if not any(monomial_divides(g, m) for g in lts)
    ]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ltf, lcf = leading_term(f, order)
    ltg, lcg = leading_term(g, order)
    lcm = monomial_lcm(ltf, ltg)
    mf = Polynomial.monomial(f.nvars, monomial_div(lcm, ltf), lcf.inverse())
    mg = Polynomial.monomial(g.nvars, monomial_div(lcm, ltg), lcg.inverse())
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerResult:
    basis: tuple[Polynomial, ...]
    added: tuple[Polynomial, ...]
    truncated: bool


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder, degree_cap: int
) -> GroebnerResult:
    """Degree-truncated Buchberger completion for homogeneous generators.

    Every S-polynomial whose lcm degree is at most `degree_cap` is reduced;
    nonzero remainders are adjoined (made monic).  `truncated` reports
    whether any pair above the cap was left unprocessed, in which case the
    result is only a Groebner basis up to the cap.
    """
    basis: list[Polynomial] = []
    for g in gens:
        if g.is_zero():
            raise ValueError("zero generator")
        _, lc = leading_term(g, order)
        basis.append(g.scale(lc.inverse()))
    if max(g.degree() for g in basis) > degree_cap:
        raise ValueError("degree cap below a generator degree")
    heap: list[tuple[int, int, int]] = []
    truncated = False

    def push_pairs(j: int):
        nonlocal truncated
        for i in range(j):
            lcm = monomial_lcm(
                leading_term(basis[i], order)[0], leading_term(basis[j], order)[0]
            )
            deg = sum(lcm)
            if deg > degree_cap:
                truncated = True
            else:
                heapq.heappush(heap, (deg, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = s_polynomial(basis[i], basis[j], order)
        if s.is_zero():
            continue
        _, remainder = divide(s, basis, order)
        if remainder.is_zero():
            continue
        _, lc = leading_term(remainder, order)
        basis.append(remainder.scale(lc.inverse()))
        push_pairs(len(basis) - 1)
    return GroebnerResult(tuple(basis), tuple(basis[len(gens):]), truncated)


@dataclass(frozen=True)
class SquareMembership:
    member: bool
    witness: tuple[tuple[int, int, Monomial, CyclotomicNumber], ...] | None


def ideal_square_membership(target: Polynomial, gens: Sequence[Polynomial]) -> SquareMembership:
    """Decide whether `target` lies in the square of the ideal generated by
    `gens`, in the target's degree, by exact linear algebra.

    On success the witness lists (i, j, gamma, coeff) with
    target = sum coeff * g_i * g_j * x^gamma.
    """
    deg = target.homogeneous_degree()
    if deg is None:
        raise ValueError("target must be homogeneous and nonzero")
    nvars = target.nvars
    order = lex_order(nvars)
    cols = sorted(monomials_of_degree(nvars, deg), key=order.key, reverse=True)
    index = {m: i for i, m in enumerate(cols)}
    # product row k carries the tag column width + k
    width = len(cols)
    products: list[tuple[int, int, Monomial]] = []
    pivots: dict[int, dict] = {}
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            p = gens[i] * gens[j]
            dp = p.homogeneous_degree()
            if dp is None or dp > deg:
                continue
            for gamma in monomials_of_degree(nvars, deg - dp):
                row = {index[monomial_mul(e, gamma)]: c for e, c in p.terms.items()}
                row[width + len(products)] = CyclotomicNumber.one()
                products.append((i, j, gamma))
                echelon_insert(pivots, row, width)
    row = {index[e]: c for e, c in target.terms.items()}
    if reduce_row(pivots, row, width) is not None:
        return SquareMembership(False, None)
    witness = sorted((*products[c - width], -v) for c, v in row.items())
    return SquareMembership(True, tuple(witness))
