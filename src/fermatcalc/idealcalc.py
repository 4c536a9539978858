"""Graded ideal calculus for the Fermat Jacobian ring.

For F = x_0^d + ... + x_{n+1}^d the Jacobian ideal J is the monomial ideal
generated by the x_i^(d-1), so reduction modulo it just deletes every
monomial with an exponent >= d-1, and the Jacobian ring R/J is spanned by
the capped monomials (every exponent <= d-2).  The annihilator (colon ideal)
J : P of a class polynomial P of socle degree sigma = (d-2)(n/2+1) is
computed degree by degree as the exact kernel of multiplication by P from
the degree-k monomials into the capped degree-(sigma+k) monomials.

That matrix is a catalecticant.  A source monomial with an exponent above
d-2 lies in J, so its column is zero: only the capped columns are built,
row by row from P's support (beta + gamma for capped beta and P's terms
x^gamma, on monomials packed into ints), and the uncapped ones are free.
Writing a capped target as tau = socle - v, the entry at (v, beta) is P's
coefficient at socle - v - beta, which is symmetric in v and beta, so the
capped matrix at degree sigma-k is the transpose of the one at k and
rank(k) = rank(sigma-k): the Hilbert function of the Artinian Gorenstein
algebra R/(J : P) is symmetric (Iarrobino-Kanev, Power Sums, Gorenstein
Algebras, and Determinantal Loci, LNM 1721).  Ranks are therefore only
eliminated up to degree sigma/2, from sigma/2 down (`ColonIdeal`).

A product class P = c * prod_j G(a_j), G(a) = sum_s x_p^(d-2-s) (a x_q)^s
over a coordinate pairing (linear cycles are the case a_j = zeta_2d^alpha_j)
needs no elimination.  Each g_j = x_p - a_j x_q has g_j * P in J, since
(x_p - a x_q) G(a) telescopes to x_p^(d-1) - (a x_q)^(d-1).  Solving the g_j
leaves one variable y_j per pair, so S/(J + <g>) is the complete intersection
C = k[y]/(y_j^(d-1)), Gorenstein with socle degree (n/2+1)(d-2) = sigma.  C
maps onto S/(J : P), which is nonzero in degree sigma, and every nonzero
ideal of C contains its socle (Iarrobino-Kanev), so the map is injective and
J : P = J + <g>.  `product_structure` recognises P from its support and
proves it with one product per term: every term but the lead is a_j times
its neighbour one step back along a pair.  Then the normal form NF modulo
J + <g> replaces the order-larger variable of each pair by a_j (or 1/a_j)
times the other one, x_p by 0 when a_j = 0, and a monomial with an exponent
above d-2 by 0.  The degree-k slice is {x^beta - NF(x^beta)} over the
monomials beta that NF moves, its leading monomials are those beta, and
rank(k) counts the capped monomials in the n/2+1 kept variables: no row is
built and no prime sought.
On the (2, 5) linear cycle with alpha = (1, 3), x_0 -> zeta x_1 and
x_2 -> zeta^3 x_3:

>>> from fermatcalc.fermat_hodge import linear_cycle_poly
>>> ctx = FermatContext(2, 5)
>>> ColonIdeal(linear_cycle_poly((1, 3), ctx), ctx).slice(1).basis
(Polynomial(4, 'x0 - z*x1'), Polynomial(4, 'x2 - z^3*x3'))

Every other class is eliminated, even when S/(J : P) is a complete
intersection that no pairing fits (at n = 2, a degree-one colon making x_0,
x_1, x_2 proportional and leaving x_3 alone).  A rank is first taken modulo
a prime p = 1 (mod L), L the conductor of P's coefficients, through the ring
map Z_(p)[zeta_L] -> F_p.  A nonzero minor mod p is the image of a nonzero
minor over Q(zeta_L), so a rank mod p that reaches the number of capped
columns proves full rank exactly, and the reduced echelon form of the
capped block is then the identity.  Other degrees are eliminated exactly.

All exact linear algebra is elimination over Q(zeta_m) by the engine in
`fermatcalc.echelon`.  The mod-p pass (`reaches_rank_mod_p`) packs each row
of residues into one int, a field of bits per column, and eliminates column
by column with one big-int multiply-add per row operation, reading a further
row only when no row read so far has a pivot at the current column.
Columns follow the active monomial order, so every echelon basis returned
here is the unique reduced echelon form of its subspace: slices computed
along different routes can be compared verbatim.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

from fermatcalc.echelon import echelon, echelon_insert, reaches_rank_mod_p
from fermatcalc.exactnum import CyclotomicNumber
from fermatcalc.multipoly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    count_capped_monomials,
    divide,
    geometric_factor,
    leading_term,
    lex_order,
    minimal_generators,
    monomial_div,
    monomial_lcm,
    monomials_of_degree,
)
from fermatcalc.record import Record

__all__ = [
    "FermatContext",
    "DegreeSlice",
    "HilbertProfile",
    "ColonIdeal",
    "COLON_MAX_COLUMNS",
    "check_colon_size",
    "CLASS_MAX_TERMS",
    "check_class_size",
    "GroebnerResult",
    "GROEBNER_MAX_WORK",
    "check_groebner_size",
    "reduce_mod_jacobian",
    "reduce_class",
    "pairing_product",
    "product_structure",
    "buchberger",
    "s_polynomial",
    "solve_linear_forms",
]


class FermatContext(Record):
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


def reduce_class(p: Polynomial, ctx: FermatContext) -> Polynomial:
    """The normal form of a class polynomial p modulo J, checked nonzero (a
    class inside J has zero primitive part) after p's variables and degree."""
    if p.nvars != ctx.nvars:
        raise ValueError(f"expected {ctx.nvars} variables, got {p.nvars}")
    if p.homogeneous_degree() != ctx.sigma:
        raise ValueError(f"class polynomial must be homogeneous of degree {ctx.sigma}")
    if (reduced := reduce_mod_jacobian(p, ctx)).is_zero():
        raise ValueError("class has zero primitive part")
    return reduced


# ---------------------------------------------------------------------------
# Degree slices
# ---------------------------------------------------------------------------


class DegreeSlice(Record):
    """A graded piece of an ideal, its basis in reduced echelon form."""

    degree: int
    basis: tuple[Polynomial, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


class HilbertProfile(Record):
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


# ---------------------------------------------------------------------------
# Reduction modulo a prime, for the rank pass of ColonIdeal
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Reduction(Record):
    """The ring map Z_(p)[zeta_L] -> F_p sending zeta_L to w, an element of
    exact order L; p = 1 (mod L).  zeta_m for m | L is zeta_L^(L/m) under
    `promote`, so it goes to w^(L/m) and the map is one ring homomorphism on
    every Q(zeta_m) with m | L, defined at every value whose denominator p
    does not divide."""

    conductor: int
    p: int
    w: int

    @classmethod
    def avoiding(cls, values: Iterable[CyclotomicNumber]) -> "_Reduction":
        """The reduction at the least prime p > 2^31 with p = 1 (mod L),
        where L is the lcm of the values' conductors, dividing none of
        their denominators."""
        values = list(values)
        L = math.lcm(*(x.m for x in values))
        dens = {x.den for x in values}
        p = (2**31 // L + 1) * L + 1
        while not _is_prime(p) or any(den % p == 0 for den in dens):
            p += L
        primes = [q for q in range(2, L + 1) if L % q == 0 and _is_prime(q)]
        for g in itertools.count(2):
            w = pow(g, (p - 1) // L, p)
            if all(pow(w, L // q, p) != 1 for q in primes):
                return cls(L, p, w)

    def __call__(self, x: CyclotomicNumber) -> int:
        """The image of x in F_p, as an int in [0, p)."""
        p = self.p
        wm = pow(self.w, self.conductor // x.m, p)
        v = 0
        for c in reversed(x.nums):
            v = (v * wm + c) % p
        return v * pow(x.den, -1, p) % p


def _pack(e: Monomial, width: int) -> int:
    """The monomial e as one int, `width` bits per exponent and e_0 on top:
    ints compare as lex, and a product of monomials is one int add."""
    key = 0
    for x in e:
        key = key << width | x
    return key


# Widest capped catalecticant a ColonIdeal accepts: its column count at
# degree sigma//2, the widest degree a Hilbert profile eliminates.
COLON_MAX_COLUMNS = 1000

# Most terms a linear cycle or product class may have: one geometric factor
# of d-1 terms per coordinate pair gives (d-1)^(n/2+1).  (4, 17), (6, 9) and
# (8, 6) fit, and each builds in under half a second.
CLASS_MAX_TERMS = 4096


def check_colon_size(ctx: FermatContext) -> None:
    """Refuse (n, d) whose capped catalecticant at degree sigma//2 has more
    than COLON_MAX_COLUMNS columns, counted without listing them.  The count
    prod (1 + t + ... + t^(d-2)) is symmetric and unimodal on [0, 2 sigma], so
    h(k) >= h(1) = n+2 for 1 <= k = sigma//2: wider n is refused uncounted."""
    k, wide = ctx.sigma // 2, ctx.nvars > COLON_MAX_COLUMNS
    width = f"at least {ctx.nvars}" if wide else count_capped_monomials(ctx.nvars, k, ctx.d - 2)
    if wide or width > COLON_MAX_COLUMNS:
        raise ValueError(
            f"(n, d) = ({ctx.n}, {ctx.d}) has {width} capped columns at degree {k}, "
            f"above the colon limit of {COLON_MAX_COLUMNS}"
        )


def check_class_size(ctx: FermatContext) -> None:
    """Refuse (n, d) whose linear cycles have more than CLASS_MAX_TERMS
    terms, counted before any class is built; as d-1 >= 2, the exponent is
    capped at CLASS_MAX_TERMS.bit_length() with the same verdict."""
    terms = (ctx.d - 1) ** min(ctx.n // 2 + 1, CLASS_MAX_TERMS.bit_length())
    if terms > CLASS_MAX_TERMS:
        raise ValueError(
            f"(n, d) = ({ctx.n}, {ctx.d}) has (d-1)^(n/2+1) = {ctx.d - 1}^{ctx.n // 2 + 1} "
            f"terms per linear cycle, above the class limit of {CLASS_MAX_TERMS}"
        )


def pairing_product(ctx: FermatContext, pairing, coeffs, scale) -> Polynomial:
    """scale * prod_j geometric_factor(p_j, q_j, coeffs_j) over the pairs (p_j, q_j)."""
    poly = Polynomial.constant(ctx.nvars, scale)
    for (p, q), a in zip(pairing, coeffs):
        poly = poly * geometric_factor(ctx.nvars, p, q, a, ctx.d)
    return poly


def product_structure(p: Polynomial, ctx: FermatContext):
    """The pairing, coefficients and scale (pairs, a, c) of a product class
    p = c * prod_j G(a_j), G(a) = sum_s x_p^(d-2-s) (a x_q)^s, read off its
    support, or None when p is no product.

    The lex-leading monomial is prod_j x_(p_j)^(d-2), p_j the smaller index of
    pair j, or its only variable when a_j = 0.  a_j is the coefficient one step
    along the pair over the leading one, times `inv = 1/lead` unless
    `inv == 1`, as `echelon_insert` scales a row, so a_j has the conductor the
    elimination of the degree-one colon gives it.  A pair with no step term
    has a_j = 0 and takes the least free variable.

    The proof takes one product per term.  Each term e other than the lead
    must equal a_j times its neighbour e - step_j, where j is the first pair
    with a_j != 0 and e_(q_j) > 0 and step_j moves one unit from x_(p_j) to
    x_(q_j); p is refused when that neighbour is missing or no such pair
    exists.  Every term then chains down to the lead, so it lies on the
    support of c * prod_j G(a_j) with that product's coefficient, and p is a
    product exactly when it also has the product's (d-1)^k terms, k the number
    of nonzero a_j.  Values are compared, not conductors.  c is the lead
    coefficient, since every G(a_j) leads with 1."""
    lead = max(p.terms)  # exponent tuples compare in lex order
    lead_coeff = p.terms[lead]
    leads = [v for v, e in enumerate(lead) if e]
    if len(leads) != ctx.n // 2 + 1 or any(lead[v] != ctx.d - 2 for v in leads):
        return None
    inv = 1 / lead_coeff
    pairs, coeffs = [], []
    for v in leads:
        steps = ((q, p.terms.get(tuple(e - (t == v) + (t == q) for t, e in enumerate(lead))))
                 for q in range(ctx.nvars) if not lead[q])
        q, a = next(((q, a) for q, a in steps if a), (None, CyclotomicNumber.zero()))
        pairs.append((v, q))
        coeffs.append(a * inv if a and inv != 1 else a)
    stepped = [(v, q, a) for (v, q), a in zip(pairs, coeffs) if a]
    used = {q for _, q, _ in stepped}
    if len(used) != len(stepped) or len(p.terms) != (ctx.d - 1) ** len(stepped):
        return None
    for e, c in p.terms.items():
        if e == lead:
            continue
        for v, q, a in stepped:
            if e[q]:
                below = list(e)
                below[v] += 1
                below[q] -= 1
                below = p.terms.get(tuple(below))
                break
        else:
            return None
        if below is None or a * below != c:
            return None
    free = iter(v for v in range(ctx.nvars) if not lead[v] and v not in used)
    pairs = tuple((v, next(free) if q is None else q) for v, q in pairs)
    return pairs, tuple(coeffs), lead_coeff


class ColonIdeal:
    """The annihilator ideal (J^F : P) of a class polynomial P, computed and
    cached degree by degree.

    P must pass `reduce_class`: classes inside the Jacobian ideal have zero
    primitive part and no associated Artinian Gorenstein algebra.  (n, d)
    must pass `check_colon_size`.

    `slice`, `quotient_monomials` and `leading_monomials` read one echelon
    tuple, `_echelon_data(k)`, where each degree takes its route, under one
    degree rule: a negative degree is refused, and above sigma, where R_k = 0,
    `rank` is 0 and the ideal is all of S_k, with no pivot, prime, row or cache.

    A product class, recognised once by `product_structure`, is read off the
    normal form of the module docstring at every degree.  Its multiplication
    matrix splits into blocks by the degree of the source monomial in each
    pair, and each block has rank at most 1: its one standard monomial
    x^gamma, if any, is the order-least monomial of every column the block
    holds.  The exact elimination of a block therefore keeps its first row
    scaled by 1 / (its entry at x^gamma), and leaves a non-standard x^beta the
    coefficient P_u(beta) * (1 / P_u(gamma)).  Here u(beta) takes exponent
    d-2-e on p and e on q for each pair (p, q), e the exponent of x_p in
    beta.  That is the normal-form coefficient, formed from the same operands,
    so every printed conductor is the elimination's.

    Any other class is eliminated on the capped catalecticant by
    `_kernel_data`: the identity when its rank mod p reaches the number of
    capped columns, else exact elimination, the prime sought at the first
    rank mod p.  With fewer capped targets than columns no rank reaches
    that number, and no prime is sought.  `rank` reads a degree above
    sigma/2 at sigma-k.

    Full rank at degree k, (J : P)_k = J_k, gives full rank at every j < k,
    so `hilbert_profile` ranks sigma/2 first and stops eliminating at the
    first full-rank degree.  Take g in (J : P)_j outside J.  Then
    g * S_(k-j) lies in (J : P)_k = J_k, so g kills
    (S/J)_(k-j) * (S/J)_(2 sigma - k) = (S/J)_(2 sigma - j) in S/J.  S/J is
    Gorenstein with socle degree 2 sigma, so an element of degree j that
    multiplies all of degree 2 sigma - j to 0 is 0: g lies in J after all.
    """

    def __init__(self, p: Polynomial, ctx: FermatContext, order: MonomialOrder | None = None):
        reduced = reduce_class(p, ctx)
        check_colon_size(ctx)
        self.ctx = ctx
        self.order = order or lex_order(ctx.nvars)
        if sorted(self.order.priority) != list(range(ctx.nvars)):
            raise ValueError(f"order must list all {ctx.nvars} variables")
        self.reduced = reduced
        self._cache: dict[int, tuple] = {}
        structure = product_structure(reduced, ctx)
        self._product = None if structure is None else (structure[0], self._moved(*structure[:2]))

    def _moved(self, pairs, coeffs) -> dict[int, int | None]:
        """The variables the normal form moves, each to the variable it becomes
        or to None for 0: the order-larger variable of each pair (p, q), and
        x_p alone when a = 0."""
        place = {v: i for i, v in enumerate(self.order.priority)}
        moved: dict[int, int | None] = {}
        for (p, q), a in zip(pairs, coeffs):
            if not a:
                moved[p] = None
            elif place[p] < place[q]:
                moved[p] = q
            else:
                moved[q] = p
        return moved

    def _normal_monomial(self, beta: Monomial, moved) -> Monomial | None:
        """The standard monomial x^gamma with x^beta = c * x^gamma, c nonzero,
        modulo J + <g_j>, or None when x^beta lies in J + <g_j>."""
        gamma = list(beta)
        for v, t in moved.items():
            if beta[v]:
                if t is None:
                    return None
                gamma[t] += beta[v]
                gamma[v] = 0
        return tuple(gamma) if max(gamma) <= self.ctx.d - 2 else None

    def _pair_coefficient(self, beta: Monomial, pairs) -> CyclotomicNumber:
        """P's coefficient at u(beta) (class docstring)."""
        u = [0] * self.ctx.nvars
        for p, q in pairs:
            u[p], u[q] = self.ctx.d - 2 - beta[p], beta[p]
        return self.reduced.terms[tuple(u)]

    def _echelon_data(self, k: int):
        """`_kernel_data`'s tuple (source ascending, pivots, pivot cols, free
        cols) at degree k on every route.  A product's pivot rows are the blocks
        of the class docstring, 1 at x^gamma; above sigma no column pivots."""
        if k < 0:
            raise ValueError("negative degree")
        if k <= self.ctx.sigma and self._product is None:
            return self._kernel_data(k)
        source = sorted(monomials_of_degree(self.ctx.nvars, k), key=self.order.key)
        pivots, rows, inverses = {}, {}, {}
        if k <= self.ctx.sigma:  # a product, so the normal form fills the pivot rows
            pairs, moved = self._product
            for i, beta in enumerate(source):
                gamma = self._normal_monomial(beta, moved)
                if gamma == beta:
                    pivots[i] = rows[beta] = {i: CyclotomicNumber.one()}
                elif gamma is not None:
                    inv = inverses.get(gamma)
                    if inv is None:
                        inverses[gamma] = inv = 1 / self._pair_coefficient(gamma, pairs)
                    c = self._pair_coefficient(beta, pairs)
                    rows[gamma][i] = c * inv if inv != 1 else c
        return source, pivots, sorted(pivots), [i for i in range(len(source)) if i not in pivots]

    @functools.cached_property
    def _packing(self) -> tuple[int, int, int]:
        """(width, OFF, HIGH) of `_pack`.  Fields of bit_length(2 sigma) + 1
        bits keep the top bit of every exponent of beta + gamma clear, so tau
        is capped exactly when (tau + OFF) & HIGH == 0: OFF adds
        2^(width-1) - 1 - (d-2) to each field, which carries into its top bit
        when the exponent passes d-2."""
        width = (2 * self.ctx.sigma).bit_length() + 1
        top, nvars = 1 << (width - 1), self.ctx.nvars
        return width, _pack((top - 1 - (self.ctx.d - 2),) * nvars, width), _pack((top,) * nvars, width)

    @functools.cached_property
    def _residues(self) -> tuple[int, list]:
        """The prime of the mod-p ranks and P's packed terms (gamma, c mod p)
        with a nonzero residue, found at the first rank mod p."""
        reduction = _Reduction.avoiding(self.reduced.terms.values())
        width = self._packing[0]
        terms = ((_pack(gamma, width), reduction(c)) for gamma, c in self.reduced.terms.items())
        return reduction.p, [(g, r) for g, r in terms if r]

    def _multiplication_rows(self, index: dict[Monomial, int], kept, exact: bool) -> list[dict]:
        """Nonzero rows of multiplication by P, over Q(zeta) when `exact` and
        else mod p, one per kept target: every capped target, filtered by the
        set `kept` of packed targets unless it is None.  For each source
        monomial beta and term c * x^gamma of P, the row of tau = beta + gamma
        holds c (or its residue) in column index[beta], on packed monomials
        (`_pack`).  A term whose residue is 0 leaves no entry mod p, so no row
        holds a zero the engine could pivot on.  Rows come in descending lex
        order of their targets, the order of `monomials_of_degree`: the
        echelon form does not depend on the row order, but the elimination
        work and the conductors of intermediate values do."""
        width, off, high = self._packing
        terms = [(_pack(gamma, width), c) for gamma, c in self.reduced.terms.items()] if exact \
            else self._residues[1]
        rows: dict[int, dict] = defaultdict(dict)
        for beta, col in index.items():
            b = _pack(beta, width)
            for g, v in terms:
                if not (b + g + off) & high:
                    rows[b + g][col] = v
        return [rows[tau] for tau in sorted(rows, reverse=True) if kept is None or tau in kept]

    def _pivots(self, index: dict[Monomial, int], kept) -> dict[int, dict]:
        """Reduced echelon pivots of the multiplication rows on the columns
        `index` and the targets `kept` (`_multiplication_rows`): the identity
        when the rows reach rank len(index) mod p (a nonzero minor mod p
        lifts), else exact elimination."""
        rows = self._multiplication_rows(index, kept, exact=False)
        if reaches_rank_mod_p(rows, self._residues[0], len(index)):
            one = CyclotomicNumber.one()
            return {col: {col: one} for col in index.values()}
        return echelon(self._multiplication_rows(index, kept, exact=True))

    def _kernel_data(self, k: int):
        """The elimination route's echelon data at degree 0 <= k <= sigma: a
        tuple (source monomials ascending, pivot dict, pivot cols, free cols)."""
        data = self._cache.get(k)
        if data is not None:
            return data
        cap = self.ctx.d - 2
        source = sorted(monomials_of_degree(self.ctx.nvars, k), key=self.order.key)
        index = {m: i for i, m in enumerate(source) if max(m) <= cap}
        if count_capped_monomials(self.ctx.nvars, self.ctx.sigma + k, cap) < len(index):
            # fewer capped targets than columns: no rank mod p can be full
            pivots = echelon(self._multiplication_rows(index, None, exact=True))
        else:
            pivots = self._pivots(index, None)
        free_cols = [i for i in range(len(source)) if i not in pivots]
        data = (source, pivots, sorted(pivots), free_cols)
        self._cache[k] = data
        return data

    def rank(self, k: int) -> int:
        """dim of the image of multiplication by P on the degree-k slice,
        which equals the quotient dimension dim R_k: 0 above sigma.  It is
        counted for a product class.  Otherwise the capped matrix at degree
        sigma-k is the transpose of the one at k, so the degree taken by
        `_kernel_data` is min(k, sigma-k)."""
        ctx = self.ctx
        if k < 0:
            raise ValueError("negative degree")
        if self._product is not None:
            return count_capped_monomials(ctx.n // 2 + 1, k, ctx.d - 2)
        return len(self._kernel_data(min(k, ctx.sigma - k))[2]) if k <= ctx.sigma else 0

    def slice(self, k: int) -> DegreeSlice:
        """Reduced echelon basis of the degree-k piece of the colon ideal,
        0 <= k <= sigma: above sigma it is all of S_k.  Pivot row pc holds
        entries only past pc, so free column f leads its kernel vector."""
        if k > self.ctx.sigma:
            raise ValueError(f"slice degree must lie in 0..{self.ctx.sigma}")
        nvars, one = self.ctx.nvars, CyclotomicNumber.one()
        source, pivots, pivot_cols, free_cols = self._echelon_data(k)
        kernel = {f: [(source[f], one)] for f in free_cols}
        for pc in pivot_cols:
            for c, v in pivots[pc].items():
                if c != pc:
                    kernel[c].append((source[pc], -v))
        return DegreeSlice(k, tuple(Polynomial(nvars, kernel[f]) for f in reversed(free_cols)))

    def quotient_monomials(self, k: int) -> tuple[Monomial, ...]:
        """Monomial complement basis of R_k (the non-leading-term monomials),
        () above sigma with nothing listed."""
        if k > self.ctx.sigma:
            return ()
        source, _, pivot_cols, _ = self._echelon_data(k)
        return tuple(source[c] for c in reversed(pivot_cols))

    def leading_monomials(self, k: int) -> frozenset[Monomial]:
        """Leading terms of the echelonized degree-k ideal slice."""
        source, _, _, free_cols = self._echelon_data(k)
        return frozenset(source[f] for f in free_cols)

    def hilbert_profile(self) -> HilbertProfile:
        """rank(k) for k = 0..sigma, ranked from sigma/2 down: at the first
        degree whose rank is the number of capped monomials, every lower degree
        takes its own count with no row and no prime (class docstring)."""
        ctx = self.ctx
        half, full = [], False
        for k in range(ctx.sigma // 2, -1, -1):
            width = count_capped_monomials(ctx.nvars, k, ctx.d - 2)
            half.append(width if full else self.rank(k))
            full = half[-1] == width
        return HilbertProfile(tuple(half[ctx.sigma // 2 - min(k, ctx.sigma - k)]
                                    for k in range(ctx.sigma + 1)))

    def pairing_rank(self, i: int) -> int:
        """Rank of the multiplication pairing R_i x R_(sigma-i) -> R_sigma on
        the monomial complement bases."""
        if not 0 <= i <= self.ctx.sigma:
            raise ValueError(f"pairing degree must lie in 0..{self.ctx.sigma}")
        socle, width = (self.ctx.d - 2,) * self.ctx.nvars, self._packing[0]
        targets = {_pack(monomial_div(socle, u), width) for u in self.quotient_monomials(i)}
        right = self.quotient_monomials(self.ctx.sigma - i)
        index = {v: jdx for jdx, v in enumerate(right)}
        return len(self._pivots(index, targets))

    def lt_generators(self, up_to: int) -> list[list[Monomial]]:
        """Minimal monomial generators of the leading-term ideal, degree by
        degree, through degree `up_to`."""
        return minimal_generators(
            (self.leading_monomials(k) for k in range(up_to + 1)), self.order
        )


# ---------------------------------------------------------------------------
# Generated ideals: linear forms and truncated Groebner bases
# ---------------------------------------------------------------------------


def solve_linear_forms(forms: Sequence[Polynomial], nvars: int) -> dict[int, dict]:
    """Solve linear forms for their pivot variables.

    Returns the reduced echelon rows {pivot variable: row} of the forms: row
    p reads x_p - r_p with r_p in the free variables, and its tag column
    nvars + i holds the coefficient of form i in it, which maps a quotient by
    the rows back to the forms.  Dependent forms leave no row."""
    pivots: dict[int, dict] = {}
    for i, L in enumerate(forms):
        row = {e.index(1): c for e, c in L.terms.items()}
        echelon_insert(pivots, {**row, nvars + i: CyclotomicNumber.one()}, nvars)
    return pivots


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ltf, lcf = leading_term(f, order)
    ltg, lcg = leading_term(g, order)
    lcm = monomial_lcm(ltf, ltg)
    mf = Polynomial.monomial(f.nvars, monomial_div(lcm, ltf), lcf.inverse())
    mg = Polynomial.monomial(g.nvars, monomial_div(lcm, ltg), lcg.inverse())
    return mf * f - mg * g


# Most C(N, 2) * nvars pair-scan steps `buchberger` accepts, N generators in
# nvars variables.  On a 2-core x86_64 host `groebner --a` (coprime leads, no
# completion) takes 2-4e-7 s per step; under a reversed `--order` the completion
# takes 2-3.5e-5 s per step, and (56, 11) with 29 coefficients (95,874 steps),
# the slowest accepted input measured, 3.4 s.  `--n 92 --d 5 --a z` is refused.
GROEBNER_MAX_WORK = 100_000


class GroebnerResult(Record):
    basis: tuple[Polynomial, ...]
    added: tuple[Polynomial, ...]
    truncated: bool


def check_groebner_size(count: int, nvars: int) -> None:
    """Refuse `count` generators in `nvars` variables above GROEBNER_MAX_WORK
    pair-scan steps; only the counts are needed, so none need be built yet."""
    work = math.comb(count, 2) * nvars
    if work > GROEBNER_MAX_WORK:
        raise ValueError(
            f"{count} generators in {nvars} variables need C({count}, 2) * {nvars} = {work} "
            f"pair-scan steps, above the groebner limit of {GROEBNER_MAX_WORK}"
        )


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder, degree_cap: int
) -> GroebnerResult:
    """Degree-truncated Buchberger completion for homogeneous generators.

    Every S-polynomial whose lcm degree is at most `degree_cap` is reduced;
    nonzero remainders are adjoined (made monic).  `truncated` reports
    whether any pair above the cap was left unprocessed, in which case the
    result is only a Groebner basis up to the cap.  Pairwise coprime leading
    monomials return the monic generators: by Buchberger's first criterion
    every S-polynomial reduces to 0, so the completion adjoins nothing.
    """
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    for g in gens:
        if g.is_zero():
            raise ValueError("zero generator")
        lead, lc = leading_term(g, order)
        basis.append(g.scale(lc.inverse()))
        leads.append(lead)
    if max(g.degree() for g in basis) > degree_cap:
        raise ValueError("degree cap below a generator degree")
    check_groebner_size(len(basis), basis[0].nvars)
    heap: list[tuple[int, int, int]] = []
    truncated = False

    def push_pairs(j: int):
        nonlocal truncated
        for i in range(j):
            deg = sum(monomial_lcm(leads[i], leads[j]))
            if deg > degree_cap:
                truncated = True
            else:
                heapq.heappush(heap, (deg, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    used = [v for lead in leads for v, e in enumerate(lead) if e]
    if len(used) == len(set(used)):
        return GroebnerResult(tuple(basis), (), truncated)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = s_polynomial(basis[i], basis[j], order)
        _, remainder = divide(s, basis, order)
        if remainder.is_zero():
            continue
        lead, lc = leading_term(remainder, order)
        basis.append(remainder.scale(lc.inverse()))
        leads.append(lead)
        push_pairs(len(basis) - 1)
    return GroebnerResult(tuple(basis), tuple(basis[len(gens):]), truncated)
