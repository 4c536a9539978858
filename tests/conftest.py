"""Shared fixtures and independent linear-algebra oracles for the test suite."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

import pytest

from fermatcalc.echelon import echelon, echelon_insert
from fermatcalc.exactnum import CyclotomicNumber, euler_phi, root_of_unity, zeta
from fermatcalc.fermat_hodge import ProductClassSpec
from fermatcalc.idealcalc import (ColonIdeal, DegreeSlice, FermatContext, _Reduction, pairing_product,
                                  solve_linear_forms)
from fermatcalc.multipoly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    count_monomials,
    divide,
    leading_term,
    lex_order,
    monomial_divides,
    monomial_mul,
    monomials_of_degree,
)


@pytest.fixture
def quintic_surface() -> FermatContext:
    return FermatContext(2, 5)


@pytest.fixture
def quartic_surface() -> FermatContext:
    return FermatContext(2, 4)


def coefficient_pool(m: int) -> list[CyclotomicNumber]:
    """A mixed pool of exact values for randomized constructions."""
    z = zeta(m)
    return [
        CyclotomicNumber.from_rational(2),
        CyclotomicNumber.from_rational(Fraction(-3, 2)),
        CyclotomicNumber.one(),
        z,
        z**3,
        z + 1,
        z * 2 - 1,
    ]


def random_reduced_class(ctx: FermatContext, rng: random.Random, terms: int = 10) -> Polynomial:
    """A random homogeneous class polynomial of socle degree with all
    exponents <= d-2 (hence nonzero reduction)."""
    monos = list(monomials_of_degree(ctx.nvars, ctx.sigma, cap=ctx.d - 2))
    pool = coefficient_pool(ctx.m)
    chosen = rng.sample(monos, min(terms, len(monos)))
    return Polynomial(ctx.nvars, [(m, rng.choice(pool)) for m in chosen])


def random_product_coefficients(ctx: FermatContext, rng: random.Random):
    pool = coefficient_pool(ctx.m)
    return tuple(rng.choice(pool) for _ in range(ctx.n // 2 + 1))


# ---------------------------------------------------------------------------
# Dense power tables: the reference the field layer's reduction modulo Phi_m,
# its Ramanujan traces and its Galois subfield test are checked against, on
# cyclotomic polynomials built by exact division.
# ---------------------------------------------------------------------------


def int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials, ascending; `den` must be monic."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def divided_cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m, ascending: x^m - 1 divided exactly by Phi_e for every proper
    divisor e of m.  The reference `exactnum.cyclotomic_polynomial` is checked
    against."""
    poly = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            poly, rem = int_poly_divmod(poly, list(divided_cyclotomic_polynomial(e)))
            assert not rem
    return tuple(poly)


@lru_cache(maxsize=None)
def power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^e on the power basis for every e <= max(2 phi - 2, m), each row
    the previous one times x with x^phi folded back into the lower part."""
    min_poly = divided_cyclotomic_polynomial(m)
    phi = len(min_poly) - 1
    tail = tuple(-c for c in min_poly[:phi])
    powers = [tuple(int(t == e) for t in range(phi)) for e in range(phi)]
    for e in range(phi, max(2 * phi - 2, m) + 1):
        prev = powers[e - 1]
        carry = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if carry:
            for t in range(phi):
                row[t] += carry * tail[t]
        powers.append(tuple(row))
    return tuple(powers)


def table_sum(m: int, terms, den: int = 1) -> CyclotomicNumber:
    """sum(v * zeta_m^e for e, v in terms) / den, row by row of the table."""
    powers = power_table(m)
    nums = [0] * len(powers[0])
    for e, v in terms:
        row = powers[e] if e < len(powers) else powers[e % m]
        for t, r in enumerate(row):
            nums[t] += v * r
    return CyclotomicNumber(m, nums, den)


def table_promote(x: CyclotomicNumber, target: int) -> CyclotomicNumber:
    step = target // x.m
    return table_sum(target, ((j * step, v) for j, v in enumerate(x.nums)), x.den)


def table_mul(x: CyclotomicNumber, y: CyclotomicNumber) -> CyclotomicNumber:
    """The product by the unreduced convolution, each entry read off the table
    at its own exponent (up to 2 phi - 2, past m when 2 phi - 2 >= m)."""
    m = math.lcm(x.m, y.m)
    x, y = table_promote(x, m), table_promote(y, m)
    return table_sum(m, ((i + j, a * b) for i, a in enumerate(x.nums) for j, b in enumerate(y.nums)),
                     x.den * y.den)


def table_traces(m: int) -> tuple[int, ...]:
    """Tr(zeta_m^j) for j < phi, summed over the conjugates zeta^(jk)."""
    powers = power_table(m)
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    return tuple(sum(powers[j * k % m][0] for k in units) for j in range(len(powers[0])))


def demote(x: CyclotomicNumber, target: int) -> CyclotomicNumber:
    """x rewritten on the power basis of Q(zeta_target), target | m, by
    solving sum_j c_j zeta_m^(j m / target) = x; ValueError when x does not lie
    in the smaller field."""
    if target == x.m:
        return x
    if target <= 0 or x.m % target:
        raise ValueError(f"target conductor {target} must divide {x.m}")
    powers = power_table(x.m)
    phi_t = euler_phi(target)
    step = x.m // target
    # augmented matrix [A | b]: a pivot in the right-hand column b means no solution
    pivots: dict[int, dict] = {}
    for i in range(len(x.nums)):
        row = {j: Fraction(powers[j * step][i]) for j in range(phi_t)}
        row[phi_t] = Fraction(x.nums[i], x.den)
        echelon_insert(pivots, {c: v for c, v in row.items() if v})
    if phi_t in pivots:
        raise ValueError(f"value does not lie in Q(zeta_{target})")
    return CyclotomicNumber.from_coords(target, [pivots[j].get(phi_t, 0) for j in range(phi_t)])


# ---------------------------------------------------------------------------
# Product structure by elimination: the reference `recover_product_structure`
# and the closed form of product colon ideals are checked against.
# ---------------------------------------------------------------------------


class EliminatedColon(ColonIdeal):
    """ColonIdeal with product recognition switched off, so that every class,
    products included, takes the elimination route."""

    def __init__(self, p: Polynomial, ctx: FermatContext, order: MonomialOrder | None = None):
        super().__init__(p, ctx, order)
        self._product = None


def recover_by_elimination(p: Polynomial, ctx: FermatContext) -> ProductClassSpec:
    """The pairing, coefficients and scale of a product class read off the
    exact degree-one slice of its colon ideal, whose reduced echelon forms are
    the binomials x_p - a_j x_q (or a lone x_p where a_j = 0).  Raises
    ValueError("no product structure") when the slice does not have n/2+1
    forms and ValueError("violates product shape") when a form is not such a
    binomial or the rebuilt product is not p."""
    ci = EliminatedColon(p, ctx)
    s1 = ci.slice(1)
    half = ctx.n // 2 + 1
    if s1.dim != half:
        raise ValueError("no product structure")
    partners: dict[int, tuple[int, CyclotomicNumber] | None] = {}
    for form in s1.basis:
        items = form.sorted_terms(ci.order)
        if len(items) > 2:
            raise ValueError("violates product shape")
        lead = items[0][0].index(1)
        # a lone x_p is paired with a free variable below
        partners[lead] = (items[1][0].index(1), -items[1][1]) if len(items) == 2 else None
    used = [pair[0] for pair in partners.values() if pair]
    if len(set(used)) != len(used):
        raise ValueError("violates product shape")
    free = [v for v in range(ctx.nvars) if v not in partners and v not in used]
    pairs = []
    coeffs = []
    for lead in sorted(partners):
        q, a = partners[lead] or (free.pop(0), CyclotomicNumber.zero())
        pairs.append((lead, q))
        coeffs.append(a)
    rebuilt = pairing_product(ctx, pairs, coeffs, 1)
    anchor, anchor_coeff = leading_term(rebuilt, ci.order)
    c_lambda = p.coeff(anchor) / anchor_coeff
    if c_lambda.is_zero() or rebuilt.scale(c_lambda) != p:
        raise ValueError("violates product shape")
    return ProductClassSpec(tuple(coeffs), c_lambda, tuple(pairs))


def tuple_multiplication_rows(ci: ColonIdeal, index, kept, exact: bool) -> list[dict]:
    """The rows of `ColonIdeal._multiplication_rows` built on exponent tuples:
    for each source monomial beta (column index[beta]) and term c * x^gamma of
    P, the row of tau = beta + gamma holds c, or its residue mod the prime of
    the rank pass, when `kept(tau)`; a zero residue leaves no entry.  Rows in
    descending lex order of tau.  The reference the packed builder is checked
    against."""
    if exact:
        terms = list(ci.reduced.terms.items())
    else:
        reduction = _Reduction.avoiding(ci.reduced.terms.values())
        terms = [(gamma, r) for gamma, c in ci.reduced.terms.items() if (r := reduction(c))]
    rows: dict[tuple, dict] = {}
    for beta, col in index.items():
        for gamma, v in terms:
            tau = tuple(map(add, beta, gamma))
            if kept(tau):
                rows.setdefault(tau, {})[col] = v
    return [rows[tau] for tau in sorted(rows, reverse=True)]


# ---------------------------------------------------------------------------
# Ranks modulo a prime on dict rows: the reference the packed
# `reaches_rank_mod_p` is checked against.
# ---------------------------------------------------------------------------


def rank_mod_p_by_dicts(rows: Sequence[dict[int, int]], p: int, target: int) -> bool:
    """Whether `rows`, int entries in [1, p), reach rank `target` over F_p, by
    `echelon_insert`'s insertion on dict rows of residues: each row is reduced
    against the pivots so far, its least column becomes a pivot, and the
    insertion stops once the rank reaches `target` or too few rows are left.
    The rows are reduced in place."""

    def submul(row: dict, factor: int, pivot_row: dict, skip: int):
        for c, v in pivot_row.items():
            if c != skip:
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)

    pivots: dict[int, dict] = {}
    for i, row in enumerate(rows):
        if len(pivots) >= target or len(pivots) + len(rows) - i < target:
            break
        for c in [k for k in row if k in pivots]:
            submul(row, row.pop(c), pivots[c], c)
        if not row:
            continue
        c = min(row)
        inv = pow(row[c], -1, p)
        if inv != 1:
            for k in row:
                row[k] = row[k] * inv % p
        for existing in pivots.values():
            f = existing.pop(c, None)
            if f is not None:
                submul(existing, f, row, c)
        pivots[c] = row
    return len(pivots) >= target


# ---------------------------------------------------------------------------
# Generated ideals by elimination: degreewise spans of the shifted generators,
# the reference `ColonIdeal.slice`, `lt_generators`, the Groebner leading terms
# of `bounds.classify_lt_shape_of_ideal` and the degree product of
# `fermat_hodge._socle_check` are checked against.
# ---------------------------------------------------------------------------


def shifted_rows(gens: Sequence[Polynomial], k: int, index: dict[Monomial, int]):
    """(generator position, gamma, row) for each x^gamma * g of degree k, by
    generator and then gamma in descending lex order; the row holds g's
    coefficient at beta in column index[beta + gamma]."""
    for i, g in enumerate(gens):
        dg = g.homogeneous_degree()
        if dg is None:
            raise ValueError("generators must be homogeneous and nonzero")
        for gamma in monomials_of_degree(g.nvars, k - dg):
            yield i, gamma, {index[monomial_mul(e, gamma)]: c for e, c in g.terms.items()}


def ideal_slice(gens: Sequence[Polynomial], k: int, order: MonomialOrder | None = None) -> DegreeSlice:
    """Reduced echelon basis of the degree-k piece of the ideal generated by
    homogeneous polynomials `gens`, columns in descending `order`."""
    if not gens:
        raise ValueError("no generators")
    nvars = gens[0].nvars
    order = order or lex_order(nvars)
    cols = sorted(monomials_of_degree(nvars, k), key=order.key, reverse=True)
    index = {m: i for i, m in enumerate(cols)}
    pivots = echelon(row for _, _, row in shifted_rows(gens, k, index))
    basis = []
    for pc in sorted(pivots):
        basis.append(Polynomial(nvars, [(cols[c], v) for c, v in pivots[pc].items()]))
    return DegreeSlice(k, tuple(basis))


def standard_monomials(lts, k: int, nvars: int) -> list[Monomial]:
    """Degree-k monomials divisible by none of the given leading terms."""
    lts = list(lts)
    return [m for m in monomials_of_degree(nvars, k) if not any(monomial_divides(g, m) for g in lts)]


def divide_by_echelon_rows(p: Polynomial, pivots: dict[int, dict]):
    """(quotients, remainder) of p divided by the rows x_v - r_v of
    `solve_linear_forms`, in increasing pivot order, under the lex order that
    ranks the pivot variables first.  No remainder term holds a pivot
    variable, so the remainder is p restricted to the rows' zero set."""
    nvars = p.nvars
    pivot_vars = sorted(pivots)
    order = MonomialOrder(tuple(pivot_vars) + tuple(v for v in range(nvars) if v not in pivots))
    rows = [
        Polynomial(nvars, [(tuple(int(t == c) for t in range(nvars)), v)
                           for c, v in pivots[pv].items() if c < nvars])
        for pv in pivot_vars
    ]
    return divide(p, rows, order)


def pair_sum_cofactor(ctx: FermatContext, pair_index: int, factor: Polynomial) -> Polynomial:
    """The cofactor of `factor` in the pair sum x_2j^d + x_2j+1^d, j = pair_index."""
    terms = [
        (tuple(ctx.d if t == 2 * pair_index else 0 for t in range(ctx.nvars)), 1),
        (tuple(ctx.d if t == 2 * pair_index + 1 else 0 for t in range(ctx.nvars)), 1),
    ]
    q, r = divide(Polynomial(ctx.nvars, terms), [factor], lex_order(ctx.nvars))
    assert r.is_zero()
    return q[0]


def standard_decomposition(ctx, ks, quadric):
    """f_j = x_{2j} - zeta_{2d}^{k_j} x_{2j+1} for j < n/2+1, and with
    `quadric` (type 1,...,1,2) one more such factor on the last pair,
    multiplied into the last f; g_j is the cofactor of f_j in its pair sum
    x_{2j}^d + x_{2j+1}^d."""
    x = [Polynomial.variable(ctx.nvars, i) for i in range(ctx.nvars)]
    half = ctx.n // 2 + 1
    pairs = zip([*range(half), half - 1], ks)
    f = [x[2 * j] - x[2 * j + 1].scale(root_of_unity(ctx.m, k)) for j, k in pairs]
    if quadric:
        f[-2:] = [f[-2] * f[-1]]
    return f, [pair_sum_cofactor(ctx, j, fi) for j, fi in enumerate(f)]


def ideal_hilbert_dims(gens: Sequence[Polynomial], up_to: int) -> list[int]:
    """Quotient dimensions [dim (S/I)_k for k = 0..up_to] by echelon spans.

    The linear generators span a space L of linear forms.  Solving L for its
    pivot variables leaves the ring S' in the m remaining variables, to which
    the other generators G restrict as G'.  S/(L + G) and S'/G' are
    isomorphic as graded rings, so the spans are computed in S', whose
    degree-k slice has C(m-1+k, k) monomials instead of C(N-1+k, k) for the
    N variables of S.
    """
    nvars = gens[0].nvars
    degrees = [g.homogeneous_degree() for g in gens]
    if None in degrees:
        raise ValueError("generators must be homogeneous and nonzero")
    pivots = solve_linear_forms([g for g, dg in zip(gens, degrees) if dg == 1], nvars)
    restricted = [divide_by_echelon_rows(g, pivots)[1] for g, dg in zip(gens, degrees) if dg != 1]
    free = [v for v in range(nvars) if v not in pivots]
    reduced = [
        Polynomial(len(free), {tuple(e[v] for v in free): c for e, c in g.terms.items()})
        for g in restricted
        if g
    ]
    return [
        count_monomials(len(free), k) - (ideal_slice(reduced, k).dim if reduced else 0)
        for k in range(up_to + 1)
    ]


# ---------------------------------------------------------------------------
# Independent exact linear algebra over Q, used as a kernel oracle.
# ---------------------------------------------------------------------------


def frac_matrix_rank(rows: list[list[Fraction]]) -> int:
    """Textbook Gaussian elimination over Fraction, written independently of
    the package's echelon engine."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def groebner_pairing_ranks(generators, ctx) -> list[int]:
    """Multiplication pairing ranks of an ideal quotient presented by
    homogeneous generators, via a degree-truncated Groebner basis and normal
    forms.  A route independent of the kernel-based colon machinery."""
    from fermatcalc.idealcalc import buchberger
    from fermatcalc.multipoly import divide, leading_term, pair_leader_order

    order = pair_leader_order(ctx.nvars)
    gb = buchberger(generators, order, degree_cap=ctx.sigma + 1)
    lts = [leading_term(g, order)[0] for g in gb.basis]
    socle_basis = standard_monomials(lts, ctx.sigma, ctx.nvars)
    assert len(socle_basis) == 1
    socle = socle_basis[0]
    ranks = []
    for i in range(ctx.sigma + 1):
        left = standard_monomials(lts, i, ctx.nvars)
        right = standard_monomials(lts, ctx.sigma - i, ctx.nvars)
        matrix = []
        for u in left:
            row = []
            for v in right:
                product = Polynomial.monomial(ctx.nvars, u) * Polynomial.monomial(ctx.nvars, v)
                _, nf = divide(product, list(gb.basis), order)
                for exps in nf.terms:
                    assert exps == socle
                row.append(nf.coeff(socle))
            matrix.append(row)
        nullity = regular_representation_kernel_dim(matrix, ctx.m) if matrix else 0
        ranks.append(len(right) - nullity if matrix else 0)
    return ranks


def regular_representation_kernel_dim(
    matrix: list[list[CyclotomicNumber]], m: int
) -> int:
    """Nullity of a matrix over Q(zeta_m), computed by expanding every entry
    into its phi(m) x phi(m) rational multiplication block and running plain
    rational elimination.  Returns the nullity over Q(zeta_m)."""
    phi = euler_phi(m)
    basis = [root_of_unity(m, j) for j in range(phi)]
    blocks: list[list[Fraction]] = []
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for i in range(nrows):
        for r in range(phi):
            row: list[Fraction] = []
            for j in range(ncols):
                entry = matrix[i][j].promote(m)
                for c in range(phi):
                    row.append((entry * basis[c]).coords[r])
            blocks.append(row)
    rank = frac_matrix_rank(blocks) if blocks else 0
    assert rank % phi == 0
    return ncols - rank // phi


def dataclass_twin(record_cls: type) -> type:
    """The frozen dataclass with `record_cls`'s fields, defaults,
    `__post_init__` and qualified name: the reference whose generated
    methods the `Record` base reproduces."""
    own = record_cls.__dict__
    fields = [(name, object, dataclasses.field(default=own[name])) if name in own else (name, object)
              for name in own["__annotations__"]]
    namespace = {"__post_init__": own["__post_init__"]} if "__post_init__" in own else {}
    twin = dataclasses.make_dataclass(record_cls.__name__, fields, frozen=True, namespace=namespace)
    twin.__qualname__ = record_cls.__qualname__
    return twin
