import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermatcalc.echelon import echelon, echelon_insert, reaches_rank_mod_p
from fermatcalc.exactnum import CyclotomicNumber, euler_phi, zeta
from fermatcalc.idealcalc import (
    ColonIdeal,
    FermatContext,
    HilbertProfile,
    _Reduction,
    buchberger,
    reduce_mod_jacobian,
    s_polynomial,
)
from fermatcalc.multipoly import (
    Polynomial,
    count_capped_monomials,
    count_monomials,
    divide,
    leading_term,
    lex_order,
    monomial_div,
    monomials_of_degree,
    pair_leader_order,
)

from conftest import (
    EliminatedColon,
    coefficient_pool,
    ideal_hilbert_dims,
    ideal_slice,
    random_reduced_class,
    regular_representation_kernel_dim,
    standard_monomials,
)


def linear_cycle_class(ctx, alpha, pairing=None):
    from fermatcalc.fermat_hodge import linear_cycle_poly

    return linear_cycle_poly(alpha, ctx, pairing)


def test_context_validation():
    ctx = FermatContext(2, 5)
    assert (ctx.sigma, ctx.m, ctx.nvars) == (6, 10, 4)
    assert FermatContext(4, 5).sigma == 9
    with pytest.raises(ValueError):
        FermatContext(3, 5)
    with pytest.raises(ValueError):
        FermatContext(2, 2)


def test_reduce_mod_jacobian(quintic_surface):
    ctx = quintic_surface
    assert reduce_mod_jacobian(Polynomial.monomial(4, (4, 1, 0, 0)), ctx).is_zero()
    untouched = Polynomial.monomial(4, (3, 3, 3, 3))
    assert reduce_mod_jacobian(untouched, ctx) == untouched
    mixed = Polynomial(4, [((4, 0, 1, 0), 2), ((2, 1, 1, 1), 5)])
    assert reduce_mod_jacobian(mixed, ctx) == Polynomial(4, [((2, 1, 1, 1), 5)])


def test_colon_slice_of_a_linear_cycle(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    ci = ColonIdeal(linear_cycle_class(ctx, (1, 1)), ctx)
    s1 = ci.slice(1)
    x = [Polynomial.variable(4, i) for i in range(4)]
    assert s1.dim == 2
    assert list(s1.basis) == [x[0] - x[1].scale(z), x[2] - x[3].scale(z)]
    assert ci.slice(0).dim == 0
    top = ci.slice(ctx.sigma)
    assert top.dim == count_monomials(4, ctx.sigma) - 1


def test_class_inside_jacobian_ideal_is_rejected(quintic_surface):
    ctx = quintic_surface
    p = Polynomial.monomial(4, (4, 2, 0, 0))  # multiple of x_0^4
    with pytest.raises(ValueError, match="zero primitive part"):
        ColonIdeal(p, ctx).slice(1)
    with pytest.raises(ValueError):
        ColonIdeal(Polynomial.monomial(4, (1, 0, 0, 0)), ctx).slice(1)  # wrong degree


def test_colon_slices_match_independent_rational_kernel(quartic_surface):
    # brute-force oracle: expand the multiplication matrix over Q via the
    # regular representation and row reduce with plain Fractions
    ctx = quartic_surface
    rng = random.Random(23)
    for _ in range(5):
        p = random_reduced_class(ctx, rng, terms=8)
        ci = ColonIdeal(p, ctx)
        for k in (1, 2, 3):
            source = list(monomials_of_degree(4, k))
            targets = list(monomials_of_degree(4, ctx.sigma + k, cap=ctx.d - 2))
            matrix = []
            for tau in targets:
                row = []
                for beta in source:
                    gamma = monomial_div(tau, beta)
                    c = ci.reduced.terms.get(gamma) if min(gamma) >= 0 else None
                    row.append(c if c is not None else CyclotomicNumber.zero())
                matrix.append(row)
            oracle_dim = regular_representation_kernel_dim(matrix, ctx.m)
            slice_k = ci.slice(k)
            assert slice_k.dim == oracle_dim
            # every basis element annihilates the class
            for b in slice_k.basis:
                assert reduce_mod_jacobian(b * p, ctx).is_zero()


def test_slice_bases_are_fully_reduced(quartic_surface):
    # canonical reduced echelon form: each basis polynomial is monic at its
    # leading monomial and vanishes at every other basis leading monomial;
    # this is what makes slices from different routes directly comparable
    ctx = quartic_surface
    rng = random.Random(101)
    order = lex_order(4)
    for _ in range(3):
        ci = ColonIdeal(random_reduced_class(ctx, rng, terms=7), ctx)
        for k in (1, 2, 3):
            basis = ci.slice(k).basis
            leads = [leading_term(b, order)[0] for b in basis]
            assert len(set(leads)) == len(leads)
            for b, lead in zip(basis, leads):
                assert b.coeff(lead) == CyclotomicNumber.one()
                for other in leads:
                    if other != lead:
                        assert b.coeff(other).is_zero()


def test_slice_output_does_not_depend_on_term_insertion_order(quintic_surface):
    ctx = quintic_surface
    rng = random.Random(9)
    p = random_reduced_class(ctx, rng)
    items = list(p.terms.items())
    rng.shuffle(items)
    shuffled = Polynomial(4, items)
    for k in (1, 2):
        assert ColonIdeal(p, ctx).slice(k) == ColonIdeal(shuffled, ctx).slice(k)


def test_hilbert_profile_of_linear_cycle(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (1, 3))
    profile = ColonIdeal(p, ctx).hilbert_profile()
    # the quotient is spanned by monomials in the two odd variables with
    # exponents at most d-2; count them directly
    oracle = tuple(
        sum(1 for u in range(ctx.d - 1) for v in range(ctx.d - 1) if u + v == k)
        for k in range(ctx.sigma + 1)
    )
    assert profile.dims == oracle == (1, 2, 3, 4, 3, 2, 1)


def test_hilbert_profile_of_a_septic_linear_cycle():
    ctx = FermatContext(2, 7)
    profile = ColonIdeal(linear_cycle_class(ctx, (1, 13)), ctx).hilbert_profile()
    assert profile.dims == (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)


def test_profile_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        HilbertProfile((1, 2, 2))
    with pytest.raises(ValueError):
        HilbertProfile((2, 1, 2))


def test_gorenstein_duality_for_random_product_classes(quintic_surface):
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    ctx = quintic_surface
    rng = random.Random(31)
    pool = coefficient_pool(ctx.m)
    for _ in range(4):
        spec = ProductClassSpec((rng.choice(pool), rng.choice(pool)), CyclotomicNumber.one())
        ci = ColonIdeal(product_class_poly(spec, ctx), ctx)
        dims = ci.hilbert_profile().dims
        assert dims[0] == dims[ctx.sigma] == 1
        assert all(dims[k] == dims[ctx.sigma - k] for k in range(ctx.sigma + 1))
        assert all(ci.pairing_rank(i) == dims[i] for i in range(ctx.sigma + 1))


def test_jacobian_generators_lie_in_every_colon_slice(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (3, 7))
    ci = ColonIdeal(p, ctx)
    for k in (4, 5):
        slice_k = ci.slice(k)
        power = Polynomial.monomial(4, (0, ctx.d - 1, 0, 0))
        for gamma in monomials_of_degree(4, k - (ctx.d - 1)):
            g = power * Polynomial.monomial(4, gamma)
            assert ideal_slice([*slice_k.basis, g], k, ci.order) == slice_k


def test_linear_cycle_lt_ideal_matches_monomial_template(quintic_surface):
    # under the paired order the leading-term ideal of a linear-cycle colon
    # ideal is the monomial ideal of the pivot variables and odd powers, in
    # every degree up to the socle
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (1, 1))
    ci = ColonIdeal(p, ctx, pair_leader_order(4))
    gens = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 4, 0, 0), (0, 0, 0, 4)]
    for k in range(ctx.sigma + 1):
        expected = {
            m
            for m in monomials_of_degree(4, k)
            if any(all(g[i] <= m[i] for i in range(4)) for g in gens)
        }
        assert set(ci.leading_monomials(k)) == expected


def test_lt_monomial_count_equals_kernel_dimension(quartic_surface):
    # leading-term ideal composed from minimal generators versus the
    # kernel-based quotient dimensions, degree by degree
    ctx = quartic_surface
    rng = random.Random(47)
    for _ in range(5):
        ci = ColonIdeal(random_reduced_class(ctx, rng, terms=6), ctx)
        gens = [m for degree in ci.lt_generators(ctx.sigma) for m in degree]
        for k in range(ctx.sigma + 1):
            outside = standard_monomials(gens, k, 4)
            assert len(outside) == ci.rank(k)


def test_buchberger_on_binomial_systems():
    d = 5
    a = zeta(10) ** 3
    x = [Polynomial.variable(4, i) for i in range(4)]
    gens = [x[0] - x[1].scale(a), Polynomial.monomial(4, (0, d - 1, 0, 0))]
    result = buchberger(gens, lex_order(4), degree_cap=2 * (d - 1))
    assert result.added == ()
    assert not result.truncated


def test_buchberger_monomial_ideals_are_self_groebner():
    gens = [
        Polynomial.monomial(4, (4, 0, 0, 0)),
        Polynomial.monomial(4, (0, 4, 0, 0)),
        Polynomial.monomial(4, (1, 1, 2, 0)),
    ]
    result = buchberger(gens, lex_order(4), degree_cap=10)
    assert result.added == () and not result.truncated


def test_buchberger_completes_when_needed():
    x = [Polynomial.variable(2, i) for i in range(2)]
    order = lex_order(2)
    gens = [x[0] * x[0] - x[1] * x[1], x[0] * x[1]]
    result = buchberger(gens, order, degree_cap=6)
    assert len(result.added) == 1
    cube = Polynomial.monomial(2, (0, 3))
    assert result.added[0] == cube
    # completion is verified by reducing every S-polynomial to zero
    basis = list(result.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            _, r = divide(s_polynomial(basis[i], basis[j], order), basis, order)
            assert r.is_zero()


def test_buchberger_reports_truncation():
    x = [Polynomial.variable(2, i) for i in range(2)]
    gens = [x[0] - x[1], Polynomial.monomial(2, (0, 3))]
    result = buchberger(gens, lex_order(2), degree_cap=3)
    assert result.truncated
    with pytest.raises(ValueError):
        buchberger(gens, lex_order(2), degree_cap=2)  # below a generator degree


def test_paired_binomial_systems_are_groebner_bases(quintic_surface):
    ctx = quintic_surface
    rng = random.Random(13)
    pool = coefficient_pool(ctx.m)
    x = [Polynomial.variable(4, i) for i in range(4)]
    for _ in range(3):
        gens = [
            x[0] - x[1].scale(rng.choice(pool)),
            x[2] - x[3].scale(rng.choice(pool)),
            Polynomial.monomial(4, (0, 4, 0, 0)),
            Polynomial.monomial(4, (0, 0, 0, 4)),
        ]
        result = buchberger(gens, pair_leader_order(4), degree_cap=2 * (ctx.d - 1))
        assert result.added == () and not result.truncated


def test_pairing_rank_examples(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (1, 1))
    ci = ColonIdeal(p, ctx)
    assert ci.pairing_rank(0) == 1
    assert ci.pairing_rank(ctx.sigma) == 1
    assert ci.pairing_rank(2) == 3
    # independent check of the 3x3 case: complement bases are the odd-variable
    # monomials, and each matrix entry is a coefficient lookup in the class
    left = ci.quotient_monomials(2)
    right = ci.quotient_monomials(4)
    assert set(left) == {(0, 2, 0, 0), (0, 1, 0, 1), (0, 0, 0, 2)}
    socle = (3, 3, 3, 3)
    matrix = []
    for u in left:
        row = []
        for v in right:
            rest = tuple(s - a - b for s, a, b in zip(socle, u, v))
            c = ci.reduced.terms.get(rest) if min(rest) >= 0 else None
            row.append(c if c is not None else CyclotomicNumber.zero())
        matrix.append(row)
    from conftest import regular_representation_kernel_dim

    nullity = regular_representation_kernel_dim(matrix, ctx.m)
    assert len(right) - nullity == 3


def test_groebner_pairing_ranks_agree_with_kernel_route(quintic_surface):
    # the same quotient algebra measured two ways: normal forms modulo a
    # truncated Groebner basis of the presented ideal, ranks over the
    # regular representation, versus the colon-ideal kernel machinery
    from conftest import groebner_pairing_ranks

    ctx = quintic_surface
    z = zeta(10)
    x = [Polynomial.variable(4, i) for i in range(4)]
    gens = (
        x[0] - x[1].scale(z),
        x[2] - x[3].scale(z**7),
        Polynomial.monomial(4, (0, 4, 0, 0)),
        Polynomial.monomial(4, (0, 0, 0, 4)),
    )
    ci = ColonIdeal(linear_cycle_class(ctx, (1, 7)), ctx)
    assert groebner_pairing_ranks(gens, ctx) == [
        ci.pairing_rank(i) for i in range(ctx.sigma + 1)
    ]


def test_ideal_slice_agrees_with_colon_route(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    p = linear_cycle_class(ctx, (1, 1))
    x = [Polynomial.variable(4, i) for i in range(4)]
    gens = [
        x[0] - x[1].scale(z),
        x[2] - x[3].scale(z),
        Polynomial.monomial(4, (0, 4, 0, 0)),
        Polynomial.monomial(4, (0, 0, 0, 4)),
    ]
    ci = ColonIdeal(p, ctx)
    for k in range(ctx.sigma + 1):
        assert ideal_slice(gens, k) == ci.slice(k)
    dims = ideal_hilbert_dims(gens, ctx.sigma)
    assert tuple(dims) == ci.hilbert_profile().dims


def test_degree_cap_defaults_beyond_socle(quintic_surface):
    # above sigma the colon is all of S_k: ranks and monomials are still read
    # there, and a slice, which would list every monomial, is refused
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (1, 1))
    for ci in (ColonIdeal(p, ctx), EliminatedColon(p, ctx)):
        for k in (ctx.sigma + 1, ctx.sigma + 2):
            monos = list(monomials_of_degree(4, k))
            assert ci.rank(k) == 0
            with pytest.raises(ValueError, match=r"slice degree must lie in 0\.\.6"):
                ci.slice(k)
            assert ci.leading_monomials(k) == frozenset(monos)
            assert ci.quotient_monomials(k) == ()


def test_negative_degrees_are_refused(quintic_surface):
    p = linear_cycle_class(quintic_surface, (1, 1))
    for ci in (ColonIdeal(p, quintic_surface), EliminatedColon(p, quintic_surface)):
        for entry in (ci.rank, ci.slice, ci.quotient_monomials, ci.leading_monomials):
            with pytest.raises(ValueError, match="negative degree"):
                entry(-1)


def test_ideal_and_quotient_slices_are_complementary(quintic_surface):
    ctx = quintic_surface
    ci = ColonIdeal(linear_cycle_class(ctx, (3, 5)), ctx)
    for k in range(ctx.sigma + 1):
        assert ci.slice(k).dim + len(ci.quotient_monomials(k)) == count_monomials(4, k)


# ---------------------------------------------------------------------------
# The echelon engine
# ---------------------------------------------------------------------------


def matrices(entries):
    """Nonempty lists of equal-length rows, at most 5 x 5."""
    return st.integers(1, 5).flatmap(
        lambda w: st.lists(st.lists(entries, min_size=w, max_size=w), min_size=1, max_size=5)
    )


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-3, 3)))
def test_echelon_matches_sympy_rref(matrix):
    import sympy

    pivots = echelon(sparse([Fraction(v) for v in row]) for row in matrix)
    rref, cols = sympy.Matrix(matrix).rref()
    assert sorted(pivots) == list(cols)
    for i, c in enumerate(cols):
        theirs = [Fraction(int(x.p), int(x.q)) for x in rref.row(i)]
        assert [pivots[c].get(j, 0) for j in range(len(matrix[0]))] == theirs


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(0, 6)), st.integers(0, 7))
def test_rank_mod_p_matches_sympy_over_the_prime_field(matrix, target):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(7)
    rank = DomainMatrix([[field(v) for v in row] for row in matrix],
                        (len(matrix), len(matrix[0])), field).rank()
    assert reaches_rank_mod_p([sparse(row) for row in matrix], 7, target) == (rank >= target)


# Primes of the rank pass: the least p > 2^31, p = 1 (mod L), at conductors L
# of the colon workloads.
RANK_PRIMES = tuple(sorted({_Reduction.avoiding([zeta(m)]).p for m in (1, 8, 10, 14, 18)}))


def residue_rows(rng, p, nrows, ncols, rank, sparse):
    """nrows dict rows of residues mod p, random combinations of `rank`
    random rows, on a random set of ncols column indices out of 2 ncols + 1;
    a zero residue leaves no entry.  With `sparse`, half the entries and
    coefficients are 0 and the rows come by descending least column, so rows
    often miss the column being eliminated and wait among the active rows;
    else no entry or coefficient is 0 and the rank is `rank`."""
    def entry():
        v = rng.choice((0, 0, 0, 1, p - 1, None) if sparse else (1, p - 1, None))
        return rng.randrange(1, p) if v is None else v

    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    cols = sorted(rng.sample(range(2 * ncols + 1), ncols))
    rows = []
    for _ in range(nrows):
        coefs = [entry() for _ in basis]
        row = [sum(a * b[j] for a, b in zip(coefs, basis)) % p for j in range(ncols)]
        rows.append({c: v for c, v in zip(cols, row) if v})
    if sparse:
        rows.sort(key=lambda row: min(row, default=0), reverse=True)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANK_PRIMES), st.integers(0, 10), st.integers(1, 10), st.data())
def test_rank_mod_p_matches_the_dict_reference(p, nrows, ncols, data):
    from conftest import rank_mod_p_by_dicts

    rank = data.draw(st.integers(0, min(nrows, ncols)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = residue_rows(rng, p, nrows, ncols, rank, data.draw(st.booleans()))
    for target in range(ncols + 3):
        assert reaches_rank_mod_p(rows, p, target) == \
            rank_mod_p_by_dicts([dict(row) for row in rows], p, target), target


@pytest.mark.parametrize("shape,nrows,ncols,rank", [
    ("square", 12, 12, 12), ("tall", 40, 8, 8), ("wide", 6, 30, 6),
    ("deficient", 14, 14, 9), ("tall deficient", 40, 10, 7), ("no rows", 0, 5, 0),
])
def test_rank_mod_p_on_every_shape_and_target(shape, nrows, ncols, rank):
    from conftest import rank_mod_p_by_dicts

    rng = random.Random(shape)
    for p in RANK_PRIMES:
        for sparse in (False, True):
            rows = residue_rows(rng, p, nrows, ncols, rank, sparse)
            # target 0 always holds, and a target above the column count never does
            got = [reaches_rank_mod_p(rows, p, t) for t in range(ncols + 3)]
            assert got == [rank_mod_p_by_dicts([dict(row) for row in rows], p, t)
                           for t in range(ncols + 3)], (shape, sparse)
            if not sparse:
                assert got == [t <= rank for t in range(ncols + 3)], shape
    assert reaches_rank_mod_p([], RANK_PRIMES[0], 0) and not reaches_rank_mod_p([], RANK_PRIMES[0], 1)


def test_rank_mod_p_dense_rows_reach_the_field_bound():
    # A = L U over the largest prime below 2^32: U is 1 on the diagonal and
    # p - 1 above it (n - 1 rows), row i < n - 1 of L is i + 1 ones and the
    # last row of L alternates 1, 2, so the rank is n - 1.  Rows arrive one
    # by one and row i takes i updates r += (p - f) * pivot, f in {1, 2}, with
    # pivot entries p - 1: the last row's fields reach about (n - 1) p^2, just
    # below 2^(W - 1).  Two bits fewer per field carry, and the last row then
    # leaves a residue at the free last column.
    p, n = 4294967291, 63
    upper = [[1 if j == i else p - 1 if j > i else 0 for j in range(n)] for i in range(n - 1)]
    lower = [[1] * (i + 1) for i in range(n - 1)] + [[1 + j % 2 for j in range(n - 1)]]
    rows = [{c: v for c in range(n) if (v := sum(a * u[c] for a, u in zip(ls, upper)) % p)}
            for ls in lower]
    assert reaches_rank_mod_p(rows, p, n - 1)
    assert not reaches_rank_mod_p(rows, p, n)


@pytest.mark.parametrize("n,d", [(4, 4), (2, 7)])
def test_rank_mod_p_matches_the_dict_reference_on_colon_rows(monkeypatch, n, d):
    from fermatcalc import idealcalc
    from fermatcalc.bounds import tangent_codim

    from conftest import rank_mod_p_by_dicts

    calls = []

    def recording(rows, p, target):
        calls.append((rows, p, target, reaches_rank_mod_p(rows, p, target)))
        return calls[-1][3]

    monkeypatch.setattr(idealcalc, "reaches_rank_mod_p", recording)
    ctx = FermatContext(n, d)
    for seed, terms in ((0, 40), (1, 40), (2, 10), (3, 4)):
        p = random_reduced_class(ctx, random.Random(seed), terms=terms)
        ColonIdeal(p, ctx).hilbert_profile()
        tangent_codim(p, ctx)
    assert {got for *_, got in calls} == {False, True}
    for rows, p, target, got in calls:
        assert rank_mod_p_by_dicts(rows, p, target) == got


def test_a_slice_with_fewer_targets_than_columns_skips_the_mod_p_pass(monkeypatch):
    from fermatcalc import idealcalc

    # (2,7) at degree 8: 10 capped targets of degree sigma + 8 for 125 columns
    ctx = FermatContext(2, 7)
    assert count_capped_monomials(4, ctx.sigma + 8, ctx.d - 2) == 10
    assert count_capped_monomials(4, 8, ctx.d - 2) == 125
    p = random_reduced_class(ctx, random.Random(0), terms=40)

    def refuse(*args):
        raise AssertionError("a mod-p pass ran")

    with monkeypatch.context() as mp:
        mp.setattr(idealcalc._Reduction, "avoiding", refuse)
        mp.setattr(idealcalc, "reaches_rank_mod_p", refuse)
        got = ColonIdeal(p, ctx).slice(8)
    # every basis vector multiplies P into J, J's degree-8 part lies in the
    # span, and the span is its own reduced echelon basis
    ci = ColonIdeal(p, ctx)
    for b in got.basis:
        assert all(max(e) >= ctx.d - 1 for e in (b * p).terms)
    jacobian = [Polynomial.monomial(4, tuple(g + (ctx.d - 1) * (v == i) for v, g in enumerate(gamma)))
                for i in range(4) for gamma in monomials_of_degree(4, 8 - (ctx.d - 1))]
    assert ideal_slice([*got.basis, *jacobian], 8, ci.order) == got
    assert got.dim == count_monomials(4, 8) - ci.hilbert_profile().dims[8]


FIELDS = {
    "rational": (st.integers(-3, 3).map(Fraction), Fraction(1)),
    "zeta10": (
        st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(lambda v: CyclotomicNumber(10, v)),
        CyclotomicNumber.one(),
    ),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_echelon_tag_columns_record_row_combinations(field, data):
    entries, one = FIELDS[field]
    matrix = data.draw(matrices(entries))
    width = len(matrix[0])
    rows = [sparse(row) for row in matrix]
    pivots: dict[int, dict] = {}
    for k, row in enumerate(rows):
        echelon_insert(pivots, {**row, width + k: one}, width)
    assert all(c < width for c in pivots)
    for stored in pivots.values():
        combination = [0] * width
        for tag_col, t in stored.items():
            if tag_col >= width:
                for c, v in rows[tag_col - width].items():
                    combination[c] = combination[c] + t * v
        assert all(stored.get(c, 0) == combination[c] for c in range(width))


# ---------------------------------------------------------------------------
# Quotient dimensions after solving out the linear generators
# ---------------------------------------------------------------------------


def hilbert_dims_by_full_spans(gens, up_to):
    """Quotient dimensions from spans in all the variables, with no linear
    generator solved out."""
    nvars = gens[0].nvars
    return [count_monomials(nvars, k) - ideal_slice(gens, k).dim for k in range(up_to + 1)]


def decomposition_generators(ctx, conic):
    """<f_i, g_i> for F = sum f_i g_i of type 1,...,1 or, with `conic`,
    1,...,1,2; each f_i is a product of factors x - zeta_2d^a y, a odd."""
    z = zeta(ctx.m)
    x = [Polynomial.variable(ctx.nvars, i) for i in range(ctx.nvars)]
    gens = []
    for j in range(ctx.n // 2 + 1):
        f = x[2 * j] - x[2 * j + 1].scale(z ** (2 * j + 1))
        if conic and j == ctx.n // 2:
            f = f * (x[2 * j] - x[2 * j + 1].scale(z ** (2 * j + 3)))
        (g,), r = divide(x[2 * j] ** ctx.d + x[2 * j + 1] ** ctx.d, [f], lex_order(ctx.nvars))
        assert r.is_zero()
        gens += [f, g]
    return gens


@pytest.mark.parametrize("conic", [False, True], ids=["linear", "conic"])
@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4), (4, 5)])
def test_hilbert_dims_of_decompositions_match_full_spans(n, d, conic):
    ctx = FermatContext(n, d)
    gens = decomposition_generators(ctx, conic)
    dims = ideal_hilbert_dims(gens, ctx.sigma + 1)
    assert dims == hilbert_dims_by_full_spans(gens, ctx.sigma + 1)
    assert dims[ctx.sigma] == 1 and dims[ctx.sigma + 1] == 0


def test_hilbert_dims_of_plane_generators_match_full_spans(quintic_surface):
    from fermatcalc.fermat_hodge import plane_in_fermat

    ctx = quintic_surface
    z = zeta(10)
    x = [Polynomial.variable(4, i) for i in range(4)]
    L1, L2 = x[0] - x[1].scale(z), x[2] - x[3].scale(z**3)
    for forms in ([L1, L2], [L1 + L2, L1 - L2]):
        gens = plane_in_fermat(forms, ctx).generators
        assert ideal_hilbert_dims(gens, ctx.sigma + 1) == hilbert_dims_by_full_spans(
            gens, ctx.sigma + 1
        )


X = [Polynomial.variable(4, i) for i in range(4)]
SPECIAL_IDEALS = {
    "dependent-linear": [
        X[0] - X[1], (X[0] - X[1]).scale(2), X[0] + X[2], X[1] + X[2], X[0] ** 3 + X[1] * X[3] ** 2,
    ],
    "vanishing-generator": [X[0] - X[1], X[0] ** 2 - X[1] ** 2, X[2] ** 3, X[3] ** 2 - X[0] * X[2]],
    "no-linear": [X[0] ** 2, X[1] ** 2 - X[2] * X[3], X[2] ** 3 + X[0] * X[3] ** 2],
    "spanning-linear": [X[0] + X[1], X[1] - X[2], X[2], X[3] + X[0], X[0] ** 2 + X[1] * X[3]],
}


@pytest.mark.parametrize("name", sorted(SPECIAL_IDEALS))
def test_hilbert_dims_of_special_ideals_match_full_spans(name):
    gens = SPECIAL_IDEALS[name]
    assert ideal_hilbert_dims(gens, 6) == hilbert_dims_by_full_spans(gens, 6)


def test_hilbert_dims_when_linear_forms_span_every_variable():
    x = [Polynomial.variable(3, i) for i in range(3)]
    assert ideal_hilbert_dims(x, 3) == [1, 0, 0, 0]
    assert ideal_hilbert_dims(SPECIAL_IDEALS["spanning-linear"], 2) == [1, 0, 0]


def test_hilbert_dims_refuse_inhomogeneous_generators():
    with pytest.raises(ValueError, match="homogeneous"):
        ideal_hilbert_dims([X[0] - X[1], X[2] ** 2 + X[3]], 3)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hilbert_dims_of_random_ideals_match_full_spans(field, data):
    entries, _ = FIELDS[field]
    nvars = data.draw(st.integers(2, 4))

    def form(degree):
        size = count_monomials(nvars, degree)
        coeffs = data.draw(st.lists(entries, min_size=size, max_size=size).filter(any))
        return Polynomial(nvars, zip(monomials_of_degree(nvars, degree), coeffs))

    linear = [form(1) for _ in range(data.draw(st.integers(0, nvars)))]
    quadrics = [form(2) for _ in range(data.draw(st.integers(1, 3)))]
    gens = data.draw(st.permutations(linear + quadrics))
    assert ideal_hilbert_dims(gens, 4) == hilbert_dims_by_full_spans(gens, 4)


# ---------------------------------------------------------------------------
# The capped catalecticant, symmetric ranks and the mod-p rank pass
# ---------------------------------------------------------------------------


class TargetLoopColon(EliminatedColon):
    """Reference colon ideal: one row per capped target over every degree-k
    monomial, uncapped columns included, eliminated exactly at every degree,
    with no symmetry, no mod-p pass and no product recognition."""

    def target_rows(self, targets, columns):
        index = {m: i for i, m in enumerate(columns)}
        rows = []
        for tau in targets:
            row = {}
            for gamma, c in self.reduced.terms.items():
                col = index.get(monomial_div(tau, gamma))
                if col is not None:
                    row[col] = c
            if row:
                rows.append(row)
        return rows

    def _kernel_data(self, k):
        if k not in self._cache:
            ctx = self.ctx
            source = sorted(monomials_of_degree(ctx.nvars, k), key=self.order.key)
            targets = monomials_of_degree(ctx.nvars, ctx.sigma + k, cap=ctx.d - 2)
            pivots = echelon(self.target_rows(targets, source))
            free = [i for i in range(len(source)) if i not in pivots]
            self._cache[k] = (source, pivots, sorted(pivots), free)
        return self._cache[k]

    def rank(self, k):
        return len(self._kernel_data(k)[2])

    def hilbert_profile(self):
        """Every degree 0..sigma eliminated on its own, with no symmetry and
        no step down from a full-rank degree."""
        return HilbertProfile(tuple(self.rank(k) for k in range(self.ctx.sigma + 1)))

    def pairing_rank(self, i):
        socle = (self.ctx.d - 2,) * self.ctx.nvars
        targets = [monomial_div(socle, u) for u in self.quotient_monomials(i)]
        right = self.quotient_monomials(self.ctx.sigma - i)
        return len(echelon(self.target_rows(targets, right)))

    def oracle_rank(self, k, m):
        """Rank of the full matrix by `regular_representation_kernel_dim`."""
        ctx = self.ctx
        source = list(monomials_of_degree(ctx.nvars, k))
        targets = list(monomials_of_degree(ctx.nvars, ctx.sigma + k, cap=ctx.d - 2))
        zero = CyclotomicNumber.zero()
        matrix = [
            [self.reduced.terms.get(monomial_div(tau, beta), zero) for beta in source]
            for tau in targets
        ]
        return len(source) - regular_representation_kernel_dim(matrix, m) if matrix else 0


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_capped_catalecticant_matches_the_target_loop(field, data):
    entries, _ = FIELDS[field]
    ctx = data.draw(st.sampled_from([FermatContext(2, 4), FermatContext(4, 3)]), label="ctx")
    monos = list(monomials_of_degree(ctx.nvars, ctx.sigma, cap=ctx.d - 2))
    if data.draw(st.booleans(), label="dense"):
        support = monos
    else:
        support = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    p = Polynomial(ctx.nvars, [(e, data.draw(entries.filter(bool))) for e in support])
    ci, ref = ColonIdeal(p, ctx), TargetLoopColon(p, ctx)
    m = 10 if field == "zeta10" else 1
    for k in range(ctx.sigma + 1):
        assert ci.rank(k) == ci.rank(ctx.sigma - k) == ref.rank(k) == ref.oracle_rank(k, m)
        assert ci.slice(k) == ref.slice(k)
        assert ci.quotient_monomials(k) == ref.quotient_monomials(k)
        assert ci.leading_monomials(k) == ref.leading_monomials(k)
        assert ci.pairing_rank(k) == ref.pairing_rank(k)
    assert ci.lt_generators(ctx.sigma) == ref.lt_generators(ctx.sigma)


@pytest.mark.parametrize("conductor", [10, 12, 30])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_residue_map_is_a_ring_homomorphism(conductor, data):
    from fermatcalc.idealcalc import _is_prime, _Reduction

    red = _Reduction.avoiding([CyclotomicNumber.one(conductor)])
    assert _is_prime(red.p) and red.p % conductor == 1 and red.conductor == conductor
    assert pow(red.w, conductor, red.p) == 1
    assert all(pow(red.w, conductor // q, red.p) != 1 for q in (2, 3, 5) if conductor % q == 0)
    divisors = [m for m in range(1, conductor + 1) if conductor % m == 0]

    def value():
        m = data.draw(st.sampled_from(divisors))
        coords = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=euler_phi(m),
                                    max_size=euler_phi(m)))
        return CyclotomicNumber.from_coords(m, coords)

    x, y = value(), value()
    assert red(x + y) == (red(x) + red(y)) % red.p
    assert red(x - y) == (red(x) - red(y)) % red.p
    assert red(x * y) == red(x) * red(y) % red.p
    assert red(x.promote(conductor)) == red(x)
    if x:
        assert red(1 / x) == pow(red(x), -1, red.p)


def test_prime_search_skips_a_prime_dividing_a_denominator():
    from fermatcalc.fermat_hodge import linear_cycle_poly
    from fermatcalc.idealcalc import _is_prime, _Reduction

    first = _Reduction.avoiding([zeta(10)])
    blocked = CyclotomicNumber.from_rational(Fraction(1, first.p))
    second = _Reduction.avoiding([zeta(10), blocked])
    assert second.p > first.p and second.p % 10 == 1 and _is_prime(second.p)
    assert not any(_is_prime(q) for q in range(first.p + 10, second.p, 10))
    ctx = FermatContext(2, 5)
    p = linear_cycle_poly((1, 3), ctx)
    scaled = EliminatedColon(p.scale(blocked), ctx)  # its residues need a different prime
    assert scaled.hilbert_profile() == ColonIdeal(p, ctx).hilbert_profile()
    assert scaled.slice(2) == TargetLoopColon(p, ctx).slice(2)


def test_rank_deficient_degree_falls_back_to_the_exact_engine(monkeypatch):
    from fermatcalc import idealcalc

    ctx = FermatContext(4, 5)
    p = linear_cycle_class(ctx, (1, 3, 5))
    calls = []
    monkeypatch.setattr(idealcalc, "echelon", lambda rows: calls.append(len(rows)) or echelon(rows))
    source, pivots, pivot_cols, free_cols = ColonIdeal(p, ctx)._kernel_data(4)
    assert len(pivot_cols) == 12
    assert sum(max(m) <= ctx.d - 2 for m in source) == 120
    assert len(calls) == 1
    assert pivots == TargetLoopColon(p, ctx)._kernel_data(4)[1]


def test_full_rank_degree_stores_the_pivots_of_the_exact_engine(monkeypatch):
    from fermatcalc import idealcalc

    ctx = FermatContext(4, 4)
    p = random_reduced_class(ctx, random.Random(5), terms=40)

    def refuse(rows):
        raise AssertionError("a degree proved full rank mod p needs no exact elimination")

    monkeypatch.setattr(idealcalc, "echelon", refuse)
    source, pivots, pivot_cols, free_cols = ColonIdeal(p, ctx)._kernel_data(3)
    assert len(pivot_cols) == 50
    assert [source[c] for c in free_cols] == [m for m in source if max(m) > ctx.d - 2]
    assert pivots == TargetLoopColon(p, ctx)._kernel_data(3)[1]


def test_pairing_rank_on_a_full_rank_degree_needs_no_exact_elimination(monkeypatch):
    from fermatcalc import idealcalc

    ctx = FermatContext(4, 4)
    p = random_reduced_class(ctx, random.Random(5), terms=40)
    expected = TargetLoopColon(p, ctx).pairing_rank(3)

    def refuse(rows):
        raise AssertionError("a pairing proved full rank mod p needs no exact elimination")

    monkeypatch.setattr(idealcalc, "echelon", refuse)
    assert ColonIdeal(p, ctx).pairing_rank(3) == expected == 50


def test_pairing_rank_eliminates_only_its_rank_deficient_degrees(monkeypatch):
    from fermatcalc import idealcalc

    ctx = FermatContext(4, 5)
    p = linear_cycle_class(ctx, (1, 3, 5))
    ref = TargetLoopColon(p, ctx)
    calls = []
    monkeypatch.setattr(idealcalc, "echelon", lambda rows: calls.append(len(rows)) or echelon(rows))
    assert EliminatedColon(p, ctx).pairing_rank(0) == ref.pairing_rank(0) == 1
    assert calls == [1]  # degree sigma's one capped target; degree 0 and the pairing pass mod p
    for i in range(1, ctx.sigma):
        calls.clear()
        assert EliminatedColon(p, ctx).pairing_rank(i) == ref.pairing_rank(i)
        assert len(calls) == 2  # degrees i and sigma-i; the pairing itself passes mod p
        calls.clear()
        # the closed form gives both monomial bases, and the pairing passes mod p
        assert ColonIdeal(p, ctx).pairing_rank(i) == ref.pairing_rank(i)
        assert calls == []


def product_profile(ctx):
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^(n/2+1)."""
    dims = [1]
    for _ in range(ctx.n // 2 + 1):
        dims = [sum(dims[max(0, k - ctx.d + 2):k + 1]) for k in range(len(dims) + ctx.d - 2)]
    return tuple(dims)


@pytest.mark.parametrize("n,d", [(4, 5), (2, 9), (6, 4)])
def test_product_class_profiles_are_powers_of_a_truncated_geometric_series(n, d):
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    from conftest import random_product_coefficients

    ctx = FermatContext(n, d)
    rng = random.Random(n * d)
    for _ in range(2):
        spec = ProductClassSpec(random_product_coefficients(ctx, rng), CyclotomicNumber.one())
        dims = ColonIdeal(product_class_poly(spec, ctx), ctx).hilbert_profile().dims
        assert dims == product_profile(ctx)
    if (n, d) == (4, 5):
        assert dims == (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)


# ---------------------------------------------------------------------------
# Colon ranks against the target loop and the rational oracle
# ---------------------------------------------------------------------------


def record_kernel_degrees(monkeypatch) -> list[int]:
    """Degrees of every uncached `_kernel_data` call from now on."""
    degrees = []
    kernel_data = ColonIdeal._kernel_data

    def recording(self, k):
        if k not in self._cache:
            degrees.append(k)
        return kernel_data(self, k)

    monkeypatch.setattr(ColonIdeal, "_kernel_data", recording)
    return degrees


def class_of_kind(ctx, kind, entries, data):
    """A class of the given kind whose coefficients come from `entries`
    (linear cycles always carry powers of zeta_2d)."""
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    nonzero = entries.filter(bool)
    if kind == "linear":
        odd = st.sampled_from(range(1, 2 * ctx.d, 2))
        alpha = data.draw(st.tuples(*[odd] * (ctx.n // 2 + 1)), label="alpha")
        return linear_cycle_class(ctx, alpha)
    if kind == "product":
        a = [CyclotomicNumber._coerce(data.draw(nonzero)) for _ in range(ctx.n // 2 + 1)]
        return product_class_poly(ProductClassSpec(tuple(a), CyclotomicNumber.one()), ctx)
    monos = list(monomials_of_degree(ctx.nvars, ctx.sigma, cap=ctx.d - 2))
    if kind == "dense":
        support = monos
    else:
        support = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return Polynomial(ctx.nvars, [(e, data.draw(nonzero)) for e in support])


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_colon_ranks_match_the_target_loop_and_the_rational_oracle(field, data):
    import math

    entries, _ = FIELDS[field]
    ctx = data.draw(st.sampled_from([FermatContext(2, 4), FermatContext(2, 5),
                                     FermatContext(4, 3), FermatContext(4, 4)]), label="ctx")
    kind = data.draw(st.sampled_from(["sparse", "dense", "linear", "product"]), label="kind")
    if kind == "dense" and (ctx.n, ctx.d) == (4, 4):
        # the oracle expands Q(zeta_10) entries into 4x4 rational blocks, which
        # takes about 90 s on a dense (4,4) class on a 2-core x86_64 host, so
        # those classes stay rational
        entries, _ = FIELDS["rational"]
    p = class_of_kind(ctx, kind, entries, data)
    with pytest.MonkeyPatch.context() as mp:
        degrees = record_mod_p_degrees(mp)
        ci, ref = ColonIdeal(p, ctx), TargetLoopColon(p, ctx)
        m = math.lcm(*(c.m for c in ref.reduced.terms.values()))
        for k in range(ctx.sigma + 1):
            assert ci.rank(k) == ref.rank(k) == ref.oracle_rank(k, m)
    if kind in ("linear", "product"):
        assert degrees == []  # counted off the recognised product, with no row built


@pytest.mark.parametrize("n,d", [(4, 5), (2, 9), (6, 4)])
def test_linear_and_product_profiles_need_no_exact_elimination_past_degree_one(n, d, monkeypatch):
    # nor at degree one: the closed form builds no row at any degree
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    from conftest import random_product_coefficients

    ctx = FermatContext(n, d)
    rng = random.Random(n + d)
    alpha = tuple(rng.randrange(1, 2 * d, 2) for _ in range(n // 2 + 1))
    spec = ProductClassSpec(random_product_coefficients(ctx, rng), CyclotomicNumber.one())
    degrees = record_kernel_degrees(monkeypatch)
    mod_p = record_mod_p_degrees(monkeypatch)
    for p in (linear_cycle_class(ctx, alpha), product_class_poly(spec, ctx)):
        degrees.clear()
        mod_p.clear()
        ci = ColonIdeal(p, ctx)
        assert ci.hilbert_profile().dims == product_profile(ctx)
        assert degrees == []
        assert mod_p == []


def test_an_eliminated_profile_folds_every_degree_to_at_most_sigma_half(monkeypatch):
    ctx = FermatContext(4, 5)
    p = linear_cycle_class(ctx, (1, 3, 5))
    degrees = record_kernel_degrees(monkeypatch)
    ci = EliminatedColon(p, ctx)  # the linear cycle on the elimination route
    assert ci.rank(4) == TargetLoopColon(p, ctx).rank(4) == 12
    assert degrees == [4]
    assert ci.hilbert_profile().dims == product_profile(ctx)
    assert sorted(degrees) == [0, 1, 2, 3, 4]


def test_a_coefficient_divisible_by_the_prime_leaves_no_residue_entry():
    from fermatcalc.idealcalc import _Reduction

    ctx = FermatContext(2, 5)
    p = linear_cycle_class(ctx, (1, 3))
    prime = _Reduction.avoiding(p.terms.values()).p
    assert prime == 2147483951
    scaled = EliminatedColon(p.scale(prime), ctx)  # every residue is 0 mod the same prime
    assert scaled.hilbert_profile() == ColonIdeal(p, ctx).hilbert_profile()
    assert scaled.slice(2) == ColonIdeal(p, ctx).slice(2)


# ---------------------------------------------------------------------------
# Products are counted; every other class is eliminated
# ---------------------------------------------------------------------------


def record_mod_p_degrees(monkeypatch) -> list[int]:
    """Column degree of every mod-p row build from now on."""
    degrees = []
    rows = ColonIdeal._multiplication_rows

    def recording(self, index, kept, exact):
        if not exact:
            degrees.append(sum(next(iter(index))) if index else 0)
        return rows(self, index, kept, exact)

    monkeypatch.setattr(ColonIdeal, "_multiplication_rows", recording)
    return degrees


def recognised_products(ctx):
    """A linear cycle, a product class and a product class with a zero
    coefficient (its factor x_p^(d-2) is annihilated by x_p alone)."""
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    from conftest import random_product_coefficients

    rng = random.Random(ctx.n * ctx.d)
    alpha = tuple(rng.randrange(1, 2 * ctx.d, 2) for _ in range(ctx.n // 2 + 1))
    a = random_product_coefficients(ctx, rng)
    with_zero = (CyclotomicNumber.zero(), *a[1:])
    return {
        "linear": linear_cycle_class(ctx, alpha),
        "product": product_class_poly(ProductClassSpec(a, CyclotomicNumber.one()), ctx),
        "zero a_0": product_class_poly(ProductClassSpec(with_zero, CyclotomicNumber.one()), ctx),
    }


def grouped_class(ctx):
    """A class whose degree-one colon has n/2+1 forms but which is no product:
    the dual generator of J + <x_1 - 2 x_0, x_2 - zeta x_0, x_(2j) - zeta^3
    x_(2j+1) for j >= 2>.  x_0, x_1 and x_2 are proportional on the forms' zero
    set and x_3 stays alone, so no pairing fits.  Its factor in x_0, x_1, x_2
    is sum_u 2^(d-2-u_1) zeta^(d-2-u_2) x^u over the capped u of degree 2(d-2)."""
    from fermatcalc.idealcalc import pairing_product

    cap = ctx.d - 2
    two, z = CyclotomicNumber.from_rational(2), zeta(ctx.m)
    block = Polynomial(ctx.nvars, [
        (u + (0,) * (ctx.nvars - 3), two ** (cap - u[1]) * z ** (cap - u[2]))
        for u in monomials_of_degree(3, 2 * cap, cap=cap)])
    rest = [(2 * j, 2 * j + 1) for j in range(2, ctx.nvars // 2)]
    return block * pairing_product(ctx, rest, [z**3] * len(rest), 1)


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4), (4, 5), (6, 4)])
def test_product_ranks_build_no_rows_and_a_grouped_class_is_eliminated(n, d, monkeypatch):
    from fermatcalc.idealcalc import product_structure

    ctx = FermatContext(n, d)
    degrees = record_mod_p_degrees(monkeypatch)
    kernels = record_kernel_degrees(monkeypatch)
    for kind, p in recognised_products(ctx).items():
        ci = ColonIdeal(p, ctx)
        assert ci.hilbert_profile().dims == product_profile(ctx), kind
        assert ci.slice(1).dim == n // 2 + 1, kind
    assert degrees == kernels == []  # products are read off their normal form
    p = grouped_class(ctx)
    assert product_structure(p, ctx) is None
    ci, ref = ColonIdeal(p, ctx), TargetLoopColon(p, ctx)
    assert ci.hilbert_profile().dims == product_profile(ctx)
    assert ci.slice(1).dim == n // 2 + 1
    # a complete intersection that no pairing fits: eliminated up to sigma/2
    assert sorted(kernels) == list(range(ctx.sigma // 2 + 1))
    for k in range(ctx.sigma // 2 + 1):
        assert ci.rank(k) == ref.rank(k), k


@pytest.mark.parametrize("n,d", [(2, 7), (4, 4), (4, 5)])
def test_tangent_of_a_dense_class_eliminates_one_degree(n, d, monkeypatch):
    from fermatcalc.bounds import tangent_codim

    ctx = FermatContext(n, d)
    p = random_reduced_class(ctx, random.Random(n * d), terms=40)
    kernels = record_kernel_degrees(monkeypatch)
    tangent_codim(p, ctx)
    assert kernels == [min(d, ctx.sigma - d)]


def linear_cycle_sum(ctx, specs):
    """The sum of the linear cycles over the given (alpha[, pairing]) specs."""
    first, *rest = (linear_cycle_class(ctx, *spec) for spec in specs)
    return sum(rest, first)


# Sums of linear cycles whose degree-one colon has n/2 forms, one short of the
# complete intersection: two cycles whose exponents differ in the last pair,
# three cycles at (2,7), and one exponent vector over two pairings.
CYCLE_SUMS = [
    pytest.param(2, 5, [((1, 3),), ((1, 5),)], id="2-5"),
    pytest.param(4, 4, [((1, 3, 5),), ((1, 3, 7),)], id="4-4"),
    pytest.param(2, 7, [((1, 3),), ((1, 5),), ((1, 7),)], id="2-7-three-cycles"),
    pytest.param(2, 5, [((1, 3), ((0, 1), (2, 3))), ((1, 3), ((0, 2), (1, 3)))],
                 id="2-5-two-pairings"),
    pytest.param(4, 4, [((1, 3, 5), ((0, 1), (2, 3), (4, 5))),
                        ((1, 3, 5), ((0, 2), (1, 3), (4, 5)))], id="4-4-two-pairings"),
]


@pytest.mark.parametrize("n,d,specs", CYCLE_SUMS)
def test_linear_cycle_sums_are_eliminated_past_degree_one(n, d, specs, monkeypatch):
    ctx = FermatContext(n, d)
    p = linear_cycle_sum(ctx, specs)
    degrees = record_mod_p_degrees(monkeypatch)
    ci, ref = ColonIdeal(p, ctx), TargetLoopColon(p, ctx)
    for k in range(ctx.sigma + 1):
        assert ci.rank(k) == ref.rank(k)
    assert ci.slice(1).dim == n // 2
    assert max(degrees) >= 2  # ranks past degree one took the exact route


@pytest.mark.parametrize("n,d,specs", CYCLE_SUMS[:2])
def test_a_rank_deficient_degree_is_ranked_mod_p_once(n, d, specs, monkeypatch):
    ctx = FermatContext(n, d)
    degrees = record_mod_p_degrees(monkeypatch)
    ci = ColonIdeal(linear_cycle_sum(ctx, specs), ctx)
    assert ci.hilbert_profile().dims != product_profile(ctx)
    # from sigma/2 down, each degree once: only degree 0 reaches full rank
    assert degrees == list(range(ctx.sigma // 2, -1, -1))


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4)])
def test_a_dense_profile_at_full_rank_is_ranked_mod_p_only_at_sigma_half(n, d, monkeypatch):
    from fermatcalc import idealcalc

    ctx = FermatContext(n, d)
    p = random_reduced_class(ctx, random.Random(n * d), terms=40)
    expected = TargetLoopColon(p, ctx).hilbert_profile()
    degrees = record_mod_p_degrees(monkeypatch)
    kernels = record_kernel_degrees(monkeypatch)

    def refuse(rows):
        raise AssertionError("a full-rank profile needs no exact elimination")

    monkeypatch.setattr(idealcalc, "echelon", refuse)
    ci = ColonIdeal(p, ctx)
    assert ci.hilbert_profile() == expected
    assert expected.dims[ctx.sigma // 2] == count_capped_monomials(ctx.nvars, ctx.sigma // 2, d - 2)
    assert degrees == kernels == [ctx.sigma // 2]


def assert_top_down_profile_matches_the_target_loop(p, ctx):
    """The profile ranked from sigma/2 down against every degree eliminated on
    its own, and the claim it rests on: a degree at full rank (as many as the
    capped monomials) has every lower degree at full rank."""
    expected = TargetLoopColon(p, ctx).hilbert_profile()
    assert ColonIdeal(p, ctx).hilbert_profile() == expected
    full = [expected.dims[k] == count_capped_monomials(ctx.nvars, k, ctx.d - 2)
            for k in range(ctx.sigma + 1)]
    assert all(full[:k] == [True] * k for k in range(ctx.sigma + 1) if full[k])


@pytest.mark.parametrize("n,d,specs", CYCLE_SUMS)
def test_top_down_profiles_of_cycle_sums_match_the_target_loop(n, d, specs):
    ctx = FermatContext(n, d)
    assert_top_down_profile_matches_the_target_loop(linear_cycle_sum(ctx, specs), ctx)


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4), (4, 5)])
def test_top_down_profile_of_a_grouped_class_matches_the_target_loop(n, d):
    ctx = FermatContext(n, d)
    assert_top_down_profile_matches_the_target_loop(grouped_class(ctx), ctx)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_top_down_profiles_of_random_cycle_sums_match_the_target_loop(data):
    from fermatcalc.fermat_hodge import all_pairings

    n, d = data.draw(st.sampled_from([(2, 5), (2, 7), (4, 4)]), label="n, d")
    ctx = FermatContext(n, d)
    alpha = st.tuples(*[st.sampled_from(range(1, 2 * d, 2))] * (n // 2 + 1))
    spec = st.tuples(alpha, st.sampled_from(all_pairings(n)))
    specs = data.draw(st.lists(spec, min_size=2, max_size=3), label="specs")
    assert_top_down_profile_matches_the_target_loop(linear_cycle_sum(ctx, specs), ctx)


# ---------------------------------------------------------------------------
# The closed form of product classes against the elimination route
# ---------------------------------------------------------------------------


def closed_form_classes(ctx, rng):
    """Linear cycles over the default and a random pairing, product classes
    with c_lambda in {1, 3/2, i} over random pairings of either orientation,
    and product classes with one and with every a_j = 0.  Coefficients are
    command-line literals, so rationals keep conductor 1 and i conductor 4."""
    from fermatcalc.fermat_hodge import ProductClassSpec, all_pairings, product_class_poly
    from fermatcalc.ioformats import parse_cyclotomic_expr

    half = ctx.n // 2 + 1
    odd = range(1, 2 * ctx.d, 2)

    def literal(text):
        return parse_cyclotomic_expr(text, ctx.m)

    def pairing():
        return tuple((q, p) if rng.random() < 0.5 else (p, q) for p, q in rng.choice(all_pairings(ctx.n)))

    def coefficients():
        pool = ["z", "-2*z^3", "3/2*z^7", "z^2*i", "1/2", "-1", "i"]
        return tuple(literal(rng.choice(pool)) for _ in range(half))

    yield "linear", linear_cycle_class(ctx, tuple(rng.choice(odd) for _ in range(half)))
    yield "linear, random pairing", linear_cycle_class(
        ctx, tuple(rng.choice(odd) for _ in range(half)), pairing())
    for c in ("1", "3/2", "i"):
        yield f"c = {c}", product_class_poly(ProductClassSpec(coefficients(), literal(c), pairing()), ctx)
    a = coefficients()
    yield "one a_j = 0", product_class_poly(
        ProductClassSpec((CyclotomicNumber.zero(), *a[1:]), literal("3/2"), pairing()), ctx)
    yield "every a_j = 0", product_class_poly(
        ProductClassSpec((CyclotomicNumber.zero(),) * half, literal("i"), pairing()), ctx)


def assert_closed_form_matches(ci, ref, exact_bytes=True):
    """Every degree 0..sigma of ColonIdeal `ci` against the eliminating `ref`:
    ranks, slices (their JSON bytes too when `exact_bytes`), monomials,
    pairing ranks and the leading-term generators."""
    from fermatcalc.ioformats import slice_to_json

    sigma = ci.ctx.sigma
    for k in range(sigma + 1):
        assert ci.rank(k) == ref.rank(k), k
        closed, eliminated = ci.slice(k), ref.slice(k)
        assert closed == eliminated, k
        if exact_bytes:
            assert slice_to_json(closed) == slice_to_json(eliminated), k
        assert ci.quotient_monomials(k) == ref.quotient_monomials(k), k
        assert ci.leading_monomials(k) == ref.leading_monomials(k), k
        assert ci.pairing_rank(k) == ref.pairing_rank(k), k
    assert ci.lt_generators(sigma) == ref.lt_generators(sigma)


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (2, 9), (4, 4), (4, 5), (6, 4)])
def test_closed_form_matches_the_elimination_route(n, d, monkeypatch):
    from fermatcalc.multipoly import pair_leader_order

    ctx = FermatContext(n, d)
    rng = random.Random(f"closed form:{n}:{d}")
    kernels = record_kernel_degrees(monkeypatch)
    orders = (lex_order(ctx.nvars), pair_leader_order(ctx.nvars))
    # the target loop and both orders per class where the eliminations are
    # cheap; at (2,9), (4,5) and (6,4) the classes take the two orders in turn
    small = (n, d) in ((2, 5), (2, 7), (4, 4))
    for i, (kind, p) in enumerate(closed_form_classes(ctx, rng)):
        for order in orders if small else orders[i % 2:i % 2 + 1]:
            ci = ColonIdeal(p, ctx, order)
            refs = [EliminatedColon(p, ctx, order)] + [TargetLoopColon(p, ctx, order)] * small
            for ref in refs:
                assert_closed_form_matches(ci, ref)
    assert all(k in kernels for k in range(ctx.sigma + 1))  # the references eliminated


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closed_form_matches_elimination_over_random_pairings(data):
    from fermatcalc.exactnum import root_of_unity
    from fermatcalc.fermat_hodge import ProductClassSpec, all_pairings, product_class_poly
    from fermatcalc.multipoly import MonomialOrder

    ctx = data.draw(st.sampled_from([FermatContext(2, 3), FermatContext(2, 4), FermatContext(2, 5),
                                     FermatContext(4, 3)]), label="ctx")
    half = ctx.n // 2 + 1
    field = data.draw(st.sampled_from([ctx.m, 4]), label="field")
    rational = st.fractions(-3, 3, max_denominator=3).filter(bool)
    value = st.builds(lambda r, k: root_of_unity(field, k) * r, rational, st.integers(0, field - 1))
    a = data.draw(st.lists(st.one_of(st.just(CyclotomicNumber.zero()), value, rational),
                           min_size=half, max_size=half), label="a")
    c = data.draw(st.one_of(value, rational), label="c")
    pairing = tuple((q, p) if data.draw(st.booleans()) else (p, q)
                    for p, q in data.draw(st.sampled_from(all_pairings(ctx.n)), label="pairing"))
    order = MonomialOrder(tuple(data.draw(st.permutations(range(ctx.nvars)), label="order")))
    p = product_class_poly(ProductClassSpec(tuple(map(CyclotomicNumber._coerce, a)),
                                            CyclotomicNumber._coerce(c), pairing), ctx)
    assert_closed_form_matches(ColonIdeal(p, ctx, order), EliminatedColon(p, ctx, order))


def test_slices_above_sigma_are_refused_at_once():
    import time

    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    ctx = FermatContext(4, 5)
    dense = random_reduced_class(ctx, random.Random(3), terms=40)
    product = product_class_poly(ProductClassSpec((zeta(10), CyclotomicNumber.zero(), zeta(10) ** 3),
                                                  CyclotomicNumber.from_rational(Fraction(3, 2))), ctx)
    for p in (dense, product):
        start = time.perf_counter()
        for k in (ctx.sigma + 1, 10**5):
            with pytest.raises(ValueError, match=r"slice degree must lie in 0\.\.9"):
                ColonIdeal(p, ctx).slice(k)
        assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# One degree rule for both routes: R_k = 0 above sigma
# ---------------------------------------------------------------------------


def degree_rule_classes(ctx, terms):
    """A dense class of `terms` terms and a product class with one a_j = 0."""
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly

    dense = random_reduced_class(ctx, random.Random(3), terms=terms)
    a = (zeta(ctx.m), CyclotomicNumber.zero(), zeta(ctx.m) ** 3)[:ctx.n // 2 + 1]
    product = product_class_poly(
        ProductClassSpec(a, CyclotomicNumber.from_rational(Fraction(3, 2))), ctx)
    return {"dense": dense, "product": product}


@pytest.mark.parametrize("n,d", [(2, 5), (4, 5)])
def test_above_sigma_both_routes_answer_from_a_zero_quotient(n, d, monkeypatch):
    import time

    from fermatcalc import idealcalc

    ctx = FermatContext(n, d)
    for kind, p in degree_rule_classes(ctx, terms=40).items():
        leading = frozenset(monomials_of_degree(ctx.nvars, ctx.sigma + 1))  # all of S_k
        with pytest.MonkeyPatch.context() as mp:
            def refuse(*args, **kwargs):
                raise AssertionError("no prime, row or elimination above sigma")

            mp.setattr(idealcalc._Reduction, "avoiding", refuse)
            mp.setattr(ColonIdeal, "_multiplication_rows", refuse)
            mp.setattr(idealcalc, "echelon", refuse)
            ci = ColonIdeal(p, ctx)
            start = time.perf_counter()
            for k in (ctx.sigma + 1, 2 * ctx.sigma + 1, 10**5):
                assert ci.rank(k) == 0, (kind, k)
            assert time.perf_counter() - start < 1, kind
            assert ci.quotient_monomials(ctx.sigma + 1) == (), kind
            assert ci.leading_monomials(ctx.sigma + 1) == leading, kind


def test_above_sigma_nothing_is_listed_or_cached_on_any_route():
    import time

    ctx = FermatContext(4, 5)
    classes = degree_rule_classes(ctx, terms=40)
    routes = {"dense": ColonIdeal(classes["dense"], ctx),
              "product": ColonIdeal(classes["product"], ctx),
              "eliminated": EliminatedColon(classes["product"], ctx)}
    leading = frozenset(monomials_of_degree(ctx.nvars, ctx.sigma + 1))
    for route, ci in routes.items():
        start = time.perf_counter()
        assert ci.quotient_monomials(10**5) == (), route
        assert time.perf_counter() - start < 1, route
        assert ci.quotient_monomials(ctx.sigma + 1) == (), route
        assert ci.leading_monomials(ctx.sigma + 1) == leading, route
        assert all(k <= ctx.sigma for k in ci._cache), route


def test_lt_generators_through_sigma_plus_one_match_the_target_loop():
    from fermatcalc.fermat_hodge import ProductClassSpec, product_class_poly
    from fermatcalc.multipoly import minimal_generators

    ctx = FermatContext(2, 3)  # lt_generators(d) reaches degree sigma + 1 = 3
    a = (zeta(ctx.m), CyclotomicNumber.zero())
    product = product_class_poly(ProductClassSpec(a, CyclotomicNumber.one()), ctx)
    dense = random_reduced_class(ctx, random.Random(1), terms=3)
    for p in (linear_cycle_class(ctx, (1, 3)), product, dense):
        for order in (lex_order(ctx.nvars), pair_leader_order(ctx.nvars)):
            ref = TargetLoopColon(p, ctx, order)
            degrees = []
            for k in range(ctx.d + 1):
                source, _, _, free_cols = ref._kernel_data(k)
                degrees.append([source[f] for f in free_cols])
            expected = minimal_generators(degrees, order)
            assert ColonIdeal(p, ctx, order).lt_generators(ctx.d) == expected


@pytest.mark.parametrize("n,d", [(2, 5), (4, 4), (4, 5)])
def test_the_one_reader_gives_the_elimination_tuple(n, d):
    """`_echelon_data` on linear cycles and products (zero and mixed-field a_j,
    c_lambda in {1, 3/2, i}) is the elimination's `_kernel_data` at every
    degree: the same source, pivot cols and free cols, and equal pivots."""
    ctx = FermatContext(n, d)
    rng = random.Random(f"one reader:{n}:{d}")
    for kind, p in closed_form_classes(ctx, rng):
        for order in (lex_order(ctx.nvars), pair_leader_order(ctx.nvars)):
            ci, ref = ColonIdeal(p, ctx, order), EliminatedColon(p, ctx, order)
            for k in range(ctx.sigma + 1):
                source, pivots, pivot_cols, free_cols = ci._echelon_data(k)
                ref_source, ref_pivots, ref_pivot_cols, ref_free_cols = ref._kernel_data(k)
                assert source == ref_source and pivot_cols == ref_pivot_cols, (kind, k)
                assert free_cols == ref_free_cols and pivots == ref_pivots, (kind, order, k)
            assert ci._cache == {}, kind  # products never reach the elimination cache


@pytest.mark.parametrize("n,d", [(2, 5), (4, 5)])
def test_dense_slices_read_off_the_echelon_rows_match_the_target_loop(n, d):
    from fermatcalc.multipoly import MonomialOrder

    ctx = FermatContext(n, d)
    # 12 terms: the target loop eliminates the wide (4,5) slices of a 40-term
    # class in about 10 s per order on a 2-core x86_64 host, these in 0.1 s
    p = degree_rule_classes(ctx, terms=12)["dense"]
    shuffled = list(range(ctx.nvars))
    random.Random(n * d).shuffle(shuffled)
    for order in (lex_order(ctx.nvars), pair_leader_order(ctx.nvars), MonomialOrder(tuple(shuffled))):
        ci, ref = ColonIdeal(p, ctx, order), TargetLoopColon(p, ctx, order)
        for k in range(ctx.sigma + 1):
            basis = ci.slice(k).basis
            assert basis == ref.slice(k).basis, (order, k)
            keys = [order.key(leading_term(b, order)[0]) for b in basis]
            assert all(a > b for a, b in zip(keys, keys[1:])), (order, k)


def test_an_order_that_does_not_rank_every_variable_is_refused(quintic_surface):
    from fermatcalc.bounds import classify_lt_shape, tangent_codim
    from fermatcalc.multipoly import MonomialOrder

    ctx = quintic_surface
    for p in degree_rule_classes(ctx, terms=10).values():
        for order in (MonomialOrder((1, 0)), MonomialOrder((0, 1, 2, 3, 4))):
            with pytest.raises(ValueError, match="order must list all 4 variables"):
                ColonIdeal(p, ctx, order)
            with pytest.raises(ValueError, match="order must list all 4 variables"):
                tangent_codim(p, ctx, order)
            with pytest.raises(ValueError, match="order must list all 4 variables"):
                classify_lt_shape(p, order, ctx)


# ---------------------------------------------------------------------------
# Packed multiplication rows against the tuple builder
# ---------------------------------------------------------------------------


def row_entries(rows):
    """Each row's (column, value) pairs in insertion order, values as
    (m, nums, den) over Q(zeta) and as ints mod p."""
    return [[(c, (v.m, v.nums, v.den) if isinstance(v, CyclotomicNumber) else v) for c, v in row.items()]
            for row in rows]


def assert_rows_match(ci, index, packed, kept):
    from conftest import tuple_multiplication_rows

    for exact in (False, True):
        assert row_entries(ci._multiplication_rows(index, packed, exact)) == \
            row_entries(tuple_multiplication_rows(ci, index, kept, exact)), exact


@pytest.mark.parametrize("n,d", [(2, 5), (2, 7), (4, 4), (4, 5)])
def test_packed_rows_match_the_tuple_builder(n, d):
    from fermatcalc.idealcalc import _pack

    ctx = FermatContext(n, d)
    half, cap = n // 2 + 1, d - 2
    dense = random_reduced_class(ctx, random.Random(n * d), terms=40)
    cycles = linear_cycle_sum(ctx, [((1,) * half,), ((1,) * (half - 1) + (3,),)])
    socle = (cap,) * ctx.nvars
    for p in (dense, cycles):
        ci = ColonIdeal(p, ctx)
        width = ci._packing[0]
        for k in range(ctx.sigma + 1):
            source = sorted(monomials_of_degree(ctx.nvars, k), key=ci.order.key)
            index = {m: i for i, m in enumerate(source) if max(m) <= cap}
            assert_rows_match(ci, index, None, lambda tau: max(tau) <= cap)
        if p is dense and (n, d) == (4, 5):
            continue  # its exact degree-5 colon, which the targets read, takes about 24 s
        for i in range(ctx.sigma + 1):
            targets = {monomial_div(socle, u) for u in ci.quotient_monomials(i)}
            index = {v: j for j, v in enumerate(ci.quotient_monomials(ctx.sigma - i))}
            assert_rows_match(ci, index, {_pack(t, width) for t in targets}, targets.__contains__)


def test_packed_rows_match_the_tuple_builder_on_756_columns():
    ctx = FermatContext(4, 7)
    k, cap = ctx.sigma // 2, ctx.d - 2
    ci = ColonIdeal(random_reduced_class(ctx, random.Random(47), terms=40), ctx)
    index = {m: i for i, m in enumerate(m for m in monomials_of_degree(ctx.nvars, k) if max(m) <= cap)}
    assert len(index) == 756
    assert_rows_match(ci, index, None, lambda tau: max(tau) <= cap)
