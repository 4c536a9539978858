import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermatcalc.echelon import echelon, echelon_insert
from fermatcalc.exactnum import CyclotomicNumber, zeta
from fermatcalc.idealcalc import (
    ColonIdeal,
    FermatContext,
    HilbertProfile,
    buchberger,
    colon_slice,
    hilbert_profile,
    ideal_hilbert_dims,
    ideal_slice,
    ideal_square_membership,
    lt_slice,
    pairing_rank,
    reduce_mod_jacobian,
    s_polynomial,
    standard_monomials,
)
from fermatcalc.multipoly import (
    Polynomial,
    count_monomials,
    divide,
    leading_term,
    lex_order,
    monomial_div,
    monomials_of_degree,
    pair_leader_order,
)

from conftest import (
    coefficient_pool,
    random_reduced_class,
    regular_representation_kernel_dim,
)


def linear_cycle_class(ctx, alpha):
    from fermatcalc.fermat_hodge import linear_cycle_poly

    return linear_cycle_poly(alpha, ctx)


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
    p = linear_cycle_class(ctx, (1, 1))
    s1 = colon_slice(p, 1, ctx)
    x = [Polynomial.variable(4, i) for i in range(4)]
    assert s1.dim == 2
    assert list(s1.basis) == [x[0] - x[1].scale(z), x[2] - x[3].scale(z)]
    assert colon_slice(p, 0, ctx).dim == 0
    top = colon_slice(p, ctx.sigma, ctx)
    assert top.dim == count_monomials(4, ctx.sigma) - 1


def test_class_inside_jacobian_ideal_is_rejected(quintic_surface):
    ctx = quintic_surface
    p = Polynomial.monomial(4, (4, 2, 0, 0))  # multiple of x_0^4
    with pytest.raises(ValueError, match="zero primitive part"):
        colon_slice(p, 1, ctx)
    with pytest.raises(ValueError):
        colon_slice(Polynomial.monomial(4, (1, 0, 0, 0)), 1, ctx)  # wrong degree


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
        assert colon_slice(p, k, ctx) == colon_slice(shuffled, k, ctx)


def test_hilbert_profile_of_linear_cycle(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_class(ctx, (1, 3))
    profile = hilbert_profile(p, ctx)
    # the quotient is spanned by monomials in the two odd variables with
    # exponents at most d-2; count them directly
    oracle = tuple(
        sum(1 for u in range(ctx.d - 1) for v in range(ctx.d - 1) if u + v == k)
        for k in range(ctx.sigma + 1)
    )
    assert profile.dims == oracle == (1, 2, 3, 4, 3, 2, 1)


def test_hilbert_profile_of_a_septic_linear_cycle():
    ctx = FermatContext(2, 7)
    profile = hilbert_profile(linear_cycle_class(ctx, (1, 13)), ctx)
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
            assert slice_k.contains(g, ci.order)


def test_lt_slice():
    a, b = zeta(10), zeta(10) ** 3
    x = [Polynomial.variable(4, i) for i in range(4)]
    order = pair_leader_order(4)
    from fermatcalc.idealcalc import DegreeSlice

    s = DegreeSlice(1, "ideal", (x[0] - x[1].scale(a), x[2] - x[3].scale(b)))
    assert lt_slice(s, order) == {(1, 0, 0, 0), (0, 0, 1, 0)}
    assert lt_slice(DegreeSlice(1, "ideal", ()), order) == frozenset()


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
    assert pairing_rank(p, 0, ctx) == 1
    assert pairing_rank(p, ctx.sigma, ctx) == 1
    assert pairing_rank(p, 2, ctx) == 3
    # independent check of the 3x3 case: complement bases are the odd-variable
    # monomials, and each matrix entry is a coefficient lookup in the class
    ci = ColonIdeal(p, ctx)
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


def test_square_membership(quintic_surface):
    ctx = quintic_surface
    z = zeta(10)
    x = [Polynomial.variable(4, i) for i in range(4)]
    f = ctx.fermat_polynomial()
    gens = []
    for j, a in enumerate((z, z**3)):
        gens.append(x[2 * j] - x[2 * j + 1].scale(a))
        pair_sum = Polynomial(
            4,
            [
                (tuple(5 if t == 2 * j else 0 for t in range(4)), 1),
                (tuple(5 if t == 2 * j + 1 else 0 for t in range(4)), 1),
            ],
        )
        q, r = divide(pair_sum, [gens[-1]], lex_order(4))
        assert r.is_zero()
        gens.append(q[0])
    result = ideal_square_membership(f, gens)
    assert result.member
    total = Polynomial.zero(4)
    for i, j, gamma, coeff in result.witness:
        total = total + (gens[i] * gens[j] * Polynomial.monomial(4, gamma)).scale(coeff)
    assert total == f
    # degree bookkeeping: a degree-d generator alone cannot express itself
    assert not ideal_square_membership(f, [f]).member
    assert not ideal_square_membership(f, [x[0], x[1]]).member


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
    ctx = quintic_surface
    ci = ColonIdeal(linear_cycle_class(ctx, (1, 1)), ctx)
    k = ctx.sigma + 1
    assert ci.rank(k) == 0
    assert ci.slice(k).dim == count_monomials(4, k)
    assert ci.quotient_monomials(k) == ()


def test_negative_degrees_are_refused(quintic_surface):
    ci = ColonIdeal(linear_cycle_class(quintic_surface, (1, 1)), quintic_surface)
    for entry in (ci.rank, ci.slice, ci.quotient_monomials, ci.leading_monomials, ci.quotient_slice):
        with pytest.raises(ValueError, match="negative degree"):
            entry(-1)


def test_ideal_and_quotient_slices_are_complementary(quintic_surface):
    ctx = quintic_surface
    ci = ColonIdeal(linear_cycle_class(ctx, (3, 5)), ctx)
    for k in range(ctx.sigma + 1):
        assert ci.slice(k).dim + ci.quotient_slice(k).dim == count_monomials(4, k)


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
