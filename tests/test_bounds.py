import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fermatcalc import bounds
from fermatcalc.bounds import (
    DivisorScanReport,
    _exchange_holds,
    classify_lt_shape,
    classify_lt_shape_of_ideal,
    codim_report,
    count_divisors,
    linear_cycle_bound,
    scan_divisor_minima,
    second_minimum_bound,
    tangent_codim,
)
from fermatcalc.exactnum import CyclotomicNumber, zeta
from fermatcalc.idealcalc import FermatContext
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    divide,
    leading_term,
    lex_order,
    minimal_generators,
    monomials_of_degree,
    pair_leader_order,
)
from fermatcalc.fermat_hodge import (
    ProductClassSpec,
    linear_cycle_poly,
    product_class_poly,
)

from conftest import coefficient_pool, ideal_slice, random_reduced_class, standard_decomposition


def brute_count(alpha, k):
    return sum(
        1
        for beta in itertools.product(*(range(a + 1) for a in alpha))
        if sum(beta) == k
    )


def test_count_divisors_examples():
    assert count_divisors((0, 0, 3, 3), 5) == 2
    assert count_divisors((0, 1, 2, 3), 5) == 3
    assert count_divisors((4, 1, 0, 2), 0) == 1
    assert count_divisors((1, 1), 5) == 0
    with pytest.raises(ValueError):
        count_divisors((1, 1), -1)


def test_count_divisors_against_brute_force():
    rng = random.Random(2)
    for _ in range(25):
        alpha = tuple(rng.randint(0, 4) for _ in range(rng.randint(2, 5)))
        for k in range(sum(alpha) + 2):
            assert count_divisors(alpha, k) == brute_count(alpha, k)


@settings(max_examples=200, deadline=None)
@given(alpha=st.lists(st.integers(0, 6), max_size=6), negative=st.integers(max_value=-1))
@example(alpha=[], negative=-1)
def test_count_divisors_matches_brute_force_for_every_degree(alpha, negative):
    for k in range(sum(alpha) + 3):
        assert count_divisors(alpha, k) == brute_count(alpha, k)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        count_divisors(alpha, negative)


def test_count_divisors_complement_symmetry():
    rng = random.Random(8)
    for _ in range(15):
        alpha = tuple(rng.randint(0, 4) for _ in range(4))
        total = sum(alpha)
        for k in range(total + 1):
            assert count_divisors(alpha, k) == count_divisors(alpha, total - k)


def test_exchange_inequality_window():
    # moving one unit from a small slot to a large one never increases the
    # count, strictly decreasing it inside the window alpha_j <= k <= deg-alpha_i
    alpha = (1, 1)
    moved = (0, 2)
    assert count_divisors(moved, 1) < count_divisors(alpha, 1)  # inside window
    assert count_divisors(moved, 2) == count_divisors(alpha, 2)  # outside


def test_bound_values_for_surfaces():
    for d in range(4, 10):
        assert linear_cycle_bound(2, d) == d - 3
        assert second_minimum_bound(2, d) == 2 * d - 7
    assert linear_cycle_bound(4, 5) == 12
    assert second_minimum_bound(4, 4) == 8
    with pytest.raises(ValueError):
        linear_cycle_bound(3, 5)
    with pytest.raises(ValueError):
        second_minimum_bound(2, 2)


def test_second_minimum_bound_matches_its_rational_formula():
    for n in range(2, 41, 2):
        for d in range(3, 13):
            correction = Fraction(3 * n * n, 8) + Fraction(9 * n, 4) + 2
            expected = math.comb(n // 2 + d, d) + math.comb(n // 2 + d - 1, d - 1) - correction
            assert second_minimum_bound(n, d) == expected


def test_bounds_refuse_exactly_what_the_fermat_context_refuses():
    for n in range(-2, 9):
        for d in range(-1, 7):
            try:
                FermatContext(n, d)
                refusal = None
            except ValueError as exc:
                refusal = str(exc)
            checked = [linear_cycle_bound, second_minimum_bound]
            if refusal is not None or (n <= 4 and d <= 5):
                checked.append(scan_divisor_minima)
            for bound in checked:
                if refusal is None:
                    bound(n, d)
                else:
                    with pytest.raises(ValueError) as err:
                        bound(n, d)
                    assert str(err.value) == refusal


def test_scan_refuses_exactly_above_its_budget(monkeypatch):
    # the README's envelope and the slowest measured points stay inside it
    for n, d in [(10, 6), (6, 9), (4, 14), (10, 10), (8, 12), (2, 145), (4, 41), (40, 6),
                 (150, 4)]:
        assert math.comb(n + d, n + 2) * (n + 2) ** 2 <= bounds.SCAN_MAX_WORK
    # a vector count alone would take (200, 4), 20,706 vectors, for 20 s
    for n, d in [(12, 12), (16, 10), (18, 9), (200, 4)]:
        assert math.comb(n + d, n + 2) * (n + 2) ** 2 > bounds.SCAN_MAX_WORK
    monkeypatch.setattr(bounds, "SCAN_MAX_WORK", math.comb(6, 4) * 4 ** 2)  # (2, 4)
    assert scan_divisor_minima(2, 4).sigma == 4
    with pytest.raises(ValueError, match=r"\(n, d\) = \(2, 5\) needs C\(n\+d, n\+2\) \(n\+2\)\^2 = "
                                         r"560 steps, above the scan limit of 240"):
        scan_divisor_minima(2, 5)


def test_linear_bound_never_exceeds_second_bound():
    for n in (2, 4, 6, 8):
        for d in range(4, 10):
            assert linear_cycle_bound(n, d) <= second_minimum_bound(n, d)


def test_scan_passes_where_the_characterizations_hold():
    for n, d in [(2, 6), (4, 4), (4, 5)]:
        report = scan_divisor_minima(n, d)
        assert report.all_hold, (n, d, report.assertions)
        assert report.min_value == linear_cycle_bound(n, d)
        assert report.second_min == second_minimum_bound(n, d)


def test_scan_orbit_counts():
    report = scan_divisor_minima(2, 6)
    assert report.min_count == 6  # relabelings of (0,0,4,4)
    assert report.second_count == 24  # relabelings of (0,1,3,4)
    report = scan_divisor_minima(4, 4)
    assert report.min_count == 20 and report.second_count == 90


def test_scan_quintic_surface_second_minimum_has_an_extra_orbit():
    # enumerated truth: at n=2, d=5 the orbit of (0,2,2,2) also attains the
    # second minimum 3 (this happens exactly when 3(d-3) = 2(d-2)), so the
    # exact-attainer characterization fails there
    report = scan_divisor_minima(2, 5)
    assert report.assertions[0] and report.assertions[1] and report.assertions[3]
    assert not report.assertions[2]
    assert report.second_min == 3
    assert dict(report.second_attainers) == {(0, 1, 2, 3): 24, (0, 2, 2, 2): 4}


def test_scan_quartic_surface_degenerates():
    # at n=2, d=4 the socle degree equals d, every admissible vector has
    # exactly one degree-d divisor, and both characterizations collapse
    report = scan_divisor_minima(2, 4)
    assert report.min_value == 1 == linear_cycle_bound(2, 4)
    assert report.min_count == 19
    assert report.assertions[0] and report.assertions[3]
    assert not report.assertions[1] and not report.assertions[2]
    assert dict(report.min_attainers) == {
        (0, 0, 2, 2): 6,
        (0, 1, 1, 2): 12,
        (1, 1, 1, 1): 1,
    }


def test_scan_skips_second_assertions_for_degree_three():
    report = scan_divisor_minima(4, 3)
    assert report.assertions[2] is None
    assert report.assertions[0]


def _report(n, d, sigma, minimum, second, exchange_checks):
    """The passing report whose attainers are the two predicted orbits, each
    given as (value, shape, orbit size)."""
    (min_value, min_shape, min_count), (second_min, second_shape, second_count) = minimum, second
    return DivisorScanReport(
        n=n, d=d, sigma=sigma, min_value=min_value, min_count=min_count,
        second_min=second_min, second_count=second_count, assertions=(True, True, True, True),
        min_attainers=((min_shape, min_count),), second_attainers=((second_shape, second_count),),
        exchange_checks=exchange_checks,
    )


# whole reports as the scan gave them when it counted every moved vector afresh
PINNED_SCANS = [
    _report(6, 5, 12, (40, (0, 0, 0, 0, 3, 3, 3, 3), 70),
            (62, (0, 0, 0, 1, 2, 3, 3, 3), 1120), 168560),
    _report(4, 7, 15, (27, (0, 0, 0, 5, 5, 5), 20), (47, (0, 0, 1, 4, 5, 5), 180), 54450),
    _report(8, 8, 30, (470, (0, 0, 0, 0, 0, 6, 6, 6, 6, 6), 252),
            (781, (0, 0, 0, 0, 1, 5, 6, 6, 6, 6), 6300), 679521150),
    _report(8, 12, 50, (1795, (0, 0, 0, 0, 0, 10, 10, 10, 10, 10), 252),
            (3141, (0, 0, 0, 0, 1, 9, 10, 10, 10, 10), 6300), 41897561040),
]


@pytest.mark.parametrize("expected", PINNED_SCANS, ids=lambda r: f"{r.n}-{r.d}")
def test_scan_reports_are_pinned_beyond_the_exhaustive_range(expected):
    assert scan_divisor_minima(expected.n, expected.d) == expected


@pytest.mark.parametrize("n,d", [(4, 5), (6, 4)])
def test_scan_counts_each_sorted_vector_once(n, d, monkeypatch):
    calls = []
    count = bounds.count_divisors

    def counted(alpha, k):
        calls.append((tuple(alpha), k))
        return count(alpha, k)

    monkeypatch.setattr(bounds, "count_divisors", counted)
    expected = scan_divisor_minima(n, d)
    sigma = (d - 2) * (n // 2 + 1)
    # a move keeps the degree and raises an entry to at most d-1
    sorted_vectors = sum(
        1 for v in itertools.combinations_with_replacement(range(d), n + 2) if sum(v) == sigma
    )
    assert len(calls) == len(set(calls)) <= sorted_vectors
    assert all(list(alpha) == sorted(alpha) and k == d for alpha, k in calls)
    monkeypatch.undo()
    assert scan_divisor_minima(n, d) == expected


def _exhaustive_scan(n, d):
    """Reference scan over every exponent vector, one entry per vector."""
    sigma = (d - 2) * (n // 2 + 1)
    linear_shape = tuple(sorted([0] * (n // 2 + 1) + [d - 2] * (n // 2 + 1)))
    counts, shapes = [], []
    exchange_ok, exchange_checks = True, 0
    for alpha in monomials_of_degree(n + 2, sigma, d - 2):
        s = count_divisors(alpha, d)
        counts.append(s)
        shapes.append(tuple(sorted(alpha)))
        ok, checks = _exchange_holds(alpha, d, s, lambda moved: count_divisors(moved, d))
        exchange_ok = exchange_ok and ok
        exchange_checks += checks

    def attainers(value, skip):
        pool = {}
        for s, shape in zip(counts, shapes):
            if s == value and shape != skip:
                pool[shape] = pool.get(shape, 0) + 1
        return tuple(sorted(pool.items()))

    min_value = min(counts)
    rest = [s for s, shape in zip(counts, shapes) if shape != linear_shape]
    second_min = min(rest) if rest else None
    min_attainers = attainers(min_value, None)
    second_attainers = attainers(second_min, linear_shape)
    return {
        "sigma": sigma,
        "min_value": min_value,
        "min_count": sum(c for _, c in min_attainers),
        "second_min": second_min,
        "second_count": sum(c for _, c in second_attainers) or None,
        "min_attainers": min_attainers,
        "second_attainers": second_attainers,
        "exchange_checks": exchange_checks,
        "linear_holds": min_value == linear_cycle_bound(n, d),
        "exchange_ok": exchange_ok,
    }


@pytest.mark.parametrize(
    "n,d",
    [(2, d) for d in range(3, 10)] + [(4, d) for d in range(3, 7)] + [(6, 3), (6, 4)],
)
def test_orbit_scan_matches_the_exhaustive_scan(n, d):
    reference = _exhaustive_scan(n, d)
    report = scan_divisor_minima(n, d)
    got = {field: getattr(report, field) for field in reference if hasattr(report, field)}
    got["linear_holds"] = report.assertions[0]
    got["exchange_ok"] = report.assertions[3]
    assert got == reference


def test_tangent_codim_linear_cycle(quintic_surface):
    ctx = quintic_surface
    report = tangent_codim(linear_cycle_poly((1, 1), ctx), ctx)
    assert report.value == 2
    assert report.classification == "attains-linear-minimum"
    assert report.j1_dim == 2
    for form in report.j1_basis:
        assert len(form.terms) == 2  # binomial linear forms


def test_tangent_codim_is_independent_of_the_cycle(quintic_surface):
    ctx = quintic_surface
    values = {
        tangent_codim(linear_cycle_poly(alpha, ctx), ctx).value
        for alpha in itertools.product((1, 3, 5, 7, 9), repeat=2)
        if alpha in [(1, 1), (3, 9), (7, 5), (9, 9)]
    }
    assert values == {2}


def test_tangent_codim_is_independent_of_the_pairing(quintic_surface):
    from fermatcalc.fermat_hodge import all_pairings

    ctx = quintic_surface
    for pairing in all_pairings(2):
        for alpha in [(1, 1), (3, 9)]:
            report = tangent_codim(linear_cycle_poly(alpha, ctx, pairing), ctx)
            assert report.value == 2 and report.j1_dim == 2


def test_tangent_codim_without_rationality(quintic_surface):
    # the structural bound is blind to rationality: a product class with a
    # non-root coefficient still attains the linear minimum
    ctx = quintic_surface
    spec = ProductClassSpec(
        (CyclotomicNumber.from_rational(2), CyclotomicNumber.one()),
        CyclotomicNumber.one(),
    )
    report = tangent_codim(product_class_poly(spec, ctx), ctx)
    assert report.value == 2 and report.classification == "attains-linear-minimum"


def test_codim_report_classification():
    assert codim_report(2, 2, 5).classification == "attains-linear-minimum"
    assert codim_report(3, 2, 5).classification == "attains-second-minimum"
    assert codim_report(7, 2, 5).classification == "above"


def test_classify_linear_shape(quintic_surface):
    ctx = quintic_surface
    p = linear_cycle_poly((1, 3), ctx)
    assert classify_lt_shape(p, lex_order(4), ctx) == "linear"
    assert classify_lt_shape(p, pair_leader_order(4), ctx) == "linear"


@pytest.mark.parametrize(
    "n, d, pairing",
    [(4, 5, ((0, 2), (1, 3), (4, 5))), (6, 4, ((0, 7), (1, 6), (2, 5), (3, 4)))],
)
def test_classify_linear_shape_over_any_pairing(n, d, pairing):
    ctx = FermatContext(n, d)
    alpha = tuple(range(1, 2 * len(pairing), 2))
    p = linear_cycle_poly(alpha, ctx, pairing)
    assert classify_lt_shape(p, lex_order(n + 2), ctx) == "linear"


def test_classify_conic_shape_in_dimension_four():
    ctx = FermatContext(4, 5)
    z = zeta(10)
    x = [Polynomial.variable(6, i) for i in range(6)]

    def cofactor(j, fi):
        terms = [
            (tuple(5 if t == 2 * j else 0 for t in range(6)), 1),
            (tuple(5 if t == 2 * j + 1 else 0 for t in range(6)), 1),
        ]
        q, r = divide(Polynomial(6, terms), [fi], lex_order(6))
        assert r.is_zero()
        return q[0]

    f = [x[0] - x[1].scale(z), x[2] - x[3].scale(z**3),
         (x[4] - x[5].scale(z)) * (x[4] - x[5].scale(z**3))]
    gens = []
    for j, fi in enumerate(f):
        gens.extend([fi, cofactor(j, fi)])
    shape = classify_lt_shape_of_ideal(gens, pair_leader_order(6), ctx)
    assert shape == "quadric-b"


def test_classify_random_class_has_no_match(quartic_surface):
    ctx = quartic_surface
    rng = random.Random(7)
    p = random_reduced_class(ctx, rng, terms=12)
    assert classify_lt_shape(p, lex_order(4), ctx) == "no match"


# ---------------------------------------------------------------------------
# Leading-term shapes of generated ideals: the truncated Groebner basis of
# classify_lt_shape_of_ideal against the eliminated slices of conftest
# ---------------------------------------------------------------------------


def lt_generators_by_slices(gens, order, d):
    """Minimal leading-term generators through degree d, read off the reduced
    echelon slices of the ideal generated by `gens` (generators above d
    contribute no row)."""
    degrees = (frozenset(leading_term(b, order)[0] for b in ideal_slice(gens, k, order).basis)
               for k in range(d + 1))
    return minimal_generators(degrees, order)


@pytest.fixture
def lt_shape(monkeypatch):
    """classify_lt_shape_of_ideal returning (shape, minimal generators)."""
    seen = []
    classify = bounds._classify_lt_generators
    monkeypatch.setattr(bounds, "_classify_lt_generators",
                        lambda degrees, n, d: seen.append(degrees) or classify(degrees, n, d))

    def run(gens, order, ctx):
        shape = classify_lt_shape_of_ideal(gens, order, ctx)
        return shape, seen.pop()

    return run


def random_decomposition(ctx, quadric, rng):
    """conftest's standard decomposition, as one generator list, over odd
    exponents drawn from `rng`, the quadric's two factors distinct."""
    ks = [rng.randrange(1, 2 * ctx.d, 2) for _ in range(ctx.n // 2)]
    ks += rng.sample(range(1, 2 * ctx.d, 2), 2 if quadric else 1)
    f, g = standard_decomposition(ctx, ks, quadric)
    return [v for pair in zip(f, g) for v in pair]


def shape_orders(nvars, rng):
    priority = list(range(nvars))
    rng.shuffle(priority)
    return [lex_order(nvars), pair_leader_order(nvars), MonomialOrder(tuple(priority))]


@pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 6), (2, 7), (4, 4), (4, 5)])
def test_ideal_lt_shape_matches_the_slice_route_on_decompositions(n, d, lt_shape):
    ctx = FermatContext(n, d)
    rng = random.Random(31 * n + d)
    for quadric in (False, True):
        for _ in range(3):
            gens = random_decomposition(ctx, quadric, rng)
            for order in shape_orders(ctx.nvars, rng):
                shape, degrees = lt_shape(gens, order, ctx)
                assert degrees == lt_generators_by_slices(gens, order, d), (quadric, order)
                assert shape in (("quadric-a", "quadric-b") if quadric else ("linear",))


def test_ideal_lt_shape_matches_the_slice_route_on_random_systems(lt_shape):
    rng = random.Random(2031)
    for trial in range(40):
        ctx = FermatContext(2, rng.choice((3, 4, 5)))
        pool = coefficient_pool(ctx.m)
        gens = []
        for _ in range(rng.randint(2, 4)):
            monos = list(monomials_of_degree(4, rng.randint(1, 3)))
            gens.append(Polynomial(4, [(m, rng.choice(pool)) for m in rng.sample(monos, min(3, len(monos)))]))
        order = rng.choice(shape_orders(4, rng))
        shape, degrees = lt_shape(gens, order, ctx)
        assert degrees == lt_generators_by_slices(gens, order, ctx.d), trial


def test_ideal_lt_shape_edges(quintic_surface, lt_shape):
    ctx = quintic_surface
    order = pair_leader_order(4)
    x = [Polynomial.variable(4, i) for i in range(4)]
    with pytest.raises(ValueError, match="no generators"):
        classify_lt_shape_of_ideal([], order, ctx)
    for bad in (Polynomial.zero(4), x[0] * x[1] + x[2]):
        with pytest.raises(ValueError, match="generators must be homogeneous and nonzero"):
            classify_lt_shape_of_ideal([x[0], bad], order, ctx)
    # a generator above degree d adds no leading term through d, on either route
    gens = random_decomposition(ctx, False, random.Random(5))
    high = x[1] ** (ctx.d + 1)
    assert lt_shape([*gens, high], order, ctx) == lt_shape(gens, order, ctx) == ("linear", [
        [], [(1, 0, 0, 0), (0, 0, 1, 0)], [], [], [(0, 4, 0, 0), (0, 0, 0, 4)], []])
    assert lt_generators_by_slices([*gens, high], order, ctx.d) == lt_shape(gens, order, ctx)[1]
    # only generators above d: no leading term at all
    assert lt_shape([high], order, ctx) == ("no match", [[]] * (ctx.d + 1))
    assert lt_generators_by_slices([high], order, ctx.d) == [[]] * (ctx.d + 1)
