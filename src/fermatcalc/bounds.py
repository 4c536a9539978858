"""Codimension bounds and their exhaustive combinatorial verification.

The two bound formulas are

    linear:  C(n/2+d, d) - (n/2+1)^2
    second:  C(n/2+d, d) + C(n/2+d-1, d-1) - (3n^2/8 + 9n/4 + 2)

For n = 2 they evaluate to d-3 and 2d-7.  The scan covers every exponent
vector alpha of degree sigma dividing (x_0...x_{n+1})^(d-2), counts its
degree-d divisors, and verifies that the minima and their attainers are
exactly the predicted relabeling classes, together with the monotone
exchange inequality that drives the argument.  Both the count and the
exchange moves are invariant under permuting coordinates, so the scan
visits one sorted representative per orbit and weights it by the orbit size,
and counts the divisors of each sorted vector once per scan: a moved vector,
sorted, is mostly one the scan has counted or will count as a representative.
A count is the coefficient of t^k in prod_i (1 + t + ... + t^alpha_i), each
factor applied as a running window sum in O(k) steps.  Of the attainers it
keeps only those of the least count, in all and away from the linear shape.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence

from fermatcalc.idealcalc import ColonIdeal, FermatContext, buchberger
from fermatcalc.multipoly import Monomial, MonomialOrder, Polynomial, leading_term, minimal_generators
from fermatcalc.record import Record

__all__ = [
    "BoundReport",
    "DivisorScanReport",
    "count_divisors",
    "divisor_counts",
    "linear_cycle_bound",
    "second_minimum_bound",
    "scan_divisor_minima",
    "SCAN_MAX_WORK",
    "tangent_codim",
    "codim_report",
    "classify_lt_shape",
    "classify_lt_shape_of_ideal",
]


def divisor_counts(alpha: Sequence[int], up_to: int) -> list[int]:
    """Coefficients of t^0..t^up_to in prod_i (1 + t + ... + t^alpha_i): entry
    k is the number of degree-k monomials dividing x^alpha.  Each factor is
    applied as a running window sum, out[k] = poly[k - alpha_i] + ... + poly[k],
    in up_to + 1 steps.  An exponent of -1 gives the empty sum, 0.

    >>> divisor_counts((0, 3, 0, 3), 7)
    [1, 2, 3, 4, 3, 2, 1, 0]
    """
    poly = [1] + [0] * up_to
    for cap in alpha:
        window = 0
        out = []
        for k, c in enumerate(poly):
            window += c
            if k > cap:
                window -= poly[k - cap - 1]
            out.append(window)
        poly = out
    return poly


def count_divisors(alpha: Sequence[int], k: int) -> int:
    """Number of monomials of degree k dividing x^alpha, entry k of
    divisor_counts.

    >>> count_divisors((0, 1, 2, 3), 5), count_divisors((), 0), count_divisors((2, 2), 5)
    (3, 1, 0)
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if any(cap < 0 for cap in alpha):
        raise ValueError("negative exponent")
    return divisor_counts(alpha, k)[k]


def linear_cycle_bound(n: int, d: int) -> int:
    """Codimension of the locus of hypersurfaces containing a middle-dimension
    linear subvariety; equals d-3 for surfaces."""
    FermatContext(n, d)  # refuses an invalid (n, d)
    return math.comb(n // 2 + d, d) - (n // 2 + 1) ** 2


def second_minimum_bound(n: int, d: int) -> int:
    """The next-smallest tangent codimension, attained by classes of
    complete intersections of type (1,...,1,2); equals 2d-7 for surfaces."""
    FermatContext(n, d)  # refuses an invalid (n, d)
    # 3n^2/8 + 9n/4 + 2 = 3m(m+3)/2 + 2 for n = 2m, an integer as m(m+3) is even
    return (
        math.comb(n // 2 + d, d)
        + math.comb(n // 2 + d - 1, d - 1)
        - (3 * n * (n + 6) // 8 + 2)
    )


def _orbit_size(multiset: Sequence[int], length: int) -> int:
    counts: dict[int, int] = {}
    for v in multiset:
        counts[v] = counts.get(v, 0) + 1
    size = math.factorial(length)
    for c in counts.values():
        size //= math.factorial(c)
    return size


class DivisorScanReport(Record):
    """Outcome of the exhaustive divisor-count scan.

    The four assertions are:
      (i)   the minimal count equals the linear bound;
      (ii)  its attainers are exactly the relabelings of (0,..,0,d-2,..,d-2);
      (iii) over the remaining vectors the minimum equals the second bound,
            attained exactly on relabelings of (0,..,0,1,d-3,d-2,..,d-2)
            (None when d = 3, where no second-minimum statement exists);
      (iv)  the monotone exchange inequality, with strictness inside its
            window, holds for every checked move.

    `min_attainers` and `second_attainers` list the sorted exponent multisets
    that attain each minimum with their orbit counts, so a failed
    characterization names its counterexample classes.

    `exchange_checks` counts the exchange moves tested over every exponent
    vector, as each orbit representative's count times its orbit size.  It is
    the per-vector total whenever (iv) holds: a vector that passes every move
    tests as many moves as any of its permutations.
    """

    n: int
    d: int
    sigma: int
    min_value: int
    min_count: int
    second_min: int | None
    second_count: int | None
    assertions: tuple[bool, bool, bool | None, bool]
    min_attainers: tuple[tuple[tuple[int, ...], int], ...]
    second_attainers: tuple[tuple[tuple[int, ...], int], ...]
    exchange_checks: int

    @property
    def all_hold(self) -> bool:
        return all(a is None or a for a in self.assertions)


def _exchange_holds(
    alpha: tuple[int, ...], d: int, base: int, count: Callable[[list[int]], int]
) -> tuple[bool, int]:
    """Check every unbalancing move alpha -> alpha' on one vector, with
    count(alpha') its number of degree-d divisors."""
    checks = 0
    total = sum(alpha)
    for i in range(len(alpha)):
        for j in range(len(alpha)):
            if i == j or alpha[i] == 0 or alpha[i] > alpha[j]:
                continue
            moved = list(alpha)
            moved[i] -= 1
            moved[j] += 1
            value = count(moved)
            checks += 1
            if value > base:
                return False, checks
            if alpha[j] <= d <= total - alpha[i] and value >= base:
                return False, checks
    return True, checks


# Most C(n+d, n+2) (n+2)^2 steps the divisor scan accepts: it enumerates the
# C(n+d, n+2) sorted vectors in 0..d-2, and each representative of degree sigma
# tests up to (n+2)^2 moves of n+2 entries.  On a 2-core x86_64 host the scan
# takes at most 3e-8 s per counted step from n = 2 to n = 660: (8, 12) (1.8e7
# steps) takes 0.5 s, and (2, 145), (4, 41), (40, 6) and (150, 4), near the
# limit, 6.5-8.5 s.  A count of vectors alone would let n grow at small d:
# (200, 4) has 20,706 vectors and takes 20 s.  (12, 12) has 3.8e8 steps.
# Memory is the count of each sorted vector met: peak RSS 37 MB at (4, 41),
# 29 MB at (2, 145) and 19 MB at (8, 12), with only the least pools kept.
SCAN_MAX_WORK = 300_000_000


def _keep_least(pool: dict[int, dict], s: int, alpha: tuple[int, ...], weight: int) -> None:
    """Add alpha to the pool of its count s, keeping only the least count's pool."""
    least = next(iter(pool), s)
    if s < least:
        pool.clear()
    if s <= least:
        pool.setdefault(s, {})[alpha] = weight


def scan_divisor_minima(n: int, d: int) -> DivisorScanReport:
    """Exhaustively verify the divisor-count minima over all degree-sigma
    exponent vectors bounded by d-2, one sorted representative per
    permutation orbit, each weighted by its orbit size.  Runs in well under
    a second for n <= 8, d <= 12; refuses more than SCAN_MAX_WORK steps.
    """
    sigma = FermatContext(n, d).sigma
    if (work := math.comb(n + d, n + 2) * (n + 2) ** 2) > SCAN_MAX_WORK:
        raise ValueError(f"(n, d) = ({n}, {d}) needs C(n+d, n+2) (n+2)^2 = {work} steps, "
                         f"above the scan limit of {SCAN_MAX_WORK}")
    half = n // 2 + 1
    linear_shape = (0,) * half + (d - 2,) * half
    # attainer multisets of the least count so far with their orbit sizes,
    # keyed by that count, for the full pool and for the pool of vectors away
    # from the linear shape
    full: dict[int, dict[tuple[int, ...], int]] = {}
    rest: dict[int, dict[tuple[int, ...], int]] = {}
    exchange_ok = True
    exchange_checks = 0
    # the divisor count of each sorted vector, computed once per scan: the
    # representatives and their moved vectors are mostly the same vectors
    counts: dict[tuple[int, ...], int] = {}

    def count(vector: Sequence[int]) -> int:
        key = tuple(sorted(vector))
        value = counts.get(key)
        if value is None:
            value = counts[key] = count_divisors(key, d)
        return value

    for alpha in itertools.combinations_with_replacement(range(d - 1), n + 2):
        if sum(alpha) != sigma:
            continue
        s = count(alpha)
        weight = _orbit_size(alpha, n + 2)
        _keep_least(full, s, alpha, weight)
        if alpha != linear_shape:
            _keep_least(rest, s, alpha, weight)
        ok, checks = _exchange_holds(alpha, d, s, count)
        exchange_checks += checks * weight
        if not ok:
            exchange_ok = False
    min_value = min(full)
    min_pool = full[min_value]
    min_count = sum(min_pool.values())
    a1 = min_value == linear_cycle_bound(n, d)
    a2 = (
        a1
        and set(min_pool) == {linear_shape}
        and min_count == _orbit_size(linear_shape, n + 2)
    )
    second_min = min(rest) if rest else None
    second_pool = rest.get(second_min, {}) if second_min is not None else {}
    second_count = sum(second_pool.values()) if second_pool else None
    if d >= 4:
        second_shape = tuple(sorted([0] * (n // 2) + [1, d - 3] + [d - 2] * (n // 2)))
        a3 = (
            second_min == second_minimum_bound(n, d)
            and set(second_pool) == {second_shape}
            and second_count == _orbit_size(second_shape, n + 2)
        )
    else:
        a3 = None
    as_tuple = lambda pool: tuple(sorted(pool.items()))
    return DivisorScanReport(
        n=n,
        d=d,
        sigma=sigma,
        min_value=min_value,
        min_count=min_count,
        second_min=second_min,
        second_count=second_count,
        assertions=(a1, a2, a3, exchange_ok),
        min_attainers=as_tuple(min_pool),
        second_attainers=as_tuple(second_pool),
        exchange_checks=exchange_checks,
    )


# ---------------------------------------------------------------------------
# Tangent codimension of a class and shape classification
# ---------------------------------------------------------------------------


class BoundReport(Record):
    value: int
    bound_linear: int
    bound_second: int
    classification: str  # attains-linear-minimum | attains-second-minimum | above
    j1_dim: int | None = None
    j1_basis: tuple[Polynomial, ...] | None = None


def codim_report(value: int, n: int, d: int) -> BoundReport:
    lin = linear_cycle_bound(n, d)
    second = second_minimum_bound(n, d)
    if value == lin:
        classification = "attains-linear-minimum"
    elif value == second:
        classification = "attains-second-minimum"
    else:
        classification = "above"
    return BoundReport(value, lin, second, classification)


def tangent_codim(
    p: Polynomial, ctx: FermatContext, order: MonomialOrder | None = None
) -> BoundReport:
    """Codimension of the Zariski tangent space of the local locus of a
    class: the quotient dimension in degree d of its colon ideal.

    When the linear minimum is attained and d >= 2 + 6/n, the degree-one
    slice must consist of n/2+1 independent linear forms; they are verified
    and attached to the report.
    """
    ci = ColonIdeal(p, ctx, order)
    report = codim_report(ci.rank(ctx.d), ctx.n, ctx.d)
    if report.classification == "attains-linear-minimum" and ctx.n * ctx.d >= 2 * ctx.n + 6:
        s1 = ci.slice(1)
        if s1.dim != ctx.n // 2 + 1:
            raise RuntimeError(
                "linear minimum attained but the degree-one slice has "
                f"dimension {s1.dim}; this contradicts the equality analysis"
            )
        report = report.replace(j1_dim=s1.dim, j1_basis=s1.basis)
    return report


# Leading-term ideal shape templates, up to variable relabeling.  Evens hold
# the degree-one generators in the reference labeling.


def _power(nvars: int, i: int, e: int) -> Monomial:
    return tuple(e if t == i else 0 for t in range(nvars))


def _shape_templates(n: int, d: int) -> dict[str, frozenset[Monomial]]:
    nvars = n + 2
    evens = list(range(0, nvars, 2))
    odds = list(range(1, nvars, 2))
    linear = [_power(nvars, i, 1) for i in evens] + [_power(nvars, i, d - 1) for i in odds]
    quadric_a = (
        [_power(nvars, i, 1) for i in evens[:-1]]
        + [_power(nvars, n, 2)]
        + [_power(nvars, i, d - 1) for i in odds[:-1]]
        + [_power(nvars, n + 1, d - 2)]
    )
    mixed = tuple(
        1 if t == n else (d - 3 if t == n + 1 else 0) for t in range(nvars)
    )
    quadric_b = (
        [_power(nvars, i, 1) for i in evens[:-1]]
        + [_power(nvars, n, 2)]
        + [_power(nvars, i, d - 1) for i in odds]
        + [mixed]
    )
    return {
        "linear": frozenset(linear),
        "quadric-a": frozenset(quadric_a),
        "quadric-b": frozenset(quadric_b),
    }


def _shape_permutations(
    template: frozenset[Monomial], gens: frozenset[Monomial], nvars: int
) -> Iterator[tuple[int, ...]]:
    """The relabelings sending each template variable to a variable of gens
    with the same sorted exponent column; any relabeling that maps template
    onto gens is one of them."""
    groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for side, monos in enumerate((template, gens)):
        for i in range(nvars):
            groups.setdefault(tuple(sorted(m[i] for m in monos)), ([], []))[side].append(i)
    if any(len(src) != len(dst) for src, dst in groups.values()):
        return
    for images in itertools.product(*(itertools.permutations(dst) for _, dst in groups.values())):
        perm = [0] * nvars
        for (src, _), image in zip(groups.values(), images):
            for i, v in zip(src, image):
                perm[i] = v
        yield tuple(perm)


def _apply_perm(mono: Monomial, perm: tuple[int, ...]) -> Monomial:
    out = [0] * len(mono)
    for i, e in enumerate(mono):
        out[perm[i]] = e
    return tuple(out)


def _classify_lt_generators(degrees: list[list[Monomial]], n: int, d: int) -> str:
    gens = frozenset(m for degree in degrees for m in degree)
    degree_profile = tuple(sorted(sum(m) for m in gens))
    for name, template in _shape_templates(n, d).items():
        if degree_profile != tuple(sorted(sum(m) for m in template)):
            continue
        for perm in _shape_permutations(template, gens, n + 2):
            if frozenset(_apply_perm(m, perm) for m in template) == gens:
                return name
    return "no match"


def classify_lt_shape(
    p: Polynomial, order: MonomialOrder, ctx: FermatContext
) -> str:
    """Match the leading-term ideal of a class's colon ideal (composed through
    degree d) against the template shapes, over variable relabelings."""
    ci = ColonIdeal(p, ctx, order)
    return _classify_lt_generators(ci.lt_generators(ctx.d), ctx.n, ctx.d)


def classify_lt_shape_of_ideal(
    generators: Sequence[Polynomial], order: MonomialOrder, ctx: FermatContext
) -> str:
    """Same as classify_lt_shape for an ideal given by homogeneous generators
    (used for complete-intersection ideals, which have no class polynomial).
    A Groebner basis truncated at degree d holds a leading term of every
    element of the ideal through degree d; generators above d add none."""
    if not generators:
        raise ValueError("no generators")
    if any(g.homogeneous_degree() is None for g in generators):
        raise ValueError("generators must be homogeneous and nonzero")
    kept = [g for g in generators if g.degree() <= ctx.d]
    basis = buchberger(kept, order, ctx.d).basis if kept else ()
    degrees: list[set[Monomial]] = [set() for _ in range(ctx.d + 1)]
    for g in basis:
        lead = leading_term(g, order)[0]
        degrees[sum(lead)].add(lead)
    return _classify_lt_generators(minimal_generators(degrees, order), ctx.n, ctx.d)
