import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermatcalc.exactnum import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
    unit_circle_check,
    zeta,
)
from fermatcalc.multipoly import Polynomial

from conftest import demote, divided_cyclotomic_polynomial, table_mul, table_promote, table_sum, table_traces


def test_cyclotomic_polynomials_match_sympy():
    import sympy

    x = sympy.symbols("x")
    for m in range(1, 31):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]
        assert len(ours) == euler_phi(m) + 1


def test_cyclotomic_polynomials_from_the_radical_match_exact_division():
    for m in range(1, 601):
        assert cyclotomic_polynomial(m) == divided_cyclotomic_polynomial(m), m
    # Phi_6000(x) = Phi_30(x^200): 7 nonzero coefficients of 1601
    poly = cyclotomic_polynomial(6000)
    assert len(poly) == 1601
    assert {e: c for e, c in enumerate(poly) if c} == {
        0: 1, 200: 1, 600: -1, 800: -1, 1000: -1, 1400: 1, 1600: 1}
    with pytest.raises(ValueError, match="conductor must be positive"):
        cyclotomic_polynomial(0)


def test_small_conductors_degenerate_correctly():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert zeta(2) * zeta(2) == 1


def test_root_of_unity_examples():
    assert root_of_unity(10, 5).as_rational() == -1
    assert root_of_unity(8, 2).coords == (0, 0, Fraction(1), 0)  # the value i
    assert root_of_unity(6, 7) == zeta(6)


def test_root_of_unity_rejects_bad_conductor():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)
    with pytest.raises(ValueError):
        root_of_unity(-4, 1)


def test_power_basis_reduction():
    z6 = zeta(6)
    assert z6 * z6 == z6 - 1  # x^2 - x + 1 is the minimal polynomial
    for m in (3, 5, 8, 12):
        z = zeta(m)
        assert z * z ** (m - 1) == 1
    z5 = zeta(5)
    assert (1 + z5 + z5**2 + z5**3 + z5**4).is_zero()


def test_as_rational():
    z5 = zeta(5)
    assert (z5 + z5**2 + z5**3 + z5**4).as_rational() == -1
    z6 = zeta(6)
    assert (z6 + z6**5).as_rational() == 1
    golden = z5 + z5**4
    assert golden.as_rational() is None
    # its minimal polynomial over Q is x^2 + x - 1, so no rational value exists
    assert (golden * golden + golden - 1).is_zero()


def test_unit_circle_check():
    i = root_of_unity(4, 1)
    assert unit_circle_check((3 + 4 * i) / 5)
    assert not unit_circle_check(CyclotomicNumber.from_rational(2))
    assert unit_circle_check(zeta(8) * ((3 + 4 * i) / 5).promote(8))
    assert not unit_circle_check(CyclotomicNumber.zero())


def test_unit_circle_multiplicative():
    i = root_of_unity(4, 1)
    values = [(3 + 4 * i) / 5, (5 + 12 * i) / 13, zeta(8), zeta(12) ** 5]
    for x in values:
        assert unit_circle_check(x)
        for y in values:
            assert unit_circle_check(x * y)


def test_division():
    z = zeta(10)
    x = 2 * z**3 - z + Fraction(1, 3)
    assert (x / x).as_rational() == 1
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        x / CyclotomicNumber.zero(10)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero().inverse()


def test_inverse_checks_that_the_norm_is_rational(monkeypatch):
    # with sigma_k replaced by the identity, x * C = x^4 is not rational
    monkeypatch.setattr(CyclotomicNumber, "_galois", lambda self, k: self)
    with pytest.raises(ArithmeticError):
        (zeta(5) + 2).inverse()


def test_pow():
    z = zeta(7)
    assert z**7 == 1
    assert z**-1 == z.inverse()
    assert z**-3 == (z**3).inverse()
    assert z**0 == 1


def test_conductor_promotion_is_an_embedding():
    x = zeta(6) - 2
    y = 3 * zeta(6) ** 2
    assert (x + y).promote(12) == x.promote(12) + y.promote(12)
    assert (x * y).promote(12) == x.promote(12) * y.promote(12)
    with pytest.raises(ValueError):
        x.promote(9)  # 6 does not divide 9
    # a rational factor, in either order, gives the promoted product's stored data
    for q in (0, Fraction(-3, 4), Fraction(7, 6)):
        r = CyclotomicNumber.from_rational(q)
        for c in (x, y, (zeta(10) - 3) / 5, CyclotomicNumber.zero(12)):
            p = CyclotomicNumber.from_rational(q, c.m) * c
            for product in (r * c, c * r, q * c, c * q):
                assert (product.m, product.nums, product.den) == (p.m, p.nums, p.den)


def test_promote_then_demote_is_identity():
    # the reference demote inverts promote, and in_subfield sees the value in
    # its own field and in every field between
    for m, target in [(6, 12), (5, 10), (4, 8), (3, 12), (8, 24), (10, 30), (12, 24), (7, 28)]:
        x = zeta(m) * 2 - Fraction(1, 3)
        up = x.promote(target)
        assert demote(up, m) == x
        assert up.in_subfield(m) and up.in_subfield(target)
        assert not up.in_subfield(1)


def test_demote_rejects_values_outside_the_subfield():
    with pytest.raises(ValueError):
        demote(zeta(12), 3)
    assert not zeta(12).in_subfield(3)
    # but a conductor-12 value that happens to be a 3rd root demotes fine
    assert demote(root_of_unity(12, 4), 3) == zeta(3)
    assert root_of_unity(12, 4).in_subfield(3)


def _divisors(m):
    return [t for t in range(1, m + 1) if m % t == 0]


def test_in_subfield_matches_demote():
    # a value of every subfield Q(zeta_s), s | M, tested against every t | M,
    # t = 1 included, and against t = M + 1, coprime to M, so that Q(zeta_t)
    # meets Q(zeta_M) in Q
    rng = random.Random(30)
    cases = 0
    for big in range(1, 61):
        for s in _divisors(big):
            x = CyclotomicNumber(s, [rng.randint(-3, 3) for _ in range(euler_phi(s))],
                                 rng.randint(1, 4))
            if not x.nums[1:]:  # keep the draw irrational when the field allows
                x = x + zeta(s)
            up = x.promote(big)
            assert demote(up, s) == x
            for t in _divisors(big):
                try:
                    demote(up, t)
                    inside = True
                except ValueError:
                    inside = False
                assert up.in_subfield(t) is inside, (big, s, t, up)
                cases += 1
            assert up.in_subfield(big + 1) is (up.as_rational() is not None)
    assert cases == 1467  # the sum over M <= 60 of (number of divisors of M)^2
    assert not zeta(12).in_subfield(3)
    assert root_of_unity(12, 4).in_subfield(3) and demote(root_of_unity(12, 4), 3) == zeta(3)
    # with t = 1 every unit k has k % 1 == 1 % 1, so only rationals pass
    assert root_of_unity(12, 6).in_subfield(1) and not root_of_unity(12, 4).in_subfield(1)
    # t need not divide the conductor: Q(zeta_8) meets Q(zeta_12) in Q(i)
    assert root_of_unity(12, 3).in_subfield(8) and not zeta(12).in_subfield(8)
    with pytest.raises(ValueError):
        zeta(5).in_subfield(0)


def test_root_of_unity_matches_the_power_table():
    for m in range(1, 121):
        for k in range(2 * m):
            assert root_of_unity(m, k) == table_sum(m, [(k, 1)]), (m, k)


def _value(m):
    phi = euler_phi(m)
    return st.builds(lambda nums, den: CyclotomicNumber(m, nums, den),
                     st.lists(st.integers(-9, 9), min_size=phi, max_size=phi), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_operations_match_the_power_table(data):
    m = data.draw(st.integers(1, 60))
    x = data.draw(_value(m))
    y = data.draw(st.sampled_from(_divisors(m)).flatmap(_value))  # promoted to m in products
    step = data.draw(st.integers(1, 3))
    assert x.promote(m * step) == table_promote(x, m * step)
    assert x.conjugate() == table_sum(m, [(-j % m, v) for j, v in enumerate(x.nums)], x.den)
    for a, b in ((x, y), (y, x), (x, x)):
        product, expected = a * b, table_mul(a, b)
        assert (product.m, product.nums, product.den) == (expected.m, expected.nums, expected.den)
    if x:
        assert table_mul(x, x.inverse()) == 1


def test_traces_are_ramanujan_sums():
    from fermatcalc import exactnum

    for m in range(1, 301):
        assert exactnum._field(m).traces == table_traces(m), m


def test_mixed_conductor_arithmetic():
    x = zeta(6) + zeta(4)
    assert x.m == 12
    assert x == zeta(4) + zeta(6)
    assert zeta(6) * 1 == zeta(6)


def test_canonical_form_is_unique():
    a = CyclotomicNumber(10, (2, 0, 4, 0), 6)
    b = CyclotomicNumber(10, (1, 0, 2, 0), 3)
    assert a.nums == b.nums and a.den == b.den
    assert CyclotomicNumber(10, (1, 0, 0, 0), -2).den == 2  # sign normalized


def test_wrong_coordinate_count_rejected(monkeypatch):
    from fermatcalc import exactnum

    with pytest.raises(ValueError):
        CyclotomicNumber(10, (1, 2, 3))
    # counted before the field of the conductor is built
    monkeypatch.setattr(exactnum, "_Field", lambda m: pytest.fail(f"Q(zeta_{m}) was built"))
    with pytest.raises(ValueError, match="expected 1000002 coordinates for conductor 1000003, got 1"):
        CyclotomicNumber.from_coords(1000003, ["1"])


BIG = 10**999 + 7  # 1000 digits


@pytest.mark.parametrize("text", [
    # plain [-]digits[/digits] strings, read by int
    "0", "-0", "007", "3/4", "-12/8", "00/07", str(BIG), f"-{BIG}/{3 * BIG}", f"1/{BIG}",
    # everything else, read by Fraction
    " 3", "3 /4", "+3", "3_0", "1.5", "1e3", "\u0663", "0/0", "1/0", "-", "", "--1", "1/-2",
])
def test_from_coords_reads_a_string_as_fraction_does(text):
    def outcome(read):
        try:
            return read(text)
        except Exception as exc:  # the type and message must agree too
            return type(exc), str(exc)

    assert outcome(lambda c: CyclotomicNumber.from_coords(1, [c]).as_rational()) == outcome(Fraction)


def test_from_coords_brings_coordinates_to_one_denominator():
    assert CyclotomicNumber.from_coords(4, ["2/4", "-2/3"]) == CyclotomicNumber(4, [3, -4], 6)
    assert CyclotomicNumber.from_coords(4, ["6/3", Fraction(1, 3)]).nums == (6, 1)
    assert CyclotomicNumber.from_coords(6, [0, "-10/5"]) == -2 * zeta(6)


def test_field_tables_refuse_exactly_above_their_limit(monkeypatch):
    from fermatcalc import exactnum

    build = exactnum._field.__wrapped__  # uncached: Q(zeta_7) may be cached already
    # Q(zeta_7): phi = 6 and (max(2 phi - 2, m) + 1) phi = 66 entries
    monkeypatch.setattr(exactnum, "FIELD_MAX_ENTRIES", 66)
    assert build(7).phi == 6
    monkeypatch.setattr(exactnum, "FIELD_MAX_ENTRIES", 65)
    with pytest.raises(ValueError, match=r"conductor 7 needs .* = 66 reduction steps modulo "
                                         r"Phi_m, above the field limit of 65"):
        build(7)


def test_conductors_above_the_field_limit_are_refused_before_phi(monkeypatch):
    from fermatcalc import exactnum, fermat_hodge

    # every table has at least m + 1 entries: at the limit 7, m = 8 is refused
    # without euler_phi's trial division, and m = 7 on its count of 66 entries
    build = exactnum._field.__wrapped__
    monkeypatch.setattr(exactnum, "FIELD_MAX_ENTRIES", 7)
    with pytest.raises(ValueError, match=r"^conductor 7 needs .* = 66 reduction steps modulo Phi_m"):
        build(7)

    def refuse(m):
        raise AssertionError("euler_phi ran")

    monkeypatch.setattr(exactnum, "euler_phi", refuse)
    monkeypatch.setattr(fermat_hodge, "euler_phi", refuse)
    for route in (build, lambda m: CyclotomicNumber.from_coords(m, ["1"]),
                  lambda m: fermat_hodge.check_prop11_size(3, m)):
        with pytest.raises(ValueError, match=r"^conductor 8 needs at least m \+ 1 = 9 "
                                             r"reduction steps modulo Phi_m, above the field limit of 7$"):
            route(8)


def test_pickle_round_trip():
    x = zeta(8) * ((3 + 4 * root_of_unity(4, 1)) / 5).promote(8)
    poly = Polynomial(3, [((2, 1, 0), x), ((0, 0, 3), zeta(8) + Fraction(1, 2))])
    for value in (x, poly):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18, 20, 28])


@st.composite
def cyclotomic_numbers(draw, m=None):
    if m is None:
        m = draw(conductors)
    coords = draw(
        st.lists(small_fracs, min_size=euler_phi(m), max_size=euler_phi(m))
    )
    return CyclotomicNumber.from_coords(m, coords)


@given(cyclotomic_numbers(), cyclotomic_numbers(), cyclotomic_numbers())
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == CyclotomicNumber.zero()


@given(cyclotomic_numbers())
@settings(max_examples=60, deadline=None)
def test_inverse_and_conjugation(x):
    if not x.is_zero():
        assert x * x.inverse() == 1
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    # the norm is fixed by conjugation
    assert norm.conjugate() == norm


@given(cyclotomic_numbers())
@settings(max_examples=40, deadline=None)
def test_rational_round_trip(x):
    q = x.as_rational()
    if q is not None:
        assert CyclotomicNumber.from_rational(q, x.m) == x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_galois_automorphisms(data):
    m = data.draw(conductors)
    x = data.draw(cyclotomic_numbers(m))
    y = data.draw(cyclotomic_numbers(m))
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    k = data.draw(st.sampled_from(units))
    l = data.draw(st.sampled_from(units))
    assert (x + y)._galois(k) == x._galois(k) + y._galois(k)
    assert (x * y)._galois(k) == x._galois(k) * y._galois(k)
    assert x._galois(-1) == x.conjugate()
    assert x._galois(k)._galois(l) == x._galois(k * l % m)


def test_inverse_matches_sympy_invert():
    import sympy

    t = sympy.symbols("t")
    rng = random.Random(3)
    for m in range(1, 31):
        phi = euler_phi(m)
        modulus = sympy.cyclotomic_poly(m, t)
        for density in (0.25, 1.0):
            for _ in range(4):
                coords = [
                    Fraction(rng.randint(-7, 7), rng.randint(1, 4)) if rng.random() < density else 0
                    for _ in range(phi)
                ]
                coords[rng.randrange(phi)] = Fraction(rng.randint(1, 7))
                x = CyclotomicNumber.from_coords(m, coords)
                f = sum(sympy.Rational(c.numerator, c.denominator) * t**j for j, c in enumerate(coords))
                g = sympy.Poly(sympy.invert(f, modulus, t), t).all_coeffs()[::-1]
                expected = [Fraction(int(c.p), int(c.q)) for c in g]
                expected += [Fraction(0)] * (phi - len(expected))
                assert x.inverse().coords == tuple(expected), (m, coords)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_equality_across_conductors(data):
    m = data.draw(conductors)
    other = data.draw(conductors)
    x = data.draw(cyclotomic_numbers(m))
    wide = x.promote(math.lcm(m, other))
    assert wide == x and hash(wide) == hash(x)
    assert len({x, wide}) == 1
    q = x.as_rational()
    if q is not None:  # a rational value hashes like the Fraction it equals
        assert hash(x) == hash(q)
