import math
import pickle
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


def test_cyclotomic_polynomials_match_sympy():
    import sympy

    x = sympy.symbols("x")
    for m in range(1, 31):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]
        assert len(ours) == euler_phi(m) + 1


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


def test_promote_then_demote_is_identity():
    for m, target in [(6, 12), (5, 10), (4, 8), (3, 12), (8, 24), (10, 30), (12, 24), (7, 28)]:
        x = zeta(m) * 2 - Fraction(1, 3)
        up = x.promote(target)
        assert up.demote(m) == x


def test_demote_rejects_values_outside_the_subfield():
    with pytest.raises(ValueError):
        zeta(12).demote(3)
    # but a conductor-12 value that happens to be a 3rd root demotes fine
    assert root_of_unity(12, 4).demote(3) == zeta(3)


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


def test_wrong_coordinate_count_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber(10, (1, 2, 3))


def test_pickle_round_trip():
    x = zeta(8) * ((3 + 4 * root_of_unity(4, 1)) / 5).promote(8)
    assert pickle.loads(pickle.dumps(x)) == x


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12])


@st.composite
def cyclotomic_numbers(draw):
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
