import json
from fractions import Fraction

import pytest

from fermatcalc.exactnum import CyclotomicNumber, root_of_unity, zeta
from fermatcalc.ioformats import (
    coordinate_strings,
    cyclotomic_from_json,
    cyclotomic_to_json,
    frac_str,
    parse_cyclotomic_expr,
    polynomial_from_json,
    polynomial_to_json,
)
from fermatcalc.multipoly import Polynomial


def test_rational_strings():
    assert frac_str(Fraction(22, 7)) == "22/7"
    assert frac_str(Fraction(-1)) == "-1"
    assert frac_str(None) is None


def test_coordinate_strings_are_fraction_strings():
    big = 10**999 + 7  # 1000 digits
    for nums, den in [((0, 0), 1), ((0, -3), 6), ((-4, 6), 1), ((6, -9), 12), ((big, -2 * big), 3),
                      ((1, -big), 2 * big), ((-big, 0), big + 2)]:
        z = CyclotomicNumber(4, nums, den)
        assert coordinate_strings(z) == [str(Fraction(v, z.den)) for v in z.nums]
    assert coordinate_strings(CyclotomicNumber(4, (6, -9), 12)) == ["1/2", "-3/4"]


def test_cyclotomic_json_round_trip():
    z = zeta(6) - 1
    obj = cyclotomic_to_json(z)
    assert obj == {"m": 6, "coords": ["-1", "1"]}
    assert cyclotomic_from_json(obj) == z
    assert cyclotomic_to_json(cyclotomic_from_json(obj)) == obj


def test_polynomial_json_round_trip_is_bit_exact():
    z = zeta(10)
    p = Polynomial(
        4,
        [
            ((3, 0, 3, 0), z**3 - 1),
            ((2, 1, 3, 0), CyclotomicNumber.from_rational(Fraction(-7, 3))),
            ((0, 3, 0, 3), z),
        ],
    )
    blob = json.dumps(polynomial_to_json(p), sort_keys=True)
    parsed = polynomial_from_json(json.loads(blob))
    assert parsed == p
    assert json.dumps(polynomial_to_json(parsed), sort_keys=True) == blob


def test_polynomial_json_promotes_to_a_common_conductor():
    p = Polynomial(2, [((1, 0), zeta(4)), ((0, 1), zeta(6))])
    obj = polynomial_to_json(p)
    assert obj["m"] == 12
    assert polynomial_from_json(obj) == p


def test_polynomial_json_terms_are_sorted_descending():
    p = Polynomial(3, [((0, 0, 2), 1), ((2, 0, 0), 1), ((1, 1, 0), 1)])
    exps = [tuple(t["exp"]) for t in polynomial_to_json(p)["terms"]]
    assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 2)]


def test_random_polynomials_round_trip():
    import random

    from conftest import coefficient_pool, random_reduced_class
    from fermatcalc.idealcalc import FermatContext

    rng = random.Random(77)
    ctx = FermatContext(2, 5)
    for _ in range(10):
        p = random_reduced_class(ctx, rng, terms=rng.randint(1, 15))
        blob = json.dumps(polynomial_to_json(p), sort_keys=True)
        parsed = polynomial_from_json(json.loads(blob))
        assert parsed == p
        assert json.dumps(polynomial_to_json(parsed), sort_keys=True) == blob


def test_expression_parser_basics():
    assert parse_cyclotomic_expr("i", 8) == root_of_unity(4, 1)
    assert parse_cyclotomic_expr("z", 8) == zeta(8)
    assert parse_cyclotomic_expr("z^2 - 1", 6) == zeta(6) ** 2 - 1
    assert parse_cyclotomic_expr("22/7", 4).as_rational() == Fraction(22, 7)
    assert parse_cyclotomic_expr("-z^-1", 10) == -(zeta(10).inverse())


def test_expression_parser_juxtaposition_and_grouping():
    i = root_of_unity(4, 1)
    assert parse_cyclotomic_expr("3+4i", 8) == 3 + 4 * i
    assert parse_cyclotomic_expr("z*(3+4i)/5", 8) == zeta(8) * (3 + 4 * i) / 5
    assert parse_cyclotomic_expr("2z", 6) == 2 * zeta(6)
    assert parse_cyclotomic_expr("(1+z)(1-z)", 6) == (1 + zeta(6)) * (1 - zeta(6))


def test_expression_parser_errors_carry_positions():
    for bad in ("z+", "(z", "q", "z^", "3//2"):
        with pytest.raises(ValueError, match="parse error at position"):
            parse_cyclotomic_expr(bad, 6)


@pytest.mark.parametrize(
    "blob,message",
    [
        ({"vars": True, "m": 10, "terms": []}, "polynomial must be an object"),
        ({"vars": 4, "m": True, "terms": []}, "polynomial must be an object"),
        ({"vars": 4, "m": 10, "terms": [{"exp": [3, False, 3, False], "coeff": ["1"]}]},
         "malformed polynomial term"),
        ({"vars": 4, "m": 10, "terms": [{"exp": [3, 0, 3, 0], "coeff": [True]}]},
         "malformed polynomial term"),
    ],
    ids=["vars", "m", "exp", "coeff"],
)
def test_json_booleans_are_not_integers(blob, message):
    with pytest.raises(ValueError, match=message):
        polynomial_from_json(json.loads(json.dumps(blob)))


def test_powers_are_refused_past_the_printable_digits():
    import sys
    import time

    digits = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for text in ("2^100000000", "3^100000", "(1+z)^100000000", f"10^{digits}", f"10^-{digits}"):
        with pytest.raises(ValueError, match=f"power has more than {digits} digits"):
            parse_cyclotomic_expr(text, 10)
    assert time.perf_counter() - start < 1
    assert parse_cyclotomic_expr(f"10^{digits - 1}", 10) == 10 ** (digits - 1)
    assert parse_cyclotomic_expr(f"10^-{digits - 1}", 10) == Fraction(1, 10 ** (digits - 1))
    # roots of unity stay small, so their powers reduce for every exponent
    assert parse_cyclotomic_expr("z^1000000001", 10) == zeta(10)
    assert parse_cyclotomic_expr("i^-10000000000000000000000000000003", 10) == root_of_unity(4, 1)
    assert parse_cyclotomic_expr("2^0", 10) == parse_cyclotomic_expr("0^-0", 10) == 1
