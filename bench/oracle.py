"""Exact arithmetic the benchmark's result checks use instead of the code
under test.

Values live in the group ring Q[C_M]: a dict {k mod M: Fraction} standing
for sum c_k zeta_M^k.  Only the final comparison reduces to the power basis
modulo the M-th cyclotomic polynomial, which is computed here from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial:
    x^m - 1 divided by the cyclotomic polynomials of the proper divisors."""
    num = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            den = cyclotomic_poly(e)
            dn = len(den) - 1
            quot = [0] * (len(num) - dn)
            for i in range(len(num) - 1, dn - 1, -1):
                c = num[i]
                if c:
                    quot[i - dn] = c
                    for j, dj in enumerate(den):
                        num[i - dn + j] -= c * dj
            if any(num[:dn]):
                raise ArithmeticError(f"inexact cyclotomic division at m={m}")
            num = quot
    return num


def power_basis(x: dict, m: int) -> tuple[Fraction, ...]:
    """Canonical coordinates of a group-ring element of Q[C_m] on the power
    basis of Q(zeta_m)."""
    phi_poly = cyclotomic_poly(m)
    phi = len(phi_poly) - 1
    coeffs = [Fraction(0)] * m
    for k, c in x.items():
        coeffs[k % m] += c
    for i in range(m - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j, pj in enumerate(phi_poly):
                coeffs[i - phi + j] -= c * pj
    return tuple(coeffs[:phi])


def root(k: int) -> dict:
    return {k: Fraction(1)}


def const(q) -> dict:
    return {0: Fraction(q)}


def add(x: dict, y: dict, m: int, sign: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        k %= m
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def mul(x: dict, y: dict, m: int) -> dict:
    out: dict[int, Fraction] = {}
    for i, a in x.items():
        for j, b in y.items():
            k = (i + j) % m
            out[k] = out.get(k, 0) + a * b
    return {k: c for k, c in out.items() if c}


def power(x: dict, e: int, m: int) -> dict:
    out = const(1)
    for _ in range(e):
        out = mul(out, x, m)
    return out


def rescale(x: dict, step: int) -> dict:
    """Embed Q[C_m] into Q[C_(m*step)]: zeta_m = zeta_(m*step)^step."""
    return {k * step: c for k, c in x.items()}


def from_json(obj: dict) -> tuple[dict, int]:
    """A serialized CyclotomicNumber {"m", "coords"} as (group-ring value, m)."""
    m = obj["m"]
    return {j: Fraction(c) for j, c in enumerate(obj["coords"]) if Fraction(c)}, m


def equal(x: dict, mx: int, y: dict, my: int) -> bool:
    """Exact equality of two group-ring values over their common field."""
    m = math.lcm(mx, my)
    return power_basis(rescale(x, m // mx), m) == power_basis(rescale(y, m // my), m)


def is_zero(x: dict, m: int) -> bool:
    return not any(power_basis(x, m))


def rational_value(x: dict, m: int) -> Fraction | None:
    coords = power_basis(x, m)
    if any(coords[1:]):
        return None
    return coords[0]


def literal(r: str, k: int) -> dict:
    """The value r * zeta^k of a coefficient drawn by the generator."""
    return {k: Fraction(r)}
