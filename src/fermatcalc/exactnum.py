"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored on the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1)
modulo the m-th cyclotomic polynomial, as an integer coordinate vector with a
single positive denominator.  The vector is always fully reduced (the gcd of
all numerators and the denominator is 1), so the representation is canonical:
two values with the same conductor are equal exactly when their stored data
coincide.  Rationality of a value is therefore a plain coordinate check.

Rational numbers are `fractions.Fraction`; the alias `Rational` is exported
for callers that want the domain name.

>>> z = zeta(6)
>>> z * z == z - 1        # x^2 = x - 1 modulo the 6th cyclotomic polynomial
True
>>> (zeta(5) + zeta(5)**2 + zeta(5)**3 + zeta(5)**4).as_rational()
Fraction(-1, 1)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from fermatcalc.echelon import echelon_insert

Rational = Fraction

__all__ = [
    "CyclotomicNumber",
    "Rational",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "unit_circle_check",
    "zeta",
]


def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer."""
    if m <= 0:
        raise ValueError("conductor must be positive")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials; `den` must be monic.
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
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic.

    Computed by exact division of x^m - 1 by the product of the cyclotomic
    polynomials of the proper divisors of m.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m <= 0:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            poly, rem = _int_poly_divmod(poly, list(cyclotomic_polynomial(e)))
            assert not rem
    return tuple(poly)


class _Field:
    """Cached per-conductor data: minimal polynomial and power reduction table."""

    __slots__ = ("m", "phi", "min_poly", "powers")

    def __init__(self, m: int):
        self.m = m
        min_poly = cyclotomic_polynomial(m)
        phi = len(min_poly) - 1
        self.phi = phi
        self.min_poly = min_poly
        # x^phi reduces to -(lower part of the minimal polynomial); iterate to
        # cover every exponent needed by multiplication (2*phi - 2), conjugation
        # and conductor promotion (up to m).
        tail = tuple(-c for c in min_poly[:phi])
        limit = max(2 * phi - 2, m)
        powers: list[tuple[int, ...]] = []
        for e in range(phi):
            row = [0] * phi
            row[e] = 1
            powers.append(tuple(row))
        for e in range(phi, limit + 1):
            prev = powers[e - 1]
            carry = prev[phi - 1]
            row = [0] + list(prev[: phi - 1])
            if carry:
                for t in range(phi):
                    row[t] += carry * tail[t]
            powers.append(tuple(row))
        self.powers = tuple(powers)


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            c = c / lead
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


class CyclotomicNumber:
    """An element of Q(zeta_m) in canonical power-basis form.

    Arithmetic between values of different conductors promotes both operands
    to the least common multiple conductor first.  All operations are pure;
    instances are immutable.
    """

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, nums, den: int = 1):
        if m <= 0:
            raise ValueError("conductor must be positive")
        fld = _field(m)
        nums = list(nums)
        if len(nums) != fld.phi:
            raise ValueError(
                f"expected {fld.phi} coordinates for conductor {m}, got {len(nums)}"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        g = den
        for v in nums:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = [v // g for v in nums]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, m: int = 1) -> "CyclotomicNumber":
        return cls(m, [0] * euler_phi(m))

    @classmethod
    def one(cls, m: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, m)

    @classmethod
    def from_rational(cls, value, m: int = 1) -> "CyclotomicNumber":
        q = Fraction(value)
        nums = [0] * euler_phi(m)
        nums[0] = q.numerator
        return cls(m, nums, q.denominator)

    @classmethod
    def from_coords(cls, m: int, coords) -> "CyclotomicNumber":
        """Build from a full phi(m)-vector of rationals (or strings)."""
        fracs = [Fraction(c) for c in coords]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return cls(m, [f.numerator * (den // f.denominator) for f in fracs], den)

    def __reduce__(self):
        return (CyclotomicNumber, (self.m, self.nums, self.den))

    # -- inspection --------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # -- conductor changes ---------------------------------------------------

    def promote(self, target: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_target); the current conductor must divide target."""
        if target == self.m:
            return self
        if target <= 0 or target % self.m:
            raise ValueError(f"cannot promote conductor {self.m} to {target}")
        fld = _field(target)
        step = target // self.m
        nums = [0] * fld.phi
        for j, v in enumerate(self.nums):
            if v:
                row = fld.powers[j * step]
                for t in range(fld.phi):
                    nums[t] += v * row[t]
        return CyclotomicNumber(target, nums, self.den)

    def demote(self, target: int) -> "CyclotomicNumber":
        """Rewrite on the power basis of Q(zeta_target) for target | m.

        Raises ValueError when the value does not lie in the smaller field.
        """
        if target == self.m:
            return self
        if target <= 0 or self.m % target:
            raise ValueError(f"target conductor {target} must divide {self.m}")
        fld = _field(self.m)
        phi_t = euler_phi(target)
        step = self.m // target
        # Solve sum_j c_j zeta_m^(j*step) = self on the augmented matrix
        # [A | b]; a pivot in the right-hand column b means no solution.
        pivots: dict[int, dict] = {}
        for i in range(fld.phi):
            row = {j: Fraction(fld.powers[j * step][i]) for j in range(phi_t)}
            row[phi_t] = Fraction(self.nums[i], self.den)
            echelon_insert(pivots, {c: v for c, v in row.items() if v})
        if phi_t in pivots:
            raise ValueError(f"value does not lie in Q(zeta_{target})")
        # the powers zeta_target^j are independent: every column j < phi_t pivots
        return CyclotomicNumber.from_coords(target, [pivots[j].get(phi_t, 0) for j in range(phi_t)])

    def _common(self, other: "CyclotomicNumber"):
        if self.m == other.m:
            return self, other
        m = math.lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    # -- field operations ----------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y = self._common(other)
        den = math.lcm(x.den, y.den)
        fx, fy = den // x.den, den // y.den
        return CyclotomicNumber(x.m, [a * fx + b * fy for a, b in zip(x.nums, y.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.m, [-v for v in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y = self._common(other)
        fld = _field(x.m)
        phi = fld.phi
        conv = [0] * (2 * phi - 1) if phi > 1 else [0]
        xn, yn = x.nums, y.nums
        for i, a in enumerate(xn):
            if a:
                for j, b in enumerate(yn):
                    if b:
                        conv[i + j] += a * b
        nums = list(conv[:phi])
        powers = fld.powers
        for e in range(phi, len(conv)):
            c = conv[e]
            if c:
                row = powers[e]
                for t in range(phi):
                    nums[t] += c * row[t]
        return CyclotomicNumber(x.m, nums, x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        fld = _field(self.m)
        f = [Fraction(v, self.den) for v in self.nums]
        while f and f[-1] == 0:
            f.pop()
        r0 = [Fraction(c) for c in fld.min_poly]
        s0: list[Fraction] = []
        r1, s1 = f, [Fraction(1)]
        while len(r1) > 1:
            q, r = _frac_poly_divmod(r0, r1)
            # s_next = s0 - q * s1
            prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, a in enumerate(q):
                if a:
                    for j, b in enumerate(s1):
                        prod[i + j] += a * b
            s_next = [
                (s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0))
                for i in range(max(len(s0), len(prod)))
            ]
            r0, r1, s0, s1 = r1, r, s1, s_next
        c = r1[0]
        coords = [s / c for s in s1]
        coords += [Fraction(0)] * (fld.phi - len(coords))
        return CyclotomicNumber.from_coords(self.m, coords[: fld.phi])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if other == 1:  # the echelon engine's pivot normalisation; skip the product
            return self.inverse()
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = CyclotomicNumber.one(self.m)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        fld = _field(self.m)
        nums = [0] * fld.phi
        for j, v in enumerate(self.nums):
            if v:
                row = fld.powers[(self.m - j) % self.m]
                for t in range(fld.phi):
                    nums[t] += v * row[t]
        return CyclotomicNumber(self.m, nums, self.den)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y = self._common(other)
        return x.nums == y.nums and x.den == y.den

    def __str__(self) -> str:
        parts = []
        for j, v in enumerate(self.nums):
            if not v:
                continue
            mono = "1" if j == 0 else ("z" if j == 1 else f"z^{j}")
            if j == 0:
                term = str(v)
            elif v == 1:
                term = mono
            elif v == -1:
                term = f"-{mono}"
            else:
                term = f"{v}*{mono}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        body = " ".join(parts) if parts else "0"
        if self.den != 1:
            return f"({body})/{self.den}"
        return body

    def __repr__(self) -> str:
        return f"CyclotomicNumber(m={self.m}, {str(self)!r})"


def root_of_unity(m: int, k: int) -> CyclotomicNumber:
    """zeta_m^k in canonical form.

    >>> root_of_unity(10, 5).as_rational()
    Fraction(-1, 1)
    """
    if m <= 0:
        raise ValueError("conductor must be positive")
    fld = _field(m)
    return CyclotomicNumber(m, fld.powers[k % m])


def zeta(m: int) -> CyclotomicNumber:
    """The primitive root zeta_m = exp(2*pi*i/m)."""
    return root_of_unity(m, 1)


def unit_circle_check(z: CyclotomicNumber) -> bool:
    """True when |z| = 1, decided exactly via z * conj(z) = 1."""
    return z * z.conjugate() == CyclotomicNumber.one(z.m)
