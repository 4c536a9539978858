"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored on the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1)
modulo the m-th cyclotomic polynomial, as an integer coordinate vector with a
single positive denominator.  The vector is always fully reduced (the gcd of
all numerators and the denominator is 1), so the representation is canonical:
two values with the same conductor are equal exactly when their stored data
coincide.  Rationality of a value is therefore a plain coordinate check.

Products, conductor changes, Galois automorphisms and roots of unity all end
in one reduction of an integer vector modulo the monic Phi_m, through its
nonzero coefficients only; no table of powers is kept.  Membership in a
subfield is a Galois test, and traces are Ramanujan sums.  The module imports
no other part of the package.

Rational numbers are `fractions.Fraction`.

>>> z = zeta(6)
>>> z * z == z - 1        # x^2 = x - 1 modulo the 6th cyclotomic polynomial
True
>>> (zeta(5) + zeta(5)**2 + zeta(5)**3 + zeta(5)**4).as_rational()
Fraction(-1, 1)
>>> (1 + zeta(4)).inverse()   # the other conjugate 1 - i over the norm 2
CyclotomicNumber(m=4, '(1 - z)/2')
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CyclotomicNumber",
    "FIELD_MAX_ENTRIES",
    "check_conductor",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "unit_circle_check",
    "zeta",
]


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer."""
    if m <= 0:
        raise ValueError("conductor must be positive")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic.

    With r = rad(m), Phi_m(x) = Phi_r(x^(m/r)), and for r > 1 Phi_r is the
    product of (1 - x^e)^mu(r/e) over the divisors e of r.  That product is
    expanded as a power series through degree phi(r): a factor 1 - x^e is a
    shifted subtraction and its inverse a running shifted addition.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m <= 0:
        raise ValueError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    primes = _prime_factors(m)
    r = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    series = [1] + [0] * phi
    divisors = [(1, 1)]  # (q, mu(q)) for the squarefree q | r
    for p in primes:
        divisors += [(q * p, -mu) for q, mu in divisors]
    for q, mu in divisors:
        e = r // q
        if mu == 1:
            for i in range(phi, e - 1, -1):
                series[i] -= series[i - e]
        else:
            for i in range(e, phi + 1):
                series[i] += series[i - e]
    step = m // r
    poly = [0] * (phi * step + 1)
    poly[::step] = series
    return tuple(poly)


class _Field:
    """Cached per-conductor data: the degree phi, the nonzero coefficients of
    x^phi modulo the m-th cyclotomic polynomial, and the traces Tr(zeta_m^j)
    of the power basis."""

    __slots__ = ("phi", "tail", "traces")

    def __init__(self, m: int):
        min_poly = cyclotomic_polynomial(m)
        phi = len(min_poly) - 1
        self.phi = phi
        # x^phi = -(lower part of the minimal polynomial), as (exponent, value)
        self.tail = tuple((t, -c) for t, c in enumerate(min_poly[:phi]) if c)
        # Tr(zeta^j) is Ramanujan's sum mu(q) phi(m) / phi(q), q = m / gcd(j, m):
        # 0 unless q is squarefree, else phi(m) / prod(1 - p) over the primes p | q
        primes = _prime_factors(m)
        traces = []
        for j in range(phi):
            q = m // math.gcd(j, m)
            trace = phi
            for p in primes:
                if q % p == 0:
                    trace = 0 if q % (p * p) == 0 else trace // (1 - p)
            traces.append(trace)
        self.traces = tuple(traces)


# Most steps, (max(2 phi - 2, m) + 1) * phi, that one reduction modulo a dense
# Phi_m may take: `_power_sum` reduces vectors of length m and `__mul__` of
# length 2 phi - 1, each entry from phi up against at most phi coefficients.
# On a 2-core x86_64 host the largest accepted prime, m = 3163 (phi = 3162,
# 2.0e7 steps), reduces one product in 0.61 s, 1.7 s with its convolution;
# m = 3167 is refused.  Building Phi_m is no part of the count: it takes
# 2^omega(m) passes of phi(rad m) steps (`cyclotomic_polynomial`).
FIELD_MAX_ENTRIES = 20_000_000


def check_conductor(m: int) -> None:
    """Refuse a conductor whose reduction, of at least m + 1 steps, `_field`
    would refuse, before euler_phi's O(sqrt(m)) trial division runs."""
    if m > FIELD_MAX_ENTRIES:
        raise ValueError(f"conductor {m} needs at least m + 1 = {m + 1} reduction steps "
                         f"modulo Phi_m, above the field limit of {FIELD_MAX_ENTRIES}")


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    check_conductor(m)
    phi = euler_phi(m)
    entries = (max(2 * phi - 2, m) + 1) * phi
    if entries > FIELD_MAX_ENTRIES:
        raise ValueError(f"conductor {m} needs (max(2 phi - 2, m) + 1) phi = {entries} reduction "
                         f"steps modulo Phi_m, above the field limit of {FIELD_MAX_ENTRIES}")
    return _Field(m)


def _reduce(fld: _Field, vec: list[int]) -> list[int]:
    """The coefficient vector `vec` (ascending, at least phi long) modulo
    Phi_m: each x^e with e >= phi, from the top down, is replaced by
    x^(e - phi) times the tail of x^phi.  Works in place."""
    phi, tail = fld.phi, fld.tail
    for e in range(len(vec) - 1, phi - 1, -1):
        c = vec[e]
        if c:
            base = e - phi
            for t, v in tail:
                vec[base + t] += c * v
    del vec[phi:]
    return vec


def _power_sum(m: int, terms, den: int) -> "CyclotomicNumber":
    """The value sum(v * zeta_m^e for e, v in terms) / den."""
    fld = _field(m)
    vec = [0] * m
    for e, v in terms:
        vec[e % m] += v
    return CyclotomicNumber(m, _reduce(fld, vec), den)


def _ratio(c) -> tuple[int, int]:
    """(numerator, positive denominator) of one coordinate, not necessarily
    in lowest terms.  A plain ASCII string [-]digits[/digits] with a nonzero
    denominator is read by `int`; everything else goes through `Fraction`,
    whose grammar and errors it keeps."""
    if type(c) is str and c.isascii():
        num, slash, den = c.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            d = int(den) if slash else 1
            if d:
                return int(num), d
    q = Fraction(c)
    return q.numerator, q.denominator


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
        check_conductor(m)
        pairs = [_ratio(c) for c in coords]
        if len(pairs) != euler_phi(m):  # counted before `_field(m)` builds Phi_m
            raise ValueError(
                f"expected {euler_phi(m)} coordinates for conductor {m}, got {len(pairs)}"
            )
        den = math.lcm(*(d for _, d in pairs))
        return cls(m, [n * (den // d) for n, d in pairs], den)

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
        step = target // self.m
        return _power_sum(target, ((j * step, v) for j, v in enumerate(self.nums)), self.den)

    def in_subfield(self, t: int) -> bool:
        """True when the value lies in Q(zeta_t), for any positive t.

        Q(zeta_t) meets Q(zeta_m) in Q(zeta_g), g = gcd(t, m), the subfield
        fixed by every sigma_k with k = 1 mod g (and `1 % g` is 0 when g = 1).
        """
        if t <= 0:
            raise ValueError("conductor must be positive")
        m, g = self.m, math.gcd(t, self.m)
        return all(self._galois(k) == self for k in range(2, m)
                   if k % g == 1 % g and math.gcd(k, m) == 1)

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
        if self.m == 1 or other.m == 1:
            # a rational factor scales the other's coordinates: the promoted
            # product's convolution, with nothing to reduce
            r, x = (self, other) if self.m == 1 else (other, self)
            return CyclotomicNumber(x.m, [r.nums[0] * v for v in x.nums], r.den * x.den)
        x, y = self._common(other)
        fld = _field(x.m)
        phi = fld.phi
        conv = [0] * (2 * phi - 1)
        xn, yn = x.nums, y.nums
        for i, a in enumerate(xn):
            if a:
                for j, b in enumerate(yn):
                    if b:
                        conv[i + j] += a * b
        return CyclotomicNumber(x.m, _reduce(fld, conv), x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """The inverse C / N, where C is the product of the conjugates
        sigma_k(x) for 1 < k < m prime to m, and N = x * C is the field norm,
        a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        cofactor = CyclotomicNumber.one(self.m)
        for k in range(2, self.m):
            if math.gcd(k, self.m) == 1:
                cofactor = cofactor * self._galois(k)
        norm = (self * cofactor).as_rational()
        if not norm:
            raise ArithmeticError(f"norm of {self!r} is not a nonzero rational")
        return cofactor * (1 / norm)

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
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        return self._galois(-1)

    def _galois(self, k: int) -> "CyclotomicNumber":
        """The automorphism sigma_k: zeta_m -> zeta_m^k, for k prime to m."""
        return _power_sum(self.m, ((j * k, v) for j, v in enumerate(self.nums)), self.den)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y = self._common(other)
        return x.nums == y.nums and x.den == y.den

    def __hash__(self):
        """Hash of the rational Tr(x)/phi(m), which `promote` leaves
        unchanged, so values equal across conductors hash equal (and a
        rational value hashes like its Fraction)."""
        fld = _field(self.m)
        trace = sum(v * t for v, t in zip(self.nums, fld.traces))
        return hash(Fraction(trace, self.den * fld.phi))

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
    return _power_sum(m, ((k, 1),), 1)


def zeta(m: int) -> CyclotomicNumber:
    """The primitive root zeta_m = exp(2*pi*i/m)."""
    return root_of_unity(m, 1)


def unit_circle_check(z: CyclotomicNumber) -> bool:
    """True when |z| = 1, decided exactly via z * conj(z) = 1."""
    return z * z.conjugate() == CyclotomicNumber.one(z.m)
