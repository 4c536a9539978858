"""Sparse multivariate polynomials over cyclotomic fields.

Monomials are plain exponent tuples of a fixed length (one slot per
variable).  A polynomial keeps a map from exponent tuple to a nonzero
`CyclotomicNumber` coefficient; homogeneity is checked by the operations
that need it rather than enforced on the type.

The only monomial orders provided are lexicographic orders induced by a
priority listing of the variables (greatest variable first), which is all
the degree-slice machinery in this package requires.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from operator import add

from fermatcalc.exactnum import CyclotomicNumber
from fermatcalc.record import Record

Monomial = tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_of_degree(nvars: int, degree: int, cap: int | None = None) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, optionally bounded by
    `cap` in every slot.  Yielded in descending lexicographic order."""
    if degree < 0:
        return
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    top = degree if cap is None else min(degree, cap)
    for e in range(top, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e, cap):
            yield (e,) + rest


def count_monomials(nvars: int, degree: int) -> int:
    """dim of the full degree slice of a polynomial ring in nvars variables
    (the number of tuples `monomials_of_degree` yields)."""
    if degree < 0 or nvars == 0:
        return int(degree == 0)
    return math.comb(nvars - 1 + degree, degree)


def count_capped_monomials(nvars: int, degree: int, cap: int) -> int:
    """Number of tuples `monomials_of_degree(nvars, degree, cap)` yields,
    counted by inclusion-exclusion over the j <= degree/(cap+1) slots above
    the cap instead of listed.  The Hilbert function of k[y_0, y_1, y_2]/(y_j^4):

    >>> [count_capped_monomials(3, k, 3) for k in range(10)]
    [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]
    """
    return sum(
        (-1) ** j * math.comb(nvars, j) * count_monomials(nvars, degree - j * (cap + 1))
        for j in range(min(nvars, degree // (cap + 1)) + 1)
    )


class MonomialOrder(Record):
    """Lexicographic order determined by a variable priority list.

    `priority[0]` is the greatest variable.  Monomials compare by their
    exponent vectors read in priority order.
    """

    priority: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of the variable indices")

    def key(self, exps: Monomial):
        return tuple(exps[v] for v in self.priority)

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def sort_descending(self, monomials: Iterable[Monomial]) -> list[Monomial]:
        return sorted(monomials, key=self.key, reverse=True)


def lex_order(nvars: int) -> MonomialOrder:
    """The default order x_0 > x_1 > ... > x_{nvars-1}."""
    return MonomialOrder(tuple(range(nvars)))


def pair_leader_order(nvars: int) -> MonomialOrder:
    """Lex order ranking every even-indexed variable above all odd-indexed
    ones: x_0 > x_2 > ... > x_1 > x_3 > ...  This is the order under which
    paired binomial systems are in echelon position."""
    return MonomialOrder(tuple(range(0, nvars, 2)) + tuple(range(1, nvars, 2)))


def minimal_generators(
    degrees: Iterable[Iterable[Monomial]], order: MonomialOrder
) -> list[list[Monomial]]:
    """Minimal generators of a monomial ideal given by its monomials degree
    by degree, in increasing degree: per degree, the monomials divisible by
    no generator of a lower degree, in descending order.

    >>> minimal_generators([[], [(1, 1)], [(2, 1), (0, 3)]], lex_order(2))
    [[], [(1, 1)], [(0, 3)]]
    """
    gens: list[list[Monomial]] = []
    for current in degrees:
        fresh = [
            m
            for m in current
            if not any(monomial_divides(g, m) for degree in gens for g in degree)
        ]
        gens.append(sorted(fresh, key=order.key, reverse=True))
    return gens


_coerce_scalar = CyclotomicNumber._coerce


class Polynomial:
    """Immutable sparse polynomial with CyclotomicNumber coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        data: dict[Monomial, CyclotomicNumber] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            c = _coerce_scalar(coeff)
            if c is None:
                raise TypeError(f"bad coefficient {coeff!r}")
            if exps in data:
                c = data[exps] + c
            if c:
                data[exps] = c
            elif exps in data:
                del data[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.nvars, tuple(self.terms.items())))

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, exps: Monomial, coeff=1) -> "Polynomial":
        return cls(nvars, [(tuple(exps), coeff)])

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, [(tuple(exps), 1)])

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, [((0,) * nvars, value)])

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, exps: Monomial) -> CyclotomicNumber:
        return self.terms.get(tuple(exps), CyclotomicNumber.zero())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if inhomogeneous or zero."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def sorted_terms(self, order: MonomialOrder | None = None):
        order = order or lex_order(self.nvars)
        return [(m, self.terms[m]) for m in order.sort_descending(self.terms)]

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        data = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = data.get(exps)
            c = coeff if cur is None else cur + coeff
            if c:
                data[exps] = c
            elif exps in data:
                del data[exps]
        return self._raw(self.nvars, data)

    def __neg__(self):
        return self._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is not None:
            return self.scale(scalar)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        # Zero partial sums stay until the end, so every coefficient keeps
        # the lcm of the conductors of all the term pairs reaching it.
        data: dict[Monomial, CyclotomicNumber] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                c = c1 * c2
                cur = data.get(key)
                data[key] = c if cur is None else cur + c
        return self._raw(self.nvars, {e: c for e, c in data.items() if c})

    def __rmul__(self, other):
        scalar = _coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self.scale(scalar)

    def scale(self, value) -> "Polynomial":
        c = _coerce_scalar(value)
        if c is None:
            raise TypeError(f"bad scalar {value!r}")
        if not c:
            return Polynomial.zero(self.nvars)
        return self._raw(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    @classmethod
    def _raw(cls, nvars: int, data: dict) -> "Polynomial":
        poly = cls.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", data)
        return poly

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars or len(self.terms) != len(other.terms):
            return False
        for exps, coeff in self.terms.items():
            c = other.terms.get(exps)
            if c is None or c != coeff:
                return False
        return True

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
            )
            c = str(coeff)
            if c == "1" and mono:
                text = mono
            elif c == "-1" and mono:
                text = f"-{mono}"
            elif mono:
                c = f"({c})" if ("+" in c[1:] or "-" in c[1:] or "/" in c) else c
                text = f"{c}*{mono}"
            else:
                text = c
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {str(self)!r})"


def geometric_factor(nvars: int, i: int, j: int, a, d: int) -> Polynomial:
    """The degree d-2 factor sum_{p+q=d-2} x_i^p a^q x_j^q.

    Multiplying it by (x_i - a*x_j) telescopes to x_i^(d-1) - (a*x_j)^(d-1).
    """
    if i == j:
        raise ValueError("geometric factor needs two distinct variables")
    if d < 2:
        raise ValueError("degree parameter must be at least 2")
    a = _coerce_scalar(a)
    if a is None:
        raise TypeError("bad coefficient for geometric factor")
    terms = []
    power = CyclotomicNumber.one()
    for q in range(d - 1):
        exps = [0] * nvars
        exps[i] = d - 2 - q
        exps[j] = q
        if power:
            terms.append((tuple(exps), power))
        power = power * a
    return Polynomial(nvars, terms)


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Monomial, CyclotomicNumber]:
    """The order-maximal monomial of f with its coefficient."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    m = order.max(f.terms)
    return m, f.terms[m]


def divide(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * g_i) + r and no
    monomial of r divisible by any divisor's leading term.  Divisor
    selection is first match in list order.
    """
    if any(g.is_zero() for g in divisors):
        raise ValueError("zero divisor")
    nvars = f.nvars
    lts = [leading_term(g, order) for g in divisors]
    quots = [dict() for _ in divisors]
    rem: dict[Monomial, CyclotomicNumber] = {}
    work = dict(f.terms)
    while work:
        m = order.max(work)
        c = work.pop(m)
        for idx, (lt, lc) in enumerate(lts):
            if monomial_divides(lt, m):
                shift = monomial_div(m, lt)
                factor = c / lc
                q = quots[idx]
                cur = q.get(shift)
                nc = factor if cur is None else cur + factor
                if nc:
                    q[shift] = nc
                elif shift in q:
                    del q[shift]
                for e2, c2 in divisors[idx].terms.items():
                    if e2 == lt:
                        continue
                    key = monomial_mul(shift, e2)
                    sub = factor * c2
                    cur = work.get(key)
                    nc = -sub if cur is None else cur - sub
                    if nc:
                        work[key] = nc
                    elif key in work:
                        del work[key]
                break
        else:
            rem[m] = c
    return (
        [Polynomial(nvars, q) for q in quots],
        Polynomial(nvars, rem),
    )
