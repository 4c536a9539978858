"""JSON/CSV codecs and the command-line literal grammar.

All exact values travel as strings ("22/7", never floats).  A cyclotomic
number is the pair {"m": conductor, "coords": [rational strings]}; a
polynomial carries a single conductor, with every coefficient promoted to
it, so round trips are bit exact.

The literal grammar accepted for cyclotomic values on the command line:
integers, rationals p/q, the symbols z (the primitive root of the ambient
conductor) and i, the operators + - * / ^ and parentheses; juxtaposition
multiplies, so "3+4i" and "z*(3+4i)/5" mean what they look like.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from fermatcalc.exactnum import CyclotomicNumber, root_of_unity, zeta
from fermatcalc.idealcalc import DegreeSlice, HilbertProfile
from fermatcalc.multipoly import Polynomial, lex_order

__all__ = [
    "frac_str",
    "cyclotomic_to_json",
    "cyclotomic_from_json",
    "polynomial_to_json",
    "polynomial_from_json",
    "polynomials_from_json",
    "declared_fields",
    "decomposition_from_json",
    "slice_to_json",
    "profile_to_json",
    "parse_cyclotomic_expr",
    "literal_conductor",
]


def frac_str(q: Fraction | None) -> str | None:
    if q is None:
        return None
    return str(Fraction(q))


def cyclotomic_to_json(z: CyclotomicNumber) -> dict:
    return {"m": z.m, "coords": [str(c) for c in z.coords]}


def cyclotomic_from_json(obj: dict) -> CyclotomicNumber:
    return CyclotomicNumber.from_coords(obj["m"], obj["coords"])


def polynomial_to_json(p: Polynomial) -> dict:
    conductor = 1
    for c in p.terms.values():
        conductor = math.lcm(conductor, c.m)
    terms = []
    for exps, coeff in p.sorted_terms(lex_order(p.nvars)):
        coeff = coeff.promote(conductor)
        terms.append({"exp": list(exps), "coeff": [str(c) for c in coeff.coords]})
    return {"vars": p.nvars, "m": conductor, "terms": terms}


def polynomial_from_json(obj) -> Polynomial:
    """Inverse of polynomial_to_json; a value of the wrong shape, such as JSON
    true or false where an integer belongs, raises ValueError."""
    if not (isinstance(obj, dict) and type(obj.get("vars")) is int
            and type(obj.get("m")) is int and isinstance(obj.get("terms"), list)):
        raise ValueError('polynomial must be an object with integers "vars", "m" and a list "terms"')
    terms = []
    for t in obj["terms"]:
        if not (isinstance(t, dict) and isinstance(t.get("exp"), list)
                and isinstance(t.get("coeff"), list)
                and all(type(e) is int for e in t["exp"])
                and all(type(c) in (str, int) for c in t["coeff"])):
            raise ValueError(f"malformed polynomial term {t!r}")
        terms.append((tuple(t["exp"]), CyclotomicNumber.from_coords(obj["m"], t["coeff"])))
    return Polynomial(obj["vars"], terms)


def declared_fields(polys) -> list[tuple[int, int]]:
    """(m, number of terms) of each entry of a JSON polynomial list that has the
    shape `polynomial_from_json` reads; it parses the terms over Q(zeta_m)."""
    if not isinstance(polys, list):
        return []
    return [(p["m"], len(p["terms"])) for p in polys
            if isinstance(p, dict) and type(p.get("m")) is int and p["m"] > 0
            and isinstance(p.get("terms"), list)]


def polynomials_from_json(obj) -> list[Polynomial]:
    """A JSON list of polynomials; a value of the wrong shape raises ValueError."""
    if not isinstance(obj, list):
        raise ValueError("expected a list of polynomials")
    return [polynomial_from_json(o) for o in obj]


def decomposition_from_json(obj) -> tuple[list[Polynomial], list[Polynomial]]:
    """The factor lists of {"f": [...], "g": [...]}; a value of the wrong
    shape raises ValueError naming what is missing."""
    if not isinstance(obj, dict):
        raise ValueError('decomposition must be an object with lists "f" and "g"')
    for key in ("f", "g"):
        if key not in obj:
            raise ValueError(f'decomposition is missing the key "{key}"')
    return polynomials_from_json(obj["f"]), polynomials_from_json(obj["g"])


def slice_to_json(s: DegreeSlice) -> dict:
    return {
        "k": s.degree,
        "dim": s.dim,
        "kind": "ideal",
        "basis": [polynomial_to_json(b) for b in s.basis],
    }


def profile_to_json(p: HilbertProfile) -> dict:
    return {"sigma": p.sigma, "dims": list(p.dims)}


# ---------------------------------------------------------------------------
# Cyclotomic literal parser
# ---------------------------------------------------------------------------


@functools.cache
def _least_with_more_digits(digits: int) -> int:
    return 10**digits


class _Parser:
    def __init__(self, text: str, conductor: int):
        self.text = text
        self.pos = 0
        self.conductor = conductor

    def error(self, message: str):
        raise ValueError(f"parse error at position {self.pos}: {message}")

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expr(self) -> CyclotomicNumber:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> CyclotomicNumber:
        value = self.unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.unary()
            elif ch == "/":
                self.pos += 1
                value = value / self.unary()
            elif ch is not None and (ch.isdigit() or ch in "iz("):
                value = value * self.unary()  # juxtaposition
            else:
                return value

    def unary(self) -> CyclotomicNumber:
        if self.peek() == "-":
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self) -> CyclotomicNumber:
        """base^k by exactly the products of `CyclotomicNumber.__pow__`,
        refused once a numerator or denominator it keeps has more digits than
        an int may print (`sys.get_int_max_str_digits()`); z^k and i^k stay
        small for every k."""
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        negative = self.peek() == "-"
        if negative:
            self.pos += 1
        exponent = self.integer()
        result = CyclotomicNumber.one(base.m)
        if negative and exponent:
            base = base.inverse()
        while exponent:
            if exponent & 1:
                result = self.printable(result * base)
            exponent >>= 1
            if exponent:
                base = self.printable(base * base)
        return result

    def printable(self, x: CyclotomicNumber) -> CyclotomicNumber:
        digits = sys.get_int_max_str_digits()
        if digits and max(x.den, *map(abs, x.nums)) >= _least_with_more_digits(digits):
            self.error(f"power has more than {digits} digits")
        return x

    def integer(self) -> int:
        ch = self.peek()
        if ch is None or not ch.isdigit():
            self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def atom(self) -> CyclotomicNumber:
        ch = self.peek()
        if ch is None:
            self.error("unexpected end of input")
        if ch.isdigit():
            return CyclotomicNumber.from_rational(self.integer())
        if ch == "i":
            self.pos += 1
            return root_of_unity(4, 1)
        if ch == "z":
            self.pos += 1
            return zeta(self.conductor)
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        self.error(f"unexpected character {ch!r}")


def literal_conductor(text: str, conductor: int) -> int:
    """The conductor `parse_cyclotomic_expr(text, conductor)` builds its field
    at: z is zeta_conductor and i is zeta_4."""
    return math.lcm(conductor if "z" in text else 1, 4 if "i" in text else 1)


def parse_cyclotomic_expr(text: str, conductor: int) -> CyclotomicNumber:
    """Parse an exact cyclotomic literal; z denotes zeta_conductor."""
    parser = _Parser(text, conductor)
    value = parser.expr()
    if parser.peek() is not None:
        parser.error("trailing input")
    return value
