"""Result checks, run after the timed region.

Two kinds of check apply to every request:

* a digest of the request's mathematical result (verdicts, exact values,
  dimensions, attainers, membership; not the output's byte layout), compared
  at the default seed with the digest recorded in digests.json;
* theorems and exact values the benchmark computes itself with oracle.py, at
  any seed.  Among them: a linear cycle's profile is the coefficient list of
  ((1 - t^(d-1)) / (1 - t))^(n/2+1), every profile is symmetric with
  one-dimensional ends, a linear cycle's tangent value and the scan minimum
  equal C(n/2+d, d) - (n/2+1)^2, and a linear cycle certifies "all rational".
  Pairing values are recomputed from the socle coefficient of the product of
  the two class polynomials.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import oracle as O
from workloads import ClassSpec, Request, count_bounded, reduced_monomials

Poly = dict  # monomial tuple -> group-ring value over Q[C_M]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _poly_canon(obj: dict) -> list:
    return [obj["vars"], obj["m"], sorted((t["exp"], t["coeff"]) for t in obj["terms"])]


def _cert_canon(cert: dict) -> list:
    rows = [[r["pairing"], r["alpha"], r["c"], r["c_rational"], r["flag"]] for r in cert["rows"]]
    return [cert["verdict"], cert.get("counterexample"), rows]


def _bound_canon(rep: dict) -> list:
    basis = [_poly_canon(b) for b in rep.get("j1_basis", [])]
    return [rep["value"], rep["bound_linear"], rep["bound_second"], rep["classification"],
            rep.get("j1_dim"), basis]


def canonical_result(verb: str, payload: dict):
    """The mathematical content of one CLI result, independent of layout."""
    p = payload
    if verb == "certify":
        return _cert_canon(p)
    if verb == "pair":
        return [p["c"], p["c_rational"], p["intersection"], p["intersection_rational"]]
    if verb == "linear-cycle":
        return [p["alpha"], p["pairing"], _poly_canon(p["polynomial"])]
    if verb == "prop11":
        return [p["d"], p["a"], p["direct"], p["scan"], p["cross_ratio"],
                p["cross_ratio_rational"], p["witness"]]
    if verb == "hilbert":
        if "dims" in p:
            return [p["sigma"], p["dims"]]
        return [p["k"], p["dim"], p["kind"], [_poly_canon(b) for b in p["basis"]]]
    if verb == "tangent":
        return _bound_canon(p)
    if verb == "recover":
        return [p["a"], p["c_lambda"], p["pairing"]]
    if verb == "dan-ci":
        return [p["dims"], p["socle"], p["socle_ok"], p["square_member"], _bound_canon(p["tangent"])]
    if verb == "plane":
        return [p["contained"], p.get("socle"), p.get("socle_ok"), len(p.get("quotients", []))]
    if verb == "groebner":
        return [sorted(_poly_canon(b) for b in p["basis"]), p["added"], p["truncated"]]
    if verb == "special":
        return [p["a"], p["c_a"], p["normalization_alpha"], p["j1_dim"], _cert_canon(p["certificate"])]
    if verb == "scan-bounds":
        return [p["n"], p["d"], p["sigma"], p["min"], p["min_attainers_count"], p["second_min"],
                p["second_attainers_count"], p["assertions"], p["min_attainers"],
                p["second_attainers"]]
    raise ValueError(f"no digest rule for {verb}")


def digest(req: Request, code: int, payload: dict | None, stderr: str) -> str:
    body = canonical_result(req.verb, payload) if payload is not None else stderr.strip()
    text = json.dumps([code, body], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Class polynomials and pairings, computed independently
# ---------------------------------------------------------------------------


def _factor_terms(nvars, p, q, d, coeff_of_power):
    """Terms of sum_{j<=d-2} x_p^(d-2-j) x_q^j * coeff_of_power(j)."""
    out = []
    for j in range(d - 1):
        e = [0] * nvars
        e[p] = d - 2 - j
        e[q] = j
        out.append((tuple(e), coeff_of_power(j)))
    return out


def product_poly(nvars, pairing, coeffs, scale, d, m) -> Poly:
    """scale * prod_j sum_q x_p^(d-2-q) (a_j x_q)^q, a_j = coeffs[j]."""
    poly: Poly = {(0,) * nvars: scale}
    for (p, q), a in zip(pairing, coeffs):
        powers = [O.const(1)]
        for _ in range(d - 2):
            powers.append(O.mul(powers[-1], a, m))
        factor = _factor_terms(nvars, p, q, d, lambda j: powers[j])
        nxt: Poly = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor:
                key = tuple(x + y for x, y in zip(e1, e2))
                nxt[key] = O.add(nxt.get(key, {}), O.mul(c1, c2, m), m)
        poly = nxt
    return poly


def default_pairing(n: int):
    return tuple((2 * j, 2 * j + 1) for j in range(n // 2 + 1))


def linear_poly(n, d, alpha, pairing=None) -> Poly:
    pairing = pairing or default_pairing(n)
    return product_poly(n + 2, pairing, [O.root(a) for a in alpha], O.root(sum(alpha)), d, 2 * d)


def class_poly(spec: ClassSpec) -> Poly:
    n, d, m = spec.n, spec.d, 2 * spec.d
    if spec.kind == "linear":
        return linear_poly(n, d, spec.alpha)
    if spec.kind == "product":
        scale = O.literal(*spec.c) if spec.c else O.const(1)
        return product_poly(n + 2, default_pairing(n), [O.literal(*a) for a in spec.a], scale, d, m)
    return {e: {k % m: Fraction(sign)} for e, sign, k in spec.terms}


def socle_coefficient(p: Poly, q: Poly, nvars: int, d: int, m: int) -> dict:
    total: dict = {}
    for e, c in p.items():
        rest = tuple(d - 2 - x for x in e)
        other = q.get(rest)
        if other:
            total = O.add(total, O.mul(c, other, m), m)
    return total


def pairing_c(p: Poly, q: Poly, n: int, d: int, m: int) -> dict:
    """c = socle coefficient / (d(d-1))^(n+2)."""
    s = socle_coefficient(p, q, n + 2, d, m)
    h = Fraction(1, (d * (d - 1)) ** (n + 2))
    return {k: v * h for k, v in s.items()}


def linear_profile(n: int, d: int) -> list[int]:
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^(n/2+1)."""
    return series_product([d - 2] * (n // 2 + 1))


def series_product(tops) -> list[int]:
    """Coefficients of prod (1 + t + ... + t^top)."""
    out = [1]
    for top in tops:
        nxt = [0] * (len(out) + top)
        for i, c in enumerate(out):
            for j in range(top + 1):
                nxt[i + j] += c
        out = nxt
    return out


def bound_linear(n: int, d: int) -> int:
    return math.comb(n // 2 + d, d) - (n // 2 + 1) ** 2


def bound_second(n: int, d: int) -> int:
    return math.comb(n // 2 + d, d) + math.comb(n // 2 + d - 1, d - 1) - (3 * n * n + 18 * n + 16) // 8


def _json_poly(obj: dict) -> tuple[Poly, int]:
    m = obj["m"]
    out = {}
    for t in obj["terms"]:
        out[tuple(t["exp"])] = {j: Fraction(c) for j, c in enumerate(t["coeff"]) if Fraction(c)}
    return out, m


def _polys_equal(a: Poly, ma: int, b: Poly, mb: int) -> bool:
    if set(a) != set(b):
        return False
    return all(O.equal(a[e], ma, b[e], mb) for e in a)


# ---------------------------------------------------------------------------
# Per-verb checks
# ---------------------------------------------------------------------------


class PassContext:
    """Results of earlier requests in the same pass, keyed by class key, so
    later requests on the same class are cross-checked against them."""

    def __init__(self):
        self.profiles: dict[str, list[int]] = {}


def check(req: Request, code: int, payload, stderr: str, ctx: PassContext) -> list[str]:
    """Problems found in one result; an empty list means it passed."""
    if code != req.expect_code:
        return [f"exit code {code}, expected {req.expect_code}: {stderr.strip()[:200]}"]
    if payload is None:
        return ["no JSON result"]
    fn = _CHECKS[req.verb]
    problems: list[str] = []
    try:
        fn(req, payload, ctx, problems)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed result: {type(exc).__name__}: {exc}")
    return problems


def _expect(problems, cond, message):
    if not cond:
        problems.append(message)


def _check_rows(rows, class_p, problems, n, d, scale=None):
    """Every certificate row against the oracle pairing with its cycle."""
    m = 2 * d
    h = n // 2 + 1
    seen = set()
    for row in rows:
        flat = row["pairing"]
        pairing = tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))
        alpha = tuple(row["alpha"])
        seen.add((pairing, alpha))
        _expect(problems, sorted(flat) == list(range(n + 2)) and len(alpha) == h,
                f"bad row {flat} {alpha}")
        expected = pairing_c(class_p, linear_poly(n, d, alpha, pairing), n, d, m)
        mm = m
        if scale is not None:
            mm = math.lcm(m, scale[1])
            expected = O.mul(O.rescale(expected, mm // m), O.rescale(scale[0], mm // scale[1]), mm)
        got, mg = O.from_json(row["c"])
        if not O.equal(expected, mm, got, mg):
            problems.append(f"row {flat} {alpha}: c differs from the oracle pairing")
            continue
        value = O.rational_value(got, mg)
        flag = "zero" if value == 0 else "rational" if value is not None else "irrational"
        _expect(problems, row["flag"] == flag, f"row {alpha}: flag {row['flag']} != {flag}")
        _expect(problems, row["c_rational"] == (None if value is None else str(value)),
                f"row {alpha}: c_rational inconsistent")
    _expect(problems, len(seen) == len(rows), "duplicate certificate rows")


def _check_certificate(cert, class_p, problems, n, d, pairings, scale=None):
    rows = cert["rows"]
    _expect(problems, len(rows) == pairings * d ** (n // 2 + 1),
            f"{len(rows)} rows, expected {pairings * d ** (n // 2 + 1)}")
    _check_rows(rows, class_p, problems, n, d, scale)
    first_bad = next((r for r in rows if r["flag"] == "irrational"), None)
    _expect(problems, cert["verdict"] == ("all rational" if first_bad is None else "counterexample"),
            "verdict inconsistent with rows")
    if first_bad is not None:
        ce = cert.get("counterexample") or {}
        _expect(problems, ce.get("alpha") == first_bad["alpha"] and ce.get("pairing") == first_bad["pairing"],
                "counterexample is not the first irrational row")


def _n_pairings(n: int) -> int:
    return math.prod(range(1, n + 2, 2))


def _certify(req, p, ctx, problems):
    spec = req.classes[0]
    pairings = _n_pairings(req.n) if "--all-pairings" in req.argv else 1
    _check_certificate(p, class_poly(spec), problems, req.n, req.d, pairings)
    if spec.kind == "linear":
        _expect(problems, p["verdict"] == "all rational", "linear cycle not certified all rational")


def _pair(req, p, ctx, problems):
    n, d, m = req.n, req.d, 2 * req.d
    first, second = req.classes
    c = pairing_c(class_poly(first), class_poly(second), n, d, m)
    got, mg = O.from_json(p["c"])
    _expect(problems, O.equal(c, m, got, mg), "pairing c differs from the oracle")
    factor = Fraction(-((d - 1) ** (n + 2)) * d, math.factorial(n // 2) ** 2)
    inter, mi = O.from_json(p["intersection"])
    _expect(problems, O.equal({k: v * factor for k, v in c.items()}, m, inter, mi),
            "intersection differs from factor * c")
    value = O.rational_value(c, m)
    _expect(problems, p["c_rational"] == (None if value is None else str(value)), "c_rational inconsistent")


def _linear_cycle(req, p, ctx, problems):
    spec = req.classes[0]
    _expect(problems, tuple(p["alpha"]) == spec.alpha, "alpha echoed wrongly")
    _expect(problems, p["pairing"] == list(range(req.n + 2)), "pairing is not the default")
    got, mg = _json_poly(p["polynomial"])
    _expect(problems, _polys_equal(linear_poly(req.n, req.d, spec.alpha), 2 * req.d, got, mg),
            "linear-cycle polynomial differs from its product expansion")


def _prop11(req, p, ctx, problems):
    d = req.d
    m = 2 * d
    a = O.literal(*req.extra["a"])
    got, mg = O.from_json(p["a"])
    _expect(problems, O.equal(a, m, got, mg), "coefficient echoed wrongly")
    direct = O.is_zero(O.add(O.power(a, d, m), O.const(1), m), m)
    _expect(problems, p["direct"] == direct, "direct condition a^d + 1 = 0 wrong")
    cross = O.add(O.const(-1), O.add(O.root(2), O.root(m - 2), m), m, sign=-1)
    got, mg = O.from_json(p["cross_ratio"])
    _expect(problems, O.equal(cross, m, got, mg), "cross ratio differs from -1 - (z_d + 1/z_d)")
    _expect(problems, p["cross_ratio_rational"] == (d in (3, 4, 6)), "cross-ratio rationality wrong")
    if p["scan"] and not p["cross_ratio_rational"]:
        _expect(problems, p["direct"], "scan passed without the forced direct condition")
    _expect(problems, (p["witness"] is None) == p["scan"], "witness present iff scan fails")


def _structured(spec: ClassSpec) -> bool:
    return spec.kind in ("linear", "product")


def _annihilates(basis_obj, class_p, d, m) -> bool:
    q, mq = _json_poly(basis_obj)
    mm = math.lcm(m, mq)
    total: dict = {}
    for e1, c1 in q.items():
        c1 = O.rescale(c1, mm // mq)
        for e2, c2 in class_p.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if max(e) <= d - 2:
                total[e] = O.add(total.get(e, {}), O.mul(c1, O.rescale(c2, mm // m), mm), mm)
    return all(O.is_zero(v, mm) for v in total.values())


def _hilbert(req, p, ctx, problems):
    spec = req.classes[0]
    n, d = req.n, req.d
    nvars, sigma, m = n + 2, (d - 2) * (n // 2 + 1), 2 * d
    expected = linear_profile(n, d) if _structured(spec) else ctx.profiles.get(spec.key)
    if "dims" in p:
        dims = p["dims"]
        _expect(problems, p["sigma"] == sigma and len(dims) == sigma + 1, "profile length wrong")
        _expect(problems, dims and dims[0] == 1 and dims[-1] == 1, "profile ends are not 1")
        _expect(problems, dims == dims[::-1], "profile is not symmetric")
        for k, v in enumerate(dims):
            _expect(problems, v <= len(reduced_monomials(nvars, k, d - 2)),
                    f"dim {v} at degree {k} exceeds the Jacobian ring")
        if expected is not None:
            _expect(problems, dims == expected, f"profile {dims} != {expected}")
        ctx.profiles[spec.key] = dims
        return
    k = req.extra["degree"]
    _expect(problems, p["k"] == k and p["kind"] == "ideal", "slice header wrong")
    _expect(problems, p["dim"] == len(p["basis"]), "slice dim != basis size")
    if expected is not None:
        _expect(problems, p["dim"] == math.comb(nvars - 1 + k, k) - expected[k],
                "slice dim disagrees with the profile")
    class_p = class_poly(spec)
    for b in p["basis"][:3]:
        _expect(problems, all(sum(t["exp"]) == k for t in b["terms"]), "basis not homogeneous")
        _expect(problems, _annihilates(b, class_p, d, m), "basis element does not annihilate the class")


def _check_bound_report(rep, n, d, problems):
    lin, sec = bound_linear(n, d), bound_second(n, d)
    _expect(problems, rep["bound_linear"] == lin and rep["bound_second"] == sec, "bound formulas wrong")
    value = rep["value"]
    cls = ("attains-linear-minimum" if value == lin
           else "attains-second-minimum" if value == sec else "above")
    _expect(problems, rep["classification"] == cls, "classification inconsistent with value")


def _tangent(req, p, ctx, problems):
    spec = req.classes[0]
    n, d = req.n, req.d
    _check_bound_report(p, n, d, problems)
    if _structured(spec):
        prof = linear_profile(n, d)
        _expect(problems, p["value"] == (prof[d] if d < len(prof) else 0) == bound_linear(n, d),
                "structured class tangent != C(n/2+d,d) - (n/2+1)^2")
        if n * d >= 2 * n + 6:
            _expect(problems, p.get("j1_dim") == n // 2 + 1, "degree-one slice dimension wrong")
    else:
        prof = ctx.profiles.get(spec.key)
        if prof is not None:
            _expect(problems, p["value"] == (prof[d] if d < len(prof) else 0),
                    "tangent disagrees with the profile of the same class")
        _expect(problems, p["value"] <= len(reduced_monomials(n + 2, d, d - 2)),
                "tangent exceeds the Jacobian ring")


def _recover(req, p, ctx, problems):
    spec = req.classes[0]
    m = 2 * req.d
    _expect(problems, p["pairing"] == list(range(req.n + 2)), "recovered pairing is not the default")
    if spec.kind == "linear":
        a = [O.root(x) for x in spec.alpha]
        c = O.root(sum(spec.alpha))
    else:
        a = [O.literal(*x) for x in spec.a]
        c = O.literal(*spec.c) if spec.c else O.const(1)
    _expect(problems, len(p["a"]) == len(a), "wrong number of coefficients")
    for want, got in zip(a, p["a"]):
        g, mg = O.from_json(got)
        _expect(problems, O.equal(want, m, g, mg), "recovered coefficient wrong")
    g, mg = O.from_json(p["c_lambda"])
    _expect(problems, O.equal(c, m, g, mg), "recovered scale wrong")


def _dan_ci(req, p, ctx, problems):
    n, d = req.n, req.d
    sigma = (d - 2) * (n // 2 + 1)
    # generator degrees 1 (or 2) and d-1 (or d-2): a complete intersection
    tops = []
    for t in req.extra["type"]:
        tops += [t - 1, d - t - 1]
    dims = series_product(tops) + [0]
    _expect(problems, p["dims"] == dims, f"dims {p['dims']} != complete-intersection {dims}")
    _expect(problems, p["socle"] == sigma and p["socle_ok"] is True, "socle check wrong")
    _expect(problems, p["square_member"] is True, "F = sum f_i g_i must lie in the square")
    _check_bound_report(p["tangent"], n, d, problems)
    _expect(problems, p["tangent"]["value"] == dims[d], "tangent value != dims[d]")


def _plane(req, p, ctx, problems):
    n, d = req.n, req.d
    contained = all(k % 2 == 1 for k in req.extra["k"])
    _expect(problems, p["contained"] == contained, "containment verdict wrong")
    if contained:
        _expect(problems, p["socle"] == (d - 2) * (n // 2 + 1) and p["socle_ok"] is True,
                "socle check wrong")
        _expect(problems, len(p["quotients"]) == n // 2 + 1, "wrong cofactor count")


def _groebner(req, p, ctx, problems):
    n, d = req.n, req.d
    nvars, m = n + 2, 2 * d
    # leading terms x_(2j) and x_(2j+1)^(d-1) are pairwise coprime
    _expect(problems, p["added"] == 0, "coprime leading terms need no new basis element")
    _expect(problems, p["truncated"] == (req.extra["cap"] < 2 * (d - 1)), "truncation flag wrong")
    want = []
    for j, (r, k) in enumerate(req.extra["a"]):
        x = [0] * nvars
        x[2 * j] = 1
        y = [0] * nvars
        y[2 * j + 1] = 1
        want.append({tuple(x): O.const(1), tuple(y): {k: -Fraction(r)}})
    for j in range(1, nvars, 2):
        e = [0] * nvars
        e[j] = d - 1
        want.append({tuple(e): O.const(1)})
    got = [_json_poly(b) for b in p["basis"]]
    _expect(problems, len(got) == len(want), "basis size wrong")
    for w in want:
        _expect(problems, any(_polys_equal(w, m, g, mg) for g, mg in got),
                "a monic generator is missing from the basis")


def _special(req, p, ctx, problems):
    n, d, m = req.n, req.d, 8
    h = n // 2 + 1
    units = []
    for x, y, r, turn in req.extra["units"]:
        u = O.add({0: Fraction(x, r)}, {2: Fraction(y, r)}, m)
        u = O.mul(u, O.root(2 * turn), m)
        units.append(O.mul(u, O.root(1), m))
    for want, got in zip(units, p["a"]):
        g, mg = O.from_json(got)
        _expect(problems, O.equal(want, m, g, mg), "family coefficient echoed wrongly")
    unnormalized = product_poly(n + 2, default_pairing(n), units, O.const(1), d, m)
    first = None
    for alpha in itertools.product(range(1, 2 * d, 2), repeat=h):
        c = pairing_c(unnormalized, linear_poly(n, d, alpha), n, d, m)
        if not O.is_zero(c, m):
            first = (alpha, c)
            break
    _expect(problems, first is not None and list(first[0]) == p["normalization_alpha"],
            "normalization cycle wrong")
    scale, ms = O.from_json(p["c_a"])
    if first is not None:
        mm = math.lcm(m, ms)
        prod = O.mul(O.rescale(first[1], mm // m), O.rescale(scale, mm // ms), mm)
        _expect(problems, O.equal(prod, mm, O.const(1), 1), "scale is not the inverse pairing")
    cert = p["certificate"]
    _check_certificate(cert, unnormalized, problems, n, d, 1, scale=(scale, ms))
    _expect(problems, cert["verdict"] == "all rational", "family member not all rational")
    _expect(problems, p["j1_dim"] == h, "degree-one slice dimension wrong")


# The README's enumeration at (2, 5): the orbit of (0,2,2,2) also attains the
# second minimum 2d-7 = 3, so assertion (iii) fails there by design.
_SCAN_KNOWN = {
    (2, 5): {
        "assertions": [True, True, False, True],
        "second_attainers": [{"shape": [0, 1, 2, 3], "count": 24},
                             {"shape": [0, 2, 2, 2], "count": 4}],
    },
}


def _orbit(shape) -> int:
    size = math.factorial(len(shape))
    for v in set(shape):
        size //= math.factorial(list(shape).count(v))
    return size


def _scan(req, p, ctx, problems):
    n, d = req.n, req.d
    h = n // 2 + 1
    sigma = (d - 2) * h
    _expect(problems, (p["n"], p["d"], p["sigma"]) == (n, d, sigma), "scan header wrong")
    _expect(problems, p["min"] == bound_linear(n, d), "minimum != C(n/2+d,d) - (n/2+1)^2")
    linear_shape = sorted([0] * h + [d - 2] * h)
    _expect(problems, p["min_attainers"] == [{"shape": linear_shape, "count": _orbit(linear_shape)}],
            "minimum attainers are not the linear shape")
    _expect(problems, p["min_attainers_count"] == sum(a["count"] for a in p["min_attainers"]),
            "minimum attainer count inconsistent")
    known = _SCAN_KNOWN.get((n, d))
    if known:
        _expect(problems, p["assertions"] == known["assertions"], "assertions differ from README")
        _expect(problems, p["second_attainers"] == known["second_attainers"],
                "second attainers differ from README")
    else:
        _expect(problems, all(a is None or a for a in p["assertions"]), "an assertion failed")
    if d >= 4:
        _expect(problems, p["second_min"] == bound_second(n, d), "second minimum != second bound")
    total = sum(a["count"] for a in p["min_attainers"] + p["second_attainers"])
    _expect(problems, total <= count_bounded(sigma, n + 2, d - 2), "more attainers than vectors")


_CHECKS = {
    "certify": _certify,
    "pair": _pair,
    "linear-cycle": _linear_cycle,
    "prop11": _prop11,
    "hilbert": _hilbert,
    "tangent": _tangent,
    "recover": _recover,
    "dan-ci": _dan_ci,
    "plane": _plane,
    "groebner": _groebner,
    "special": _special,
    "scan-bounds": _scan,
}
