"""Seeded request lists for the four benchmark workloads.

A workload is a closed loop with one client.  Its request list is cut into
passes; every pass has the same template (verb, (n, d), term count and
`--jobs` per slot), and the seed draws only the content: linear-cycle
exponents, product-class coefficients, dense-class coefficients and, for the
scan, the order of the requests.  Two seeds therefore differ in content but
not in size.

Pass k of a run uses content index k mod PERIOD, so a run of up to PERIOD
passes never repeats a class, and a cache that spans requests only helps
where a pass reuses a class on purpose (the `colon` workload does, and the
benchmark reports that share).  Scan requests carry no content: the seed
only orders them.

Dense classes keep a fixed monomial support per slot and draw their
coefficients from the seed.  The support sets the elimination cost (about
30% spread between supports at (4, 4), against 5% between coefficient draws
on one support), so fixing it keeps a run's time independent of the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import power_basis

WORKLOADS = ("certify", "colon", "ideals", "scan")
DEFAULT_SEED = 0
PERIOD = 8
DENSE_TERMS = 40

# Product-class, prop11 and groebner coefficients are r * zeta_2d^k with r
# from this pool; every value is nonzero.
RATIONALS = ("1", "-1", "2", "-2", "3/2", "-2/3", "1/2", "3")


@dataclass
class ClassSpec:
    """A class polynomial as the generator built it.

    kind is "linear" (exponents alpha), "product" (coefficient literals a and
    scale c, each a (rational, zeta power) pair) or "dense" (explicit terms).
    """

    kind: str
    n: int
    d: int
    alpha: tuple[int, ...] = ()
    a: tuple[tuple[str, int], ...] = ()
    c: tuple[str, int] | None = None
    terms: tuple[tuple[tuple[int, ...], int, int], ...] = ()  # (exp, sign, zeta power)
    key: str = ""

    def flags(self, suffix: str = "") -> list[str]:
        if self.kind == "linear":
            return [f"--alpha{suffix}", ",".join(map(str, self.alpha))]
        if self.kind == "product":
            out = [f"--a{suffix}", ",".join(literal(r, k) for r, k in self.a)]
            if self.c is not None:
                out += [f"--c-lambda{suffix}", literal(*self.c)]
            return out
        raise ValueError("dense classes travel as --poly files")


@dataclass
class Request:
    workload: str
    slot: int
    verb: str
    n: int
    d: int
    argv: list[str]
    expect_code: int = 0
    jobs: int = 1
    classes: tuple[ClassSpec, ...] = ()
    extra: dict = field(default_factory=dict)
    poly_file: str | None = None  # relative name of a dense class file

    def resolved_argv(self, workdir: Path) -> list[str]:
        if self.poly_file is None:
            return list(self.argv)
        return [str(workdir / a) if a == self.poly_file else a for a in self.argv]


def literal(r: str, k: int) -> str:
    """CLI literal for r * z^k."""
    if k == 0:
        return r
    power = "z" if k == 1 else f"z^{k}"
    if r == "1":
        return power
    if r == "-1":
        return "-" + power
    return f"{r}*{power}"


def reduced_monomials(nvars: int, degree: int, cap: int) -> list[tuple[int, ...]]:
    """Monomials of the given degree with every exponent <= cap, in
    descending lexicographic order."""
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            if left <= cap:
                out.append(prefix + (left,))
            return
        for e in range(min(cap, left), -1, -1):
            rec(prefix + (e,), left - e, slots - 1)

    rec((), degree, nvars)
    return out


class _Gen:
    """Draws content for one pass of one workload."""

    def __init__(self, workload: str, seed: int, content: int):
        self.rng = random.Random(f"{workload}:{seed}:{content}")
        self.workload = workload
        self.content = content
        self.requests: list[Request] = []
        self.class_count = 0

    def coeff(self, d: int) -> tuple[str, int]:
        return self.rng.choice(RATIONALS), self.rng.randrange(2 * d)

    def linear(self, n: int, d: int) -> ClassSpec:
        alpha = tuple(self.rng.randrange(1, 2 * d, 2) for _ in range(n // 2 + 1))
        return self._keyed(ClassSpec("linear", n, d, alpha=alpha))

    def product(self, n: int, d: int) -> ClassSpec:
        a = tuple(self.coeff(d) for _ in range(n // 2 + 1))
        c = self.coeff(d)
        return self._keyed(ClassSpec("product", n, d, a=a, c=c))

    def dense(self, n: int, d: int, slot: int) -> ClassSpec:
        nvars = n + 2
        sigma = (d - 2) * (n // 2 + 1)
        pool = reduced_monomials(nvars, sigma, d - 2)
        support = random.Random(f"support:{n}:{d}:{self.content}:{slot}").sample(
            pool, DENSE_TERMS
        )
        terms = tuple(
            (e, self.rng.choice((1, -1)), self.rng.randrange(2 * d)) for e in support
        )
        return self._keyed(ClassSpec("dense", n, d, terms=terms))

    def _keyed(self, spec: ClassSpec) -> ClassSpec:
        spec.key = f"{self.workload}.{self.content}.c{self.class_count}"
        self.class_count += 1
        return spec

    def add(self, verb, n, d, args, classes=(), jobs=1, expect_code=0, extra=None):
        argv = [verb] + (["--n", str(n)] if n else []) + ["--d", str(d)] + list(args)
        poly_file = None
        if classes and classes[0].kind == "dense":
            poly_file = f"{classes[0].key}.json"
            argv += ["--poly", poly_file]
        elif classes and verb != "pair":
            argv += classes[0].flags()
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        # a value that starts with "-" must be attached to its flag
        for i in range(len(argv) - 1, 0, -1):
            if argv[i].startswith("-") and not argv[i].startswith("--") and argv[i - 1].startswith("--"):
                argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        self.requests.append(
            Request(
                workload=self.workload,
                slot=len(self.requests),
                verb=verb,
                n=n,
                d=d,
                argv=argv,
                expect_code=expect_code,
                jobs=jobs,
                classes=tuple(classes),
                extra=dict(extra or {}),
                poly_file=poly_file,
            )
        )


def _certify(g: _Gen):
    # The two largest certificates run serially: a --jobs 2 request also
    # times the second core, whose speed the host probe does not see, and a
    # large one would carry that noise into wall_s.
    g.add("certify", 4, 5, [], [g.linear(4, 5)])
    g.add("certify", 2, 9, [], [g.product(2, 9)])
    g.add("certify", 2, 7, [], [g.linear(2, 7)])
    # five (4,4) certificates of similar cost hold p75; the Pool runs here
    g.add("certify", 4, 4, [], [g.linear(4, 4)])
    g.add("certify", 4, 4, [], [g.linear(4, 4)], jobs=2)
    g.add("certify", 4, 4, [], [g.product(4, 4)], jobs=2)
    g.add("certify", 4, 4, [], [g.product(4, 4)], jobs=2)
    g.add("certify", 4, 4, [], [g.product(4, 4)])
    g.add("certify", 2, 7, ["--all-pairings"], [g.linear(2, 7)])
    g.add("certify", 2, 5, ["--all-pairings"], [g.linear(2, 5)])
    g.add("certify", 2, 5, ["--all-pairings"], [g.product(2, 5)])
    # the six pairs cost the same, so the median request falls among them
    make = {"l": g.linear, "p": g.product}
    for kinds in ("ll", "lp", "pp", "pl", "ll", "pp"):
        first, second = make[kinds[0]](4, 5), make[kinds[1]](4, 5)
        g.add("pair", 4, 5, first.flags() + second.flags("2"), [first, second])
    for n, d in ((2, 7), (4, 5), (2, 9), (4, 4)):
        g.add("linear-cycle", n, d, [], [g.linear(n, d)])
    for d in (5, 7, 4, 6, 9, 3):
        r, k = g.coeff(d)
        g.add("prop11", 0, d, ["--a", literal(r, k)], extra={"a": (r, k)})


def _colon(g: _Gen):
    # Cost groups, cheapest first: twelve requests under 0.05 s, seven
    # (4,5) slices and tangents around 0.07 s that hold the median, three
    # around 0.15 s, nine full profiles around 0.35 s that hold p75, and the
    # two largest profiles.
    dense27 = g.dense(2, 7, 0)
    g.add("hilbert", 2, 7, [], [dense27])
    g.add("tangent", 2, 7, [], [dense27])
    g.add("hilbert", 2, 7, ["--degree", "8"], [dense27], extra={"degree": 8})
    dense44a, dense44b = g.dense(4, 4, 1), g.dense(4, 4, 2)
    g.add("hilbert", 4, 4, [], [dense44a])
    g.add("tangent", 4, 4, [], [dense44a])
    g.add("hilbert", 4, 4, [], [dense44b])
    g.add("hilbert", 4, 4, ["--degree", "2"], [dense44b], extra={"degree": 2})
    for n, d in ((2, 9), (4, 5)):
        lin, prod = g.linear(n, d), g.product(n, d)
        g.add("hilbert", n, d, [], [lin])
        g.add("tangent", n, d, [], [lin])
        g.add("hilbert", n, d, [], [prod])
        g.add("tangent", n, d, [], [prod])
        g.add("recover", n, d, [], [prod])
        g.add("hilbert", n, d, ["--degree", "1"], [g.product(n, d)], extra={"degree": 1})
        g.add("recover", n, d, [], [g.linear(n, d)])
        g.add("hilbert", n, d, ["--degree", "2"], [g.linear(n, d)], extra={"degree": 2})
        g.add("hilbert", n, d, [], [g.linear(n, d)])
    prod = g.product(2, 9)
    g.add("hilbert", 2, 9, [], [prod])
    g.add("tangent", 2, 9, [], [prod])
    g.add("recover", 2, 9, [], [prod])
    g.add("hilbert", 2, 9, ["--degree", "1"], [g.linear(2, 9)], extra={"degree": 1})
    g.add("hilbert", 2, 9, ["--degree", "2"], [g.product(2, 9)], extra={"degree": 2})
    lin = g.linear(6, 4)
    g.add("hilbert", 6, 4, [], [lin])
    g.add("tangent", 6, 4, [], [lin])
    g.add("recover", 6, 4, [], [g.product(6, 4)])


def _odd_powers(g: _Gen, d: int, count: int, distinct: bool = False) -> list[int]:
    odd = list(range(1, 2 * d, 2))
    if distinct:
        return g.rng.sample(odd, count)
    return [g.rng.choice(odd) for _ in range(count)]


def _ideals(g: _Gen):
    points = ((2, 5), (2, 7), (4, 4), (4, 5))
    for n, d in points + points[:1]:
        h = n // 2 + 1
        ks = _odd_powers(g, d, h)
        g.add("dan-ci", n, d, ["--type", ",".join(["1"] * h),
                               "--a", ",".join(literal("1", k) for k in ks)],
              extra={"type": (1,) * h, "k": ks})
    # two more at (2,5), so the median request falls among five of similar cost
    for n, d in points[:3] + points[:1]:
        h = n // 2 + 1
        ks = _odd_powers(g, d, h - 1) + _odd_powers(g, d, 2, distinct=True)
        g.add("dan-ci", n, d, ["--type", ",".join(["1"] * (h - 1) + ["2"]),
                               "--a", ",".join(literal("1", k) for k in ks)],
              extra={"type": (1,) * (h - 1) + (2,), "k": ks})
    for n, d in points:
        h = n // 2 + 1
        # one plane on the hypersurface (odd powers), one off it (an even power)
        ks = _odd_powers(g, d, h)
        g.add("plane", n, d, ["--a", ",".join(literal("1", k) for k in ks)], extra={"k": ks})
        ks = _odd_powers(g, d, h)
        ks[g.rng.randrange(h)] = g.rng.randrange(0, 2 * d, 2)
        g.add("plane", n, d, ["--a", ",".join(literal("1", k) for k in ks)], extra={"k": ks})
    for n, d, cap in ((2, 5, None), (2, 7, None), (4, 4, None), (4, 5, None), (2, 7, 6), (4, 5, 4)):
        a = [g.coeff(d) for _ in range(n // 2 + 1)]
        args = ["--a", ",".join(literal(r, k) for r, k in a)]
        if cap is not None:
            args += ["--cap", str(cap)]
        g.add("groebner", n, d, args, extra={"a": a, "cap": cap if cap is not None else 2 * (d - 1)})
    for _ in range(2):
        units = [_special_unit(g) for _ in range(3)]
        g.add("special", 4, 4, ["--a", ",".join(u[0] for u in units)],
              extra={"units": [u[1] for u in units]})


# Pythagorean triples give elements (x + y i) / r of Q(i) on the unit circle;
# the degree-4 unit family multiplies them by zeta_8.
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (1, 0, 1))


def _special_unit(g: _Gen) -> tuple[str, tuple[int, int, int, int]]:
    """(CLI literal, (x, y, r, t)) for zeta_8 * (x + y i) / r * i^t."""
    x, y, r = g.rng.choice(_TRIPLES)
    if g.rng.random() < 0.5:
        x, y = y, x
    x *= g.rng.choice((1, -1))
    y *= g.rng.choice((1, -1))
    turn = g.rng.randrange(4)  # extra factor i^turn
    body = f"({x}{'+' if y >= 0 else '-'}{abs(y)}i)/{r}"
    text = f"z*{body}" + ("" if turn == 0 else "*i" if turn == 1 else f"*i^{turn}")
    return text, (x, y, r, turn)


# (n, d, jobs).  Cost groups: seven scans under 0.06 s, four (4,5) scans
# that hold the median, five --jobs 2 scans near 0.25 s that hold p75, and
# four larger ones, serial so that the second core's speed, which the host
# probe does not see, stays a small share of wall_s.
SCAN_POINTS = (
    (2, 5, 1), (2, 6, 1), (2, 7, 1), (2, 8, 1), (2, 9, 1), (2, 5, 2), (4, 4, 1),
    (4, 5, 1), (4, 5, 1), (4, 5, 1), (4, 5, 1),
    (6, 4, 2), (6, 4, 2), (6, 4, 2), (4, 6, 2), (4, 6, 2),
    (6, 4, 1), (4, 6, 1), (4, 7, 1), (6, 5, 1),
)


def _scan(g: _Gen):
    points = list(SCAN_POINTS)
    g.rng.shuffle(points)
    for n, d, jobs in points:
        g.add("scan-bounds", n, d, [], jobs=jobs, expect_code=1 if (n, d) == (2, 5) else 0)


_BUILDERS = {"certify": _certify, "colon": _colon, "ideals": _ideals, "scan": _scan}


def build_pass(workload: str, seed: int, content: int) -> list[Request]:
    """The request list of one pass: fixed template, seeded content."""
    g = _Gen(workload, seed, content % PERIOD)
    _BUILDERS[workload](g)
    return g.requests


def dense_json(spec: ClassSpec) -> dict:
    """The --poly file of a dense class: sum of sign * zeta_2d^k * x^e."""
    m = 2 * spec.d
    terms = []
    for exp, sign, k in spec.terms:
        coords = power_basis({k % m: sign}, m)
        terms.append({"exp": list(exp), "coeff": [str(c) for c in coords]})
    return {"vars": spec.n + 2, "m": m, "terms": terms}


def write_poly_files(requests, workdir: Path) -> int:
    """Write the --poly files a request list needs; returns the file count."""
    written = set()
    for req in requests:
        if req.poly_file and req.poly_file not in written:
            (workdir / req.poly_file).write_text(
                json.dumps(dense_json(req.classes[0])), encoding="utf-8"
            )
            written.add(req.poly_file)
    return len(written)


def profile(requests) -> dict:
    """Size profile of a request list: count, verb mix, (n, d) mix, jobs mix
    and the share of requests whose class an earlier request already used."""
    verbs: dict[str, int] = {}
    points: dict[str, int] = {}
    seen: set[str] = set()
    repeated = 0
    for req in requests:
        verbs[req.verb] = verbs.get(req.verb, 0) + 1
        key = f"({req.n},{req.d})" if req.n else f"(d={req.d})"
        points[key] = points.get(key, 0) + 1
        keys = [c.key for c in req.classes]
        if keys and any(k in seen for k in keys):
            repeated += 1
        seen.update(keys)
    return {
        "requests": len(requests),
        "verbs": dict(sorted(verbs.items())),
        "points": dict(sorted(points.items())),
        "jobs2": sum(1 for r in requests if r.jobs > 1),
        "repeated_class_share": repeated / len(requests) if requests else 0.0,
    }


def size_signature(requests) -> list[tuple]:
    """What the seed must not change: verb, (n, d), jobs, flags used, class
    kinds and dense term counts, in pass order (the scan's order is seeded,
    so its signature is sorted)."""
    sig = []
    for req in requests:
        flags = tuple(a.split("=")[0] for a in req.argv if a.startswith("--"))
        kinds = tuple((c.kind, len(c.terms)) for c in req.classes)
        sig.append((req.verb, req.n, req.d, req.jobs, flags, kinds))
    if requests and requests[0].workload == "scan":
        sig.sort()
    return sig


def all_points(requests) -> list[tuple[int, int]]:
    return sorted({(r.n, r.d) for r in requests if r.n})


def count_bounded(total: int, parts: int, cap: int) -> int:
    """Number of exponent vectors with `parts` entries in 0..cap summing to
    `total` (inclusion-exclusion)."""
    out = 0
    for j in range(parts + 1):
        rest = total - j * (cap + 1)
        if rest < 0:
            break
        out += (-1) ** j * math.comb(parts, j) * math.comb(rest + parts - 1, parts - 1)
    return out


def count_sorted_bounded(total: int, parts: int, cap: int) -> int:
    """Number of nondecreasing such vectors (distinct exponent multisets)."""
    return sum(
        1
        for v in itertools.combinations_with_replacement(range(cap + 1), parts)
        if sum(v) == total
    )
