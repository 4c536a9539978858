"""Outside-in tracing of fermatcalc for the benchmark's traced run.

The tracer replaces public entry points of each module with timing wrappers,
in place on the module or class where each caller looks the name up, and
restores them afterwards; nothing under src/ changes.  A wrapped call opens a
span (name, start, end, parent, request id).  A span's self time is its
duration minus the time its child wrappers cover, including their own
bookkeeping, so tracing cost lands in no layer.

The hottest calls (CyclotomicNumber arithmetic, count_divisors and the small
serializers) are leaves: they open no span but add a call count and time to
their parent span, and only the outermost leaf of a nest is counted.  That
keeps the trace bounded.

Pool workers forked by `--jobs 2` requests inherit the wrappers.  Each worker
chunk writes its counters to a file, and the parent merges them into the
request that started the pool, so layer counts do not depend on `--jobs`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from workloads import count_bounded, count_sorted_bounded

perf = time.perf_counter


class Span:
    __slots__ = ("sid", "parent", "name", "rid", "child", "leaves")

    def __init__(self, sid, parent, name, rid):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.rid = rid
        self.child = 0.0
        self.leaves: dict[str, list] = {}


class Tracer:
    def __init__(self, pool_dir: Path):
        self.pid = os.getpid()
        self.pool_dir = pool_dir
        self.records: list[tuple] = []
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._next_sid = 1
        self._chunk_seq = 0
        self.rid = None
        self.in_leaf = False
        self.stack = [Span(0, None, "idle", None)]
        self.reset()

    # -- aggregates -----------------------------------------------------------

    def reset(self):
        """Clear the per-pass aggregates."""
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.leaf: dict[str, list] = {}
        self.colon_seen: set = set()

    def count(self, name: str, value: int = 1):
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> Span:
        span = Span(self._next_sid, self.stack[-1].sid, name, self.rid)
        self._next_sid += 1
        self.stack.append(span)
        return span

    def _close(self, span: Span, t0: float, t1: float):
        self.stack.pop()
        own = (t1 - t0) - span.child
        self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own
        for key, (calls, secs) in span.leaves.items():
            acc = self.leaf.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        if os.getpid() == self.pid:
            self.records.append(
                (span.rid, span.sid, span.parent, span.name, t0, t1, own, span.leaves or None)
            )

    def request(self, rid, fn, *args):
        """Run one request under a root span named "cli"."""
        self.rid = rid
        span = self._open("cli")
        t0 = perf()
        try:
            return fn(*args)
        finally:
            self._close(span, t0, perf())
            self.rid = None
            self.merge_pool_files()

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, fn, name, pre=None, post=None):
        """Time fn as span `name`.  pre(tracer, args, kwargs) runs first and
        may return False to run the call without a span; post(tracer,
        result, args, kwargs) runs after a successful call."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.in_leaf:
                return fn(*args, **kwargs)
            tb0 = perf()
            parent = tr.stack[-1]
            if pre is not None and pre(tr, args, kwargs) is False:
                return fn(*args, **kwargs)
            span = tr._open(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr._close(span, t0, perf())
                parent.child += perf() - tb0
                raise
            tr._close(span, t0, perf())
            if post is not None:
                post(tr, result, args, kwargs)
            parent.child += perf() - tb0
            return result

        return wrapper

    def leaf_wrapper(self, fn, key, by_conductor=False):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tr.in_leaf:
                return fn(*args)
            tr.in_leaf = True
            t0 = perf()
            try:
                result = fn(*args)
            finally:
                t1 = perf()
                tr.in_leaf = False
            leaves = tr.stack[-1].leaves
            acc = leaves.get(key)
            if acc is None:
                acc = leaves[key] = [0, 0.0]
            acc[0] += 1
            acc[1] += t1 - t0
            if by_conductor and result is not NotImplemented:
                sub = f"{key}.m{result.m}"
                acc = leaves.get(sub)
                if acc is None:
                    acc = leaves[sub] = [0, 0.0]
                acc[0] += 1
                acc[1] += t1 - t0
            tr.stack[-1].child += perf() - t0
            return result

        return wrapper

    def chunk_wrapper(self, fn, name):
        """A Pool task: in a worker, trace it and hand the counters back
        through a file; in the parent, an ordinary span."""
        spanned = self.span_wrapper(fn, name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args):
            if os.getpid() == tr.pid:
                return spanned(*args)
            tr.reset()
            result = spanned(*args)
            tr._chunk_seq += 1
            path = tr.pool_dir / f"{os.getpid()}-{tr._chunk_seq}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps([tr.self_s, tr.counts, tr.leaf]), encoding="utf-8")
            tmp.rename(path)
            return result

        return wrapper

    def merge_pool_files(self):
        for path in sorted(self.pool_dir.glob("*.json")):
            self_s, counts, leaf = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for k, v in self_s.items():
                self.self_s[k] = self.self_s.get(k, 0.0) + v
            for k, v in counts.items():
                self.count(k, v)
            for k, (calls, secs) in leaf.items():
                acc = self.leaf.setdefault(k, [0, 0.0])
                acc[0] += calls
                acc[1] += secs

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module, attr, make):
        """Wrap module.attr and every other fermatcalc binding of it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fermatcalc"):
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)

    def wrap_method(self, cls, attr, make):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, make(orig))

    def install(self):
        from fermatcalc import bounds, exactnum, fermat_hodge, idealcalc, ioformats, multipoly

        S, L = self.span_wrapper, self.leaf_wrapper
        cyc = exactnum.CyclotomicNumber
        for attr in ("__mul__", "__rmul__"):
            self.wrap_method(cyc, attr, lambda f: L(f, "exactnum.mul", by_conductor=True))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            self.wrap_method(cyc, attr, lambda f: L(f, "exactnum.add"))
        self.wrap_method(cyc, "inverse", lambda f: L(f, "exactnum.inverse"))

        self.wrap_method(multipoly.Polynomial, "__mul__",
                         lambda f: S(f, "multipoly.mul", pre=_poly_mul_pre))
        self.wrap_function(multipoly, "divide",
                           lambda f: S(f, "multipoly.divide", pre=_counter("multipoly.divide_calls")))

        for attr in ("parse_cyclotomic_expr", "polynomial_from_json", "cyclotomic_from_json"):
            self.wrap_function(ioformats, attr, lambda f: S(f, "ioformats.parse"))
        for attr in ("polynomial_to_json", "slice_to_json", "profile_to_json"):
            self.wrap_function(ioformats, attr, lambda f: S(f, "ioformats.to_json"))
        for attr in ("cyclotomic_to_json", "frac_str"):
            self.wrap_function(ioformats, attr, lambda f: L(f, "ioformats.to_json"))

        self.wrap_method(idealcalc.ColonIdeal, "_kernel_data",
                         lambda f: S(f, "idealcalc.colon", pre=_colon_pre, post=_colon_post))
        self.wrap_function(idealcalc, "ideal_slice",
                           lambda f: S(f, "idealcalc.ideal_slice", pre=_ideal_slice_pre))
        self.wrap_function(idealcalc, "ideal_square_membership",
                           lambda f: S(f, "idealcalc.square_membership"))
        self.wrap_function(idealcalc, "buchberger", lambda f: S(f, "idealcalc.buchberger"))

        self.wrap_function(fermat_hodge, "pair_classes",
                           lambda f: S(f, "fermat_hodge.pair", pre=_pair_pre))
        self.wrap_function(fermat_hodge, "linear_cycle_poly",
                           lambda f: S(f, "fermat_hodge.linear_cycle",
                                       pre=_counter("fermat_hodge.cycle_polys_built")))
        self.wrap_function(fermat_hodge, "rationality_certificate",
                           lambda f: S(f, "fermat_hodge.certificate", post=_certificate_post))
        for attr in ("product_class_poly", "recover_product_structure", "rationality_scan",
                     "plane_in_fermat", "complete_intersection_ideal", "special_family"):
            self.wrap_function(fermat_hodge, attr, lambda f, a=attr: S(f, f"fermat_hodge.{a}"))
        self.wrap_function(fermat_hodge, "_certificate_chunk",
                           lambda f: self.chunk_wrapper(f, "fermat_hodge.chunk"))

        self.wrap_function(bounds, "scan_divisor_minima",
                           lambda f: S(f, "bounds.scan", pre=_scan_pre, post=_scan_post))
        self.wrap_function(bounds, "count_divisors", lambda f: L(f, "bounds.count_divisors"))
        self.wrap_function(bounds, "tangent_codim", lambda f: S(f, "bounds.tangent_codim"))
        self.wrap_function(bounds, "_scan_chunk", lambda f: self.chunk_wrapper(f, "bounds.chunk"))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write(self, path: Path):
        """Write every recorded span as one JSON object per line."""
        keys = ("rid", "id", "parent", "name", "start", "end", "self_s", "leaves")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


# -- counter hooks ---------------------------------------------------------------


def _counter(name):
    def pre(tr, args, kwargs):
        tr.count(name)

    return pre


def _poly_mul_pre(tr, args, kwargs):
    this, other = args
    tr.count("multipoly.mul_calls")
    tr.count("multipoly.mul_term_pairs", len(this.terms) * len(getattr(other, "terms", (0,))))


def _class_key(ci) -> str:
    terms = sorted((e, c.m, c.nums, c.den) for e, c in ci.reduced.terms.items())
    text = repr((ci.ctx.n, ci.ctx.d, ci.order.priority, terms))
    return hashlib.sha1(text.encode()).hexdigest()


def _colon_pre(tr, args, kwargs):
    ci, k = args
    if k in ci._cache:
        return False  # a cache hit eliminates nothing
    return None


def _colon_post(tr, result, args, kwargs):
    ci, k = args
    ctx = ci.ctx
    tr.count("idealcalc.colon_calls")
    key = (_class_key(ci), k)
    if key in tr.colon_seen:
        tr.count("idealcalc.colon_repeats")
        return
    tr.colon_seen.add(key)
    tr.count("idealcalc.colon_rows", count_bounded(ctx.sigma + k, ctx.nvars, ctx.d - 2))
    tr.count("idealcalc.colon_rank", len(result[2]))


def _ideal_slice_pre(tr, args, kwargs):
    gens, k = args[0], args[1]
    nvars = gens[0].nvars
    rows = 0
    for g in gens:
        dg = g.homogeneous_degree()
        if dg is not None and dg <= k:
            rows += math.comb(nvars - 1 + k - dg, k - dg)
    tr.count("idealcalc.ideal_slice_calls")
    tr.count("idealcalc.ideal_slice_rows", rows)


def _pair_pre(tr, args, kwargs):
    p, q, ctx = args
    cap = ctx.d - 2
    useful = sum(1 for e in p.terms if tuple(cap - x for x in e) in q.terms)
    tr.count("fermat_hodge.pair_calls")
    tr.count("fermat_hodge.pair_term_pairs", len(p.terms) * len(q.terms))
    tr.count("fermat_hodge.pair_useful_pairs", useful)


def _certificate_post(tr, result, args, kwargs):
    tr.count("fermat_hodge.certificate_rows", len(result.rows))


def _scan_pre(tr, args, kwargs):
    n, d = args[0], args[1]
    sigma = (d - 2) * (n // 2 + 1)
    tr.count("bounds.scans")
    tr.count("bounds.vectors_scanned", count_bounded(sigma, n + 2, d - 2))
    tr.count("bounds.orbits", count_sorted_bounded(sigma, n + 2, d - 2))


def _scan_post(tr, result, args, kwargs):
    tr.count("bounds.exchange_checks", result.exchange_checks)


# -- per-layer metrics --------------------------------------------------------------

# name -> (unit, better); the order is the order of the printed report.
LAYER_METRICS = {
    "cli.requests": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "ioformats.parse_s": ("s", "lower"),
    "ioformats.to_json_s": ("s", "lower"),
    "ioformats.bytes_out": ("bytes", "lower"),
    "exactnum.mul_calls": ("count", "lower"),
    "exactnum.add_calls": ("count", "lower"),
    "exactnum.inverse_calls": ("count", "lower"),
    "exactnum.self_s": ("s", "lower"),
    "exactnum.mul_us.m10": ("us", "lower"),
    "exactnum.mul_us.m14": ("us", "lower"),
    "multipoly.mul_calls": ("count", "lower"),
    "multipoly.mul_term_pairs": ("count", "lower"),
    "multipoly.mul_self_s": ("s", "lower"),
    "multipoly.divide_calls": ("count", "lower"),
    "multipoly.divide_self_s": ("s", "lower"),
    "idealcalc.colon_calls": ("count", "lower"),
    "idealcalc.colon_self_s": ("s", "lower"),
    "idealcalc.colon_rows": ("count", "lower"),
    "idealcalc.colon_rank": ("count", "lower"),
    "idealcalc.colon_zero_row_ratio": ("1", "lower"),
    "idealcalc.colon_repeat_ratio": ("1", "lower"),
    "idealcalc.ideal_slice_calls": ("count", "lower"),
    "idealcalc.ideal_slice_rows": ("count", "lower"),
    "idealcalc.ideal_slice_self_s": ("s", "lower"),
    "idealcalc.square_membership_self_s": ("s", "lower"),
    "idealcalc.buchberger_self_s": ("s", "lower"),
    "fermat_hodge.pair_calls": ("count", "lower"),
    "fermat_hodge.pair_self_s": ("s", "lower"),
    "fermat_hodge.cycle_polys_built": ("count", "lower"),
    "fermat_hodge.certificate_rows": ("count", "lower"),
    "fermat_hodge.pair_useful_ratio": ("1", "higher"),
    "bounds.vectors_scanned": ("count", "lower"),
    "bounds.count_divisors_calls": ("count", "lower"),
    "bounds.count_divisors_self_s": ("s", "lower"),
    "bounds.exchange_checks": ("count", "lower"),
    "bounds.orbit_ratio": ("1", "higher"),
    "pool.parent_idle_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, requests: int, bytes_out: int, parent_idle: float,
                  overhead: float) -> dict:
    """Per-layer metrics from one traced pass's aggregates.  A ratio or mean
    whose base is zero (the layer did not run) reads 0."""
    s, c = tr.self_s, tr.counts

    def leaf(key):
        return tr.leaf.get(key, [0, 0.0])

    def mean_us(key):
        calls, secs = leaf(key)
        return _ratio(secs, calls) * 1e6

    def self_of(*names):
        return sum(s.get(n, 0.0) for n in names)

    exact = [leaf(k) for k in ("exactnum.mul", "exactnum.add", "exactnum.inverse")]
    return {
        "cli.requests": requests,
        "cli.self_s": self_of("cli"),
        "ioformats.parse_s": self_of("ioformats.parse"),
        "ioformats.to_json_s": self_of("ioformats.to_json") + leaf("ioformats.to_json")[1],
        "ioformats.bytes_out": bytes_out,
        "exactnum.mul_calls": exact[0][0],
        "exactnum.add_calls": exact[1][0],
        "exactnum.inverse_calls": exact[2][0],
        "exactnum.self_s": sum(x[1] for x in exact),
        "exactnum.mul_us.m10": mean_us("exactnum.mul.m10"),
        "exactnum.mul_us.m14": mean_us("exactnum.mul.m14"),
        "multipoly.mul_calls": c.get("multipoly.mul_calls", 0),
        "multipoly.mul_term_pairs": c.get("multipoly.mul_term_pairs", 0),
        "multipoly.mul_self_s": self_of("multipoly.mul"),
        "multipoly.divide_calls": c.get("multipoly.divide_calls", 0),
        "multipoly.divide_self_s": self_of("multipoly.divide"),
        "idealcalc.colon_calls": c.get("idealcalc.colon_calls", 0),
        "idealcalc.colon_self_s": self_of("idealcalc.colon"),
        "idealcalc.colon_rows": c.get("idealcalc.colon_rows", 0),
        "idealcalc.colon_rank": c.get("idealcalc.colon_rank", 0),
        "idealcalc.colon_zero_row_ratio": 1.0 - _ratio(c.get("idealcalc.colon_rank", 0),
                                                       c.get("idealcalc.colon_rows", 0))
        if c.get("idealcalc.colon_rows") else 0.0,
        "idealcalc.colon_repeat_ratio": _ratio(c.get("idealcalc.colon_repeats", 0),
                                               c.get("idealcalc.colon_calls", 0)),
        "idealcalc.ideal_slice_calls": c.get("idealcalc.ideal_slice_calls", 0),
        "idealcalc.ideal_slice_rows": c.get("idealcalc.ideal_slice_rows", 0),
        "idealcalc.ideal_slice_self_s": self_of("idealcalc.ideal_slice"),
        "idealcalc.square_membership_self_s": self_of("idealcalc.square_membership"),
        "idealcalc.buchberger_self_s": self_of("idealcalc.buchberger"),
        "fermat_hodge.pair_calls": c.get("fermat_hodge.pair_calls", 0),
        "fermat_hodge.pair_self_s": self_of("fermat_hodge.pair"),
        "fermat_hodge.cycle_polys_built": c.get("fermat_hodge.cycle_polys_built", 0),
        "fermat_hodge.certificate_rows": c.get("fermat_hodge.certificate_rows", 0),
        "fermat_hodge.pair_useful_ratio": _ratio(c.get("fermat_hodge.pair_useful_pairs", 0),
                                                 c.get("fermat_hodge.pair_term_pairs", 0)),
        "bounds.vectors_scanned": c.get("bounds.vectors_scanned", 0),
        "bounds.count_divisors_calls": leaf("bounds.count_divisors")[0],
        "bounds.count_divisors_self_s": leaf("bounds.count_divisors")[1],
        "bounds.exchange_checks": c.get("bounds.exchange_checks", 0),
        "bounds.orbit_ratio": _ratio(c.get("bounds.orbits", 0), c.get("bounds.vectors_scanned", 0)),
        "pool.parent_idle_s": parent_idle,
        "trace.overhead_ratio": overhead,
    }
