#!/usr/bin/env python3
"""fermatcalc benchmark.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Builds the workload's seeded request list and drives it in-process through
fermatcalc.cli.main(argv) as one closed-loop client: one request at a time,
one process, `--jobs` at most 2.  Passes of the list repeat while one more
ends within --seconds (and until at least MIN_PASSES passes ran).  Times
are scaled to a reference host speed by the probes in speed.py; the times
as measured are printed beside them.  Every result is checked after the
timed region.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it runs the first pass untraced and traced in turn and prints
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from src/ beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PERIOD,
    WORKLOADS,
    all_points,
    build_pass,
    profile,
    write_poly_files,
)

MIN_PASSES = 2
SETUP_PROBES = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# name -> unit; README.md defines each metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_ratio": "1",
    "peak_rss_mb": "MB",
}
# The metrics BENCHMARK.json gates, which the result line carries.
# failed_ratio is 0 at a correct commit and travels as "failed"/"attempted".
# The latency percentiles are printed but not gated: each sits on a few
# requests, and even scaled to the reference speed their spread over ten
# seeds reached 0.15 (p50, colon) and 0.11 (p75, certify and scan; on scan
# it falls among --jobs 2 requests, which the probe cannot scale well),
# against at most 0.064 for wall_s, a sum over the pass.
REPORTED = ("setup_s", "wall_s", "peak_rss_mb")

perf = time.perf_counter


def _import_cli():
    if not (SRC / "fermatcalc" / "cli.py").is_file():
        print(f"error: fermatcalc sources not found in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from fermatcalc import cli

    if Path(cli.__file__).resolve().parent != (SRC / "fermatcalc").resolve():
        print(f"error: imported fermatcalc from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


class Result:
    __slots__ = ("req", "content", "code", "out", "err", "latency", "cpu", "scaled")

    def __init__(self, req, content, code, out, err, latency, cpu, scaled):
        self.req = req
        self.content = content
        self.code = code
        self.out = out
        self.err = err
        self.latency = latency
        self.cpu = cpu
        self.scaled = scaled  # latency at the reference host speed


def call(cli, argv, tracer=None, rid=None):
    """One CLI request with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.request(rid, cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = -1
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def setup(workload: str, seed: int, workdir: Path):
    """Everything a CLI user pays before the first request: imports, the
    generated --poly files, and one throwaway request per (n, d)."""
    cli = _import_cli()
    passes = [build_pass(workload, seed, k) for k in range(PERIOD)]
    workdir.mkdir(parents=True, exist_ok=True)
    for reqs in passes:
        write_poly_files(reqs, workdir)
    if workload != "scan":  # the scan uses no cyclotomic field
        for n, d in all_points(passes[0]):
            alpha = ",".join(["1"] * (n // 2 + 1))
            call(cli, ["linear-cycle", "--n", str(n), "--d", str(d), "--alpha", alpha])
        for d in sorted({r.d for r in passes[0] if not r.n}):
            call(cli, ["prop11", "--d", str(d), "--a", "1"])
    return cli, passes


def run_pass(cli, reqs, content, workdir, tracer=None) -> tuple[list[Result], float]:
    """One pass of the request list: (results, wall time of the pass).

    The host speed is probed before the first request and after each, and
    during untraced serial requests by a sampler thread, whose own time is
    subtracted from the request's latency before scaling.  Traced and
    --jobs 2 requests run without the sampler, so that it adds no time to
    the spans and no thread beside the Pool's own."""
    results = []
    t_pass = perf()
    before = speed.probe()
    for req in reqs:
        argv = req.resolved_argv(workdir)
        sampler = speed.Sampler()
        sampled = tracer is None and req.jobs == 1
        c0 = time.process_time()
        t0 = perf()
        with sampler if sampled else contextlib.nullcontext():
            code, out, err = call(cli, argv, tracer, rid=f"{content}.{req.slot}")
            latency = perf() - t0
        cpu = time.process_time() - c0
        after = speed.probe()
        scaled = speed.scale(latency - sampler.busy, [before, *sampler.samples, after])
        results.append(Result(req, content, code, out, err, latency, cpu, scaled))
        before = after
    return results, perf() - t_pass


def check_results(results, seed: int, recorded) -> tuple[int, list[str]]:
    """Run every result check; returns (failed count, messages)."""
    failed = 0
    messages = []
    ctx = checks.PassContext()
    for res in results:
        if res.req.slot == 0:  # results arrive pass by pass
            ctx = checks.PassContext()
        payload = None
        if res.out.strip():
            try:
                payload = json.loads(res.out)
            except json.JSONDecodeError:
                payload = None
        problems = checks.check(res.req, res.code, payload, res.err, ctx)
        if recorded is not None and seed == DEFAULT_SEED:
            want = recorded[res.req.workload][res.content][res.req.slot]
            got = checks.digest(res.req, res.code, payload, res.err)
            if got != want:
                problems.append(f"digest {got} != recorded {want}")
        if problems:
            failed += 1
            messages.append(f"{' '.join(res.req.argv)}: {'; '.join(problems)}")
    return failed, messages


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it in a run
    of min_samples; fixed per workload so runs compare like with like."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if min_samples - math.ceil(q / 100 * min_samples) >= 10:
            best = q
    return best


def nearest_rank(values, q: float) -> tuple[float, int]:
    """(value at percentile q by nearest rank, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that sets up and exits: (as measured,
    at the reference speed of the probes the process takes itself)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    wall = perf() - t0
    return wall, speed.scale(wall, json.loads(proc.stdout))


def git_info() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("not this checkout")
        rev = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"git_rev": "unknown", "git_dirty": None}
    return {"git_rev": rev, "git_dirty": dirty}


def load_digests():
    if not DIGESTS.is_file():
        return None
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if data["seed"] != DEFAULT_SEED or data["period"] != PERIOD:
        return None
    return data["digests"]


def measure(cli, passes, seconds, workload, seed, workdir):
    """Timed passes, with setup probes between them so that the probes
    sample the same stretch of time as the passes.  After MIN_PASSES, a pass
    starts only if one more of average length ends within `seconds`."""
    results, walls, scaled, probes = [], [], [], [probe_setup(workload, seed)]
    start = perf()
    k = 0
    while k < MIN_PASSES or (perf() - start) * (k + 1) / k <= seconds:
        res, wall = run_pass(cli, passes[k % PERIOD], k % PERIOD, workdir)
        results += res
        walls.append(wall)
        scaled.append(sum(r.scaled for r in res))
        probes.append(probe_setup(workload, seed))
        k += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload, seed))
    latencies = [r.scaled * 1000 for r in results]
    q = tail_percentile(MIN_PASSES * len(passes[0]))
    tail, beyond = nearest_rank(latencies, q)
    by_slot: dict[int, list[float]] = {}
    for r in results:
        by_slot.setdefault(r.req.slot, []).append(r.scaled)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "wall_s": sum(statistics.median(v) for v in by_slot.values()),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "passes": k,
        "setup_s": "median of fresh processes at reference speed; as measured: "
        + ", ".join(f"{wall:.3f}" for wall, _ in probes),
        "latency_tail_ms": f"p{q:g} of {len(latencies)} samples, {beyond} beyond",
        "wall_s": f"sum over slots of the median of {k} passes at reference speed; passes: "
        + ", ".join(f"{w:.3f}" for w in scaled) + "; as measured: "
        + ", ".join(f"{w:.3f}" for w in walls),
    }
    return results, metrics, notes


def new_tracer(workdir: Path):
    from tracer import Tracer

    pool_dir = workdir / "pool"
    pool_dir.mkdir(parents=True, exist_ok=True)
    return Tracer(pool_dir)


def traced_pass(cli, reqs, content, workdir, tracer):
    """One pass with the wrappers installed: (results, the pass's time at
    reference speed, layer metrics) with trace.overhead_ratio left at 0."""
    from tracer import layer_metrics

    tracer.reset()
    tracer.install()
    try:
        results, _ = run_pass(cli, reqs, content, workdir, tracer)
    finally:
        tracer.uninstall()
    idle = sum((r.latency - r.cpu for r in results if r.req.jobs > 1), 0.0)
    out_bytes = sum(len(r.out.encode()) for r in results)
    layers = layer_metrics(tracer, len(reqs), out_bytes, idle, 0.0)
    return results, sum(r.scaled for r in results), layers


def measure_traced(cli, passes, seconds, workdir):
    tracer = new_tracer(workdir)
    reqs = passes[0]
    results, plain, traced, per_pass = [], [], [], []
    start = perf()
    while not traced or (perf() - start) * (len(traced) + 1) / len(traced) <= seconds:
        res, _ = run_pass(cli, reqs, 0, workdir)
        results += res
        plain.append(sum(r.scaled for r in res))
        res, wall, layers = traced_pass(cli, reqs, 0, workdir, tracer)
        results += res
        traced.append(wall)
        per_pass.append(layers)
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_ratio"] = overhead
    notes = {"traced_passes": len(traced), "missing_hooks": tracer.missing}
    return results, metrics, notes, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="certify")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="rerun the default-seed passes and rewrite digests.json")
    args = ap.parse_args(argv)

    if args.record_digests:
        return record_digests()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    if args.setup_probe:
        before = speed.probe()
        setup(args.workload, args.seed, workdir)
        print(json.dumps([before, speed.probe()]))
        return 0
    load_before = os.getloadavg()
    cli, passes = setup(args.workload, args.seed, workdir)
    recorded = load_digests()
    if recorded is None and args.seed == DEFAULT_SEED:
        print("warning: no digests recorded for this seed and period", file=sys.stderr)

    if args.trace:
        results, metrics, notes, tracer = measure_traced(cli, passes, args.seconds, workdir)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        notes["trace_file"] = str(trace_file.relative_to(ROOT))
        from tracer import LAYER_METRICS

        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        results, metrics, notes = measure(cli, passes, args.seconds, args.workload, args.seed,
                                          workdir)
        units = END_TO_END

    failed, messages = check_results(results, args.seed, recorded)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted = len(results)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **git_info(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "digest_checked": recorded is not None and args.seed == DEFAULT_SEED,
    }
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"# workload {json.dumps(profile(passes[0]), sort_keys=True)}")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_ratio"] = failed / attempted
    for name, value in shown.items():
        print(f"# {name:36s} {value:>14.6g} {units[name]:6s} {notes.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if args.trace or name in REPORTED
        },
    }
    print(json.dumps(result))
    return 0


def record_digests() -> int:
    """Run every default-seed pass once and store its digests.  Refuses to
    record a result that fails its theorem checks."""
    workdir = WORK / f"record-{os.getpid()}"
    table = {}
    try:
        for workload in WORKLOADS:
            cli, passes = setup(workload, DEFAULT_SEED, workdir)
            table[workload] = []
            for k in range(PERIOD):
                results, _ = run_pass(cli, passes[k], k, workdir)
                failed, messages = check_results(results, DEFAULT_SEED, None)
                if failed:
                    print("\n".join(messages), file=sys.stderr)
                    return 1
                table[workload].append([
                    checks.digest(r.req, r.code, json.loads(r.out) if r.out.strip() else None, r.err)
                    for r in results
                ])
                print(f"recorded {workload} pass {k}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "period": PERIOD, "digests": table},
                                  indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
