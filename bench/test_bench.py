"""Tests of the benchmark itself: the generator, the result checks and the
traced run.  Run with `python -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import PERIOD, WORKLOADS, build_pass, size_signature


def _describe(reqs):
    return [(r.argv, r.expect_code, r.jobs, r.extra, [c.__dict__ for c in r.classes]) for r in reqs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_request_list(workload):
    for content in (0, PERIOD - 1):
        assert _describe(build_pass(workload, 7, content)) == _describe(
            build_pass(workload, 7, content)
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_differ_in_content_not_size(workload):
    a, b = build_pass(workload, 0, 0), build_pass(workload, 1, 0)
    assert [r.argv for r in a] != [r.argv for r in b]
    assert size_signature(a) == size_signature(b)
    # later passes change content, not size, too
    assert size_signature(build_pass(workload, 0, 1)) == size_signature(a)


@pytest.fixture(scope="module")
def cli_and_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return run._import_cli(), workdir


def _cheap(workload, seed=0, content=0):
    """The requests of one pass that finish quickly, with their slots kept
    so recorded digests still apply."""
    slow = {"certify", "hilbert", "tangent", "dan-ci", "plane", "special"}
    reqs = build_pass(workload, seed, content)
    if workload == "scan":
        return [r for r in reqs if (r.n, r.d) in {(2, 5), (2, 7), (2, 9), (4, 4)}]
    if workload == "colon":
        return [r for r in reqs if r.n == 2 and r.d == 9]
    return [r for r in reqs if r.verb not in slow or (r.n, r.d) == (2, 5)]


def test_corrupted_result_counts_as_failed(cli_and_dir):
    cli, workdir = cli_and_dir
    reqs = _cheap("certify") + _cheap("scan")
    results, _ = run.run_pass(cli, reqs, 0, workdir)
    recorded = run.load_digests()
    assert recorded is not None
    assert run.check_results(results, 0, recorded) == (0, [])
    assert run.check_results(results, 1, None) == (0, [])
    # flip one exact pairing value, and one scan minimum
    for res in results:
        if res.req.verb == "pair":
            payload = json.loads(res.out)
            payload["c"]["coords"][0] = "12345"
            res.out = json.dumps(payload)
            break
    for res in results:
        if res.req.verb == "scan-bounds":
            payload = json.loads(res.out)
            payload["min"] += 1
            res.out = json.dumps(payload)
            break
    failed, messages = run.check_results(results, 1, None)
    assert failed == 2, messages
    failed, _ = run.check_results(results, 0, recorded)
    assert failed == 2
    assert failed / len(results) > 0


def _traced_counts(cli, workdir, reqs):
    tracer = run.new_tracer(workdir)
    results, _, metrics = run.traced_pass(cli, reqs, 0, workdir, tracer)
    assert run.check_results(results, 1, None)[0] == 0
    assert not tracer.missing
    return {
        k: v for k, v in metrics.items()
        if k.endswith(("_calls", "_rows", "bytes_out", "exchange_checks", "vectors_scanned",
                       "requests", "term_pairs", "cycle_polys_built", "colon_rank"))
    }


def test_traced_counts_repeat_exactly(cli_and_dir):
    cli, workdir = cli_and_dir
    reqs = [r for w in ("certify", "colon", "ideals", "scan") for r in _cheap(w, seed=3)]
    for slot, r in enumerate(reqs):
        r.slot = slot
    first = _traced_counts(cli, workdir, reqs)
    second = _traced_counts(cli, workdir, reqs)
    assert first == second
    for name in ("exactnum.mul_calls", "fermat_hodge.pair_calls", "idealcalc.colon_calls",
                 "idealcalc.ideal_slice_calls", "multipoly.divide_calls",
                 "bounds.count_divisors_calls", "ioformats.bytes_out"):
        assert first[name] > 0, name


def test_scan_does_no_field_arithmetic_and_pool_work_is_counted(cli_and_dir):
    cli, workdir = cli_and_dir
    reqs = [r for r in build_pass("scan", 0, 0) if (r.n, r.d) == (2, 5)]
    assert sorted(r.jobs for r in reqs) == [1, 2]
    counts = []
    for req in reqs:
        req.slot = 0
        c = _traced_counts(cli, workdir, [req])
        assert c["exactnum.mul_calls"] == 0 and c["exactnum.add_calls"] == 0
        counts.append(c)
    # the --jobs 2 request's worker processes report the same work
    assert counts[0]["bounds.count_divisors_calls"] > 0
    assert counts[0] == counts[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 39, 40, 75, 100, 999, 1000):
        q = run.tail_percentile(n)
        _, beyond = run.nearest_rank(list(range(n)), q)
        assert beyond >= 10 or q == 50.0


def test_speed_scaling_and_sampler():
    import time

    import speed

    assert speed.scale(2.0, [speed.REFERENCE_S] * 3) == pytest.approx(2.0)
    # a host at half the reference speed: 2 s measured is 1 s at reference
    assert speed.scale(2.0, [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]) == pytest.approx(1.0)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.busy < 0.3
