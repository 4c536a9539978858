"""Host speed probe.

The benchmark's host is a few cores of a shared machine whose speed changes
in phases of seconds, by up to a factor of two, and process CPU time moves
with wall time, so neither alone gives a steady figure.  A probe times a
fixed pure-Python kernel, the same kind of work fermatcalc does (small
integer polynomial products and reductions, gcds, Fractions, dicts keyed by
tuples), and `scale` turns a time measured next to probes into seconds at
the reference speed: the speed at which one kernel run takes REFERENCE_S.
A request is probed before and after it runs and, when it runs serially
in this process, every SAMPLE_PERIOD_S while it runs, by a `Sampler`
thread; so a long request that spans several phases is scaled by the speed
of each.

The kernel lives here, not in src/, so no change to the program moves it.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from fractions import Fraction

KERNEL_LOOPS = 150
PROBE_REPS = 3
SAMPLE_PERIOD_S = 0.05
# One kernel run's time on an unloaded core of the 2-core host where the benchmark
# was defined (Python 3.11); a fixed constant, so scaled times compare across
# runs and commits.
REFERENCE_S = 0.0015


def _kernel(loops: int = KERNEL_LOOPS) -> dict:
    acc: dict = {}
    a = [3, -1, 4, 1, -5, 9]
    b = [2, 7, -1, 8, 2, -8]
    for i in range(loops):
        prod = [0] * 11
        for p, x in enumerate(a):
            for q, y in enumerate(b):
                prod[p + q] += x * y
        for k in range(10, 5, -1):
            c = prod[k]
            for j in range(6):
                prod[k - 6 + j] -= c * (j + 1)
        g = 0
        for v in prod[:6]:
            g = math.gcd(g, v)
        key = (i % 7, g % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(prod[0] % 97, i % 9 + 1)
        a = [v % 1000 - 500 for v in prod[:6]]
    return acc


def probe() -> float:
    """Seconds one kernel run takes now: the median of PROBE_REPS runs."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the kernel from a second thread every SAMPLE_PERIOD_S between
    __enter__ and __exit__.  Each run holds the GIL for about REFERENCE_S,
    so it stalls the main thread for that long; `busy` is their sum, to be
    taken off the request's time."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def busy(self) -> float:
        return sum(self.samples)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` measured while the host ran `probes` (kernel times taken
    evenly over that time or at its two ends), in seconds at the reference
    speed."""
    return seconds * statistics.fmean(REFERENCE_S / p for p in probes)
