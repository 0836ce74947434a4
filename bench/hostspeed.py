"""Host-speed reference for the benchmark's time metrics.

On a shared machine the cores run faster or slower for seconds to minutes
at a time, by up to 40%, and every operation of a run moves with them. A run
therefore times a fixed reference kernel every EVERY_S seconds, between
operations, and scales each measured time by ``REF_S`` over the kernel time
taken beside it. The result is seconds at a fixed host speed: what the run
would have measured had the kernel taken ``REF_S`` throughout.

The kernel uses no library code, so a change to the library cannot move it.
It mixes the kinds of work the library does: Python-level set and float
loops (as in the overlap calculus), numpy calls on small arrays, and
in-place passes over an array larger than a core's cache (as in the
simplex's tableau updates). The last holds 8 MB, which every run's
``peak_rss_mb`` includes. Its inputs never change. ``REF_S`` is a constant
of the benchmark; changing it rescales every time metric.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REF_S = 0.0031      # kernel seconds that define the reference speed
EVERY_S = 0.5       # time the kernel again once this much time has passed
REPEATS = 3         # one sample is the median of this many kernel runs
_N = 20_000


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.vals = rng.random(_N)
        self.items = self.vals.tolist()
        self.a = rng.random((80, 80)) + 80.0 * np.eye(80)
        self.b = rng.random(80)
        self.big = rng.random((1000, 1000))
        self.at: list = []        # perf_counter time of each sample
        self.samples: list = []   # kernel seconds of each sample
        self._kernel()            # first call pays lazy set-up; not a sample

    def _kernel(self) -> float:
        union = set(np.flatnonzero(self.vals > 0.4).tolist())
        union |= set(range(0, _N, 7))
        total = math.fsum(self.items[i] for i in union)
        total += float(np.sort(self.vals).sum() + self.vals @ self.vals)
        self.big *= 1.0000001
        self.big *= 0.9999999
        return total + float(np.linalg.solve(self.a, self.b).sum())

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.samples.append(statistics.median(times))

    def maybe_sample(self) -> None:
        """Sample when none was taken in the last EVERY_S seconds."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time of the last sample before
        ``start`` and the first after ``end`` (or the nearest there is)."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        before = self.samples[max(i, 0)]
        after = self.samples[min(j, len(self.samples) - 1)]
        return REF_S / (0.5 * (before + after))

    def median(self) -> float:
        return statistics.median(self.samples)
