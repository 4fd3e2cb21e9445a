"""Machine-speed reference: a fixed kernel of the benchmark's own Python.

On a shared VM the speed of the same code drifts: this kernel's time
moves between about 0.7 and 1.5 ms on a 2-core Xeon VM, in phases that
last from under a second to minutes.  So while jobs run, a timer signal
runs the kernel every ``INTERVAL_S``, and each job's time is scaled by
the mean speed around it, a sample's speed being ``REFERENCE_S`` over its
kernel time.  So a job's scaled time is the work it did at the reference
speed, summed over phases that ran at different speeds.  One slow sample
(say a cold cache inside the timer handler) moves a scale by at most its
share of the samples.  Time spent in the kernel is left out of every job
and span time.  The kernel mixes what
the program spends its time on (recursion over int bitmasks, exact
``Fraction`` arithmetic, tuple and set churn) and never calls the
program.  The benchmark's tests check that a slowdown put into the
program shows in full in the scaled times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

import netgen

# Median kernel time on the 2-core Xeon VM the bounds were set on.
REFERENCE_S = 0.0012
INTERVAL_S = 0.03
# A job's scale averages at least this many samples, taken during the
# job or, for a short job, nearest to it.
MIN_SAMPLES = 16

_DOC = netgen.line_doc(4, 1)


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    netgen.count_window_vertices(_DOC, 2, 10**9)
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    seen = set()
    for i in range(1000):
        seen.add((i & 0x55, i >> 3, i ^ 0x33))
    return time.perf_counter() - start


def kernel_samples(n: int) -> list[float]:
    return [kernel_s() for _ in range(n)]


def scale_from(samples: list[float]) -> float:
    """Mean speed of kernel samples, relative to the reference."""
    return statistics.fmean(REFERENCE_S / k for k in samples)


class Sampler:
    """Runs the kernel from a SIGALRM handler while active.

    ``now()`` is a clock that stops while the kernel runs, so intervals
    measured with it exclude the sampler's own work.
    """

    def __init__(self):
        self.times: list[float] = []    # clock() at each sample
        self.kernel: list[float] = []   # kernel seconds of each sample
        self._paused = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        # No collection of the program's objects inside a sample; the
        # kernel frees all it allocates, so none is put off either.
        enabled = gc.isenabled()
        gc.disable()
        k = kernel_s()
        if enabled:
            gc.enable()
        self._paused += time.perf_counter() - start
        self.times.append(self.now())
        self.kernel.append(k)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Scale of a job that ran from ``start`` to ``end`` on ``now()``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            mid = (start + end) / 2
            if hi == len(self.times) or (lo > 0 and mid - self.times[lo - 1] <= self.times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return scale_from(self.kernel[lo:hi])


def gap_scales(gaps: list[list[float]]) -> list[float]:
    """Scale of each item timed between kernel samples: ``gaps[j]`` holds the
    samples just before item j, ``gaps[-1]`` those after the last item."""
    return [scale_from(gaps[j] + gaps[j + 1]) for j in range(len(gaps) - 1)]
