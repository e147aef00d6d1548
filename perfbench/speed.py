"""Machine-speed gauge: fixed reference work timed around and during the benchmark's ops.

On a shared machine the speed of the same code drifts by tens of percent
within a minute, and CPU time drifts with wall time, so a run made in a slow
minute reads slow however long it is. The gauge times a fixed piece of work
with the program's mix (a pure-Python dynamic program and small numpy vector
operations) before and after each measured interval, and every ``TICK_S``
during it from a SIGALRM handler, which Python runs in the main thread between
bytecodes. An interval's wall time, less the gauge's own time, is scaled by
``REFERENCE_S`` over the median gauge sample of the interval: seconds at a
fixed reference speed. The reference work is the benchmark's own code, so no
change to the program moves it.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import statistics
import time

import numpy as np

# Gauge time of the reference work at the reference speed: about its median
# on the 2-core Intel Xeon VM the benchmark was written on. Only scales the
# reported values.
REFERENCE_S = 0.004

TICK_S = 0.1


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(20251017)
        self._grid = rng.random((128, 128)).tolist()
        self._w = rng.random((128, 32))
        self._x = rng.random(32)
        self._samples: list[float] = []
        self._busy = 0.0  # total seconds spent in the gauge
        self._in_sample = False

    def _reference_work(self) -> float:
        loc = self._grid
        n = len(loc)
        prev = list(itertools.accumulate(loc[0]))
        for k in range(1, n):
            row, cur = loc[k], [loc[k][0] + prev[0]]
            for col in range(1, n):
                best = prev[col - 1]
                if prev[col] < best:
                    best = prev[col]
                if cur[col - 1] < best:
                    best = cur[col - 1]
                cur.append(row[col] + best)
            prev = cur
        x = self._x
        for _ in range(300):
            z = self._w @ x
            x = np.tanh(z[:32]) / (1.0 + np.exp(-z[32:64]))
        return prev[-1] + float(x.sum())

    def _timed(self) -> float:
        start = time.perf_counter()
        self._reference_work()
        elapsed = time.perf_counter() - start
        self._busy += elapsed
        return elapsed

    def sample(self, repeats: int = 3) -> None:
        """Record the median of a few timings of the reference work."""
        self._in_sample = True
        try:
            self._samples.append(statistics.median(self._timed() for _ in range(repeats)))
        finally:
            self._in_sample = False

    def _tick(self, signum, frame) -> None:
        if not self._in_sample:
            self.sample(repeats=1)

    @contextlib.contextmanager
    def ticking(self):
        """Sample every TICK_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn) -> tuple[object, float, float]:
        """Call ``fn``; its result, wall seconds and reference-speed seconds.

        Both times leave out the gauge's own samples. The interval's speed is
        the median of the samples taken just before, during and just after it.
        """
        if not self._samples:
            self.sample()
        first, busy = len(self._samples) - 1, self._busy
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - (self._busy - busy)
        self.sample()
        speed = statistics.median(self._samples[first:])
        return result, wall, wall * REFERENCE_S / speed
