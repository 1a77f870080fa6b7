"""Host speed, measured between requests with a fixed reference kernel.

On a shared host the same code runs 25-50 % slower for minutes at a time:
the other tenants slow every kind of work together (an interpreter loop,
a NumPy kernel and the solver alike; thread CPU time rises with wall
time, so it is not CPU steal).  No statistic of one run removes a
slowdown that lasts the whole run.  So the
measuring child times this kernel, which never changes, between requests,
and the end-to-end metrics scale each wall time by ``NOMINAL_S`` over the
kernel's time around it: the time the request would have taken with the
host at its nominal speed.

The kernel does the solver's two kinds of work: interpreter steps, and
small NumPy operations on a ``(32, 1024)`` int64 state driven from a
Python loop (a straight-search step adds one row of a 1024 x 1024 weight
matrix into each block's state).
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel time on the reference machine (2 vCPUs of an Intel Xeon on a
#: shared host: the median tick of 80 runs), so scaled times read as wall
#: times there.  A constant: a change to the program moves scaled times
#: exactly as it moves wall times.
NOMINAL_S = 0.0040
#: Kernel runs per tick; the tick keeps the fastest.  That drops
#: interrupts and cold caches, which last microseconds, and keeps a
#: slowdown, which lasts seconds.
REPEATS = 3
#: A request starts with a tick when this long has passed since the last
#: one: before every request of the sync and process workloads, every few
#: jobs of ``service-stream``.
TICK_EVERY_S = 0.2


class Speedometer:
    """Ticks of the reference kernel, and the scale factors they give."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20200817)
        self._np = np
        self._weights = rng.integers(-(2**15), 2**15, size=(1024, 1024), dtype=np.int64)
        self._state = np.zeros((32, 1024), dtype=np.int64)
        self._rows = rng.integers(0, 1024, size=(64, 32))
        #: ``(start, end, kernel seconds)`` of every tick, in time order.
        self.ticks: list[tuple[float, float, float]] = []

    def _kernel(self) -> float:
        np, state = self._np, self._state
        state[:] = 0
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc = (acc + i * 7) % 1000003
        for rows in self._rows:
            state += self._weights[rows]
            np.argmin(state, axis=1)
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Time the kernel now."""
        t0 = time.perf_counter()
        seconds = min(self._kernel() for _ in range(REPEATS))
        self.ticks.append((t0, time.perf_counter(), seconds))

    def due(self) -> bool:
        return not self.ticks or time.perf_counter() - self.ticks[-1][1] >= TICK_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a wall time spent in ``[t0, t1]`` to nominal speed.

        ``NOMINAL_S`` over the mean kernel time of the last tick before
        ``t0`` and the first tick after ``t1`` (whichever exist), or over
        the median tick inside the interval when it holds several.
        """
        inside = [s for a, b, s in self.ticks if t0 <= a and b <= t1]
        if len(inside) >= 3:
            return NOMINAL_S / statistics.median(inside)
        ends = [b for _, b, _ in self.ticks]
        before = bisect.bisect_right(ends, t0) - 1
        after = next((k for k, (a, _, _) in enumerate(self.ticks) if a >= t1), -1)
        near = [self.ticks[k][2] for k in {before, after} if k >= 0]
        return NOMINAL_S / statistics.fmean(near) if near else 1.0

    def busy(self, t0: float, t1: float) -> float:
        """Wall time the ticks took inside ``[t0, t1]``."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b, _ in self.ticks)
