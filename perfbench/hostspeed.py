"""Host-speed sampler.

The host's speed drifts by a fifth or more within seconds to tens of seconds,
for identical work and in CPU time as much as in wall time, so it comes from
the machine, not from scheduling. A rate taken over half a minute then moves
with the machine more than with the program. To take the machine out, a timer
interrupts the run every INTERVAL_S seconds and times `kernel`, a fixed loop
of small numpy operations and scattered reads of Python objects, like the
work the program is made of, on the same thread.
REF_S / (kernel time) is the host's speed at that moment relative to a
reference host on which the kernel takes REF_S. `scale` multiplies a unit's
time by the mean relative speed of the samples taken while it ran (or near
it), which gives the time the unit would take at the reference speed. The
time spent in the kernel is left out of every unit's time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
MARGIN_S = 0.25
REF_S = 0.0035  # about the kernel's median time, interrupting a run, on the host of the README
LOOPS = 150

# Small numpy operations, and Python objects read in a scattered order from a
# few megabytes, so that the kernel feels the cache as the program does.
_W = np.random.default_rng(0).normal(size=(24, 24)) * 0.1
_X = np.ones(24)
_OBJECTS = [[float(i)] for i in range(40000)]
_ORDER = [int(i) for i in np.random.default_rng(1).permutation(len(_OBJECTS))[: 24 * LOOPS]]


def kernel() -> float:
    a, s = _X, 0.0
    for j in range(LOOPS):
        a = np.maximum(_W @ a, 0.0) + _X
        a = a / (1.0 + np.dot(a, a))
        for i in _ORDER[24 * j : 24 * (j + 1)]:
            s += _OBJECTS[i][0]
    return s + float(a[0])


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # when each kernel sample started
        self.speeds: list[float] = []  # relative speed of each sample
        self.paused = 0.0  # seconds spent in the kernel so far
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.speeds.append(REF_S / dt)
        self.paused += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def relative(self, t0: float, t1: float) -> float:
        """Mean relative speed of the samples taken from MARGIN_S before t0
        to MARGIN_S after t1, or of the nearest sample if there is none."""
        lo = bisect.bisect_left(self.times, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.times, t1 + MARGIN_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return sum(self.speeds[lo:hi]) / (hi - lo)

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds` of work done between t0 and t1, at the reference speed."""
        return seconds * self.relative(t0, t1)
