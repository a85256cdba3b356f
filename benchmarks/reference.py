"""Reference kernel: a fixed numpy computation that tracks how fast the
machine runs at the moment.

The benchmark's host is shared, and its speed drifts by tens of percent over
seconds and minutes for every process alike: one unchanged pass of ``orbits``
took anywhere from 7.9 s to 13.4 s within four minutes.  Raw times of two runs
made minutes apart therefore differ by more than the bounds a regression check
needs.  While a workload runs, a profiling timer interrupts it every
``every_s`` seconds of CPU time, in the middle of an op or between two, and
times one repetition of this kernel.  Each op's latency, less the kernel's
time inside it, is divided by the median of the timings made during and
around it, so that the slowdown both share cancels.  The kernel uses numpy
alone and never suslovkit, so no change to the program moves it.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: (rows, state dimension, steps) of the kernel's parts: one small state, as
#: in a scalar field call, and a 2000-row batch
PARTS = ((1, 3, 50), (2000, 3, 20))


class Reference:
    """RK4-like stage arithmetic with cross products on each part's state,
    timed from a SIGPROF handler every ``every_s`` seconds of CPU time
    between ``start`` and ``stop``.  ``times`` holds the seconds per timing,
    the unit ``ref`` of the benchmark's relative metrics; ``at`` the
    perf_counter at its middle; ``spent`` the seconds all timings took."""

    def __init__(self, every_s: float) -> None:
        rng = np.random.default_rng(0)
        self.states = [
            (rng.uniform(-1.0, 1.0, (rows, dim)), rng.uniform(-1.0, 1.0, (rows, 3)), steps)
            for rows, dim, steps in PARTS
        ]
        self.every_s = every_s
        self.times: list[float] = []
        self.at: list[float] = []
        self.spent = 0.0
        self._kernel()  # warm-up: allocation and first-touch costs stay out

    def _kernel(self) -> float:
        total = 0.0
        for y, w, steps in self.states:
            for _ in range(steps):
                ks = []
                for c in (0.0, 0.5, 0.5, 1.0):
                    k = y * 0.999 + 1e-3 * c
                    k[:, :3] = np.cross(w, y[:, :3])
                    ks.append(k)
                y = y + 1e-3 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
                y = y / (1.0 + 1e-3 * float(np.abs(y).max()))
            total += float(y.sum())
        return total

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.times.append(dt)
        self.at.append(t0 + 0.5 * dt)
        self.spent += dt

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def around(self, t0: float, t1: float, within_s: float = 1.0) -> float:
        """Median of the timings made from ``within_s`` seconds before an op
        that ran from ``t0`` to ``t1`` until ``within_s`` after it; of the
        last before and the first after it when fewer than two were."""
        near = [t for t, at in zip(self.times, self.at) if t0 - within_s <= at <= t1 + within_s]
        if len(near) < 2:
            i = sum(1 for at in self.at if at < t0)
            near = self.times[max(0, i - 1):i + 1]
        return statistics.median(near)
