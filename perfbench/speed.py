"""Timed runs reported at a fixed machine speed.

The shared machine's speed drifts by up to 40 % over tens of seconds,
which no median over a 20-second measurement can average away.  A fixed
numpy and Python kernel (`Calibration`) slows down together with
bgkmix, so the benchmark times it every INTERVAL_S seconds of a run:
at the start, at every relaxation step that comes due, and at the end.
Each stretch of the run between two kernel timings is scaled by
CAL_REF_S over the mean of those two timings, and the kernel's own time
is left out of the run's.  A 10-second scan is thus tracked as closely
as a half-second relaxation.

The kernel runs no bgkmix code, so a change to bgkmix moves the scaled
time exactly as it moves the wall time.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# Kernel time on the 2-core x86 box the baseline was taken on: scaled
# times are seconds at that box's speed.
CAL_REF_S = 0.02
INTERVAL_S = 0.5


class Calibration:
    """A fixed kernel of the operations bgkmix spends its time in."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((32768, 5))
        self._b = rng.random((32768, 3))

    def __call__(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        for _ in range(20):
            np.exp(a)
            np.einsum("ni,ni->n", b, b)
            a.T @ a
        total = 0
        for i in range(20000):
            total += i
        return time.perf_counter() - start


class SpeedTrack:
    """Kernel timings through one run of the program.

    `begin()` and `end()` bracket the run; `tick()` is called from inside
    it and times the kernel when INTERVAL_S has passed.
    """

    def __init__(self):
        self._calibrate = Calibration()
        self._cal = self._calibrate()
        self._t = 0.0
        self.stretches: list[tuple[float, float, float]] = []

    def begin(self) -> None:
        self.stretches = []
        self._t = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._t >= INTERVAL_S:
            self.end()
            self._t = time.perf_counter()

    def end(self) -> None:
        now = time.perf_counter()
        cal = self._calibrate()
        self.stretches.append((now - self._t, self._cal, cal))
        self._cal = cal

    @property
    def wall_s(self) -> float:
        """The run's wall time without the kernel's."""
        return sum(s for s, _, _ in self.stretches)

    @property
    def scaled_s(self) -> float:
        """The run's time at the reference machine speed."""
        return sum(s * 2.0 * CAL_REF_S / (c0 + c1)
                   for s, c0, c1 in self.stretches)

    @contextlib.contextmanager
    def hooked(self, solver):
        """Tick at every `solver.relax_step` while the context is open."""
        inner = solver.relax_step

        def relax_step(*args, **kwargs):
            self.tick()
            return inner(*args, **kwargs)

        solver.relax_step = relax_step
        try:
            yield self
        finally:
            solver.relax_step = inner
