"""Machine-speed probe for a shared, noisy host.

On a 2-core shared machine, the speed of the benchmark's core changes by up
to about 2x within seconds, as other tenants come and go.  Identical items
then take anywhere from 1.0 to 2.0 s.  A background thread therefore times
a small fixed kernel every ``PERIOD_S`` seconds.  The kernel is built like
the library's hot loop: Python iteration over monomials with small numpy
arrays.  An interval's speed factor is its mean kernel time over
``REFERENCE_S``, and dividing a wall time by that factor gives the time at
the reference speed.  Across identical items the factor cut the
coefficient of variation from about 0.2 to about 0.035.

The probe costs the measured code about 6% of its CPU time, the same in
every run.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.025
# Kernel time on an uncontended core of the machine the baseline was taken
# on (2-core x86_64, Python 3.11, numpy 2.4).  It only scales the results.
REFERENCE_S = 1.2e-3


class SpeedProbe(threading.Thread):
    """Samples the kernel time until ``stop``; use as a context manager."""

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        rng = np.random.default_rng(0)
        self._pts = rng.random((8, 3))
        self._terms = [
            ((i, j, k), rng.random(2))
            for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3
        ]
        self._stop_event = threading.Event()
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _kernel(self) -> None:
        pts = self._pts
        for _ in range(10):
            out = np.zeros((8, 2))
            for exp, coef in self._terms:
                mono = np.ones(8)
                for j, e in enumerate(exp):
                    if e:
                        mono = mono * pts[:, j] ** e
                out += np.outer(mono, coef)

    def run(self) -> None:
        while not self._stop_event.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._kernel()
            # durations first: factor() indexes durations by starts
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop_event.set()
        self.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean kernel time over the reference, for samples started in
        [t0, t1], widened to the nearest samples when the interval is
        shorter than the sampling period.  Waits for the first sample that
        starts after t1."""
        while self.is_alive() and (not self.starts or self.starts[-1] < t1):
            time.sleep(PERIOD_S / 5)
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi <= lo:
            raise RuntimeError("speed probe has no samples")
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_S
