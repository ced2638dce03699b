"""Machine-speed calibration, so that timings are steady on a shared host.

On a shared host the same work can take up to twice as long in phases of
seconds, and the process's CPU time slows alike (it is the cores, not the
scheduler).  The runner therefore times a fixed reference kernel between
the symbols and scales every symbol's wall time by
``REFERENCE_S / (kernel time around it)``: a reported time is the time the
symbol would take on a machine where the kernel takes ``REFERENCE_S``.  The
kernel lives here, apart from the library, so a change to the library
cannot move it; it mixes the two kinds of work the engine does.  The raw
wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

WINDOW_S = 2.0     # calibrations within this distance of a symbol scale it


def _kernel_factory() -> Callable[[], object]:
    """Interpreted ``Fraction`` arithmetic (as in the exact workloads) and
    small complex determinants and FFTs (as in the sampling workloads)."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v = rng.standard_normal(512) + 0j

    def kernel() -> object:
        x = Fraction(1)
        for i in range(1, 60):
            x = (x * Fraction(i, i + 1) + Fraction(1, i)) / (1 + x)
        s = 0j
        for _ in range(40):
            s += np.linalg.det(m) + np.fft.fft(v)[3]
        return x, s
    return kernel


# seconds one kernel call takes on the reference machine: a 2-vCPU Intel
# Xeon cloud VM in a fast phase, Python 3.11, numpy 2.4
REFERENCE_S = 2.0e-3


class Calibrator:
    """Times ``reps`` calls of a kernel at each ``mark`` and turns them into
    a scale factor for any moment of the run."""

    def __init__(self, reps: int) -> None:
        self.reference = REFERENCE_S
        self.kernel = _kernel_factory()
        self.reps = reps
        self.kernel()  # warm up
        self.at: List[float] = []
        self.cost: List[float] = []

    def mark(self) -> None:
        times = []
        for _ in range(self.reps):
            t = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t)
        self.at.append(time.perf_counter())
        self.cost.append(statistics.median(times))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / median kernel time of the marks within ``WINDOW_S``
        of [start, end], and at least the last mark before and the first
        after it."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        lo = max(0, min(lo, before))
        hi = min(len(self.at), max(hi, after + 1))
        return self.reference / statistics.median(self.cost[lo:hi])

    def scale(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Scaled durations of (start, end) spans timed during the run."""
        return [(e - s) * self.factor(s, e) for s, e in spans]
