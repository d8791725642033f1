"""Machine speed, measured with a fixed kernel that does not use the package.

On a two-core VM (Intel Xeon at 2.1 GHz, OpenBLAS 0.3.31, one BLAS thread)
the cores change speed by up to 60% within seconds: one and the same S3
Delta solve takes 150 to 260 ms, with no steal time, and the raw times of
runs a few minutes apart spread 18 to 27% (quartiles over ten seeds).  So
every time the benchmark bounds is given in reference seconds: the measured
time times REFERENCE_S over the time of this kernel, measured alongside.
The kernel is dense complex linear algebra of the SDP blocks' size (eigh,
cholesky and a triangular solve on 36 x 36) plus a Python loop.  Scaled
this way, the same ten-seed spreads of wall_s fell to 5-7%.

A change to choimetric cannot move the kernel, so a gain or a regression of
the package shows in full in the reference times.
"""

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

REFERENCE_S = 0.015      # the kernel's usual time on the reference machine
INTERVAL_S = 0.5         # least time between two probes inside a pass
_LINALG_REPS = 30
_PYTHON_LOOP = 100_000


class SpeedProbe:
    """Kernel timings over a run, as (start, duration) pairs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        self._h = a @ a.conj().T + 36 * np.eye(36)
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> float:
        t0 = perf_counter()
        for _ in range(_LINALG_REPS):
            np.linalg.eigh(self._h)
            c = np.linalg.cholesky(self._h)
            scipy.linalg.solve_triangular(c, self._h, lower=True)
        acc = 0
        for i in range(_PYTHON_LOOP):
            acc += i * i % 7
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        return dt

    def measure_if_due(self):
        if not self.samples or perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.measure()

    def spent(self, t0: float, t1: float) -> float:
        """Time the probe itself took between t0 and t1."""
        return sum(dt for start, dt in self.samples if t0 <= start < t1)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time from the last probe before
        t0 to the first probe after t1."""
        starts = [start for start, _ in self.samples]
        lo = max((i for i, s in enumerate(starts) if s <= t0), default=0)
        hi = min((i for i, s in enumerate(starts) if s >= t1), default=len(starts) - 1)
        return REFERENCE_S / statistics.fmean(dt for _, dt in self.samples[lo:hi + 1])
