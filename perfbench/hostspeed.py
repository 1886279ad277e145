"""Host-speed probe: a fixed numpy kernel timed between operations.

A shared 2-core Xeon VM was measured changing speed by 30-40 % over
minutes, which no run length averages away; the slowdown hit the package's
numeric code and small numpy kernels largely alike.  The probe runs code of
the same kinds as the package (small complex least-squares solves, a batched
real solve, an FFT, ufuncs over a large array, a plain Python loop) but none
of the package's code, so a change to `modunfold` does not change it.
Times are reported scaled to a host on which one probe takes REFERENCE_S:
seconds * REFERENCE_S / (median probe of the run).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.015   # scale constant: about one probe on a quiet 2.1 GHz Xeon core
INTERVAL_S = 0.5      # least time between two probes


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._small = [rng.standard_normal((40, k)) + 1j * rng.standard_normal((40, k))
                       for k in range(2, 26, 2)]
        self._vector = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        self._batch = rng.standard_normal((64, 24, 24)) + 24.0 * np.eye(24)
        self._rhs = rng.standard_normal((64, 24, 200))
        self._signal = rng.standard_normal(1 << 16)
        self._large = rng.standard_normal(1 << 17)
        self.samples = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        started = time.perf_counter()
        for _ in range(4):
            for matrix in self._small:
                np.linalg.lstsq(matrix, self._vector, rcond=None)
        np.linalg.solve(self._batch, self._rhs)
        np.fft.irfft(np.fft.rfft(self._signal))
        x = self._large
        np.sinc(x) * np.cos(x) / (1.0 + x * x)
        total = 0
        for i in range(40_000):
            total += i * 3 % 7
        return time.perf_counter() - started

    def probe(self) -> None:
        # The median of three runs drops the first one's cold caches after a
        # large operation or a child process.
        duration = statistics.median(self._kernel() for _ in range(3))
        self._last = time.perf_counter()
        self.samples.append(duration)

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host seconds."""
        return REFERENCE_S / statistics.median(self.samples)
