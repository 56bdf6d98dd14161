"""Machine-speed calibration for the time metrics.

On a small shared VM (2 vCPUs) speed drifts by up to a third over tens of
seconds, for reasons outside the process (process CPU time drifts with wall
time). A fixed kernel that runs no statemarket code is
timed between ops, in the same process, and time metrics are rescaled to
the reference speed ``REFERENCE_KERNEL_S``:

    reported op time = wall time x REFERENCE_KERNEL_S / local kernel time

where the local kernel time is the median of the samples nearest to the op.
No program change can speed up or slow down the kernel, so a program change
still moves the reported numbers in full. Over five minutes of one repeated
``clear_convex`` op, rescaling cut the spread of 25-second means from 0.15
to 0.05 (interquartile range / median). Raw wall times are reported too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine: a 2-vCPU Xeon KVM guest,
# Python 3.11.7, numpy 2.4.6, OpenBLAS pinned to one thread.
REFERENCE_KERNEL_S = 0.027
EVERY_S = 0.5
LOCAL_SAMPLES = 7  # kernel samples nearest in time that rescale one op


class Calibration:
    """Kernel samples taken at most every ``EVERY_S`` seconds of a run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((120, 120)) + 120.0 * np.eye(120)
        self._rhs = rng.random(120)
        self._points = rng.random((10_000, 2))
        self._centers = rng.random((8, 2))
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        """The op mix in small: interpreter loop, dense solves, and
        vectorised distances over an L x S x k temporary."""
        total = 0
        for j in range(100_000):
            total += j * j % 7
        for _ in range(10):
            np.linalg.solve(self._matrix, self._rhs)
        for _ in range(5):
            diff = self._points[:, None, :] - self._centers[None, :, :]
            np.einsum("lsk,lsk->ls", diff, diff).argmin(axis=1)

    def sample(self) -> None:
        started = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - started)
        self.taken_at.append(started)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds, over the whole run."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

    def local_scales(self, started_at: list[float]) -> list[float]:
        """Factor for each op from the ``LOCAL_SAMPLES`` kernel samples
        nearest to its start, so a slow spell rescales only its own ops."""
        taken_at, samples = np.array(self.taken_at), np.array(self.samples)
        return [
            REFERENCE_KERNEL_S / float(np.median(samples[np.argsort(np.abs(taken_at - t))[:LOCAL_SAMPLES]]))
            for t in started_at
        ]

    def summary(self) -> dict:
        return {"kernel_median_s": statistics.median(self.samples), "samples": len(self.samples),
                "scale": self.scale()}
