"""Reference kernel that tracks the speed of the machine during a run.

On the shared 2-core VM this benchmark was written on, the same work took up
to 1.9 times longer for stretches of tens of seconds to minutes, in CPU time
as much as in wall time (no steal: other tenants slow the core itself).
Repeats inside one run cannot average such a stretch away, so the end-to-end
times are scaled by the speed of this fixed kernel, sampled every SAMPLE_S
through the phase (set-up or timed rounds) they belong to:

    scaled time = measured time * REFERENCE_S / mean kernel time of the phase

A scaled time is the time the work would take when the kernel runs in
REFERENCE_S, its time on an unloaded core of that VM.  The kernel does the
kinds of work the library does (batched small solves, small eigenvalue
problems, elementwise arrays, interpreted loops) and never calls the
library, so a change to the library leaves it alone.  The measured times
are kept next to the scaled ones in the run's result file.
"""

from __future__ import annotations

import time

import numpy as np

SAMPLE_S = 0.5
REFERENCE_S = 0.022  # 2-core x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread, unloaded

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((480, 4, 4)) + 4.0 * np.eye(4)
_b = _rng.standard_normal((480, 4, 1))
_S = _rng.standard_normal((16, 16))
_z = _rng.standard_normal((480, 4))


def kernel_seconds() -> float:
    """Time of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.linalg.solve(_A, _b)
        for _ in range(8):
            np.linalg.eigvals(_S)
        w = _z
        for _ in range(20):
            w = np.tanh(0.25 * (w + np.roll(w, 1, axis=0)) @ _A[0] - w * w * w)
        total = 0
        for i in range(4000):
            total += i % 7
    return time.perf_counter() - t0


class Clock:
    """Samples the kernel through a run; scales the times of each phase by
    the mean of the samples taken during it.

    One sample costs about REFERENCE_S; taking one at most every SAMPLE_S
    spends under a tenth of the run on it.
    """

    def __init__(self):
        self.kernel_times: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.kernel_times.append(kernel_seconds())
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_S:
            self.sample()

    def factor(self, first: int = 0) -> float:
        """Scale factor from the samples taken since sample ``first``."""
        samples = self.kernel_times[first:]
        return REFERENCE_S / (sum(samples) / len(samples))
