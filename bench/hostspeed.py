"""Host-speed sampling during a rep, so reported times do not follow the host's slow phases.

On a shared host the same rep can take 1.5 times as long from one minute to
the next. The slowdown also hits a fixed kernel that never touches zojade.
The kernel is a small mix of the numpy work that dominates zojade's rounds:
``logaddexp`` on a 25x101 block, a 20x20 matmul and a probe-style ``tile``,
each called through Python. :class:`SpeedSampler` runs that kernel:

- once before a rep;
- every ``INTERVAL_S`` of wall time during the rep, from a ``SIGALRM``
  handler in the main thread, so no extra thread is started;
- once after the rep.

A rep's time is its wall time minus the time spent in the kernel
(:meth:`SpeedSampler.clock`). It is then scaled by
``REFERENCE_KERNEL_S / mean kernel time``. The reported seconds are
therefore seconds on a host that runs the kernel in ``REFERENCE_KERNEL_S``.
The kernel and the reference are fixed and the kernel never calls zojade.
It does run in the rep's process, between zojade's calls, so cache and
allocator state left by zojade can move it; a regression that also slows
the kernel is partly hidden by the scaling (see bench/README.md).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time on a quiet host of the kind the baseline was measured on (2 cores, numpy 2.4).
REFERENCE_KERNEL_S = 0.8e-3

#: Wall time between two samples inside a rep.
INTERVAL_S = 0.05


class SpeedSampler:
    """Kernel samples taken around and during one rep."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((25, 101))
        self._square = rng.standard_normal((20, 20))
        self._point = rng.standard_normal(10)
        self.samples: list = []
        self.overhead_s = 0.0
        self._previous_handler = None

    def kernel(self) -> float:
        """Seconds taken by the fixed kernel."""
        t0 = time.perf_counter()
        for _ in range(8):
            np.logaddexp(0.0, -self._block).mean(axis=0)
            self._square @ self._square
            np.tile(self._point, (21, 1))
        return time.perf_counter() - t0

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.overhead_s

    def _sample(self, *_) -> None:
        dt = self.kernel()
        self.samples.append(dt)
        self.overhead_s += dt

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.overhead_s = [], 0.0
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def kernel_s(self) -> float:
        """Mean kernel time over the rep.

        The mean, not the median: a burst of slowness stretches the rep by
        its share of the rep's time, and the samples, evenly spaced in wall
        time, see it in the same share.
        """
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """Multiplier from this rep's seconds to seconds at the reference speed."""
        return REFERENCE_KERNEL_S / self.kernel_s()
