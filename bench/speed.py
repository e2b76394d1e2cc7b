"""Machine speed, sampled while a benchmark body runs.

On a shared host the same code runs 20-40% slower for seconds or minutes
at a time while other tenants load the machine.  `SpeedProbe` measures that
speed during the body itself: every `INTERVAL_S` seconds a SIGALRM handler
runs one fixed calibration slice (small symmetric eigenproblems and a
Python loop, the instruction mix of the workloads) and records how long it
took.  A body's time adjusted to the reference speed is

    (body wall time - time spent in slices) * REFERENCE_SLICE_S / median slice

so a slow phase of the machine lengthens the slices and the body alike and
cancels out, while a slower program lengthens only the body.  The slices
use nothing from `hardyqkd`.

Import only after the BLAS thread variables are set: it imports numpy.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

INTERVAL_S = 0.1
REFERENCE_SLICE_S = 1e-3  # a slice's time at the reference speed
MIN_SLICES = 10           # slices per body; short bodies get the rest after
SLICE_ROUNDS = 48


class SpeedProbe:
    """Calibration slices timed during a block of code; one per benchmark run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = [a + a.T for a in rng.standard_normal((8, 13, 13))]
        self.slices: list[float] = []
        self.in_block_s = 0.0  # time the last block spent in slices
        for _ in range(MIN_SLICES):  # warm the code paths before timing
            self._slice()

    def _slice(self) -> float:
        acc = 0.0
        for k in range(SLICE_ROUNDS):
            acc += float(np.linalg.eigvalsh(self._mats[k % 8])[0])
            acc += sum(j * 0.5 for j in range(24))
        return acc

    def _timed_slice(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._slice()
        self.slices.append(time.perf_counter() - t0)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample the speed while the block runs; see `in_block_s` and `factor`."""
        self.slices = []
        previous = signal.signal(signal.SIGALRM, self._timed_slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.in_block_s = sum(self.slices)
        while len(self.slices) < MIN_SLICES:
            self._timed_slice()

    @property
    def factor(self) -> float:
        """Reference speed over the speed measured during the last block."""
        return REFERENCE_SLICE_S / statistics.median(self.slices)
