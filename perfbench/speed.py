"""Host-speed reference that turns measured wall time into reference time.

The 2-vCPU hosts this benchmark runs on share their cores: single-thread
speed drifts by up to 2x, within milliseconds as well as over tens of
seconds, as neighbours come and go, which would swamp any change worth
measuring.  So the benchmark times a fixed reference kernel between
rounds (at most every ``INTERVAL`` seconds) and scales a measured
interval by ``REFERENCE_S`` over the mean kernel time of the samples
taken in and around it.  A reported time is therefore in *reference
seconds*: the wall time the interval would take on a host where the
kernel runs in ``REFERENCE_S``.  Counts, memory and quality are not
scaled.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

#: Kernel seconds on the reference host (about this 2-vCPU Xeon host's
#: typical speed).
REFERENCE_S = 2e-4

#: Least wall time between two kernel samples.
INTERVAL = 0.05

#: Neighbourhood whose samples scale a short interval (a round, a step).
PAD = 0.25

#: Rounds per block of the 95th percentile: the fewest that leave ten
#: rounds beyond it.
BLOCK = 200

_DATA = [[i * 0.37 + j for j in range(32)] for i in range(20)]


def p95(values: list[float]) -> float:
    """Median over blocks of ``BLOCK`` consecutive values of each block's
    95th percentile (one block when there are fewer values), so a burst
    of host noise moves one block rather than the figure."""
    blocks = [
        values[start:start + BLOCK]
        for start in range(0, len(values) - BLOCK + 1, BLOCK)
    ] or [values]
    return statistics.median(
        float(np.percentile(block, 95)) for block in blocks
    )


def kernel() -> float:
    """Seconds for one fixed slice of pure-Python work."""
    started = time.perf_counter()
    json.dumps(_DATA)
    table = {str(x): x for x in range(300)}
    sum(table.values())
    sorted(table, reverse=True)
    return time.perf_counter() - started


class SpeedTrack:
    """Kernel samples along one run's timeline."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._kernels: list[float] = []
        self.sample()

    def sample(self) -> None:
        started = time.perf_counter()
        runs = sorted(kernel() for _ in range(3))
        self._starts.append(started)
        self._ends.append(time.perf_counter())
        self._kernels.append(runs[1])

    def tick(self) -> None:
        """Sample when ``INTERVAL`` has passed since the last sample."""
        if time.perf_counter() - self._ends[-1] >= INTERVAL:
            self.sample()

    def kernel_mean(self, start: float, end: float, pad: float = 0.0) -> float:
        """Mean kernel seconds of the samples taken in ``[start - pad,
        end + pad]``, or of the two around the interval if none was."""
        lo = bisect.bisect_left(self._starts, start - pad)
        hi = bisect.bisect_right(self._starts, end + pad)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self._starts), hi + 1)
        chosen = self._kernels[lo:hi]
        return sum(chosen) / len(chosen)

    def scaled(self, start: float, end: float, pad: float = 0.0) -> float:
        """Reference seconds of ``[start, end]``, leaving out the time the
        samples taken inside it spent."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end)
        sampling = sum(
            self._ends[i] - self._starts[i] for i in range(lo, max(lo, hi))
        )
        return (end - start - sampling) * REFERENCE_S / self.kernel_mean(
            start, end, pad
        )
