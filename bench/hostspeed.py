"""Host-speed adjustment of measured times.

The benchmark runs on shared machines whose speed changes under it: on the
2-vCPU machine of ``baseline.json`` a fixed pure-Python loop ran up to twice
as slow for stretches of a second to several minutes, while the process kept
its CPU the whole time (CPU time equalled wall time, so CPU time does not
help). The same rows of the same seed ran 12-30 % apart in consecutive runs.

``HostClock`` times a fixed pure-Python kernel, which shares no code with
homfactor, every ``INTERVAL_S`` between rows and after every longer row. A
measured time is then scaled by ``REFERENCE_S`` over the median kernel time
around it (the samples taken while it ran, and ``NEIGHBOURS`` on either
side): it is reported at the host speed at which the kernel takes
``REFERENCE_S``. A change to homfactor moves the adjusted times in full; a
change in host speed moves the kernel too and cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time

# About the kernel's time on the baseline machine (Xeon, 2.0 GHz, Python
# 3.11.7) when no neighbour was busy; it only fixes the scale.
REFERENCE_S = 1.1e-3
INTERVAL_S = 0.05
NEIGHBOURS = 3


def _queens(n, row, cols, up, down):
    if row == n:
        return 1
    count = 0
    for col in range(n):
        if col not in cols and row - col not in up and row + col not in down:
            cols.add(col)
            up.add(row - col)
            down.add(row + col)
            count += _queens(n, row + 1, cols, up, down)
            cols.discard(col)
            up.discard(row - col)
            down.discard(row + col)
    return count


def kernel_seconds() -> float:
    """Time of a fixed amount of interpreter work (eight 6-queens counts)."""
    t0 = time.perf_counter()
    for _ in range(8):
        _queens(6, 0, set(), set(), set())
    return time.perf_counter() - t0


class HostClock:
    def __init__(self):
        for _ in range(3):  # let the interpreter specialize the kernel first
            kernel_seconds()
        self.at = []  # start of each kernel sample, ascending
        self.took = []  # its duration
        self._next = 0.0

    def sample(self):
        now = time.perf_counter()
        self.at.append(now)
        self.took.append(kernel_seconds())
        self._next = time.perf_counter() + INTERVAL_S

    def tick(self):
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def adjust(self, start, seconds):
        """``seconds`` measured from ``start``, at the reference host speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, start + seconds)
        window = self.took[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.median(window)

    def slowdown(self):
        """Median kernel time over the reference: 1.0 on a quiet host."""
        return statistics.median(self.took) / REFERENCE_S
