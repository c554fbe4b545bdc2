"""Speed of the host relative to a reference host.

The benchmark's host is a 2-core VM that shares its physical cores: the same
work takes up to a third longer from one ten-second stretch to the next.  To
keep that out of the figures, a fixed pure-Python reference kernel runs
before every timed call, and each call's wall-clock time is scaled by how
fast the kernel ran within WINDOW_S of the call.  A scaled time is the time
the call would have taken on the reference host (a 2-core 2.1 GHz Xeon VM),
on which the kernel takes REFERENCE_S.
"""

import statistics
import time

REFERENCE_LOOPS = 50_000
REFERENCE_S = 4.0e-3  # median time of reference_s() on the reference host
WINDOW_S = 2.0  # s on either side of a call whose kernel runs scale it


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def speed(kernel_s: list) -> float:
    """Host speed relative to the reference host, from kernel run times;
    multiply a wall-clock time by it to scale it."""
    return REFERENCE_S / statistics.median(kernel_s)


class SpeedLog:
    """Reference kernel runs over time, to scale the calls timed between them."""

    def __init__(self):
        self.runs = []  # (start, seconds) of each kernel run

    def sample(self) -> None:
        self.runs.append((time.perf_counter(), reference_s()))

    def around(self, start: float, end: float) -> float:
        """Host speed around a call that ran from `start` to `end`."""
        return speed([s for t, s in self.runs
                      if start - WINDOW_S <= t <= end + WINDOW_S])
