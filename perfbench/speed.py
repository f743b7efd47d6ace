"""Reference-speed clock: wall time scaled by a fixed CPU kernel.

The machines this benchmark runs on do not keep one speed.  On a shared
2-vCPU host a fixed loop ran at one of two speeds 1.3-1.8x apart,
switching within seconds at some times and holding one speed for minutes
at others, with no steal time to show for it (CPU time and wall time
moved together).  A run's median followed whichever speed it drew, so
two runs of the same code differed by up to a third.

:class:`ReferenceClock` times a small pure-Python kernel after every
timed interval and scales the interval by ``REF_S`` over the mean of the
kernel times on either side of it.  A figure then reads as the time the
interval would take on a machine where the kernel takes ``REF_S``.  The
kernel touches nothing of the engine (list build, dict counting, sort
and ``str`` conversion over a working set small enough to stay in cache,
like the interpreter work the engine does), so a faster engine still
reads faster while a slower machine does not.  Over 60 s of three
repeated range statements the median of 20-op windows varied by 13-14%
(coefficient of variation) in wall time and by 4-5% scaled.  A kernel
over a 64k-entry dict tracked as well, but ran twice as slow after a kNN
statement as after a range one: its speed followed what the engine had
left in the cache, which a change to the engine could move.
"""

from __future__ import annotations

import gc
import time

#: Kernel time that scaled figures are expressed against: about what it
#: takes right after an engine operation on the faster of the two speeds
#: of the 2-vCPU host the bounds were set on, so scaled figures read
#: close to wall time there.
REF_S = 0.7e-3


def _kernel() -> int:
    values = [(i * 2654435761) % 100003 for i in range(2500)]
    counts: dict[int, int] = {}
    for v in values:
        counts[v & 255] = counts.get(v & 255, 0) + 1
    values.sort()
    return len(counts) + len(sorted(str(v) for v in values[:1000]))


def kernel_s() -> float:
    """Seconds one run of the kernel takes now: the faster of two runs,
    so one interrupt does not make a speed sample.  The garbage collector
    is paused meanwhile (the kernel leaves no garbage), so a collection
    the engine's allocations are due never lands in a speed sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            began = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - began)
        return best
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Laps of wall time with the speed factor measured around each.

    ``start()`` marks the beginning of a timed interval and ``lap()`` its
    end; ``lap()`` then times the kernel (outside the interval) and
    returns the interval's wall seconds and the factor that scales them
    to reference seconds.  The kernel sample closing one lap opens the
    next, so back-to-back intervals cost one kernel each.
    """

    def __init__(self) -> None:
        self._before = kernel_s()
        self._start = time.perf_counter()

    def start(self) -> None:
        self._start = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        wall = time.perf_counter() - self._start
        after = kernel_s()
        factor = 2.0 * REF_S / (self._before + after)
        self._before = after
        self._start = time.perf_counter()
        return wall, factor
