"""Machine-speed calibration for a measured child process.

Other tenants share the cores of a small VM, so its speed drifts by up to
2x within a minute, and raw wall times of two runs of the same code differ
by more than any useful bound.  A measured child therefore runs a fixed
pure-Python kernel (tuple composition and dict counting, the operations
partsem spends its time on) from a SIGALRM handler every ``INTERVAL_S`` of
wall time.  Times taken with ``Speed.clock`` exclude the kernel, and
``factor`` converts them to reference seconds: the time the same work takes
on a machine where the kernel runs in ``KERNEL_REF_S``.  The speed also
changes between the phases of one run, so a single operation is converted
with the samples taken within ``WINDOW_S`` of it.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.025
KERNEL_REF_S = 0.001
WINDOW_S = 0.1

_MAPS = tuple(tuple((k * 2654435761 >> (3 * i)) % 6 for i in range(6)) for k in range(48))


def kernel() -> int:
    """Fixed work of about a millisecond: compose 768 pairs of maps on 6 points and count them."""
    seen: dict[tuple, int] = {}
    for f in _MAPS:
        for g in _MAPS[:16]:
            h = tuple([g[x] for x in f])
            seen[h] = seen.get(h, 0) + 1
    return len(seen)


def factor(at, took, start: float = -math.inf, end: float = math.inf) -> float:
    """Reference seconds per measured second, from the kernel samples taken
    (``took`` seconds each, at clock times ``at``) between ``start`` and ``end``,
    or from all of them if none was taken then.

    The kernel's duration is inversely proportional to the machine's speed at
    that moment; the samples are spaced evenly in time, so the mean of the
    reciprocal is the mean speed over the interval.
    """
    lo, hi = bisect_left(at, start), bisect_right(at, end)
    if lo == hi:
        lo, hi = 0, len(at)
    return statistics.fmean(KERNEL_REF_S / d for d in took[lo:hi])


def reference_seconds(at, took, start: float, end: float) -> float:
    """The operation timed from ``start`` to ``end``, in reference seconds."""
    return (end - start) * factor(at, took, start - WINDOW_S, end + WINDOW_S)


class Speed:
    """Samples the kernel on a wall-clock timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.at = array("d")
        self.took = array("d")

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent in the kernel so far."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        took = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.at.append(started - self.spent)
        self.took.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @contextlib.contextmanager
    def held(self):
        """Defer the kernel, e.g. while writing to a pipe: a write to a full
        pipe that SIGALRM interrupts loses data."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        return factor(self.at, self.took, start, end)

    def samples(self) -> dict[str, list[float]]:
        return {"at": list(self.at), "took": list(self.took)}


# One per process: SIGALRM and its timer are process-wide.
SPEED = Speed()
