"""How fast the host runs the children right now, measured beside them.

The benchmark's children run on a shared virtual CPU whose speed drifts by
up to 2x over minutes, invisibly to the guest: no steal time shows, and a
process's CPU time stretches exactly as its wall time does.  A
:class:`Meter` pins the runner (and so every child it spawns) to one CPU
and runs a fixed chunk of interpreter work on that same CPU every
:data:`PERIOD_S`, timing each chunk with its own thread's CPU clock, which
the child's time slices do not inflate.  The chunk's CPU time, divided by
:data:`NOMINAL_CHUNK_S`, is the host's slowdown at that moment; a child's
times divided by the mean slowdown over their interval are in seconds of
the undisturbed host.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: How often the chunk runs; it costs the child about 3% of its CPU.
PERIOD_S = 0.025
#: The chunk's CPU time on an undisturbed CPU of the build host (an Intel
#: Xeon vCPU at 2.1 GHz, Python 3.11), the lowest seen there.
NOMINAL_CHUNK_S = 0.6e-3


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float, following: Optional["_Node"]) -> None:
        self.value = value
        self.next = following


def chunk() -> float:
    """Fixed interpreter work: allocation, dict stores and pointer chasing,
    the kind of work the simulator does."""
    table = {}
    head = None
    for i in range(1500):
        head = _Node(i * 1.5, head)
        table[(i * 31) % 257] = head
    total = 0.0
    while head is not None:
        total += head.value
        head = head.next
    return total + len(table)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Meter:
    """Samples the children's CPU speed for as long as it is open."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Meter":
        # Pins the calling thread; the children it spawns inherit the pin.
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            chunk()
            self._samples.append((now(), time.thread_time() - start))

    def slowdown(self, begin: float, end: float) -> float:
        """Mean slowdown over the monotonic interval ``[begin, end]``; the
        nearest sample stands in for an interval shorter than a period."""
        samples = self._samples
        lo = bisect.bisect_left(samples, (begin, 0.0))
        hi = bisect.bisect_right(samples, (end, float("inf")))
        inside = [cost for _, cost in samples[lo:hi]]
        if not inside:
            middle = (begin + end) / 2
            nearest = min(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [nearest[1]]
        return statistics.fmean(inside) / NOMINAL_CHUNK_S
