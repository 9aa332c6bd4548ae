"""Reference clock: host time that a slowed-down machine cannot stretch.

The benchmark runs on small shared VMs whose speed changes for minutes
at a time (a neighbour's load: the same code ran 1.3-1.9x slower for a
whole five-minute stretch while this was written), which no median over
the repeats *inside* one run can see.  So every host-time quantity is
reported in **reference seconds**: a fixed pure-Python kernel is timed
right next to the measured interval, and

    reference seconds = measured seconds x NOMINAL_S / kernel seconds

i.e. the time the work would have taken had the machine run the kernel
at its nominal speed.  On a quiet machine of the baseline's speed the
factor is 1 and reference seconds are seconds.  The raw wall time is kept
beside every normalised value in the run record.

The kernel is not program code (a faster program must not speed its own
yardstick up) but is made of the operations the program's hot paths are
made of — heap and deque traffic, dict churn, bound-method and closure
calls, small-object allocation, float arithmetic — so that interference
slows both alike.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

# One kernel() on the baseline machine when quiet (median of 4,800 runs in
# its quietest stretch; see README.md "Reference seconds").  A constant: a per-run calibration could not tell a
# slow stretch from a slow machine.
NOMINAL_S = 0.0034


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value: float):
        self.value = value
        self.hits = 0

    def touch(self, amount: float) -> float:
        self.hits += 1
        self.value += amount
        return self.value


def kernel() -> float:
    """Run the fixed kernel once; returns the seconds it took."""
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, _Cell] = {}
    queue: deque[_Cell] = deque()
    total = 0.0

    def fire(cell: _Cell, *args: float) -> None:
        nonlocal total
        total += cell.touch(args[0])

    for i in range(3_700):
        heapq.heappush(heap, ((i * 7919) % 1013 * 1e-3, i))
        cell = table.get(i & 255)
        if cell is None:
            cell = table[i & 255] = _Cell(0.0)
        queue.append(cell)
        if len(heap) > 64:
            when, _ = heapq.heappop(heap)
            fire(queue.popleft(), when, i)
        if i & 1023 == 1023:
            table.clear()
    return time.perf_counter() - t0


class RefClock:
    """Kernel samples taken around one measured interval."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> None:
        """One speed probe: three kernel runs, ~10 ms.  The collector is
        off meanwhile — a full collection of the *program's* heap landing
        in the kernel would read as a slow machine."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples += (kernel(), kernel(), kernel())
        finally:
            if was_enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean kernel time since the last call, over nominal; forgets the
        samples except the last probe (it also opens the next interval).
        The mean, not a minimum or median: when the machine alternates
        between fast and slow every few milliseconds the measured work
        pays the average, and so must the yardstick."""
        mean = sum(self.samples) / len(self.samples)
        del self.samples[:-3]
        return mean / NOMINAL_S
