"""One deadline table for the timeouts of a set of outstanding calls."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Mapping

__all__ = ["Deadlines"]


class Deadlines:
    """The timeouts of a set of outstanding calls: ``(deadline, call_id,
    *payload)`` entries in a min-heap under one ``clock.at`` timer.

    An entry whose ``call_id`` has left ``live`` (answered, or its caller
    crashed) is skipped when it surfaces; a heap of more than twice the
    other live calls + 64 keeps only the live ones.  A due entry leaves
    the heap before ``fire(call_id, *payload)`` runs, so ``fire`` may add
    entries (a timed-out request's ``on_complete`` issuing the next one).
    """

    __slots__ = ("clock", "live", "fire", "heap", "timer")

    def __init__(self, clock, live: Mapping[int, Any], fire: Callable):
        self.clock = clock
        self.live = live
        self.fire = fire
        self.heap: list[tuple] = []
        self.timer = None

    def add(self, deadline: float, call_id: int, *payload: Any) -> None:
        """Time out ``call_id``, already in ``live``, at ``deadline``."""
        heap, live = self.heap, self.live
        if len(heap) > 2 * (len(live) - 1) + 64:
            heap[:] = [entry for entry in heap if entry[1] in live]
            heapify(heap)
        heappush(heap, (deadline, call_id, *payload))
        if heap[0][1] == call_id:  # the new earliest: (re)arm
            if self.timer is not None:
                self.timer.cancel()
            self.timer = self.clock.at(deadline, self._expire)

    def _expire(self) -> None:
        self.timer = None
        heap, live, now = self.heap, self.live, self.clock.now
        while heap and (heap[0][0] <= now or heap[0][1] not in live):
            entry = heappop(heap)
            if entry[1] in live:
                self.fire(*entry[1:])
        if heap and self.timer is None:  # fire() may have armed it
            self.timer = self.clock.at(heap[0][0], self._expire)

    def clear(self) -> None:
        self.heap.clear()
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
