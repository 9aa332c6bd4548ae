"""Discrete-event simulation engine.

Everything in the reproduction — SEDA servers, the CPU scheduler, the
network, the actor runtime — is driven by one :class:`Simulator` instance.
Determinism matters because the paper's algorithms (partitioning rounds,
controller periods) are sensitive to ordering, and reproducible runs are
what make the benchmark tables comparable across machines.  Events fire
in ``(time, seq)`` order: timestamp first, then FIFO insertion order for
events scheduled at the same instant.

The engine is the hot path of every experiment, so its internals are
organised for throughput rather than elegance:

* **Tuple heap, slab for handles only.**  A queue entry is a
  ``(time, seq, callback, args)`` tuple; ``(time, seq)`` is unique, so
  CPython compares entries in C and never reaches the callback — no
  Python-level ``__lt__`` per sift step.  An event with a cancellation
  handle is queued as ``(time, seq, None, None)`` and keeps its callback
  in a slab (``dict`` keyed by ``seq``); cancellation is an O(1) slab
  pop.  :meth:`pending` is an O(1) count: queue entries minus the
  cancelled ones not yet purged.
* **Same-instant FIFO fast path.**  :meth:`call_soon` (and ``at(now)``)
  append to a deque instead of paying two O(log n) heap operations; the
  run loop merges the deque with the heap by ``(time, seq)`` so ordering
  is bit-for-bit identical to a pure-heap engine.
* **Self-compacting heap.**  Cancelled entries are skipped lazily when
  popped, but when they outnumber live entries (a deadline table's one
  timer re-armed or cleared, a retry backoff evicted by admission; call
  timeouts have no timer each) the queues are rebuilt with only live
  entries, bounding memory and pop cost under cancellation-heavy load.
* **Handle-free scheduling.**  :meth:`defer` is :meth:`schedule` without
  the :class:`Event` cancellation handle, for internal hot paths that
  never cancel (stage completions, blocking waits, network delivery):
  its entry carries the callback itself, so it costs no slab insert, no
  slab pop and no second tuple.
* **A plain clock.**  ``now`` is an attribute the run loop writes, not a
  property: every layer reads it at least once per work item.

Time is a float in **seconds** of simulated time.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Event:
    """A cancellation handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`, :meth:`Simulator.at` and
    :meth:`Simulator.call_soon` so the caller can cancel it.  Cancellation
    is O(1): the callback is dropped from the engine's slab and the dead
    queue entry is skipped (or compacted away) later.
    """

    __slots__ = ("_sim", "time", "seq", "cancelled")

    def __init__(self, sim: "Simulator", time: float, seq: int):
        self._sim = sim
        self.time = time
        self.seq = seq
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._discard(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run(until=10.0)

    Callbacks may schedule further events; :meth:`run` drains the queues in
    ``(time, seq)`` order until the horizon is reached or no events remain.
    """

    # Compact only past this queue size: tiny queues are cheap to scan and
    # rebuilding them would dominate.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        #: Current simulated time in seconds; only the run loop writes it.
        self.now = 0.0
        # seq -> (callback, args) of every live event that has a handle:
        # its queue entry is (time, seq, None, None), live while in here.
        self._slab: dict[int, tuple[Callable[..., Any], tuple]] = {}
        # (time, seq, callback, args) entries; callback None: see _slab.
        self._heap: list[tuple] = []
        # Entries scheduled at the current instant; appended in (time, seq)
        # order so the leftmost element is always the deque's minimum.
        self._soon: deque[tuple] = deque()
        self._seq = 0
        self._dead = 0  # cancelled entries still sitting in _heap/_soon
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total callbacks fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) + len(self._soon) - self._dead

    def queue_size(self) -> int:
        """Total queue entries including not-yet-compacted cancelled ones.

        ``queue_size() - pending()`` is the current garbage count; the
        compaction regression tests assert it stays bounded.
        """
        return len(self._heap) + len(self._soon)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule with negative/NaN delay {delay!r}")
        time = self.now + delay
        return Event(self, time, self._push(time, callback, args))

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (already at t={self.now})"
            )
        return Event(self, time, self._push(time, callback, args))

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current instant (after any
        events already queued for this instant)."""
        return Event(self, self.now, self._push(self.now, callback, args))

    def defer(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """:meth:`schedule` without allocating a cancellation handle.

        For internal hot paths that fire-and-forget (stage completions,
        blocking waits, message delivery).  The event cannot be cancelled:
        its queue entry carries the callback, and the slab never sees it.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule with negative/NaN delay {delay!r}")
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        if time == now:
            self._soon.append((time, seq, callback, args))
        else:
            heappush(self._heap, (time, seq, callback, args))

    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> int:
        seq = self._seq
        self._seq = seq + 1
        self._slab[seq] = (callback, args)
        if time == self.now:
            # Same-instant fast path: seq is strictly increasing and now
            # is nondecreasing, so appends keep the deque sorted.
            self._soon.append((time, seq, None, None))
        else:
            heappush(self._heap, (time, seq, None, None))
        return seq

    # ------------------------------------------------------------------
    # Cancellation / compaction
    # ------------------------------------------------------------------
    def _discard(self, seq: int) -> None:
        if self._slab.pop(seq, None) is None:
            return  # already fired or already cancelled
        self._dead += 1
        garbage = self._dead
        if garbage > self._COMPACT_MIN and 2 * garbage > len(self._heap) + len(self._soon):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queues with live entries only."""
        slab = self._slab
        heap = self._heap
        self._heap = [entry for entry in heap
                      if entry[2] is not None or entry[1] in slab]
        heapify(self._heap)
        if len(heap) - len(self._heap) < self._dead:  # dead entries in _soon
            self._soon = deque(entry for entry in self._soon
                               if entry[2] is not None or entry[1] in slab)
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when no live events remain."""
        fired = self._drain(until=None, max_events=1)
        return fired == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queues.

        Args:
            until: stop once simulated time would exceed this horizon; the
                clock is advanced to exactly ``until``.  ``None`` runs to
                exhaustion.
            max_events: optional safety valve on the number of callbacks.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        try:
            self._drain(until, max_events)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        slab = self._slab
        fired = 0
        while True:
            soon = self._soon  # rebound: _compact may replace either queue
            heap = self._heap
            if soon and (not heap or soon[0] < heap[0]):
                entry = soon.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                break
            time, seq, callback, args = entry
            if callback is None:
                item = slab.pop(seq, None)
                if item is None:
                    self._dead -= 1  # cancelled: its entry is purged
                    continue
                callback, args = item
            if until is not None and time > until:
                # Not consumed after all.  The heap takes it back even off
                # the deque: the merge orders both queues by (time, seq).
                if entry[2] is None:
                    slab[seq] = item
                heappush(heap, entry)
                break
            self.now = time
            self._events_processed += 1
            callback(*args)
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(t={self.now:.6f}, pending={self.pending()})"
