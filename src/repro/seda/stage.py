"""A SEDA stage: task queue + bounded thread pool over shared processors.

Each server stage (receive, application logic, send, ...) owns a FIFO queue
of events and a configurable number of threads (§2, Fig. 2).  A thread
takes one event at a time through the Fig.-9 lifecycle:

    stage-queue wait -> ready time r -> compute x -> blocking wait w

Compute runs on the server's shared :class:`~repro.sim.cpu.CpuPool` (which
supplies ``r`` and inflates ``x`` under oversubscription); the blocking
wait models synchronous I/O and holds the thread *without* holding a core.
One :class:`StageEvent` is the work item from stage queue to core: a
thread hands the event itself to the pool, and when its compute ends the
engine calls the stage's completion directly — one frame that releases
the core and then, after the blocking wait if the event has one, updates
the stage's counters and runs the event's callback.

The stage keeps monotone counters (:class:`StageStats`) from which the
§5.4 estimator derives its inputs.  Crucially, the counters expose only
what the paper can measure on a real system — wall-clock ``z`` and CPU
time ``x`` — while ready time and blocking wait stay hidden and must be
inferred.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..sim.cpu import CpuPool
from ..sim.engine import Simulator

__all__ = ["StageEvent", "StageStats", "StatsWindow", "Stage"]


class StageEvent:
    """One unit of work flowing through a stage — and, once a thread takes
    it, the :class:`~repro.sim.cpu.CpuPool` work item itself."""

    __slots__ = (
        "compute",
        "wait",
        "callback",
        "args",
        "on_cpu",
        "inflated",
        "enqueue_time",
        "dispatch_time",
        "grant_time",
        "compute_done_time",
        "complete_time",
    )

    def __init__(self, compute: float, wait: float, callback: Callable[..., Any], args: tuple):
        self.compute = compute
        self.wait = wait
        self.callback = callback
        self.args = args
        # The end-of-compute hook the engine calls (see CpuBurst), set by
        # the submitting stage: its completion.
        self.on_cpu = None
        self.inflated = compute  # core time charged, set at grant
        self.enqueue_time = 0.0
        self.dispatch_time = 0.0
        self.grant_time = 0.0
        self.compute_done_time = 0.0
        self.complete_time = 0.0

    # Per-event breakdown (used by tests).
    @property
    def queue_wait(self) -> float:
        """Time spent in the stage queue before a thread picked it up."""
        return self.dispatch_time - self.enqueue_time

    @property
    def ready_time(self) -> float:
        """Time runnable but waiting for a processor (``r``)."""
        return self.grant_time - self.dispatch_time

    @property
    def cpu_time(self) -> float:
        """Measured on-CPU time (``x``), inclusive of switch inflation."""
        return self.compute_done_time - self.grant_time

    @property
    def wallclock(self) -> float:
        """``z`` — thread-held wall-clock time: r + x + w."""
        return self.complete_time - self.dispatch_time


@dataclass
class StatsWindow:
    """A snapshot diff of :class:`StageStats` over a sampling window."""

    elapsed: float
    arrivals: int
    completions: int
    mean_z: float
    mean_x: float
    mean_queue_wait: float
    mean_ready: float  # ground truth; the alpha estimator must not use it
    mean_wait: float = 0.0  # blocking wait; observable only with OS/ETW support

    @property
    def arrival_rate(self) -> float:
        return self.arrivals / self.elapsed if self.elapsed > 0 else 0.0


class StageStats:
    """Monotone counters; sample with :meth:`snapshot` + :meth:`window`."""

    __slots__ = (
        "arrivals",
        "completions",
        "sum_z",
        "sum_x",
        "sum_queue_wait",
        "sum_ready",
        "sum_wait",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.completions = 0
        self.sum_z = 0.0
        self.sum_x = 0.0
        self.sum_queue_wait = 0.0
        self.sum_ready = 0.0
        self.sum_wait = 0.0

    def snapshot(self) -> tuple:
        return (
            self.arrivals,
            self.completions,
            self.sum_z,
            self.sum_x,
            self.sum_queue_wait,
            self.sum_ready,
            self.sum_wait,
        )

    def window(self, before: tuple, elapsed: float) -> StatsWindow:
        arrivals = self.arrivals - before[0]
        completions = self.completions - before[1]
        n = max(completions, 1)
        return StatsWindow(
            elapsed=elapsed,
            arrivals=arrivals,
            completions=completions,
            mean_z=(self.sum_z - before[2]) / n,
            mean_x=(self.sum_x - before[3]) / n,
            mean_queue_wait=(self.sum_queue_wait - before[4]) / n,
            mean_ready=(self.sum_ready - before[5]) / n,
            mean_wait=(self.sum_wait - before[6]) / n,
        )


class Stage:
    """A single SEDA stage.

    Args:
        sim: driving simulator.
        cpu: the server's shared processor pool.
        name: stage name ("receiver", "worker", ...).
        threads: initial thread-pool size.
        blocking: whether events of this stage may carry a synchronous
            wait component (the paper's S0 — stages *known* to never block
            — is the complement of this flag).
    """

    # Armed race sanitizer; class-level None so the disarmed completion
    # path pays one attribute load and no per-instance storage.
    _san = None

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuPool,
        name: str,
        threads: int = 1,
        blocking: bool = False,
    ):
        if threads < 1:
            raise ValueError("a stage needs at least one thread")
        self.sim = sim
        self.cpu = cpu
        self.name = name
        self.blocking = blocking
        self.stats = StageStats()

        self._threads = threads
        self._busy = 0
        self._queue: deque[StageEvent] = deque()
        # Every event's on_cpu, bound once.
        self._on_cpu = self._complete
        cpu.register_threads(threads)

    # ------------------------------------------------------------------
    # Thread-pool control (the knob §5 optimizes)
    # ------------------------------------------------------------------
    @property
    def threads(self) -> int:
        return self._threads

    def set_threads(self, n: int) -> None:
        """Resize the pool.  Shrinking is lazy: busy threads finish their
        current event and then retire, as in real SEDA controllers."""
        if n < 1:
            raise ValueError("a stage needs at least one thread")
        self.cpu.register_threads(n - self._threads)
        self._threads = n
        self._dispatch()

    # ------------------------------------------------------------------
    # Event flow
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy_threads(self) -> int:
        return self._busy

    def submit(
        self,
        compute: float,
        callback: Callable[..., Any],
        *args: Any,
        wait: float = 0.0,
    ) -> StageEvent:
        """Enqueue an event; ``callback(event, *args)`` fires at completion."""
        if wait > 0 and not self.blocking:
            raise ValueError(f"stage {self.name!r} is declared non-blocking")
        if compute < 0:
            raise ValueError(f"negative compute time {compute}")
        event = StageEvent(compute, wait, callback, args)
        event.on_cpu = self._on_cpu
        now = self.sim.now
        event.enqueue_time = now
        self.stats.arrivals += 1
        if self._busy < self._threads and not self._queue:
            # An idle thread takes it at once: straight onto a free core,
            # else into the CPU run queue.
            self._busy += 1
            event.dispatch_time = now
            cpu = self.cpu
            if cpu._free > 0:
                cpu._grant(event)
            else:
                cpu._queue.append(event)
        else:
            self._queue.append(event)
        return event

    def _dispatch(self) -> None:
        queue = self._queue
        if not queue or self._busy >= self._threads:
            return
        now = self.sim.now
        cpu = self.cpu
        while queue and self._busy < self._threads:
            self._busy += 1
            event = queue.popleft()
            event.dispatch_time = now
            if cpu._free > 0:
                cpu._grant(event)
            else:
                cpu._queue.append(event)

    def _complete(self, event: StageEvent, waited: bool = False) -> None:
        """Every event's ``on_cpu``: the engine calls it when the event's
        compute ends, and again (``waited``) when its blocking wait ends."""
        now = self.sim.now
        if not waited:
            # Release the core first, as CpuPool._finish does for a bare
            # burst (inline: this runs once per work item).
            cpu = self.cpu
            event.compute_done_time = now
            cpu.busy_time += event.inflated
            cpu.bursts_completed += 1
            cpu._free += 1
            if cpu._queue:
                cpu._grant(cpu._queue.popleft())
            if event.wait > 0:
                # The thread stays held for the wait, without the core.
                self.sim.defer(event.wait, self._complete, event, True)
                return
        event.complete_time = now
        # Inlined per-event breakdown (the property forms are one Python
        # call each; this method runs once per work item).
        dispatch_time = event.dispatch_time
        grant_time = event.grant_time
        st = self.stats
        st.completions += 1
        st.sum_z += now - dispatch_time
        st.sum_x += event.compute_done_time - grant_time
        st.sum_queue_wait += dispatch_time - event.enqueue_time
        st.sum_ready += grant_time - dispatch_time
        st.sum_wait += event.wait
        self._busy -= 1
        if self._queue:
            self._dispatch()
        san = self._san
        if san is not None:
            # Attribute the callback (and anything it touches) to this
            # stage unless a finer-grained context is pushed inside.
            san.push_context(f"stage:{self.name}")
        try:
            event.callback(event, *event.args)
        finally:
            if san is not None:
                san.pop_context()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stage({self.name!r}, threads={self._threads}, busy={self._busy}, "
            f"queued={len(self._queue)})"
        )
