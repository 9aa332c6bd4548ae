"""Reference for the SEDA stage and CPU pool: the burst-per-item pair.

This is ``repro.sim.cpu`` (``CpuBurst``, ``CpuPool``) and
``repro.seda.stage`` (``StageEvent``, ``StageStats``, ``StatsWindow``,
``Stage``) as they stood at 07c56e1 (less the trace context slot and
the observer hooks, gone from both), before the stage event became the
CPU pool's work item itself: here every dispatched stage event is wrapped
in a fresh ``CpuBurst`` submitted through ``CpuPool.submit``, and
``Stage._compute_done`` copies the burst's grant time back before the
completion (or its blocking-wait deferral) runs.  ``test_prop_stage.py``
requires the shipped pair to reproduce this one's completion sequence,
stage counters and pool accounting bit for bit.  Do not optimise this
file.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.engine import Simulator


class CpuBurst:
    """One compute burst submitted to the pool.

    Attributes record the Fig.-9 breakdown for the burst: ``submit_time``
    (entered the run queue), ``grant_time`` (started on a core) and
    ``finish_time``; ``ready_time`` is the difference the §5.4 estimator
    infers but never observes directly.
    """

    __slots__ = (
        "compute",
        "inflated",
        "callback",
        "args",
        "submit_time",
        "grant_time",
        "finish_time",
    )

    def __init__(self, compute: float, callback: Callable[..., Any], args: tuple):
        self.compute = compute
        self.inflated = compute
        self.callback = callback
        self.args = args
        self.submit_time = 0.0
        self.grant_time = 0.0
        self.finish_time = 0.0

    @property
    def ready_time(self) -> float:
        """Time spent runnable but not running (``r`` in the paper)."""
        return self.grant_time - self.submit_time


class CpuPool:
    """``processors`` simulated cores shared by all stages of one server."""

    def __init__(
        self,
        sim: Simulator,
        processors: int,
        switch_factor: float = 0.05,
        dispatch_overhead: float = 2e-6,
    ):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.sim = sim
        self.processors = processors
        self.switch_factor = switch_factor
        self.dispatch_overhead = dispatch_overhead
        self.registered_threads = 0
        # Fault-injection hook: compute runs `throttle`x slower while a
        # SlowSilo fault is active.  Exactly 1.0 means untouched — the
        # grant path multiplies only when it differs, so fault-free runs
        # perform the identical float arithmetic as before.
        self.throttle = 1.0

        self._free = processors
        self._queue: deque[CpuBurst] = deque()

        # Accounting (monotone counters; callers diff them per window).
        self.busy_time = 0.0
        self.ready_time_total = 0.0
        self.bursts_completed = 0

    # ------------------------------------------------------------------
    # Thread registration (drives the oversubscription penalty)
    # ------------------------------------------------------------------
    def register_threads(self, delta: int) -> None:
        """Inform the pool that the server's total thread count changed."""
        self.registered_threads += delta
        if self.registered_threads < 0:
            raise ValueError("registered thread count went negative")

    def inflation(self) -> float:
        """Current compute-time inflation factor from oversubscription."""
        excess = max(0, self.registered_threads - self.processors)
        return 1.0 + self.switch_factor * excess

    # ------------------------------------------------------------------
    # Burst submission
    # ------------------------------------------------------------------
    def submit(self, compute: float, callback: Callable[..., Any], *args: Any) -> CpuBurst:
        """Submit a compute burst; ``callback(burst, *args)`` fires when done."""
        if compute < 0:
            raise ValueError(f"negative compute time {compute}")
        burst = CpuBurst(compute, callback, args)
        burst.submit_time = self.sim.now
        if self._free > 0:
            self._grant(burst)
        else:
            self._queue.append(burst)
        return burst

    def _grant(self, burst: CpuBurst) -> None:
        self._free -= 1
        now = self.sim.now
        burst.grant_time = now
        # Inline inflation(): this runs once per burst.
        excess = self.registered_threads - self.processors
        factor = 1.0 + self.switch_factor * excess if excess > 0 else 1.0
        inflated = burst.compute * factor + self.dispatch_overhead
        if self.throttle != 1.0:
            inflated *= self.throttle
        burst.inflated = inflated
        self.sim.defer(inflated, self._finish, burst)

    def _finish(self, burst: CpuBurst) -> None:
        now = self.sim.now
        burst.finish_time = now
        self.busy_time += burst.inflated
        self.ready_time_total += burst.grant_time - burst.submit_time
        self.bursts_completed += 1
        self._free += 1
        queue = self._queue
        if queue:
            self._grant(queue.popleft())
        burst.callback(burst, *burst.args)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def run_queue_length(self) -> int:
        """Bursts waiting for a core right now."""
        return len(self._queue)

    @property
    def cores_busy(self) -> int:
        return self.processors - self._free

    def utilization(self, busy_before: float, time_before: float) -> float:
        """Mean utilization over the window since a prior sample.

        Callers snapshot ``(pool.busy_time, sim.now)`` and pass the old
        values here; returns busy core-seconds divided by available
        core-seconds, in [0, ~1].
        """
        elapsed = self.sim.now - time_before
        if elapsed <= 0:
            return 0.0
        return (self.busy_time - busy_before) / (elapsed * self.processors)


class StageEvent:
    """One unit of work flowing through a stage."""

    __slots__ = (
        "compute",
        "wait",
        "callback",
        "args",
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
        event = StageEvent(compute, wait, callback, args)
        event.enqueue_time = self.sim.now
        self.stats.arrivals += 1
        self._queue.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        queue = self._queue
        if not queue or self._busy >= self._threads:
            return
        now = self.sim.now
        submit = self.cpu.submit
        while queue and self._busy < self._threads:
            self._busy += 1
            event = queue.popleft()
            event.dispatch_time = now
            submit(event.compute, self._compute_done, event)

    def _compute_done(self, burst: CpuBurst, event: StageEvent) -> None:
        event.grant_time = burst.grant_time
        event.compute_done_time = self.sim.now
        if event.wait > 0:
            # Blocking wait: the thread is held but the core is released.
            self.sim.defer(event.wait, self._complete, event)
        else:
            self._complete(event)

    def _complete(self, event: StageEvent) -> None:
        now = self.sim.now
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
        if san is None:
            event.callback(event, *event.args)
            return
        # Sanitizer armed: attribute the callback (and anything it touches)
        # to this stage unless a finer-grained context is pushed inside.
        san.push_context(f"stage:{self.name}")
        try:
            event.callback(event, *event.args)
        finally:
            san.pop_context()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stage({self.name!r}, threads={self._threads}, busy={self._busy}, "
            f"queued={len(self._queue)})"
        )
