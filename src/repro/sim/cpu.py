"""Simulated processors with a FIFO run queue.

This module models the machine layer that gives the paper's measurements
their meaning.  §5.4 of the paper breaks the processing of one event into

* time queued in the SEDA stage (modeled by :mod:`repro.seda.stage`),
* **ready time** ``r`` — runnable but waiting for a processor,
* **compute time** ``x`` — actually executing on a core,
* **blocking wait** ``w`` — off-CPU, waiting on a synchronous call.

:class:`CpuPool` provides ``r`` and ``x``: stage threads submit compute
bursts; with ``p`` processors at most ``p`` bursts run concurrently and the
rest queue FIFO, accruing ready time.  A stage's work item goes onto a
core as itself — no burst wraps it — and when its compute ends the
engine calls the item's ``on_cpu`` hook directly: the hook releases the
core and runs the completion in one frame (see :class:`CpuBurst`).
Because all stages of a server share one pool, allocating more threads
to one stage steals processor time from the others — exactly the
coupling the thread-allocation optimization exploits.

Oversubscription cost.  Real kernels charge context-switch and cache-
pollution overhead when runnable threads exceed cores.  We model it as a
multiplicative inflation of compute time::

    inflation = 1 + switch_factor * max(0, registered_threads - processors)

plus a fixed per-dispatch overhead.  This is what makes the Figure-5
heatmap non-trivial: too few threads and stage queues blow up; too many
and every burst pays the inflation.  :data:`SWITCH_FACTOR` and
:data:`DISPATCH_OVERHEAD` are the model's values; a silo scales the
overhead by its time scale.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .engine import Simulator

__all__ = ["CpuBurst", "CpuPool"]

SWITCH_FACTOR = 0.05        # compute inflation per thread beyond the cores
DISPATCH_OVERHEAD = 2e-6    # seconds of context switch per burst


class CpuBurst:
    """One compute burst submitted through :meth:`CpuPool.submit`.

    The pool's work items share one field set: ``dispatch_time`` (entered
    the run queue), ``grant_time`` (started on a core), ``inflated`` (the
    core time charged) and ``compute_done_time``.  :meth:`CpuPool._grant`
    has the engine call ``item.on_cpu(item)`` when the compute ends, and
    that hook releases the core first.  A SEDA
    :class:`~repro.seda.stage.StageEvent` is such an item itself (its hook
    is the stage's completion); a burst is the one built for every other
    caller, and its hook is :meth:`CpuPool._finish`, which then calls
    ``callback(burst, *args)``.
    ``ready_time`` is the difference the §5.4 estimator infers but never
    observes directly.
    """

    __slots__ = (
        "compute",
        "inflated",
        "callback",
        "args",
        "on_cpu",
        "dispatch_time",
        "grant_time",
        "compute_done_time",
    )

    def __init__(self, compute: float, callback: Callable[..., Any], args: tuple,
                 on_cpu: Callable[["CpuBurst"], None]):
        self.compute = compute
        self.inflated = compute
        self.callback = callback
        self.args = args
        self.on_cpu = on_cpu
        self.dispatch_time = 0.0
        self.grant_time = 0.0
        self.compute_done_time = 0.0

    @property
    def ready_time(self) -> float:
        """Time spent runnable but not running (``r`` in the paper)."""
        return self.grant_time - self.dispatch_time


class CpuPool:
    """``processors`` simulated cores shared by all stages of one server."""

    def __init__(
        self,
        sim: Simulator,
        processors: int,
        switch_factor: float = SWITCH_FACTOR,
        dispatch_overhead: float = DISPATCH_OVERHEAD,
    ):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.sim = sim
        self.processors = processors
        self.switch_factor = switch_factor
        self.dispatch_overhead = dispatch_overhead
        self.registered_threads = 0
        # inflation(), kept current by register_threads: _grant reads it
        # once per item.
        self._factor = 1.0
        # Fault-injection hook: compute runs `throttle`x slower while a
        # SlowSilo fault is active.  Exactly 1.0 means untouched — the
        # grant path multiplies only when it differs, so fault-free runs
        # perform the identical float arithmetic as before.
        self.throttle = 1.0

        # Free cores and the FIFO run queue; a stage reads and feeds both
        # directly (Stage.submit / Stage._dispatch), with _grant.
        self._free = processors
        self._queue: deque = deque()

        # Accounting (monotone counters; callers diff them per window).
        self.busy_time = 0.0
        self.bursts_completed = 0

    # ------------------------------------------------------------------
    # Thread registration (drives the oversubscription penalty)
    # ------------------------------------------------------------------
    def register_threads(self, delta: int) -> None:
        """Inform the pool that the server's total thread count changed."""
        self.registered_threads += delta
        if self.registered_threads < 0:
            raise ValueError("registered thread count went negative")
        excess = self.registered_threads - self.processors
        self._factor = 1.0 + self.switch_factor * excess if excess > 0 else 1.0

    def inflation(self) -> float:
        """Current compute-time inflation factor from oversubscription."""
        return self._factor

    # ------------------------------------------------------------------
    # Work items
    # ------------------------------------------------------------------
    def submit(self, compute: float, callback: Callable[..., Any], *args: Any) -> CpuBurst:
        """Submit a compute burst; ``callback(burst, *args)`` fires when done."""
        if compute < 0:
            raise ValueError(f"negative compute time {compute}")
        burst = CpuBurst(compute, callback, args, self._finish)
        burst.dispatch_time = self.sim.now
        if self._free > 0:
            self._grant(burst)
        else:
            self._queue.append(burst)
        return burst

    def _grant(self, item) -> None:
        """Start ``item`` on a free core (the caller checked ``_free``);
        the engine calls ``item.on_cpu(item)`` when its compute ends."""
        self._free -= 1
        sim = self.sim
        item.grant_time = sim.now
        inflated = item.compute * self._factor + self.dispatch_overhead
        if self.throttle != 1.0:
            inflated *= self.throttle
        item.inflated = inflated
        sim.defer(inflated, item.on_cpu, item)

    def _finish(self, burst: CpuBurst) -> None:
        """A burst's ``on_cpu``: release the core, then the callback.

        The release is the one every work item's hook performs first;
        :meth:`Stage._complete <repro.seda.stage.Stage._complete>` carries
        the same five statements inline, since it runs once per stage item.
        """
        burst.compute_done_time = self.sim.now
        self.busy_time += burst.inflated
        self.bursts_completed += 1
        self._free += 1
        # The freed core goes to the next queued item before this one's
        # completion runs (and possibly submits more work).
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
