"""Isolated kernels of the simulation hot path.

Each function drives one layer with nothing else running and returns
``(units_done, wall_seconds, extras)``:

* ``event_loop``       — raw engine throughput: chains of self-
  rescheduling callbacks (schedule + heap pop per event).
* ``cancellation``     — the timeout-timer storm: every fired event also
  schedules-and-cancels a far-future timer, the pattern the actor
  server's per-call timeouts produce.  Exercises slab cancellation and
  heap self-compaction.
* ``stage_pipeline``   — the SEDA stage -> CpuPool -> stage work-item
  cycle (two stages over a shared 8-core pool).
* ``histogram``        — streaming :class:`HistogramRecorder` record
  throughput.
* ``spacesaving``      — weighted offers into the Space-Saving summary
  under constant eviction pressure; ``extras`` reports the final heap
  length, the direct witness of the offer() heap-churn fix.

All kernels are deterministic in *simulated* behaviour; only wall-clock
throughput varies between machines.  There is no runner here: the
end-to-end benchmark (``benchmarks/e2e/isolated.py``) times these in
reference seconds and reports them as its per-layer ``ns_per_*`` rows,
and ``benchmarks/perf/test_perf_suite.py`` calls them directly as
regression tripwires.
"""

from __future__ import annotations

import time
from typing import Callable

from ..sim.engine import Simulator

__all__ = ["BENCHMARKS"]


# ----------------------------------------------------------------------
# Individual benchmarks.  Each returns (units_done, wall_seconds, extras).
# ----------------------------------------------------------------------
def bench_event_loop(events: int = 200_000, chains: int = 100) -> tuple[int, float, dict]:
    sim = Simulator()
    fired = [0]

    def tick(i: int) -> None:
        fired[0] += 1
        if fired[0] < events:
            sim.schedule(0.001, tick, i)

    for i in range(chains):
        sim.schedule(0.001 * (i + 1), tick, i)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return fired[0], elapsed, {"chains": chains}


def bench_cancellation(events: int = 100_000) -> tuple[int, float, dict]:
    sim = Simulator()
    fired = [0]
    noop = lambda: None  # noqa: E731

    def tick() -> None:
        fired[0] += 1
        timer = sim.schedule(10.0, noop)  # a timer armed ...
        timer.cancel()                    # ... and cancelled before due
        if fired[0] < events:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return fired[0], elapsed, {"final_queue_size": sim.queue_size()}


def bench_stage_pipeline(items: int = 100_000) -> tuple[int, float, dict]:
    from ..seda.stage import Stage
    from ..sim.cpu import CpuPool

    sim = Simulator()
    cpu = CpuPool(sim, processors=8)
    first = Stage(sim, cpu, "first", threads=4)
    second = Stage(sim, cpu, "second", threads=4)
    done = [0]

    def forward(event) -> None:
        second.submit(1e-5, finish)

    def finish(event) -> None:
        done[0] += 1
        if done[0] < items:
            first.submit(1e-5, forward)

    for _ in range(32):
        first.submit(1e-5, forward)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return done[0], elapsed, {"stages": 2, "processors": 8}


def bench_histogram(samples: int = 500_000) -> tuple[int, float, dict]:
    from .metrics import HistogramRecorder

    hist = HistogramRecorder()
    # Deterministic pseudo-latencies spanning ~3 decades.
    values = [1e-4 * (1.0 + (i * 2654435761 % 1000) / 100.0) for i in range(4096)]
    start = time.perf_counter()
    record = hist.record
    for i in range(samples):
        record(values[i & 4095])
    elapsed = time.perf_counter() - start
    return samples, elapsed, {
        "buckets": hist.num_buckets,
        "p99": hist.p99,
    }


def bench_spacesaving(offers: int = 300_000, capacity: int = 256
                      ) -> tuple[int, float, dict]:
    from ..graph.spacesaving import SpaceSaving

    # Deterministic key stream over 16x capacity distinct keys: steady
    # mix of in-place increments (the churn-fix path) and evictions.
    keys = [(i * 2654435761) % (capacity * 16) for i in range(8192)]
    summary = SpaceSaving(capacity)
    offer = summary.offer
    start = time.perf_counter()
    for i in range(offers):
        offer(keys[i & 8191], 1.5)
    elapsed = time.perf_counter() - start
    return offers, elapsed, {
        "capacity": capacity,
        # Pre-fix this was ~offers long (one push per increment);
        # post-fix it stays O(capacity).
        "final_heap_len": len(summary._heap or ()),
    }


# name -> (kernel,): the frozen end-to-end contract reads
# ``BENCHMARKS[name][0]`` (benchmarks/e2e/isolated.py), so the tuple
# shape stays until a [benchmark] PR unpins it.
BENCHMARKS: dict[str, tuple[Callable[..., tuple[int, float, dict]]]] = {
    "event_loop": (bench_event_loop,),
    "cancellation": (bench_cancellation,),
    "stage_pipeline": (bench_stage_pipeline,),
    "histogram": (bench_histogram,),
    "spacesaving": (bench_spacesaving,),
}
