"""Perf regression tripwires over the isolated kernels of
:mod:`repro.bench.perf`, called directly at smoke size.

There is no runner here: host performance is measured by
``benchmarks/e2e/run.py`` (whose ``isolated.py`` times these same
kernels in reference seconds) and compared with ``compare.py``.  What
stays is what a number in a ledger cannot catch on its own — a floor
and two structural bounds that fail loudly.
"""

from repro.bench import perf


def test_event_loop_throughput_floor():
    """Perf regression tripwire: the optimized engine sustains well over
    the seed engine's ~356K events/sec (measured at PR 1; the acceptance
    bar was 1.5x = 534K).  The floor here is deliberately loose so slow
    CI machines do not flake, while a return to seed-level throughput
    still fails.  Best of three: noise only ever slows a run down."""
    best = 0.0
    for _ in range(3):
        events, seconds, _ = perf.bench_event_loop(events=20_000)
        best = max(best, events / seconds)
    assert best > 400_000


def test_spacesaving_offer_heap_stays_bounded():
    """The offer() churn fix: in-place increments must not grow the
    lazily-invalidated min-heap.  Pre-fix the heap held one entry per
    offer (30k here); post-fix it is O(capacity)."""
    _, _, extras = perf.bench_spacesaving(offers=30_000)
    assert extras["final_heap_len"] <= 2 * extras["capacity"] + 64


def test_cancellation_storm_stays_compact():
    _, _, extras = perf.bench_cancellation(events=10_000)
    # The kernel reports the engine's final queue size; a leak of the
    # 10k cancelled timers would show up here.
    assert extras["final_queue_size"] < 1_000
