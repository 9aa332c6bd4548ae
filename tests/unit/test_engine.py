"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 4.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("method", ["schedule", "defer", "at"])
@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_nan_and_negative_times_rejected(method, value):
    sim = Simulator()
    sim.run(until=2.0)  # at() rejects an absolute time before now
    bad = value if method != "at" else sim.now + value
    with pytest.raises(SimulationError):
        getattr(sim, method)(bad, lambda: None)
    assert sim.pending() == 0 and sim.queue_size() == 0


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_call_soon_runs_at_current_time_after_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "first")

    def at_one():
        fired.append("second")
        sim.call_soon(fired.append, "third")

    sim.schedule(1.0, at_one)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_events_processed_counts_fired_only():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_processed == 1


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.pending() == 1


def test_max_events_cap():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


# ----------------------------------------------------------------------
# Hot-path invariants: FIFO tie-breaking, the call_soon fast path, and
# heap self-compaction under cancellation-heavy load.
# ----------------------------------------------------------------------
def test_fifo_preserved_across_mixed_schedule_at_call_soon():
    """Events at one timestamp fire in exact submission order regardless
    of which scheduling API queued them."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "via-schedule-0")
    sim.at(1.0, fired.append, "via-at-1")

    def at_one():
        fired.append("first-at-1")
        sim.call_soon(fired.append, "soon-2")
        sim.at(1.0, fired.append, "at-now-3")
        sim.call_soon(fired.append, "soon-4")
        sim.schedule(0.0, fired.append, "zero-delay-5")

    sim.schedule(0.5, lambda: sim.at(1.0, at_one))
    sim.run()
    assert fired == [
        "via-schedule-0", "via-at-1", "first-at-1",
        "soon-2", "at-now-3", "soon-4", "zero-delay-5",
    ]


def test_call_soon_interleaves_with_heap_events_by_seq():
    """A heap event at t=now queued *before* a call_soon fires before it;
    one queued after fires after it."""
    sim = Simulator()
    fired = []

    def driver():
        sim.call_soon(fired.append, "soon")
        sim.at(sim.now, fired.append, "at-after-soon")

    sim.at(2.0, fired.append, "heap-before")  # smaller seq, same time
    sim.at(2.0, driver)
    sim.run()
    assert fired == ["heap-before", "soon", "at-after-soon"]


def test_cancel_call_soon_event():
    sim = Simulator()
    fired = []

    def driver():
        ev = sim.call_soon(fired.append, "cancelled")
        sim.call_soon(fired.append, "kept")
        ev.cancel()

    sim.schedule(1.0, driver)
    sim.run()
    assert fired == ["kept"]


def test_pending_is_o1_and_counts_live_only():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending() == 100
    for ev in events[::2]:
        ev.cancel()
    assert sim.pending() == 50


def test_timeout_timer_storm_self_compacts():
    """The actor server's pattern: every request schedules a far-future
    timeout timer and almost always cancels it.  Dead entries must not
    accumulate in the queue."""
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        timer = sim.schedule(1e6, lambda: None)
        timer.cancel()
        if fired[0] < 20_000:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    assert fired[0] == 20_000
    # Garbage (queued-but-cancelled entries) stays bounded by the live
    # count, not by the 20k cancellations.
    garbage = sim.queue_size() - sim.pending()
    assert garbage <= max(64, sim.pending() + 1)


def test_cancellation_during_compaction_window():
    """Cancelling while many dead entries await compaction must neither
    fire cancelled events nor drop live ones."""
    sim = Simulator()
    fired = []
    live = [sim.schedule(50.0 + i, fired.append, i) for i in range(10)]
    dead = [sim.schedule(100.0 + i, fired.append, 1000 + i) for i in range(500)]
    # Cancel in an order that straddles the compaction threshold.
    for ev in dead[:300]:
        ev.cancel()
    extra = sim.schedule(60.0, fired.append, "late")
    for ev in dead[300:]:
        ev.cancel()
    extra.cancel()
    live[3].cancel()
    sim.run()
    assert fired == [0, 1, 2, 4, 5, 6, 7, 8, 9]
    assert sim.pending() == 0


def test_run_until_preserves_unfired_events_after_putback():
    """run(until=...) must leave the next event intact (the engine peeks
    the slab before knowing the horizon stops it)."""
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == []
    assert sim.pending() == 1
    sim.run(until=10.0)
    assert fired == ["late"]


def test_defer_fires_like_schedule():
    sim = Simulator()
    fired = []
    sim.defer(1.0, fired.append, "a")
    sim.defer(0.0, fired.append, "b")
    with pytest.raises(SimulationError):
        sim.defer(-1.0, fired.append, "never")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.events_processed == 2
