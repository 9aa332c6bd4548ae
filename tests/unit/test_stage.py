"""Unit tests for SEDA stages."""

import pytest

from repro.seda.stage import Stage
from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator


def make_stage(threads=1, processors=4, blocking=False, **kw):
    sim = Simulator()
    cpu = CpuPool(sim, processors, switch_factor=0.0, dispatch_overhead=0.0)
    stage = Stage(sim, cpu, "s", threads=threads, blocking=blocking, **kw)
    return sim, cpu, stage


def test_event_flows_through_and_fires_callback():
    sim, cpu, stage = make_stage()
    done = []
    stage.submit(1.0, lambda ev: done.append(sim.now))
    sim.run()
    assert done == [1.0]


def test_thread_limit_serializes_work():
    sim, cpu, stage = make_stage(threads=1)
    finish = []
    for _ in range(3):
        stage.submit(1.0, lambda ev: finish.append(sim.now))
    sim.run()
    assert finish == [1.0, 2.0, 3.0]


def test_more_threads_more_parallelism():
    sim, cpu, stage = make_stage(threads=3)
    finish = []
    for _ in range(3):
        stage.submit(1.0, lambda ev: finish.append(sim.now))
    sim.run()
    assert finish == [1.0, 1.0, 1.0]


def test_threads_capped_by_processors():
    # 4 threads but 2 cores: ready time shows up in z but not queue wait.
    sim = Simulator()
    cpu = CpuPool(sim, 2, switch_factor=0.0, dispatch_overhead=0.0)
    stage = Stage(sim, cpu, "s", threads=4)
    events = []
    for _ in range(4):
        stage.submit(1.0, lambda ev: events.append(ev))
    sim.run()
    assert sorted(ev.complete_time for ev in events) == [1.0, 1.0, 2.0, 2.0]
    assert all(ev.queue_wait == 0.0 for ev in events)
    assert sorted(ev.ready_time for ev in events) == [0.0, 0.0, 1.0, 1.0]


def test_queue_wait_recorded_when_threads_busy():
    sim, cpu, stage = make_stage(threads=1)
    events = []
    stage.submit(1.0, lambda ev: events.append(ev))
    stage.submit(1.0, lambda ev: events.append(ev))
    sim.run()
    assert events[0].queue_wait == 0.0
    assert events[1].queue_wait == pytest.approx(1.0)


def test_blocking_wait_releases_core_but_holds_thread():
    sim = Simulator()
    cpu = CpuPool(sim, 1, switch_factor=0.0, dispatch_overhead=0.0)
    blocking = Stage(sim, cpu, "b", threads=1, blocking=True)
    other = Stage(sim, cpu, "o", threads=1)
    finish = {}
    blocking.submit(0.5, lambda ev: finish.setdefault("b", sim.now), wait=5.0)
    other.submit(1.0, lambda ev: finish.setdefault("o", sim.now))
    sim.run()
    # The blocking event holds its thread for 5.5s but frees the core at
    # 0.5s, letting the other stage finish at 1.5s.
    assert finish["o"] == pytest.approx(1.5)
    assert finish["b"] == pytest.approx(5.5)


def test_wait_on_nonblocking_stage_rejected():
    sim, cpu, stage = make_stage(blocking=False)
    with pytest.raises(ValueError):
        stage.submit(1.0, lambda ev: None, wait=1.0)


def test_set_threads_grows_dispatches_queued_work():
    sim, cpu, stage = make_stage(threads=1)
    finish = []
    for _ in range(2):
        stage.submit(1.0, lambda ev: finish.append(sim.now))

    sim.schedule(0.1, stage.set_threads, 2)
    sim.run()
    assert finish == [pytest.approx(1.0), pytest.approx(1.1)]


def test_set_threads_shrink_is_lazy():
    sim, cpu, stage = make_stage(threads=2)
    finish = []
    for _ in range(4):
        stage.submit(1.0, lambda ev: finish.append(sim.now))
    stage.set_threads(1)  # two events already running keep going
    sim.run()
    assert finish == [1.0, 1.0, 2.0, 3.0]


def test_set_threads_updates_cpu_registration():
    sim, cpu, stage = make_stage(threads=2)
    assert cpu.registered_threads == 2
    stage.set_threads(5)
    assert cpu.registered_threads == 5
    stage.set_threads(1)
    assert cpu.registered_threads == 1


def test_minimum_one_thread():
    sim, cpu, stage = make_stage()
    with pytest.raises(ValueError):
        stage.set_threads(0)
    with pytest.raises(ValueError):
        Stage(sim, cpu, "bad", threads=0)


def test_stats_windows():
    sim, cpu, stage = make_stage(threads=1)
    stage.submit(2.0, lambda ev: None)
    stage.submit(2.0, lambda ev: None)
    before = stage.stats.snapshot()
    sim.run()
    window = stage.stats.window(before, elapsed=4.0)
    assert window.completions == 2
    assert window.arrivals == 0  # both arrived before the snapshot
    assert window.mean_x == pytest.approx(2.0)
    assert window.mean_z == pytest.approx(2.0)
    assert window.mean_queue_wait == pytest.approx(1.0)  # 0 and 2, mean 1


def test_queue_length_property():
    sim, cpu, stage = make_stage(threads=1)
    for _ in range(3):
        stage.submit(1.0, lambda ev: None)
    assert stage.queue_length == 2
    assert stage.busy_threads == 1


@pytest.mark.parametrize("processors", [1, 2])
def test_stage_releases_the_core_as_the_pool_does(processors):
    """A stage event's completion releases its core inline; a bare burst's
    is released by ``CpuPool._finish``.  The same work either way leaves
    the same core accounting at every completion and at the end, and the
    pool grants the queued items in the same order at the same instants."""
    computes = [0.3, 1.0, 0.2, 0.7, 0.5, 0.1]

    def run(through_stage):
        sim = Simulator()
        cpu = CpuPool(sim, processors, switch_factor=0.05,
                      dispatch_overhead=1e-3)
        cpu.throttle = 1.5
        seen = []

        def done(item, i):
            seen.append((i, sim.now, item.grant_time, item.inflated,
                         cpu.busy_time, cpu.bursts_completed, cpu._free,
                         len(cpu._queue)))

        if through_stage:
            stage = Stage(sim, cpu, "s", threads=len(computes))
            for i, compute in enumerate(computes):
                stage.submit(compute, done, i)
        else:
            cpu.register_threads(len(computes))
            for i, compute in enumerate(computes):
                cpu.submit(compute, done, i)
        sim.run()
        return seen, cpu.busy_time, cpu.bursts_completed

    assert run(True) == run(False)
