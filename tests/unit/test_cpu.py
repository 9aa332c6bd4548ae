"""Unit tests for the simulated processor pool."""

import pytest

from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator


def make_pool(processors=2, switch_factor=0.0, dispatch_overhead=0.0):
    sim = Simulator()
    pool = CpuPool(sim, processors, switch_factor=switch_factor,
                   dispatch_overhead=dispatch_overhead)
    return sim, pool


def test_burst_runs_for_its_compute_time():
    sim, pool = make_pool(processors=1)
    done = []
    pool.submit(2.0, lambda b: done.append(sim.now))
    sim.run()
    assert done == [2.0]


def test_fifo_queueing_when_oversubscribed():
    sim, pool = make_pool(processors=1)
    finish = {}
    for name, compute in (("a", 1.0), ("b", 1.0), ("c", 1.0)):
        pool.submit(compute, lambda b, n=name: finish.setdefault(n, sim.now))
    sim.run()
    assert finish == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_ready_time_recorded():
    sim, pool = make_pool(processors=1)
    bursts = []
    pool.submit(1.0, lambda b: bursts.append(b))
    pool.submit(1.0, lambda b: bursts.append(b))
    sim.run()
    assert bursts[0].ready_time == 0.0
    assert bursts[1].ready_time == pytest.approx(1.0)


def test_parallelism_up_to_processor_count():
    sim, pool = make_pool(processors=2)
    finish = []
    for _ in range(2):
        pool.submit(1.0, lambda b: finish.append(sim.now))
    sim.run()
    assert finish == [1.0, 1.0]


def test_inflation_from_registered_threads():
    sim, pool = make_pool(processors=2, switch_factor=0.1)
    pool.register_threads(12)  # 10 beyond the 2 cores -> 2x inflation
    assert pool.inflation() == pytest.approx(2.0)
    done = []
    pool.submit(1.0, lambda b: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_no_inflation_at_or_under_core_count():
    sim, pool = make_pool(processors=4, switch_factor=0.1)
    pool.register_threads(4)
    assert pool.inflation() == 1.0


def test_dispatch_overhead_added():
    sim, pool = make_pool(processors=1, dispatch_overhead=0.5)
    done = []
    pool.submit(1.0, lambda b: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.5)]


def test_utilization_accounting():
    sim, pool = make_pool(processors=2)
    pool.submit(1.0, lambda b: None)
    pool.submit(1.0, lambda b: None)
    busy0, t0 = pool.busy_time, sim.now
    sim.run()
    sim.now = 2.0  # run() leaves now at last event (1.0); force a window
    assert pool.utilization(busy0, t0) == pytest.approx(2.0 / (2.0 * 2))


def test_zero_compute_burst_completes():
    sim, pool = make_pool(processors=1)
    done = []
    pool.submit(0.0, lambda b: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_negative_compute_rejected():
    sim, pool = make_pool()
    with pytest.raises(ValueError):
        pool.submit(-1.0, lambda b: None)


def test_thread_registration_cannot_go_negative():
    sim, pool = make_pool()
    with pytest.raises(ValueError):
        pool.register_threads(-1)


def test_run_queue_length_and_cores_busy():
    sim, pool = make_pool(processors=1)
    pool.submit(1.0, lambda b: None)
    pool.submit(1.0, lambda b: None)
    pool.submit(1.0, lambda b: None)
    assert pool.cores_busy == 1
    assert pool.run_queue_length == 2
    sim.run()
    assert pool.cores_busy == 0
    assert pool.run_queue_length == 0


def test_callbacks_can_submit_more_bursts():
    sim, pool = make_pool(processors=1)
    finish = []

    def resubmit(burst):
        finish.append(sim.now)
        if len(finish) < 3:
            pool.submit(1.0, resubmit)

    pool.submit(1.0, resubmit)
    sim.run()
    assert finish == [1.0, 2.0, 3.0]
