"""Unit tests for the StagedServer chassis."""

import pytest

from repro.seda.server import StagedServer
from repro.sim.engine import Simulator


def make_server(**kw):
    sim = Simulator()
    server = StagedServer(sim, processors=4, switch_factor=0.0,
                          dispatch_overhead=0.0, **kw)
    return sim, server


def test_add_and_fetch_stages():
    sim, server = make_server()
    server.add_stage("a", threads=2)
    server.add_stage("b", threads=3)
    assert server.stage("a").threads == 2
    assert server.thread_allocation() == {"a": 2, "b": 3}
    assert server.total_threads == 5


def test_duplicate_stage_rejected():
    sim, server = make_server()
    server.add_stage("a")
    with pytest.raises(ValueError):
        server.add_stage("a")


def test_apply_allocation_partial():
    sim, server = make_server()
    server.add_stage("a", threads=1)
    server.add_stage("b", threads=1)
    server.apply_allocation({"a": 4})
    assert server.thread_allocation() == {"a": 4, "b": 1}


def test_stages_share_one_cpu_pool():
    sim, server = make_server()
    a = server.add_stage("a", threads=4)
    b = server.add_stage("b", threads=4)
    assert a.cpu is b.cpu is server.cpu
    assert server.cpu.registered_threads == 8


def test_window_sampling_diffs_counters():
    sim, server = make_server()
    stage = server.add_stage("a", threads=1)
    start = server.snapshot()
    stage.submit(1.0, lambda ev: None)
    sim.run()
    sim.now = 2.0
    windows = server.windows_since(start)
    assert windows["a"].completions == 1
    assert windows["a"].arrivals == 1
    assert windows["a"].elapsed == 2.0
    # The snapshot belongs to the caller: reading does not consume it,
    # and a later snapshot windows nothing.
    assert server.windows_since(start)["a"].completions == 1
    assert server.windows_since(server.snapshot())["a"].completions == 0


def test_cpu_utilization_window():
    sim, server = make_server()
    stage = server.add_stage("a", threads=1)
    busy0, t0 = server.cpu.busy_time, sim.now
    stage.submit(2.0, lambda ev: None)
    sim.run()
    # 2 busy core-seconds over 2 seconds on 4 cores.
    assert server.cpu.utilization(busy0, t0) == pytest.approx(0.25)
