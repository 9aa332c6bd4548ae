"""Unit tests for the two runtime thread controllers (§5.1, §5.3)."""

import pytest

from repro.core.threads.controller import ModelBasedController, QueueLengthController
from repro.seda import emulator
from repro.seda.emulator import SedaEmulator, StageProfile
from repro.seda.server import StagedServer
from repro.sim.engine import Simulator


def test_queue_controller_grows_backlogged_stage():
    sim = Simulator()
    server = StagedServer(sim, processors=8, switch_factor=0.0,
                          dispatch_overhead=0.0)
    stage = server.add_stage("s", threads=1)
    ctrl = QueueLengthController(sim, server, period=1.0, high_threshold=10,
                                 low_threshold=2)
    ctrl.start()
    # Flood the stage so the queue is long at the first tick.
    for _ in range(200):
        stage.submit(0.05, lambda ev: None)
    sim.run(until=1.05)
    assert stage.threads == 2


def test_queue_controller_shrinks_idle_stage_to_floor():
    sim = Simulator()
    server = StagedServer(sim, processors=8, switch_factor=0.0,
                          dispatch_overhead=0.0)
    stage = server.add_stage("s", threads=4)
    ctrl = QueueLengthController(sim, server, period=1.0, high_threshold=100,
                                 low_threshold=10)
    ctrl.start()
    sim.run(until=5.5)
    assert stage.threads == 1  # decremented once per tick, floored at 1


def test_queue_controller_threshold_validation():
    sim = Simulator()
    server = StagedServer(sim, processors=2)
    server.add_stage("s")
    with pytest.raises(ValueError):
        QueueLengthController(sim, server, high_threshold=5, low_threshold=5)


def test_queue_controller_records_history():
    sim = Simulator()
    server = StagedServer(sim, processors=2, switch_factor=0.0)
    server.add_stage("s", threads=1)
    ctrl = QueueLengthController(sim, server, period=1.0)
    ctrl.start()
    sim.run(until=3.5)
    assert len(ctrl.queue_history["s"]) == 3
    assert len(ctrl.thread_history["s"]) == 3


def test_model_controller_reallocates_loaded_emulator(monkeypatch):
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [
            StageProfile("light", compute=0.0002, threads=8),
            StageProfile("heavy", compute=0.002, threads=1),
        ],
        arrival_rate=400.0,
    )
    monkeypatch.setattr(emu.server.cpu, "switch_factor", 0.0)
    ctrl = ModelBasedController(sim, emu.server, eta=1e-3, period=2.0,
                                min_events=10)
    emu.start()
    ctrl.start()
    sim.run(until=10.0)
    alloc = emu.server.thread_allocation()
    # heavy needs lambda/s = 400*0.002 = 0.8 -> ~1-2 threads; light needs
    # far less.  The over-allocated light stage must shrink.
    assert alloc["light"] <= 2
    assert 1 <= alloc["heavy"] <= 3
    assert ctrl.allocations  # it actually acted
    assert ctrl.allocations[-1].feasible


def test_model_controller_skips_quiet_windows():
    sim = Simulator()
    server = StagedServer(sim, processors=4)
    server.add_stage("s", threads=3)
    ctrl = ModelBasedController(sim, server, period=1.0, min_events=50)
    ctrl.start()
    sim.run(until=5.5)
    assert server.stage("s").threads == 3  # untouched: no traffic
    assert not ctrl.allocations


def test_model_controller_overload_fallback_is_proportional(monkeypatch):
    monkeypatch.setattr(emulator, "PROCESSORS", 4)
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [
            StageProfile("a", compute=0.01, threads=2),
            StageProfile("b", compute=0.03, threads=2),
        ],
        arrival_rate=400.0,   # demand = 400*(0.04) = 16 cpu-s/s >> 4 cores
    )
    monkeypatch.setattr(emu.server.cpu, "switch_factor", 0.0)
    ctrl = ModelBasedController(sim, emu.server, period=2.0, min_events=10)
    emu.start()
    ctrl.start()
    sim.run(until=4.5)
    assert ctrl.allocations
    event = ctrl.allocations[-1]
    assert not event.feasible
    # b demands 3x the CPU of a -> gets the larger share.
    assert event.allocation["b"] >= event.allocation["a"]


def test_model_controller_calibrates_alpha_on_non_blocking_stages(monkeypatch):
    """S0 is every stage not declared ``blocking``: the io stage's
    4 ms wait per event must not be read as ready time."""
    monkeypatch.setattr(emulator, "PROCESSORS", 2)
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [
            StageProfile("cpu", compute=0.002, threads=4),
            StageProfile("io", compute=0.001, wait=0.004, threads=4),
        ],
        arrival_rate=400.0,
    )
    monkeypatch.setattr(emu.server.cpu, "switch_factor", 0.0)
    assert emu.server.stage("io").blocking
    ctrl = ModelBasedController(sim, emu.server, period=2.0, min_events=10)
    emu.start()
    ctrl.start()
    sim.run(until=8.5)
    assert len(ctrl.allocations) == 4
    # Counting io in S0 would put its (z - x) / x >= 4 into the mean.
    assert all(0.0 <= event.alpha < 1.0 for event in ctrl.allocations)


def test_controller_period_validation():
    sim = Simulator()
    server = StagedServer(sim, processors=2)
    with pytest.raises(ValueError):
        ModelBasedController(sim, server, period=0.0)
