"""Unit tests for the standalone SEDA pipeline emulator."""

import pytest

from repro.queueing.jackson import mm1_mean_latency
from repro.seda import emulator
from repro.seda.emulator import SedaEmulator, StageProfile
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def test_requests_traverse_all_stages(monkeypatch):
    monkeypatch.setattr(emulator, "PROCESSORS", 4)
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [StageProfile("a", 0.001), StageProfile("b", 0.001)],
        arrival_rate=100.0,
        deterministic_service=True,
    )
    emu.start()
    sim.run(until=5.0)
    emu.stop()
    assert emu.completed > 300
    assert emu.latency.count == emu.completed
    # Every completion traversed both stages.
    assert emu.server.stage("a").stats.completions >= emu.completed
    assert emu.server.stage("b").stats.completions >= emu.completed


def test_latency_at_least_total_service():
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [StageProfile("a", 0.002), StageProfile("b", 0.003)],
        arrival_rate=10.0,
        deterministic_service=True,
    )
    emu.start()
    sim.run(until=10.0)
    assert emu.latency.count > 0
    assert emu.latency.percentile(0) >= 0.005 - 1e-12


def test_lightly_loaded_latency_close_to_mm1():
    """Exponential service, one thread, low rate: the single stage is an
    M/M/1 queue and simulated mean latency should approach theory."""
    sim = Simulator()
    rate, service = 50.0, 0.01  # rho = 0.5
    emu = SedaEmulator(
        sim,
        [StageProfile("only", service, threads=1)],
        arrival_rate=rate,
        rng=RngRegistry(11),
    )
    emu.start()
    sim.run(until=400.0)
    theory = mm1_mean_latency(rate, 1.0 / service)
    assert emu.latency.mean == pytest.approx(theory, rel=0.15)


def test_blocking_stage_accepts_wait(monkeypatch):
    monkeypatch.setattr(emulator, "PROCESSORS", 2)
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [StageProfile("io", compute=0.001, wait=0.01, threads=4)],
        arrival_rate=50.0,
        deterministic_service=True,
    )
    emu.start()
    sim.run(until=5.0)
    assert emu.completed > 100
    assert emu.latency.percentile(0) >= 0.011 - 1e-12


def test_queue_lengths_and_allocation_views():
    sim = Simulator()
    emu = SedaEmulator(
        sim,
        [StageProfile("a", 0.001, threads=2), StageProfile("b", 0.001, threads=3)],
        arrival_rate=10.0,
    )
    assert emu.queue_lengths() == {"a": 0, "b": 0}
    assert emu.thread_allocation() == {"a": 2, "b": 3}


def test_stop_halts_arrivals():
    sim = Simulator()
    emu = SedaEmulator(
        sim, [StageProfile("a", 0.001)], arrival_rate=1000.0,
        deterministic_service=True,
    )
    emu.start()
    sim.run(until=1.0)
    emu.stop()
    done_at_stop = emu.completed
    sim.run(until=2.0)
    # Only in-flight work drains after stop.
    assert emu.completed - done_at_stop < 20


def test_empty_profiles_rejected():
    with pytest.raises(ValueError):
        SedaEmulator(Simulator(), [], arrival_rate=1.0)
