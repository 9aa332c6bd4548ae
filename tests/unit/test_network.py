"""Unit tests for the network model."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


def test_delivery_after_latency():
    sim = Simulator()
    net = Network(sim, RngRegistry(0), base_latency=0.001, jitter=0.0)
    arrived = []
    net.deliver(100, lambda: arrived.append(sim.now))
    sim.run()
    assert arrived == [pytest.approx(0.001)]


def test_jitter_varies_latency_but_stays_positive():
    sim = Simulator()
    net = Network(sim, RngRegistry(0), base_latency=0.001, jitter=0.3)
    draws = [net.latency() for _ in range(1_000)]
    assert all(d > 0 for d in draws)
    assert len(set(draws)) > 100  # actually varying


def test_jitter_deterministic_per_seed():
    a = Network(Simulator(), RngRegistry(9), jitter=0.2)
    b = Network(Simulator(), RngRegistry(9), jitter=0.2)
    assert [a.latency() for _ in range(10)] == [b.latency() for _ in range(10)]


@pytest.mark.parametrize("jitter", [0.0, 0.1, 0.3])
def test_delivery_draws_what_latency_draws(jitter):
    """The fault-free ``deliver`` draws its latency inline; the fault
    injector calls ``latency()``.  Same seed, same floats, bit for bit."""
    a = Network(Simulator(), RngRegistry(9), base_latency=0.001, jitter=jitter)
    b = Network(Simulator(), RngRegistry(9), base_latency=0.001, jitter=jitter)
    delivered = [a.deliver(100, lambda: None) for _ in range(200)]
    assert delivered == [b.latency() for _ in range(200)]


def test_counters_track_messages_and_bytes():
    sim = Simulator()
    net = Network(sim, RngRegistry(0), jitter=0.0)
    net.deliver(100, lambda: None)
    net.deliver(250, lambda: None)
    assert net.messages_sent == 2
    assert net.bytes_sent == 350


def test_callback_args_passed_through():
    sim = Simulator()
    net = Network(sim, RngRegistry(0), jitter=0.0)
    got = []
    net.deliver(10, lambda a, b: got.append((a, b)), "x", 42)
    sim.run()
    assert got == [("x", 42)]
