"""Unit tests for deterministic RNG substreams."""

from repro.sim.rng import RngRegistry


def test_same_name_same_stream_object():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(42).stream("workload")
    b = RngRegistry(42).stream("workload")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_different_sequences():
    reg = RngRegistry(42)
    xs = [reg.stream("x").random() for _ in range(5)]
    ys = [reg.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_give_different_sequences():
    a = RngRegistry(1).stream("s")
    b = RngRegistry(2).stream("s")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
