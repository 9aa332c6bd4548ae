"""Unit tests for the Space-Saving heavy-hitter summary."""

import random

import pytest

from repro.graph.spacesaving import SpaceSaving


def test_exact_when_under_capacity():
    ss = SpaceSaving(10)
    for key, n in (("a", 5), ("b", 3), ("c", 1)):
        for _ in range(n):
            ss.offer(key)
    assert ss.count("a") == 5
    assert ss.count("b") == 3
    assert ss.count("c") == 1
    assert ss.error("a") == 0
    assert len(ss) == 3


def test_overestimates_never_underestimate():
    rng = random.Random(0)
    keys = [f"k{i}" for i in range(50)]
    truth = {k: 0 for k in keys}
    ss = SpaceSaving(10)
    for _ in range(5_000):
        k = rng.choice(keys)
        truth[k] += 1
        ss.offer(k)
    for k in keys:
        if k in ss:
            assert ss.count(k) >= truth[k]
            assert ss.guaranteed_count(k) <= truth[k]


def test_heavy_keys_survive():
    """Any key with true count > N/capacity must be monitored."""
    rng = random.Random(1)
    ss = SpaceSaving(20)
    n = 10_000
    # one heavy key gets 30% of the stream; noise spread over 1000 keys
    for _ in range(n):
        if rng.random() < 0.3:
            ss.offer("heavy")
        else:
            ss.offer(f"noise{rng.randrange(1000)}")
    assert "heavy" in ss
    assert ss.count("heavy") >= 0.3 * n * 0.9


def test_top_k_ordering():
    ss = SpaceSaving(10)
    for key, n in (("big", 100), ("mid", 50), ("small", 10)):
        ss.offer(key, n)
    top = ss.top(2)
    assert [k for k, _ in top] == ["big", "mid"]


def test_weighted_offers():
    ss = SpaceSaving(4)
    ss.offer("a", 10.0)
    ss.offer("a", 2.5)
    assert ss.count("a") == 12.5
    assert ss.total_weight == 12.5


def test_eviction_inherits_min_count():
    ss = SpaceSaving(2)
    ss.offer("a", 10)
    ss.offer("b", 3)
    ss.offer("c")  # evicts b (min count 3)
    assert "b" not in ss
    assert ss.count("c") == 4
    assert ss.error("c") == 3
    assert ss.guaranteed_count("c") == 1


def test_decay_scales_counts():
    ss = SpaceSaving(4)
    ss.offer("a", 10)
    ss.offer("b", 4)
    ss.decay(0.5)
    assert ss.count("a") == 5
    assert ss.count("b") == 2
    assert ss.total_weight == 7


def test_decay_one_is_noop():
    ss = SpaceSaving(4)
    ss.offer("a", 10)
    ss.decay(1.0)
    assert ss.count("a") == 10


def test_decay_validation():
    ss = SpaceSaving(4)
    with pytest.raises(ValueError):
        ss.decay(0.0)
    with pytest.raises(ValueError):
        ss.decay(1.5)


def test_forget_removes_key():
    ss = SpaceSaving(4)
    ss.offer("a")
    ss.offer("b")
    ss.forget("a")
    assert "a" not in ss
    assert len(ss) == 1
    ss.forget("missing")  # no-op


def test_min_still_found_after_decay_and_forget():
    ss = SpaceSaving(3)
    ss.offer("a", 9)
    ss.offer("b", 6)
    ss.offer("c", 3)
    ss.decay(0.5)
    ss.forget("b")
    ss.offer("d", 1)  # fills the freed slot, no eviction
    ss.offer("e", 1)  # evicts the min, which is c at 1.5... actually d at 1
    assert "a" in ss
    assert len(ss) == 3


def test_invalid_inputs():
    with pytest.raises(ValueError):
        SpaceSaving(0)
    ss = SpaceSaving(2)
    with pytest.raises(ValueError):
        ss.offer("a", 0.0)


def test_items_iterates_all_monitored():
    ss = SpaceSaving(5)
    for k in "abc":
        ss.offer(k)
    assert sorted(k for k, _ in ss.items()) == ["a", "b", "c"]


def test_heap_rebuild_under_many_updates():
    ss = SpaceSaving(8)
    for i in range(10_000):
        ss.offer(f"k{i % 8}")
    assert len(ss) == 8
    for i in range(8):
        assert ss.count(f"k{i}") == 1250


def test_heap_is_built_only_for_evictions():
    """A summary that never fills builds no heap; decay drops it and the
    next eviction rebuilds it from the decayed entries."""
    ss = SpaceSaving(3)
    for key, n in (("a", 9), ("b", 6), ("c", 3)):
        ss.offer(key, n)
    ss.decay(0.5)
    assert ss._heap is None
    ss.offer("d")  # evicts c at 1.5
    assert "c" not in ss and ss.count("d") == 2.5 and ss.error("d") == 1.5
    assert ss._heap is not None
    ss.decay(0.5)
    assert ss._heap is None
