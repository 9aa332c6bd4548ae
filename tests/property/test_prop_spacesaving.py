"""Property tests: Space-Saving guarantees (Metwally et al. 2005)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.spacesaving import EdgeSummary, SpaceSaving

from . import spacesaving_reference as reference

streams = st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                   max_size=400)
capacities = st.integers(min_value=1, max_value=12)


@given(streams, capacities)
@settings(max_examples=200, deadline=None)
def test_counts_bracket_truth(stream, capacity):
    """For every monitored key: count - error <= true count <= count."""
    ss = SpaceSaving(capacity)
    truth = Counter()
    for key in stream:
        ss.offer(key)
        truth[key] += 1
    for key, estimate in ss.items():
        assert estimate >= truth[key]
        assert ss.guaranteed_count(key) <= truth[key]


@given(streams, capacities)
@settings(max_examples=200, deadline=None)
def test_heavy_hitters_always_monitored(stream, capacity):
    """Any key with true count > N/capacity must be in the summary."""
    ss = SpaceSaving(capacity)
    truth = Counter()
    for key in stream:
        ss.offer(key)
        truth[key] += 1
    threshold = len(stream) / capacity
    for key, count in truth.items():
        if count > threshold:
            assert key in ss


@given(streams, capacities)
@settings(max_examples=100, deadline=None)
def test_size_never_exceeds_capacity(stream, capacity):
    ss = SpaceSaving(capacity)
    for key in stream:
        ss.offer(key)
        assert len(ss) <= capacity


@given(streams, capacities)
@settings(max_examples=100, deadline=None)
def test_total_weight_preserved(stream, capacity):
    ss = SpaceSaving(capacity)
    for key in stream:
        ss.offer(key)
    assert ss.total_weight == len(stream)
    # sum of monitored counts >= stream length can exceed truth due to
    # overestimation, but never undershoots the monitored keys' truth.
    assert sum(c for _, c in ss.items()) >= 0


@given(streams, capacities,
       st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_decay_preserves_ordering(stream, capacity, factor):
    ss = SpaceSaving(capacity)
    for key in stream:
        ss.offer(key)
    before = [k for k, _ in ss.top(len(ss))]
    ss.decay(factor)
    after = [k for k, _ in ss.top(len(ss))]
    assert before == after  # uniform decay cannot reorder


# ----------------------------------------------------------------------
# Oracle: the summary before decay stopped rescaling the heap
# ----------------------------------------------------------------------
sources = st.integers(min_value=0, max_value=3)
edge_keys = st.tuples(sources, st.integers(min_value=0, max_value=3))
# Mostly small integers, so counts tie at the minimum and the victim
# depends on the key tie-break.
weights = st.one_of(st.just(1.0), st.integers(min_value=1, max_value=3).map(float),
                    st.floats(min_value=0.01, max_value=10.0))
offer = st.tuples(st.just("offer"), edge_keys, weights)
ops = st.one_of(
    offer, offer, offer,
    st.tuples(st.just("decay"), st.sampled_from([1.0, 0.85, 0.5, 0.3]), st.none()),
    st.tuples(st.just("forget"), edge_keys, st.none()),
    st.tuples(st.just("forget_source"), sources, st.none()),
)


def _state(ss):
    items = list(ss.items())
    return (items, [ss.error(key) for key, _ in items], ss.total_weight, len(ss))


@given(st.lists(ops, min_size=30, max_size=150), capacities)
@settings(max_examples=200, deadline=None)
def test_matches_the_reference_summary(script, capacity):
    """Random interleavings of offer (integer and fractional weights),
    decay and forget: SpaceSaving and EdgeSummary evict the same victims
    as the reference and agree with it on every entry, in order, bit for
    bit.  The reference forgets a source key by key, in its items order."""
    ref = reference.SpaceSaving(capacity)
    plain = SpaceSaving(capacity)
    edges = EdgeSummary(capacity)
    for op, arg, weight in script:
        before = set(key for key, _ in ref.items())
        if op == "offer":
            for ss in (ref, plain, edges):
                ss.offer(arg, weight)
        elif op == "decay":
            for ss in (ref, plain, edges):
                ss.decay(arg)
        elif op == "forget":
            for ss in (ref, plain, edges):
                ss.forget(arg)
        else:
            for key in [key for key, _ in ref.items() if key[0] == arg]:
                ref.forget(key)
                plain.forget(key)
            edges.forget_source(arg)
        victims = before - set(key for key, _ in ref.items())
        for ss in (plain, edges):
            assert before - set(key for key, _ in ss.items()) == victims
            assert _state(ss) == _state(ref)
    assert sorted(edges.sources()) == sorted({key[0] for key, _ in ref.items()})
