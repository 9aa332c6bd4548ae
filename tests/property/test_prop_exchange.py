"""Property tests: the greedy exchange procedure's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.exchange import greedy_exchange

from .fullscan_exchange import fullscan_greedy_exchange


@st.composite
def exchange_instances(draw):
    n_s = draw(st.integers(0, 8))
    n_t = draw(st.integers(0, 8))
    s_names = [f"s{i}" for i in range(n_s)]
    t_names = [f"t{i}" for i in range(n_t)]
    everyone = s_names + t_names

    def cands(names):
        out = []
        for name in names:
            score = draw(st.floats(-10, 10, allow_nan=False))
            edges = {}
            for other in everyone:
                if other != name and draw(st.booleans()):
                    edges[other] = draw(st.floats(0.1, 5.0, allow_nan=False))
            out.append(Candidate(name, score, edges))
        return out

    size_p = draw(st.integers(0, 40))
    size_q = draw(st.integers(0, 40))
    delta = draw(st.integers(0, 10))
    return cands(s_names), cands(t_names), size_p, size_q, delta


@given(exchange_instances())
@settings(max_examples=300, deadline=None)
def test_invariants(instance):
    s, t, size_p, size_q, delta = instance
    out = greedy_exchange(s, t, size_p, size_q, delta)

    s_names = {c.vertex for c in s}
    t_names = {c.vertex for c in t}

    # 1. No duplicates, and every move comes from the right side.
    assert len(set(out.accepted)) == len(out.accepted)
    assert len(set(out.returned)) == len(out.returned)
    assert set(out.accepted) <= s_names
    assert set(out.returned) <= t_names

    # 2. The final pairwise balance respects delta whenever the starting
    #    sizes did (the procedure never worsens an already-balanced pair
    #    beyond delta).
    a, b = len(out.accepted), len(out.returned)
    if abs(size_p - size_q) <= delta:
        assert abs((size_p - a + b) - (size_q + a - b)) <= delta

    # 3. Estimated gain is the sum of positive scores at mark time.
    assert out.estimated_gain >= 0.0
    if out.moves == 0:
        assert out.estimated_gain == 0.0


@given(exchange_instances())
@settings(max_examples=150, deadline=None)
def test_deterministic(instance):
    s, t, size_p, size_q, delta = instance
    first = greedy_exchange(s, t, size_p, size_q, delta)
    second = greedy_exchange(s, t, size_p, size_q, delta)
    assert first.accepted == second.accepted
    assert first.returned == second.returned


@st.composite
def oracle_instances(draw):
    """Instances that exercise every way the adjacency walk could part
    from the full scan: an edge in one endpoint's list only or with a
    different weight in each, small-integer weights and scores (heap
    ties, so push order decides), zero weights (fall through to the other
    endpoint's list), endpoints that are nobody's candidate, a vertex
    offered by both sides, a candidate listed twice."""
    n_s = draw(st.integers(0, 9))
    n_t = draw(st.integers(0, 9))
    s_names = [f"s{i}" for i in range(n_s)]
    t_names = [f"t{i}" for i in range(n_t)]
    everyone = s_names + t_names + ["x0", "x1"]
    if draw(st.booleans()):
        weight = st.integers(0, 3).map(float)
        score = st.integers(-2, 5).map(float)
    else:
        weight = st.floats(0.1, 5.0, allow_nan=False)
        score = st.floats(-10, 10, allow_nan=False)

    def cands(names):
        names = list(names)
        if names and draw(st.booleans()):
            names.append(draw(st.sampled_from(s_names + t_names)))
        out = []
        for name in names:
            edges = {}
            for other in draw(st.permutations(everyone)):
                if other != name and draw(st.booleans()):
                    edges[other] = draw(weight)
            out.append(Candidate(name, draw(score), edges))
        return out

    options = {}
    if draw(st.booleans()):
        options["vertex_sizes"] = {
            name: draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
            for name in s_names + t_names if draw(st.booleans())
        }
    return (cands(s_names), cands(t_names), draw(st.integers(0, 40)),
            draw(st.integers(0, 40)), draw(st.integers(0, 10)), options)


@given(oracle_instances())
@settings(max_examples=400, deadline=None)
def test_adjacency_walk_equals_full_scan(instance):
    s, t, size_p, size_q, delta, options = instance
    got = greedy_exchange(s, t, size_p, size_q, delta, **options)
    want = fullscan_greedy_exchange(s, t, size_p, size_q, delta, **options)
    assert got.accepted == want.accepted
    assert got.returned == want.returned
    assert repr(got.estimated_gain) == repr(want.estimated_gain)
