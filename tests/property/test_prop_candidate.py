"""Property tests: candidate selection matches a brute-force reference."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning.candidate import (
    Candidate,
    PeerProposal,
    _score_pass,
    candidate_set,
    rank_peers,
)
from repro.core.partitioning.transfer_score import transfer_score
from repro.core.partitioning.view import PartitionView


@st.composite
def views(draw):
    servers = draw(st.integers(2, 4))
    n_local = draw(st.integers(0, 10))
    n_remote = draw(st.integers(1, 10))
    remote_locs = {
        f"r{i}": draw(st.integers(0, servers - 1)) for i in range(n_remote)
    }
    edges = {}
    for i in range(n_local):
        nbrs = {}
        for j in range(n_local):
            if i != j and draw(st.booleans()):
                nbrs[f"v{j}"] = draw(st.floats(0.1, 9.0, allow_nan=False))
        for r in remote_locs:
            if draw(st.booleans()):
                nbrs[r] = draw(st.floats(0.1, 9.0, allow_nan=False))
        edges[f"v{i}"] = nbrs
    sizes = {p: draw(st.integers(0, 20)) for p in range(servers)}
    view = PartitionView(
        server_id=0,
        edges=edges,
        locate=remote_locs.get,
        size=sizes[0],
        peer_sizes=sizes,
    )
    return view, servers


@given(views(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_candidate_set_is_exact_top_k_positive(view_and_servers, k):
    view, servers = view_and_servers
    for target in range(1, servers):
        cands = candidate_set(view, target, k)
        # brute-force reference
        scored = []
        for v in view.local_vertices():
            s = transfer_score(view.neighbors(v), view.locate, 0, target)
            if s > 0:
                scored.append((s, str(v)))
        expected = heapq.nlargest(k, scored)
        got = [(c.score, str(c.vertex)) for c in cands]
        # Tie scores make the specific vertex choice implementation-
        # defined: require the same score multiset and that every pick
        # is a genuinely scored vertex (i.e. *a* valid exact top-k).
        assert sorted((s for s, _ in got), reverse=True) == \
            sorted((s for s, _ in expected), reverse=True)
        assert set(got) <= set(scored)
        # scores strictly positive and sorted descending
        assert all(c.score > 0 for c in cands)
        assert [c.score for c in cands] == sorted(
            (c.score for c in cands), reverse=True)


@given(views(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_rank_peers_ordering_and_completeness(view_and_servers, k):
    view, servers = view_and_servers
    proposals = rank_peers(view, k)
    totals = [p.total_score for p in proposals]
    assert totals == sorted(totals, reverse=True)
    assert all(t > 0 for t in totals)
    listed = {p.peer for p in proposals}
    for target in range(1, servers):
        has_candidates = bool(candidate_set(view, target, k))
        assert (target in listed) == has_candidates


@st.composite
def partial_views(draw):
    """Partial, stale views: 2-6 servers, endpoints whose location is
    unknown (``None``), on a server nobody counts as a peer, or local but
    without sampled edges of their own, all interleaved with local
    vertices in one neighbour map; weights are floats whose sum depends
    on the order of addition, or small integers (tied scores)."""
    servers = draw(st.integers(2, 6))
    n_local = draw(st.integers(0, 8))
    n_remote = draw(st.integers(1, 10))
    location = st.one_of(st.none(), st.integers(0, servers))
    remote_locs = {f"r{i}": draw(location) for i in range(n_remote)}
    weight = draw(st.sampled_from([
        st.floats(1e-3, 1e3, allow_nan=False), st.integers(1, 3).map(float)]))
    endpoints = [f"v{i}" for i in range(n_local)] + list(remote_locs)
    edges = {}
    for i in range(n_local):
        edges[f"v{i}"] = {
            u: draw(weight) for u in draw(st.permutations(endpoints))
            if u != f"v{i}" and draw(st.booleans())
        }
    sizes = {p: draw(st.integers(0, 20)) for p in range(servers)}
    return PartitionView(0, edges, remote_locs.get, sizes[0], sizes)


def reference_candidate_set(view, target, k):
    """The per-pair form: one ``transfer_score`` per (vertex, peer)."""
    scored = []
    for v in view.local_vertices():
        score = transfer_score(view.neighbors(v), view.locate, view.server_id, target)
        if score > 0:
            scored.append((score, v))
    out = []
    for score, v in heapq.nlargest(k, scored, key=lambda sv: sv[0]):
        edges = dict(view.neighbors(v))
        locations = {u: view.locate(u) for u in edges if view.locate(u) is not None}
        out.append(Candidate(v, score, edges, locations))
    return scored, out


@given(partial_views(), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_shared_pass_equals_transfer_score_per_pair(view, k):
    by_peer = _score_pass(view)
    reference = {}
    for target in view.peers():
        scored, cands = reference_candidate_set(view, target, k)
        # Bit for bit and in local_vertices() order: == on floats is exact.
        assert by_peer.get(target, []) == scored
        assert candidate_set(view, target, k) == cands
        if cands:
            reference[target] = cands
    # Peers in view order, stably sorted by total score; every field of
    # every candidate (repr also compares dict order).
    expected = sorted(
        (PeerProposal(q, cands) for q, cands in reference.items()),
        key=lambda pr: pr.total_score, reverse=True)
    assert repr(rank_peers(view, k)) == repr(expected)
