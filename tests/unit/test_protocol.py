"""Unit tests for the pairwise coordination protocol (Alg. 1)."""

from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.protocol import (
    ExchangeRequest,
    handle_request,
    rescore_candidates,
)
from repro.core.partitioning.view import PartitionView


def make_view(server_id, edges, locations, sizes):
    return PartitionView(
        server_id=server_id,
        edges=edges,
        locate=locations.get,
        size=sizes.get(server_id, 0),
        peer_sizes=sizes,
    )


def test_misrouted_request_rejected():
    view_q = make_view(2, {}, {}, {0: 5, 2: 5})
    request = ExchangeRequest(0, 1, [], 5)
    response = handle_request(view_q, request, k=4, delta=2)
    assert not response.accepted
    assert response.rejection_reason == "misrouted"


def test_rescoring_uses_receiver_knowledge():
    """p believed u lives on q; q knows u actually moved to server 2 —
    the candidate's score must drop to zero on q's side."""
    candidate = Candidate("v", 5.0, edges={"u": 5.0},
                          endpoint_locations={"u": 1})
    request = ExchangeRequest(0, 1, [candidate], 5)
    view_q = make_view(1, {}, {"u": 2}, {0: 5, 1: 5, 2: 1})
    rescored = rescore_candidates(view_q, request)
    assert rescored[0].score == 0.0


def test_rescoring_falls_back_to_shipped_locations():
    candidate = Candidate("v", 5.0, edges={"u": 5.0},
                          endpoint_locations={"u": 1})
    request = ExchangeRequest(0, 1, [candidate], 5)
    view_q = make_view(1, {}, {}, {0: 5, 1: 5})  # q knows nothing about u
    rescored = rescore_candidates(view_q, request)
    assert rescored[0].score == 5.0


def test_full_exchange_accepts_and_returns():
    # q hosts "t" which talks to server 0; p offers "v" which talks to q.
    view_q = make_view(
        1,
        {"t": {"w": 6.0}},
        {"w": 0},
        {0: 6, 1: 6},
    )
    candidate = Candidate("v", 4.0, edges={"u": 4.0}, endpoint_locations={"u": 1})
    request = ExchangeRequest(0, 1, [candidate], 6)
    response = handle_request(view_q, request, k=4, delta=2)
    assert response.accepted
    assert response.outcome.accepted == ["v"]
    assert response.outcome.returned == ["t"]


def test_receiver_may_reject_all_candidates():
    """Candidates whose edges turn out to be local-to-p stay put."""
    view_q = make_view(1, {}, {"u": 0}, {0: 5, 1: 5})
    candidate = Candidate("v", 9.0, edges={"u": 9.0}, endpoint_locations={"u": 1})
    request = ExchangeRequest(0, 1, [candidate], 5)
    response = handle_request(view_q, request, k=4, delta=4)
    assert response.accepted
    assert response.outcome.accepted == []  # rescored to -9
