"""Unit tests for the greedy two-heap exchange procedure (§4.2)."""

import pytest

from repro.core.partitioning.candidate import Candidate
from repro.core.partitioning.exchange import greedy_exchange


def cand(v, score, edges=None):
    return Candidate(v, score, edges or {})


def test_takes_positive_scores_from_both_sides():
    out = greedy_exchange(
        [cand("s1", 5.0), cand("s2", 3.0)],
        [cand("t1", 4.0)],
        size_p=10, size_q=10, delta=5,
    )
    assert set(out.accepted) == {"s1", "s2"}
    assert out.returned == ["t1"]
    assert out.estimated_gain == 12.0


def test_skips_nonpositive_scores():
    out = greedy_exchange(
        [cand("s1", 0.0), cand("s2", -2.0)],
        [cand("t1", 1.0)],
        size_p=10, size_q=10, delta=5,
    )
    assert out.accepted == []
    assert out.returned == ["t1"]


def test_balance_constraint_blocks_one_sided_transfers():
    # delta=1, equal sizes: after one p->q move the gap is 2 > 1, so a
    # second unmatched p->q move must not happen.
    out = greedy_exchange(
        [cand("s1", 9.0), cand("s2", 8.0), cand("s3", 7.0)],
        [],
        size_p=10, size_q=10, delta=1,
    )
    assert len(out.accepted) == 0  # first move already violates: gap 2 > 1
    out2 = greedy_exchange(
        [cand("s1", 9.0), cand("s2", 8.0)],
        [],
        size_p=11, size_q=10, delta=1,
    )
    # 11/10 -> moving one: 10/11 gap 1 OK; moving two: 9/12 gap 3 blocked.
    assert out2.accepted == ["s1"]


def test_balance_forces_alternation():
    # delta=2, equal sizes: each side can lead by at most one move, so
    # the marks must alternate s, t, s, t.
    out = greedy_exchange(
        [cand("s1", 9.0), cand("s2", 8.0)],
        [cand("t1", 1.0), cand("t2", 0.5)],
        size_p=10, size_q=10, delta=2,
    )
    assert out.accepted == ["s1", "s2"]
    assert out.returned == ["t1", "t2"]


def test_score_update_on_shared_edge_same_side():
    # s1 and s2 communicate heavily with each other; once s1 is marked to
    # move, s2's score toward q rises by 2w.
    out = greedy_exchange(
        [
            cand("s1", 5.0, edges={"s2": 3.0}),
            cand("s2", -1.0, edges={"s1": 3.0}),  # initially negative
        ],
        [],
        size_p=12, size_q=8, delta=4,
    )
    # After s1 moves, s2's score becomes -1 + 2*3 = 5 > 0 -> moves too.
    assert out.accepted == ["s1", "s2"]


def test_score_update_on_shared_edge_opposite_sides():
    # t1 (at q) communicates with s1 (at p).  If s1 moves to q, t1 should
    # NOT move to p anymore (score drops by 2w).
    out = greedy_exchange(
        [cand("s1", 10.0, edges={"t1": 4.0})],
        [cand("t1", 5.0, edges={"s1": 4.0})],
        size_p=11, size_q=9, delta=2,
    )
    assert out.accepted == ["s1"]
    # t1's score fell to 5 - 8 = -3: rejected.
    assert out.returned == []


def test_empty_inputs():
    out = greedy_exchange([], [], size_p=5, size_q=5, delta=1)
    assert out.moves == 0
    assert out.estimated_gain == 0.0


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        greedy_exchange([], [], size_p=1, size_q=1, delta=-1)


def test_delta_zero_equal_sizes_freezes_exchange():
    # Balance is checked after every mark (the paper's per-step reading),
    # so delta=0 with equal sizes admits no move at all: the very first
    # mark would create a gap of 2.  Practical deltas are in the tens.
    out = greedy_exchange(
        [cand("s1", 5.0)],
        [cand("t1", 4.0)],
        size_p=10, size_q=10, delta=0,
    )
    assert out.moves == 0
