"""Unit tests for the M/M/1 mean-latency oracle."""

import pytest

from repro.queueing.jackson import mm1_mean_latency


def test_mean_latency_is_inverse_gap():
    assert mm1_mean_latency(8.0, 10.0) == pytest.approx(0.5)


def test_unstable_queue_rejected():
    with pytest.raises(ValueError):
        mm1_mean_latency(10.0, 10.0)
    with pytest.raises(ValueError):
        mm1_mean_latency(11.0, 10.0)


def test_nonpositive_service_rate_rejected():
    with pytest.raises(ValueError):
        mm1_mean_latency(1.0, 0.0)
