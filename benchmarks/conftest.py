"""Shared machinery for the reproduction benchmarks.

Expensive cluster experiments are cached at module scope so that several
figures derived from the same run (e.g. Fig. 10b and 10c) do not repeat
it.  Scale knobs:

* ``ACTOP_BENCH_SCALE`` (float, default 1.0) — multiplies player counts
  and measurement durations.  0.5 halves everything for a quick pass;
  2.0 pushes toward paper scale.
* Timing note: pytest-benchmark records wall time of each experiment,
  but the deliverable of this suite is the printed paper-vs-measured
  tables (captured with ``-s`` or in the benchmark output log).
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.bench.harness import (
    ExperimentResult,
    HaloExperiment,
    HeartbeatExperiment,
)
from repro.faults.resilience import ResilienceConfig

BENCH_SCALE = float(os.environ.get("ACTOP_BENCH_SCALE", "1.0"))

_HALO_CACHE: dict[tuple, ExperimentResult] = {}
_HEARTBEAT_CACHE: dict[tuple, ExperimentResult] = {}


def scaled_players(base: int = 2_000) -> int:
    return max(400, int(base * BENCH_SCALE))


def scaled_duration(base: float) -> float:
    return max(30.0, base * BENCH_SCALE)


def halo_result(
    load_fraction: float = 1.0,
    partitioning: bool = False,
    thread_allocation: bool = False,
    players: Optional[int] = None,
    num_servers: int = 10,
    seed: int = 1,
    warmup: float = 80.0,
    duration: float = 80.0,
    resilience: Optional[ResilienceConfig] = None,
) -> ExperimentResult:
    """Run (or fetch from cache) one Halo experiment.

    Every run records the convergence time series (10 s windows) and a
    20-point latency CDF so all figures derived from the same
    configuration share one cached run.
    """
    players = players if players is not None else scaled_players()
    key = (
        load_fraction, partitioning, thread_allocation, players, num_servers,
        seed, warmup, duration, resilience,
    )
    if key not in _HALO_CACHE:
        exp = HaloExperiment(
            load_fraction=load_fraction,
            players=players,
            partitioning=partitioning,
            thread_allocation=thread_allocation,
            num_servers=num_servers,
            seed=seed,
            resilience=resilience,
        )
        _HALO_CACHE[key] = exp.run(
            warmup=scaled_duration(warmup),
            duration=scaled_duration(duration),
            sample_period=10.0,
            cdf_points=20,
        )
        # Keep a handle on the runtime for benches that inspect silo
        # internals (placement counters, allocations).
        _HALO_CACHE[key].runtime = exp.runtime  # type: ignore[attr-defined]
    return _HALO_CACHE[key]


def heartbeat_result(
    request_rate: float,
    thread_allocation: bool,
    seed: int = 3,
    cdf_points: int = 0,
) -> ExperimentResult:
    key = (request_rate, thread_allocation, seed, cdf_points)
    if key not in _HEARTBEAT_CACHE:
        exp = HeartbeatExperiment(
            request_rate=request_rate, thread_allocation=thread_allocation,
            seed=seed,
        )
        _HEARTBEAT_CACHE[key] = exp.run(cdf_points=cdf_points)
        _HEARTBEAT_CACHE[key].runtime = exp.runtime  # type: ignore[attr-defined]
    return _HEARTBEAT_CACHE[key]


@pytest.fixture
def show(capsys):
    """Print through pytest's capture so tables land in the report."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _show
