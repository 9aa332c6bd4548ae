"""Jackson-network latency proxy (Eq. (1) of the paper).

A SEDA server is a network of stage queues.  Under Jackson assumptions
(Poisson extraneous arrivals, exponential service, probabilistic routing)
the expected end-to-end delay is the arrival-rate-weighted sum of per-queue
M/M/1 latencies:

    (1/lambda_tot) * sum_i  lambda_i / (mu_i - lambda_i)

The paper uses this as a *proxy* objective — traffic is not actually
Poisson — and our evaluation (like theirs) checks that minimizing the
proxy reduces real simulated latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "StageLoad",
    "jackson_latency",
    "jackson_latency_with_penalty",
    "mm1_mean_latency",
]


@dataclass(frozen=True)
class StageLoad:
    """Observed load of one SEDA stage, as the optimizer sees it.

    Attributes:
        arrival_rate: lambda_i, events per second entering the stage.
        service_rate_per_thread: s_i = 1 / (x_i + w_i).
        cpu_fraction: beta_i = x_i / (x_i + w_i), the share of a processor
            one thread of this stage consumes while busy.
        name: diagnostic label.
    """

    arrival_rate: float
    service_rate_per_thread: float
    cpu_fraction: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"negative arrival rate for {self.name!r}")
        if self.service_rate_per_thread <= 0:
            raise ValueError(f"non-positive service rate for {self.name!r}")
        if not 0 < self.cpu_fraction <= 1:
            raise ValueError(f"cpu_fraction must be in (0, 1], got {self.cpu_fraction}")

    def service_rate(self, threads: float) -> float:
        """mu_i = t_i * s_i."""
        return threads * self.service_rate_per_thread


def jackson_latency(stages: Sequence[StageLoad], threads: Sequence[float]) -> float:
    """Eq. (1): weighted mean per-stage M/M/1 latency.

    Returns ``inf`` for infeasible allocations (any mu_i <= lambda_i), so
    the function can be used directly by grid searches and optimizers.
    """
    if len(stages) != len(threads):
        raise ValueError("stages and threads length mismatch")
    lam_tot = sum(s.arrival_rate for s in stages)
    if lam_tot <= 0:
        return 0.0
    total = 0.0
    for stage, t in zip(stages, threads):
        mu = stage.service_rate(t)
        if mu <= stage.arrival_rate:
            return float("inf")
        total += stage.arrival_rate / (mu - stage.arrival_rate)
    return total / lam_tot


def jackson_latency_with_penalty(
    stages: Sequence[StageLoad],
    threads: Sequence[float],
    eta: float,
) -> float:
    """The full objective of problem (*): Eq. (1) plus eta * sum(t_i)."""
    base = jackson_latency(stages, threads)
    if base == float("inf"):
        return base
    return base + eta * sum(threads)


def mm1_mean_latency(lam: float, mu: float) -> float:
    """Mean time in system (wait + service) of one M/M/1 queue,
    T = 1 / (mu - lam): the per-stage term Eq. (1) sums, and the oracle
    tests hold a simulated stage to."""
    if lam < 0 or mu <= 0:
        raise ValueError(f"need lam >= 0 and mu > 0, got lam={lam}, mu={mu}")
    if lam >= mu:
        raise ValueError(f"unstable queue: lam={lam} >= mu={mu}")
    return 1.0 / (mu - lam)
