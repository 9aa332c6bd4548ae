"""Solving problem (*): Theorem 2's closed form, a convex numeric
fallback, and integerization.

Theorem 2: if the system is feasible and eta >= zeta, the optimum is

    t_i = lambda_i / s_i + sqrt( lambda_i / (lambda_tot * eta * s_i) ).

The first term is the stability minimum (enough service rate to keep up);
the second spreads slack proportionally to sqrt(lambda_i / s_i) — heavily
loaded or slow stages get more headroom.  When eta < zeta the processor
constraint binds and the problem, still convex, is solved numerically
(SLSQP).  Real thread pools are integers, so :func:`integerize` rounds
the fractional solution by exhaustive floor/ceil choice (K is small) and
:func:`grid_search` provides the brute-force reference the ablation bench
and property tests compare against.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .model import ThreadAllocationProblem

__all__ = [
    "solve_closed_form",
    "solve_numeric",
    "solve_fractional",
    "integerize",
    "solve_integer",
    "grid_search",
]


def solve_closed_form(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """Theorem 2.  Returns None when its premise (eta >= zeta) fails."""
    if not problem.is_feasible():
        return None
    if problem.eta < problem.zeta():
        return None
    lam_tot = problem.lambda_tot
    threads = []
    for stage in problem.stages:
        lam, s = stage.arrival_rate, stage.service_rate_per_thread
        if lam <= 0:
            threads.append(0.0)
            continue
        threads.append(lam / s + math.sqrt(lam / (lam_tot * problem.eta * s)))
    return threads


def solve_numeric(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """SLSQP on the convex problem, for the eta < zeta regime."""
    if not problem.is_feasible():
        return None
    stages = problem.stages
    lam = np.array([s.arrival_rate for s in stages])
    srv = np.array([s.service_rate_per_thread for s in stages])
    beta = np.array([s.cpu_fraction for s in stages])
    lam_tot = lam.sum()
    if lam_tot <= 0:
        return [0.0] * len(stages)

    # Stability lower bounds with a small margin so the objective stays finite.
    lower = lam / srv * 1.0001 + 1e-9

    def objective(t: np.ndarray) -> float:
        mu = t * srv
        gap = mu - lam
        if np.any(gap <= 0):
            return 1e18
        return float((lam / gap).sum() / lam_tot + problem.eta * t.sum())

    def gradient(t: np.ndarray) -> np.ndarray:
        gap = t * srv - lam
        return -lam * srv / gap**2 / lam_tot + problem.eta

    # Start from a feasible interior point: scale slack to fit the CPU cap.
    slack_budget = problem.processors - float((lower * beta).sum())
    if slack_budget <= 0:
        return None
    weights = np.sqrt(np.maximum(lam, 1e-12) / srv)
    weights_sum = float((weights * beta).sum())
    start = lower + weights * (0.5 * slack_budget / max(weights_sum, 1e-12))

    constraints = [
        {
            "type": "ineq",
            "fun": lambda t: problem.processors - float((t * beta).sum()),
            "jac": lambda t: -beta,
        }
    ]
    bounds = [(lo, None) for lo in lower]
    result = minimize(
        objective,
        start,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if not result.success:
        return None
    return [float(t) for t in result.x]


def solve_fractional(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """Closed form when applicable, numeric otherwise (the paper's §5.3)."""
    closed = solve_closed_form(problem)
    if closed is not None:
        return closed
    return solve_numeric(problem)


def integerize(
    problem: ThreadAllocationProblem,
    fractional: Sequence[float],
) -> list[int]:
    """Round a fractional allocation to integers, minimizing (*).

    Tries every floor/ceil combination (2^K, K is at most a handful of
    stages) and keeps the feasible combination with the best objective.
    Stages forced below stability are bumped to their ceil.  Falls back to
    all-ceil (at least one thread each) if nothing is feasible.
    """
    lower = problem.min_feasible_threads()
    choices: list[list[int]] = []
    for t, lo in zip(fractional, lower):
        floor_t = max(1, math.floor(t))
        ceil_t = max(1, math.ceil(t))
        opts = {ceil_t}
        if floor_t > lo:  # floor keeps the stage stable
            opts.add(floor_t)
        choices.append(sorted(opts))

    best: Optional[list[int]] = None
    best_obj = math.inf
    for combo in itertools.product(*choices):
        alloc = list(combo)
        if not problem.satisfies_cpu_constraint(alloc):
            continue
        obj = problem.objective(alloc)
        if obj < best_obj:
            best, best_obj = alloc, obj
    if best is not None:
        return best
    return [max(1, math.ceil(t)) for t in fractional]


def solve_integer(problem: ThreadAllocationProblem) -> Optional[list[int]]:
    """End-to-end: fractional solve then integerize."""
    fractional = solve_fractional(problem)
    if fractional is None:
        return None
    return integerize(problem, fractional)


def grid_search(
    problem: ThreadAllocationProblem,
    max_threads: int,
) -> tuple[list[int], float]:
    """Brute-force integer optimum over [1, max_threads]^K.

    Exponential in K — reference implementation for tests and the
    optimizer ablation only.
    """
    best: Optional[list[int]] = None
    best_obj = math.inf
    rng = range(1, max_threads + 1)
    for combo in itertools.product(rng, repeat=len(problem.stages)):
        alloc = list(combo)
        if not problem.satisfies_cpu_constraint(alloc):
            continue
        obj = problem.objective(alloc)
        if obj < best_obj:
            best, best_obj = alloc, obj
    if best is None:
        raise ValueError("no feasible integer allocation in the search box")
    return best, best_obj
