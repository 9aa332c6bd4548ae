"""Reference for ``solve_numeric``: SciPy's SLSQP on problem (*).

This is ``repro.core.threads.optimizer.solve_numeric`` as it stood at
e9400f4, before the binding case became Theorem 2 plus one KKT
multiplier solved by bisection.  ``test_prop_optimizer.py`` holds the
shipped solver to it on random binding instances: the same None cases, and
an objective no worse wherever this reference's point is feasible.  It is
the only place the tree still imports numpy or scipy for the optimizer.
Do not optimise this file.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import minimize

from repro.core.threads.model import ThreadAllocationProblem


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
