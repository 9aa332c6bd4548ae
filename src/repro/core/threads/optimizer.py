"""Solving problem (*): Theorem 2's closed form, its binding-cap
extension, and integerization.

Theorem 2: if the system is feasible and eta >= zeta, the optimum is

    t_i = lambda_i / s_i + sqrt( lambda_i / (lambda_tot * eta * s_i) ).

The first term is the stability minimum (enough service rate to keep up);
the second spreads slack proportionally to sqrt(lambda_i / s_i) — heavily
loaded or slow stages get more headroom.  When eta < zeta the processor
constraint binds.  The problem is still convex, and stationarity of its
Lagrangian with one multiplier nu >= 0 on sum_i beta_i t_i <= p is
Theorem 2 with eta replaced by eta + nu * beta_i per stage:

    t_i(nu) = lambda_i / s_i + sqrt( lambda_i / (lambda_tot * (eta + nu beta_i) * s_i) ).

sum_i beta_i t_i(nu) falls strictly from the closed form's usage at
nu = 0 toward the CPU demand (< p), so the binding optimum is the one nu
where the cap holds with equality, found by bisection.  Real thread pools
are integers, so :func:`integerize` rounds the fractional solution by
exhaustive floor/ceil choice (K is small) and :func:`grid_search`
provides the brute-force reference the ablation bench and property tests
compare against.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .model import ThreadAllocationProblem

__all__ = [
    "solve_closed_form",
    "solve_numeric",
    "solve_fractional",
    "integerize",
    "solve_integer",
    "grid_search",
]


def _stationary_point(problem: ThreadAllocationProblem, nu: float) -> list[float]:
    """t(nu): the Lagrangian's stationary point, nu the CPU cap's multiplier.

    nu = 0 is Theorem 2's closed form bit for bit.  An idle stage gets 0.0.
    """
    lam_tot = problem.lambda_tot
    eta = problem.eta
    threads = []
    for stage in problem.stages:
        lam, s = stage.arrival_rate, stage.service_rate_per_thread
        if lam <= 0:
            threads.append(0.0)
            continue
        penalty = eta + nu * stage.cpu_fraction
        threads.append(lam / s + math.sqrt(lam / (lam_tot * penalty * s)))
    return threads


def solve_closed_form(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """Theorem 2.  Returns None when its premise (eta >= zeta) fails."""
    if not problem.is_feasible() or problem.eta < problem.zeta():
        return None
    return _stationary_point(problem, 0.0)


def solve_numeric(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """The exact KKT solution of (*), whether or not the CPU cap binds.

    nu = 0 when the closed form fits the cap; otherwise nu is bracketed by
    doubling and bisected to float resolution, and the feasible side of
    the bracket is returned.
    """
    if not problem.is_feasible():
        return None

    def fits(nu: float) -> bool:
        return problem.satisfies_cpu_constraint(_stationary_point(problem, nu), tol=0.0)

    if fits(0.0):
        return _stationary_point(problem, 0.0)
    lo, hi = 0.0, problem.eta
    while not fits(hi):
        if math.isinf(hi):
            return None  # demand within rounding of p: no slack to spread
        lo, hi = hi, 2.0 * hi
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return _stationary_point(problem, hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid


def solve_fractional(problem: ThreadAllocationProblem) -> Optional[list[float]]:
    """Closed form when applicable, KKT bisection otherwise (the paper's §5.3)."""
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
