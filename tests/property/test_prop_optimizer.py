"""Property tests: Theorem 2's closed form is actually optimal, and the
binding-cap solver is no worse than the SLSQP reference it replaced."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import (
    integerize,
    solve_closed_form,
    solve_fractional,
    solve_numeric,
)
from repro.queueing.jackson import StageLoad

from .slsqp_reference import solve_numeric as slsqp_solve_numeric


@st.composite
def problems(draw):
    k = draw(st.integers(1, 5))
    stages = []
    for i in range(k):
        lam = draw(st.floats(1.0, 500.0, allow_nan=False))
        s = draw(st.floats(50.0, 2000.0, allow_nan=False))
        beta = draw(st.floats(0.2, 1.0, allow_nan=False))
        stages.append(StageLoad(lam, s, beta, name=f"s{i}"))
    p = draw(st.integers(2, 16))
    eta = draw(st.floats(1e-5, 1e-2, allow_nan=False))
    return ThreadAllocationProblem(stages=stages, processors=p, eta=eta)


@st.composite
def binding_problems(draw):
    """Feasible instances whose processor cap binds (eta < zeta)."""
    k = draw(st.integers(1, 5))
    stages = []
    for i in range(k):
        lam = draw(st.floats(1.0, 500.0))
        s = draw(st.floats(50.0, 2000.0))
        beta = draw(st.floats(0.0, 1.0, exclude_min=True))
        stages.append(StageLoad(lam, s, beta, name=f"s{i}"))
    p = draw(st.integers(1, 16))
    eta = 10.0 ** draw(st.floats(-9.0, -2.0))
    problem = ThreadAllocationProblem(stages=stages, processors=p, eta=eta)
    # The reference keeps every t_i 1e-4 above stability and gives up
    # (None) when that margin alone overruns the cap; stay clear of it.
    assume(problem.cpu_demand() < 0.99 * p and eta < problem.zeta())
    return problem


@given(problems(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_closed_form_beats_random_feasible_points(problem, rng):
    closed = solve_closed_form(problem)
    assume(closed is not None)
    best = problem.objective(closed)
    lower = problem.min_feasible_threads()
    for _ in range(20):
        candidate = [lo + rng.uniform(0.001, 5.0) for lo in lower]
        if not problem.satisfies_cpu_constraint(candidate):
            continue
        assert problem.objective(candidate) >= best - 1e-9


@given(problems())
@settings(max_examples=150, deadline=None)
def test_closed_form_within_cpu_budget(problem):
    closed = solve_closed_form(problem)
    assume(closed is not None)
    # Theorem 2's premise eta >= zeta guarantees the budget holds.
    assert problem.satisfies_cpu_constraint(closed, tol=1e-6)


@given(problems())
@settings(max_examples=150, deadline=None)
def test_fractional_solution_always_stable(problem):
    t = solve_fractional(problem)
    assume(t is not None)
    for ti, stage in zip(t, problem.stages):
        if stage.arrival_rate > 0:
            assert ti * stage.service_rate_per_thread > stage.arrival_rate - 1e-9


@given(problems())
@settings(max_examples=150, deadline=None)
def test_integerization_feasible_and_stable(problem):
    t = solve_fractional(problem)
    assume(t is not None)
    integral = integerize(problem, t)
    assert all(isinstance(x, int) and x >= 1 for x in integral)
    obj = problem.objective(integral)
    assert math.isfinite(obj) or not problem.satisfies_cpu_constraint(integral)


@given(binding_problems())
@settings(max_examples=200, deadline=None)
def test_kkt_solution_no_worse_than_slsqp(problem):
    kkt = solve_numeric(problem)
    reference = slsqp_solve_numeric(problem)
    assert (kkt is None) == (reference is None)
    if kkt is None:
        return
    # The cap binds: the KKT point sits on it, from the feasible side.
    assert problem.satisfies_cpu_constraint(kkt, tol=1e-9)
    used = sum(t * s.cpu_fraction for t, s in zip(kkt, problem.stages))
    assert used >= problem.processors * (1 - 1e-9)
    if problem.satisfies_cpu_constraint(reference, tol=1e-9):
        assert problem.objective(kkt) <= problem.objective(reference) * (1 + 1e-9)
