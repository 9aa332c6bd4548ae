"""Unit tests for Theorem 2's solver, its binding-cap extension and
integerization."""

import itertools
import math

import pytest

from repro.core.threads import optimizer
from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import (
    grid_search,
    integerize,
    solve_closed_form,
    solve_fractional,
    solve_integer,
    solve_numeric,
)
from repro.queueing.jackson import StageLoad


def make_problem(loads, p=8, eta=1e-3):
    return ThreadAllocationProblem(stages=loads, processors=p, eta=eta)


def test_closed_form_matches_theorem_formula():
    loads = [StageLoad(100.0, 1000.0), StageLoad(300.0, 500.0)]
    prob = make_problem(loads, eta=1e-3)
    assert prob.eta >= prob.zeta()
    t = solve_closed_form(prob)
    lam_tot = 400.0
    for ti, s in zip(t, loads):
        lam, sr = s.arrival_rate, s.service_rate_per_thread
        expected = lam / sr + math.sqrt(lam / (lam_tot * 1e-3 * sr))
        assert ti == pytest.approx(expected)


def test_closed_form_none_when_eta_below_zeta():
    loads = [StageLoad(700.0, 100.0)]  # very loaded: zeta is large
    prob = make_problem(loads, p=8, eta=1e-9)
    assert prob.eta < prob.zeta()
    assert solve_closed_form(prob) is None


def test_closed_form_none_when_infeasible():
    prob = make_problem([StageLoad(900.0, 100.0)], p=8)
    assert solve_closed_form(prob) is None


def test_closed_form_is_stationary_point():
    """Numerically perturb each coordinate: objective must not improve."""
    loads = [StageLoad(200.0, 800.0), StageLoad(100.0, 400.0),
             StageLoad(50.0, 1200.0)]
    prob = make_problem(loads, eta=5e-4)
    t = solve_closed_form(prob)
    base = prob.objective(t)
    for i in range(len(t)):
        for eps in (-1e-4, 1e-4):
            perturbed = list(t)
            perturbed[i] += eps
            assert prob.objective(perturbed) >= base - 1e-12


def test_numeric_agrees_with_closed_form_when_unconstrained():
    loads = [StageLoad(100.0, 1000.0), StageLoad(300.0, 500.0)]
    prob = make_problem(loads, eta=1e-3)
    assert solve_numeric(prob) == solve_closed_form(prob)


def test_stationary_point_at_zero_multiplier_is_the_closed_form():
    loads = [StageLoad(200.0, 800.0, 0.5), StageLoad(0.0, 400.0),
             StageLoad(50.0, 1200.0, 0.9)]
    prob = make_problem(loads, eta=5e-4)
    assert optimizer._stationary_point(prob, 0.0) == solve_closed_form(prob)


def test_numeric_just_below_zeta_continues_the_closed_form():
    loads = [StageLoad(400.0, 100.0), StageLoad(200.0, 150.0, 0.5)]
    zeta = make_problem(loads, eta=1e-3).zeta()
    at_zeta = solve_closed_form(make_problem(loads, eta=zeta))
    below = make_problem(loads, eta=zeta * (1 - 1e-9))
    assert solve_closed_form(below) is None
    for a, b in zip(solve_numeric(below), at_zeta):
        assert a == pytest.approx(b, rel=1e-6)


def test_numeric_respects_cpu_constraint_when_binding():
    # eta tiny -> unconstrained solution wants many threads -> cap binds.
    loads = [StageLoad(400.0, 100.0), StageLoad(200.0, 100.0)]
    prob = make_problem(loads, p=8, eta=1e-8)
    assert solve_closed_form(prob) is None
    t = solve_numeric(prob)
    assert t is not None
    assert prob.satisfies_cpu_constraint(t, tol=1e-6)
    used = sum(ti * s.cpu_fraction for ti, s in zip(t, prob.stages))
    assert used == pytest.approx(8.0, rel=1e-3)  # the cap binds


def test_idle_stage_in_binding_regime_gets_zero_then_one_thread():
    loads = [StageLoad(400.0, 100.0), StageLoad(0.0, 100.0)]
    prob = make_problem(loads, p=8, eta=1e-8)
    assert prob.eta < prob.zeta()
    t = solve_numeric(prob)
    assert t[1] == 0.0
    assert integerize(prob, t)[1] == 1


def _binding_corner_instances():
    """The corners of the property test's binding-instance strategy."""
    for k, lam, s, beta, p, eta in itertools.product(
            (1, 5), (1.0, 49.4, 500.0), (50.0, 2000.0), (5e-324, 1e-3, 1.0),
            (1, 16), (1e-9, 1e-2)):
        prob = make_problem([StageLoad(lam, s, beta)] * k, p=p, eta=eta)
        if prob.cpu_demand() < 0.99 * p and eta < prob.zeta():
            yield prob


def test_bisection_ends_within_200_iterations(monkeypatch):
    evaluations = []
    stationary_point = optimizer._stationary_point

    def counted(problem, nu):
        evaluations.append(nu)
        return stationary_point(problem, nu)

    monkeypatch.setattr(optimizer, "_stationary_point", counted)
    instances = list(_binding_corner_instances())
    assert instances
    for prob in instances:
        evaluations.clear()
        t = solve_numeric(prob)
        assert t is not None and prob.satisfies_cpu_constraint(t, tol=1e-9)
        assert len(evaluations) <= 200


def test_solve_fractional_dispatches():
    loads = [StageLoad(100.0, 1000.0)]
    assert solve_fractional(make_problem(loads, eta=1e-3)) is not None
    assert solve_fractional(make_problem([StageLoad(900.0, 100.0)], p=8)) is None


def test_integerize_feasible_and_near_grid_optimum():
    loads = [StageLoad(500.0, 400.0), StageLoad(300.0, 300.0),
             StageLoad(200.0, 600.0)]
    prob = make_problem(loads, p=8, eta=1e-3)
    integral = solve_integer(prob)
    assert integral is not None
    assert all(t >= 1 for t in integral)
    assert prob.satisfies_cpu_constraint(integral)
    best, best_obj = grid_search(prob, max_threads=6)
    assert prob.objective(integral) <= best_obj * 1.05


def test_integerize_bumps_unstable_floors():
    # fractional 1.2 with lambda/s = 1.1: floor(1.2)=1 is unstable ->
    # must pick 2.
    loads = [StageLoad(110.0, 100.0)]
    prob = make_problem(loads, p=8, eta=1e-3)
    integral = integerize(prob, [1.2])
    assert integral == [2]


def test_grid_search_raises_without_feasible_point():
    loads = [StageLoad(500.0, 100.0)]  # needs >5 threads of CPU 1.0 each
    prob = make_problem(loads, p=2, eta=1e-3)
    with pytest.raises(ValueError):
        grid_search(prob, max_threads=8)


def test_idle_stage_gets_zero_fractional_then_minimum_integer():
    loads = [StageLoad(0.0, 1000.0), StageLoad(100.0, 1000.0)]
    prob = make_problem(loads, eta=1e-3)
    frac = solve_closed_form(prob)
    assert frac[0] == 0.0
    integral = integerize(prob, frac)
    assert integral[0] == 1  # floor of one thread per stage


def test_blocking_stage_gets_more_threads_than_cpu_equivalent():
    """§5.2's point: same arrival rate and compute, but one stage waits on
    sync I/O (lower s, lower beta) -> it needs more threads."""
    pure = StageLoad(100.0, 1000.0, cpu_fraction=1.0)      # x = 1ms
    blocking = StageLoad(100.0, 200.0, cpu_fraction=0.2)   # x=1ms, w=4ms
    prob = make_problem([pure, blocking], eta=1e-3)
    t = solve_fractional(prob)
    assert t[1] > t[0]
