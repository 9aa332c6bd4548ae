"""§5.3 ablation: closed form and its binding-cap extension vs brute force.

Theorem 2's value is operational: the closed form makes re-optimizing the
thread allocation cheap enough to run continuously.  When the processor
cap binds, the same formula with one KKT multiplier on the cap (found by
bisection) is the exact optimum.  This ablation checks (a) the
integerized solution hits the brute-force integer optimum on
representative instances, including one whose cap binds, (b) where the
cap does not bind the KKT solver returns the closed form exactly, and
(c) both are orders of magnitude cheaper than the brute force.
"""

import time

from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import (
    grid_search,
    integerize,
    solve_closed_form,
    solve_numeric,
)
from repro.queueing.jackson import StageLoad
from repro.bench.reporting import render_table

INSTANCES = {
    "heartbeat-like (3 hot stages)": ThreadAllocationProblem(
        stages=[
            StageLoad(3000.0, 3600.0, 1.0, "receiver"),
            StageLoad(3000.0, 1700.0, 1.0, "worker"),
            StageLoad(3000.0, 3300.0, 1.0, "client_sender"),
        ],
        processors=8, eta=5e-4,
    ),
    "halo-like (4 stages, skewed)": ThreadAllocationProblem(
        stages=[
            StageLoad(8000.0, 9000.0, 1.0, "receiver"),
            StageLoad(5000.0, 6000.0, 1.0, "worker"),
            StageLoad(7000.0, 8000.0, 1.0, "server_sender"),
            StageLoad(600.0, 8000.0, 1.0, "client_sender"),
        ],
        processors=8, eta=5e-4,
    ),
    "blocking I/O stage": ThreadAllocationProblem(
        stages=[
            StageLoad(2000.0, 4000.0, 1.0, "receiver"),
            StageLoad(2000.0, 250.0, 0.25, "worker(io)"),
            StageLoad(2000.0, 4000.0, 1.0, "sender"),
        ],
        processors=8, eta=5e-4,
    ),
    "heartbeat-like, cap binds (4 cores)": ThreadAllocationProblem(
        stages=[
            StageLoad(3000.0, 3600.0, 1.0, "receiver"),
            StageLoad(3000.0, 1700.0, 1.0, "worker"),
            StageLoad(3000.0, 3300.0, 1.0, "client_sender"),
        ],
        processors=4, eta=1e-5,
    ),
}


def time_solver(solver, problem, repeats=200):
    start = time.perf_counter()
    for _ in range(repeats):
        result = solver(problem)
    return result, (time.perf_counter() - start) / repeats


def run_ablation():
    rows = []
    for name, problem in INSTANCES.items():
        closed, t_closed = time_solver(solve_closed_form, problem)
        numeric, t_numeric = time_solver(solve_numeric, problem)
        assert numeric is not None
        # (b) unconstrained, the KKT solution is Theorem 2 bit for bit;
        #     otherwise the closed form's premise fails.
        assert numeric == closed if problem.eta >= problem.zeta() else closed is None
        integral = integerize(problem, numeric)
        start = time.perf_counter()
        grid_best, grid_obj = grid_search(problem, max_threads=12)
        t_grid = time.perf_counter() - start
        rows.append([
            name, closed is None,
            str(integral), problem.objective(integral),
            str(grid_best), grid_obj,
            t_closed * 1e6, t_numeric * 1e6, t_grid * 1e6,
        ])
    return rows


def test_ablation_thread_optimizer(benchmark, show):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    show(render_table(
        ["instance", "cap binds", "KKT (int)", "objective", "grid optimum",
         "objective", "closed us", "KKT us", "grid us"],
        rows,
        title="§5.3 ablation — Theorem 2 (+ KKT multiplier) vs brute force",
        floatfmt=".4g",
    ))

    assert sum(row[1] for row in rows) == 1
    for row in rows:
        kkt_obj, grid_obj = float(row[3]), float(row[5])
        # (a) the integerized solution matches the brute-force optimum
        #     to within rounding slack;
        assert kkt_obj <= grid_obj * 1.05
        # (c) the solver is far cheaper than the brute force.
        t_numeric, t_grid = float(row[7]), float(row[8])
        assert t_numeric < t_grid / 10
