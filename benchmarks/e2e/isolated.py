"""Isolated layer drivers: cost per operation of one layer's public
functions with nothing else running.

Where ``repro.bench.perf.BENCHMARKS`` (the ``repro perf`` suite) already
drives a layer, its function is reused instead of re-implemented; the
drivers below cover the layers it has no entry for.  Best of
``REPEATS`` runs, the usual microbenchmark reduction: noise only ever
slows a run down.  These numbers do not depend on the workload or seed.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from refclock import RefClock
from repro.actor.commtable import CommTable
from repro.actor.ids import ActorRef
from repro.bench.perf import BENCHMARKS
from repro.core.partitioning.candidate import candidate_set
from repro.core.partitioning.exchange import greedy_exchange
from repro.core.partitioning.view import PartitionView
from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import solve_integer
from repro.queueing.jackson import StageLoad
from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

REPEATS = 3


def _best(run: Callable[[], tuple[int, float]]) -> float:
    """Reference seconds (refclock.py) per unit, best of REPEATS; ``run``
    returns (units, seconds)."""
    ref = RefClock()
    ref.tick()
    best = float("inf")
    for _ in range(REPEATS):
        units, seconds = run()
        ref.tick()
        best = min(best, seconds / ref.slowdown() / units)
    return best


def _perf(name: str, **kwargs) -> float:
    units_seconds = lambda: BENCHMARKS[name][0](**kwargs)[:2]  # noqa: E731
    return _best(units_seconds)


def _cpu_bursts(bursts: int) -> tuple[int, float]:
    sim = Simulator()
    cpu = CpuPool(sim, processors=8)
    done = [0]

    def finished(_burst) -> None:
        done[0] += 1
        if done[0] < bursts:
            cpu.submit(1e-5, finished)

    for _ in range(16):   # 8 running + 8 queued: both grant paths
        cpu.submit(1e-5, finished)
    start = time.perf_counter()
    sim.run()
    return done[0], time.perf_counter() - start


def _network_msgs(msgs: int) -> tuple[int, float]:
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    done = [0]

    def arrived() -> None:
        done[0] += 1
        if done[0] < msgs:
            net.deliver(256, arrived, src=0, dst=1)

    for _ in range(32):
        net.deliver(256, arrived, src=0, dst=1)
    start = time.perf_counter()
    sim.run()
    return done[0], time.perf_counter() - start


def _commtable_records(records: int) -> tuple[int, float]:
    ids = [ActorRef("e2e.isolated", i).id for i in range(512)]
    table = CommTable()
    record = table.record
    start = time.perf_counter()
    for i in range(records):
        record(ids[i & 511], ids[(i * 7 + 1) & 511])
    return records, time.perf_counter() - start


def _exchanges(count: int) -> tuple[int, float]:
    """``greedy_exchange`` between two servers of a seeded synthetic graph:
    400 vertices, ~6 weighted edges each, 96 candidates a side."""
    rng = random.Random(7)
    home = {v: v % 2 for v in range(400)}
    edges: dict[int, dict[int, dict[int, float]]] = {0: {}, 1: {}}
    for v in range(400):
        for _ in range(6):
            u = rng.randrange(400)
            if u != v:
                weight = rng.uniform(1.0, 10.0)
                edges[home[v]].setdefault(v, {})[u] = weight
                edges[home[u]].setdefault(u, {})[v] = weight
    views = [PartitionView(p, edges[p], home.get, 200, {0: 200, 1: 200}) for p in (0, 1)]
    s_side = candidate_set(views[0], 1, 96)
    t_side = candidate_set(views[1], 0, 96)
    start = time.perf_counter()
    for _ in range(count):
        greedy_exchange(s_side, t_side, 200, 200, delta=24)
    return count, time.perf_counter() - start


def _solves(count: int) -> tuple[int, float]:
    problem = ThreadAllocationProblem(
        stages=[StageLoad(3000.0, 9000.0, 1.0, "receiver"),
                StageLoad(3000.0, 6000.0, 0.8, "worker"),
                StageLoad(1500.0, 9000.0, 1.0, "server_sender"),
                StageLoad(3000.0, 12000.0, 1.0, "client_sender")],
        processors=8, eta=5e-4)
    start = time.perf_counter()
    for _ in range(count):
        solve_integer(problem)
    return count, time.perf_counter() - start


def run_all(smoke: bool = False) -> dict[str, float]:
    k = 10 if smoke else 1
    return {
        "sim.engine.ns_per_event": _perf("event_loop", events=60_000 // k) * 1e9,
        "sim.engine.cancel_ns_per_event": _perf("cancellation", events=30_000 // k) * 1e9,
        "seda.stage.ns_per_item": _perf("stage_pipeline", items=20_000 // k) * 1e9,
        "bench.metrics.ns_per_record": _perf("histogram", samples=100_000 // k) * 1e9,
        "graph.spacesaving.ns_per_offer": _perf("spacesaving", offers=60_000 // k) * 1e9,
        "sim.cpu.ns_per_burst": _best(lambda: _cpu_bursts(40_000 // k)) * 1e9,
        "sim.network.ns_per_msg": _best(lambda: _network_msgs(40_000 // k)) * 1e9,
        "actor.commtable.ns_per_record": _best(lambda: _commtable_records(100_000 // k)) * 1e9,
        "core.partitioning.us_per_exchange": _best(lambda: _exchanges(60 // k)) * 1e6,
        "core.threads.us_per_solve": _best(lambda: _solves(60 // k)) * 1e6,
    }
