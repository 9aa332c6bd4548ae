"""The seven named workloads of the end-to-end benchmark.

Each workload is one function ``run(seed, smoke, on_run) -> Repeat`` that
builds a **fresh cluster** through the public construction API
(``build_cluster`` / ``bench.harness`` / the ``bench.scale`` constants /
``AsyncioBackend``), times set-up and the measured run separately, and
returns everything the runner reduces: host times (raw wall and
reference seconds — see ``refclock.py``), the client latency samples, the per-layer counters the program already
exposes, and the values that must repeat bit for bit on one seed.

The seed reaches the program only as ``ClusterConfig(seed=...)``; sizes
are constants here so a later change cannot tune them per commit.  Why
each workload exists, and which layers it does and does not exercise,
is recorded in ``README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import time
from array import array
from typing import Any, Callable

from refclock import RefClock
from repro import ClusterConfig, build_cluster
from repro.actor.errors import ActorError
from repro.backend.bench import PingerActor, PongerActor
from repro.bench import scale as scale_bench
from repro.bench.harness import (
    HALO_RATE_FULL,
    HALO_TIME_SCALE,
    HeartbeatExperiment,
    halo_partitioning_config,
    halo_thread_config,
)
from repro.bench.metrics import percentile
from repro.core.actop import ActOpConfig
from repro.workloads.halo import HaloConfig, HaloWorkload
from repro.workloads.stageflow import StageflowConfig, StageflowWorkload

STAGES = ("receiver", "worker", "server_sender", "client_sender")
SLICES = 6   # the measured run is cut into this many pieces, a reference tick between each
OnRun = Callable[[], None]   # called when the measured run starts (the tracer's hook)


def rss_bytes() -> int:
    """Process peak RSS so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclasses.dataclass
class Repeat:
    """One fresh-cluster repeat of a workload."""

    setup_s: float          # build + register/spawn + bootstrap (+ warm-up on asyncio), raw wall
    setup_ref_s: float      # ... in reference seconds (refclock.py)
    run_s: float            # raw host wall seconds of the measured run
    run_ref_s: float        # ... in reference seconds, slice by slice
    cpu_s: float            # raw process_time over the measured run
    attempted: int
    completed: int          # client requests completed in the measured run
    failed: int
    # Sorted client latencies in the runtime's own clock: simulated ms
    # (/ time_scale) on the simulator, reference ms on asyncio.
    latencies_ms: list[float]
    counters: dict[str, float]  # per-layer counters the program exposes
    exact: dict[str, Any]       # must be identical on every repeat of one seed

    def percentile(self, q: float) -> float:
        return percentile(self.latencies_ms, q)


def exact_diff(a: Repeat, b: Repeat) -> dict[str, tuple]:
    """Where two repeats that should agree bit for bit do not."""
    return {k: (a.exact[k], v) for k, v in b.exact.items() if a.exact[k] != v}


def _no_problems(_repeat: Repeat) -> list[str]:
    return []


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "sim" | "aio"
    run: Callable[[int, bool, OnRun], Repeat]
    check: Callable[[Repeat], list[str]] = _no_problems   # workload-specific invariants


def _nothing() -> None:
    return None


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def _stage_snapshots(rt) -> list[dict[str, tuple]]:
    return [{name: silo.server.stages[name].stats.snapshot() for name in STAGES}
            for silo in rt.silos]


def _sim_repeat(build: Callable[[], tuple], horizon: float,
                window_start: float, on_run: OnRun) -> Repeat:
    """Set up, then run sim time 0 -> ``horizon``; client latency, the
    remote share, stage waits and CPU utilisation are taken over
    ``[window_start, horizon]``, host time and per-request ratios over
    the whole run (users pay the warm-up on every run)."""
    ref = RefClock()
    ref.tick()
    t0 = time.perf_counter()
    cluster, workload = build()
    tb = time.perf_counter()
    workload.start()
    bootstrap_s = time.perf_counter() - tb
    cluster.start()
    setup_s = time.perf_counter() - t0
    ref.tick()
    setup_slowdown = ref.slowdown()
    rt = cluster.runtime
    ts = rt.time_scale

    gc.collect()
    on_run()
    run_s = run_ref_s = cpu_s = 0.0
    for until in sorted({window_start, *(horizon * k / SLICES for k in range(1, SLICES + 1))}):
        c1 = time.process_time()
        t1 = time.perf_counter()
        rt.run(until=until)
        wall = time.perf_counter() - t1
        cpu_s += time.process_time() - c1
        ref.tick()
        run_s += wall
        run_ref_s += wall / ref.slowdown()   # this slice against the probes either side of it
        if until == window_start:
            rt.reset_latency_stats()
            local0, remote0 = rt.msgs_local, rt.msgs_remote
            busy0 = rt.cpu_busy_snapshot()
            stages0 = _stage_snapshots(rt)

    lat = rt.client_latency
    latencies = [v / ts * 1e3 for v, _ in lat.cdf(points=max(lat.count, 1))]
    window_msgs = (rt.msgs_local - local0) + (rt.msgs_remote - remote0)
    remote_fraction = (rt.msgs_remote - remote0) / window_msgs if window_msgs else 0.0
    completed = rt.requests_completed
    failed = rt.requests_timed_out + rt.rejected_requests + rt.requests_shed
    per_req = 1.0 / completed if completed else 0.0

    events = rt.sim.events_processed
    items = sum(s.server.stages[n].stats.completions for s in rt.silos for n in STAGES)
    bursts = sum(s.server.cpu.bursts_completed for s in rt.silos)
    activations = sum(len(s.activations) for s in rt.silos)
    counters: dict[str, float] = {
        "sim.engine.events_per_req": events * per_req,
        "sim.engine.events_per_s": events / run_ref_s,
        "seda.stage.items_per_req": items * per_req,
        "sim.cpu.bursts_per_req": bursts * per_req,
        "sim.cpu.util": rt.mean_cpu_utilization(busy0, window_start),
        "sim.network.msgs_per_req": rt.network.messages_sent * per_req,
        "actor.server.msgs_local_per_req": rt.msgs_local * per_req,
        "actor.server.msgs_remote_per_req": rt.msgs_remote * per_req,
        "actor.server.remote_fraction": remote_fraction,
        "actor.server.migrations": rt.migrations_total,
        "actor.server.placements_new": sum(s.placements_new for s in rt.silos),
        "actor.activation.count": activations,
        "actor.runtime.lat_p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "workloads.halo.bootstrap_s":
            bootstrap_s / setup_slowdown if isinstance(workload, HaloWorkload) else 0.0,
    }
    stages1 = _stage_snapshots(rt)
    for name in STAGES:
        # snapshot() = (arrivals, completions, sum_z, sum_x, sum_queue_wait,
        # sum_ready, sum_wait); per-item means over all silos in the window.
        done = sum(b[name][1] - a[name][1] for a, b in zip(stages0, stages1))
        queue = sum(b[name][4] - a[name][4] for a, b in zip(stages0, stages1))
        ready = sum(b[name][5] - a[name][5] for a, b in zip(stages0, stages1))
        per_item = 1e3 / ts / done if done else 0.0
        counters[f"seda.stage.{name}.queue_ms"] = queue * per_item
        counters[f"seda.stage.{name}.ready_ms"] = ready * per_item
        counters[f"seda.stage.{name}.threads"] = sum(
            s.server.stages[name].threads for s in rt.silos)
    actop = cluster.actop
    agents = actop.agents if actop is not None else []
    initiated = sum(a.exchanges_initiated for a in agents)
    accepted = sum(a.exchanges_accepted for a in agents)
    counters["core.partitioning.exchanges_initiated"] = initiated
    counters["core.partitioning.exchanges_accepted"] = accepted
    counters["core.partitioning.accept_ratio"] = accepted / initiated if initiated else 0.0
    counters["core.threads.ticks"] = sum(
        c.ticks for c in (actop.controllers if actop is not None else []))

    exact = {
        "events": events,
        "requests_completed": completed,
        "window_samples": len(latencies),
        "lat_p50_ms": percentile(latencies, 50.0),
        "lat_p95_ms": percentile(latencies, 95.0),
        "lat_p99_ms": percentile(latencies, 99.0),
        "remote_fraction": remote_fraction,
        "msgs_local": rt.msgs_local,
        "msgs_remote": rt.msgs_remote,
        "migrations": rt.migrations_total,
        "latency_sha256": hashlib.sha256(array("d", latencies).tobytes()).hexdigest(),
    }
    return Repeat(setup_s, setup_s / setup_slowdown, run_s, run_ref_s, cpu_s,
                  completed + failed, completed, failed, latencies, counters, exact)


# HaloExperiment's load_fraction: 2/3 is the paper's 4K req/s point (~53% CPU
# under random placement).  At 1.0 (~80% CPU) the hottest silo of a random
# placement sits near saturation and the latency of a 12 s run depends on the
# seed more than on the program: p50 spread 26%, p90 70% over ten seeds, against
# 1% and 2% here.
HALO_LOAD = 2.0 / 3.0


def _halo(seed: int, players: int, rate_full: float, actop=None, **halo_flags):
    cluster = build_cluster(
        ClusterConfig(num_servers=10, seed=seed, time_scale=HALO_TIME_SCALE),
        actop=actop)
    workload = HaloWorkload(cluster.runtime, HaloConfig(
        target_players=players,
        pool_target=max(16, players // 50),
        request_rate=rate_full / HALO_TIME_SCALE,
        game_duration=(120.0, 180.0),
        **halo_flags))
    return cluster, workload


def halo_base(seed: int, smoke: bool = False, on_run: OnRun = _nothing) -> Repeat:
    players, horizon, window = (300, 3.0, 1.0) if smoke else (2_000, 12.0, 4.0)
    rate = HALO_LOAD * HALO_RATE_FULL * players / 2_000.0
    return _sim_repeat(lambda: _halo(seed, players, rate), horizon, window, on_run)


def halo_actop(seed: int, smoke: bool = False, on_run: OnRun = _nothing) -> Repeat:
    players, horizon, window = (300, 3.0, 1.0) if smoke else (2_000, 16.0, 10.0)
    rate = HALO_LOAD * HALO_RATE_FULL * players / 2_000.0
    # The harness's calibrated protocol settings with one change: exchanges
    # start at sim t=1 s instead of 15 s, so the placement converges
    # (remote share ~0.9 -> ~0.08) inside a horizon that fits the run budget.
    actop = ActOpConfig(
        partitioning=dataclasses.replace(halo_partitioning_config(), warmup=1.0),
        thread_allocation=halo_thread_config(HALO_TIME_SCALE))
    return _sim_repeat(lambda: _halo(seed, players, rate, actop=actop),
                       horizon, window, on_run)


def halo_scale_100k(seed: int, smoke: bool = False, on_run: OnRun = _nothing) -> Repeat:
    # bench.scale.run_scale_point's configuration, built through
    # build_cluster so the runtime's latency recorder is reachable.
    actors, horizon = (10_000, 2.0) if smoke else (100_000, 6.0)
    build = lambda: _halo(  # noqa: E731
        seed, actors, scale_bench.PAPER_REQUEST_RATE,
        direct_bootstrap=True, lazy_idle_pool=True)
    return _sim_repeat(build, horizon, 0.0, on_run)


def heartbeat_threads(seed: int, smoke: bool = False, on_run: OnRun = _nothing) -> Repeat:
    warmup, duration = (1.0, 1.0) if smoke else (8.0, 8.0)

    def build():
        exp = HeartbeatExperiment(request_rate=15_000.0, monitors=800,
                                  thread_allocation=True, seed=seed)
        return exp.cluster, exp.workload

    return _sim_repeat(build, warmup + duration, warmup, on_run)


# ----------------------------------------------------------------------
# Asyncio workloads (closed loop, one process, one event loop)
# ----------------------------------------------------------------------
class _ClosedLoop:
    """``clients`` callers; each sends its next request only when its
    previous one completed, from the completion callback."""

    def __init__(self, connect: Callable[[Callable], Callable[[int], None]],
                 clients: int):
        self.send = connect(self._complete)
        self.clients = clients
        self.budget = self.issued = self.done = self.errors = 0
        self.latencies: list[float] = []
        self.t_end = 0.0

    def run(self, backend, count: int) -> bool:
        """Complete ``count`` more requests; False if the loop stalled."""
        self.budget += count
        for _ in range(min(self.clients, count)):
            self._send()
        return backend.run_until_idle() and self.done == self.budget

    def _send(self) -> None:
        self.issued += 1
        self.send(self.issued)

    def _complete(self, latency: float, result: Any) -> None:
        self.done += 1
        if isinstance(result, ActorError):
            self.errors += 1
        else:
            self.latencies.append(latency)
        if self.done == self.budget:
            self.t_end = time.perf_counter()
        elif self.issued < self.budget:
            self._send()


def _aio_repeat(open_cluster: Callable[[], tuple], clients: int, warm: int,
                total: int, on_run: OnRun) -> Repeat:
    ref = RefClock()
    ref.tick()
    t0 = time.perf_counter()
    cluster, connect = open_cluster()
    with cluster:
        backend = cluster.runtime
        loop = _ClosedLoop(connect, clients)
        stalled = not loop.run(backend, warm)
        setup_s = time.perf_counter() - t0
        ref.tick()
        setup_slowdown = ref.slowdown()
        loop.latencies.clear()
        errors0, timeouts0 = loop.errors, backend.requests_timed_out
        local0, remote0 = backend.msgs_local, backend.msgs_remote

        gc.collect()
        on_run()
        run_s = run_ref_s = cpu_s = 0.0
        latencies: list[float] = []
        for _ in range(SLICES):
            c1 = time.process_time()
            t1 = time.perf_counter()
            finished = loop.run(backend, total // SLICES)
            cpu_s += time.process_time() - c1
            wall = (loop.t_end if finished else time.perf_counter()) - t1
            stalled = stalled or not finished
            ref.tick()
            slowdown = ref.slowdown()   # this slice against the probes either side of it
            run_s += wall
            run_ref_s += wall / slowdown
            latencies += [v * 1e3 / slowdown for v in loop.latencies]
            loop.latencies.clear()
        latencies.sort()

        completed = len(latencies)
        # ActorError results (CallTimeout included) plus never-completed.
        failed = (loop.errors - errors0) + (loop.budget - loop.done)
        if stalled:
            failed = max(failed, 1)
        msgs_local = backend.msgs_local - local0
        msgs_remote = backend.msgs_remote - remote0
        timed_out = backend.requests_timed_out - timeouts0
    counters = {
        "backend.asyncio.msgs_per_req": (msgs_local + msgs_remote) / total,
        "backend.asyncio.remote_msgs_per_req": msgs_remote / total,
        "backend.asyncio.rt_p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "backend.asyncio.cpu_us_per_req": cpu_s * (run_ref_s / run_s) / total * 1e6,
    }
    exact = {"completed": completed, "failed": failed, "timed_out": timed_out,
             "msgs_local": msgs_local, "msgs_remote": msgs_remote}
    return Repeat(setup_s, setup_s / setup_slowdown, run_s, run_ref_s, cpu_s,
                  total, completed, failed, latencies, counters, exact)


def open_ping(seed: int, transport: str, ponger_silo: int = 1):
    """2 silos, pinger@0 -> ponger@``ponger_silo`` (``backend.bench`` actors)."""
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=seed),
                            backend="asyncio", transport=transport)
    backend = cluster.backend
    backend.register_actor("pinger", PingerActor)
    backend.register_actor("ponger", PongerActor)
    cluster.start()
    pinger = backend.ref("pinger", 0)
    backend.spawn(pinger, server=0)
    backend.spawn(backend.ref("ponger", 0), server=ponger_silo)

    def connect(on_complete: Callable) -> Callable[[int], None]:
        return lambda n: backend.client_request(
            pinger, "ping", n, size=64, response_size=64, on_complete=on_complete)

    return cluster, connect


class _LoopedStageflow(StageflowWorkload):
    """Stageflow whose completions feed the closed loop."""

    on_done: Callable[[float, Any], None]

    def _on_complete(self, latency: float, result, kind: str) -> None:
        super()._on_complete(latency, result, kind)
        self.on_done(latency, result)


def open_stageflow(seed: int, transport: str):
    """4 silos, default route -> enrich -> transform stages behind
    round-robin pool routers, no load-report loop."""
    cluster = build_cluster(ClusterConfig(num_servers=4, seed=seed),
                            backend="asyncio", transport=transport)
    cluster.start()
    workload = _LoopedStageflow(
        cluster.runtime, StageflowConfig(policy="round_robin", report_period=None))
    workload.start(arrivals=False)

    def connect(on_complete: Callable) -> Callable[[int], None]:
        workload.on_done = on_complete
        return lambda _n: workload.drive(1)

    return cluster, connect


def aio_ping_tcp(seed: int, smoke: bool = False, on_run: OnRun = _nothing,
                 transport: str = "tcp", ponger_silo: int = 1) -> Repeat:
    warm, total = (50, 420) if smoke else (1_000, 4_200)
    return _aio_repeat(lambda: open_ping(seed, transport, ponger_silo),
                       1, warm, total, on_run)


def aio_stageflow_inproc(seed: int, smoke: bool = False, on_run: OnRun = _nothing,
                         transport: str = "inproc") -> Repeat:
    warm, total = (40, 420) if smoke else (500, 4_200)
    return _aio_repeat(lambda: open_stageflow(seed, transport),
                       8, warm, total, on_run)


def aio_stageflow_tcp(seed: int, smoke: bool = False, on_run: OnRun = _nothing,
                      transport: str = "tcp") -> Repeat:
    warm, total = (40, 180) if smoke else (300, 1_500)
    return _aio_repeat(lambda: open_stageflow(seed, transport),
                       8, warm, total, on_run)


def _ping_counts(repeat: Repeat) -> list[str]:
    # pinger and ponger sit on different silos: call and response both cross.
    if repeat.exact["msgs_remote"] == 2 * repeat.attempted and not repeat.exact["msgs_local"]:
        return []
    return [f"ping message counts off: {repeat.exact}"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("halo_base", "sim", halo_base),
    Workload("halo_actop", "sim", halo_actop),
    Workload("halo_scale_100k", "sim", halo_scale_100k),
    Workload("heartbeat_threads", "sim", heartbeat_threads),
    Workload("aio_ping_tcp", "aio", aio_ping_tcp, _ping_counts),
    Workload("aio_stageflow_inproc", "aio", aio_stageflow_inproc),
    Workload("aio_stageflow_tcp", "aio", aio_stageflow_tcp),
)}
