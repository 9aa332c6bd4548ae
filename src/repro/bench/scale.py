"""Actor-count scaling bench: 10k → 1M actors on a 10-silo cluster.

The paper's headline configuration (§6) is ~10^6 player actors on 10
servers.  This module measures how the simulator holds up along that
axis: wall-clock for bootstrap and run, simulator throughput, and —
the number this repo's memory work is gated on — **peak RSS per
actor**, read from ``resource.getrusage``.

Two paper-scale workload switches are enabled for these points (both
opt-in, both deterministic, neither used by the pinned small-scale
digests): ``direct_bootstrap`` installs the initial games without
flooding t=0 with ~10^5 ``start_game`` fan-outs, and
``lazy_idle_pool`` keeps pooled players unactivated until matched.

Unlike the Fig.-10f bench (which scales load *with* population to show
per-actor overhead), the request rate here is held at the paper's
absolute level: the paper drives ~4K status requests/s against the
whole cluster whatever the population, so a 100× bigger population must
not mean a 100× bigger message load on the same 10 silos.

``peak_rss_bytes`` is process-lifetime peak, so a curve measured
in-process would attribute the 1M point's memory to the 10k point.
:func:`run_scaling_curve` therefore runs each point in a fresh
subprocess (``repro perf --scale-point N --json -``).

Gate thresholds live here and are enforced both by ``repro perf
--scaling --gate`` (the CI scale-smoke job) and by
``benchmarks/perf/test_scaling_gate.py`` — RSS regressions fail CI
exactly like latency regressions do.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Optional, Sequence

__all__ = [
    "DEFAULT_POINTS",
    "RSS_PER_ACTOR_GATE_BYTES",
    "gate_violations",
    "run_scale_point",
    "run_scaling_curve",
]

# ≲4 KB amortized per actor keeps the paper's 10^6-actor population
# within ~4 GB on one machine (acceptance criterion of the memory work;
# the seed tree measured ~3.3 KB/actor at 100k and could not reach 1M).
RSS_PER_ACTOR_GATE_BYTES = 4096

# 10k / 100k / 1M — the curve the EXPERIMENTS.md entry plots.
DEFAULT_POINTS = (10_000, 100_000, 1_000_000)

# Paper-absolute request load (§6.1: 2-6K req/s against the cluster).
PAPER_REQUEST_RATE = 4_000.0
SCALE_TIME_SCALE = 40.0  # same documented trick as bench.harness
SCALE_SEED = 1
SCALE_SERVERS = 10


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux (bytes on macOS, where getpagesize-based
    # code would be wrong anyway; the CI gate runs on Linux).
    scale = 1024 if sys.platform != "darwin" else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def run_scale_point(
    actors: int,
    servers: int = SCALE_SERVERS,
    seed: int = SCALE_SEED,
    horizon: float = 30.0,
    request_rate: float = PAPER_REQUEST_RATE,
    time_scale: float = SCALE_TIME_SCALE,
) -> dict[str, Any]:
    """Run one seeded Halo population and measure it end to end."""
    from ..actor.runtime import ActorRuntime, ClusterConfig
    from ..workloads.halo import HaloConfig, HaloWorkload

    alloc_before = sys.getallocatedblocks()
    # Interpreter + import baseline, read before the cluster exists.  In
    # an isolated subprocess nothing heavy has run yet, so current peak
    # IS the baseline; the gate applies to what the actors add on top.
    baseline_rss = _peak_rss_bytes()
    runtime = ActorRuntime(ClusterConfig(
        num_servers=servers, seed=seed, time_scale=time_scale,
    ))
    config = HaloConfig(
        target_players=actors,
        pool_target=max(16, actors // 50),
        game_duration=(120.0, 180.0),
        request_rate=request_rate / time_scale,
        direct_bootstrap=True,
        lazy_idle_pool=True,
    )
    workload = HaloWorkload(runtime, config)

    boot_start = time.perf_counter()
    workload.start()
    boot_seconds = time.perf_counter() - boot_start

    run_start = time.perf_counter()
    runtime.run(until=horizon)
    run_seconds = time.perf_counter() - run_start

    peak_rss = _peak_rss_bytes()
    events = runtime.sim.events_processed
    activations = sum(len(silo.activations) for silo in runtime.silos)
    return {
        "actors": actors,
        "servers": servers,
        "seed": seed,
        "horizon_sim_s": horizon,
        "request_rate_full": request_rate,
        "time_scale": time_scale,
        "bootstrap_seconds": round(boot_seconds, 3),
        "run_seconds": round(run_seconds, 3),
        "wall_seconds": round(boot_seconds + run_seconds, 3),
        "events": events,
        "events_per_sec": round(events / run_seconds, 1) if run_seconds > 0 else 0.0,
        "activations": activations,
        "population": workload.population,
        "games_started": workload.games_started,
        "requests_issued": workload.requests_issued,
        "requests_completed": runtime.requests_completed,
        "idle_short_circuits": workload.idle_short_circuits,
        "peak_rss_bytes": peak_rss,
        "baseline_rss_bytes": baseline_rss,
        "rss_bytes_per_actor": round(peak_rss / actors, 1),
        "rss_delta_bytes_per_actor": round(
            max(0, peak_rss - baseline_rss) / actors, 1),
        "alloc_blocks_delta": sys.getallocatedblocks() - alloc_before,
    }


def gate_violations(point: dict[str, Any]) -> list[str]:
    """Threshold checks for one measured point; empty list = pass."""
    violations = []
    # Gate on the population's own footprint (peak minus interpreter
    # baseline): the ~60 MB a bare interpreter costs would swamp the
    # small points while being noise at 10^6 actors.
    delta = max(0, point["peak_rss_bytes"]
                - point.get("baseline_rss_bytes", 0))
    per_actor = delta / point["actors"]
    if per_actor > RSS_PER_ACTOR_GATE_BYTES:
        violations.append(
            f"{point['actors']:,} actors: {per_actor:,.0f} B/actor peak RSS "
            f"over baseline exceeds the {RSS_PER_ACTOR_GATE_BYTES} B gate"
        )
    return violations


def _run_point_subprocess(actors: int, horizon: float) -> dict[str, Any]:
    """Measure one point in a fresh interpreter for a clean RSS peak."""
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro", "perf",
        "--scale-point", str(actors), "--horizon", str(horizon), "--json", "-",
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {actors} failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout)["point"]


def run_scaling_curve(
    points: Optional[Sequence[int]] = None,
    horizon: float = 30.0,
) -> dict[str, Any]:
    """Measure the full actor-count scaling curve, one subprocess per
    point so ``peak_rss_bytes`` is that point's own peak."""
    measured = []
    for actors in points or DEFAULT_POINTS:
        point = _run_point_subprocess(actors, horizon)
        point["violations"] = gate_violations(point)
        measured.append(point)
    return {
        "schema": 2,
        "kind": "scaling",
        "gate_rss_bytes_per_actor": RSS_PER_ACTOR_GATE_BYTES,
        "isolated": True,
        "points": measured,
        "gate_passed": all(not p["violations"] for p in measured),
    }


def render_curve(doc: dict[str, Any]) -> str:
    from .reporting import render_table

    rows = []
    for p in doc["points"]:
        rows.append([
            f"{p['actors']:,}",
            f"{p['wall_seconds']:.1f}",
            f"{p['events']:,}",
            f"{p['events_per_sec']:,.0f}",
            f"{p['peak_rss_bytes'] / 2**20:,.0f}",
            f"{p['rss_delta_bytes_per_actor']:,.0f}",
            "FAIL" if p["violations"] else "ok",
        ])
    return render_table(
        ["actors", "wall s", "events", "events/s", "peak RSS MiB",
         "B/actor", f"gate ≤{doc['gate_rss_bytes_per_actor']}B"],
        rows,
        title="repro perf --scaling (10-silo seeded Halo)",
    )
