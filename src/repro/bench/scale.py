"""Actor-count scaling bench: 10k → 1M actors on a 10-silo cluster.

The paper's headline configuration (§6) is ~10^6 player actors on 10
servers, and Fig. 10(f) says ActOp's gains hold from 10K to 1M actors.
This module measures both along that axis: every population runs twice,
once with ActOp off and once with the calibrated partitioning protocol
on from sim t = 1 s.  Each run reports wall-clock for bootstrap and run,
simulator throughput, **peak RSS per actor** (read from
``resource.getrusage``) and, per 2-simulated-second slice, the host
seconds the slice took, the remote-message share inside it, migrations
and gen-2 garbage collections so far, mean CPU utilization and the
client requests in flight.

Every population is :func:`repro.bench.harness.halo_cluster`'s Halo on
10 silos with the two paper-scale workload switches on (both
deterministic): ``direct_bootstrap`` installs the initial games without
flooding t=0 with ~10^5 ``start_game`` fan-outs, and ``lazy_idle_pool``
keeps pooled players unactivated until matched.

Unlike the Fig.-10f bench (which scales load *with* population to show
per-actor overhead), the request rate here is held at the paper's
absolute level: the paper drives ~4K status requests/s against the
whole cluster whatever the population, so a 100× bigger population must
not mean a 100× bigger message load on the same 10 silos.  Game churn
still scales with population, so the 1M point is a saturated cluster
(mean CPU utilization ~0.99 and a growing in-flight backlog).

``peak_rss_bytes`` is process-lifetime peak, and a second run in one
process would pay for the first one's heap, so :func:`run_scaling_curve`
runs each (population, mode) in a fresh interpreter.

The RSS gate threshold lives here and is enforced both by ``repro perf
--gate`` (the CI scale-smoke job) and by
``benchmarks/perf/test_scaling_gate.py`` — RSS regressions fail CI
exactly like latency regressions do.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
from typing import Any, Optional, Sequence

from ..core.actop import ActOpConfig
from .harness import halo_cluster, halo_partitioning_config

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

SLICE = 2.0          # simulated seconds per reported slice
MODES = ("off", "on")

_CHILD = ("import json, sys\n"
          "from repro.bench.scale import run_scale_point\n"
          "print(json.dumps(run_scale_point(int(sys.argv[1]), "
          "float(sys.argv[2]), sys.argv[3] == 'on')))")


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux (bytes on macOS, where getpagesize-based
    # code would be wrong anyway; the CI gate runs on Linux).
    scale = 1024 if sys.platform != "darwin" else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def run_scale_point(actors: int, horizon: float, actop: bool) -> dict[str, Any]:
    """Run one seeded Halo population and measure it end to end, slice by
    slice.  ``actop`` turns the partitioning protocol on (from sim t = 1 s,
    as the end-to-end benchmark's ``halo_actop``)."""
    alloc_before = sys.getallocatedblocks()
    # Interpreter + import baseline, read before the cluster exists.  In
    # an isolated subprocess nothing heavy has run yet, so current peak
    # IS the baseline; the gate applies to what the actors add on top.
    baseline_rss = _peak_rss_bytes()
    config = None
    if actop:
        config = ActOpConfig(partitioning=dataclasses.replace(
            halo_partitioning_config(), warmup=1.0))
    cluster, workload = halo_cluster(
        actors, PAPER_REQUEST_RATE, seed=1, actop=config,
        direct_bootstrap=True, lazy_idle_pool=True)
    rt = cluster.runtime
    boot_start = time.perf_counter()
    workload.start()
    cluster.start()
    boot_seconds = time.perf_counter() - boot_start
    gc.collect()
    gen2_before = gc.get_stats()[2]["collections"]

    slices = []
    steps = max(1, math.ceil(horizon / SLICE))
    for k in range(1, steps + 1):
        until = min(horizon, SLICE * k)
        local0, remote0 = rt.msgs_local, rt.msgs_remote
        busy0, t0 = rt.cpu_busy_snapshot(), rt.sim.now
        start = time.perf_counter()
        rt.run(until=until)
        host_s = time.perf_counter() - start
        remote = rt.msgs_remote - remote0
        msgs = rt.msgs_local - local0 + remote
        slices.append({
            "until_sim_s": until,
            "host_s": round(host_s, 3),
            "remote_share": remote / msgs if msgs else 0.0,
            "migrations": rt.migrations_total,
            "gen2_collections": gc.get_stats()[2]["collections"] - gen2_before,
            "mean_cpu_utilization": round(rt.mean_cpu_utilization(busy0, t0), 4),
            "inflight_requests": rt.inflight_requests,
        })
        print("  {actors:,} actors actop={mode} t={until_sim_s:5.1f}  "
              "host {host_s:6.2f} s  remote {remote_share:.3f}  "
              "migrations {migrations}  gen-2 {gen2_collections}  "
              "util {mean_cpu_utilization:.2f}  in flight {inflight_requests}"
              .format(actors=actors, mode="on " if actop else "off",
                      **slices[-1]), file=sys.stderr, flush=True)
    run_seconds = sum(s["host_s"] for s in slices)

    peak_rss = _peak_rss_bytes()
    events = rt.sim.events_processed
    failed = rt.requests_timed_out + rt.rejected_requests + rt.requests_shed
    return {
        "actors": actors,
        "actop": actop,
        "horizon_sim_s": horizon,
        "bootstrap_seconds": round(boot_seconds, 3),
        "run_seconds": round(run_seconds, 3),
        "wall_seconds": round(boot_seconds + run_seconds, 3),
        "events": events,
        "events_per_sec": round(events / run_seconds, 1) if run_seconds > 0 else 0.0,
        "activations": sum(len(silo.activations) for silo in rt.silos),
        "population": workload.population,
        "games_started": workload.games_started,
        "requests_issued": rt.requests_issued,
        "requests_completed": rt.requests_completed,
        "failed": failed,
        "lost": (rt.requests_issued - rt.requests_completed - failed
                 - rt.inflight_requests),
        "idle_short_circuits": workload.idle_short_circuits,
        "slices": slices,
        "peak_rss_bytes": peak_rss,
        "baseline_rss_bytes": baseline_rss,
        "rss_bytes_per_actor": round(peak_rss / actors, 1),
        "rss_delta_bytes_per_actor": round(
            max(0, peak_rss - baseline_rss) / actors, 1),
        "alloc_blocks_delta": sys.getallocatedblocks() - alloc_before,
    }


def _label(run: dict[str, Any]) -> str:
    return f"{run['actors']:,} actors, actop {'on' if run['actop'] else 'off'}"


def gate_violations(run: dict[str, Any]) -> list[str]:
    """Threshold checks for one measured run; empty list = pass."""
    violations = []
    # Gate on the population's own footprint (peak minus interpreter
    # baseline): the ~60 MB a bare interpreter costs would swamp the
    # small points while being noise at 10^6 actors.
    delta = max(0, run["peak_rss_bytes"] - run["baseline_rss_bytes"])
    per_actor = delta / run["actors"]
    if per_actor > RSS_PER_ACTOR_GATE_BYTES:
        violations.append(
            f"{_label(run)}: {per_actor:,.0f} B/actor peak RSS over baseline "
            f"exceeds the {RSS_PER_ACTOR_GATE_BYTES} B gate"
        )
    return violations


def _run_isolated(actors: int, horizon: float, mode: str) -> dict[str, Any]:
    """Measure one run in a fresh interpreter for a clean RSS peak."""
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(actors), repr(horizon), mode],
        env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {actors} actop={mode} failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def run_scaling_curve(
    points: Optional[Sequence[int]] = None,
    horizon: float = 30.0,
) -> dict[str, Any]:
    """Measure the actor-count scaling curve, ActOp off and on at every
    population, one subprocess per run."""
    measured = []
    for actors in points or DEFAULT_POINTS:
        point: dict[str, Any] = {"actors": actors}
        for mode in MODES:
            point[mode] = _run_isolated(actors, horizon, mode)
        runs = [point[mode] for mode in MODES]
        off, on = (run["run_seconds"] for run in runs)
        point["on_off_ratio"] = round(on / off, 3) if off else None
        point["violations"] = [v for run in runs for v in gate_violations(run)]
        point["request_failures"] = [
            f"{_label(run)}: {run['failed']} failed, {run['lost']} lost requests"
            for run in runs if run["failed"] or run["lost"]]
        measured.append(point)
    return {
        "schema": 3,
        "kind": "scaling",
        "gate_rss_bytes_per_actor": RSS_PER_ACTOR_GATE_BYTES,
        "points": measured,
        "gate_passed": all(not p["violations"] for p in measured),
    }


def render_curve(doc: dict[str, Any]) -> str:
    from .reporting import render_table

    rows = []
    for p in doc["points"]:
        for mode in MODES:
            run = p[mode]
            rows.append([
                f"{p['actors']:,}",
                mode,
                f"{run['wall_seconds']:.1f}",
                f"{run['events']:,}",
                f"{run['events_per_sec']:,.0f}",
                f"{run['peak_rss_bytes'] / 2**20:,.0f}",
                f"{run['rss_delta_bytes_per_actor']:,.0f}",
                f"{run['slices'][-1]['remote_share']:.3f}",
                f"{run['slices'][-1]['migrations']:,}",
                f"{run['requests_completed']:,}",
                p["on_off_ratio"] if mode == "on" else "",
                "FAIL" if gate_violations(run) else "ok",
            ])
    return render_table(
        ["actors", "actop", "wall s", "events", "events/s", "peak RSS MiB",
         "B/actor", "remote", "migrations", "completed", "host on/off",
         f"gate ≤{doc['gate_rss_bytes_per_actor']}B"],
        rows,
        title="repro perf (10-silo seeded Halo, ActOp off and on; "
              "per-slice records in the JSON)",
    )
