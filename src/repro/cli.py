"""Command-line interface: ``python -m repro <command>``.

Six subcommands expose the main experiment drivers without writing
any code:

* ``halo``       — the cluster workload A/B (random vs ActOp), §6.1-style;
* ``heartbeat``  — the single-server thread-allocation experiment, §6.2;
* ``partition``  — offline partitioner comparison on a synthetic graph;
* ``perf``       — the actor-count scaling curve (10k/100k/1M seeded
  Halo, ActOp off and on, host time per slice, peak RSS per actor,
  ``--gate``; see :mod:`repro.bench.scale`).
  Host performance is measured by ``benchmarks/e2e/run.py``, not here;
* ``faults``     — a chaos run: Halo under a :mod:`repro.faults` plan
  (silo kills/recoveries, link degradation) with client-side resilience,
  reporting pre/during/post windows and whether the cluster's
  remote-message fraction re-converged after recovery;
* ``sanitize``   — a Halo slice under the :mod:`repro.analysis` runtime
  race sanitizer plus a salted-hash iteration-order probe (non-zero exit
  on a cross-activation conflict, a payload hazard or a divergence).

A retired subcommand is a usage error (exit 2).  Each prints a result table to stdout; a run that produced no
usable result exits non-zero.  ``perf``, ``faults`` and
``sanitize`` share the ``--json PATH`` convention (``'-'`` writes pure
JSON to stdout, the table to stderr) through one emitter
(:func:`_emit`).  They are smoke-level entry points (the full
reproduction lives in ``benchmarks/``).  Each ``_run_*`` imports what
its subcommand runs, so ``repro --help`` loads no harness, partitioner
or asyncio.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Callable, Optional, Sequence

from . import __version__
from .bench.reporting import render_table

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Shared flag groups.  Several subcommands drive the same Halo cluster
# at the same knobs; argparse parents keep the flags (and their help)
# defined once while letting each subcommand pick its own defaults.
# ----------------------------------------------------------------------
def _checked(kind: type, ok: Callable[[Any], bool], what: str):
    """An argparse ``type``: a ``kind`` that satisfies ``ok``, so an
    out-of-range flag is a usage error (exit 2) rather than a traceback
    from deep inside the run."""
    def parse(text: str):
        value = kind(text)   # ValueError -> "invalid <kind> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE = _checked(float, lambda v: v > 0, "> 0")


def _scale_parent(players: int, servers: int, seed: int) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--players", type=int, default=players,
                        help="halo: concurrent player target")
    parent.add_argument("--servers", type=_POSITIVE_INT, default=servers,
                        help="halo: cluster size")
    parent.add_argument("--seed", type=int, default=seed)
    return parent


def _window_parent(warmup: Optional[float],
                   duration: float) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--warmup", type=float, default=warmup,
                        help="simulated warmup seconds before measurement"
                             + (" (default: equal to --duration)"
                                if warmup is None else ""))
    parent.add_argument("--duration", type=float, default=duration,
                        help="simulated seconds per measurement window")
    return parent


def _json_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON document here ('-' for stdout; "
                             "the table then moves to stderr)")
    return parent


def _silo_at(spec: str) -> tuple[int, float]:
    """Parse ``SILO@T`` (e.g. ``3@5`` = silo 3, five seconds in)."""
    try:
        silo, _, at = spec.partition("@")
        return int(silo), float(at)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SILO@T (e.g. 3@5), got {spec!r}")


def _drop_spec(spec: str) -> tuple[float, Optional[float], Optional[float]]:
    """Parse ``PROB[@T1:T2]`` (window defaults to the whole fault phase)."""
    prob, _, window = spec.partition("@")
    try:
        p = float(prob)
        t1, t2 = None, None
        if window:
            start, _, end = window.partition(":")
            t1, t2 = float(start), float(end)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PROB or PROB@T1:T2 (e.g. 0.3@5:15), got {spec!r}")
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(
            f"drop probability must be in [0, 1], got {spec!r}")
    if window and t2 <= t1:
        raise argparse.ArgumentTypeError(
            f"drop window must end after it starts (T2 > T1), got {spec!r}")
    return p, t1, t2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ActOp (EuroSys 2016) reproduction — experiment CLI",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    halo = sub.add_parser(
        "halo", help="Halo Presence cluster A/B",
        parents=[_scale_parent(players=1_000, servers=10, seed=1),
                 _window_parent(warmup=None, duration=60.0)])
    halo.add_argument("--load", type=float, default=1.0,
                      help="fraction of the 80%%-CPU operating point")
    halo.add_argument("--no-baseline", action="store_true",
                      help="run only the ActOp configuration")
    halo.add_argument("--threads", action="store_true",
                      help="also enable the thread-allocation optimizer")
    halo.set_defaults(run=_run_halo)

    hb = sub.add_parser("heartbeat", help="single-server thread allocation")
    hb.add_argument("--rate", type=_POSITIVE, default=15_000.0)
    hb.add_argument("--monitors", type=int, default=800)
    hb.add_argument("--io-wait", type=float, default=0.0,
                    help="synchronous blocking seconds per beat")
    hb.add_argument("--seed", type=int, default=3)
    hb.set_defaults(run=_run_heartbeat)

    perf = sub.add_parser(
        "perf", help="actor-count scaling curve, ActOp off and on, with the "
                     "peak-RSS gate",
        parents=[_json_parent()])
    perf.add_argument("--points", nargs="+", type=_POSITIVE_INT,
                      metavar="ACTORS",
                      help="override the scaling-curve actor counts "
                           "(default 10k/100k/1M)")
    perf.add_argument("--horizon", type=_POSITIVE, default=30.0,
                      help="simulated seconds per run")
    perf.add_argument("--gate", action="store_true",
                      help="exit non-zero if any run exceeds "
                           "the peak-RSS-per-actor gate")
    perf.set_defaults(run=_run_perf)

    faults = sub.add_parser(
        "faults",
        help="chaos run: Halo under a fault plan with client resilience",
        parents=[_scale_parent(players=1_000, servers=10, seed=1),
                 _window_parent(warmup=20.0, duration=20.0),
                 _json_parent()])
    faults.add_argument("--load", type=float, default=0.7,
                        help="fraction of the 80%%-CPU operating point "
                             "(below saturation so recovery is attributable "
                             "to the fault, not queueing)")
    faults.add_argument("--kill", action="append", type=_silo_at, default=[],
                        metavar="SILO@T",
                        help="crash SILO T seconds into the fault phase "
                             "(repeatable; default plan: --kill 1@5 "
                             "--recover 1@15 when no fault flags are given)")
    faults.add_argument("--recover", action="append", type=_silo_at,
                        default=[], metavar="SILO@T",
                        help="restart SILO T seconds into the fault phase "
                             "(repeatable)")
    faults.add_argument("--drop", action="append", type=_drop_spec,
                        default=[], metavar="PROB[@T1:T2]",
                        help="drop each message with probability PROB during "
                             "[T1, T2) of the fault phase (repeatable; "
                             "default window: the whole phase)")
    faults.add_argument("--settle", type=float, default=10.0,
                        help="seconds between the last fault event and the "
                             "post-recovery window")
    faults.add_argument("--timeout", type=_POSITIVE, default=0.5,
                        help="per-attempt call timeout, paper seconds")
    faults.add_argument("--retries", type=int, default=3,
                        help="max attempts per request (1 disables retry)")
    faults.add_argument("--admission", type=int, default=None, metavar="N",
                        help="cap concurrent in-flight client requests at N "
                             "(default: unbounded)")
    faults.add_argument("--shed-policy", choices=("reject", "drop_oldest"),
                        default="reject",
                        help="what to do at the admission cap")
    faults.add_argument("--actop", action="store_true",
                        help="enable both ActOp optimizers")
    faults.set_defaults(run=_run_faults, parser=faults)

    san = sub.add_parser(
        "sanitize",
        help="a Halo slice under the runtime race sanitizer and a "
             "salted-hash iteration-order probe",
        parents=[_json_parent()])
    san.add_argument("--requests", type=int, default=2_000,
                     help="client requests to drive through the Halo slice")
    san.add_argument("--seed", type=int, default=5, help="cluster seed")
    san.set_defaults(run=_run_sanitize)

    part = sub.add_parser("partition", help="offline partitioner comparison")
    part.add_argument("--graph", choices=("clustered", "powerlaw", "random"),
                      default="clustered")
    part.add_argument("--vertices", type=int, default=800)
    part.add_argument("--servers", type=_checked(int, lambda v: v >= 2, ">= 2"),
                      default=8)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument(
        "--algorithms", nargs="+",
        choices=("alg1", "multilevel", "jabeja", "streaming"),
        default=["alg1", "multilevel", "jabeja", "streaming"],
    )
    part.set_defaults(run=_run_partition)
    return parser


# ----------------------------------------------------------------------
# The one table + ``--json`` emitter every subcommand reports through.
# ----------------------------------------------------------------------
def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _emit(args: argparse.Namespace, lines: Sequence[str], doc: dict,
          label: str = "summary JSON") -> None:
    """Print the human-readable ``lines``, then write ``doc`` where
    ``--json`` says.  ``--json -`` keeps stdout pure JSON so it pipes;
    the table still reaches the terminal via stderr."""
    to_stdout = args.json_path == "-"
    out = sys.stderr if to_stdout else sys.stdout
    print("\n".join(lines), file=out)
    if to_stdout:
        print(json.dumps(doc, indent=2))
    elif args.json_path:
        _write_json(args.json_path, doc)
        print(f"{label} written to {args.json_path}", file=out)


# ----------------------------------------------------------------------
def _run_halo(args: argparse.Namespace) -> int:
    from .bench.harness import HaloExperiment, improvement

    rows = []
    results = {}
    configs = [(True, "ActOp")] if args.no_baseline else [
        (False, "random placement"), (True, "ActOp")
    ]
    for partitioning, label in configs:
        exp = HaloExperiment(
            load_fraction=args.load,
            players=args.players,
            partitioning=partitioning,
            thread_allocation=partitioning and args.threads,
            num_servers=args.servers,
            seed=args.seed,
            label=label,
        )
        warmup = args.duration if args.warmup is None else args.warmup
        result = exp.run(warmup=warmup, duration=args.duration)
        results[label] = result
        rows.append([
            label, result.median * 1e3, result.p95 * 1e3, result.p99 * 1e3,
            100 * result.cpu_utilization, 100 * result.remote_fraction,
            result.migrations,
        ])
    print(render_table(
        ["configuration", "median ms", "p95 ms", "p99 ms", "CPU %",
         "remote %", "migrations"],
        rows,
        title=f"Halo Presence — {args.players} players, "
              f"{args.servers} servers, load {args.load:.2f}",
    ))
    if len(results) == 2:
        base, opt = results["random placement"], results["ActOp"]
        print(f"\nimprovement: median {improvement(base.median, opt.median):.0f}%, "
              f"p99 {improvement(base.p99, opt.p99):.0f}%")
    return 0


def _run_heartbeat(args: argparse.Namespace) -> int:
    from .bench.harness import HeartbeatExperiment

    rows = []
    for optimize, label in ((False, "default (8 per stage)"),
                            (True, "ActOp model-based")):
        exp = HeartbeatExperiment(
            request_rate=args.rate, monitors=args.monitors,
            thread_allocation=optimize, io_wait=args.io_wait, seed=args.seed,
            label=label,
        )
        result = exp.run()
        rows.append([
            label, result.median * 1e3, result.p99 * 1e3,
            100 * result.cpu_utilization, str(result.thread_allocation),
        ])
    print(render_table(
        ["configuration", "median ms", "p99 ms", "CPU %", "allocation"],
        rows,
        title=f"Heartbeat — {args.rate:.0f} req/s on one 8-core server",
    ))
    return 0


def _run_partition(args: argparse.Namespace) -> int:
    from .core.partitioning.offline import OfflinePartitioner
    from .graph.generators import clustered_graph, power_law_graph, random_graph
    from .graph.jabeja import jabeja_partition
    from .graph.multilevel import multilevel_partition
    from .graph.quality import cut_cost, max_imbalance
    from .graph.streaming import streaming_partition

    rng = random.Random(args.seed)
    if args.graph == "clustered":
        clusters = max(2, args.vertices // 9)
        graph = clustered_graph(clusters, 9, intra_weight=10.0,
                                inter_edges_per_cluster=1, rng=rng)
    elif args.graph == "powerlaw":
        graph = power_law_graph(args.vertices, attach=2, rng=rng)
    else:
        graph = random_graph(args.vertices, mean_degree=6.0, rng=rng)

    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    base = {v: i % args.servers for i, v in enumerate(vertices)}
    rows = [["random placement", cut_cost(graph, base),
             max_imbalance(base, args.servers), 0.0]]

    for algorithm in args.algorithms:
        start = time.perf_counter()
        if algorithm == "alg1":
            part = OfflinePartitioner(graph, args.servers, delta=8, k=64,
                                      seed=args.seed, initial=dict(base))
            part.run(max_sweeps=40)
            assignment = part.assignment
        elif algorithm == "multilevel":
            assignment = multilevel_partition(graph, args.servers,
                                              rng=random.Random(args.seed))
        elif algorithm == "jabeja":
            assignment = jabeja_partition(
                graph, args.servers, rounds=30,
                rng=random.Random(args.seed), initial=dict(base),
            ).assignment
        else:
            assignment = streaming_partition(graph, args.servers,
                                             heuristic="fennel",
                                             rng=random.Random(args.seed))
        elapsed = time.perf_counter() - start
        rows.append([algorithm, cut_cost(graph, assignment),
                     max_imbalance(assignment, args.servers), elapsed])

    print(render_table(
        ["algorithm", "cut cost", "imbalance", "seconds"],
        rows,
        title=f"{args.graph} graph: {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges, {args.servers} servers",
        floatfmt=".2f",
    ))
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    from .bench.harness import HaloExperiment
    from .faults import (
        AdmissionConfig,
        FaultPlan,
        ResilienceConfig,
        RetryPolicy,
    )

    kills = list(args.kill)
    recovers = list(args.recover)
    drops = list(args.drop)
    for silo, _ in kills + recovers:
        if not 0 <= silo < args.servers:
            args.parser.error(f"--kill/--recover silo {silo} is not one of "
                              f"the {args.servers} silos 0..{args.servers - 1}")
    if not (kills or recovers or drops):
        kills = [(1, 5.0)]
        recovers = [(1, 15.0)]

    event_times = [t for _, t in kills + recovers]
    event_times += [t2 for _, _, t2 in drops if t2 is not None]
    fault_len = max(event_times, default=0.0) + args.settle

    # The timeline is warmup | pre window | fault phase | post window;
    # fault-flag times count from the start of the fault phase, and plan
    # times are absolute simulator seconds, so shift by the offset.
    offset = args.warmup + args.duration
    plan = FaultPlan()
    for silo, t in kills:
        plan.crash(offset + t, silo)
    for silo, t in recovers:
        plan.restart(offset + t, silo)
    for prob, t1, t2 in drops:
        plan.degrade(offset + (t1 or 0.0),
                     offset + (t2 if t2 is not None else fault_len),
                     drop=prob)

    resilience = ResilienceConfig(
        call_timeout=args.timeout,
        retry=(RetryPolicy(max_attempts=args.retries)
               if args.retries > 1 else None),
        admission=(AdmissionConfig(capacity=args.admission,
                                   policy=args.shed_policy)
                   if args.admission else None),
    )
    exp = HaloExperiment(
        load_fraction=args.load, players=args.players,
        partitioning=args.actop, thread_allocation=args.actop,
        num_servers=args.servers, seed=args.seed,
        resilience=resilience, faults=plan, label="faults",
    )
    rt = exp.runtime

    def measure(start: float, end: float) -> dict:
        w = exp.measure_window(start, end)
        return {
            "requests": w.requests,
            "median_ms": 1e3 * w.median,
            "p99_ms": 1e3 * w.p99,
            "remote_fraction": w.remote_fraction,
            "timed_out": w.timed_out,
            "retries": w.retries,
            "shed": w.shed,
            "failovers": w.failovers,
        }

    pre = measure(args.warmup, offset)
    during = measure(offset, offset + fault_len)
    post = measure(offset + fault_len, offset + fault_len + args.duration)

    # Recovery criterion: the remote-message fraction — the cluster's
    # locality fingerprint — must land back within 10% of its pre-fault
    # value (absolute floor 0.02 for near-zero baselines).
    pre_rf, post_rf = pre["remote_fraction"], post["remote_fraction"]
    recovered = abs(post_rf - pre_rf) <= max(0.10 * pre_rf, 0.02)

    injector = exp.injector
    summary = {
        "schema": 1,
        "workload": "halo",
        "seed": args.seed,
        "players": args.players,
        "servers": args.servers,
        "load": args.load,
        "actop": args.actop,
        "plan": {
            "actions": len(plan),
            "kills": [[s, t] for s, t in kills],
            "recovers": [[s, t] for s, t in recovers],
            "drops": [[p, t1, t2] for p, t1, t2 in drops],
        },
        "resilience": {
            "call_timeout": args.timeout,
            "max_attempts": args.retries,
            "admission": args.admission,
            "shed_policy": args.shed_policy,
        },
        "windows": {"pre": pre, "fault": during, "post": post},
        "faults_started": injector.faults_started if injector else 0,
        "faults_ended": injector.faults_ended if injector else 0,
        "inflight_at_end": rt.inflight_requests,
        "remote_fraction_drift": abs(post_rf - pre_rf),
        "recovered": recovered,
    }

    rows = [
        [name, w["requests"], w["median_ms"], w["p99_ms"],
         100 * w["remote_fraction"], w["timed_out"], w["retries"],
         w["shed"], w["failovers"]]
        for name, w in (("pre-fault", pre), ("fault", during),
                        ("post-recovery", post))
    ]
    verdict = "recovered" if recovered else "NOT recovered"
    _emit(args, [
        render_table(
            ["window", "requests", "median ms", "p99 ms", "remote %",
             "timeouts", "retries", "shed", "failovers"],
            rows,
            title=f"faults — {len(plan)} planned actions, {args.servers} "
                  f"servers, load {args.load:.2f}",
        ),
        f"\nremote fraction: pre {pre_rf:.3f} -> post {post_rf:.3f} "
        f"({verdict}; tolerance 10%), {rt.inflight_requests} requests "
        f"still in flight",
    ], summary)

    if pre["requests"] == 0 or post["requests"] == 0:
        print("faults failed: a measurement window completed no requests",
              file=sys.stderr)
        return 1
    if not recovered:
        print(f"faults failed: remote fraction did not re-converge "
              f"(pre {pre_rf:.3f}, post {post_rf:.3f})", file=sys.stderr)
        return 1
    return 0


def _sanitizer_slice(requests: int, seed: int) -> dict:
    """Drive a Halo slice with the sanitizer armed + the order probe."""
    import hashlib

    from .analysis.sanitizer import Sanitizer, detect_order_dependence
    from .bench.harness import HaloExperiment

    # Arm BEFORE building the experiment: RNG substreams are wrapped at
    # creation time and the workload caches its stream handles.
    san = Sanitizer()
    with san.armed():
        exp = HaloExperiment(players=200, num_servers=3, seed=seed)
        san.wire(exp.cluster)
        rt = exp.runtime
        exp.workload.start()
        exp.cluster.start()
        horizon = 0.0
        while rt.requests_completed < requests and horizon < 120.0:
            horizon += 1.0
            rt.run(until=horizon)
    report = san.report()
    report["requests_completed"] = rt.requests_completed
    report["horizon_s"] = horizon

    def digest() -> str:
        probe_exp = HaloExperiment(players=80, num_servers=3, seed=seed)
        probe_exp.workload.start()
        probe_exp.cluster.start()
        sim = probe_exp.runtime.sim
        sha = hashlib.sha256()
        while sim.now < 2.0 and sim.step():
            sha.update(repr(sim.now).encode())
        return sha.hexdigest()

    probe = detect_order_dependence(digest)
    report["order_probe"] = probe.to_dict()
    report["ok"] = report["ok"] and not probe.order_dependent
    return report


def _run_sanitize(args: argparse.Namespace) -> int:
    report = _sanitizer_slice(args.requests, args.seed)
    lines = [
        f"sanitizer: {report['requests_completed']} requests, "
        f"{report['events_seen']} events, "
        f"{report['accesses']} accesses, "
        f"{len(report['conflicts'])} conflicts, "
        f"{len(report['payload_events'])} payload events, "
        f"{len(report['rng_hazards'])} rng hazards; order probe "
        f"{'DIVERGED' if report['order_probe']['order_dependent'] else 'clean'}"]
    lines += [
        f"  conflict: {conflict['owner']}.{conflict['field']} "
        f"at t={conflict['time']:.6f} — {conflict['note'] or conflict['accesses']}"
        for conflict in report["conflicts"]]
    lines += [
        f"  payload: {event['kind']} from {event['sender']}."
        f"{event['method']} — {event['detail']}"
        for event in report["payload_events"]]
    _emit(args, lines, {"schema": 1, "sanitizer": report, "ok": report["ok"]},
          label="JSON report")

    if not report["ok"]:
        print("sanitize failed: sanitizer conflicts or payload events, or "
              "order-probe divergence (see report above)", file=sys.stderr)
        return 1
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    from .bench import scale

    try:
        doc = scale.run_scaling_curve(points=args.points, horizon=args.horizon)
    except Exception as exc:  # failed run -> non-zero exit, not a traceback
        print(f"scaling bench failed: {exc}", file=sys.stderr)
        return 1
    _emit(args, [scale.render_curve(doc)], doc, label="JSON")
    violations = [v for p in doc["points"] for v in p["violations"]]
    failures = [v for p in doc["points"] for v in p["request_failures"]]
    for violation in violations:
        print(f"GATE: {violation}", file=sys.stderr)
    for failure in failures:
        print(f"REQUESTS: {failure}", file=sys.stderr)
    return 1 if failures or (args.gate and violations) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
