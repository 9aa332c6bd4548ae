"""Command-line interface: ``python -m repro <command>``.

Eight subcommands expose the main experiment drivers without writing
any code:

* ``halo``       — the cluster workload A/B (random vs ActOp), §6.1-style;
* ``heartbeat``  — the single-server thread-allocation experiment, §6.2;
* ``partition``  — offline partitioner comparison on a synthetic graph;
* ``perf``       — the actor-count scaling curve (10k/100k/1M seeded
  Halo, peak RSS per actor, ``--gate``; see :mod:`repro.bench.scale`).
  Host performance is measured by ``benchmarks/e2e/run.py``, not here;
* ``trace``      — run a workload with :mod:`repro.obs` causal tracing,
  export a Chrome trace-event file (loadable in Perfetto or
  ``chrome://tracing``), and cross-check the trace-derived latency
  breakdown against the stage recorders;
* ``faults``     — a chaos run: Halo under a :mod:`repro.faults` plan
  (silo kills/recoveries, link degradation) with client-side resilience,
  reporting pre/during/post windows and whether the cluster's
  remote-message fraction re-converged after recovery;
* ``sanitize``   — a Halo slice under the :mod:`repro.analysis` runtime
  race sanitizer plus a salted-hash iteration-order probe (non-zero exit
  on a cross-activation conflict, a payload hazard or a divergence);
* ``autoscale``  — the Stageflow inference pipeline (:mod:`repro.pools`
  actor pools) under a flash-crowd / diurnal arrival curve with the
  :mod:`repro.autoscale` elastic controller growing and draining silos;
  reports per-window latency + utilization, the controller's decision
  log, and silo-seconds, and exits non-zero if the cluster does not
  re-converge into the utilization band (``--fixed`` runs the
  peak-provisioned baseline instead).

Each prints a result table to stdout; a run that produced no usable
result exits non-zero.  ``perf``, ``trace``, ``faults``, ``autoscale``
and ``sanitize`` share the ``--json PATH`` convention (``'-'`` writes pure
JSON to stdout, the table to stderr) through one emitter
(:func:`_emit`).  They are smoke-level entry points (the full
reproduction lives in ``benchmarks/``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Callable, Optional, Sequence

from . import __version__
from .bench.harness import HaloExperiment, HeartbeatExperiment, improvement
from .bench.reporting import render_table
from .core.partitioning.offline import OfflinePartitioner
from .graph.generators import clustered_graph, power_law_graph, random_graph
from .graph.jabeja import jabeja_partition
from .graph.multilevel import multilevel_partition
from .graph.quality import cut_cost, max_imbalance
from .graph.streaming import streaming_partition

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
        "perf", help="actor-count scaling curve with the peak-RSS gate",
        parents=[_json_parent()])
    mode = perf.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scaling", action="store_true",
                      help="run the actor-count scaling curve "
                           "(10k/100k/1M seeded Halo on 10 silos), one "
                           "subprocess per point")
    mode.add_argument("--scale-point", dest="scale_point", type=int,
                      metavar="ACTORS",
                      help="measure ONE scaling point in this process "
                           "(used by --scaling to isolate per-point RSS)")
    perf.add_argument("--points", nargs="+", type=int, metavar="ACTORS",
                      help="override the scaling-curve actor counts")
    perf.add_argument("--horizon", type=float, default=30.0,
                      help="simulated seconds per scaling point")
    perf.add_argument("--gate", action="store_true",
                      help="exit non-zero if any scaling point exceeds "
                           "the peak-RSS-per-actor gate")
    perf.set_defaults(run=_run_perf)

    trace = sub.add_parser(
        "trace",
        help="run a workload under causal tracing; export a Chrome trace",
        parents=[_scale_parent(players=200, servers=4, seed=1),
                 _window_parent(warmup=5.0, duration=10.0),
                 _json_parent()])
    trace.add_argument("--workload", choices=("halo", "heartbeat", "counter"),
                       default="halo")
    trace.add_argument("--rate", type=float, default=None,
                       help="heartbeat/counter: paper-equivalent req/s "
                            "(default: the bench's calibrated rate)")
    trace.add_argument("--sample", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                       default=1.0,
                       help="fraction of requests to trace (systematic "
                            "sampling; the recorder cross-check needs 1.0)")
    trace.add_argument("--actop", action="store_true",
                       help="halo: enable both ActOp optimizers so "
                            "migrations/exchanges appear in the event log")
    trace.add_argument("--chrome", metavar="PATH", default="trace-chrome.json",
                       help="Chrome trace-event output file")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="also stream spans+events as JSON lines to PATH")
    trace.set_defaults(run=_run_trace)

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

    auto = sub.add_parser(
        "autoscale",
        help="elastic scaling: the Stageflow pipeline under an arrival "
             "curve with the grow/shrink controller",
        parents=[_json_parent()])
    auto.add_argument("--servers", type=int, default=6,
                      help="fleet size — the controller's scale-out ceiling")
    auto.add_argument("--processors", type=int, default=2,
                      help="cores per silo (small on purpose: scaling "
                          "decisions show at CI-sized rates)")
    auto.add_argument("--initial", type=int, default=2,
                      help="silos active at t=0 (the rest start parked)")
    auto.add_argument("--min", dest="min_silos", type=_POSITIVE_INT, default=2,
                      help="scale-in floor")
    auto.add_argument("--low", type=float, default=0.35,
                      help="utilization band floor (shrink below this)")
    auto.add_argument("--high", type=float, default=0.70,
                      help="utilization band ceiling (grow above this)")
    auto.add_argument("--period", type=_POSITIVE, default=0.5,
                      help="controller measurement window, seconds")
    auto.add_argument("--cooldown", type=float, default=1.0,
                      help="minimum seconds between scaling plans")
    auto.add_argument("--rate", type=float, default=300.0,
                      help="steady-state arrival rate, requests/second")
    auto.add_argument("--curve", choices=("flash", "diurnal", "flat"),
                      default="flash")
    auto.add_argument("--flash-at", type=float, default=10.0,
                      help="flash crowd start, seconds")
    auto.add_argument("--flash-duration", type=float, default=8.0)
    auto.add_argument("--flash-multiplier", type=float, default=4.0)
    auto.add_argument("--diurnal-period", type=float, default=60.0)
    auto.add_argument("--settle", type=float, default=8.0,
                      help="flash: seconds between the surge ending and "
                           "the post-recovery window")
    auto.add_argument("--warmup", type=float, default=2.0,
                      help="seconds before the first measurement window")
    auto.add_argument("--duration", type=float, default=10.0,
                      help="post-recovery (or per-phase) window length")
    auto.add_argument("--policy",
                      choices=("round_robin", "least_outstanding", "dpa"),
                      default="dpa", help="pool balancing policy")
    auto.add_argument("--seed", type=int, default=3)
    auto.add_argument("--fixed", action="store_true",
                      help="baseline: no controller, all --servers silos "
                           "active for the whole run")
    auto.set_defaults(run=_run_autoscale, parser=auto)

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


def _run_trace(args: argparse.Namespace) -> int:
    from .bench.harness import CounterExperiment
    from .obs import (
        Observability,
        breakdown_shares,
        cross_check,
        recorder_totals,
        stage_totals,
    )

    if args.workload == "halo":
        exp = HaloExperiment(
            players=args.players, num_servers=args.servers, seed=args.seed,
            partitioning=args.actop, thread_allocation=args.actop,
        )
    elif args.workload == "heartbeat":
        exp = HeartbeatExperiment(
            request_rate=args.rate or 15_000.0, seed=args.seed)
    else:
        exp = CounterExperiment(
            request_rate=args.rate or 15_000.0, seed=args.seed)
    rt = exp.runtime
    obs = Observability(rt, sample_rate=args.sample)
    exp.workload.start()
    actop = getattr(exp, "actop", None)
    if actop is not None:
        actop.start()

    rt.run(until=args.warmup)
    t0 = rt.sim.now
    snapshots = [(silo, silo.server.snapshot()) for silo in rt.silos]
    rt.run(until=args.warmup + args.duration)
    t1 = rt.sim.now
    windows = {silo.server_id: silo.server.windows_since(snapshot)
               for silo, snapshot in snapshots}

    tracer = obs.tracer
    full_sampling = args.sample >= 1.0
    check_error = None
    if full_sampling:
        check_error, _ = cross_check(
            stage_totals(tracer.spans, t0, t1), recorder_totals(windows))
    shares = breakdown_shares(tracer.spans, t0, t1)
    event_counts: dict[str, int] = {}
    for record in obs.events:
        kind = type(record).KIND
        event_counts[kind] = event_counts.get(kind, 0) + 1

    obs.write_chrome_trace(args.chrome)
    jsonl_lines = obs.write_jsonl(args.jsonl) if args.jsonl else None

    summary = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "sample_rate": args.sample,
        "warmup_s": args.warmup,
        "duration_s": args.duration,
        "time_scale": exp.time_scale,
        "requests_seen": tracer.requests_seen,
        "traces_started": tracer.traces_started,
        "requests_finished": tracer.requests_finished,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
        "runtime_events": len(obs.events),
        "event_counts": event_counts,
        "cross_check_max_rel_err": check_error,
        "breakdown_pct": {k: round(v, 3) for k, v in shares.items()},
        "chrome_trace": args.chrome,
        "jsonl": args.jsonl,
        "jsonl_lines": jsonl_lines,
    }

    lines = [render_table(
        ["component", "% of e2e"],
        [[name, share] for name, share in shares.items()],
        title=f"trace({args.workload}) — {tracer.requests_finished} traced "
              f"requests, {len(tracer.spans)} spans, "
              f"{len(obs.events)} runtime events",
    )]
    if check_error is not None:
        lines.append(f"\nrecorder cross-check: max relative error "
                     f"{check_error:.2e} (must be < 1e-2)")
    lines.append(f"Chrome trace written to {args.chrome} "
                 f"(open in Perfetto or chrome://tracing)")
    if args.jsonl:
        lines.append(f"{jsonl_lines} JSONL records written to {args.jsonl}")
    _emit(args, lines, summary)

    if tracer.requests_finished == 0 or not tracer.spans:
        print("trace failed: no traced request completed "
              "(window too short, or sampling too sparse)", file=sys.stderr)
        return 1
    if check_error is not None and check_error > 0.01:
        print(f"trace failed: trace-derived stage totals diverge from the "
              f"stage recorders ({check_error:.4f} > 0.01)", file=sys.stderr)
        return 1
    return 0


def _run_faults(args: argparse.Namespace) -> int:
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


def _run_autoscale(args: argparse.Namespace) -> int:
    from .autoscale import AutoscaleConfig
    from .bench.harness import StageflowExperiment
    from .workloads.stageflow import StageflowConfig

    if not 0 < args.low < args.high < 1:
        args.parser.error(f"need 0 < --low < --high < 1, got "
                          f"--low {args.low:g} --high {args.high:g}")
    if args.fixed:
        autoscale = None
    else:
        autoscale = AutoscaleConfig(
            period=args.period, low=args.low, high=args.high,
            min_silos=args.min_silos, max_silos=args.servers,
            initial_silos=args.initial, cooldown=args.cooldown,
            warmup=min(args.warmup, 2.0),
        )
    exp = StageflowExperiment(
        StageflowConfig(policy=args.policy, base_rate=args.rate,
                        curve=args.curve, flash_at=args.flash_at,
                        flash_duration=args.flash_duration,
                        flash_multiplier=args.flash_multiplier,
                        diurnal_period=args.diurnal_period),
        autoscale=autoscale, num_servers=args.servers,
        processors=args.processors, seed=args.seed,
    )
    rt = exp.runtime
    workload = exp.workload

    # Timeline.  flash: steady | surge+recovery | post; other curves:
    # three equal windows.
    if args.curve == "flash":
        surge_end = args.flash_at + args.flash_duration + args.settle
        edges = [args.warmup, args.flash_at, surge_end,
                 surge_end + args.duration]
        names = [f"{phase} [{start:g}, {end:g})" for phase, start, end in
                 zip(("steady", "surge+recovery", "post"), edges, edges[1:])]
    else:
        edges = [args.warmup + i * args.duration for i in range(4)]
        names = [f"window {i + 1}" for i in range(3)]

    # Warm up first: the workload's own counters are snapshotted per
    # window below, and the first window must not include the warm-up.
    exp.start()
    rt.run(until=edges[0])

    def measure(start: float, end: float) -> dict:
        completed0, failed0 = workload.completed, workload.failed
        w = exp.measure_window(start, end)
        return {
            "requests": w.requests,
            "failed": workload.failed - failed0,
            "completed": workload.completed - completed0,
            "median_ms": 1e3 * w.median,
            "p99_ms": 1e3 * w.p99,
            "mean_utilization": w.cpu_utilization,
            "active_silos": rt.active_servers,
        }

    windows = [(name, measure(start, end))
               for name, start, end in zip(names, edges, edges[1:])]
    workload.stop()
    until = edges[-1]

    ctrl = exp.controller
    silo_seconds = exp.silo_seconds()
    if ctrl is not None:
        # Re-convergence: over the final quarter of the run the
        # controller's measured utilization must sit back inside the
        # band (5% tolerance) — or below it with the fleet already at
        # the scale-in floor, which is the band's best reachable point.
        tail = [w for w in ctrl.windows if w[0] >= 0.75 * until]
        tail_util = (sum(u for _, u, _ in tail) / len(tail)) if tail else 0.0
        reconverged = bool(tail) and tail_util <= args.high + 0.05 and (
            tail_util >= args.low - 0.05
            or ctrl.active <= args.min_silos)
    else:
        tail_util = windows[-1][1]["mean_utilization"]
        reconverged = None

    summary = {
        "schema": 1,
        "workload": "stageflow",
        "mode": "fixed" if args.fixed else "autoscale",
        "seed": args.seed,
        "servers": args.servers,
        "processors": args.processors,
        "policy": args.policy,
        "curve": args.curve,
        "base_rate": args.rate,
        "band": [args.low, args.high],
        "windows": {name: w for name, w in windows},
        "issued": workload.issued,
        "completed": workload.completed,
        "failed": workload.failed,
        "silo_seconds": round(silo_seconds, 3),
        "tail_utilization": round(tail_util, 4),
        "reconverged": reconverged,
        "controller": ctrl.summary() if ctrl is not None else None,
    }

    mode = "fixed baseline" if args.fixed else "autoscale"
    lines = [render_table(
        ["window", "requests", "failed", "median ms", "p99 ms",
         "mean CPU %", "silos"],
        [[name, w["requests"], w["failed"], w["median_ms"], w["p99_ms"],
          100 * w["mean_utilization"], w["active_silos"]]
         for name, w in windows],
        title=f"stageflow {args.curve} — {mode}, {args.policy} policy, "
              f"{args.rate:g} req/s base, fleet {args.servers}",
    )]
    if ctrl is not None:
        lines += [f"  t={t:6.2f}s  util={util:.2f}  -> {action:<10} "
                  f"({active} active)"
                  for t, util, active, action in ctrl.decisions]
        verdict = "re-converged" if reconverged else "did NOT re-converge"
        lines.append(
            f"\n{ctrl.plans_committed}/{ctrl.plans_begun} plans committed, "
            f"{ctrl.grows} grows / {ctrl.shrinks} shrinks; "
            f"tail utilization {tail_util:.2f} {verdict} into "
            f"[{args.low:.2f}, {args.high:.2f}]; "
            f"{silo_seconds:.1f} silo-seconds")
    else:
        lines.append(f"\nfixed fleet: {silo_seconds:.1f} silo-seconds")
    _emit(args, lines, summary)

    if any(w["requests"] == 0 for _, w in windows):
        print("autoscale failed: a measurement window completed no requests",
              file=sys.stderr)
        return 1
    if reconverged is False:
        print(f"autoscale failed: tail utilization {tail_util:.2f} outside "
              f"[{args.low:.2f}, {args.high:.2f}]", file=sys.stderr)
        return 1
    return 0


def _sanitizer_slice(requests: int, seed: int) -> dict:
    """Drive a Halo slice with the sanitizer armed + the order probe."""
    import hashlib

    from .analysis.sanitizer import Sanitizer, detect_order_dependence

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
        if args.scaling:
            doc = scale.run_scaling_curve(points=args.points,
                                          horizon=args.horizon)
            violations = [v for p in doc["points"] for v in p["violations"]]
            table = scale.render_curve(doc)
        else:
            p = scale.run_scale_point(args.scale_point, horizon=args.horizon)
            doc = {
                "schema": 2,
                "kind": "scale_point",
                "gate_rss_bytes_per_actor": scale.RSS_PER_ACTOR_GATE_BYTES,
                "point": p,
            }
            violations = scale.gate_violations(p)
            table = (f"{p['actors']:,} actors: {p['wall_seconds']:.1f}s wall "
                     f"({p['bootstrap_seconds']:.1f}s bootstrap), "
                     f"{p['events']:,} events, "
                     f"{p['peak_rss_bytes'] / 2**20:,.0f} MiB peak RSS "
                     f"({p['rss_bytes_per_actor']:,.0f} B/actor)")
    except Exception as exc:  # failed run -> non-zero exit, not a traceback
        print(f"scaling bench failed: {exc}", file=sys.stderr)
        return 1
    _emit(args, [table], doc, label="JSON")
    for violation in violations:
        print(f"GATE: {violation}", file=sys.stderr)
    if args.gate and violations:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
