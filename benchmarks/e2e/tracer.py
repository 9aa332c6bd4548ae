"""Outside-in per-layer tracing: where the host time of a run goes.

Nothing under ``src/`` is edited.  On the simulator the tracer replaces
class attributes (the layers' public entry points) with timing wrappers
*before the cluster is built*, and **re-wraps every callable passed
across one of those calls with the layer of the callable's owner** —
callbacks are the real layer boundary in an event-driven program: a
stage completion handed to ``CpuPool.submit`` runs ``seda.stage`` code,
not ``sim.cpu`` code, whoever calls it.  A span stack gives
self = duration - children; whatever the run's wall time leaves outside
every span is the event loop itself (``sim.engine``).

On the asyncio runtime nothing is patched: the layers are separated by
*differential runs* over the public ``transport=`` option and placement
(inproc -> turn machinery only, ``inproc-copy`` adds pickle, ``tcp``
adds sockets).

Spans stay in memory (aggregates for all of them, the first
``KEEP_SPANS`` verbatim) and are written to ``out/trace_<workload>.json``
when the run ends.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import isolated
from repro.actor.commtable import CommTable
from repro.actor.runtime import ActorRuntime
from repro.actor.server import Silo
from repro.bench.metrics import HistogramRecorder, LatencyRecorder, TimeSeries
from repro.core.partitioning.coordinator import PartitionAgent
from repro.seda.stage import Stage
from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator
from repro.sim.network import Network
from workloads import Repeat, Workload, exact_diff, rss_bytes

OUT = Path(__file__).resolve().parent / "out"
KEEP_SPANS = 20_000

# Module prefix -> layer.
LAYER_OF_MODULE = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.cpu", "sim.cpu"),
    ("repro.sim.network", "sim.network"),
    ("repro.seda", "seda.stage"),
    ("repro.actor.server", "actor.server"),
    ("repro.actor.runtime", "actor.runtime"),
    ("repro.actor.commtable", "actor.commtable"),
    ("repro.core.partitioning", "core.partitioning"),
    ("repro.core.threads", "core.threads"),
    ("repro.bench.metrics", "bench.metrics"),
    ("repro.workloads", "workloads"),
)
SIM_LAYERS = tuple(layer for _, layer in LAYER_OF_MODULE)

# (class, method, layer, position of a callback among the arguments after
# self, keyword that carries a callback) — the public entry points.
PATCHES = (
    (Simulator, "schedule", "sim.engine", 1, None),
    (Simulator, "at", "sim.engine", 1, None),
    (Simulator, "call_soon", "sim.engine", 0, None),
    (Simulator, "defer", "sim.engine", 1, None),
    (CpuPool, "submit", "sim.cpu", 1, None),
    (Stage, "submit", "seda.stage", 1, None),
    (Network, "deliver", "sim.network", 1, None),
    (Silo, "deliver", "actor.server", None, None),
    (ActorRuntime, "client_request", "actor.runtime", None, "on_complete"),
    (ActorRuntime, "complete_client_request", "actor.runtime", None, None),
    (PartitionAgent, "fold_counters", "core.partitioning", None, None),
    (PartitionAgent, "build_view", "core.partitioning", None, None),
    (PartitionAgent, "initiate_round", "core.partitioning", None, None),
    (PartitionAgent, "serve_request", "core.partitioning", None, None),
    (CommTable, "record", "actor.commtable", None, None),
    (LatencyRecorder, "record", "bench.metrics", None, None),
    (HistogramRecorder, "record", "bench.metrics", None, None),
    (TimeSeries, "record", "bench.metrics", None, None),
)
# Spans whose inclusive time feeds the fold/view/exchange breakdown.
NAMED = ("fold_counters", "build_view", "initiate_round", "serve_request")


def layer_of(callback: Callable) -> str:
    owner = getattr(callback, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(callback, "__module__", None)) or ""
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Span stack + per-layer aggregates over one measured run."""

    def __init__(self) -> None:
        # Open spans as two parallel stacks of plain values (no per-span
        # container for the garbage collector to track).
        self.open_layers: list[str] = []
        self.open_child_ns: list[int] = []
        # Bound methods compare and hash by (self, function) identity, so one
        # wrapper per owner method serves every time it is passed again.
        self.wrapped: dict[Callable, Callable] = {}
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.rewraps: dict[str, int] = defaultdict(int)   # callbacks a layer's spans re-wrapped
        self.children: dict[str, int] = defaultdict(int)  # direct child spans under a layer
        self.named_ns: dict[str, int] = defaultdict(int)  # inclusive, NAMED spans only
        self.named_calls: dict[str, int] = defaultdict(int)
        self.root_ns = self.root_calls = 0
        self.spans: list[tuple] = []   # (layer, name, start_ns, dur_ns, depth), completion order
        self.t_run = 0      # start of the measured run (span offsets)
        self._saved: list[tuple] = []
        # Cost of the wrapper itself per call (see calibrate): what a span
        # adds to its own self time, what it adds to its parent's, and what
        # one callback re-wrap adds to the span that does it.
        self.inner_ns = self.outer_ns = self.rewrap_ns = 0.0

    # ------------------------------------------------------------------
    def span(self, fn: Callable, layer: str, name: str,
             callback_at: Optional[int] = None,
             callback_kw: Optional[str] = None) -> Callable:
        """``fn`` timed as one span of ``layer``; a callable passed at
        ``callback_at`` / ``callback_kw`` is first re-wrapped as a span of
        its owner's layer."""
        open_layers, open_child_ns = self.open_layers, self.open_child_ns
        clock = time.perf_counter_ns
        self_ns, calls, children = self.self_ns, self.calls, self.children
        spans, rewraps, callback = self.spans, self.rewraps, self.callback
        named = name in NAMED
        named_ns, named_calls = self.named_ns, self.named_calls

        def traced(*args, **kwargs):
            open_layers.append(layer)
            open_child_ns.append(0)
            t0 = clock()
            try:
                if callback_at is not None and callback_at < len(args):
                    args = (*args[:callback_at], callback(args[callback_at]),
                            *args[callback_at + 1:])
                    rewraps[layer] += 1
                if callback_kw is not None and kwargs.get(callback_kw) is not None:
                    kwargs[callback_kw] = callback(kwargs[callback_kw])
                    rewraps[layer] += 1
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_layers.pop()
                self_ns[layer] += dt - open_child_ns.pop()
                calls[layer] += 1
                if named:
                    named_ns[name] += dt
                    named_calls[name] += 1
                if open_layers:
                    open_child_ns[-1] += dt
                    children[open_layers[-1]] += 1
                else:
                    self.root_ns += dt
                    self.root_calls += 1
                if len(spans) < KEEP_SPANS:
                    spans.append((layer, name, t0, dt, len(open_layers)))

        traced._e2e_span = True
        return traced

    def callback(self, fn: Callable) -> Callable:
        wrapped = self.wrapped.get(fn)
        if wrapped is None:
            if getattr(fn, "_e2e_span", False):
                wrapped = fn   # a patched entry point (e.g. Silo.deliver): already a span
            else:
                wrapped = self.span(fn, layer_of(fn), getattr(fn, "__name__", "callback"))
            if hasattr(fn, "__self__"):   # per-request closures would only pile up
                self.wrapped[fn] = wrapped
        return wrapped

    # ------------------------------------------------------------------
    def calibrate(self, n: int = 100_000) -> None:
        """Time the wrapper on a no-op, so its cost can be subtracted."""
        clock = time.perf_counter_ns

        def noop(*_args):
            return None

        def per_call(fn: Optional[Callable], *args) -> float:
            t0 = clock()
            if fn is None:
                for _ in range(n):
                    pass
            else:
                for _ in range(n):
                    fn(*args)
            return (clock() - t0) / n

        loop = per_call(None)
        bare = per_call(noop, noop)
        plain = per_call(self.span(noop, "calibrate", "noop"), noop)
        recorded = self.self_ns["calibrate"] / n
        self.inner_ns = max(0.0, recorded - (bare - loop))
        self.outer_ns = max(0.0, plain - loop - recorded)
        # A bound method, as nearly every callback in a run is (wrapper cached).
        rewrapping = per_call(self.span(noop, "calibrate", "noop", callback_at=0),
                              self.reset)
        self.rewrap_ns = max(0.0, rewrapping - plain)
        self.wrapped.clear()
        self.reset()

    def reset(self) -> None:
        for table in (self.self_ns, self.calls, self.rewraps, self.children,
                      self.named_ns, self.named_calls):
            table.clear()
        self.spans.clear()
        self.root_ns = self.root_calls = 0

    def install(self) -> None:
        for cls, method, layer, callback_at, callback_kw in PATCHES:
            original = getattr(cls, method)
            self._saved.append((cls, method, original))
            if callback_at is not None:
                callback_at += 1   # the wrapper sees self as args[0]
            setattr(cls, method,
                    self.span(original, layer, method, callback_at, callback_kw))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()
        self.wrapped.clear()   # lets go of the traced cluster

    def on_run(self) -> None:
        """The workload's hook: forget the set-up, keep the measured run."""
        self.reset()
        self.t_run = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def corrected_self_ns(self, traced_ns: float, untraced_ns: float) -> dict[str, float]:
        """Per-layer self time of the *untraced* run, estimated.

        ``traced_ns`` is the wall time of the traced run, ``untraced_ns``
        that of the same run without the tracer.  Two steps: subtract the
        wrapper cost calibrated on a no-op (per span, per re-wrap, and per
        child span for the part a parent pays), with ``sim.engine`` also
        taking the run's wall time outside every span; then scale every
        layer by one factor so that they add up to ``untraced_ns``.  The
        second step spreads what a tight-loop calibration cannot see (cold
        caches, extra garbage collection) like a uniform slowdown.
        """
        out = {}
        for layer in sorted({*self.self_ns, "sim.engine"}):
            out[layer] = max(0.0, self.self_ns[layer]
                             - self.calls[layer] * self.inner_ns
                             - self.rewraps[layer] * self.rewrap_ns
                             - self.children[layer] * self.outer_ns)
        loop = traced_ns - self.root_ns - self.root_calls * self.outer_ns
        out["sim.engine"] += max(0.0, loop)
        total = sum(out.values())
        scale = untraced_ns / total if total else 0.0
        return {layer: ns * scale for layer, ns in out.items()}

    def coverage(self, traced_ns: float) -> float:
        """Share of the traced run's wall time inside spans of named layers."""
        return (self.root_ns - self.self_ns["other"]) / traced_ns if traced_ns else 0.0

    def dump(self, path: Path, workload: str, seed: int, metrics: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "workload": workload, "seed": seed,
                "wrapper_ns": {"inner": self.inner_ns, "outer": self.outer_ns,
                               "rewrap": self.rewrap_ns},
                "raw_self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "metrics": metrics,
                "span_fields": ["layer", "name", "start_ns", "dur_ns", "depth"],
                "spans_note": f"first {KEEP_SPANS} spans of the measured run, in "
                              "completion order; a span's parent is the next one "
                              "completing at depth-1",
                "spans": [(layer, name, t0 - self.t_run, dt, depth)
                          for layer, name, t0, dt, depth in self.spans],
            }, fh)


# ----------------------------------------------------------------------
def _trace_sim(workload: Workload, seed: int, smoke: bool,
               problems: list[str]) -> tuple[dict[str, float], list[Repeat]]:
    rss_before = rss_bytes()
    untraced = workload.run(seed, smoke)
    rss_grown = max(0, rss_bytes() - rss_before)
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        gc.collect()
        traced = workload.run(seed, smoke, tracer.on_run)
    finally:
        tracer.uninstall()
    if traced.exact != untraced.exact:
        problems.append("traced run diverged from the untraced run: "
                        f"{exact_diff(untraced, traced)}")

    metrics = dict(untraced.counters)
    metrics["actor.activation.rss_bytes_per_actor"] = (
        rss_grown / max(untraced.counters["actor.activation.count"], 1))
    requests = max(traced.completed, 1)
    # Host times are reference seconds throughout (refclock.py).
    self_ns = tracer.corrected_self_ns(traced.run_s * 1e9, untraced.run_ref_s * 1e9)
    for layer in SIM_LAYERS:
        metrics[f"{layer}.self_us_per_req"] = self_ns.get(layer, 0.0) / 1e3 / requests
        metrics[f"{layer}.calls_per_req"] = tracer.calls[layer] / requests
    rounds = tracer.named_calls["initiate_round"]
    if rounds:
        fold, view = tracer.named_ns["fold_counters"], tracer.named_ns["build_view"]
        # build_view is only ever called from inside the two exchange entry points.
        exchange = (tracer.named_ns["initiate_round"]
                    + tracer.named_ns["serve_request"] - view)
        metrics["core.partitioning.fold_ms_per_round"] = fold / 1e6 / rounds
        metrics["core.partitioning.view_ms_per_round"] = view / 1e6 / rounds
        metrics["core.partitioning.exchange_ms_per_round"] = exchange / 1e6 / rounds
    metrics["trace.overhead_ratio"] = traced.run_ref_s / untraced.run_ref_s
    metrics["trace.coverage"] = tracer.coverage(traced.run_s * 1e9)
    tracer.dump(OUT / f"trace_{workload.name}.json", workload.name, seed, metrics)
    return metrics, [untraced, traced]


def _trace_aio(workload: Workload, seed: int, smoke: bool,
               _problems: list[str]) -> tuple[dict[str, float], list[Repeat]]:
    """Differential runs of this workload's traffic shape over transports."""
    own = "inproc" if workload.name.endswith("inproc") else "tcp"
    variants = {"inproc": {"transport": "inproc"},
                "inproc-copy": {"transport": "inproc-copy"},
                "tcp": {"transport": "tcp"}}
    if workload.name.startswith("aio_ping"):
        # Turn machinery alone: pinger and ponger on one silo.
        variants["turn"] = {"transport": "inproc", "ponger_silo": 0}
    runs: dict[str, list[Repeat]] = {name: [] for name in variants}
    for _ in range(1 if smoke else 3):
        for name, options in variants.items():
            gc.collect()
            runs[name].append(workload.run(seed, smoke, **options))

    def median(variant: str, counter: str) -> float:
        return statistics.median(r.counters[counter] for r in runs[variant])

    cpu = {name: median(name, "backend.asyncio.cpu_us_per_req") for name in runs}
    metrics = {counter: median(own, counter) for counter in runs[own][0].counters}
    msgs = metrics["backend.asyncio.msgs_per_req"]
    remote = median("tcp", "backend.asyncio.remote_msgs_per_req")
    turn = cpu.get("turn", cpu["inproc"]) / msgs
    pickle = (cpu["inproc-copy"] - cpu["inproc"]) / remote
    socket = (cpu["tcp"] - cpu["inproc-copy"]) / remote
    metrics["backend.asyncio.turn_us_per_msg"] = turn
    metrics["backend.asyncio.pickle_us_per_msg"] = pickle
    metrics["backend.asyncio.socket_us_per_msg"] = socket
    if pickle <= 0 or socket <= 0:
        # Expected turn < turn+pickle < turn+pickle+socket; a difference of
        # medians of three runs can flip on a very noisy machine, so this
        # is reported, not failed.
        print(f"tracer.py: warning: differential not ordered: turn={turn:.2f} "
              f"pickle={pickle:.2f} socket={socket:.2f} us/msg", file=sys.stderr)
    # No instrumentation is installed on this runtime; coverage is the share
    # of this workload's CPU per request the three-layer model accounts for.
    metrics["trace.overhead_ratio"] = 1.0
    explained = turn * msgs + ((pickle + socket) * remote if own == "tcp" else 0.0)
    metrics["trace.coverage"] = explained / cpu[own]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace_{workload.name}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "cpu_us_per_req": {name: [r.counters["backend.asyncio.cpu_us_per_req"]
                                             for r in reps] for name, reps in runs.items()},
                   "metrics": metrics}, fh)
    return metrics, [r for reps in runs.values() for r in reps]


def trace_workload(workload: Workload, seed: int, smoke: bool, names: list[str],
                   problems: list[str]) -> tuple[dict[str, float], list[Repeat]]:
    """Every per-layer metric in ``names`` for one workload; a layer the
    workload never enters reads 0 (zero calls were made into it)."""
    trace = _trace_sim if workload.kind == "sim" else _trace_aio
    measured, repeats = trace(workload, seed, smoke, problems)
    measured.update(isolated.run_all(smoke))
    unknown = sorted(set(measured) - set(names))
    if unknown:
        problems.append(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    metrics = dict.fromkeys(names, 0.0)
    metrics.update((k, float(v)) for k, v in measured.items() if k in metrics)
    return metrics, repeats
