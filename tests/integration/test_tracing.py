"""Integration tests for repro.obs on live cluster runs.

The contract under test is the one that makes tracing trustworthy:

* **Neutrality** — attaching an ``Observability`` must not perturb the
  simulation.  A seeded run must be bit-identical (event trace digest,
  event count, every latency sample) with tracing off, on, and sampled.
* **Causality** — a single client request produces one connected span
  tree whose pieces land on the right silos, across RPC boundaries.
* **Accuracy** — per-stage time totals derived from spans must agree
  with the independently-maintained :class:`StageStats` recorders.
* **Cheapness** — with sampling off, the added work is a handful of
  predicate checks per event: no span, no span id, at most one call
  into :mod:`repro.obs` per processed event.
"""

import hashlib
import os
import sys

import pytest

import repro.obs
from repro import ClusterConfig, build_cluster
from repro.actor.actor import Actor
from repro.actor.calls import Call
from repro.bench.harness import HaloExperiment
from repro.obs import (
    Observability,
    cross_check,
    critical_path,
    recorder_totals,
    spans_by_trace,
    stage_totals,
)
from repro.obs.events import (
    ActivationEvent,
    ExchangeEvent,
    MigrationEvent,
    PartitionRoundEvent,
    ThreadAllocationEvent,
)


def _run_mini_cluster(sample_rate=None, horizon: float = 4.0):
    """Seeded mini Halo cluster; optionally traced.  Returns the
    event-trace fingerprint plus the Observability (or None)."""
    exp = HaloExperiment(players=80, num_servers=3, seed=5)
    obs = None
    if sample_rate is not None:
        obs = Observability(exp.runtime, sample_rate=sample_rate)
    exp.workload.start()
    sim = exp.runtime.sim
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    latencies = sorted(exp.runtime.client_latency._samples)
    return digest.hexdigest(), sim.events_processed, latencies, obs


def test_tracing_is_neutral_to_the_simulation():
    baseline = _run_mini_cluster(sample_rate=None)
    traced = _run_mini_cluster(sample_rate=1.0)
    sampled = _run_mini_cluster(sample_rate=0.25)

    # Bit-identical schedules and results regardless of tracing.
    for run in (traced, sampled):
        assert run[0] == baseline[0]
        assert run[1] == baseline[1]
        assert run[2] == baseline[2]

    obs = traced[3]
    assert obs.tracer.traces_started == obs.tracer.requests_seen > 0
    assert len(obs.spans) > 100

    part = sampled[3]
    assert part.tracer.requests_seen == obs.tracer.requests_seen
    # Systematic 1-in-4 sampling, deterministic — not approximately 25%.
    assert part.tracer.traces_started == obs.tracer.traces_started // 4


def test_request_spans_form_a_cross_silo_tree():
    *_, obs = _run_mini_cluster(sample_rate=1.0, horizon=6.0)
    finished = [s for s in obs.spans if s.cat == "request"]
    assert len(finished) > 20
    traces = spans_by_trace(obs.spans)

    crossed = 0
    for span in finished:
        tree = traces[span.trace_id]
        by_id = {s.span_id: s for s in tree}
        roots = [s for s in tree if s.parent_id is None]
        assert roots == [span]  # exactly one root per trace: the request
        # Call/stage/net spans must link back into the recorded tree.
        # (Tell fan-out is the one sanctioned exception: a Tell carries a
        # child context but records no span of its own, so its stage
        # work hangs off an unrecorded parent id.)
        linked = sum(1 for s in tree
                     if s.parent_id is not None and s.parent_id in by_id)
        assert linked > 0 or len(tree) == 1
        servers = {s.server for s in tree if s.server is not None}
        if len(servers) > 1:
            crossed += 1
            assert any(s.cat == "call" for s in tree)
            assert any(s.cat == "net" for s in tree)
        path = critical_path(tree)
        assert path and path[0] is span
        for hop, nxt in zip(path, path[1:]):
            assert nxt.parent_id == hop.span_id
    # Halo sessions scatter players across silos: remote work must exist.
    assert crossed > 0


@pytest.mark.parametrize("actop", [False, True])
def test_trace_derived_stage_totals_match_recorders(actop):
    # The actop=True variant is the hard case: actors migrate mid-window
    # and the thread controllers window the same servers every tick —
    # each reader's snapshot must stay its own.
    exp = HaloExperiment(players=120, num_servers=3, seed=9,
                         partitioning=actop, thread_allocation=actop)
    obs = Observability(exp.runtime, sample_rate=1.0)
    rt = exp.runtime
    exp.workload.start()
    if actop:
        exp.actop.start()
    rt.run(until=3.0)
    t0 = rt.sim.now
    snapshots = [(silo, silo.server.snapshot()) for silo in rt.silos]
    rt.run(until=8.0)
    windows = {silo.server_id: silo.server.windows_since(snapshot)
               for silo, snapshot in snapshots}

    error, components = cross_check(
        stage_totals(obs.spans, t0, rt.sim.now),
        recorder_totals(windows),
    )
    assert components, "cross-check must actually compare components"
    assert error < 0.01, f"trace vs recorder divergence {error:.4g}"


def _actop_halo():
    return HaloExperiment(players=150, num_servers=3, seed=4,
                          partitioning=True, thread_allocation=True)


def test_actop_run_emits_runtime_events():
    exp = _actop_halo()
    obs = Observability(exp.runtime, sample_rate=0.0)
    exp.workload.start()
    exp.actop.start()
    exp.runtime.run(until=20.0)

    events = obs.events
    assert events.of_kind(PartitionRoundEvent), "partitioning rounds ran"
    assert events.of_kind(ThreadAllocationEvent), "thread controller acted"
    exchanges = events.of_kind(ExchangeEvent)
    migrations = events.of_kind(MigrationEvent)
    assert exchanges
    # Accepted exchanges move actors in both directions; each move lands
    # as a migration event (some may still be in flight at the horizon).
    moved = sum(e.sent + e.received for e in exchanges if e.accepted)
    assert len(migrations) <= moved
    if moved:
        assert migrations
    # sample_rate=0 means events flow but no request spans do.
    assert obs.tracer.traces_started == 0
    assert not [s for s in obs.spans if s.cat == "request"]


def test_observability_attached_after_start_sees_every_thread_decision():
    exp = _actop_halo()
    exp.start()
    obs = Observability(exp.runtime, sample_rate=0.0)
    exp.runtime.run(until=20.0)

    logged = obs.events.of_kind(ThreadAllocationEvent)
    decided = [(a.time, c.server.name)
               for c in exp.actop.controllers for a in c.allocations]
    assert decided, "thread controllers acted"
    assert sorted((e.time, e.server) for e in logged) == sorted(decided)
    assert obs.events.of_kind(PartitionRoundEvent)


def test_detached_observability_receives_no_more_events():
    exp = _actop_halo()
    obs = Observability(exp.runtime, sample_rate=0.0)
    exp.start()
    exp.runtime.run(until=20.0)
    obs.detach()
    frozen = len(obs.events)
    exp.runtime.run(until=40.0)
    assert sum(len(c.allocations) for c in exp.actop.controllers) > 0
    assert len(obs.events) == frozen


def test_disabled_tracing_records_nothing_and_stays_cheap():
    """The disabled path is a handful of predicate checks per event: it
    records no span, draws no span id, and enters ``repro.obs`` at most
    once per processed event (~0.9 on this slice; tracing every request
    costs ~6 and ~6,600 spans).  A count, not a timing: it cannot flake
    on a loaded machine, and span recording or per-event work on the
    disabled path fails it."""
    exp = HaloExperiment(players=120, num_servers=3, seed=11)
    obs = Observability(exp.runtime, sample_rate=0.0)
    span_ids = calls = 0
    new_span_id = obs.tracer._new_span_id
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep

    def counted_span_id():
        nonlocal span_ids
        span_ids += 1
        return new_span_id()

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(obs_dir):
            calls += 1

    obs.tracer._new_span_id = counted_span_id
    exp.workload.start()
    sys.setprofile(profile)
    try:
        exp.runtime.run(until=6.0)
    finally:
        sys.setprofile(None)
    events = exp.runtime.sim.events_processed
    assert obs.spans == [] and span_ids == 0
    assert obs.tracer.requests_seen > 0   # the hooks were reached
    assert calls <= events, f"{calls} repro.obs calls for {events} events"


def test_double_attach_is_rejected():
    exp = HaloExperiment(players=40, num_servers=2, seed=1)
    obs = Observability(exp.runtime)
    with pytest.raises(RuntimeError):
        Observability(exp.runtime)
    obs.detach()
    second = Observability(exp.runtime)  # fine after detach
    assert exp.runtime.obs is second


# ----------------------------------------------------------------------
# The same attachment on the asyncio driver: no stages to hook, the
# core's request / call / lifecycle hooks all the same.
# ----------------------------------------------------------------------
class _Chatter(Actor):
    def poke(self, partner):
        return (yield Call(partner, "ack"))


class _Partner(Actor):
    def ack(self):
        return 1


@pytest.mark.parametrize("transport", ["inproc", "inproc-copy", "tcp"])
def test_observability_on_the_asyncio_driver(transport):
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=5),
                            backend="asyncio", transport=transport)
    with cluster:
        be = cluster.runtime
        obs = Observability(be)
        be.register_actor("chatter", _Chatter)
        be.register_actor("partner", _Partner)
        cluster.start()
        pairs = [(be.ref("chatter", i), be.ref("partner", i))
                 for i in range(4)]
        for chatter, partner in pairs:
            be.spawn(chatter, server=0)
            be.spawn(partner, server=1)    # every poke crosses silos
        answers = []
        for _ in range(3):
            for chatter, partner in pairs:
                be.client_request(chatter, "poke", partner,
                                  on_complete=lambda _l, r: answers.append(r))
        be.flush()
        # Move one partner next to its chatter, then talk to it again.
        moved = pairs[0][1]
        assert be.silos[1].migrate(moved.id, 0)
        be.client_request(pairs[0][0], "poke", moved,
                          on_complete=lambda _l, r: answers.append(r))
        be.flush()
        assert be.run_until_idle()

        assert answers == [1] * 13 and be.locate(moved.id) == 0
        tracer = obs.tracer
        assert tracer.requests_seen == tracer.requests_finished == 13
        assert not tracer._open_requests and not tracer._open_calls
        # Request and call spans only: there is no stage or modeled hop.
        cats = sorted(span.cat for span in obs.spans)
        assert cats == ["call"] * 13 + ["request"] * 13
        # 8 spawns + the re-activation of the moved partner.
        assert len(obs.events.of_kind(ActivationEvent)) == 9
        (migration,) = obs.events.of_kind(MigrationEvent)
        assert (migration.actor, migration.source, migration.destination) \
            == (str(moved.id), 1, 0)
        assert all(not silo.stages for silo in be.silos)
        obs.detach()
        assert be.obs is None
