"""Integration tests: elastic autoscaling end to end.

The controller's contract, exercised on live clusters:

* a flash crowd grows the fleet and the lull after drains it back;
* registered pools resize with the fleet (one integrated plan);
* ``FaultPlan.add_silo`` / ``drain_silo`` share the runtime's elastic
  vocabulary, and a drain racing a flash crowd loses no requests — nor,
  on either backend, one that is still on the wire when the silo empties;
* scaling emits paired begin/commit ``ScalePlanEvent``s plus
  ``SiloScaleEvent`` / ``PoolResizeEvent``, and attaching the event log
  is digest-neutral;
* seeded runs produce bit-identical scaling traces, and
  ``autoscale=None`` is bit-identical to a cluster that never imported
  the subsystem.
"""

import hashlib

import pytest

from repro.actor import core
from repro.actor.actor import Actor
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.autoscale import AutoscaleConfig
from repro.cluster import build_cluster
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.obs.events import PoolResizeEvent, ScalePlanEvent, SiloScaleEvent
from repro.sim import network
from repro.workloads import stageflow
from repro.workloads.stageflow import StageflowConfig, StageflowWorkload

FLASH = StageflowConfig(curve="flash", base_rate=120.0, flash_at=5.0,
                        flash_duration=4.0, flash_multiplier=4.0)
BAND = dict(period=0.5, low=0.35, high=0.70, min_silos=1,
            initial_silos=1, cooldown=1.0, warmup=1.0)


@pytest.fixture(autouse=True)
def small_pipeline(monkeypatch):
    """Two pipeline drivers and two router shards per pool."""
    monkeypatch.setattr(stageflow, "PIPELINES", 2)
    monkeypatch.setattr(stageflow, "ROUTER_SHARDS", 2)


def flash_cluster(seed=5, observability=False):
    cluster = build_cluster(
        ClusterConfig(num_servers=4, processors=2, seed=seed),
        autoscale=AutoscaleConfig(**BAND))
    obs = Observability(cluster.runtime) if observability else None
    workload = StageflowWorkload(cluster.runtime, FLASH,
                                 autoscale=cluster.autoscale)
    cluster.start()
    workload.start()
    return cluster, workload, obs


# ----------------------------------------------------------------------
def test_flash_crowd_grows_then_drains_back():
    cluster, workload, _ = flash_cluster()
    rt = cluster.runtime
    rt.run(until=18.0)
    ctrl = cluster.autoscale
    assert ctrl.grows >= 1, "flash never triggered a grow"
    assert ctrl.shrinks >= 1, "lull never triggered a drain"
    assert ctrl.plans_committed == ctrl.plans_begun
    assert ctrl.active == 1, "fleet did not return to the floor"
    assert rt.silos_added >= 1 and rt.silos_drained >= 1
    assert workload.completed > 1_000
    assert workload.failed == 0
    # Elasticity is the point: strictly below always-on provisioning.
    ctrl.stop()
    assert ctrl.silo_seconds < 4 * rt.sim.now


def test_pools_resize_with_the_fleet():
    cluster, workload, _ = flash_cluster()
    rt = cluster.runtime
    rt.run(until=8.0)  # inside the surge, after the grow plan
    assert cluster.autoscale.grows >= 1
    grown = cluster.autoscale.active
    assert grown > 1
    surge_replicas = {}
    for pool in workload.pools:
        assert pool.resizes >= 1
        assert pool.replicas > 1
        surge_replicas[pool.name] = pool.replicas
    rt.run(until=18.0)  # drained back
    assert cluster.autoscale.active == 1
    for pool in workload.pools:
        # The routing window followed the fleet back down.
        assert pool.replicas < surge_replicas[pool.name]


# ----------------------------------------------------------------------
class Echo(Actor):
    COMPUTE = {"ping": 1e-5}

    def ping(self):
        return "pong"


def test_fault_plan_add_and_drain_share_the_vocabulary():
    plan = FaultPlan().drain_silo(2.0, 2).add_silo(8.0)
    cluster = build_cluster(ClusterConfig(num_servers=3, seed=4),
                            faults=plan)
    rt = cluster.runtime
    obs = Observability(rt)
    rt.register_actor("echo", Echo)
    results = []

    def tick():
        for i in range(12):
            rt.client_request(rt.ref("echo", i), "ping",
                              on_complete=lambda lat, res: results.append(res))
        rt.sim.schedule(0.5, tick)

    rt.sim.schedule(0.0, tick)
    cluster.start()

    rt.run(until=6.0)  # drain finished, silo parked
    assert rt.silos_drained == 1
    assert rt.silos[2].dead
    assert rt.census()[2] == 0

    rt.run(until=12.0)  # add_silo picked the lowest-numbered parked silo
    assert rt.silos_added == 1
    assert not rt.silos[2].dead
    assert all(r == "pong" for r in results)

    actions = [e.action for e in obs.events.of_kind(SiloScaleEvent)]
    assert actions == ["drain_begin", "drain_done", "add"]


def test_drain_racing_flash_crowd_loses_nothing():
    """Chaos: a silo drains away exactly as the flash crowd lands."""
    cluster = build_cluster(
        ClusterConfig(num_servers=3, processors=2, seed=9),
        faults=FaultPlan().drain_silo(5.0, 1))
    workload = StageflowWorkload(cluster.runtime, FLASH)
    cluster.start()
    workload.start()
    rt = cluster.runtime
    rt.run(until=14.0)
    assert rt.silos_drained == 1
    assert rt.silos[1].dead
    assert workload.completed > 1_000
    assert workload.failed == 0
    # The drained silo's pool replicas re-homed to the survivors.
    assert rt.census()[1] == 0


@pytest.mark.parametrize("backend, options, poll", [
    ("sim", {}, 0.75 * network.BASE_LATENCY),
    ("asyncio", {"transport": "tcp"}, 0.01),
], ids=["sim", "asyncio"])
def test_drain_completes_requests_on_the_wire_when_the_silo_empties(
        backend, options, poll, monkeypatch):
    """Every request below is resolved to silo 0 while its target is
    still hosted there; the drain then empties the silo before any of
    them lands (on asyncio: those that entered through the other silo's
    gateway).  Empty is not yet gone: only a live silo forwards them, so
    it decommissions after one *further* poll spent empty — here the
    poll that follows their arrival.  The poll is shorter than the wire
    latency, which is jitter-free."""
    monkeypatch.setattr(core, "DRAIN_POLL", poll)
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=0),
                            backend=backend, **options)
    with cluster:
        rt = cluster.runtime
        if backend == "sim":
            monkeypatch.setattr(rt.network, "jitter", 0.0)
        rt.register_actor("echo", Echo)
        cluster.start()
        refs = [rt.ref("echo", i) for i in range(8)]
        for ref in refs:
            rt.activate(ref.id, 0)
        results, drained = [], []
        for ref in refs:
            rt.client_request(ref, "ping",
                              on_complete=lambda lat, res: results.append(res))
        assert rt.drain_silo(0, on_complete=drained.append)
        if backend == "sim":
            assert rt.silos[0].quiesced and rt.inflight_requests == 8
        cluster.run(until=rt.sim.now + 0.3)
        assert results == ["pong"] * 8
        assert rt.requests_completed == 8 and rt.inflight_requests == 0
        assert drained == [0] and rt.silos[0].dead and rt.silos_drained == 1
        # Re-placed on the survivor, or evicted after serving and not yet.
        assert all(rt.locate(ref.id) in (1, None) for ref in refs)


# ----------------------------------------------------------------------
def test_scale_plan_events_pair_up():
    cluster, workload, obs = flash_cluster(observability=True)
    cluster.runtime.run(until=18.0)

    plans = obs.events.of_kind(ScalePlanEvent)
    assert plans, "no ScalePlanEvents emitted"
    begun = {e.plan_id for e in plans if e.phase == "begin"}
    committed = {e.plan_id for e in plans if e.phase == "commit"}
    assert begun == committed
    kinds = {e.kind for e in plans}
    assert kinds == {"grow", "shrink"}
    for e in plans:
        assert e.active_before >= 1 and e.active_after >= 1

    assert obs.events.of_kind(PoolResizeEvent)
    silo_actions = [e.action for e in obs.events.of_kind(SiloScaleEvent)]
    assert "add" in silo_actions and "drain_done" in silo_actions


def _digest(build, horizon=12.0):
    out = build()
    sim = out.sim if hasattr(out, "sim") else out
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    return digest.hexdigest()


def test_event_logging_is_digest_neutral():
    digests = []
    for observability in (False, True):
        cluster, _, _ = flash_cluster(observability=observability)
        digests.append(_digest(lambda: cluster.runtime))
    assert digests[0] == digests[1]


def test_scaling_trace_is_seeded_deterministic():
    traces = []
    for _ in range(2):
        cluster, _, _ = flash_cluster()
        digest = _digest(lambda: cluster.runtime, horizon=18.0)
        ctrl = cluster.autoscale
        traces.append((digest, ctrl.decisions, ctrl.windows,
                       ctrl.plans_committed))
    assert traces[0] == traces[1]


def test_autoscale_none_is_bit_identical_to_bare_runtime():
    def bare():
        rt = ActorRuntime(ClusterConfig(num_servers=3, seed=7))
        rt.register_actor("echo", Echo)
        _drive(rt)
        return rt

    def composed():
        cluster = build_cluster(ClusterConfig(num_servers=3, seed=7),
                                autoscale=None)
        cluster.start()
        rt = cluster.runtime
        rt.register_actor("echo", Echo)
        _drive(rt)
        return rt

    def _drive(rt):
        def tick():
            for i in range(8):
                rt.client_request(rt.ref("echo", i), "ping")
            rt.sim.schedule(0.3, tick)
        rt.sim.schedule(0.0, tick)

    assert _digest(bare) == _digest(composed)
