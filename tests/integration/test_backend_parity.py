"""Cross-backend parity: one program, two engines, identical logic.

The simulator is the reference implementation; the asyncio backend must
agree with it on everything *logical* — results, final actor state,
message-count splits — while timings (simulated vs wall-clock) are
allowed to differ.  Both engines seed the same RNG streams and draw in
the same order during deterministic setup, so the local/remote message
split is exactly reproducible, not just statistically similar.
"""

import pytest

from repro import ClusterConfig, FaultPlan, ResilienceConfig, build_cluster
from repro.analysis.sanitizer import Sanitizer
from repro.backend.bench import PingerActor, PongerActor
from repro.workloads import stageflow
from repro.workloads.stageflow import (
    StageSpec,
    StageflowConfig,
    StageflowWorkload,
    StageWorkerActor,
)

PINGS = 25
SEED = 7


def _pickle_copy_failures(rt) -> int:
    """Messages the copying transports could not pickle (the simulator
    copies nothing)."""
    return getattr(rt, "pickle_copy_failures", 0)


def _run_ping(backend_name: str, transport: str = "inproc") -> dict:
    kwargs = {} if backend_name == "sim" else {"transport": transport}
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=SEED),
                            backend=backend_name, **kwargs)
    with cluster:
        be = cluster.backend
        be.register_actor("pinger", PingerActor)
        be.register_actor("ponger", PongerActor)
        cluster.start()
        be.spawn(be.ref("pinger", 0), server=0)
        be.spawn(be.ref("ponger", 0), server=1)
        results = []
        for i in range(PINGS):
            be.client_request(be.ref("pinger", 0), "ping", i, size=64,
                              response_size=64,
                              on_complete=lambda _lat, res: results.append(res))
            cluster.run()
        rt = cluster.runtime
        pinger_loc = rt.locate(be.ref("pinger", 0).id)
        ponger_loc = rt.locate(be.ref("ponger", 0).id)
        pinger = rt.silos[pinger_loc].activations[be.ref("pinger", 0).id]
        ponger = rt.silos[ponger_loc].activations[be.ref("ponger", 0).id]
        return {
            "results": results,
            "pings": pinger.instance.pings,
            "bounces": ponger.instance.bounces,
            "pinger_state": pinger.instance.capture_state(),
            "ponger_state": ponger.instance.capture_state(),
            "msgs_local": rt.msgs_local,
            "msgs_remote": rt.msgs_remote,
            "pickle_copy_failures": _pickle_copy_failures(rt),
        }


@pytest.fixture
def small_pools(monkeypatch):
    """Small pools and two pipeline drivers through two router shards."""
    monkeypatch.setattr(stageflow, "STAGES", (
        StageSpec("route", compute=50e-6, replicas=2),
        StageSpec("enrich", compute=100e-6, heavy_compute=200e-6,
                  replicas=3),
        StageSpec("transform", compute=80e-6, replicas=2)))
    monkeypatch.setattr(stageflow, "PIPELINES", 2)
    monkeypatch.setattr(stageflow, "ROUTER_SHARDS", 2)


def _stageflow_config() -> StageflowConfig:
    # Deterministic policy, no load-report loop: every RNG draw during
    # setup and drive happens in program order on both engines.
    return StageflowConfig(
        policy="round_robin",
        report_period=None,
        heavy_fraction=0.3,
    )


def _run_stageflow(backend_name: str, requests: int = 40,
                   transport: str = "inproc") -> dict:
    kwargs = {} if backend_name == "sim" else {"transport": transport}
    cluster = build_cluster(ClusterConfig(num_servers=4, seed=SEED),
                            backend=backend_name, **kwargs)
    with cluster:
        cluster.start()
        rt = cluster.runtime
        workload = StageflowWorkload(rt, _stageflow_config())
        workload.start(arrivals=False)
        workload.drive(requests)
        cluster.run()
        per_stage: dict[str, int] = {}
        per_stage_heavy: dict[str, int] = {}
        processed = 0
        for silo in rt.silos:
            for actor_id, activation in silo.activations.items():
                instance = activation.instance
                if isinstance(instance, StageWorkerActor):
                    stage = actor_id.actor_type.removesuffix(".worker")
                    per_stage[stage] = (per_stage.get(stage, 0)
                                        + instance.handled)
                    per_stage_heavy[stage] = (per_stage_heavy.get(stage, 0)
                                              + instance.handled_heavy)
                elif actor_id.actor_type == StageflowWorkload.PIPELINE:
                    processed += instance.processed
        return {
            "issued": workload.issued,
            "completed": workload.completed,
            "failed": workload.failed,
            "per_stage": per_stage,
            "per_stage_heavy": per_stage_heavy,
            "processed": processed,
            "msgs_local": rt.msgs_local,
            "msgs_remote": rt.msgs_remote,
            "pickle_copy_failures": _pickle_copy_failures(rt),
        }


# ----------------------------------------------------------------------
def test_ping_parity_inproc():
    sim = _run_ping("sim")
    aio = _run_ping("asyncio", transport="inproc")
    assert sim == aio
    assert sim["results"] == list(range(PINGS))
    assert sim["bounces"] == PINGS
    # The pinger and ponger sit on different silos: every call and every
    # response crosses, nothing stays local.
    assert sim["msgs_remote"] == 2 * PINGS
    assert sim["msgs_local"] == 0


def test_ping_parity_tcp():
    sim = _run_ping("sim")
    aio = _run_ping("asyncio", transport="tcp")
    assert sim == aio


def test_ping_parity_inproc_copy():
    """The deep-copy inproc transport pickles every cross-silo message
    exactly as TCP would, so a program whose logical results survive it
    unchanged is portable: nothing it sends depends on reference
    sharing, and nothing it sends fails pickle."""
    reference = _run_ping("asyncio", transport="inproc")
    copied = _run_ping("asyncio", transport="inproc-copy")
    assert reference == copied


@pytest.mark.usefixtures("small_pools")
def test_stageflow_parity_inproc_copy():
    reference = _run_stageflow("asyncio", transport="inproc")
    copied = _run_stageflow("asyncio", transport="inproc-copy")
    assert reference == copied


@pytest.mark.usefixtures("small_pools")
def test_inproc_copy_drops_nothing_on_the_parity_programs():
    # Every message the parity programs send must survive the pickle
    # round-trip — a nonzero failure count would mean the copy transport
    # silently changed the program — and, with the sanitizer's payload
    # probe armed, none may alias its sender's state: the dynamic check
    # for what the retired XB payload rules guessed at statically.
    san = Sanitizer()
    with san.armed():
        ping = _run_ping("asyncio", transport="inproc-copy")
        flow = _run_stageflow("asyncio", transport="inproc-copy")
    assert len(ping["results"]) == PINGS and flow["completed"] == 40
    assert ping["pickle_copy_failures"] == flow["pickle_copy_failures"] == 0
    assert san.payload_events == []


@pytest.mark.usefixtures("small_pools")
def test_stageflow_parity():
    sim = _run_stageflow("sim")
    aio = _run_stageflow("asyncio")
    assert sim == aio
    assert sim["issued"] == 40
    assert sim["completed"] == 40
    assert sim["failed"] == 0
    # Every request visits every stage exactly once, on its kind's path.
    for stage in ("route", "enrich", "transform"):
        assert sim["per_stage"][stage] + sim["per_stage_heavy"][stage] == 40
    assert sim["processed"] == 40


@pytest.mark.usefixtures("small_pools")
def test_stageflow_kind_split_is_seeded():
    # The heavy/light split comes from the seeded kind stream, so it is
    # a fixed number, not a distribution.
    sim = _run_stageflow("sim")
    heavy = sum(sim["per_stage_heavy"].values())
    assert heavy % len(sim["per_stage_heavy"]) == 0
    assert 0 < heavy // 3 < 40


@pytest.mark.usefixtures("small_pools")
@pytest.mark.parametrize("backend_name", ["sim", "asyncio"])
def test_stageflow_with_crash_plan_runs_on_both_backends(backend_name):
    """The acceptance program: one Stageflow workload, one crash/restart
    FaultPlan, one build_cluster call — the backend argument is the only
    difference.  (Timings differ by engine, so this asserts survival and
    recovery, not bit-parity.)

    With SEED=7 silo 2 hosts one stateless stage worker and no pipeline
    actors, so the crash costs an activation the directory can re-place,
    not volatile pipeline wiring."""
    plan = FaultPlan().crash(at=0.05, server=2).restart(at=0.2, server=2)
    cluster = build_cluster(
        ClusterConfig(num_servers=4, seed=SEED),
        backend=backend_name,
        faults=plan,
        resilience=ResilienceConfig(call_timeout=0.5),
    )
    with cluster:
        cluster.start()
        rt = cluster.runtime
        workload = StageflowWorkload(rt, _stageflow_config())
        workload.start(arrivals=False)
        cluster.run(until=0.3)  # crash fires at 0.05, restart at 0.2
        assert not rt.silos[2].dead
        workload.drive(40)
        cluster.run()
        assert workload.issued == 40
        # The lost worker re-places on a live silo, so the pipeline keeps
        # completing every request after the crash.
        assert workload.completed == 40
        assert workload.failed == 0


@pytest.mark.parametrize("backend_name", ["sim", "asyncio"])
def test_send_parity_counts(backend_name):
    # Oneway sends resolve through the same gateway/placement draws on
    # both engines.
    cluster = build_cluster(ClusterConfig(num_servers=2, seed=SEED),
                            backend=backend_name)
    with cluster:
        be = cluster.backend
        be.register_actor("ponger", PongerActor)
        cluster.start()
        be.spawn(be.ref("ponger", 0), server=1)
        for i in range(10):
            be.send(be.ref("ponger", 0), "pong", i, size=64)
        cluster.run()
        rt = cluster.runtime
        ponger = rt.silos[1].activations[be.ref("ponger", 0).id].instance
        assert ponger.bounces == 10
