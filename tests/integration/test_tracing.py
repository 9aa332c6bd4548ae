"""Integration tests for repro.obs, the runtime event log, on live runs.

* **Neutrality** — attaching an ``Observability`` must not perturb the
  simulation: a seeded run is bit-identical (event trace digest, event
  count, every latency sample) with the log attached or not.
* **Completeness** — the control plane's decisions (partitioning rounds,
  exchanges, migrations, thread re-allocations) land in the log, even
  when it is attached after the run started, and nothing after detach.
* **Both engines** — the same attachment works on the asyncio backend.
"""

import hashlib

import pytest

from repro import ClusterConfig, build_cluster
from repro.actor.actor import Actor
from repro.actor.calls import Call
from repro.bench.harness import HaloExperiment
from repro.obs import Observability
from repro.obs.events import (
    ActivationEvent,
    ExchangeEvent,
    MigrationEvent,
    PartitionRoundEvent,
    ThreadAllocationEvent,
)


def _run_mini_cluster(observe: bool, horizon: float = 4.0):
    """Seeded mini Halo cluster, with or without an event log.  Returns
    the event-trace fingerprint plus the Observability (or None)."""
    exp = HaloExperiment(players=80, num_servers=3, seed=5)
    obs = Observability(exp.runtime) if observe else None
    exp.workload.start()
    sim = exp.runtime.sim
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    latencies = sorted(exp.runtime.client_latency._samples)
    return digest.hexdigest(), sim.events_processed, latencies, obs


def test_tracing_is_neutral_to_the_simulation():
    *baseline, _ = _run_mini_cluster(observe=False)
    *observed, obs = _run_mini_cluster(observe=True)
    # Bit-identical schedules and results with the log attached.
    assert observed == baseline
    assert obs.events.of_kind(ActivationEvent)


def _actop_halo():
    return HaloExperiment(players=150, num_servers=3, seed=4,
                          partitioning=True, thread_allocation=True)


def test_actop_run_emits_runtime_events():
    exp = _actop_halo()
    obs = Observability(exp.runtime)
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


def test_observability_attached_after_start_sees_every_thread_decision():
    exp = _actop_halo()
    exp.start()
    obs = Observability(exp.runtime)
    exp.runtime.run(until=20.0)

    logged = obs.events.of_kind(ThreadAllocationEvent)
    decided = [(a.time, c.server.name)
               for c in exp.actop.controllers for a in c.allocations]
    assert decided, "thread controllers acted"
    assert sorted((e.time, e.server) for e in logged) == sorted(decided)
    assert obs.events.of_kind(PartitionRoundEvent)


def test_detached_observability_receives_no_more_events():
    exp = _actop_halo()
    obs = Observability(exp.runtime)
    exp.start()
    exp.runtime.run(until=20.0)
    obs.detach()
    frozen = len(obs.events)
    exp.runtime.run(until=40.0)
    assert sum(len(c.allocations) for c in exp.actop.controllers) > 0
    assert len(obs.events) == frozen


def test_double_attach_is_rejected():
    exp = HaloExperiment(players=40, num_servers=2, seed=1)
    obs = Observability(exp.runtime)
    with pytest.raises(RuntimeError):
        Observability(exp.runtime)
    obs.detach()
    second = Observability(exp.runtime)  # fine after detach
    assert exp.runtime.obs is second


# ----------------------------------------------------------------------
# The same attachment on the asyncio backend: the core's lifecycle and
# migration events, emitted by the same code as on the simulator.
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
        # 8 spawns + the re-activation of the moved partner.
        assert len(obs.events.of_kind(ActivationEvent)) == 9
        (migration,) = obs.events.of_kind(MigrationEvent)
        assert (migration.actor, migration.source, migration.destination) \
            == (str(moved.id), 1, 0)
        obs.detach()
        assert be.obs is None
