"""Integration tests: the online partitioning agent on a live cluster."""

import pytest

from repro.actor.actor import Actor
from repro.actor.calls import Call
from repro.actor.runtime import ActorRuntime, ClusterConfig
from repro.cluster import build_cluster
from repro.core.actop import ActOp, ActOpConfig
from repro.core.partitioning.coordinator import PartitionAgent, PartitioningConfig


class Chatter(Actor):
    """Calls a fixed partner on every poke — a two-actor clique."""

    def poke(self, partner):
        ack = yield Call(partner, "ack")
        return ack


class Partner(Actor):
    def ack(self):
        return 1


def make_cluster(servers=3, seed=0):
    rt = ActorRuntime(ClusterConfig(num_servers=servers, seed=seed))
    rt.register_actor("chatter", Chatter)
    rt.register_actor("partner", Partner)
    return rt


def fast_config(**overrides):
    defaults = dict(
        round_period=1.0,
        stats_period=0.5,
        cooldown=0.5,
        delta=8,
        candidate_fraction=1.0,
        candidate_max=32,
        decay=0.9,
        warmup=1.0,
    )
    defaults.update(overrides)
    return PartitioningConfig(**defaults)


def drive_pairs(rt, pairs, period, until):
    """Poke each (chatter, partner) pair every ``period`` seconds."""

    def tick(t):
        if t >= until:
            return
        for chatter, partner in pairs:
            rt.client_request(chatter, "poke", partner)
        rt.sim.schedule(period, tick, t + period)

    rt.sim.schedule(0.0, tick, 0.0)


def test_fold_counters_builds_edge_summary():
    rt = make_cluster(servers=2)
    chatter, partner = rt.ref("chatter", 1), rt.ref("partner", 1)
    rt.activate(chatter.id, 0)
    rt.activate(partner.id, 1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    rt.client_request(chatter, "poke", partner)
    rt.run(until=1.0)
    agent.fold_counters()
    # chatter sent a call and received a response: weight 2 toward
    # partner (decay applies to *previously folded* weight, not fresh
    # counters).
    assert agent.edges.count((chatter.id, partner.id)) == pytest.approx(2.0)
    agent.fold_counters()
    assert agent.edges.count((chatter.id, partner.id)) == pytest.approx(2.0 * 0.9)


def test_view_excludes_departed_actors():
    rt = make_cluster(servers=2)
    chatter, partner = rt.ref("chatter", 1), rt.ref("partner", 1)
    rt.activate(chatter.id, 0)
    rt.activate(partner.id, 1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    rt.client_request(chatter, "poke", partner)
    rt.run(until=1.0)
    agent.fold_counters()
    rt.silos[0].migrate(chatter.id, destination=1)
    rt.run(until=1.5)
    agent.fold_counters()  # purges stale edges
    view = agent.build_view()
    assert chatter.id not in view.edges


def sampled_sources(agent):
    return {src for (src, _), _ in agent.edges.items()}


def chatting_pairs(rt, n, chatter_silo, partner_silo):
    pairs = []
    for i in range(n):
        chatter, partner = rt.ref("chatter", i), rt.ref("partner", i)
        rt.activate(chatter.id, chatter_silo)
        rt.activate(partner.id, partner_silo)
        pairs.append((chatter, partner))
    return pairs


def poke_all(rt, pairs, until):
    for chatter, partner in pairs:
        rt.client_request(chatter, "poke", partner)
    rt.run(until=until)


def test_fold_purges_every_source_a_crash_took():
    """After a silo crash and restart, the fold forgets the edges of every
    actor the crash lost and keeps those of the actors re-placed there."""
    rt = make_cluster(servers=2)
    pairs = chatting_pairs(rt, 4, chatter_silo=0, partner_silo=1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    poke_all(rt, pairs, until=1.0)
    agent.fold_counters()
    assert sampled_sources(agent) == {c.id for c, _ in pairs}
    rt.fail_silo(0)
    rt.restart_silo(0)
    back = pairs[:2]
    for chatter, _ in back:
        rt.activate(chatter.id, 0)
    poke_all(rt, back, until=2.0)
    agent.fold_counters()
    assert sampled_sources(agent) == {c.id for c, _ in back}
    assert sampled_sources(agent) <= set(rt.silos[0].activations)


def test_an_actor_that_leaves_and_returns_between_folds_keeps_its_edges():
    rt = make_cluster(servers=2)
    [(chatter, partner)] = chatting_pairs(rt, 1, chatter_silo=0, partner_silo=1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    poke_all(rt, [(chatter, partner)], until=1.0)
    agent.fold_counters()
    rt.silos[0].migrate(chatter.id, destination=1)
    rt.run(until=1.2)
    assert rt.locate(chatter.id) is None
    rt.activate(chatter.id, 0)   # back home before the next fold
    agent.fold_counters()
    assert agent.edges.count((chatter.id, partner.id)) == pytest.approx(2.0 * 0.9)
    assert sampled_sources(agent) <= set(rt.silos[0].activations)


def test_fold_purges_a_discard_state_deactivation():
    rt = make_cluster(servers=2)
    pairs = chatting_pairs(rt, 2, chatter_silo=0, partner_silo=1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    poke_all(rt, pairs, until=1.0)
    agent.fold_counters()
    gone, kept = pairs[0][0], pairs[1][0]
    assert rt.deactivate(gone.id, discard_state=True)
    agent.fold_counters()
    assert sampled_sources(agent) == {kept.id}


def test_a_stopped_agent_leaves_no_comm_table_behind():
    """Traffic after stop() records no edge: nothing would ever drain it."""
    rt = make_cluster(servers=2)
    pairs = chatting_pairs(rt, 3, chatter_silo=0, partner_silo=1)
    actop = ActOp(rt, ActOpConfig(partitioning=fast_config()))
    actop.start()
    poke_all(rt, pairs, until=1.0)
    actop.stop()
    assert all(silo.comm_table is None for silo in rt.silos)
    poke_all(rt, pairs, until=2.0)
    assert all(silo.comm_table is None for silo in rt.silos)


def test_a_restarted_agent_purges_what_left_while_it_was_stopped():
    """Departures while stopped are not noted, so start() has the first
    fold re-check every sampled source; a start() that finds a table
    installed keeps it and what it recorded."""
    rt = make_cluster(servers=2)
    pairs = chatting_pairs(rt, 3, chatter_silo=0, partner_silo=1)
    agent = PartitionAgent(rt, rt.silos[0], fast_config())
    table = rt.silos[0].comm_table
    poke_all(rt, pairs, until=1.0)
    agent.start()
    assert rt.silos[0].comm_table is table and len(table) > 0
    agent.fold_counters()
    agent.stop()
    gone = pairs[0][0]
    rt.silos[0].migrate(gone.id, destination=1)
    rt.run(until=1.5)
    agent.start()
    agent.fold_counters()
    assert sampled_sources(agent) == {c.id for c, _ in pairs[1:]}


def test_agents_colocate_communicating_pairs():
    rt = make_cluster(servers=3, seed=2)
    pairs = []
    for i in range(12):
        chatter, partner = rt.ref("chatter", i), rt.ref("partner", i)
        # scatter deliberately: chatter and partner on different servers
        rt.activate(chatter.id, i % 3)
        rt.activate(partner.id, (i + 1) % 3)
        pairs.append((chatter, partner))
    actop = ActOp(rt, ActOpConfig(partitioning=fast_config()))
    drive_pairs(rt, pairs, period=0.1, until=30.0)
    actop.start()
    rt.run(until=30.0)
    colocated = sum(
        1 for c, p in pairs if rt.locate(c.id) == rt.locate(p.id)
    )
    assert colocated >= 10  # nearly all pairs co-located
    assert rt.migrations_total > 0


def test_balance_respected_during_colocations():
    rt = make_cluster(servers=3, seed=3)
    pairs = []
    for i in range(15):
        chatter, partner = rt.ref("chatter", i), rt.ref("partner", i)
        rt.activate(chatter.id, i % 3)
        rt.activate(partner.id, (i + 1) % 3)
        pairs.append((chatter, partner))
    actop = ActOp(rt, ActOpConfig(partitioning=fast_config(delta=4)))
    drive_pairs(rt, pairs, period=0.1, until=25.0)
    actop.start()
    rt.run(until=25.0)
    census = rt.census()
    assert max(census.values()) - min(census.values()) <= 8  # 2*delta slack


def test_cooldown_rejects_rapid_exchanges():
    rt = make_cluster(servers=2)
    config = fast_config(cooldown=1000.0)  # effectively permanent
    agent0 = PartitionAgent(rt, rt.silos[0], config)
    agent1 = PartitionAgent(rt, rt.silos[1], config)
    agent0.peers = agent1.peers = {0: agent0, 1: agent1}
    agent1.last_exchange_time = 0.0  # pretend it just exchanged
    rt.sim.schedule(1.0, lambda: None)
    rt.run()
    from repro.core.partitioning.protocol import ExchangeRequest

    response = agent1.serve_request(ExchangeRequest(0, 1, [], 0))
    assert not response.accepted
    assert response.rejection_reason == "cooldown"


def test_cooldown_rejection_builds_no_view(monkeypatch):
    """A request the cooldown rejects costs the responder no view: the
    rejection is decided before ``build_view`` (on the real runtime a
    view is a millisecond of event-loop stall), and the same agent builds
    exactly one once the cooldown has passed."""
    rt = make_cluster(servers=2)
    agent = PartitionAgent(rt, rt.silos[1], fast_config(cooldown=5.0))
    views = []
    build_view = PartitionAgent.build_view
    monkeypatch.setattr(PartitionAgent, "build_view",
                        lambda self: views.append(self) or build_view(self))
    from repro.core.partitioning.protocol import ExchangeRequest

    request = ExchangeRequest(0, 1, [], 0)
    agent.last_exchange_time = 0.0
    rt.sim.schedule(1.0, lambda: None)
    rt.run()
    response = agent.serve_request(request)
    assert (response.accepted, response.rejection_reason) == (False, "cooldown")
    assert views == []
    rt.sim.schedule(5.0, lambda: None)
    rt.run()
    assert agent.serve_request(request).accepted
    assert views == [agent]


def test_exchange_counters_track_activity():
    rt = make_cluster(servers=2, seed=4)
    pairs = []
    for i in range(6):
        chatter, partner = rt.ref("chatter", i), rt.ref("partner", i)
        rt.activate(chatter.id, 0)
        rt.activate(partner.id, 1)
        pairs.append((chatter, partner))
    actop = ActOp(rt, ActOpConfig(partitioning=fast_config()))
    drive_pairs(rt, pairs, period=0.1, until=10.0)
    actop.start()
    rt.run(until=10.0)
    initiated = sum(a.exchanges_initiated for a in actop.agents)
    accepted = sum(a.exchanges_accepted for a in actop.agents)
    assert initiated > 0
    assert accepted > 0


class Tally(Actor):
    """A partner whose ack count is durable and whose scratch is not."""

    PERSISTED = ("acks",)

    def __init__(self):
        super().__init__()
        self.acks = 0
        self.scratch = 0

    def ack(self):
        self.acks += 1
        self.scratch += 1
        return self.acks


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_partitioning_converges_on_the_asyncio_runtime(transport):
    """Alg. 1 inside the real runtime: actors that talk in fixed pairs
    start wherever random placement put them (about two pairs in three
    split across silos) and the agents — folding the silos' CommTables,
    exchanging over the control hop, migrating through the core — pull
    the pairs together while requests keep flowing over real sockets."""
    cluster = build_cluster(
        ClusterConfig(num_servers=3, seed=5), backend="asyncio",
        transport=transport,
        actop=ActOpConfig(partitioning=fast_config(
            round_period=0.05, stats_period=0.025, cooldown=0.02,
            warmup=0.1)))
    with cluster:
        rt = cluster.runtime
        rt.register_actor("chatter", Chatter)
        rt.register_actor("partner", Tally)
        cluster.start()
        pairs = [(rt.ref("chatter", i), rt.ref("partner", i))
                 for i in range(12)]
        outcomes, rounds = [], 0

        def window(seconds):
            """Poke every pair each 5 ms for ``seconds``; the window's
            remote message fraction."""
            nonlocal rounds
            local0, remote0 = rt.msgs_local, rt.msgs_remote
            until = rt.sim.now + seconds
            while rt.sim.now < until:
                rounds += 1
                for chatter, partner in pairs:
                    rt.client_request(
                        chatter, "poke", partner,
                        on_complete=lambda _lat, res: outcomes.append(res))
                cluster.run(until=rt.sim.now + 0.005)
            remote = rt.msgs_remote - remote0
            return remote / (remote + rt.msgs_local - local0)

        start = window(0.1)  # agents are still warming up
        assert start > 0.4 and rt.migrations_total == 0
        for _ in range(40):  # at most ~8 s of wall time
            if window(0.2) < start / 2:
                break
        else:
            pytest.fail(f"remote fraction never fell below {start / 2:.2f}")
        assert rt.migrations_total > 0
        assert rt.run_until_idle()
        # Every request completed exactly once, with the pair's own count.
        assert len(outcomes) == rt.requests_completed == 12 * rounds
        assert rt.requests_timed_out == 0 and rt.late_responses == 0
        assert sorted(outcomes) == sorted(list(range(1, rounds + 1)) * 12)
        # Durable state followed every migrated partner; scratch did not.
        migrated = 0
        for _chatter, partner in pairs:
            location = rt.locate(partner.id)
            state = (rt.storage[partner.id] if location is None else vars(
                rt.silos[location].activations[partner.id].instance))
            assert state["acks"] == rounds
            migrated += state.get("scratch", 0) < rounds
        assert migrated > 0
