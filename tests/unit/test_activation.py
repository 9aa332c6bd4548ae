"""Unit tests for activation work-queue and reentrancy semantics, and
the guard that keeps the two drivers from growing their own copy of the
runtime core again."""

from repro.actor.activation import Activation
from repro.actor.actor import Actor
from repro.actor.ids import ActorId


class ReentrantActor(Actor):
    REENTRANT = True


class SerialActor(Actor):
    REENTRANT = False


def make_activation(cls=ReentrantActor):
    return Activation(ActorId("a", 1), cls())


def start_item():
    return (None, object(), False, 256)  # a new turn for a request


def resume_item():
    return (object(), "value", False, None)  # resume of a parked turn


def enqueue(act, *items):
    """Queue work as the core does: the first item makes the list."""
    for item in items:
        if act.queue is None:
            act.queue = []
        act.queue.append(item)


def test_fifo_when_reentrant():
    act = make_activation()
    a, b = start_item(), resume_item()
    enqueue(act, a, b)
    assert act.next_eligible() is a
    act.segment_running = True  # the silo sets this while a executes
    assert act.next_eligible() is None
    act.segment_running = False
    assert act.next_eligible() is b


def test_next_eligible_none_while_segment_running():
    act = make_activation()
    enqueue(act, start_item())
    act.segment_running = True
    assert act.next_eligible() is None


def test_nonreentrant_blocks_new_starts_while_turn_open():
    act = make_activation(SerialActor)
    act.open_turns = 1
    blocked_start = start_item()
    resume = resume_item()
    enqueue(act, blocked_start, resume)
    # The resume overtakes the blocked start.
    assert act.next_eligible() is resume
    act.segment_running = False
    assert act.next_eligible() is None  # start still blocked
    act.open_turns = 0
    act.segment_running = False
    assert act.next_eligible() is blocked_start


def test_nonreentrant_allows_start_when_idle():
    act = make_activation(SerialActor)
    item = start_item()
    enqueue(act, item)
    assert act.next_eligible() is item


def test_an_activation_holds_no_queue_until_its_first_message():
    from repro.actor.runtime import ActorRuntime, ClusterConfig

    class Echo(Actor):
        def echo(self, x):
            return x

    rt = ActorRuntime(ClusterConfig(num_servers=2, seed=1))
    rt.register_actor("echo", Echo)
    ref = rt.ref("echo", 0)
    silo = rt.silos[rt.spawn(ref)]
    activation = silo.activations[ref]
    assert activation.queue is None and activation.quiescent
    results = []
    rt.client_request(ref, "echo", 7,
                      on_complete=lambda lat, res: results.append(res))
    rt.run(until=1.0)
    assert results == [7]
    # The list made by the first enqueue stays, drained, for later turns.
    assert activation.queue == [] and activation.quiescent
    queue = activation.queue
    rt.client_request(ref, "echo", 8)
    rt.run(until=2.0)
    assert activation.queue is queue
    silo.fail()
    assert activation.queue is None


def test_comm_table_accumulates_and_drains():
    from repro.actor.commtable import CommTable

    table = CommTable()
    src, peer = ActorId("a", 1), ActorId("b", 2)
    table.record(src, peer)
    table.record(src, peer, 2.5)
    table.record(peer, src, 1.0)
    assert table.weight(src, peer) == 3.5
    assert table.weight(peer, src) == 1.0
    assert len(table) == 2
    drained = dict(table.drain())
    assert drained == {(src, peer): 3.5, (peer, src): 1.0}
    assert len(table) == 0
    assert table.weight(src, peer) == 0.0


def test_comm_table_iterates_in_insertion_order():
    from repro.actor.commtable import CommTable

    table = CommTable()
    ids = [ActorId("t", i) for i in range(6)]
    table.record(ids[4], ids[1])
    table.record(ids[0], ids[5])
    table.record(ids[4], ids[1], 2.0)  # in-place, keeps original position
    table.record(ids[2], ids[3])
    assert [pair for pair, _ in table.items()] == [
        (ids[4], ids[1]), (ids[0], ids[5]), (ids[2], ids[3]),
    ]


def test_comm_table_merge_is_exact_and_order_deterministic():
    from repro.actor.commtable import CommTable

    ids = [ActorId("m", i) for i in range(4)]
    a, b = CommTable(), CommTable()
    a.record(ids[0], ids[1], 2.0)
    a.record(ids[2], ids[3], 1.0)
    b.record(ids[2], ids[3], 0.5)      # overlaps an edge of a
    b.record(ids[1], ids[0], 4.0)      # new edge, appended after a's
    a.merge(b)
    assert a.weight(ids[0], ids[1]) == 2.0
    assert a.weight(ids[2], ids[3]) == 1.5
    assert a.weight(ids[1], ids[0]) == 4.0
    assert [pair for pair, _ in a.items()] == [
        (ids[0], ids[1]), (ids[2], ids[3]), (ids[1], ids[0]),
    ]
    # other is left untouched — the barrier re-merges silos every window
    assert len(b) == 2
    assert b.weight(ids[1], ids[0]) == 4.0


def _halo_slice(partitioning):
    from repro.actor.runtime import ClusterConfig
    from repro.cluster import build_cluster
    from repro.core.actop import ActOpConfig
    from repro.core.partitioning.coordinator import PartitioningConfig
    from repro.workloads.halo import HaloConfig, HaloWorkload

    actop = ActOpConfig(partitioning=PartitioningConfig(
        round_period=0.5, stats_period=0.25)) if partitioning else None
    cluster = build_cluster(ClusterConfig(num_servers=3, seed=4), actop=actop)
    rt = cluster.runtime
    tables = [silo.comm_table for silo in rt.silos]  # as built, before traffic
    workload = HaloWorkload(rt, HaloConfig(
        target_players=96, pool_target=16, request_rate=60.0,
        game_duration=(10.0, 15.0)))
    workload.start()
    cluster.start()
    rt.run(until=1.5)
    assert rt.msgs_local + rt.msgs_remote > 0
    return cluster, tables


def test_comm_table_exists_only_where_a_partition_agent_reads_it(monkeypatch):
    from repro.workloads import halo
    monkeypatch.setattr(halo, "MATCHMAKING_PERIOD", 0.5)
    cluster, tables = _halo_slice(partitioning=False)
    assert tables == [None] * 3
    assert all(silo.comm_table is None for silo in cluster.runtime.silos)

    cluster, tables = _halo_slice(partitioning=True)
    assert all(table is not None for table in tables)
    # Still the tables the agents installed, the ones their folds drain.
    silos = cluster.runtime.silos
    assert all(silo.comm_table is table for silo, table in zip(silos, tables))
    assert [agent.silo for agent in cluster.actop.agents] == silos


def test_quiescence_conditions():
    act = make_activation()
    assert act.quiescent
    enqueue(act, start_item())
    assert not act.quiescent
    act.queue.clear()
    act.segment_running = True
    assert not act.quiescent
    act.segment_running = False
    act.open_turns = 1
    assert not act.quiescent
    act.open_turns = 0
    act.pending_calls = 1
    assert not act.quiescent
    act.pending_calls = 0
    assert act.quiescent


def test_drivers_do_not_reimplement_the_core():
    """One implementation per concept: a driver may define the hooks the
    core declares and its own machinery, never a name the core owns."""
    from repro.actor.core import ClusterCore, SiloCore
    from repro.actor.runtime import ActorRuntime
    from repro.actor.server import Silo
    from repro.backend.asyncio_backend import AsyncioBackend, AsyncioSilo

    silo_hooks = {"_pump", "_send_remote", "_reply_to_client",
                  "_on_down", "_on_up", "_driver_idle",
                  "load", "stages"}
    cluster_hooks = {"name", "_ingress", "send_control", "run", "start",
                     "shutdown"}
    for core, hooks, drivers, must_own in [
        (SiloCore, silo_hooks, (Silo, AsyncioSilo),
         {"_route", "_resolve_or_place", "_dispatch_request",
          "_enqueue_invocation", "_segment_done", "_start_turn",
          "_advance_turn", "_crash_turn", "_resolve_call", "_complete_turn",
          "_handle_response", "_call_timed_out", "host", "migrate",
          "deactivate", "collect_idle", "_maybe_finalize_deactivation",
          "fail", "restart", "idle"}),
        (ClusterCore, cluster_hooks, (ActorRuntime, AsyncioBackend),
         {"register_actor", "ref", "spawn", "send", "activate",
          "locate", "deactivate", "census", "pick_live_server",
          "fail_silo", "restart_silo",
          "client_request", "complete_client_request",
          "_client_request_timed_out", "inflight_requests"}),
    ]:
        owned = {name for name in vars(core)
                 if not name.startswith("__")} - hooks
        assert must_own <= owned
        for driver in drivers:
            assert issubclass(driver, core)
            assert not owned & set(vars(driver)), (
                driver.__name__, sorted(owned & set(vars(driver))))
            # ...and every hook the core only declares is filled in.
            optional = {"_on_down", "_on_up", "stages",
                        "start", "shutdown"}
            assert hooks - optional <= set(vars(driver)), driver.__name__
