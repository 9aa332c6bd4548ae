"""§3 motivation: remote messaging dominates under random placement.

Paper numbers (10 servers, 100K players, 6K req/s, 80% CPU):

* ~90% of actor-to-actor messages are remote under random placement;
* each client request fans out into 18 actor-to-actor messages;
* co-locating communicating actors cuts median/p95/p99 from
  41/450/736 ms to 24/100/225 ms.
"""

from conftest import halo_result

from repro.bench.reporting import render_table


def test_motivation_remote_messaging_and_colocation_benefit(benchmark, show):
    def experiment():
        baseline = halo_result(load_fraction=1.0, partitioning=False)
        colocated = halo_result(load_fraction=1.0, partitioning=True)
        return baseline, colocated

    baseline, colocated = benchmark.pedantic(experiment, rounds=1, iterations=1)

    show(render_table(
        ["configuration", "remote msg %", "median ms", "p95 ms", "p99 ms"],
        [
            ["paper: random placement", 90.0, 41.0, 450.0, 736.0],
            ["ours:  random placement", 100 * baseline.remote_fraction,
             baseline.median * 1e3, baseline.p95 * 1e3, baseline.p99 * 1e3],
            ["paper: co-located", "-", 24.0, 100.0, 225.0],
            ["ours:  co-located (ActOp)", 100 * colocated.remote_fraction,
             colocated.median * 1e3, colocated.p95 * 1e3, colocated.p99 * 1e3],
        ],
        title="§3 motivation — locality matters",
    ))

    benchmark.extra_info["baseline"] = baseline.summary_ms()
    benchmark.extra_info["colocated"] = colocated.summary_ms()

    # Shape assertions (paper: ~90% remote; co-location wins everywhere).
    assert baseline.remote_fraction > 0.80
    assert colocated.remote_fraction < 0.30
    assert colocated.median < baseline.median
    assert colocated.p99 < baseline.p99


def test_motivation_fanout_arithmetic(benchmark, show):
    """Each status request to an in-game player triggers 18 actor
    messages: 1+1 player<->game plus 8+8 broadcast round trips."""
    from repro.actor.runtime import ActorRuntime, ClusterConfig
    from repro.workloads.halo import HaloConfig, HaloWorkload

    def experiment():
        rt = ActorRuntime(ClusterConfig(num_servers=10, seed=5))
        w = HaloWorkload(rt, HaloConfig(
            target_players=160, pool_target=16, request_rate=40.0,
            game_duration=(30.0, 40.0),
        ))
        w.start()
        rt.run(until=3.0)
        w.stop()
        rt.run(until=6.0)
        base = rt.msgs_local + rt.msgs_remote
        playing = w.in_game.index(1)
        rt.client_request(rt.ref(w.PLAYER, playing), "request_status", 0)
        rt.run(until=9.0)
        return (rt.msgs_local + rt.msgs_remote) - base

    messages = benchmark.pedantic(experiment, rounds=1, iterations=1)
    show(f"\n§3 fan-out: one client request -> {messages} actor-to-actor "
         "messages (paper: 18)")
    assert messages == 18
