"""Integration tests: Orleans-style idle-activation collection.

Each case takes the backend as an argument: it runs on the simulator
under its own name (one time unit = one simulated second) and, through
``test_idle_collection_case_on_the_asyncio_runtime``, on the real
runtime (one unit = 20 ms of wall time) — the collector, its period and
``last_active`` are the core's.
"""

from contextlib import contextmanager

import pytest

from repro.actor.actor import Actor
from repro.actor.runtime import ClusterConfig
from repro.cluster import build_cluster

UNIT = {"sim": 1.0, "asyncio": 0.02}


class Blip(Actor):
    def __init__(self):
        super().__init__()
        self.hits = 0

    def hit(self):
        self.hits += 1
        return self.hits


@contextmanager
def running(backend, age, period=1.0, servers=2):
    """``(rt, run_until)``: times in units of ``UNIT[backend]``."""
    unit = UNIT[backend]
    cluster = build_cluster(ClusterConfig(
        num_servers=servers, seed=0,
        idle_collection_age=None if age is None else age * unit,
        idle_collection_period=period * unit,
    ), backend=backend)
    rt = cluster.runtime
    rt.register_actor("blip", Blip)
    with cluster:
        cluster.start()
        t0 = rt.sim.now
        yield rt, lambda t: cluster.run(until=t0 + t * unit)


def test_idle_actor_collected_after_age(backend="sim"):
    with running(backend, age=2.0) as (rt, run_until):
        ref = rt.ref("blip", 1)
        rt.client_request(ref, "hit")
        run_until(1.0)
        assert rt.locate(ref.id) is not None
        run_until(5.0)  # idle beyond age -> collected at a GC tick
        assert rt.locate(ref.id) is None


def test_active_actor_survives_collection(backend="sim"):
    with running(backend, age=2.0) as (rt, run_until):
        ref = rt.ref("blip", 1)

        def keep_hitting(n):
            if n == 0:
                return
            rt.client_request(ref, "hit")
            rt.sim.schedule(UNIT[backend], keep_hitting, n - 1)

        keep_hitting(8)
        run_until(8.5)
        assert rt.locate(ref.id) is not None


def test_collected_actor_state_survives_reactivation(backend="sim"):
    with running(backend, age=1.0) as (rt, run_until):
        ref = rt.ref("blip", 7)
        rt.client_request(ref, "hit")
        run_until(4.0)
        assert rt.locate(ref.id) is None  # collected
        results = []
        rt.client_request(ref, "hit",
                          on_complete=lambda lat, res: results.append(res))
        run_until(8.0)
        assert results == [2]  # state restored from storage


def test_collection_disabled_by_default(backend="sim"):
    with running(backend, age=None, servers=1) as (rt, run_until):
        ref = rt.ref("blip", 1)
        rt.client_request(ref, "hit")
        rt.sim.schedule(5.0 * UNIT[backend], lambda: None)
        run_until(6.0)
        assert rt.locate(ref.id) is not None


def test_collect_idle_returns_count(backend="sim"):
    # GC effectively off: the test sweeps by hand.
    with running(backend, age=1000.0, period=1000.0) as (rt, run_until):
        for i in range(5):
            rt.client_request(rt.ref("blip", i), "hit")
        run_until(2.0)
        silo_counts = [silo.collect_idle(max_age=0.5 * UNIT[backend])
                       for silo in rt.silos]
        assert sum(silo_counts) == 5
        run_until(3.0)
        assert len(rt.directory) == 0


@pytest.mark.parametrize("case", [
    test_idle_actor_collected_after_age,
    test_active_actor_survives_collection,
    test_collected_actor_state_survives_reactivation,
    test_collection_disabled_by_default,
    test_collect_idle_returns_count,
], ids=lambda case: case.__name__.removeprefix("test_"))
def test_idle_collection_case_on_the_asyncio_runtime(case):
    case("asyncio")


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_idle_collection_period_must_be_positive_and_finite(backend):
    """A zero period would reschedule the sweep at the same instant
    forever: simulated time never advances, and asyncio busy-spins."""
    for period in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="idle_collection_period"):
            build_cluster(ClusterConfig(idle_collection_age=1.0,
                                        idle_collection_period=period),
                          backend=backend)
    # With collection off the period is never read.
    build_cluster(ClusterConfig(idle_collection_period=0.0),
                  backend=backend).shutdown()
