"""The sanitizer's payload probe on a real send path.

The actor program below carries one deliberate payload-aliasing hazard
and one unpicklable payload.  The test drives it on the asyncio
backend's deep-copy inproc transport with the probe armed and demands
both are recorded, attributed to the sending class and method, and fail
the sanitizer report.  (The static payload rules this file used to
cross-check were retired in PR 22; DESIGN.md has the replay table.)
"""

from repro import ClusterConfig, build_cluster
from repro.actor.actor import Actor
from repro.actor.calls import Tell
from repro.actor.ids import ActorRef
from repro.analysis.sanitizer import Sanitizer

SEED = 7


class SinkActor(Actor):
    def __init__(self):
        super().__init__()
        self.taken = 0

    def take(self, payload):
        self.taken += 1
        return self.taken


class AliasingActor(Actor):
    """Sends its own mutable list: shared inproc, copied over TCP."""

    def __init__(self):
        super().__init__()
        self.members = []

    def grow(self, who):
        self.members.append(who)

    def share(self):
        yield Tell(ActorRef("sink", 0), "take", self.members)


class LeakyActor(Actor):
    """Sends a generator: crosses inproc by reference, never TCP."""

    def ship(self):
        yield Tell(ActorRef("sink", 0), "take", (x for x in range(3)))


def _drive_program() -> tuple[Sanitizer, int]:
    """Run the hazard program on inproc-copy with the probe armed."""
    san = Sanitizer()
    with san.armed():
        cluster = build_cluster(ClusterConfig(num_servers=2, seed=SEED),
                                backend="asyncio", transport="inproc-copy")
        with cluster:
            be = cluster.backend
            be.register_actor("sink", SinkActor)
            be.register_actor("alias", AliasingActor)
            be.register_actor("leaky", LeakyActor)
            cluster.start()
            be.spawn(be.ref("sink", 0), server=1)
            be.spawn(be.ref("alias", 0), server=0)
            be.spawn(be.ref("leaky", 0), server=0)
            be.client_request(be.ref("alias", 0), "grow", "p1")
            be.client_request(be.ref("alias", 0), "share")
            be.client_request(be.ref("leaky", 0), "ship")
            cluster.run()
            failures = cluster.runtime.pickle_copy_failures
    return san, failures


def test_probe_records_both_hazard_kinds():
    san, failures = _drive_program()
    kinds = {(e.kind, e.sender, e.method) for e in san.payload_events}
    assert ("alias", "AliasingActor", "share") in kinds
    assert ("unpicklable", "LeakyActor", "ship") in kinds
    # The generator payload cannot cross the deep-copy boundary — the
    # transport drops it exactly as TCP would.
    assert failures >= 1
    # A payload hazard fails the report: `repro lint --sanitize` is the
    # only gate left that sees one.
    report = san.report()
    assert report["conflicts"] == [] and report["ok"] is False
