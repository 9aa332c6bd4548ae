"""Cross-PR digest pins for seeded Halo traces.

``test_determinism`` proves a seeded run reproduces *within* one tree;
these tests pin the digests to hard-coded values captured before the
paper-scale memory work (interned ActorIds, silo-level comm tables,
list-backed activation queues, state-discard deactivation) so the
traces are provably bit-identical *across* the refactor — and stay that
way.  If an intentional semantic change ever moves one of these values,
re-capture it in the same commit and say why in the message.

The digest is the sha256 over ``repr(sim.now)`` at every processed
event: any reordering, insertion, or removal of events changes it.

Every pin also runs under a salted ``ActorId`` hash.  The salt
reshuffles every hash-ordered container of actor ids, so a pin that
held unsalted and moves salted proves some result depends on set or
dict-of-set iteration order (or on a ``hash()``-keyed sort).  The same
holds across interpreters: tier-1 runs each process under a random
``PYTHONHASHSEED``, which reshuffles every ``str``-keyed set.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.actor import ids
from repro.analysis import Sanitizer
from repro.bench.harness import HaloExperiment, HeartbeatExperiment, halo_cluster
from repro.bench.scale import PAPER_REQUEST_RATE
from repro.obs import Observability
from repro.obs.events import ExchangeEvent, MigrationEvent, ThreadAllocationEvent

# Captured at PR 6 from the pre-change tree (and verified unchanged
# after it): players/servers/seed/horizon as in each test below.
MINI_DIGEST = "d4149165647d66d97d3b04ca45d70e0ff5fd89fe8fe82fbf3488e5b4d33dcc20"
MINI_EVENTS = 2974
PART_DIGEST = "e903b85b681992fe1fcf237b2970686efef25dec69afb7736e61be0b68506de9"
PART_EVENTS = 22213
# Captured at dcbed33 (PR 20's parent), before the partition round was
# made O(sampled edges): every exchange and migration decision of the
# slice below, in emission order.
DECISION_DIGEST = "46117e438913c3b1b539fce8b4a6ab4fe9a9cdc726b19d4105c1f1631251e97a"
DECISION_COUNTS = (47, 28, 242)  # exchange attempts, accepted, migrations
# Captured at 38de17e, before the fold stopped rescanning the summary:
# the same slice with edge_capacity=64 (9,709 evictions).
FULL_DECISION_DIGEST = "c7c795888674f589e4b15bf0c520dcd20197b8feaaab10c0b88ac556e34f8f2b"
FULL_DECISION_COUNTS = (57, 30, 202)
TENK_DIGEST = "c06142004a1217b126360d4b98860649fd6bf51ed1bd1eaad59fda06f2d75dd1"
TENK_EVENTS = 57634
# Captured at 573d127, before the thread controller took its window and
# its S0 from the stages: every §5 decision of the two slices below.
HEARTBEAT_THREAD_DIGEST = "451cf9b838e8188458fe2eb816713909564b7e550950b8cb8390cc03d7ba9020"
HEARTBEAT_THREAD_EVENTS = 5
HALO_THREAD_DIGEST = "0244d4d1f0e15622d470df5012046152be03d0c929bdbc189d39d8c376bc5792"
HALO_THREAD_EVENTS = 16
# Captured at 60199d1 from bench.scale.run_scale_point's construction
# (and e2e's halo_scale_100k builder): the paper-scale switches.
SCALE_SWITCH_DIGEST = "f8ddd12d3ffeaf837c88231d6ea0e237953e6581c580e45c045d255167515409"
SCALE_SWITCH_EVENTS = 13907


def _digest(sim, horizon):
    digest = hashlib.sha256()
    while sim.now < horizon and sim.step():
        digest.update(repr(sim.now).encode())
    return digest.hexdigest(), sim.events_processed


def _trace(players, servers, seed, horizon, partitioning=False):
    exp = HaloExperiment(players=players, num_servers=servers, seed=seed,
                         partitioning=partitioning)
    exp.workload.start()
    if partitioning:
        exp.cluster.start()
    return _digest(exp.runtime.sim, horizon)


def test_mini_cluster_digest_pinned():
    digest, events = _trace(players=80, servers=3, seed=5, horizon=4.0)
    assert (digest, events) == (MINI_DIGEST, MINI_EVENTS)


def test_partitioning_on_digest_pinned():
    """The partitioning path (Space-Saving folds, exchanges, migrations)
    is digest-pinned too: the comm-table fold and the offer() heap-churn
    fix both had to preserve victim selection bit for bit."""
    digest, events = _trace(players=300, servers=4, seed=3, horizon=8.0,
                            partitioning=True)
    assert (digest, events) == (PART_DIGEST, PART_EVENTS)


def _sanitized(exp):
    san = Sanitizer()
    san.arm(cluster=exp.cluster)
    return san.disarm


def _observed(exp):
    return Observability(exp.runtime).detach


@pytest.mark.parametrize("instrument", [_sanitized, _observed],
                         ids=["sanitizer", "obs_event_log"])
def test_instrumented_paths_reproduce_the_pins(instrument):
    """The mini and partitioning-on pins, with the race sanitizer armed
    after the build or the ``repro.obs`` event log attached.  The silo,
    stage, engine and control plane keep an instrumented branch beside
    the plain one (the sanitizer's contexts, the event emits); both must
    produce the same events at the same instants."""
    for (players, servers, seed, horizon, partitioning), pin in (
            ((80, 3, 5, 4.0, False), (MINI_DIGEST, MINI_EVENTS)),
            ((300, 4, 3, 8.0, True), (PART_DIGEST, PART_EVENTS))):
        exp = HaloExperiment(players=players, num_servers=servers, seed=seed,
                             partitioning=partitioning)
        done = instrument(exp)
        try:
            exp.workload.start()
            if partitioning:
                exp.cluster.start()
            assert _digest(exp.runtime.sim, horizon) == pin
        finally:
            done()


# Python calls into src/repro over the mini pin's slice, in a fresh
# interpreter (earlier tests in one process warm first-use caches and
# move the count by a few calls): 33,352 at 345a445 (11.2 per event),
# before the stage completion absorbed the CPU pool's and the receiver
# stage called the silo's routing directly; 29,268 (9.8) after, on
# CPython 3.11.7 under any PYTHONHASHSEED.  60 of those are list
# comprehensions, which CPython 3.12 runs inline (PEP 709), so they are
# not counted: 29,208 on every interpreter whose calls are otherwise the
# same frames.  Pricing a turn from the cost tables inline and taking
# call ids from the counter's own __next__ removed 1,772 of them on
# 3.11.7 (27,436), so the bound fell by as many; one more frame per
# stage item reads ~29,600.  A reference that is its interned id removed
# 324 more: 126 ActorRef.__init__, 70 Actor._bind, and per self_ref()
# 64 ActorId.__new__ and 64 Actor.id.  The count is 27,112 on CPython
# 3.10.13, 3.11.7 and 3.12.1 alike (the script imports only repro, so
# it runs under an interpreter without pytest).  The test prints its
# count, and CI runs it with -s on 3.10, 3.11 and 3.12.
MINI_CALLS = 27_204

_FRAME_COUNT = """
import os, sys
import repro
from repro.bench.harness import HaloExperiment
exp = HaloExperiment(players=80, num_servers=3, seed=5)
exp.workload.start()
root = os.path.dirname(repro.__file__) + os.sep
inlined = {"<listcomp>", "<dictcomp>", "<setcomp>"}
calls = 0
def profile(frame, event, arg):
    global calls
    code = frame.f_code
    if (event == "call" and code.co_filename.startswith(root)
            and code.co_name not in inlined):
        calls += 1
sys.setprofile(profile)
exp.runtime.sim.run(until=4.0)
sys.setprofile(None)
print(exp.runtime.sim.events_processed, calls)
"""


def test_message_path_frame_budget():
    """The frames a message hop costs, as a count: every Python call into
    ``repro`` while the mini slice runs, under ``sys.setprofile``.  A
    count, not a timing, so it cannot flake on a loaded machine; one more
    frame per stage item (~2,100 on this slice) fails it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", _FRAME_COUNT],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    events, calls = map(int, proc.stdout.split())
    print(f"\nmini slice on Python {sys.version.split()[0]}: "
          f"events {events}, calls {calls} (bound {MINI_CALLS})")
    assert events == MINI_EVENTS
    assert calls <= MINI_CALLS, f"{calls} calls for {MINI_EVENTS} events"


# What hosting an actor costs before it handles a message: the bytes
# tracemalloc traces and the blocks sys.getallocatedblocks() counts
# while a 20k-player direct-bootstrap Halo installs its 22,050
# activations (ids, instances, activations, directory and silo entries,
# the workload's per-player arrays, game-end timers), per activation,
# in a fresh interpreter.  A reference wrapped around its id, a
# (type, key) tuple per intern entry, an empty work queue, a written-
# never-read Actor._server_id and a set entry per playing player read
# 763.8 B / 10.10 blocks on CPython 3.10.13, 714.7 / 9.10 on 3.11.7 and
# 706.7 / 9.10 on 3.12.1; without them 550.0 / 6.99, 492.9 / 5.99 and
# 484.9 / 5.99 (under any PYTHONHASHSEED).  The bounds are the largest
# of those, 3.10's, plus 7%: one more 56-byte object per actor, or one
# more block, fails them.  tracemalloc counts requested bytes, not the
# allocator's size classes.  The script imports only repro, so it runs
# under an interpreter without pytest; CI runs it with -s next to the
# frame budget.
ACTIVATION_BYTES = 590
ACTIVATION_BLOCKS = 7.5

_ACTIVATION_COST = """
import gc, sys, tracemalloc
from repro.bench.harness import halo_cluster
from repro.bench.scale import PAPER_REQUEST_RATE
cluster, workload = halo_cluster(20_000, PAPER_REQUEST_RATE, seed=1,
                                 direct_bootstrap=True)
gc.collect()
tracemalloc.start()
blocks = sys.getallocatedblocks()
workload.start()
traced = tracemalloc.get_traced_memory()[0]
blocks = sys.getallocatedblocks() - blocks
print(sum(len(silo.activations) for silo in cluster.runtime.silos),
      traced, blocks)
"""


def test_bytes_per_activation_budget():
    """The memory a hosted actor costs, as a count: traced bytes and
    allocated blocks per activation over a direct bootstrap.  Counts,
    not RSS, so page granularity and the allocator's arenas cannot move
    them."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", _ACTIVATION_COST],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    activations, traced, blocks = map(int, proc.stdout.split())
    per_bytes, per_blocks = traced / activations, blocks / activations
    print(f"\n20k-player bootstrap on Python {sys.version.split()[0]}: "
          f"{activations} activations, {per_bytes:.1f} B "
          f"(bound {ACTIVATION_BYTES}) and {per_blocks:.2f} blocks "
          f"(bound {ACTIVATION_BLOCKS}) each")
    assert activations == 22_050
    assert per_bytes <= ACTIVATION_BYTES
    assert per_blocks <= ACTIVATION_BLOCKS


def _partition_decisions(edge_capacity=None):
    """Every exchange and migration decision of the seeded 24 s slice
    (300 players, 4 silos, seed 3) as ``(digest, counts)``; with
    ``edge_capacity`` each silo's edge summary holds that many edges."""
    exp = HaloExperiment(players=300, num_servers=4, seed=3, partitioning=True)
    if edge_capacity is not None:
        for agent in exp.actop.agents:
            agent.edges = type(agent.edges)(edge_capacity)
    obs = Observability(exp.runtime)
    exp.workload.start()
    exp.cluster.start()
    exp.runtime.run(until=24.0)
    records = []
    for e in obs.events:
        if isinstance(e, ExchangeEvent):
            records.append(("exchange", e.time, e.initiator, e.target,
                            e.accepted, e.moves, e.sent, e.received,
                            repr(e.estimated_gain), e.reason))
        elif isinstance(e, MigrationEvent):
            records.append(("migration", e.time, e.actor, e.source,
                            e.destination))
    exchanges = [r for r in records if r[0] == "exchange"]
    counts = (len(exchanges), sum(r[4] for r in exchanges),
              len(records) - len(exchanges))
    digest = hashlib.sha256("".join(map(repr, records)).encode()).hexdigest()
    return digest, counts


def test_partitioning_decisions_pinned():
    """The seeded exchange and migration list is the oracle for Alg. 1.
    ``PART_DIGEST`` hashes event *times* and its 8 s slice ends before
    the 15 s partitioning warmup (folds only); this one hashes the
    *decisions* of a slice that runs past it, so a failure here means
    some exchange or migration changed, and the counts say which kind."""
    assert _partition_decisions() == (DECISION_DIGEST, DECISION_COUNTS)


def test_full_summary_decisions_pinned():
    """The same slice with 64-edge summaries.  The default capacity never
    fills at this size, so the pin above never evicts; here the summaries
    evict thousands of times, which pins Space-Saving's victim order,
    decay and the purge of departed sources through Alg. 1's decisions."""
    assert _partition_decisions(edge_capacity=64) == (
        FULL_DECISION_DIGEST, FULL_DECISION_COUNTS)


def _thread_decisions(exp, horizon):
    obs = Observability(exp.runtime)
    exp.start()
    exp.runtime.run(until=horizon)
    records = [(e.time, e.server, sorted(e.allocation.items()), e.alpha,
                e.feasible)
               for e in obs.events if isinstance(e, ThreadAllocationEvent)]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    return digest, len(records)


def test_thread_allocation_decisions_pinned():
    """The seeded §5 decision list — time, server, chosen allocation,
    estimated alpha, feasibility — on one silo alone and on a Halo
    cluster where partitioning moves the load under the controllers."""
    heartbeat = HeartbeatExperiment(request_rate=15_000.0, monitors=800,
                                    thread_allocation=True, seed=3)
    assert _thread_decisions(heartbeat, 20.0) == (
        HEARTBEAT_THREAD_DIGEST, HEARTBEAT_THREAD_EVENTS)
    halo = HaloExperiment(players=300, num_servers=4, seed=3,
                          partitioning=True, thread_allocation=True)
    assert _thread_decisions(halo, 24.0) == (
        HALO_THREAD_DIGEST, HALO_THREAD_EVENTS)


def test_10k_actor_digest_pinned():
    """The acceptance-criterion pin: a 10k-actor seeded slice on the
    paper's 10-silo layout, bit-identical to the pre-PR trace."""
    digest, events = _trace(players=10_000, servers=10, seed=1, horizon=2.0)
    assert (digest, events) == (TENK_DIGEST, TENK_EVENTS)


def test_scale_switches_digest_pinned():
    """The paper-scale path ``repro perf`` and the 100k benchmark row run:
    ``direct_bootstrap`` + ``lazy_idle_pool`` at the paper's absolute
    request rate, 10k actors on 10 silos."""
    cluster, workload = halo_cluster(
        10_000, PAPER_REQUEST_RATE, seed=1,
        direct_bootstrap=True, lazy_idle_pool=True)
    workload.start()
    cluster.start()
    assert _digest(cluster.runtime.sim, 2.0) == (
        SCALE_SWITCH_DIGEST, SCALE_SWITCH_EVENTS)


# Any non-zero salt reshuffles; this one is the golden-ratio constant.
ACTOR_ID_SALT = 0x9E3779B9


@pytest.fixture
def salted_actor_ids(request):
    ids.set_hash_salt(ACTOR_ID_SALT)
    request.addfinalizer(lambda: ids.set_hash_salt(0))


@pytest.mark.parametrize("pin", [
    test_mini_cluster_digest_pinned,
    test_partitioning_on_digest_pinned,
    test_partitioning_decisions_pinned,
    test_full_summary_decisions_pinned,
    test_thread_allocation_decisions_pinned,
    test_10k_actor_digest_pinned,
    test_scale_switches_digest_pinned,
], ids=["mini_cluster", "partitioning_on", "partitioning_decisions",
        "full_summary_decisions", "thread_allocation_decisions", "10k_actors",
        "scale_switches"])
def test_pin_holds_under_a_salted_actor_id_hash(pin, salted_actor_ids):
    """The seven pins above, unchanged, with every ``ActorId`` hashed
    under :data:`ACTOR_ID_SALT`: the partitioning and thread-allocation
    decision paths are iteration-order-free, not just the plain sim."""
    pin()
