"""The event engine against its slab-for-every-event reference
(``reference_engine.py``).

Both engines run the same random script: handle-free ``defer`` and
cancellable ``schedule`` / ``at`` / ``call_soon`` at tied and distinct
instants, cancellation before and after an event fires, timer storms that
compact the queues (from the top level and from inside a callback, in
the middle of a drain), ``run(until)`` horizons that stop in front of a
queued event, and single ``step`` calls.  Callbacks schedule and cancel
more work.  The engines must agree on the fire order and instant, and
after every top-level operation on ``now``, ``events_processed``,
``pending()`` and ``queue_size()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

from . import reference_engine as ref

DELAYS = (0.0, 0.0, 0.1, 0.25, 0.25, 1.0)
HORIZONS = (0.0, 0.1, 0.3, 1.0, None)
FAR = 1e6     # timer-storm entries: scheduled far out, then cancelled

_hops = st.integers(0, 3)
_ops = st.one_of(
    st.tuples(st.sampled_from(["defer", "schedule", "at", "call_soon"]),
              st.sampled_from(DELAYS), _hops),
    st.tuples(st.just("cancel"), st.integers(0, 63), st.just(0)),
    st.tuples(st.just("storm"), st.integers(60, 140), st.just(0)),
    st.tuples(st.just("run"), st.sampled_from(HORIZONS), st.just(0)),
    st.tuples(st.just("step"), st.just(0), st.just(0)),
)


def play(ops, sim_cls):
    """Run ``ops`` on a fresh ``sim_cls``; return what it observed."""
    sim = sim_cls()
    fired = []
    handles = []
    labels = iter(range(1_000_000))

    def add(kind, delay, hops):
        label = next(labels)
        if kind == "defer":
            sim.defer(delay, fire, label, hops)
        elif kind == "schedule":
            handles.append(sim.schedule(delay, fire, label, hops))
        elif kind == "at":
            handles.append(sim.at(sim.now + delay, fire, label, hops))
        else:
            handles.append(sim.call_soon(fire, label, hops))

    def storm(n):
        timers = [sim.schedule(FAR + i, fire, next(labels), 0) for i in range(n)]
        for timer in timers:
            timer.cancel()

    def fire(label, hops):
        fired.append((label, sim.now))
        if hops:
            # Follow-ups from inside the drain: one of each kind, then a
            # cancel that may hit a fired, pending or cancelled handle.
            add("defer", DELAYS[hops], hops - 1)
            add("schedule", DELAYS[hops + 1], hops - 1)
            add("call_soon", 0.0, 0)
            handles[(label * 7) % len(handles)].cancel()
            if hops == 3:
                storm(70)

    observed = []
    for kind, arg, hops in ops:
        if kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif kind == "storm":
            storm(arg)
        elif kind == "run":
            sim.run(until=None if arg is None else sim.now + arg)
        elif kind == "step":
            sim.step()
        else:
            add(kind, arg, hops)
        observed.append((sim.now, sim.events_processed, sim.pending(),
                         sim.queue_size()))
    sim.run()
    observed.append((sim.now, sim.events_processed, sim.pending(),
                     sim.queue_size()))
    return fired, observed


@given(st.lists(_ops, max_size=40))
@settings(max_examples=300, deadline=None)
def test_engine_matches_the_slab_for_every_event_reference(ops):
    assert play(ops, Simulator) == play(ops, ref.Simulator)


def test_the_script_space_reaches_every_path():
    """A fixed script that compacts at the top level and mid-drain, stops
    a horizon in front of a queued event, and cancels fired handles."""
    ops = [("defer", 0.25, 3), ("schedule", 0.1, 2), ("at", 0.0, 1),
           ("call_soon", 0.0, 0), ("storm", 100, 0), ("run", 0.1, 0),
           ("cancel", 0, 0), ("step", 0, 0), ("defer", 1.0, 0),
           ("cancel", 5, 0), ("run", 0.3, 0), ("run", None, 0)]
    got = play(ops, Simulator)
    assert got == play(ops, ref.Simulator)
    fired, observed = got
    assert len(fired) > 10 and observed[-1][2] == 0
