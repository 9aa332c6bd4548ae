"""The stage event as the CPU pool's work item, against the burst-per-item
reference (``reference_stage.py``).

Both pairs run the same random script on their own simulator: stages
over one shared pool, submissions at tied and distinct instants, blocking
waits, thread counts growing and shrinking mid-run, throttle changes,
bare pool bursts sharing the run queue, and completions that submit more
work from inside their callbacks.  They must agree on the completion
sequence, every stage's counters and the pool's accounting, bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seda.stage import Stage
from repro.sim.cpu import CpuPool
from repro.sim.engine import Simulator

from . import reference_stage as ref

TIMES = (0.0, 0.0, 0.05, 0.1, 0.1, 0.3, 1.0)
COMPUTES = (0.0, 0.01, 0.05, 0.05, 0.1, 0.4)
WAITS = (0.0, 0.0, 0.02, 0.2)


@st.composite
def scripts(draw):
    pool = dict(
        processors=draw(st.integers(1, 4)),
        switch_factor=draw(st.sampled_from([0.0, 0.05, 0.3])),
        dispatch_overhead=draw(st.sampled_from([0.0, 2e-6, 1e-3])),
    )
    stages = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                           min_size=1, max_size=3))
    op = st.tuples(
        st.sampled_from(TIMES),
        st.sampled_from(["submit", "submit", "submit", "burst", "threads",
                         "throttle"]),
        st.integers(0, len(stages) - 1),
        st.sampled_from(COMPUTES),
        st.sampled_from(WAITS),
        st.integers(0, 3),          # hops: follow-ups submitted on completion
        st.integers(1, 5),          # a new thread count
        st.sampled_from([1.0, 1.5, 0.5]),
    )
    return pool, stages, draw(st.lists(op, max_size=40))


def play(script, pool_cls, stage_cls):
    """Run ``script`` on one stage/pool pair; return what it observed."""
    pool_args, stage_specs, ops = script
    sim = Simulator()
    cpu = pool_cls(sim, **pool_args)
    stages = [stage_cls(sim, cpu, f"s{i}", threads=threads, blocking=blocking)
              for i, (threads, blocking) in enumerate(stage_specs)]
    done = []
    ids = iter(range(1_000_000))

    def submit(index, compute, wait, hops):
        stage = stages[index]
        stage.submit(compute, finished, next(ids), index, compute, hops,
                     wait=wait if stage.blocking else 0.0)

    def finished(event, item, index, compute, hops):
        done.append((sim.now, f"s{index}", item, event.queue_wait,
                     event.ready_time, event.cpu_time, event.wallclock))
        if hops:   # more work, submitted from inside the completion
            submit((index + 1) % len(stages), compute / 2, event.wait, hops - 1)
            if hops > 1:
                submit(index, 0.0, 0.0, 0)

    def burst_done(burst, item):
        done.append((sim.now, "cpu", item, burst.ready_time))

    def apply(kind, index, compute, wait, hops, threads, throttle):
        if kind == "submit":
            submit(index, compute, wait, hops)
        elif kind == "burst":
            cpu.submit(compute, burst_done, next(ids))
        elif kind == "threads":
            stages[index].set_threads(threads)
        else:
            cpu.throttle = throttle

    for time, *op in ops:
        sim.schedule(time, apply, *op)
    sim.run()
    return (done, [stage.stats.snapshot() for stage in stages],
            [(stage.threads, stage.busy_threads, stage.queue_length)
             for stage in stages],
            cpu.busy_time, cpu.bursts_completed, cpu.cores_busy,
            cpu.run_queue_length, sim.now, sim.events_processed)


@given(scripts())
@settings(max_examples=300, deadline=None)
def test_stage_event_on_the_pool_matches_the_burst_per_item_reference(script):
    want = play(script, ref.CpuPool, ref.Stage)
    got = play(script, CpuPool, Stage)
    assert got == want


def test_the_script_space_reaches_every_path():
    """A fixed script that queues on both the stage and the pool, blocks,
    shrinks and regrows a stage, and chains follow-ups."""
    script = (
        dict(processors=1, switch_factor=0.05, dispatch_overhead=2e-6),
        [(1, True), (2, False)],
        [(0.0, "submit", 0, 0.1, 0.2, 2, 1, 1.0),
         (0.0, "submit", 1, 0.05, 0.0, 1, 1, 1.0),
         (0.0, "submit", 1, 0.05, 0.0, 0, 1, 1.0),
         (0.0, "burst", 0, 0.01, 0.0, 0, 1, 1.0),
         (0.05, "threads", 1, 0.0, 0.0, 0, 1, 1.0),
         (0.1, "throttle", 0, 0.0, 0.0, 0, 1, 1.5),
         (0.1, "submit", 0, 0.4, 0.02, 1, 1, 1.0),
         (0.3, "threads", 0, 0.0, 0.0, 0, 3, 1.0)],
    )
    want = play(script, ref.CpuPool, ref.Stage)
    got = play(script, CpuPool, Stage)
    assert got == want
    done, snapshots = got[0], got[1]
    assert len(done) == 10 and snapshots[0][:2] == (5, 5)
    assert snapshots[0][6] > 0                                  # blocking wait
    items = [row for row in done if row[1] != "cpu"]
    assert any(row[3] > 0 for row in items)                     # stage queue
    assert any(row[4] > 0 for row in items)                     # ready time
    assert any(row[1] == "cpu" and row[3] > 0 for row in done)  # queued burst
