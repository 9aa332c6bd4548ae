"""The Fig.-9 accounting identity, checked event by event.

The paper's measurement model decomposes one event's wall-clock
processing time as z = r + x + w (ready + compute + blocking wait).  The
whole §5.4 estimation story rests on this identity; here we assert it on
every event of a contended, blocking, oversubscribed pipeline.
"""

import pytest

from repro.seda.server import StagedServer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def test_z_equals_r_plus_x_plus_w_for_every_event():
    sim = Simulator()
    server = StagedServer(sim, processors=2, switch_factor=0.1,
                          dispatch_overhead=1e-5)
    traced = []
    stage = server.add_stage("io", threads=6, blocking=True)
    rng = RngRegistry(3).stream("t")
    def submit(compute, wait):
        stage.submit(compute, traced.append, wait=wait)

    for _ in range(300):
        compute = rng.uniform(0.0005, 0.003)
        wait = rng.choice([0.0, rng.uniform(0.001, 0.01)])
        sim.schedule(rng.uniform(0.0, 0.5), submit, compute, wait)
    sim.run()
    assert len(traced) == 300
    for event in traced:
        assert event.wallclock == pytest.approx(
            event.ready_time + event.cpu_time + event.wait, abs=1e-12
        )
        # components are individually sane
        assert event.ready_time >= 0
        assert event.cpu_time >= event.compute  # inflation only adds
        assert event.queue_wait >= 0


def test_oversubscription_shows_up_as_ready_time_and_inflation():
    def run(threads):
        sim = Simulator()
        server = StagedServer(sim, processors=2, switch_factor=0.1,
                              dispatch_overhead=0.0)
        events = []
        stage = server.add_stage("s", threads=threads)
        for _ in range(40):
            stage.submit(0.01, events.append)
        sim.run()
        mean_r = sum(e.ready_time for e in events) / len(events)
        mean_x = sum(e.cpu_time for e in events) / len(events)
        return mean_r, mean_x

    r_lean, x_lean = run(threads=2)      # matched to cores
    r_fat, x_fat = run(threads=12)       # oversubscribed
    assert x_fat > x_lean                # switch inflation
    assert r_fat > r_lean                # run-queue wait appears
