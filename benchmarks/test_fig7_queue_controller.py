"""Fig. 7: queue-length-based thread control oscillates.

Paper setup (§5.1): a 6-stage SEDA emulator; every 30 s, any stage with a
queue longer than Th=100 gains a thread and any below Tl=10 loses one.
Paper findings: queue lengths of the bottleneck stages grow until the
threshold trips, then thread allocations and queues "flip" — persistent
fluctuation in both (Figs. 7a/7b) — because queue length responds to
capacity through the violently non-linear rho/(1-rho).

We build the same emulator, run the same controller, and quantify the
oscillation (direction flips in per-stage thread counts, queue-length
swings).  As the counterpoint, the same pipeline under ActOp's
model-based controller converges and stays put.
"""

from repro.core.threads.controller import ModelBasedController, QueueLengthController
from repro.seda.emulator import SedaEmulator, StageProfile
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.bench.reporting import render_table

# Six stages with heterogeneous demands; total CPU demand ~6.4 of 8
# cores, so capacity is tight and thread placement matters.
PROFILES = [
    StageProfile("s1", compute=0.0020, threads=2),
    StageProfile("s2", compute=0.0035, threads=2),
    StageProfile("s3", compute=0.0015, threads=2),
    StageProfile("s4", compute=0.0040, threads=2),
    StageProfile("s5", compute=0.0010, threads=2),
    StageProfile("s6", compute=0.0025, threads=2),
]
ARRIVAL_RATE = 440.0
CONTROL_PERIOD = 30.0
HORIZON = 450.0


def direction_flips(values):
    """Count sign changes in the first difference of a series."""
    deltas = [b - a for a, b in zip(values, values[1:]) if b != a]
    flips = sum(
        1 for a, b in zip(deltas, deltas[1:]) if (a > 0) != (b > 0)
    )
    return flips


def run_queue_controller():
    sim = Simulator()
    emu = SedaEmulator(sim, PROFILES, ARRIVAL_RATE,
                       rng=RngRegistry(17))
    ctrl = QueueLengthController(sim, emu.server, period=CONTROL_PERIOD,
                                 high_threshold=100, low_threshold=10)
    emu.start()
    ctrl.start()
    sim.run(until=HORIZON)
    return ctrl, emu


def run_model_controller():
    sim = Simulator()
    emu = SedaEmulator(sim, PROFILES, ARRIVAL_RATE,
                       rng=RngRegistry(17))
    ctrl = ModelBasedController(sim, emu.server, eta=1e-3,
                                period=CONTROL_PERIOD, min_events=10)
    emu.start()
    ctrl.start()
    sim.run(until=HORIZON)
    return ctrl, emu


def test_fig7_queue_length_controller_oscillates(benchmark, show):
    (q_ctrl, q_emu), (m_ctrl, m_emu) = benchmark.pedantic(
        lambda: (run_queue_controller(), run_model_controller()),
        rounds=1, iterations=1,
    )

    rows = []
    total_q_flips = total_m_flips = 0
    for profile in PROFILES:
        name = profile.name
        q_threads = q_ctrl.thread_history[name].values
        m_threads = m_ctrl.thread_history[name].values
        q_queues = q_ctrl.queue_history[name].values
        qf, mf = direction_flips(q_threads), direction_flips(m_threads)
        total_q_flips += qf
        total_m_flips += mf
        rows.append([
            name, f"{min(q_threads)}-{max(q_threads)}", qf,
            int(max(q_queues)),
            f"{min(m_threads)}-{max(m_threads)}", mf,
        ])
    show(render_table(
        ["stage", "queue-ctrl threads", "flips", "max queue",
         "model-ctrl threads", "flips"],
        rows,
        title="Fig. 7 — queue-length controller vs ActOp model-based "
              f"({HORIZON:.0f}s, control period {CONTROL_PERIOD:.0f}s)",
    ))
    show(f"\n  total thread-allocation direction flips: "
         f"queue-based={total_q_flips}, model-based={total_m_flips}")
    show(f"  mean request latency: queue-based={q_emu.latency.mean*1000:.1f} ms, "
         f"model-based={m_emu.latency.mean*1000:.1f} ms")
    benchmark.extra_info.update(
        queue_flips=total_q_flips, model_flips=total_m_flips,
    )

    # Paper's qualitative findings:
    # 1. the queue-length controller keeps fluctuating,
    assert total_q_flips >= 6
    # 2. queues repeatedly grow to the threshold region,
    assert any(
        max(q_ctrl.queue_history[p.name].values) > 100 for p in PROFILES
    )
    # 3. the model-based controller is (near-)stable once converged,
    assert total_m_flips <= total_q_flips / 3
    # 4. and serves the same load with lower latency.
    assert m_emu.latency.mean < q_emu.latency.mean
