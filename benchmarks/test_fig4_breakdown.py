"""Fig. 4: average latency breakdown of one request on a single server.

Paper setup: counter app, 15K req/s on 8K actors, default Orleans thread
allocation (a thread per stage per core).  Paper finding: queuing delay
dominates — receive queue 32.9%, worker queue 24.2%, sender queue 31.3%,
while per-stage processing is <0.3% each, network 0.92%, other 10.1%.

We reproduce the counter pipeline (receiver -> worker -> client sender)
and report the same eight components.  One mapping note: the paper's
"other" bucket absorbs OS queuing; ours absorbs CPU run-queue (ready)
time, which is the simulated analogue.
"""

from conftest import show  # noqa: F401  (fixture re-export)

from repro.bench.harness import COUNTER_TIME_SCALE, CounterExperiment
from repro.bench.reporting import render_table

PAPER = {
    "recv queue": 32.87,
    "recv processing": 0.19,
    "worker queue": 24.19,
    "worker processing": 0.29,
    "sender queue": 31.25,
    "sender processing": 0.16,
    "network": 0.92,
    "other": 10.13,
}


# The paper's 15K req/s sits just below their server's saturation point;
# our calibrated saturation point for the counter pipeline is ~19.8K, so
# we measure at 19.6K — the same *operating point* (queues dominating,
# system still stable), not the same absolute rate.
SATURATION_POINT_RATE = 19_600.0


def run_breakdown():
    exp = CounterExperiment(request_rate=SATURATION_POINT_RATE)
    rt = exp.runtime
    server = rt.silos[0].server
    exp.workload.start()
    rt.run(until=10.0)
    rt.reset_latency_stats()
    start = server.snapshot()
    rt.run(until=30.0)
    windows = server.windows_since(start)
    mean_e2e = rt.client_latency.mean

    ts = COUNTER_TIME_SCALE
    net = 2 * rt.network.base_latency  # one hop in, one hop out

    def stage_parts(name):
        w = windows[name]
        return w.mean_queue_wait, w.mean_x, w.mean_ready

    rq, rx, rr = stage_parts("receiver")
    wq, wx, wr = stage_parts("worker")
    sq, sx, sr = stage_parts("client_sender")
    components = {
        "recv queue": rq,
        "recv processing": rx,
        "worker queue": wq,
        "worker processing": wx,
        "sender queue": sq,
        "sender processing": sx,
        "network": net,
    }
    accounted = sum(components.values())
    components["other"] = max(0.0, mean_e2e - accounted)
    percents = {k: 100 * v / mean_e2e for k, v in components.items()}
    return percents, mean_e2e / ts


def test_fig4_latency_breakdown(benchmark, show):
    percents, mean_e2e = benchmark.pedantic(run_breakdown, rounds=1,
                                            iterations=1)
    rows = [[name, PAPER[name], percents[name]] for name in PAPER]
    show(render_table(
        ["component", "paper % of e2e", "ours % of e2e"],
        rows,
        title=f"Fig. 4 — latency breakdown (our mean e2e = {mean_e2e*1e3:.2f} ms)",
    ))
    benchmark.extra_info["percents"] = {k: round(v, 2) for k, v in percents.items()}

    queue_share = (percents["recv queue"] + percents["worker queue"]
                   + percents["sender queue"])
    processing_share = (percents["recv processing"]
                        + percents["worker processing"]
                        + percents["sender processing"])
    # The paper's qualitative findings:
    assert queue_share > 50.0, "queuing delay must dominate end-to-end latency"
    assert processing_share < queue_share / 3
    assert percents["network"] < 25.0
