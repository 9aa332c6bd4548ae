"""Graceful degradation: admission control under a load ramp.

The resilience claim: with bounded admission, a server pushed past
saturation keeps serving *admitted* requests at pre-overload latency and
sheds the excess explicitly; without it, the receiver queue grows
without bound and every request's latency diverges.

We drive the single-server counter workload at 70% of the calibrated
15K req/s saturation point, then ramp to 160% mid-run (the workload
re-reads its rate per arrival, so the ramp is instantaneous), and
compare served-request p99 before vs during overload.

A note on policy: ``drop_oldest`` used to livelock here — every admitted
request was evicted by newer arrivals before it could finish, so a
persistent ramp drove goodput to zero while the server stayed busy.  It
now sheds from the oldest *non-in-flight* entry (a request parked in
retry backoff); with every slot dispatched it degenerates to rejecting
the newcomer, so in-flight work always completes and sustained overload
makes progress.  Both policies are driven through the ramp below and
must hold served-request p99 while shedding the excess.
"""

from repro.bench.harness import CounterExperiment
from repro.bench.reporting import render_table
from repro.faults import AdmissionConfig, ResilienceConfig

PRE_RATE = 10_500.0     # 0.7 x saturation
OVERLOAD_RATE = 24_000.0  # 1.6 x saturation
WARMUP = 15.0
PRE_WINDOW = 15.0
OVERLOAD_WINDOW = 25.0
CAPACITY = 32


def _run(admission, label="shedding"):
    exp = CounterExperiment(
        request_rate=PRE_RATE,
        resilience=(ResilienceConfig(admission=admission)
                    if admission is not None else None),
        seed=7,
        label=label if admission is not None else "baseline",
    )
    pre = exp.measure_window(WARMUP, WARMUP + PRE_WINDOW)
    exp.workload.config.request_rate = OVERLOAD_RATE / exp.time_scale
    over = exp.measure_window(WARMUP + PRE_WINDOW,
                              WARMUP + PRE_WINDOW + OVERLOAD_WINDOW)
    return pre, over


def test_shedding_holds_p99_through_overload(benchmark, show):
    def experiment():
        return {
            "baseline": _run(None),
            "reject": _run(AdmissionConfig(capacity=CAPACITY,
                                           policy="reject"),
                           label="reject"),
            "drop_oldest": _run(AdmissionConfig(capacity=CAPACITY,
                                                policy="drop_oldest"),
                                label="drop_oldest"),
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for label, (pre, over) in results.items():
        rows.append([f"{label} pre-ramp", 1e3 * pre.p99, pre.requests,
                     pre.shed])
        rows.append([f"{label} overload", 1e3 * over.p99, over.requests,
                     over.shed])
    show(render_table(
        ["window", "p99 ms", "served", "shed"],
        rows,
        title=f"overload shedding — counter ramp {PRE_RATE:.0f} -> "
              f"{OVERLOAD_RATE:.0f} req/s, admission cap {CAPACITY}",
        floatfmt=".2f",
    ))

    base_pre, base_over = results["baseline"]
    shed_pre, shed_over = results["reject"]
    drop_pre, drop_over = results["drop_oldest"]
    # Without admission control, overload diverges (queueing delay grows
    # with the backlog for the entire window).
    assert base_over.p99 > 10 * base_pre.p99
    # With it, the served-request p99 stays within 2x of pre-ramp...
    assert shed_over.p99 <= 2 * shed_pre.p99
    # ...while the excess is shed explicitly and goodput holds near the
    # service capacity (the baseline "serves" more only by answering
    # seconds late).
    assert shed_over.shed > 0
    assert shed_over.requests > 0.9 * base_over.requests
    # drop_oldest no longer livelocks: in-flight work is never evicted,
    # so under the sustained ramp it serves like reject does instead of
    # abandoning every admitted request.
    assert drop_over.p99 <= 2 * drop_pre.p99
    assert drop_over.shed > 0
    assert drop_over.requests > 0.9 * shed_over.requests
    benchmark.extra_info.update(
        base_pre_p99=round(1e3 * base_pre.p99, 3),
        base_over_p99=round(1e3 * base_over.p99, 3),
        shed_pre_p99=round(1e3 * shed_pre.p99, 3),
        shed_over_p99=round(1e3 * shed_over.p99, 3),
        drop_pre_p99=round(1e3 * drop_pre.p99, 3),
        drop_over_p99=round(1e3 * drop_over.p99, 3),
        shed=shed_over.shed,
        drop_shed=drop_over.shed,
    )
