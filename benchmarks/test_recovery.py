"""Recovery time: silo crash + restart under the full resilience stack.

The §2 contract, measured: when a silo dies, its actors re-activate on
the survivors at their next call (no request hangs — callers see bounded
timeouts and the retry layer re-dispatches); when it returns, the
placement flow re-populates it.  The recovery criterion mirrors the
``repro faults`` CLI: the cluster's remote-message fraction — its
locality fingerprint — must re-converge to within 10% of the pre-fault
value once the fault clears.

Runs the Halo cluster with the §4 partitioning optimizer on, so the
bench also shows ActOp re-colocating the displaced actors after the
topology heals.
"""

from repro.bench.harness import HaloExperiment
from repro.bench.reporting import render_table
from repro.faults import FaultPlan, ResilienceConfig, RetryPolicy

VICTIM = 3
WARMUP = 40.0          # includes the partitioner's own warmup
PRE_WINDOW = 20.0      # [40, 60)
T_KILL = 65.0
T_RESTART = 80.0
SETTLE_UNTIL = 100.0   # fault phase [60, 100)
POST_WINDOW = 20.0     # [100, 120)


def _run():
    exp = HaloExperiment(
        load_fraction=0.7,
        players=1_000,
        partitioning=True,
        seed=1,
        resilience=ResilienceConfig(
            call_timeout=0.5,
            retry=RetryPolicy(max_attempts=3)),
        faults=FaultPlan().crash(T_KILL, VICTIM).restart(T_RESTART, VICTIM),
        label="recovery",
    )
    rt = exp.runtime
    pre = exp.measure_window(WARMUP, WARMUP + PRE_WINDOW)

    # Probe the cluster mid-outage without splitting the fault window
    # (a split would swallow the failover burst between the windows).
    probe = {}

    def snapshot_mid_outage():
        probe["census"] = dict(rt.census())
        probe["dead"] = rt.silos[VICTIM].dead

    rt.sim.schedule(T_KILL + 5.0 - rt.sim.now, snapshot_mid_outage)
    fault = exp.measure_window(WARMUP + PRE_WINDOW, SETTLE_UNTIL)
    post = exp.measure_window(SETTLE_UNTIL, SETTLE_UNTIL + POST_WINDOW)
    return exp, pre, fault, post, probe["census"], probe["dead"]


def test_cluster_recovers_from_silo_crash(benchmark, show):
    exp, pre, fault, post, mid_census, victim_dead = benchmark.pedantic(
        _run, rounds=1, iterations=1)
    rt = exp.runtime

    rows = [[name, w.requests, 1e3 * w.p99, 100 * w.remote_fraction,
             w.timed_out, w.retries, w.failovers]
            for name, w in (("pre-fault", pre), ("fault", fault),
                            ("post-recovery", post))]
    show(render_table(
        ["window", "requests", "p99 ms", "remote %", "timeouts",
         "retries", "failovers"],
        rows,
        title=f"recovery — silo {VICTIM} killed at t={T_KILL:.0f}s, "
              f"restarted at t={T_RESTART:.0f}s (ActOp partitioning on)",
        floatfmt=".2f",
    ))

    # While dead, the victim hosts nothing and is marked dead.
    assert victim_dead
    assert mid_census[VICTIM] == 0
    # The displaced actors failed over (re-placed on the survivors) and
    # traffic kept flowing through the outage.
    assert fault.failovers > 0
    assert fault.requests > 0
    # No request hangs: whatever is still in flight at the end is
    # bounded by one timeout's worth of traffic, not a leak.
    assert rt.inflight_requests < 500
    # After restart + settle, the locality fingerprint re-converges
    # (10% relative, with the same 0.02 absolute floor the `repro
    # faults` CLI applies for near-zero baselines — ActOp pushes the
    # pre-fault remote fraction under 5%, where pure-relative tolerance
    # would be sub-noise).
    drift = abs(post.remote_fraction - pre.remote_fraction)
    assert drift <= max(0.10 * pre.remote_fraction, 0.02), (pre, post)
    # And the revived silo is hosting actors again.
    assert not rt.silos[VICTIM].dead
    assert rt.census()[VICTIM] > 0

    show(f"\n  remote fraction: pre {pre.remote_fraction:.3f} -> "
         f"post {post.remote_fraction:.3f} (drift {drift:.3f}); "
         f"victim re-hosts {rt.census()[VICTIM]} actors")
    benchmark.extra_info.update(
        pre_remote=round(pre.remote_fraction, 4),
        post_remote=round(post.remote_fraction, 4),
        failovers=fault.failovers,
        timeouts=fault.timed_out,
        retries=fault.retries,
    )
