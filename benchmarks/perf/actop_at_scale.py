"""ActOp partitioning at 100k actors: host time on vs off, slice by slice.

Runs the end-to-end benchmark's ``halo_scale_100k`` population — built
by that benchmark's own ``_halo`` (10 silos, the paper's absolute 4K
req/s, direct bootstrap, lazy idle pool) — twice, each in a fresh
interpreter: once without an optimizer and once with the calibrated
partitioning protocol on from sim t = 1 s.  For every slice of simulated
time it prints the host seconds the slice took, the remote-message share
inside the slice and the migrations so far, then the on/off ratio of the
total host time.

The script records; it does not gate on timing.  It exits non-zero only
if a request failed or was lost (issued but neither completed nor still
in flight at the end).

    python3 benchmarks/perf/actop_at_scale.py --json actop-100k.json
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "benchmarks" / "e2e"))

from repro.bench.harness import halo_partitioning_config  # noqa: E402
from repro.bench.scale import PAPER_REQUEST_RATE  # noqa: E402
from repro.core.actop import ActOpConfig  # noqa: E402
from workloads import _halo  # noqa: E402

ACTORS = 100_000
SEED = 1
HORIZON = 20.0     # simulated seconds
SLICE = 2.0        # simulated seconds per printed slice
SERVERS = 10       # what _halo builds
ACTOP_FROM = 1.0   # sim s: the partitioning warmup, as in halo_actop


def run(actop: bool) -> dict:
    config = None
    if actop:
        config = ActOpConfig(partitioning=dataclasses.replace(
            halo_partitioning_config(), warmup=ACTOP_FROM))
    cluster, workload = _halo(SEED, ACTORS, PAPER_REQUEST_RATE, actop=config,
                              direct_bootstrap=True, lazy_idle_pool=True)
    rt = cluster.runtime
    issued = [0]
    client_request = rt.client_request

    def counted(*args, **kwargs):
        issued[0] += 1
        return client_request(*args, **kwargs)

    rt.client_request = counted   # every client request the workload sends
    t0 = time.perf_counter()
    workload.start()
    cluster.start()
    setup_s = time.perf_counter() - t0
    gc.collect()

    slices = []
    steps = round(HORIZON / SLICE)
    for k in range(1, steps + 1):
        until = HORIZON * k / steps
        local0, remote0 = rt.msgs_local, rt.msgs_remote
        t1 = time.perf_counter()
        rt.run(until=until)
        host_s = time.perf_counter() - t1
        msgs = (rt.msgs_local - local0) + (rt.msgs_remote - remote0)
        slices.append({
            "until_sim_s": until,
            "host_s": round(host_s, 3),
            "remote_share": (rt.msgs_remote - remote0) / msgs if msgs else 0.0,
            "migrations": rt.migrations_total,
        })
        print(f"  actop={'on ' if actop else 'off'} t={until:5.1f}  "
              f"host {host_s:6.2f} s  remote {slices[-1]['remote_share']:.3f}  "
              f"migrations {rt.migrations_total}", file=sys.stderr, flush=True)

    failed = rt.requests_timed_out + rt.rejected_requests + rt.requests_shed
    lost = issued[0] - rt.requests_completed - failed - rt.inflight_requests
    return {
        "actop": actop,
        "setup_s": round(setup_s, 3),
        "run_s": round(sum(s["host_s"] for s in slices), 3),
        "slices": slices,
        "requests_issued": issued[0],
        "requests_completed": rt.requests_completed,
        "failed": failed,
        "lost": lost,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", help="write the measurement here")
    ap.add_argument("--one", choices=("off", "on"),
                    help="run one mode in this process and print its JSON")
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run(args.one == "on")))
        return 0

    # One interpreter per mode: the second run in a process would pay for
    # the first one's heap (interned ids, fragmentation, GC generations).
    runs = []
    for mode in ("off", "on"):
        runs.append(json.loads(subprocess.run(
            [sys.executable, __file__, "--one", mode],
            check=True, stdout=subprocess.PIPE, text=True).stdout))
    off, on = runs
    doc = {
        "actors": ACTORS,
        "servers": SERVERS,
        "horizon_sim_s": HORIZON,
        "seed": SEED,
        "actop_from_sim_s": ACTOP_FROM,
        "runs": runs,
        "on_off_ratio": round(on["run_s"] / off["run_s"], 3) if off["run_s"] else None,
    }
    print(f"host time: off {off['run_s']:.2f} s, on {on['run_s']:.2f} s, "
          f"ratio {doc['on_off_ratio']}; migrations {on['slices'][-1]['migrations']}",
          file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    bad = [r for r in runs if r["failed"] or r["lost"]]
    for r in bad:
        print(f"actop={r['actop']}: {r['failed']} failed, {r['lost']} lost requests",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
