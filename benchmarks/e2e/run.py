#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Two forms:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` names.
* ``run.py [--seed N] [--only NAME ...] [--smoke] [--trace 0|1]`` runs the
  workloads one at a time, each in its own fresh subprocess (clean peak
  RSS, ``PYTHONHASHSEED=0``), prints every metric by name with its unit,
  writes the full record to ``out/``, and exits non-zero if any
  correctness check failed.

Metric names, units and bounds are read from ``BENCHMARK.json``; nothing
about them is repeated here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DETAIL = "DETAIL "   # prefix of the full-record line a child prints before its result
MIN_REPEATS = {"sim": 3, "aio": 5}


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, smoke: bool):
    """Fresh-cluster repeats until both the workload's minimum count and
    ``seconds`` of measuring (set-up + run) are reached."""
    repeats, loads, spent = [], [], 0.0
    minimum = 2 if smoke else MIN_REPEATS[workload.kind]
    while len(repeats) < minimum or spent < seconds:
        loads.append(_loadavg())
        gc.collect()
        t0 = time.perf_counter()
        repeats.append(workload.run(seed, smoke))
        spent += time.perf_counter() - t0
    return repeats, loads


def check(workload, repeats) -> list[str]:
    from workloads import exact_diff

    first = repeats[0]
    problems = list(workload.check(first))
    for i, rep in enumerate(repeats):
        if rep.failed or rep.completed != rep.attempted:
            problems.append(f"repeat {i}: completed {rep.completed} of {rep.attempted}, "
                            f"{rep.failed} failed")
        if not rep.latencies_ms:
            problems.append(f"repeat {i}: no latency samples")
        if rep.exact != first.exact:
            problems.append(f"repeat {i} differs from repeat 0 on the same seed: "
                            f"{exact_diff(first, rep)}")
    return problems


IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from refclock import RefClock
ref = RefClock()
ref.tick()
t0 = time.perf_counter()
import workloads
wall = time.perf_counter() - t0
ref.tick()
print(wall / ref.slowdown())
"""


def import_ref_seconds(times: int = 3) -> list[float]:
    """Reference seconds a fresh interpreter takes to import the program
    (and the workload definitions), measured ``times`` times — an import
    can only be timed once per process, and set-up is to be a median."""
    code = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    env = dict(os.environ, PYTHONHASHSEED="0")
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 stdout=subprocess.PIPE, text=True, timeout=120).stdout)
            for _ in range(times)]


def reduce_end_to_end(repeats, import_ref_s: float) -> tuple[dict, dict]:
    """Metric values plus the per-repeat samples behind them.  Host times
    are in reference seconds (refclock.py) and are medians over repeats;
    set-up includes importing the program (``import_ref_s``), which users
    pay on every run too (and which keeps it from being a millisecond-sized
    number, where a relative bound would mean nothing).  Asyncio latency percentiles are
    taken over the samples pooled across repeats; simulated ones repeat
    exactly."""
    from repro.bench.metrics import percentile
    from workloads import rss_bytes

    samples = {
        "setup_s": [import_ref_s + r.setup_ref_s for r in repeats],
        "req_per_s": [r.completed / r.run_ref_s for r in repeats],
        "lat_p50_ms": [r.percentile(50.0) for r in repeats],
        "lat_p95_ms": [r.percentile(95.0) for r in repeats],
    }
    pooled = sorted(v for r in repeats for v in r.latencies_ms)
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "req_per_s": statistics.median(samples["req_per_s"]),
        "peak_rss_mb": rss_bytes() / 2**20,
        "lat_p50_ms": percentile(pooled, 50.0),
        "lat_p95_ms": percentile(pooled, 95.0),
    }
    return values, samples


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Simulated results do not depend on str hashes (checked), but the
        # collision pattern of every attribute dict does, and with it the
        # speed of a run.  Pin it: same pid, fresh interpreter.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS   # imports the program

    manifest = load_manifest()
    workload = WORKLOADS[name]
    problems: list[str] = []
    detail = {
        "workload": name, "kind": workload.kind, "seed": seed, "smoke": smoke,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    if trace:
        from tracer import trace_workload

        spec = manifest["per_layer"]
        detail["loadavg"] = [_loadavg()]
        values, repeats = trace_workload(
            workload, seed, smoke, [m["name"] for m in spec], problems)
    else:
        spec = manifest["end_to_end"]
        repeats, detail["loadavg"] = measure(workload, seed, seconds, smoke)
        problems += check(workload, repeats)
        detail["import_ref_s"] = import_ref_seconds(1 if smoke else 3)
        values, detail["samples"] = reduce_end_to_end(
            repeats, statistics.median(detail["import_ref_s"]))
        detail["counters"] = {k: statistics.median(r.counters[k] for r in repeats)
                              for k in repeats[0].counters}
        detail["exact"] = repeats[0].exact
        detail["repeats"] = [
            {"setup_wall_s": r.setup_s, "setup_ref_s": r.setup_ref_s,
             "run_wall_s": r.run_s, "run_ref_s": r.run_ref_s, "run_cpu_s": r.cpu_s,
             "completed": r.completed, "attempted": r.attempted, "failed": r.failed}
            for r in repeats]
    if max(detail["loadavg"]) > 0.5 * (os.cpu_count() or 1):
        detail["load_warning"] = True
        print(f"run.py: warning: loadavg {max(detail['loadavg'])} on "
              f"{os.cpu_count()} cpus; host-time metrics will be noisy", file=sys.stderr)
    for problem in problems:
        print(f"run.py: {name}: INCORRECT: {problem}", file=sys.stderr)
    detail["problems"] = problems

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in repeats),
        "failed": sum(r.failed for r in repeats),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    print(DETAIL + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All workloads, one fresh subprocess each
# ----------------------------------------------------------------------
def _render(workloads: dict, spec: list[dict]) -> str:
    names = list(workloads)
    width = max(len(m["name"]) + len(m["unit"]) + 3 for m in spec)
    lines = [" " * width + "".join(f"{n[-18:]:>20}" for n in names)]
    for m in spec:
        cells = []
        for n in names:
            cells.append(f"{workloads[n]['metrics'][m['name']]['value']:>20.6g}")
        lines.append(f"{m['name'] + ' [' + m['unit'] + ']':<{width}}" + "".join(cells))
    return "\n".join(lines)


def run_suite(names: list[str], seed: int, seconds: float, trace: bool, smoke: bool,
              out: Path) -> int:
    manifest = load_manifest()
    spec = manifest["per_layer" if trace else "end_to_end"]
    doc = {
        "schema": 1, "kind": "trace" if trace else "end_to_end", "seed": seed,
        "seconds": seconds, "smoke": smoke,
        "comparable": not smoke,   # smoke sizes check schema + correctness only
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "workloads": {},
    }
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if smoke:
            cmd.append("--smoke")
        print(f"run.py: {name} ...", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith(DETAIL):
            print(f"run.py: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            doc["workloads"][name] = {"correct": False, "metrics": {}}
            continue
        doc["workloads"][name] = {**json.loads(lines[-1]),
                                  "detail": json.loads(lines[-2][len(DETAIL):])}
    failed = [n for n, w in doc["workloads"].items() if not w["correct"]]
    measured = {n: w for n, w in doc["workloads"].items() if w["metrics"]}
    print(_render(measured, spec))
    if smoke:
        print("smoke sizes: numbers are NOT comparable with full runs")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out}" + (f"; INCORRECT: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="keep repeating until this much time was measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 sizes, schema + correctness only, not comparable")
    parser.add_argument("--only", action="append", choices=names, metavar="WORKLOAD",
                        help="suite form: run just this workload (repeatable)")
    parser.add_argument("--out", type=Path, help="suite form: where to write the record")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    kind = "trace" if args.trace else "run"
    out = args.out or OUT / f"{kind}_seed{args.seed}{'_smoke' if args.smoke else ''}.json"
    return run_suite(args.only or names, args.seed, seconds, bool(args.trace),
                     args.smoke, out)


if __name__ == "__main__":
    sys.exit(main())
