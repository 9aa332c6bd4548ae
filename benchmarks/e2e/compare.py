#!/usr/bin/env python3
"""Compare two sets of end-to-end runs: ``compare.py A B``.

``A`` and ``B`` are records written by ``run.py`` (suite form), or
directories of such records (one per run, for the A/B procedure in
README.md: ten alternating parent/change pairs).  One row per workload x
end-to-end metric: both medians, their quartiles, the change, the bound
from ``BENCHMARK.json``, and a verdict:

* ``better`` / ``worse`` — B's median is beyond the bound on that side;
* ``same``               — within the bound;
* ``unresolved``         — the inter-quartile spread of either side is
  wider than the bound, so the data cannot tell.

With one record a side the quartiles are over that run's repeats; with
several they are over the runs' values.  Client latency on a simulator
workload is simulated time: on equal seeds it must repeat exactly, so
its bound is 0 and any change is a behaviour change.  Exits 1 if any row
is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        with open(file) as fh:
            doc = json.load(fh)
        if doc.get("kind") == "end_to_end":
            docs.append(doc)
    if not docs:
        sys.exit(f"compare.py: no end-to-end run records at {path}")
    return docs


def sample(docs: list[dict], workload: str, metric: str) -> list[float]:
    """The values a median and quartiles are taken over."""
    runs = [d["workloads"][workload] for d in docs
            if d["workloads"].get(workload, {}).get("metrics")]
    if len(runs) == 1:
        per_repeat = runs[0]["detail"].get("samples", {}).get(metric)
        return per_repeat or [runs[0]["metrics"][metric]["value"]]
    return [r["metrics"][metric]["value"] for r in runs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse_by = (bm - am) / abs(am) if am else 0.0   # signed share of A's median
    if better == "higher":
        worse_by = -worse_by
    if bound == 0.0:
        return ("same" if bm == am else "worse" if worse_by > 0 else "better"), worse_by
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return ("better" if worse_by < -bound else "same"), worse_by


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent: a run record or a directory of them")
    parser.add_argument("b", type=Path, help="change: likewise")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    a_docs, b_docs = load(args.a), load(args.b)
    if not all(d.get("comparable", True) for d in a_docs + b_docs):
        print("compare.py: warning: smoke-sized records are not comparable")
    same_seed = {d["seed"] for d in a_docs} == {d["seed"] for d in b_docs}

    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        kind = next((d["workloads"][workload]["detail"]["kind"] for d in a_docs
                     if d["workloads"].get(workload, {}).get("metrics")), None)
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a, b = sample(a_docs, workload, name), sample(b_docs, workload, name)
            if not a or not b:
                continue
            exact = kind == "sim" and name.startswith("lat_") and same_seed
            bound = 0.0 if exact else metric["bound"]
            word, worse_by = verdict(a, b, metric["better"], bound)
            wins = (sum((y < x) if metric["better"] == "lower" else (y > x)
                        for x, y in zip(a, b))
                    if len(a_docs) > 1 and len(a) == len(b) else None)
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "a": quartiles(a), "b": quartiles(b), "worse_by": worse_by,
                         "bound": bound, "verdict": word, "b_wins": wins, "pairs": len(a)})

    print(f"{'workload':<22}{'metric':<13}{'A median [q1, q3]':>38}"
          f"{'B median [q1, q3]':>38}{'worse by':>10}{'bound':>8}  verdict")
    for r in rows:
        cells = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in (r["a"], r["b"])]
        wins = "" if r["b_wins"] is None else f"  (B wins {r['b_wins']}/{r['pairs']})"
        print(f"{r['workload']:<22}{r['metric']:<13}{cells[0]:>38}{cells[1]:>38}"
              f"{r['worse_by'] * 100:>9.2f}%{r['bound'] * 100:>7.0f}%  {r['verdict']}{wins}")
    counts = {w: sum(r["verdict"] == w for r in rows)
              for w in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{n} {w}" for w, n in counts.items()))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
