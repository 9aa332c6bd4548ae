"""Peak-RSS scaling gate: memory regressions fail like latency ones.

Two modes:

* **CI artifact mode** — the ``scale-smoke`` workflow job runs
  ``repro perf --points 100000`` and exports the JSON path in
  ``ACTOP_SCALING_JSON``; this test then gates the already-measured
  points without re-running them.
* **Standalone mode** — no env var: measure a 10k-actor point, ActOp off
  and on, through :func:`repro.bench.scale.run_scaling_curve` (each run in
  a fresh subprocess, so the pytest process's own RSS peak does not
  pollute the measurement) and gate that.

The threshold (``RSS_PER_ACTOR_GATE_BYTES``, ≲4 KB per actor over the
interpreter baseline) lives in :mod:`repro.bench.scale`; it is what
makes the paper's 10^6-actor population fit ~4 GB on one machine.
"""

import json
import os

import pytest

from repro.bench import scale

SCALING_JSON = os.environ.get("ACTOP_SCALING_JSON")


@pytest.fixture(scope="module")
def points():
    if SCALING_JSON:
        with open(SCALING_JSON) as fh:
            doc = json.load(fh)
    else:
        doc = scale.run_scaling_curve([10_000], horizon=10)
    assert doc["kind"] == "scaling"
    assert doc["points"], "scaling artifact has no points"
    return doc["points"]


def test_scaling_points_pass_peak_rss_gate(points):
    failures = [v for p in points for mode in scale.MODES
                for v in scale.gate_violations(p[mode])]
    assert not failures, "; ".join(failures)


def test_scaling_points_made_progress(points):
    """The gated runs must be real runs, not stillborn clusters, and the
    ActOp-on run must have moved actors."""
    for point in points:
        for mode in scale.MODES:
            run = point[mode]
            assert run["events"] > 10_000
            assert run["activations"] > 0
            assert run["population"] >= run["actors"] * 0.9
            assert run["requests_completed"] > 0
            assert run["failed"] == run["lost"] == 0
        assert point["off"]["slices"][-1]["migrations"] == 0
        assert point["on"]["slices"][-1]["migrations"] > 0
