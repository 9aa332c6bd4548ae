"""Measurement and benchmark-harness utilities.

Only the runtime-free pieces are re-exported here.  The experiment
drivers live in :mod:`repro.bench.harness` and the sampler in
:mod:`repro.bench.sampler`; both depend on the actor runtime, which
itself uses :mod:`repro.bench.metrics`, so callers import them from
their modules.
"""

from .metrics import HistogramRecorder, LatencyRecorder, TimeSeries, percentile
from .reporting import banner, render_heatmap, render_table

__all__ = [
    "HistogramRecorder",
    "LatencyRecorder",
    "TimeSeries",
    "banner",
    "percentile",
    "render_heatmap",
    "render_table",
]
