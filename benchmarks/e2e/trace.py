#!/usr/bin/env python3
"""The traced run: per-layer metrics for every workload.

Same options as ``run.py`` (``--seed``, ``--only``, ``--smoke``, ``--out``)
with ``--trace 1`` filled in: each workload runs in its own fresh
subprocess, once untraced and once under the tracer (``tracer.py``), and
the per-layer table is printed and written to ``out/trace_seed<N>.json``;
the spans of each workload go to ``out/trace_<workload>.json``.
"""

import sys

import run

if __name__ == "__main__":
    sys.exit(run.main(["--trace", "1", *sys.argv[1:]]))
