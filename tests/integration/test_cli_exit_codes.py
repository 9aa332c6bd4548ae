"""The CLI exit-code contract, parameterized across subcommands:
0 = success, 1 = the run completed but found problems (sanitizer
conflicts, unrecovered chaos run, empty trace window), 2 = argparse rejected the
invocation.  Scripts and CI gate on exactly these codes."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

CASES = [
    # ---- success -> 0
    ("perf-ok", ["perf", "--scale-point", "2000", "--horizon", "1"], 0),
    ("perf-scaling-ok",    # CI's scale-smoke form: one subprocess per point
     ["perf", "--scaling", "--points", "2000", "--horizon", "1", "--gate"], 0),
    ("trace-ok",
     ["trace", "--workload", "halo", "--players", "60", "--servers", "2",
      "--warmup", "1", "--duration", "2"], 0),
    ("faults-ok",          # the CI chaos plan, deterministic under seed 1
     ["faults", "--players", "300", "--servers", "4", "--warmup", "10",
      "--duration", "10", "--settle", "5", "--kill", "1@2",
      "--recover", "1@8", "--retries", "3", "--timeout", "0.5"], 0),
    ("faults-drop-ok",     # a message-drop window alone, into LinkFaultModel
     ["faults", "--players", "100", "--servers", "2", "--warmup", "3",
      "--duration", "3", "--settle", "1", "--drop", "0.2@2:8",
      "--json", "-"], 0),
    ("sanitize-ok", ["sanitize", "--requests", "200", "--seed", "5"], 0),
    # ---- completed-with-findings -> 1
    ("trace-empty-window",  # no traced request completes in 10ms
     ["trace", "--workload", "halo", "--players", "60", "--servers", "2",
      "--warmup", "0", "--duration", "0.01"], 1),
    ("faults-no-recovery",  # window too short to re-converge (seeded)
     ["faults", "--players", "100", "--servers", "2", "--warmup", "3",
      "--duration", "3", "--settle", "1", "--kill", "1@1",
      "--recover", "1@2", "--retries", "3", "--timeout", "0.5"], 1),
    # ---- argparse rejection -> 2
    ("perf-bad-points", ["perf", "--scaling", "--points", "notanint"], 2),
    # the ping harness went with the micro-suite runner: e2e measures both
    ("perf-bad-transport", ["perf", "--transport", "nonesuch"], 2),
    ("trace-bad-choice", ["trace", "--workload", "nonesuch"], 2),
    ("faults-bad-spec", ["faults", "--kill", "notaspec"], 2),
    ("faults-bad-drop-window", ["faults", "--drop", "0.3@5"], 2),
    # a malformed plan is a usage error, not a traceback mid-run
    ("faults-drop-above-one", ["faults", "--drop", "1.5"], 2),
    ("faults-drop-negative", ["faults", "--drop", "-0.1"], 2),
    ("faults-drop-window-reversed", ["faults", "--drop", "0.3@8:2"], 2),
    ("faults-kill-unknown-silo", ["faults", "--kill", "9@1", "--servers", "2"], 2),
    # an out-of-range flag is rejected at parse time, not mid-run
    ("halo-zero-servers", ["halo", "--servers", "0"], 2),
    ("heartbeat-zero-rate", ["heartbeat", "--rate", "0"], 2),
    ("trace-sample-above-one", ["trace", "--sample", "1.5"], 2),
    ("partition-one-server", ["partition", "--servers", "1"], 2),
    ("faults-zero-timeout", ["faults", "--timeout", "0"], 2),
    ("autoscale-band-reversed", ["autoscale", "--low", "0.9", "--high", "0.5"], 2),
    ("autoscale-zero-min", ["autoscale", "--min", "0"], 2),
    ("autoscale-zero-period", ["autoscale", "--period", "0"], 2),
    ("lint-bad-flag", ["lint", "--bogus"], 2),
    ("lint-par-removed", ["lint", "--par"], 2),   # deleted with the PAR stack
    # deleted with the FLOW/XB passes and the lint caches (PR 22)
    ("lint-flow-removed", ["lint", "--flow"], 2),
    ("lint-xbackend-removed", ["lint", "--xbackend"], 2),
    ("lint-cache-removed", ["lint", "--cache"], 2),
    # the static pass went; its sanitizer runs as `repro sanitize`
    ("lint-removed", ["lint"], 2),
    ("sanitize-waivers-removed", ["sanitize", "--waivers"], 2),
]


@pytest.mark.parametrize("argv,expected",
                         [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_cli_exit_code(argv, expected, tmp_path):
    if argv[0] == "trace":
        argv = argv + ["--chrome", str(tmp_path / "chrome.json")]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert proc.returncode == expected, (proc.stdout, proc.stderr)
    if expected == 2:
        assert "usage:" in proc.stderr
    if "--drop" in argv and expected == 0:
        # the window the flag parsed is the one the run reports
        assert json.loads(proc.stdout)["plan"]["drops"] == [[0.2, 2.0, 8.0]]
