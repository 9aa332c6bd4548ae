"""The runtime imports neither numpy nor scipy.

§5.3's binding case is Theorem 2 plus one KKT multiplier found by
bisection, so nothing under ``src/`` needs either package; importing them
would cost most of a cold start.  A fresh interpreter imports the package
and its CLI, builds a one-silo Heartbeat cluster with the thread
controller on, solves one instance whose processor cap binds, and must
still have neither module loaded.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PROGRAM = """
import sys
import repro, repro.cli
from repro.bench.harness import HeartbeatExperiment
from repro.core.threads.model import ThreadAllocationProblem
from repro.core.threads.optimizer import solve_integer
from repro.queueing.jackson import StageLoad

HeartbeatExperiment(request_rate=2000.0, monitors=50, thread_allocation=True)
problem = ThreadAllocationProblem(
    stages=[StageLoad(400.0, 100.0), StageLoad(200.0, 100.0)], processors=8, eta=1e-8)
assert problem.eta < problem.zeta()
assert solve_integer(problem) is not None
print(" ".join(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def test_runtime_loads_neither_numpy_nor_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
