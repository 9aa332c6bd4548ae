"""What a run imports, counted in fresh interpreters.

The runtime imports neither numpy nor scipy.  §5.3's binding case is
Theorem 2 plus one KKT multiplier found by bisection, so nothing under
``src/`` needs either package; importing them would cost most of a cold
start.  A fresh interpreter imports the package and its CLI, builds a
one-silo Heartbeat cluster with the thread controller on, solves one
instance whose processor cap binds, and must still have neither module
loaded.

A simulator run loads only the simulator: a seeded Halo slice and
``repro --help`` import no asyncio (nor the sockets, TLS and subprocess
machinery it pulls in), no asyncio driver, race sanitizer, fault
injector or offline partitioner, and with partitioning off no event
types either.  Each program prints how many ``repro`` modules and how
many modules in all it loaded; ``-s`` shows them.
"""

import json
import os
import subprocess
import sys

import pytest

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


# Never loaded by a simulator run or by ``repro --help``.
SIM_ABSENT = (
    "asyncio",
    "ssl",
    "socket",
    "subprocess",
    "repro.backend.asyncio_backend",
    "repro.analysis.sanitizer",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.graph.multilevel",
    "repro.core.partitioning.offline",
)

_REPORT = """
import json, sys
print(json.dumps({{
    "repro": sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")),
    "modules": len(sys.modules),
    "loaded": sorted(m for m in {absent!r} if m in sys.modules),
}}))
"""

HALO_SLICE = """
import repro
from repro.bench.harness import HaloExperiment
exp = HaloExperiment(players=80, num_servers=4, seed=1, partitioning={partitioning})
exp.workload.start()
exp.cluster.start()
exp.runtime.run(until=4.0)
assert exp.runtime.requests_completed > 0
"""

HELP = """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
"""

TCP_PING = """
from repro import AsyncioBackend, ClusterConfig, build_cluster
from repro.backend.bench import PingerActor, PongerActor
with build_cluster(ClusterConfig(num_servers=2, seed=1), backend="asyncio",
                   transport="tcp") as cluster:
    backend = cluster.runtime
    assert isinstance(backend, AsyncioBackend)
    backend.register_actor("pinger", PingerActor)
    backend.register_actor("ponger", PongerActor)
    cluster.start()
    backend.spawn(backend.ref("pinger", 0), server=0)
    backend.spawn(backend.ref("ponger", 0), server=1)
    results = []
    backend.client_request(backend.ref("pinger", 0), "ping", 7,
                           on_complete=lambda _lat, res: results.append(res))
    backend.flush()
    assert results == [7], results
"""


def _footprint(program: str, absent=()) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", program + _REPORT.format(absent=absent)],
                          env=env, cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("partitioning", [True, False], ids=["partitioning", "plain"])
def test_simulator_halo_slice_loads_only_the_simulator(partitioning):
    absent = SIM_ABSENT if partitioning else SIM_ABSENT + ("repro.obs.events",)
    found = _footprint(HALO_SLICE.format(partitioning=partitioning), absent)
    print(f"\nHalo slice, partitioning {'on' if partitioning else 'off'}: "
          f"{found['repro']} repro modules, {found['modules']} in all")
    assert found["loaded"] == []


def test_cli_help_loads_no_subcommand():
    found = _footprint(HELP, SIM_ABSENT)
    print(f"\nrepro --help: {found['repro']} repro modules, {found['modules']} in all")
    assert found["loaded"] == []


def test_asyncio_backend_loads_on_first_use():
    found = _footprint(TCP_PING, ("asyncio", "repro.backend.asyncio_backend"))
    print(f"\nasyncio ping over tcp: {found['repro']} repro modules, "
          f"{found['modules']} in all")
    assert found["loaded"] == ["asyncio", "repro.backend.asyncio_backend"]
