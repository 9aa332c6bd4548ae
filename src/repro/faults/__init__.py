"""Deterministic fault injection and resilience policies.

Two halves, deliberately decoupled:

* **Faults** (:mod:`~repro.faults.plan`, :mod:`~repro.faults.injector`) —
  what goes wrong: silo crashes/recoveries, network partitions and
  degradations, slow silos, directory staleness, all scheduled from a
  declarative :class:`FaultPlan` with named RNG substreams for
  reproducibility.
* **Resilience** (:mod:`~repro.faults.resilience`) — what the cluster
  does about it: retry with backoff + jitter, end-to-end deadlines,
  bounded admission with load shedding.

Both are provably neutral when inactive: an empty plan plus
``resilience=None`` leaves a seeded run bit-identical to one that never
loaded this package.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .resilience import AdmissionConfig, ResilienceConfig, RetryPolicy

if TYPE_CHECKING:
    from .injector import FaultInjector, LinkFaultModel
    from .plan import (
        DirectoryStaleness,
        FaultAction,
        FaultPlan,
        LinkDegradation,
        NetworkPartition,
        SiloCrash,
        SiloRestart,
        SlowSilo,
    )

# Every run consults the resilience configs; the fault half loads on
# first access, so a run without a fault plan never imports it.
__getattr__ = lazy_exports(__name__, {
    ".injector": ("FaultInjector", "LinkFaultModel"),
    ".plan": ("DirectoryStaleness", "FaultAction", "FaultPlan", "LinkDegradation",
              "NetworkPartition", "SiloCrash", "SiloRestart", "SlowSilo"),
})

__all__ = [
    "FaultPlan",
    "FaultAction",
    "SiloCrash",
    "SiloRestart",
    "NetworkPartition",
    "LinkDegradation",
    "SlowSilo",
    "DirectoryStaleness",
    "FaultInjector",
    "LinkFaultModel",
    "RetryPolicy",
    "AdmissionConfig",
    "ResilienceConfig",
]
