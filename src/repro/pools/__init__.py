"""Data-parallel actor pools (router + replicated workers).

See :mod:`repro.pools.router` for the ensemble and
:mod:`repro.pools.policy` for the balancing policies.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .policy import (
        POLICIES,
        BalancingPolicy,
        DpaPolicy,
        LeastOutstandingPolicy,
        RoundRobinPolicy,
        make_policy,
    )
    from .router import ActorPool, RouterActor

# Loaded on first access (Stageflow imports the router directly).
__getattr__ = lazy_exports(__name__, {
    ".policy": ("POLICIES", "BalancingPolicy", "DpaPolicy", "LeastOutstandingPolicy",
                "RoundRobinPolicy", "make_policy"),
    ".router": ("ActorPool", "RouterActor"),
})

__all__ = [
    "BalancingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "DpaPolicy",
    "POLICIES",
    "make_policy",
    "RouterActor",
    "ActorPool",
]
