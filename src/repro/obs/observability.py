"""The one-call wiring of the runtime event log onto a live cluster.

``Observability(runtime)`` attaches an :class:`~repro.obs.events.EventLog`
to a :class:`~repro.actor.core.ClusterCore` on either engine: the
control plane (partitioning agents, thread controllers, migration
machinery, the client edge, fault injection) emits structured events to
``runtime.obs.events`` while it is attached.  ``detach()`` undoes it; a
detached runtime is exactly as uninstrumented as one that never saw
this module.
"""

from __future__ import annotations

from .events import EventLog

__all__ = ["Observability"]


class Observability:
    """Runtime-event collection for one cluster runtime.

    Args:
        runtime: the cluster runtime to instrument (either engine).  At
            most one Observability may be attached to a runtime at a
            time.

    The log is capped (:data:`~repro.obs.events.MAX_EVENTS`); drops are
    counted, not silent.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.events = EventLog()
        self.attached = False
        self.attach()

    def attach(self) -> "Observability":
        """Make this instance the runtime's event sink."""
        if self.attached:
            return self
        existing = self.runtime.obs
        if existing is not None and existing is not self:
            raise RuntimeError(
                "runtime already has an Observability attached; detach it first"
            )
        self.runtime.obs = self
        self.attached = True
        return self

    def detach(self) -> None:
        """Stop collecting; the events collected so far stay readable."""
        if not self.attached:
            return
        if self.runtime.obs is self:
            self.runtime.obs = None
        self.attached = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self.attached else "detached"
        return f"Observability({state}, events={len(self.events)})"
