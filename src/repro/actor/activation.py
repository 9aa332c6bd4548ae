"""Activations: a live actor instance on a specific silo.

An activation owns the actor object, its per-actor work queue (Orleans
runs at most one thread inside an actor at any instant) and the
deactivation latch used by transparent migration.  Communication
counters (§4.3) do NOT live here: a million idle activations must cost
O(bytes) each, so per-edge counts are aggregated in the silo-level
:class:`repro.actor.commtable.CommTable` instead of a dict per actor.

The work queue is no list until the first item: ``queue`` is None
until the core enqueues into it, so an activation that was never
messaged (most of a 10^6-actor bootstrap) holds no container at all.
Once made, the list stays for the activation's life (no allocation per
turn).  A list, not a deque: queues are almost always empty or
near-empty (depth beyond a handful only occurs under overload), so
pop(0) beats the constant factor of deque at every realistic depth.
"""

from __future__ import annotations

from typing import Any, Optional

from .actor import Actor
from .ids import ActorId

__all__ = ["Activation", "WorkItem"]

# One turn segment waiting its turn inside the actor:
# ``(continuation, value, throw, copied)``.  A new turn has no
# continuation yet and carries its triggering request as ``value``; a
# resume names the suspended turn, the value to send into its generator,
# and whether to raise it inside instead.  ``copied``: the bytes a
# same-silo sender deep-copied to hand this over (actor isolation,
# Fig. 3's LPC path), None when it came off the wire or a timer — the
# core records it, the simulator prices it.  A plain tuple: two are
# built per call, and a slotted class costs ten times as much to make.
WorkItem = tuple[Any, Any, bool, Optional[int]]


class Activation:
    """A live actor on one silo."""

    __slots__ = (
        "actor_id",
        "instance",
        "queue",
        "segment_running",
        "open_turns",
        "pending_calls",
        "deactivating",
        "discard_state",
        "deactivation_hint",
        "last_active",
        "stopped",
    )

    def __init__(self, actor_id: ActorId, instance: Actor):
        self.actor_id = actor_id
        self.instance = instance
        self.queue: Optional[list[WorkItem]] = None   # no list until work
        self.segment_running = False
        self.open_turns = 0          # turns started but not yet completed
        self.pending_calls = 0       # outstanding Call()s awaiting responses
        self.deactivating = False
        self.discard_state = False   # deactivate without persisting state
        self.deactivation_hint: Optional[int] = None
        self.last_active = 0.0       # when the last enqueued request was sent
        self.stopped = False         # a supervisor's "stop" verdict: refuse turns

    # ------------------------------------------------------------------
    def next_eligible(self) -> Optional[WorkItem]:
        """Pop the next runnable work item, honoring reentrancy rules.

        Resumes are always eligible (they belong to already-open turns).
        New turns are eligible when the actor is reentrant or no turn is
        open.  FIFO order is preserved among eligible items; a blocked
        new turn does not block later resumes.
        """
        if not self.queue or self.segment_running:
            return None
        if type(self.instance).REENTRANT:
            return self.queue.pop(0)
        for idx, item in enumerate(self.queue):
            if item[0] is not None or self.open_turns == 0:
                del self.queue[idx]
                return item
        return None

    @property
    def quiescent(self) -> bool:
        """Safe to deactivate: nothing queued, running, or awaited."""
        return (
            not self.queue
            and not self.segment_running
            and self.open_turns == 0
            and self.pending_calls == 0
        )
