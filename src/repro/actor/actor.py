"""The actor base class.

Application actors subclass :class:`Actor`, declare per-method simulated
compute demands, and write methods either as plain functions (compute
only) or as generators that ``yield`` :class:`~repro.actor.calls.Call` /
:class:`~repro.actor.calls.All` to interact with other actors — the
programming model §2 describes ("developers write applications in a
familiar object-oriented style").

State lifecycle: whatever the actor stores on ``self`` between
``on_activate`` and ``on_deactivate`` is persisted by the runtime and
restored on the next activation — possibly on a different server.  This
is the Orleans activation/deactivation mechanism §4.3 leans on for
transparent migration.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, ClassVar, Optional

from .ids import ActorId

__all__ = ["Actor", "DEFAULT_COMPUTE", "DEFAULT_RESUME_COMPUTE",
           "is_generator_method"]

DEFAULT_COMPUTE = 50e-6          # 50 µs of application logic per invocation
DEFAULT_RESUME_COMPUTE = 5e-6    # 5 µs to resume a suspended turn


@functools.cache
def is_generator_method(cls: type, name: str) -> bool:
    """Whether ``cls.name`` is written as a generator (a turn that may
    yield).  Both engines ask at the start of every turn, so the answer
    is kept per (actor class, method name)."""
    return inspect.isgeneratorfunction(getattr(cls, name))


class Actor:
    """Base class for application actors.

    Class-level knobs:

    * ``COMPUTE``: method name -> simulated on-CPU seconds of application
      logic (defaults to :data:`DEFAULT_COMPUTE`).
    * ``WAIT``: method name -> simulated synchronous blocking seconds
      (legacy sync I/O; makes the hosting worker stage a *blocking* stage
      for the §5 model).
    * ``REENTRANT``: whether new invocations may interleave with a turn
      suspended at a yield point.  Orleans-style call-chain reentrancy is
      required for call cycles such as player -> game -> player; the
      default is True.
    * ``PERSISTED``: optional tuple of field names that make up the
      actor's durable state.  When declared, ``capture_state()``
      snapshots exactly those fields (instead of the whole ``__dict__``),
      so deactivation, migration, and supervision restarts restore only
      the declared set — any other field reverts to its ``__init__``
      value.
    """

    COMPUTE: ClassVar[dict[str, float]] = {}
    WAIT: ClassVar[dict[str, float]] = {}
    REENTRANT: ClassVar[bool] = True
    PERSISTED: ClassVar[Optional[tuple[str, ...]]] = None

    def __init__(self) -> None:
        # Filled in by the runtime at activation time.
        self._id: Optional[ActorId] = None

    # ------------------------------------------------------------------
    # Application-facing
    # ------------------------------------------------------------------
    @property
    def id(self) -> ActorId:
        if self._id is None:
            raise RuntimeError("actor is not activated")
        return self._id

    @property
    def key(self) -> Any:
        return self.id.key

    def self_ref(self) -> ActorId:
        """The reference other actors call this one by: its id."""
        return self.id

    def on_activate(self) -> None:
        """Hook: called after state restore, before the first message."""

    def on_deactivate(self) -> None:
        """Hook: called before state capture on deactivation/migration."""

    # State capture: everything in __dict__ except runtime bindings —
    # or exactly the declared PERSISTED subset when the class names one.
    _RUNTIME_FIELDS = ("_id",)

    def capture_state(self) -> dict[str, Any]:
        if self.PERSISTED is not None:
            return {k: v for k, v in self.__dict__.items()
                    if k in self.PERSISTED}
        return {
            k: v for k, v in self.__dict__.items() if k not in self._RUNTIME_FIELDS
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
