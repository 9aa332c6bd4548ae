"""Runtime race / determinism sanitizer.

Opt-in instrumentation that watches a running cluster for the hazards
that break bit-identical seeded runs or actor state ownership:

* **Shared-state conflicts.**  While armed, every write to (and read of)
  an actor's application state is recorded as an
  ``(owner actor_id, field, logical_time)`` access attributed to the
  code that performed it — the activation whose turn is executing, the
  SEDA stage firing a callback, or ``"engine"`` for bare simulator
  events.  Two *different* accessors touching the same (owner, field) at
  the same logical instant, at least one of them writing, is a conflict:
  the turn model promises that never happens, and when it does the
  outcome depends on same-instant event ordering.

* **RNG stream hazards.**  Substream draws advance hidden generator
  state, so a draw is a *write* to ``rng:<stream>``; two contexts
  drawing from one stream at the same instant make the variate
  assignment depend on event scheduling order.  The engine totally
  orders same-instant events by ``(time, seq)``, so these are
  deterministic today — they are reported as *hazards* (fragile to
  scheduling changes, e.g. shared ``network.jitter`` draws from both
  sender stages) rather than conflicts, and do not fail the run.

* **Payload hazards.**  Every ``Call``/``Tell`` a turn sends is probed
  (:meth:`Sanitizer.probe_payload`): an argument the sender's own state
  still references is shared on the inproc transport and copied over
  TCP, and an argument ``pickle`` rejects cannot cross TCP at all.
  Either is a :class:`PayloadEvent` and fails the report.

* **Set-iteration order dependence.**  :func:`detect_order_dependence`
  re-runs a probe under salted ``ActorId`` hashing; any digest change
  proves something iterated a hash-ordered container.  Unsalted, ids
  hash by identity, so such an iteration can also make a digest differ
  between fresh interpreters; the salt makes it show in one process,
  every time.

Everything is gated on module state that the runtime checks with one
``is not None`` test per hook — when never armed, no instance attribute
exists beyond a class-level ``None`` and the hot paths are unchanged
(the bit-identical-digest test enforces this).
"""

from __future__ import annotations

import contextlib
import pickle
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..actor.core import ClusterCore
from ..sim.rng import RngRegistry

__all__ = [
    "Sanitizer",
    "Conflict",
    "OrderProbe",
    "PayloadEvent",
    "current",
    "detect_order_dependence",
]

# The single armed sanitizer (or None).  The Actor base's patched
# accessors consult this; stages, silos, RNG registries and clusters
# hold it as a ``_san`` hook (:meth:`Sanitizer.hook`) whose class-level
# None is one attribute load per hook site while disarmed.
_ACTIVE: Optional["Sanitizer"] = None


def current() -> Optional["Sanitizer"]:
    """The armed sanitizer, or None."""
    return _ACTIVE


@dataclass(frozen=True)
class Conflict:
    """Two accessors touched one (owner, field) at one logical instant."""

    owner: Any                    # ActorId, or "rng:<stream>", or a label
    field: str
    time: float
    accesses: tuple               # ((accessor, kind), ...) in arrival order
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "owner": str(self.owner),
            "field": self.field,
            "time": self.time,
            "accesses": [list(a) for a in self.accesses],
            "note": self.note,
        }

    def render(self) -> str:
        who = ", ".join(f"{kind} by {accessor}" for accessor, kind in self.accesses)
        text = (f"conflict on {self.owner}.{self.field} "
                f"at t={self.time:.6f}: {who}")
        return f"{text} — {self.note}" if self.note else text


@dataclass(frozen=True)
class PayloadEvent:
    """One cross-backend payload hazard observed at a real send site.

    The payload probe (:meth:`Sanitizer.probe_payload`) records an event
    when a message payload is aliased by the sender's own state
    (``kind="alias"`` — shared by reference inproc, copied over TCP) or
    fails ``pickle.dumps`` (``kind="unpicklable"`` — cannot cross the
    TCP transport at all).  Any event fails the sanitizer report: the
    program means different things on different transports.
    """

    kind: str                     # "alias" | "unpicklable"
    sender: str                   # sender class name, or "<client>"
    method: str                   # sender method (or target method)
    detail: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sender": self.sender,
                "method": self.method, "detail": self.detail}


@dataclass(frozen=True)
class OrderProbe:
    """Result of a salted-hash order-dependence probe."""

    baseline: Any
    divergent_salts: tuple
    salts_tried: tuple

    @property
    def order_dependent(self) -> bool:
        return bool(self.divergent_salts)

    def to_dict(self) -> dict:
        return {
            "order_dependent": self.order_dependent,
            "salts_tried": list(self.salts_tried),
            "divergent_salts": list(self.divergent_salts),
        }


class _SanRandom:
    """Proxy around a substream that records each draw as a state write."""

    _DRAWS = frozenset({
        "random", "uniform", "expovariate", "gauss", "normalvariate",
        "lognormvariate", "paretovariate", "weibullvariate", "triangular",
        "betavariate", "gammavariate", "vonmisesvariate", "randint",
        "randrange", "choice", "choices", "sample", "shuffle", "getrandbits",
        "binomialvariate",
    })

    __slots__ = ("_rng", "_name", "_san")

    def __init__(self, rng, name: str, san: "Sanitizer"):
        self._rng = rng
        self._name = name
        self._san = san

    def __getattr__(self, attr: str):
        value = getattr(self._rng, attr)
        if attr in self._DRAWS:
            san = self._san
            name = self._name

            def drawing(*args, **kwargs):
                san.record_draw(name)
                return value(*args, **kwargs)

            return drawing
        return value


class Sanitizer:
    """Records state/RNG accesses and derives conflicts from them.

    Typical use::

        san = Sanitizer()
        with san.armed(cluster):
            cluster.run(until=horizon)
        report = san.report()
    """

    def __init__(self) -> None:
        self.sim = None
        # (owner, field, time) -> [(accessor, kind), ...]
        self._records: dict[tuple, list[tuple[str, str]]] = {}
        self._context: list[str] = []
        self.rng_draws: Counter = Counter()
        self.payload_events: list[PayloadEvent] = []
        self.accesses = 0
        self._events_at_wire = 0
        self._armed = False
        self._saved_setattr = None
        self._saved_getattribute = None
        self._wired: list[tuple[Any, str]] = []

    # ------------------------------------------------------------------
    # Arming / wiring
    # ------------------------------------------------------------------
    def arm(self, cluster=None, sim=None) -> "Sanitizer":
        """Become the active sanitizer and instrument ``cluster``/``sim``.

        ``cluster`` may be a :class:`repro.cluster.Cluster` or a bare
        ``ActorRuntime``; either wires the simulator, every silo, every
        SEDA stage, and the runtime's admission path.  Arming with
        neither still intercepts actor state and new RNG streams (unit
        tests drive contexts by hand).
        """
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a sanitizer is already armed")
        _ACTIVE = self
        self._armed = True
        # New RNG streams are wrapped, and asyncio silos built from now
        # on hook themselves (the simulator's are wired below).
        self.hook(RngRegistry)
        self.hook(ClusterCore)
        self._patch_actor()
        if cluster is not None or sim is not None:
            self.wire(cluster=cluster, sim=sim)
        return self

    def wire(self, cluster=None, sim=None) -> "Sanitizer":
        """Instrument an (already-armed) sanitizer into a cluster.

        Separate from :meth:`arm` so callers can arm *before* building
        the experiment — RNG streams are wrapped at creation time — and
        wire the silo/stage hooks once the cluster exists.
        """
        if not self._armed:
            raise RuntimeError("wire() before arm()")
        runtime = getattr(cluster, "runtime", cluster)
        if sim is None and runtime is not None:
            sim = runtime.sim
        if sim is not None:
            self.sim = sim
            self._events_at_wire = sim.events_processed
        if runtime is not None:
            for silo in runtime.silos:
                self.hook(silo)
                for stage in (silo.receiver, silo.worker,
                              silo.server_sender, silo.client_sender):
                    self.hook(stage)
        return self

    def hook(self, obj) -> None:
        """Point ``obj._san`` at this sanitizer until :meth:`disarm`."""
        obj._san = self
        self._wired.append((obj, "_san"))

    def disarm(self) -> None:
        global _ACTIVE
        if not self._armed:
            return
        self._armed = False
        if _ACTIVE is self:
            _ACTIVE = None
        for obj, attr in self._wired:
            setattr(obj, attr, None)
        self._wired.clear()
        self._unpatch_actor()

    @contextlib.contextmanager
    def armed(self, cluster=None, sim=None):
        self.arm(cluster=cluster, sim=sim)
        try:
            yield self
        finally:
            self.disarm()

    # -- Actor state interception ---------------------------------------
    def _patch_actor(self) -> None:
        from repro.actor.actor import Actor

        self._saved_setattr = Actor.__dict__.get("__setattr__")
        self._saved_getattribute = Actor.__dict__.get("__getattribute__")

        def san_setattr(obj, name, value):
            if not name.startswith("_"):
                san = _ACTIVE
                if san is not None:
                    owner = object.__getattribute__(obj, "__dict__").get("_id")
                    if owner is not None:
                        san.record(owner, name, "write")
            object.__setattr__(obj, name, value)

        def san_getattribute(obj, name):
            value = object.__getattribute__(obj, name)
            if not name.startswith("_"):
                san = _ACTIVE
                if san is not None:
                    d = object.__getattribute__(obj, "__dict__")
                    if name in d:
                        owner = d.get("_id")
                        if owner is not None:
                            san.record(owner, name, "read")
            return value

        Actor.__setattr__ = san_setattr
        Actor.__getattribute__ = san_getattribute

    def _unpatch_actor(self) -> None:
        from repro.actor.actor import Actor

        if self._saved_setattr is None:
            with contextlib.suppress(AttributeError):
                del Actor.__setattr__
        else:
            Actor.__setattr__ = self._saved_setattr
        if self._saved_getattribute is None:
            with contextlib.suppress(AttributeError):
                del Actor.__getattribute__
        else:
            Actor.__getattribute__ = self._saved_getattribute
        self._saved_setattr = None
        self._saved_getattribute = None

    # ------------------------------------------------------------------
    # Access recording (called by the instrumented runtime)
    # ------------------------------------------------------------------
    def push_context(self, label: str) -> None:
        """Attribute subsequent accesses to ``label`` (activation/stage)."""
        self._context.append(label)

    def pop_context(self) -> None:
        self._context.pop()

    @property
    def context(self) -> str:
        return self._context[-1] if self._context else "engine"

    def record(self, owner, field_name: str, kind: str) -> None:
        """Record one access to ``owner.field_name`` (kind: read/write)."""
        self.accesses += 1
        now = self.sim.now if self.sim is not None else 0.0
        key = (owner, field_name, now)
        entries = self._records.get(key)
        if entries is None:
            self._records[key] = entries = []
        entries.append((self.context, kind))

    def record_draw(self, stream: str) -> None:
        """An RNG draw: a write to the stream's hidden generator state."""
        self.rng_draws[stream] += 1
        self.record(f"rng:{stream}", "state", "write")

    def wrap_rng(self, name: str, rng) -> _SanRandom:
        """Called by RngRegistry at stream creation while armed."""
        return _SanRandom(rng, name, self)

    def record_payload_alias(self, sender: str, method: str,
                             detail: str = "") -> None:
        """Payload probe: a message left ``sender.method`` carrying an
        object the sender's own state still references — shared inproc,
        pickle-copied over TCP, so behaviour forks by transport."""
        self.payload_events.append(
            PayloadEvent("alias", sender, method, detail))

    def record_unpicklable_payload(self, sender: str, method: str,
                                   detail: str = "") -> None:
        """Payload probe: a message payload failed ``pickle.dumps`` —
        it can cross the inproc transport by reference but never TCP."""
        self.payload_events.append(
            PayloadEvent("unpicklable", sender, method, detail))

    def probe_payload(self, instance, generator, args: tuple) -> None:
        """A turn of ``instance`` is about to send ``args``: look for an
        argument the sender's own state still references (shared inproc,
        copied over TCP) and for arguments pickle rejects outright."""
        if not args:
            return
        sender = type(instance).__name__
        method = getattr(generator, "__name__", "<turn>")
        mutable_ids = {id(v) for v in instance.__dict__.values()
                       if isinstance(v, (list, dict, set, bytearray))}

        def aliases_state(obj: Any) -> bool:
            return id(obj) in mutable_ids

        for arg in args:
            hit = aliases_state(arg)
            if not hit and isinstance(arg, (list, tuple, set)):
                hit = any(aliases_state(e) for e in arg)
            elif not hit and isinstance(arg, dict):
                hit = any(aliases_state(v) for v in arg.values())
            if hit:
                self.record_payload_alias(
                    sender, method,
                    f"payload {type(arg).__name__} aliases sender state")
                break
        try:
            pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # noqa: BLE001 — pickle raises many types
            self.record_unpicklable_payload(sender, method, repr(err))

    # ------------------------------------------------------------------
    # Conflict derivation / report
    # ------------------------------------------------------------------
    def _derive(self) -> tuple[list[Conflict], list[Conflict]]:
        conflicts: list[Conflict] = []
        hazards: list[Conflict] = []
        for (owner, field_name, now), entries in self._records.items():
            accessors = {a for a, _ in entries}
            if len(accessors) < 2:
                continue
            writers = {a for a, kind in entries if kind == "write"}
            if not writers:
                continue
            # At least one other accessor besides a writer: write/write or
            # write/read across activation (or stage/engine) boundaries.
            if len(writers) >= 2 or accessors - writers:
                found = Conflict(
                    owner=owner,
                    field=field_name,
                    time=now,
                    accesses=tuple(entries),
                )
                # Shared RNG substreams are serialized by the engine's
                # total (time, seq) event order, so same-instant draws
                # from two contexts are deterministic — but the variate
                # assignment would shift under any scheduling change.
                # Surface them without failing the run.
                if isinstance(owner, str) and owner.startswith("rng:"):
                    hazards.append(found)
                else:
                    conflicts.append(found)
        key = lambda c: (c.time, str(c.owner), c.field)  # noqa: E731
        conflicts.sort(key=key)
        hazards.sort(key=key)
        return conflicts, hazards

    def conflicts(self) -> list[Conflict]:
        """Cross-accessor same-instant write/write and write/read pairs."""
        return self._derive()[0]

    def report(self) -> dict:
        conflicts, hazards = self._derive()
        return {
            "ok": not conflicts and not self.payload_events,
            # Simulator events since wire(), by the engine's own count.
            "events_seen": (0 if self.sim is None else
                            self.sim.events_processed - self._events_at_wire),
            "accesses": self.accesses,
            "distinct_sites": len(self._records),
            "rng_draws": dict(sorted(self.rng_draws.items())),
            "conflicts": [c.to_dict() for c in conflicts],
            "rng_hazards": [c.to_dict() for c in hazards],
            "payload_events": [e.to_dict() for e in self.payload_events],
        }


# ----------------------------------------------------------------------
# Salted-hash order-dependence probe
# ----------------------------------------------------------------------
_DEFAULT_SALTS = (0x9E3779B9, 0x51F15E3D)


def detect_order_dependence(
    probe: Callable[[], Any], salts: Sequence[int] = _DEFAULT_SALTS
) -> OrderProbe:
    """Run ``probe`` under perturbed ``ActorId`` hashing.

    ``probe`` must build its world from scratch and return a comparable
    result (a digest).  Only ``set``/``frozenset`` iteration depends on
    element hashes (dicts are insertion-ordered), so any divergence under
    a non-zero salt proves the probed computation iterates a set of
    actor identities somewhere order-sensitive.  The baseline runs under
    the identity hash, and every salted run is followed by
    ``set_hash_salt(0)``, which restores it.
    """
    from repro.actor import ids

    baseline = probe()
    divergent = []
    for salt in salts:
        ids.set_hash_salt(salt)
        try:
            result = probe()
        finally:
            ids.set_hash_salt(0)
        if result != baseline:
            divergent.append(salt)
    return OrderProbe(
        baseline=baseline,
        divergent_salts=tuple(divergent),
        salts_tried=tuple(salts),
    )
