"""Actor identities and references.

Orleans actors ("grains") are addressed by (type, key) and are *virtual*:
a reference can be created and called without the actor having been
instantiated anywhere — the runtime activates it on first use and the
physical location stays hidden from application code (§2).  That location
transparency is exactly what lets ActOp migrate actors under a running
application.

At paper scale (10^6 actors, §6) identity objects dominate memory, so
``ActorId`` instances are *interned*: one canonical object per
(type, key), kept in one dict per actor type keyed by ``key`` (no pair
tuple per id).  Equality is therefore identity, and so is the hash: an
id hashes by ``object.__hash__``, in C, with no per-id state.  Identity
hashes differ between processes, so no result may depend on the order
of a hash-ordered container of ids; the digest pins hold under a random
``PYTHONHASHSEED``, in fresh processes, and under :func:`set_hash_salt`.

A reference *is* its id: ``ActorRef`` is another name for ``ActorId``,
so a hosted actor costs one identity object, not a handle wrapped
around one.  ``ref.id`` returns the id itself; the runtime passes the
ref where it needs the id.  Two slots keep an id in pymalloc's 48-byte
size class: a third slot puts it in the 64-byte class, 16 bytes more
per actor, and identity hashes of objects 64 bytes apart leave the low
two bits of a small dict's index constant.
"""

from __future__ import annotations

from typing import Hashable

__all__ = ["ActorId", "ActorRef", "set_hash_salt"]


def set_hash_salt(salt: int) -> None:
    """Perturb (salt != 0) or restore (salt == 0) ActorId hashing.

    A non-zero salt installs a class-level ``__hash__`` that reshuffles
    every hash-ordered container of ids, so a seeded run whose result
    changes under salt provably iterates one somewhere.  Salt 0 deletes
    it, and ids hash by identity again.  Used by
    :func:`repro.analysis.sanitizer.detect_order_dependence` and the
    salted digest pins; production code never calls this.
    """
    if salt:
        ActorId.__hash__ = lambda self: hash((salt, self.actor_type, self.key))
    elif "__hash__" in vars(ActorId):
        del ActorId.__hash__


class ActorId:
    """Stable logical identity of an actor: its ``(type, key)`` pair, and
    the location-transparent reference application code holds.

    Instances are interned: ``ActorId(t, k) is ActorId(t, k)``, so
    equality and hashing are by identity.  Ids order like their
    ``(type, key)`` pairs.  The runtime resolves a reference to a
    hosting server at message-send time.
    """

    __slots__ = ("actor_type", "key")

    # actor type -> key -> the interned id
    _intern: dict[str, dict[Hashable, "ActorId"]] = {}

    def __new__(cls, actor_type: str, key: Hashable) -> "ActorId":
        table = cls._intern.get(actor_type)
        if table is None:
            table = cls._intern[actor_type] = {}
        cached = table.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.actor_type = actor_type
        self.key = key
        table[key] = self
        return self

    @property
    def id(self) -> "ActorId":
        """The id a reference denotes: the reference itself."""
        return self

    def __str__(self) -> str:
        return f"{self.actor_type}/{self.key}"

    def __repr__(self) -> str:
        return f"ActorId(actor_type={self.actor_type!r}, key={self.key!r})"

    def __lt__(self, other: "ActorId") -> bool:
        # Space-Saving's heap breaks count ties by key.
        return (self.actor_type, self.key) < (other.actor_type, other.key)

    def __reduce__(self):
        # Re-intern on unpickle / deepcopy rather than duplicating.
        return (ActorId, (self.actor_type, self.key))


ActorRef = ActorId
