"""Actor identities and references.

Orleans actors ("grains") are addressed by (type, key) and are *virtual*:
a reference can be created and called without the actor having been
instantiated anywhere — the runtime activates it on first use and the
physical location stays hidden from application code (§2).  That location
transparency is exactly what lets ActOp migrate actors under a running
application.

At paper scale (10^6 actors, §6) identity objects dominate memory and
hashing dominates directory lookups, so ``ActorId`` instances are
*interned*: one canonical object per (type, key), with the tuple hash
computed once and cached.  Interning also assigns each id a small dense
``seq`` integer, which the silo-level communication tables use to pack an
edge into a single machine word instead of a tuple.
"""

from __future__ import annotations

from typing import Any, Hashable

__all__ = ["ActorId", "ActorRef", "set_hash_salt"]

# Hash perturbation for the sanitizer's order-dependence probe.  Zero
# (the default) reproduces the plain tuple hash bit for bit; a non-zero
# salt reshuffles every hash-ordered container of ActorIds, so a seeded
# run whose result changes under salt provably iterates one somewhere.
_HASH_SALT = 0

# CommTable packs an edge as (src.seq << 32) | dst.seq — one machine
# word per edge.  The pack silently aliases distinct edges if a seq ever
# reaches 2^32, so interning refuses to hand out a seq that wide instead
# of corrupting communication graphs (and with them, migration
# decisions) at some far-away fold.
_MAX_SEQ = (1 << 32) - 1


def set_hash_salt(salt: int) -> None:
    """Perturb (salt != 0) or restore (salt == 0) ActorId hashing.

    Used by :func:`repro.analysis.sanitizer.detect_order_dependence`;
    production code never calls this.
    """
    global _HASH_SALT
    _HASH_SALT = salt


class ActorId:
    """Stable logical identity of an actor.

    Instances are interned: ``ActorId(t, k) is ActorId(t, k)``, so
    equality is identity.  The cached ``_hash`` equals ``hash((t, k))``
    so every hash-ordered container of ids iterates exactly as it did
    when ActorId was a plain NamedTuple — seeded digests depend on that.
    Ids order like their ``(type, key)`` pairs.
    """

    __slots__ = ("actor_type", "key", "seq", "_hash")

    _intern: dict[tuple[str, Hashable], "ActorId"] = {}

    def __new__(cls, actor_type: str, key: Hashable) -> "ActorId":
        pair = (actor_type, key)
        cached = cls._intern.get(pair)
        if cached is not None:
            return cached
        seq = len(cls._intern)
        if seq > _MAX_SEQ:
            raise OverflowError(
                f"ActorId intern space exhausted: id #{seq} for "
                f"({actor_type!r}, {key!r}) does not fit the 32-bit seq "
                "field that CommTable packs into (src.seq << 32) | dst.seq; "
                "a wider seq would silently alias communication edges"
            )
        self = object.__new__(cls)
        self.actor_type = actor_type
        self.key = key
        self.seq = seq
        self._hash = hash(pair)
        cls._intern[pair] = self
        return self

    def __str__(self) -> str:
        return f"{self.actor_type}/{self.key}"

    def __repr__(self) -> str:
        return f"ActorId(actor_type={self.actor_type!r}, key={self.key!r})"

    def __hash__(self) -> int:
        salt = _HASH_SALT
        if salt:
            return hash((salt, self.actor_type, self.key))
        return self._hash

    def __lt__(self, other: "ActorId") -> bool:
        # Space-Saving's heap breaks count ties by key.
        return (self.actor_type, self.key) < (other.actor_type, other.key)

    def __reduce__(self):
        # Re-intern on unpickle / deepcopy rather than duplicating.
        return (ActorId, (self.actor_type, self.key))


class ActorRef:
    """A location-transparent handle to an actor.

    Application code only ever holds refs; the runtime resolves them to a
    hosting server at message-send time.  Refs are cheap value objects and
    compare by identity of the actor they denote.
    """

    __slots__ = ("id",)

    def __init__(self, actor_type: str, key: Hashable):
        self.id = ActorId(actor_type, key)

    @property
    def key(self) -> Hashable:
        return self.id.key

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ActorRef) and self.id is other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"ActorRef({self.id})"
