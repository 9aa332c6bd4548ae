"""Serialization / deep-copy cost model.

The heart of the locality argument (§3, Fig. 3): a *remote* call pays
argument serialization in the sender's send stage and deserialization in
the receiver's receive stage — CPU-intensive work proportional to payload
size — while a *local* call pays only a deep copy of the arguments
(actor isolation still requires the copy) and goes straight to the
compute stage.  Removing the serialize/deserialize pairs is where ActOp's
partitioning recovers both latency and CPU headroom.

Defaults are calibrated to the common observation that .NET binary
serialization of small RPC payloads costs tens of microseconds, and deep
copies a fraction of that.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SerializationModel"]


@dataclass(frozen=True)
class SerializationModel:
    """CPU costs of the three argument-passing paths.

    Attributes:
        serialize_base / serialize_per_byte: sender-side RPC marshalling.
        deserialize_base / deserialize_per_byte: receiver-side unmarshalling.
        copy_base / copy_per_byte: LPC deep copy (actor isolation).
    """

    serialize_base: float = 55e-6
    serialize_per_byte: float = 60e-9
    deserialize_base: float = 45e-6
    deserialize_per_byte: float = 50e-9
    copy_base: float = 5e-6
    copy_per_byte: float = 6e-9

    def serialize_cost(self, size: int) -> float:
        return self.serialize_base + self.serialize_per_byte * size

    def deserialize_cost(self, size: int) -> float:
        return self.deserialize_base + self.deserialize_per_byte * size

    def copy_cost(self, size: int) -> float:
        return self.copy_base + self.copy_per_byte * size

    def scaled(self, factor: float) -> "SerializationModel":
        """All costs multiplied by ``factor`` (the time-scaling trick:
        stretch every duration by s and divide request rates by s —
        utilization and latency *shape* are invariant while the event
        count drops s-fold)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return SerializationModel(
            serialize_base=self.serialize_base * factor,
            serialize_per_byte=self.serialize_per_byte * factor,
            deserialize_base=self.deserialize_base * factor,
            deserialize_per_byte=self.deserialize_per_byte * factor,
            copy_base=self.copy_base * factor,
            copy_per_byte=self.copy_per_byte * factor,
        )
