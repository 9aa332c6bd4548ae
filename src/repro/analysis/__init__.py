"""Runtime sanitizer for the reproduction's invariants.

Seeded runs must be bit-identical and actors must own only their
state.  The sanitizer (:mod:`repro.analysis.sanitizer`) watches a live
cluster for the hazards that break either — same-instant
cross-activation state conflicts, message payloads that alias sender
state or will not pickle, shared RNG stream draws, and
hash-order-dependent results.  The digest pins and reproducibility
tests check the same guarantees on every seeded run.

Exposed through ``repro sanitize`` (see ``python -m repro sanitize --help``).
"""

from .sanitizer import (
    Conflict,
    OrderProbe,
    PayloadEvent,
    Sanitizer,
    current,
    detect_order_dependence,
)

__all__ = [
    "PayloadEvent",
    "Conflict",
    "OrderProbe",
    "Sanitizer",
    "current",
    "detect_order_dependence",
]
