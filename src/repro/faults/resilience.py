"""Client-side resilience policies: retries, deadlines, admission.

These are pure configuration dataclasses; the mechanisms live in
:class:`~repro.actor.core.ClusterCore`, under either driver.  They model
the standard production toolkit the paper's §2 contract presumes around
an actor cluster ("callers see timeouts, not hangs") but never spells out:

* :class:`RetryPolicy` — exponential backoff with jitter, capped
  attempts, idempotency-aware (non-idempotent requests are never
  re-dispatched).
* per-request **deadline** — an end-to-end budget layered on top of the
  per-attempt ``call_timeout``; retries never extend past it.
* :class:`AdmissionConfig` — a bounded client-request admission window
  with a load-shedding policy (``reject`` new arrivals vs. ``drop_oldest``
  in-flight), plus the per-silo receiver-queue bound.

``ResilienceConfig`` composes all three; every field defaults to "off",
and an "off" field adds no event and no RNG draw to a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "AdmissionConfig", "ResilienceConfig"]

SHED_POLICIES = ("reject", "drop_oldest")


# The backoff schedule (unscaled seconds): retry n waits
# min(MAX_DELAY, BASE_DELAY * MULTIPLIER**(n-1)) * (1 + JITTER * U).
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 2.0
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    The delay before retry attempt ``n`` (1-based) is::

        min(MAX_DELAY, BASE_DELAY * MULTIPLIER**(n-1)) * (1 + JITTER * U)

    with ``U`` uniform in [0, 1) from the ``resilience.retry`` substream,
    so seeded runs retry at reproducible instants.

    ``max_attempts`` counts total dispatches (1 = no retries).  Requests
    issued with ``idempotent=False`` fail on their first timeout —
    re-dispatching a non-idempotent operation could double-apply it.
    Nothing infers replay safety: the issuer declares it per request.
    """

    max_attempts: int = 3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_for(self, attempt: int, rng) -> float:
        """Backoff before retry ``attempt`` (1-based), unscaled seconds."""
        delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
        return delay * (1.0 + JITTER * rng.random())


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded admission of client requests, with load shedding.

    Attributes:
        capacity: max in-flight client requests cluster-wide (None = no
            bound).  Arrivals beyond it are shed per ``policy``.
        policy: ``"reject"`` sheds the *new* arrival; ``"drop_oldest"``
            abandons the oldest in-flight request to admit the new one
            (fresher work is likelier to still matter to its caller).
        receiver_queue: per-silo receiver-stage bound on queued client
            requests.
    """

    capacity: Optional[int] = None
    policy: str = "reject"
    receiver_queue: Optional[int] = None

    def __post_init__(self):
        if self.policy not in SHED_POLICIES:
            raise ValueError(
                f"policy must be one of {SHED_POLICIES}, got {self.policy!r}")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.receiver_queue is not None and self.receiver_queue < 0:
            raise ValueError("receiver_queue must be >= 0")


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything between "request issued" and "caller sees an outcome".

    Attributes:
        call_timeout: per-attempt timeout in unscaled seconds (also the
            default for actor-to-actor calls).
        request_deadline: end-to-end client-request budget in unscaled
            seconds; retries stop once it would be exceeded.
        retry: retry policy for timed-out client requests (None = fail
            on first timeout).
        admission: admission/shedding configuration (None = unbounded).
    """

    call_timeout: Optional[float] = None
    request_deadline: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    admission: Optional[AdmissionConfig] = None

    def __post_init__(self):
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ValueError("call_timeout must be positive")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive")
