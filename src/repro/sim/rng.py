"""Deterministic named random-number substreams.

Every stochastic component (workload arrivals, service times, network
jitter, placement policies, the partitioning protocol's peer selection)
draws from its own named substream so that changing one component does not
perturb another — the standard variance-reduction discipline for
simulation studies.  Substreams are derived from a root seed with a stable
hash of the stream name, so runs are reproducible across processes
(``PYTHONHASHSEED`` does not affect them).
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry"]


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory of named, deterministic :class:`random.Random` substreams."""

    # Armed race sanitizer (set on the class by ``Sanitizer.arm``, cleared
    # by ``disarm``); class-level None keeps a disarmed run from importing it.
    _san = None

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use.

        When the race sanitizer is armed, newly created streams are
        wrapped so each draw is recorded as a write to the stream's
        generator state.  The check runs once per stream *creation*
        (streams are cached), so the disarmed path is unchanged.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.seed, name))
            san = self._san
            if san is not None:
                rng = san.wrap_rng(name, rng)
            self._streams[name] = rng
        return rng
