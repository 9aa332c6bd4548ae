# SpaceSaving as it stood at 38de17e, before decay stopped rescaling the
# heap: the oracle for tests/property/test_prop_spacesaving.py.
"""Space-Saving top-k stream sampling (Metwally, Agrawal, El Abbadi 2005).

§4.3 of the paper: each server keeps only the *heaviest* communication
edges, found by running Space-Saving over the stream of observed messages.
"Light" edges cannot influence partitioning (only small candidate sets are
exchanged), so a constant-size summary suffices.

This implementation supports **weighted** increments (servers fold
per-actor message counters in periodically, so one offer may carry many
messages) and keeps the classic guarantees:

* every key with true count > N/capacity is present in the summary, and
* for each monitored key, ``count - error <= true <= count``.

The minimum element is tracked with a lazily-invalidated heap that is
rebuilt when stale entries pile up, giving amortized O(log capacity) per
offer without the pointer gymnastics of the stream-summary structure.
"""

from __future__ import annotations

import heapq
from typing import Generic, Hashable, Iterable, TypeVar

__all__ = ["SpaceSaving"]

K = TypeVar("K", bound=Hashable)


class SpaceSaving(Generic[K]):
    """A fixed-capacity heavy-hitter summary."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # key -> [count, error]; lists to allow in-place increments.
        self._entries: dict[K, list[float]] = {}
        self._heap: list[tuple[float, K]] = []
        self.total_weight = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def offer(self, key: K, weight: float = 1.0) -> None:
        """Record ``weight`` more observations of ``key``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.total_weight += weight
        entry = self._entries.get(key)
        if entry is not None:
            # In-place increment only: the key's existing heap pair goes
            # stale (count too low) and is lazily refreshed by _pop_min.
            # Pushing here — the old behavior — grew the heap by one pair
            # per offer and made every fold O(stream log stream).
            entry[0] += weight
        elif len(self._entries) < self.capacity:
            self._entries[key] = [weight, 0.0]
            heapq.heappush(self._heap, (weight, key))
        else:
            min_count, victim = self._pop_min()
            del self._entries[victim]
            # The newcomer inherits the victim's count as overestimation
            # error — the signature Space-Saving move.
            self._entries[key] = [min_count + weight, min_count]
            heapq.heappush(self._heap, (min_count + weight, key))
            if len(self._heap) > max(64, 2 * self.capacity):
                self._rebuild_heap()

    def _pop_min(self) -> tuple[float, K]:
        """Pop the live minimum (count, key) pair.

        Heap pairs are lower bounds: a pair's count can only lag its
        entry (offers never push).  So when the top pair is live it is
        the true minimum — any other entry's count dominates its own
        heap pair, which dominates the top.  Stale-low pairs are
        refreshed in place (heapreplace) instead of accumulating.
        """
        heap = self._heap
        entries = self._entries
        while heap:
            count, key = heap[0]
            entry = entries.get(key)
            if entry is None:
                heapq.heappop(heap)  # forgotten key
                continue
            if entry[0] == count:
                heapq.heappop(heap)
                return count, key
            heapq.heapreplace(heap, (entry[0], key))
        raise RuntimeError("heap/entries desynchronized")  # pragma: no cover

    def _rebuild_heap(self) -> None:
        self._heap = [(entry[0], key) for key, entry in self._entries.items()]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    def count(self, key: K) -> float:
        """Monitored (over-)estimate of the key's count; 0 if unmonitored."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else 0.0

    def guaranteed_count(self, key: K) -> float:
        """Lower bound on the true count (count - error)."""
        entry = self._entries.get(key)
        return entry[0] - entry[1] if entry is not None else 0.0

    def error(self, key: K) -> float:
        entry = self._entries.get(key)
        return entry[1] if entry is not None else 0.0

    def top(self, k: int) -> list[tuple[K, float]]:
        """The k heaviest monitored keys as (key, estimated count)."""
        ordered = sorted(self._entries.items(), key=lambda kv: kv[1][0], reverse=True)
        return [(key, entry[0]) for key, entry in ordered[:k]]

    def items(self) -> Iterable[tuple[K, float]]:
        """All monitored (key, estimated count) pairs, unordered."""
        return ((key, entry[0]) for key, entry in self._entries.items())

    def decay(self, factor: float) -> None:
        """Multiply every count by ``factor`` in (0, 1].

        Exponential decay lets the summary track *rates* on a changing
        graph (§4.1's "rapidly time-varying actor graphs") instead of
        lifetime totals: old edges fade, freeing room for new ones.

        Scaling every heap entry by the same positive factor preserves
        both the heap invariant and the live/stale distinction (a heap
        count matches its entry's count after scaling iff it matched
        before), so no rebuild — and no O(n) heapify — is needed.
        """
        if not 0 < factor <= 1:
            raise ValueError("decay factor must be in (0, 1]")
        if factor == 1.0:
            return
        for entry in self._entries.values():
            entry[0] *= factor
            entry[1] *= factor
        self._heap = [(count * factor, key) for count, key in self._heap]
        self.total_weight *= factor

    def forget(self, key: K) -> None:
        """Drop a key (e.g. an actor that was migrated away).  O(1).

        The key's heap entries become stale and are skipped by
        :meth:`_pop_min` / discarded at the next threshold rebuild —
        the same lazy machinery that absorbs count updates.  (Migration-
        heavy runs call ``forget`` once per moved actor per fold, so an
        eager rebuild here was quadratic in the migration rate.)
        """
        if self._entries.pop(key, None) is not None:
            # Safety valve: if forgets have made the heap mostly stale
            # without intervening offers, compact it here.
            if len(self._heap) > max(64, 2 * len(self._entries)):
                self._rebuild_heap()
