"""Measurement utilities: latency recorders, time series, counters.

The paper reports medians, 95th/99th percentiles and CDFs of end-to-end
latency (Figs. 10–11), plus time series of remote-message share and actor
movements (Fig. 10a).  These helpers collect exactly those, with an
optional reservoir cap so multi-minute simulations stay in memory.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

__all__ = ["HistogramRecorder", "LatencyRecorder", "TimeSeries", "percentile"]

RESERVOIR_SEED = 0          # reservoir sampling's RNG seed (reproducible)
# HistogramRecorder's bucketing: quantiles within 1% relative error;
# values below MIN_VALUE share the underflow bucket.
MAX_RELATIVE_ERROR = 0.01
MIN_VALUE = 1e-7


def percentile(samples: Sequence[float], q: float) -> float:
    """q-th percentile (q in [0, 100]) by linear interpolation.

    Mirrors numpy's default so tests can cross-check, without forcing the
    hot path through numpy conversions.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


class LatencyRecorder:
    """Collects latency samples; answers mean / percentile / CDF queries.

    Args:
        reservoir: if set, keep at most this many samples via uniform
            reservoir sampling (Vitter's algorithm R).  Mean and count stay
            exact; percentiles become estimates — fine at the reservoir
            sizes used by the benches (>= 50k).  The reservoir draws
            from a :data:`RESERVOIR_SEED`-seeded RNG, so it is
            reproducible.
    """

    def __init__(self, reservoir: Optional[int] = None):
        self._samples: list[float] = []
        self._reservoir = reservoir
        self._rng = random.Random(RESERVOIR_SEED)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if self._reservoir is None or len(self._samples) < self._reservoir:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir:
                self._samples[slot] = value

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self._samples, q)

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def cdf(self, points: int = 100) -> list[tuple[float, float]]:
        """Return (latency, cumulative fraction) pairs."""
        if not self._samples:
            return []
        data = sorted(self._samples)
        n = len(data)
        step = max(1, n // points)
        out = [(data[i], (i + 1) / n) for i in range(0, n, step)]
        if out[-1][0] != data[-1]:
            out.append((data[-1], 1.0))
        return out

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder into this one.

        ``count`` / ``total`` / ``max_value`` stay exact.  The merged
        reservoir is built by a weighted draw: each slot picks from one
        side with probability proportional to that side's *underlying*
        stream length, so the result is an (approximately) uniform sample
        of the union stream.  Replaying the other reservoir through
        :meth:`record` — the old behaviour — double-sampled the already
        down-sampled reservoir and skewed percentiles toward whichever
        side was merged last.
        """
        n1, n2 = self.count, other.count
        if n2 == 0:
            return
        self.count = n1 + n2
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        s1, s2 = self._samples, other._samples
        if n1 == 0:
            self._samples = list(s2)
            if self._reservoir is not None and len(self._samples) > self._reservoir:
                self._samples = self._rng.sample(self._samples, self._reservoir)
            return
        available = len(s1) + len(s2)
        target = available if self._reservoir is None else min(self._reservoir, available)
        # How many of the merged slots come from self's stream: binomial
        # draw with p = n1/(n1+n2), clamped so both sides can supply their
        # share.  When neither side was down-sampled the clamp forces
        # take1 == len(s1) and the merge is exact.
        p = n1 / (n1 + n2)
        rng = self._rng
        take1 = sum(1 for _ in range(target) if rng.random() < p)
        take1 = max(target - len(s2), min(take1, len(s1)))
        merged = rng.sample(s1, take1) + rng.sample(s2, target - take1)
        rng.shuffle(merged)  # keep future algorithm-R replacement uniform
        self._samples = merged

    def summary(self) -> dict[str, float]:
        """The row shape the paper's tables use."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
        }


class HistogramRecorder:
    """Mergeable log-bucketed streaming histogram (HDR-histogram style).

    Values are counted in geometrically spaced buckets: bucket ``i`` covers
    ``[MIN_VALUE * g**(i-1), MIN_VALUE * g**i)`` with growth factor
    ``g = 1 + MAX_RELATIVE_ERROR``, so quantiles are accurate to within
    that relative error, and everything in ``[0, MIN_VALUE)`` lands in
    the underflow bucket 0.  That makes :meth:`record` O(1) (one
    ``log`` and a dict increment), quantiles O(buckets), and memory
    proportional to the *dynamic range* of the data rather than the sample
    count — unlike :class:`LatencyRecorder`, which keeps (a reservoir of)
    raw samples and sorts them per percentile query.

    Histograms share one bucketing, so two merge exactly (bucket counts
    add), and per-silo or per-window histograms can be combined without
    bias; merge is associative and commutative on counts.
    """

    def __init__(self):
        self.min_value = MIN_VALUE
        self._growth = 1.0 + MAX_RELATIVE_ERROR
        self._inv_log_g = 1.0 / math.log(self._growth)
        self._log_min = math.log(MIN_VALUE)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.min_seen = math.inf

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """O(1): bucket the value and bump exact count/total/extrema."""
        if value < 0:
            raise ValueError(f"negative value {value}")
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_seen:
            self.min_seen = value
        if value < self.min_value:
            index = 0
        else:
            index = 1 + int((math.log(value) - self._log_min) * self._inv_log_g)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def _bucket_mid(self, index: int) -> float:
        if index <= 0:
            return self.min_value / 2.0
        lower = self.min_value * self._growth ** (index - 1)
        return lower * (1.0 + self._growth) / 2.0

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100]) to within one bucket width."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self.count <= 0:
            raise ValueError("no samples")
        buckets = self._buckets
        rank = (q / 100.0) * self.count
        cumulative = 0
        result = 0.0
        for index in sorted(buckets):
            cumulative += buckets[index]
            if cumulative >= rank:
                result = self._bucket_mid(index)
                break
        # Clamp to the observed range so extreme quantiles never report
        # values outside the data.
        lo = self.min_seen if self.min_seen is not math.inf else 0.0
        return min(max(result, lo), self.max_value)

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict[str, float]:
        """Same row shape as :meth:`LatencyRecorder.summary`."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
        }

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "HistogramRecorder") -> None:
        """Exact merge: bucket counts add; count/total/extrema stay exact."""
        buckets = self._buckets
        for index, c in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + c
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        if other.min_seen < self.min_seen:
            self.min_seen = other.min_seen


class TimeSeries:
    """Ordered (time, value) samples, e.g. remote-message share over time."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be recorded in order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> float:
        if not self.values:
            raise ValueError("empty time series")
        return self.values[-1]

    def tail_mean(self, fraction: float = 0.5) -> float:
        """Mean of the last ``fraction`` of samples (steady-state value)."""
        if not self.values:
            raise ValueError("empty time series")
        start = int(len(self.values) * (1 - fraction))
        tail = self.values[start:]
        return sum(tail) / len(tail)

    def merge(self, other: "TimeSeries") -> None:
        """Exact merge: interleave ``other``'s samples by timestamp.

        Both series stay individually ordered, so a stable two-pointer
        merge preserves the in-order invariant; on timestamp ties
        ``self``'s sample precedes ``other``'s (merging per-silo series
        in silo order is therefore deterministic).  ``other`` is left
        untouched.
        """
        if not other.times:
            return
        if not self.times or self.times[-1] <= other.times[0]:
            # Common fast path: windows don't overlap, just append.
            self.times.extend(other.times)
            self.values.extend(other.values)
            return
        times: list[float] = []
        values: list[float] = []
        i = j = 0
        while i < len(self.times) and j < len(other.times):
            if self.times[i] <= other.times[j]:
                times.append(self.times[i])
                values.append(self.values[i])
                i += 1
            else:
                times.append(other.times[j])
                values.append(other.values[j])
                j += 1
        times.extend(self.times[i:])
        values.extend(self.values[i:])
        times.extend(other.times[j:])
        values.extend(other.values[j:])
        self.times = times
        self.values = values

    def items(self) -> Iterable[tuple[float, float]]:
        return zip(self.times, self.values)
