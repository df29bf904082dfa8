"""Lossless fixed-bucket histograms — the shared aggregation primitive.

Extracted from the service metrics layer so every population-scale
consumer (the cluster ``/metrics`` merge, the fleet Monte Carlo driver)
shares one implementation without importing :mod:`repro.service`.

The design point is *losslessness under merge*: a histogram is integer
bucket counts plus a count/sum/max triple, every field of which merges
associatively — so aggregating per-shard histograms produces exactly the
per-bucket counts a single shared histogram would have observed, and
quantile estimates carry the same one-bucket error bound regardless of
how many processes the observations were scattered across.  The
``to_dict`` / ``from_dict`` documents round-trip through JSON exactly
(Python serialises floats via ``repr``), which is what lets snapshots
cross process boundaries and still merge losslessly.

Two deliberate determinism properties for the fleet driver:

* bucket counts, the total count, and the max are exact and
  order-independent;
* :meth:`FixedBucketHistogram.observe_many` accumulates the value sum
  with :func:`math.fsum` (correctly rounded, hence independent of both
  observation order and of whether the NumPy bucketing fast path ran),
  so per-shard sums are reproducible bit for bit across worker counts.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Type

import numpy as np

__all__ = [
    "FixedBucketHistogram",
    "merge_histograms",
    "merge_histogram_dicts",
]


class FixedBucketHistogram:
    """Fixed-bucket histogram over arbitrary (possibly negative) values.

    ``observe`` is O(log buckets); memory is O(buckets) regardless of
    observation volume — the standard production trade-off (exact
    quantiles are not worth an unbounded reservoir at millions of
    sessions).  Quantiles are estimated by linear interpolation inside
    the bucket containing the target rank, exact to within one bucket
    width.

    Subclasses may pin a unit suffix for the serialized document keys
    (``key_suffix``), restrict values to be non-negative
    (``non_negative``), and fix the interpolation lower edge of the
    underflow bucket (``underflow_lower``) — the service layer's
    ``LatencyHistogram`` does all three.
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_max")

    #: Appended to ``bounds``/``sum``/``mean``/``max``/``p50``/``p99``
    #: keys in the serialized document (e.g. ``"_us"`` for latencies).
    key_suffix = ""
    #: When True, negative observations and non-positive bounds raise.
    non_negative = False
    #: Name used in the negative-observation error message.
    value_name = "value"
    #: Lower interpolation edge of the underflow bucket; ``None`` means
    #: one first-bucket-width below the first bound.
    underflow_lower: Optional[float] = None

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = [float(b) for b in bounds]
        if not edges or edges != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket bounds must be strictly increasing")
        if self.non_negative and edges[0] <= 0:
            raise ValueError("bucket bounds must be positive")
        self._bounds = edges
        self._counts = [0] * (len(edges) + 1)  # last bucket = +inf
        self._count = 0
        self._sum = 0.0
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(self, value: float) -> None:
        if self.non_negative and value < 0:
            raise ValueError(f"{self.value_name} must be >= 0")
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk :meth:`observe` with order-independent accumulation.

        Bucket counts come from a vectorized ``searchsorted`` (identical
        to per-value ``bisect_left``); the sum uses :func:`math.fsum`, so
        the result does not depend on the order of ``values``.
        """
        arr = np.asarray(values, dtype=np.float64)
        if not arr.size:
            return
        values = arr.tolist()
        if self.non_negative and min(values) < 0:
            raise ValueError(f"{self.value_name} must be >= 0")
        idx = np.searchsorted(np.asarray(self._bounds), arr, side="left")
        for i, c in zip(*[u.tolist() for u in np.unique(idx, return_counts=True)]):
            self._counts[i] += c
        self._count += len(values)
        self._sum = math.fsum([self._sum] + values)
        peak = max(values)
        if peak > self._max:
            self._max = peak

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max_value(self) -> float:
        return self._max if self._count else 0.0

    @property
    def sum_value(self) -> float:
        return self._sum

    @property
    def bounds(self) -> tuple:
        return tuple(self._bounds)

    @property
    def bucket_counts(self) -> tuple:
        return tuple(self._counts)

    def _underflow_edge(self) -> float:
        if self.underflow_lower is not None:
            return self.underflow_lower
        if len(self._bounds) > 1:
            return self._bounds[0] - (self._bounds[1] - self._bounds[0])
        return self._bounds[0] - 1.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]; 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self._bounds[i - 1] if i > 0 else self._underflow_edge()
                # The overflow bucket has no upper edge; report the max seen.
                upper = self._bounds[i] if i < len(self._bounds) else self._max
                if upper <= lower:
                    return upper
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self._max  # pragma: no cover - numeric safety

    # ------------------------------------------------------------------
    # Merge + serialization — the lossless cluster/fleet path
    # ------------------------------------------------------------------

    def merge(self, other: "FixedBucketHistogram") -> None:
        """Fold another histogram (same bounds) into this one."""
        if other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self._count += other._count
        self._sum += other._sum
        self._max = max(self._max, other._max)

    def to_dict(self) -> dict:
        s = self.key_suffix
        return {
            f"bounds{s}": list(self._bounds),
            "counts": list(self._counts),
            "count": self._count,
            f"sum{s}": self._sum,
            f"mean{s}": self.mean,
            f"max{s}": self.max_value,
            f"p50{s}": self.quantile(0.50),
            f"p99{s}": self.quantile(0.99),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FixedBucketHistogram":
        """Reconstruct a histogram from its :meth:`to_dict` document.

        The per-bucket counts, total count, sum, and max round-trip
        exactly (JSON floats serialise via ``repr``), so a snapshot
        shipped across a process boundary merges losslessly — the
        mechanism behind both the cluster-wide ``/metrics`` aggregation
        and the fleet driver's population merge.
        """
        if not isinstance(payload, dict):
            raise ValueError("histogram payload must be a JSON object")
        s = cls.key_suffix
        try:
            bounds = payload[f"bounds{s}"]
            counts = [int(c) for c in payload["counts"]]
            count = int(payload["count"])
            total = float(payload[f"sum{s}"])
            peak = float(payload[f"max{s}"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed histogram payload: {exc}") from None
        histogram = cls(bounds)
        if len(counts) != len(histogram._counts):
            raise ValueError(
                f"{len(counts)} bucket counts for {len(bounds)} bounds"
            )
        if any(c < 0 for c in counts) or count != sum(counts):
            raise ValueError("bucket counts must be >= 0 and sum to the count")
        histogram._counts = counts
        histogram._count = count
        histogram._sum = total
        histogram._max = peak if count else -math.inf
        return histogram


def merge_histograms(
    histograms: Sequence[FixedBucketHistogram],
) -> FixedBucketHistogram:
    """Merge histograms (same class, same bounds) into a fresh instance."""
    if not histograms:
        raise ValueError("need at least one histogram to merge")
    cls = type(histograms[0])
    merged = cls(histograms[0].bounds)
    for histogram in histograms:
        merged.merge(histogram)
    return merged


def merge_histogram_dicts(
    payloads: List[dict],
    cls: Type[FixedBucketHistogram] = FixedBucketHistogram,
) -> dict:
    """Merge serialized histogram documents; the cluster-metrics path."""
    merged = cls.from_dict(payloads[0])
    for payload in payloads[1:]:
        merged.merge(cls.from_dict(payload))
    return merged.to_dict()
