"""Streaming, deterministically mergeable latency sketches.

A fleet sweep folds millions of per-event wait times into a few
kilobytes of aggregate state per shard.  Two structures carry that
state:

* :class:`QuantileSketch` — a bounded-size percentile sketch in the
  t-digest tradition (a set of weighted centroids covering the value
  range, fine where the distribution is dense).  Unlike a classic
  t-digest, whose centroid positions depend on insertion and merge
  *order*, centroids here sit on a fixed geometric grid (log-bucketed,
  DDSketch-style): ``compression`` buckets per decade of latency, each
  holding an integer count.  Inserts and merges are therefore exactly
  commutative and associative — integer bucket counts add — which is
  what makes the fleet determinism contract possible at all: the merged
  sketch is *byte-identical* for a fixed population regardless of how a
  work-stealing scheduler interleaved the shards that built it.

* :class:`StageHistogram` — fixed-bucket (linear-bound) histograms per
  pipeline stage, the cheap "where did the time go" view that
  complements the sketch's accurate quantiles.

Accuracy model: a value ``x`` lands in bucket ``ceil(log_g(x/x0))``
with ``g = 10**(1/compression)``; reporting the geometric bucket
midpoint bounds the *relative value error* of any reported quantile by
``(g - 1) / (g + 1)`` (~``ln(10)/(2*compression)``).  Rank error is
zero at bucket boundaries — counts are exact — so the reported p95 is
the true quantile of a value within that relative bound.  See
``docs/fleet-scale.md`` for the bounds-vs-compression table and
``tests/test_fleet_sketch.py`` for the empirical verification.

All floating-point state that a merge touches is either an integer
(counts, nanosecond sums) or combined through order-independent
operations (min / max), so float non-associativity can never leak into
the merged digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_COMPRESSION",
    "FleetAggregator",
    "QuantileSketch",
    "StageHistogram",
    "relative_error_bound",
]

#: Default buckets-per-decade.  128 gives ~0.9% relative value error on
#: every quantile while a sketch spanning 1 us .. 1000 s stays under
#: ~1200 occupied buckets.
DEFAULT_COMPRESSION = 128

#: Smallest value (ms) the sketch resolves; anything at or below lands
#: in the underflow bucket and reports as ``min_value_ms``.
_MIN_VALUE_MS = 1e-3

#: Largest value (ns) that :meth:`QuantileSketch.add_ns` buckets by
#: table: 10,000 s, ten decades above the underflow bucket.
_TABLE_TOP_NS = 10**13


def relative_error_bound(compression: int) -> float:
    """Worst-case relative value error of a quantile estimate.

    With ``g = 10**(1/compression)`` and geometric-midpoint reporting,
    ``|estimate - true| / true <= (g - 1) / (g + 1)``.
    """
    gamma = 10.0 ** (1.0 / compression)
    return (gamma - 1.0) / (gamma + 1.0)


class QuantileSketch:
    """Bounded-memory percentile sketch with order-independent merges.

    ``add``/``merge``/``to_dict``/``digest`` are the whole lifecycle: a
    shard ``add``s every observed latency, ships the dict form home,
    and the collector ``merge``s shard sketches in *any* order — the
    result, including its :meth:`digest`, is identical for identical
    observation multisets.
    """

    __slots__ = ("compression", "_counts", "count", "sum_ns", "min_ms", "max_ms")

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        if compression < 1:
            raise ValueError(f"compression must be >= 1, got {compression}")
        self.compression = int(compression)
        #: bucket index -> integer count.  Index 0 is the underflow
        #: bucket (values <= _MIN_VALUE_MS); index i >= 1 covers
        #: (x0 * g**(i-1), x0 * g**i].
        self._counts: Dict[int, int] = {}
        self.count = 0
        #: Exact sum of observations in integer nanoseconds — integers
        #: add associatively, so the merged sum never depends on order.
        self.sum_ns = 0
        self.min_ms: Optional[float] = None
        self.max_ms: Optional[float] = None

    # -- observation ---------------------------------------------------
    def _bucket(self, value_ms: float) -> int:
        if value_ms <= _MIN_VALUE_MS:
            return 0
        return max(
            1,
            math.ceil(
                math.log10(value_ms / _MIN_VALUE_MS) * self.compression
                # Nudge values sitting exactly on a bucket boundary into
                # that bucket despite float log jitter.
                - 1e-9
            ),
        )

    def add(self, value_ms: float, weight: int = 1) -> None:
        """Fold one observation (``weight`` repeats) into the sketch."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        value_ms = float(value_ms)
        if math.isnan(value_ms) or value_ms < 0:
            raise ValueError(f"latency must be a non-negative number: {value_ms!r}")
        bucket = self._bucket(value_ms)
        self._counts[bucket] = self._counts.get(bucket, 0) + weight
        self.count += weight
        self.sum_ns += int(round(value_ms * 1e6)) * weight
        if self.min_ms is None or value_ms < self.min_ms:
            self.min_ms = value_ms
        if self.max_ms is None or value_ms > self.max_ms:
            self.max_ms = value_ms

    def extend(self, values_ms: Iterable[float]) -> None:
        for value in values_ms:
            self.add(value)

    def add_ns(self, values_ns: Sequence[int]) -> "QuantileSketch":
        """Fold integer-nanosecond observations in at once; the result
        equals ``add(ns / 1e6)`` for each value.

        Each value is bucketed by a binary search of the bucket-boundary
        table instead of a logarithm.  Up to the table's top, ``ns / 1e6
        * 1e6`` rounds back to ``ns`` exactly, so the sum is the plain
        integer sum; a value above it takes the per-value path.
        """
        if not values_ns:
            return self
        low, high = min(values_ns), max(values_ns)
        if low < 0 or high > _TABLE_TOP_NS:
            for ns in values_ns:
                self.add(ns / 1e6)
            return self
        counts = self._counts
        bounds = bucket_bounds_ns(self.compression)
        for ns in values_ns:
            bucket = bisect_left(bounds, ns)
            counts[bucket] = counts.get(bucket, 0) + 1
        self.count += len(values_ns)
        self.sum_ns += sum(values_ns)
        low_ms, high_ms = low / 1e6, high / 1e6
        if self.min_ms is None or low_ms < self.min_ms:
            self.min_ms = low_ms
        if self.max_ms is None or high_ms > self.max_ms:
            self.max_ms = high_ms
        return self

    # -- merging -------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in (in place).  Commutative and associative."""
        if other.compression != self.compression:
            raise ValueError(
                "cannot merge sketches with different compression: "
                f"{self.compression} != {other.compression}"
            )
        for bucket, weight in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + weight
        self.count += other.count
        self.sum_ns += other.sum_ns
        if other.min_ms is not None:
            self.min_ms = (
                other.min_ms if self.min_ms is None
                else min(self.min_ms, other.min_ms)
            )
        if other.max_ms is not None:
            self.max_ms = (
                other.max_ms if self.max_ms is None
                else max(self.max_ms, other.max_ms)
            )
        return self

    # -- queries -------------------------------------------------------
    def _bucket_value(self, bucket: int) -> float:
        if bucket == 0:
            return _MIN_VALUE_MS
        gamma = 10.0 ** (1.0 / self.compression)
        # Geometric midpoint of (x0 * g**(b-1), x0 * g**b].
        return _MIN_VALUE_MS * gamma ** (bucket - 0.5)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (ms); 0 for an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        # Nearest-rank on the exact counts: rank error comes only from
        # within-bucket position, value error from midpoint reporting.
        target = q * (self.count - 1)
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen > target:
                estimate = self._bucket_value(bucket)
                # Exact observed extremes beat bucket midpoints at the
                # edges (and keep estimates inside [min, max]).
                if self.min_ms is not None:
                    estimate = max(estimate, self.min_ms)
                if self.max_ms is not None:
                    estimate = min(estimate, self.max_ms)
                return estimate
        return self.max_ms if self.max_ms is not None else 0.0

    @property
    def mean_ms(self) -> float:
        return (self.sum_ns / 1e6) / self.count if self.count else 0.0

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the sketch's actual size."""
        return len(self._counts)

    def summary(self) -> dict:
        """The standard reporting quantiles, plainly keyed."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p999_ms": self.quantile(0.999),
            "max_ms": self.max_ms if self.max_ms is not None else 0.0,
        }

    # -- serialization / identity -------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "quantile-sketch",
            "compression": self.compression,
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            # Sorted (bucket, count) pairs: the canonical form hashed
            # by digest(), identical however the sketch was assembled.
            "buckets": [
                [bucket, self._counts[bucket]] for bucket in sorted(self._counts)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuantileSketch":
        if data.get("kind") != "quantile-sketch":
            raise ValueError(f"not a quantile-sketch payload: {data.get('kind')!r}")
        sketch = cls(compression=int(data["compression"]))
        sketch.count = int(data["count"])
        sketch.sum_ns = int(data["sum_ns"])
        sketch.min_ms = None if data["min_ms"] is None else float(data["min_ms"])
        sketch.max_ms = None if data["max_ms"] is None else float(data["max_ms"])
        sketch._counts = {int(b): int(c) for b, c in data["buckets"]}
        return sketch

    def digest(self) -> str:
        """Content hash of the canonical serialized form.

        Two sketches over the same observation multiset produce the
        same digest whatever order — or grouping — the observations
        arrived in; this is the byte-identity the fleet determinism
        test asserts across shard permutations.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(compression={self.compression}, "
            f"count={self.count}, buckets={self.bucket_count})"
        )


@lru_cache(maxsize=None)
def bucket_bounds_ns(compression: int) -> Tuple[int, ...]:
    """The bucket-boundary table of :meth:`QuantileSketch.add_ns`.

    Entry ``k`` is the largest integer ``ns`` that
    ``QuantileSketch._bucket(ns / 1e6)`` puts in bucket ``k`` or below,
    so ``bisect_left(table, ns)`` is that bucket for every ``ns`` up to
    the last entry, which is at least ``_TABLE_TOP_NS``.  Each entry
    starts from the closed form of the boundary (with ``_bucket``'s
    nudge) and steps to where the sketch's own bucketing changes.
    """
    sketch = QuantileSketch(compression)

    def bucket(ns: int) -> int:
        return sketch._bucket(ns / 1e6)

    top = bucket(_TABLE_TOP_NS)
    bounds = []
    for k in range(top + 1):
        ns = int(1000 * 10.0 ** ((k + 1e-9) / compression))
        while bucket(ns) > k:
            ns -= 1
        while bucket(ns + 1) <= k:
            ns += 1
        bounds.append(ns)
    return tuple(bounds)


#: Default fixed bucket upper bounds (ms) for per-stage histograms,
#: spanning instantaneous echo to the paper's multi-second long events.
DEFAULT_STAGE_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)


class StageHistogram:
    """Fixed-bucket histograms of per-stage time, keyed by stage name.

    Bounds are fixed at construction, counts are integers and sums are
    integer nanoseconds, so — like the sketch — merges are exactly
    order-independent.
    """

    __slots__ = ("bounds_ms", "_stages")

    def __init__(
        self, bounds_ms: Sequence[float] = DEFAULT_STAGE_BOUNDS_MS
    ) -> None:
        bounds = tuple(float(b) for b in bounds_ms)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bounds must be strictly increasing: {bounds_ms!r}")
        self.bounds_ms = bounds
        #: stage -> {"counts": [len(bounds)+1 ints], "count": n, "sum_ns": s}
        self._stages: Dict[str, dict] = {}

    def _stage(self, stage: str) -> dict:
        entry = self._stages.get(stage)
        if entry is None:
            entry = {
                "counts": [0] * (len(self.bounds_ms) + 1),
                "count": 0,
                "sum_ns": 0,
            }
            self._stages[stage] = entry
        return entry

    def observe(self, stage: str, value_ms: float, weight: int = 1) -> None:
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        value_ms = float(value_ms)
        if math.isnan(value_ms) or value_ms < 0:
            raise ValueError(f"stage time must be non-negative: {value_ms!r}")
        entry = self._stage(stage)
        index = len(self.bounds_ms)  # overflow bucket
        for i, bound in enumerate(self.bounds_ms):
            if value_ms <= bound:
                index = i
                break
        entry["counts"][index] += weight
        entry["count"] += weight
        entry["sum_ns"] += int(round(value_ms * 1e6)) * weight

    def merge(self, other: "StageHistogram") -> "StageHistogram":
        if other.bounds_ms != self.bounds_ms:
            raise ValueError("cannot merge stage histograms with different bounds")
        for stage, theirs in other._stages.items():
            mine = self._stage(stage)
            mine["count"] += theirs["count"]
            mine["sum_ns"] += theirs["sum_ns"]
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], theirs["counts"])
            ]
        return self

    def stages(self) -> List[str]:
        return sorted(self._stages)

    def stage_summary(self, stage: str) -> dict:
        entry = self._stages.get(stage)
        if entry is None:
            return {"count": 0, "sum_ms": 0.0, "mean_ms": 0.0}
        count = entry["count"]
        total_ms = entry["sum_ns"] / 1e6
        return {
            "count": count,
            "sum_ms": total_ms,
            "mean_ms": total_ms / count if count else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "kind": "stage-histogram",
            "bounds_ms": list(self.bounds_ms),
            "stages": {
                stage: {
                    "counts": list(entry["counts"]),
                    "count": entry["count"],
                    "sum_ns": entry["sum_ns"],
                }
                for stage, entry in sorted(self._stages.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageHistogram":
        if data.get("kind") != "stage-histogram":
            raise ValueError(f"not a stage-histogram payload: {data.get('kind')!r}")
        histogram = cls(bounds_ms=data["bounds_ms"])
        for stage, entry in data["stages"].items():
            histogram._stages[stage] = {
                "counts": [int(c) for c in entry["counts"]],
                "count": int(entry["count"]),
                "sum_ns": int(entry["sum_ns"]),
            }
        return histogram


class FleetAggregator:
    """Per-group streaming aggregate of a fleet's session results.

    Groups are ``(os personality, scenario)`` pairs — the reporting
    axes of ``ext-fleet``.  Each group holds a wait-time sketch, a
    session-span sketch and a stage histogram; state is O(groups x
    sketch size), independent of session count.  ``merge`` folds a
    shard's aggregator in with the same order-independence guarantees
    as the underlying sketches, and :meth:`digest` hashes the whole
    canonical state.
    """

    __slots__ = ("compression", "groups", "sessions", "events")

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        self.compression = int(compression)
        #: (os_name, scenario) -> {"wait": QuantileSketch,
        #: "span": QuantileSketch, "stages": StageHistogram,
        #: "envelope": {stage: QuantileSketch}, "envelope_events": int,
        #: "sessions": int}
        self.groups: Dict[Tuple[str, str], dict] = {}
        self.sessions = 0
        self.events = 0

    def _group(self, os_name: str, scenario: str) -> dict:
        key = (os_name, scenario)
        group = self.groups.get(key)
        if group is None:
            group = {
                "wait": QuantileSketch(self.compression),
                "span": QuantileSketch(self.compression),
                "stages": StageHistogram(),
                "envelope": {},
                "envelope_events": 0,
                "sessions": 0,
            }
            self.groups[key] = group
        return group

    @staticmethod
    def _fold_envelope(group: dict, sketches: Mapping) -> None:
        """Merge per-stage envelope sketches into a group (commutative)."""
        for stage, sketch in sketches.items():
            if isinstance(sketch, Mapping):
                sketch = QuantileSketch.from_dict(sketch)
            mine = group["envelope"].get(stage)
            if mine is None:
                fresh = QuantileSketch(sketch.compression)
                group["envelope"][stage] = fresh.merge(sketch)
            else:
                mine.merge(sketch)

    def add_session(self, result) -> None:
        """Fold one :class:`~repro.fleet.session.SessionResult` in."""
        group = self._group(result.os_name, result.scenario or "healthy")
        group["sessions"] += 1
        self.sessions += 1
        for latency_ms in result.wait_ms:
            group["wait"].add(latency_ms)
            self.events += 1
        group["span"].add(result.span_ms)
        for stage, value_ms in result.stage_ms.items():
            group["stages"].observe(stage, value_ms)
        self._fold_envelope(group, getattr(result, "envelopes", {}) or {})
        group["envelope_events"] += int(getattr(result, "envelope_events", 0))

    def merge(self, other: "FleetAggregator") -> "FleetAggregator":
        if other.compression != self.compression:
            raise ValueError(
                "cannot merge aggregators with different compression: "
                f"{self.compression} != {other.compression}"
            )
        for key, theirs in other.groups.items():
            mine = self._group(*key)
            mine["wait"].merge(theirs["wait"])
            mine["span"].merge(theirs["span"])
            mine["stages"].merge(theirs["stages"])
            self._fold_envelope(mine, theirs["envelope"])
            mine["envelope_events"] += theirs["envelope_events"]
            mine["sessions"] += theirs["sessions"]
        self.sessions += other.sessions
        self.events += other.events
        return self

    def envelope_summary(self, os_name: str, scenario: str) -> Dict[str, dict]:
        """Per-stage quantile summaries for one group (empty if none)."""
        group = self.groups.get((os_name, scenario))
        if group is None:
            return {}
        return {
            stage: sketch.summary()
            for stage, sketch in sorted(group["envelope"].items())
        }

    def dominant_stage(self, os_name: str, scenario: str, q: float = 0.95) -> Optional[str]:
        """The stage with the largest ``q``-quantile in one group — the
        fleet-level answer to "where does the wait come from?"."""
        group = self.groups.get((os_name, scenario))
        if not group or not group["envelope"]:
            return None
        return max(
            sorted(group["envelope"]),
            key=lambda stage: group["envelope"][stage].quantile(q),
        )

    def group_keys(self) -> List[Tuple[str, str]]:
        return sorted(self.groups)

    def to_dict(self) -> dict:
        return {
            "kind": "fleet-aggregate",
            "compression": self.compression,
            "sessions": self.sessions,
            "events": self.events,
            "groups": {
                f"{os_name}/{scenario}": {
                    "os": os_name,
                    "scenario": scenario,
                    "sessions": group["sessions"],
                    "wait": group["wait"].to_dict(),
                    "span": group["span"].to_dict(),
                    "stages": group["stages"].to_dict(),
                    "envelope": {
                        stage: sketch.to_dict()
                        for stage, sketch in sorted(group["envelope"].items())
                    },
                    "envelope_events": group["envelope_events"],
                }
                for (os_name, scenario), group in sorted(self.groups.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetAggregator":
        if data.get("kind") != "fleet-aggregate":
            raise ValueError(f"not a fleet-aggregate payload: {data.get('kind')!r}")
        aggregator = cls(compression=int(data["compression"]))
        aggregator.sessions = int(data["sessions"])
        aggregator.events = int(data["events"])
        for group in data["groups"].values():
            aggregator.groups[(group["os"], group["scenario"])] = {
                "wait": QuantileSketch.from_dict(group["wait"]),
                "span": QuantileSketch.from_dict(group["span"]),
                "stages": StageHistogram.from_dict(group["stages"]),
                # .get: payloads from before stage envelopes existed.
                "envelope": {
                    stage: QuantileSketch.from_dict(payload)
                    for stage, payload in group.get("envelope", {}).items()
                },
                "envelope_events": int(group.get("envelope_events", 0)),
                "sessions": int(group["sessions"]),
            }
        return aggregator

    def digest(self) -> str:
        """Content hash of the merged state (see the determinism test)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
