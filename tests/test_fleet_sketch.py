"""Unit and property tests for the fleet latency sketches.

The fleet determinism contract rests on two properties proved here:
sketch merges are exactly commutative and associative (integer bucket
counts), and every reported quantile sits within the guaranteed
relative value error of the exact nearest-rank quantile.
"""

import json
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.session import SessionResult
from repro.fleet.sketch import (
    _TABLE_TOP_NS,
    DEFAULT_COMPRESSION,
    FleetAggregator,
    QuantileSketch,
    StageHistogram,
    bucket_bounds_ns,
    relative_error_bound,
)

QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999)


def exact_quantile(values, q):
    """Nearest-rank with the sketch's own rank semantics."""
    ordered = sorted(values)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


def sketch_of(values, compression=DEFAULT_COMPRESSION):
    sketch = QuantileSketch(compression)
    sketch.extend(values)
    return sketch


def _distributions():
    rng = random.Random(42)
    return {
        "uniform": [rng.uniform(0.5, 200.0) for _ in range(2000)],
        "lognormal": [rng.lognormvariate(1.0, 1.2) for _ in range(2000)],
        "exponential": [rng.expovariate(1 / 30.0) + 0.01 for _ in range(2000)],
        "bimodal": [
            rng.uniform(1.0, 5.0) if rng.random() < 0.9
            else rng.uniform(500.0, 3000.0)
            for _ in range(2000)
        ],
    }


class TestQuantileAccuracy:
    @pytest.mark.parametrize("compression", [32, 64, 128, 256])
    def test_within_relative_bound_on_known_distributions(self, compression):
        bound = relative_error_bound(compression)
        for name, values in _distributions().items():
            sketch = sketch_of(values, compression)
            for q in QUANTILES:
                exact = exact_quantile(values, q)
                estimate = sketch.quantile(q)
                assert abs(estimate - exact) <= bound * exact + 1e-12, (
                    f"{name} q={q} compression={compression}: "
                    f"{estimate} vs exact {exact} (bound {bound:.4%})"
                )

    def test_bound_shrinks_with_compression(self):
        bounds = [relative_error_bound(c) for c in (32, 64, 128, 256)]
        assert bounds == sorted(bounds, reverse=True)
        assert relative_error_bound(128) < 0.01

    def test_single_value_is_exact(self):
        sketch = sketch_of([17.3])
        for q in QUANTILES:
            assert sketch.quantile(q) == 17.3

    def test_quantiles_monotone_in_q(self):
        sketch = sketch_of(_distributions()["lognormal"])
        estimates = [sketch.quantile(q) for q in QUANTILES]
        assert estimates == sorted(estimates)

    def test_estimates_clamped_to_observed_extremes(self):
        values = [2.0, 3.0, 100.0]
        sketch = sketch_of(values)
        assert sketch.quantile(0.0) >= 2.0
        assert sketch.quantile(1.0) <= 100.0

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.count == 0
        assert sketch.summary()["count"] == 0
        assert sketch.mean_ms == 0.0

    def test_mean_is_exact(self):
        values = [1.5, 2.5, 10.0]
        sketch = sketch_of(values)
        assert sketch.mean_ms == pytest.approx(sum(values) / len(values))

    def test_underflow_values_resolve_to_floor(self):
        sketch = sketch_of([1e-6, 1e-5, 1e-4])
        # Everything below the resolution floor shares the underflow
        # bucket; estimates stay clamped inside [min, max].
        assert 1e-6 <= sketch.quantile(0.5) <= 1e-4


class TestMergeAlgebra:
    def test_merge_commutative(self):
        values = _distributions()["uniform"]
        a1, b1 = sketch_of(values[:700]), sketch_of(values[700:])
        a2, b2 = sketch_of(values[:700]), sketch_of(values[700:])
        assert a1.merge(b1).digest() == b2.merge(a2).digest()

    def test_merge_associative(self):
        values = _distributions()["bimodal"]
        parts = [values[:500], values[500:1100], values[1100:]]

        left = sketch_of(parts[0]).merge(sketch_of(parts[1]))
        left.merge(sketch_of(parts[2]))
        right_tail = sketch_of(parts[1]).merge(sketch_of(parts[2]))
        right = sketch_of(parts[0]).merge(right_tail)
        assert left.digest() == right.digest()

    def test_merge_equals_single_pass(self):
        values = _distributions()["exponential"]
        merged = sketch_of(values[:333]).merge(sketch_of(values[333:]))
        assert merged.digest() == sketch_of(values).digest()

    def test_weighted_add_equals_repeats(self):
        a = QuantileSketch()
        a.add(42.0, weight=3)
        b = QuantileSketch()
        for _ in range(3):
            b.add(42.0)
        assert a.digest() == b.digest()

    def test_merge_compression_mismatch_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            QuantileSketch(64).merge(QuantileSketch(128))

    @given(
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100)
    def test_merge_order_and_partition_invariance(self, values, order_seed):
        """Any partition, merged in any order, is byte-identical."""
        reference = sketch_of(values).digest()
        rng = random.Random(order_seed)
        chunks = []
        remaining = list(values)
        while remaining:
            take = rng.randint(1, len(remaining))
            chunks.append(remaining[:take])
            remaining = remaining[take:]
        rng.shuffle(chunks)
        merged = QuantileSketch()
        for chunk in chunks:
            merged.merge(sketch_of(chunk))
        assert merged.digest() == reference


class TestValidationAndSerialization:
    def test_invalid_inputs_rejected(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            sketch.add(1.0, weight=0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(0)

    def test_round_trip_preserves_digest_and_quantiles(self):
        sketch = sketch_of(_distributions()["lognormal"])
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.digest() == sketch.digest()
        for q in QUANTILES:
            assert clone.quantile(q) == sketch.quantile(q)
        assert clone.mean_ms == sketch.mean_ms

    def test_dict_form_is_json_and_canonical(self):
        sketch = sketch_of([1.0, 2.0, 3.0])
        data = json.loads(json.dumps(sketch.to_dict()))
        assert data["kind"] == "quantile-sketch"
        assert data["buckets"] == sorted(data["buckets"])

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="quantile-sketch"):
            QuantileSketch.from_dict({"kind": "nope"})


BOUNDS_NS = bucket_bounds_ns(DEFAULT_COMPRESSION)

#: Integer nanoseconds: zero, the underflow bucket (<= 1,000 ns), each
#: table boundary +-1, log-uniform values up to 10**13 ns, and a few
#: beyond the table's top.
NANOSECONDS = st.one_of(
    st.just(0),
    st.integers(0, 1_000),
    st.sampled_from(BOUNDS_NS).flatmap(
        lambda bound: st.integers(bound - 1, bound + 1)
    ),
    st.floats(0.0, 13.0).map(lambda exponent: int(10**exponent)),
    st.integers(_TABLE_TOP_NS - 1_000, _TABLE_TOP_NS + 1_000),
    st.integers(_TABLE_TOP_NS, 10**15),
)


class TestBulkFold:
    """``add_ns`` buckets by table what ``add(ns / 1e6)`` buckets by
    logarithm, and must fold to the same sketch."""

    @settings(max_examples=300, deadline=None)
    @given(
        before=st.lists(NANOSECONDS, max_size=5),
        values=st.lists(NANOSECONDS, max_size=60),
    )
    def test_bulk_fold_equals_per_value_adds(self, before, values):
        bulk, one_by_one = QuantileSketch(), QuantileSketch()
        for ns in before:
            bulk.add(ns / 1e6)
            one_by_one.add(ns / 1e6)
        bulk.add_ns(values)
        for ns in values:
            one_by_one.add(ns / 1e6)
        assert bulk.to_dict() == one_by_one.to_dict()

    def test_table_agrees_with_bucket_at_every_boundary(self):
        sketch = QuantileSketch()
        assert len(BOUNDS_NS) == 1_281
        assert BOUNDS_NS[0] == 1_000 and BOUNDS_NS[-1] >= _TABLE_TOP_NS
        for bound in BOUNDS_NS:
            for ns in (bound - 1, bound, bound + 1):
                if 0 <= ns <= BOUNDS_NS[-1]:
                    assert bisect_left(BOUNDS_NS, ns) == sketch._bucket(ns / 1e6)

    def test_sum_is_exact_up_to_the_table_top(self):
        rng = random.Random(7)
        values = [int(10 ** rng.uniform(0.0, 13.0)) for _ in range(20_000)]
        values += list(BOUNDS_NS[:-1]) + [_TABLE_TOP_NS]
        assert all(int(round(ns / 1e6 * 1e6)) == ns for ns in values)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().add_ns([5, -1])


class TestStageHistogram:
    def test_observe_and_summary(self):
        histogram = StageHistogram(bounds_ms=(1.0, 10.0))
        histogram.observe("wait", 0.5)
        histogram.observe("wait", 5.0)
        histogram.observe("wait", 50.0)  # overflow bucket
        summary = histogram.stage_summary("wait")
        assert summary["count"] == 3
        assert summary["sum_ms"] == pytest.approx(55.5)
        assert summary["mean_ms"] == pytest.approx(55.5 / 3)
        assert histogram.stage_summary("missing") == {
            "count": 0, "sum_ms": 0.0, "mean_ms": 0.0,
        }

    def test_merge_order_independent(self):
        def build(observations):
            histogram = StageHistogram()
            for stage, value in observations:
                histogram.observe(stage, value)
            return histogram

        observations = [("a", 1.0), ("b", 7.0), ("a", 300.0), ("b", 9999.0)]
        whole = build(observations)
        left = build(observations[:2]).merge(build(observations[2:]))
        right = build(observations[2:]).merge(build(observations[:2]))
        assert left.to_dict() == whole.to_dict() == right.to_dict()

    def test_round_trip(self):
        histogram = StageHistogram()
        histogram.observe("io", 3.5, weight=2)
        clone = StageHistogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            StageHistogram(bounds_ms=())
        with pytest.raises(ValueError):
            StageHistogram(bounds_ms=(5.0, 1.0))
        histogram = StageHistogram()
        with pytest.raises(ValueError):
            histogram.observe("x", -1.0)
        with pytest.raises(ValueError):
            histogram.merge(StageHistogram(bounds_ms=(1.0,)))


def _session(index, os_name="nt40", scenario=None, waits=(2.0, 3.0)):
    return SessionResult(
        index=index,
        os_name=os_name,
        profile="editor",
        scenario=scenario,
        wait_ms=list(waits),
        span_ms=1000.0 + index,
        stage_ms={"keystroke_wait": sum(waits), "session_span": 1000.0 + index},
    )


class TestFleetAggregator:
    def test_groups_by_personality_and_scenario(self):
        aggregator = FleetAggregator()
        aggregator.add_session(_session(0, "nt40", None))
        aggregator.add_session(_session(1, "nt40", "smoke"))
        aggregator.add_session(_session(2, "win95", None))
        assert aggregator.group_keys() == [
            ("nt40", "healthy"), ("nt40", "smoke"), ("win95", "healthy"),
        ]
        assert aggregator.sessions == 3
        assert aggregator.events == 6

    def test_merge_matches_single_pass_fold(self):
        sessions = [
            _session(i, os_name, scenario, waits=(1.0 + i, 2.0 + i))
            for i, (os_name, scenario) in enumerate(
                [("nt40", None), ("nt351", "smoke"), ("win95", None),
                 ("nt40", "smoke"), ("nt351", None)]
            )
        ]
        whole = FleetAggregator()
        for session in sessions:
            whole.add_session(session)
        left, right = FleetAggregator(), FleetAggregator()
        for session in sessions[:2]:
            left.add_session(session)
        for session in sessions[2:]:
            right.add_session(session)
        assert left.merge(right).digest() == whole.digest()
        # And the opposite merge order too.
        left2, right2 = FleetAggregator(), FleetAggregator()
        for session in sessions[:2]:
            left2.add_session(session)
        for session in sessions[2:]:
            right2.add_session(session)
        assert right2.merge(left2).digest() == whole.digest()

    def test_round_trip(self):
        aggregator = FleetAggregator()
        aggregator.add_session(_session(0))
        aggregator.add_session(_session(1, scenario="smoke"))
        clone = FleetAggregator.from_dict(aggregator.to_dict())
        assert clone.digest() == aggregator.digest()
        assert clone.sessions == 2 and clone.events == 4

    def test_merge_compression_mismatch_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            FleetAggregator(64).merge(FleetAggregator(128))
