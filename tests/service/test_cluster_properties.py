"""Property tests for the cluster's two lossless invariants.

1.  A buffer-mapped table is indistinguishable from the in-memory one:
    ``DecisionTable.from_buffer(table.to_bytes())`` answers every lookup
    identically — the shared-file serving path the workers rely on.

2.  Histogram and snapshot merging is exact on the integer state:
    bucket counts, totals, and maxima merge associatively and
    commutatively with no loss, so cluster-wide ``/metrics`` quantiles
    are computed from the same counts a single process would have.
    (Float microsecond *sums* accumulate in arrival order and are only
    approximately order-independent, which is why the assertions below
    pin the integer state exactly and the sums approximately.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import Binning, DecisionTable
from repro.service.metrics import (
    LatencyHistogram,
    ServiceMetrics,
    merge_metrics_snapshots,
)

# ---------------------------------------------------------------------------
# from_buffer vs in-memory lookups
# ---------------------------------------------------------------------------

tables = st.builds(
    lambda buf_count, thr_count, levels, seed_values: DecisionTable(
        Binning(0.0, 30.0, buf_count),
        levels,
        Binning(100.0, 4000.0, thr_count, spacing="log"),
        [
            seed_values[i % len(seed_values)] % levels
            for i in range(buf_count * levels * thr_count)
        ],
    ),
    buf_count=st.integers(1, 8),
    thr_count=st.integers(1, 8),
    levels=st.integers(1, 6),
    seed_values=st.lists(st.integers(0, 255), min_size=1, max_size=40),
)


class TestFromBufferParity:
    @given(
        table=tables,
        buffer_s=st.floats(-5.0, 40.0),
        prev_level=st.integers(0, 5),
        predicted_kbps=st.floats(1.0, 8000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_parity_on_random_inputs(
        self, table, buffer_s, prev_level, predicted_kbps
    ):
        mapped = DecisionTable.from_buffer(table.to_bytes())
        prev = min(prev_level, table.num_levels - 1)
        assert mapped.lookup(buffer_s, prev, predicted_kbps) == table.lookup(
            buffer_s, prev, predicted_kbps
        )

    @given(table=tables)
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_decode_parity(self, table):
        mapped = DecisionTable.from_buffer(table.to_bytes())
        assert mapped.same_decisions(table)
        assert mapped.to_bytes() == table.to_bytes()

    @given(table=tables, cut=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_truncation_never_parses(self, table, cut):
        blob = table.to_bytes()
        with pytest.raises((ValueError, Exception)):
            DecisionTable.from_buffer(blob[: len(blob) - cut])


# ---------------------------------------------------------------------------
# Histogram merging
# ---------------------------------------------------------------------------


def histogram_from(samples) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.observe(sample)
    return histogram


samples_lists = st.lists(
    st.floats(0.0, 5e7, allow_nan=False, allow_infinity=False),
    max_size=60,
)


def assert_integer_state_equal(a: LatencyHistogram, b: LatencyHistogram):
    a_dict, b_dict = a.to_dict(), b.to_dict()
    assert a_dict["counts"] == b_dict["counts"]
    assert a_dict["count"] == b_dict["count"]
    assert a_dict["max_us"] == b_dict["max_us"]


class TestHistogramMerge:
    @given(xs=samples_lists, ys=samples_lists)
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, xs, ys):
        left = histogram_from(xs)
        left.merge(histogram_from(ys))
        right = histogram_from(ys)
        right.merge(histogram_from(xs))
        assert_integer_state_equal(left, right)
        assert left.to_dict()["sum_us"] == pytest.approx(
            right.to_dict()["sum_us"], rel=1e-9, abs=1e-6
        )

    @given(xs=samples_lists, ys=samples_lists, zs=samples_lists)
    @settings(max_examples=80, deadline=None)
    def test_associative(self, xs, ys, zs):
        ab = histogram_from(xs)
        ab.merge(histogram_from(ys))
        ab.merge(histogram_from(zs))

        bc = histogram_from(ys)
        bc.merge(histogram_from(zs))
        a_bc = histogram_from(xs)
        a_bc.merge(bc)

        assert_integer_state_equal(ab, a_bc)
        assert ab.to_dict()["sum_us"] == pytest.approx(
            a_bc.to_dict()["sum_us"], rel=1e-9, abs=1e-6
        )

    @given(xs=samples_lists, ys=samples_lists)
    @settings(max_examples=80, deadline=None)
    def test_merge_equals_union(self, xs, ys):
        merged = histogram_from(xs)
        merged.merge(histogram_from(ys))
        union = histogram_from(xs + ys)
        assert_integer_state_equal(merged, union)
        # Quantiles come from counts only, so they match exactly too.
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == union.quantile(q)

    @given(xs=samples_lists, ys=samples_lists)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_through_snapshot_dict(self, xs, ys):
        restored = LatencyHistogram.from_dict(histogram_from(xs).to_dict())
        restored.merge(LatencyHistogram.from_dict(histogram_from(ys).to_dict()))
        union = histogram_from(xs + ys)
        assert_integer_state_equal(restored, union)


class TestSnapshotMerge:
    @given(
        request_counts=st.lists(st.integers(0, 30), min_size=1, max_size=5),
        latencies=st.lists(samples_lists, min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_counter_sums_and_exact_counts(self, request_counts, latencies):
        snapshots = []
        for worker, (requests, worker_latencies) in enumerate(
            zip(request_counts, latencies)
        ):
            metrics = ServiceMetrics()
            source = "table" if worker % 2 == 0 else "fallback"
            for _ in range(requests):
                metrics.record_decision(source, 100.0, False, None)
            for sample in worker_latencies:
                metrics.record_span("decide", sample)
            snapshots.append(metrics.snapshot())
        merged = merge_metrics_snapshots(snapshots)
        total = sum(r for r, _ in zip(request_counts, latencies))
        assert merged["requests_total"] == total
        assert merged["latency_us"]["count"] == total
        assert sum(merged["decisions"].values()) == total
        span_samples = sum(
            len(worker_latencies)
            for _, worker_latencies in zip(request_counts, latencies)
        )
        if span_samples:
            assert merged["spans_us"]["decide"]["count"] == span_samples
