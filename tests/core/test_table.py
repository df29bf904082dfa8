"""FastMPC table storage: binning, run-length coding, lookups."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.table import (
    MAX_BINS_PER_AXIS,
    Binning,
    DecisionTable,
    RunLengthEncodedTable,
    TableSizeReport,
)


class TestBinning:
    def test_linear_edges_and_centers(self):
        b = Binning(0.0, 10.0, 5)
        assert b.index_of(0.5) == 0
        assert b.index_of(9.5) == 4
        assert b.center(0) == pytest.approx(1.0)
        assert b.center(4) == pytest.approx(9.0)

    def test_clamping(self):
        b = Binning(0.0, 10.0, 5)
        assert b.index_of(-3.0) == 0
        assert b.index_of(100.0) == 4

    def test_log_spacing(self):
        b = Binning(100.0, 10_000.0, 2, spacing="log")
        assert b.index_of(999.0) == 0
        assert b.index_of(1001.0) == 1
        # Geometric centre of [100, 1000] is ~316.
        assert b.center(0) == pytest.approx(316.23, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Binning(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            Binning(10.0, 0.0, 5)
        with pytest.raises(ValueError):
            Binning(0.0, 10.0, 5, spacing="cubic")
        with pytest.raises(ValueError):
            Binning(0.0, 10.0, 5, spacing="log")
        with pytest.raises(ValueError):
            Binning(0.0, 10.0, 3).index_of(float("nan"))
        with pytest.raises(IndexError):
            Binning(0.0, 10.0, 3).center(3)

    def test_values_exactly_on_edges(self):
        # An interior edge belongs to the bin it opens (half-open bins):
        # edges of Binning(0, 10, 5) are [0, 2, 4, 6, 8, 10].
        b = Binning(0.0, 10.0, 5)
        assert b.index_of(2.0) == 1
        assert b.index_of(4.0) == 2
        assert b.index_of(8.0) == 4
        # The outer edges clamp into the terminal bins.
        assert b.index_of(0.0) == 0
        assert b.index_of(10.0) == 4

    def test_below_low_and_above_high_clamp(self):
        b = Binning(0.0, 10.0, 5)
        assert b.index_of(-1e9) == 0
        assert b.index_of(-1e-12) == 0
        assert b.index_of(10.0 + 1e-9) == 4
        assert b.index_of(1e12) == 4

    def test_log_spacing_edges(self):
        # Geometric edges of Binning(100, 10000, 2) are [100, 1000, 10000].
        b = Binning(100.0, 10_000.0, 2, spacing="log")
        assert b.index_of(100.0) == 0
        assert b.index_of(1000.0) == 1  # exactly on the interior edge
        assert b.index_of(10_000.0) == 1
        assert b.index_of(1.0) == 0
        assert b.index_of(1e9) == 1

    def test_matches_numpy_searchsorted_reference(self):
        # The bisect fast path must agree with the vectorised reference
        # semantics (searchsorted right on the shared edge array).
        for spacing, low, high in (("linear", 0.0, 30.0), ("log", 100.0, 4000.0)):
            b = Binning(low, high, 17, spacing=spacing)
            probes = np.concatenate(
                [b.edges, b.centers, np.linspace(low - 5.0, high + 5.0, 101)]
            )
            for value in probes:
                if value <= low:
                    expected = 0
                elif value >= high:
                    expected = b.count - 1
                else:
                    expected = int(np.searchsorted(b.edges, value, side="right")) - 1
                    expected = min(max(expected, 0), b.count - 1)
                assert b.index_of(float(value)) == expected

    @given(value=st.floats(-100.0, 100.0), count=st.integers(1, 50))
    def test_index_always_valid(self, value, count):
        b = Binning(0.0, 10.0, count)
        assert 0 <= b.index_of(value) < count

    @given(count=st.integers(1, 40), edge_index=st.integers(0, 40))
    def test_edges_map_into_valid_bins(self, count, edge_index):
        b = Binning(0.0, 10.0, count)
        edge = float(b.edges[min(edge_index, count)])
        idx = b.index_of(edge)
        assert 0 <= idx < count

    @given(count=st.integers(1, 30))
    def test_center_maps_to_own_bin(self, count):
        b = Binning(0.0, 10.0, count)
        for i in range(count):
            assert b.index_of(b.center(i)) == i


class TestRLE:
    def test_encode_decode_roundtrip(self):
        values = [0, 0, 1, 1, 1, 2, 0, 0]
        rle = RunLengthEncodedTable.encode(values)
        assert list(rle.decode()) == values
        assert rle.num_runs == 4

    def test_lookup_matches_decode(self):
        values = [3, 3, 1, 4, 4, 4, 0]
        rle = RunLengthEncodedTable.encode(values)
        for i, v in enumerate(values):
            assert rle.lookup(i) == v

    def test_lookup_bounds(self):
        rle = RunLengthEncodedTable.encode([1, 2])
        with pytest.raises(IndexError):
            rle.lookup(2)
        with pytest.raises(IndexError):
            rle.lookup(-1)

    def test_size_accounting(self):
        rle = RunLengthEncodedTable.encode([0] * 1000)
        assert rle.num_runs == 1
        assert rle.size_bytes() == 5  # 4-byte end + 1-byte value

    def test_bytes_roundtrip(self):
        values = [0, 1, 1, 4, 2, 2, 2]
        rle = RunLengthEncodedTable.encode(values)
        back = RunLengthEncodedTable.from_bytes(rle.to_bytes())
        assert list(back.decode()) == values

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RunLengthEncodedTable.encode([])

    def test_invalid_runs_rejected(self):
        def records(count, *runs):
            return struct.pack("<I", count) + b"".join(
                struct.pack("<IB", end, value) for end, value in runs
            )

        for blob in (
            records(2, (3, 0), (2, 1)),  # ends not increasing
            records(1, (0, 0)),  # zero-length first run
            records(2, (1, 0)),  # truncated: two runs declared, one present
            records(0),  # empty table
            b"\x01\x00",  # no room for the header
        ):
            with pytest.raises(ValueError):
                RunLengthEncodedTable.from_bytes(blob)

    def test_values_must_fit_a_byte(self):
        with pytest.raises(ValueError):
            RunLengthEncodedTable.encode([0, 256])
        with pytest.raises(ValueError):
            RunLengthEncodedTable.encode([-1, 0])

    @given(values=st.lists(st.integers(0, 7), min_size=1, max_size=300))
    def test_roundtrip_property(self, values):
        rle = RunLengthEncodedTable.encode(values)
        assert list(rle.decode()) == values
        for i in (0, len(values) // 2, len(values) - 1):
            assert rle.lookup(i) == values[i]
        assert rle.num_runs <= len(values)

    @given(
        runs=st.lists(
            st.tuples(st.integers(0, 255), st.integers(1, 40)),
            min_size=1,
            max_size=30,
        )
    )
    def test_bytes_roundtrip_property(self, runs):
        # Run-structured inputs exercise long runs, not just noise; the
        # serialized form must reproduce every value and the run count.
        values = [v for v, length in runs for _ in range(length)]
        rle = RunLengthEncodedTable.encode(values)
        back = RunLengthEncodedTable.from_bytes(rle.to_bytes())
        assert list(back.decode()) == values
        assert back.num_runs == rle.num_runs
        assert back.to_bytes() == rle.to_bytes()
        for i in range(0, len(values), max(1, len(values) // 7)):
            assert back.lookup(i) == values[i]


class TestDecisionTable:
    def make_table(self):
        buffer_bins = Binning(0.0, 30.0, 4)
        throughput_bins = Binning(100.0, 4000.0, 6, spacing="log")
        n = 4 * 3 * 6
        decisions = [(i // 6) % 3 for i in range(n)]  # varies by prev level
        return DecisionTable(buffer_bins, 3, throughput_bins, decisions), decisions

    def test_lookup_layout(self):
        table, decisions = self.make_table()
        # prev level drives the decision in this synthetic table.
        assert table.lookup(1.0, 0, 150.0) == 0
        assert table.lookup(1.0, 1, 150.0) == 1
        assert table.lookup(29.0, 2, 3900.0) == 2

    def test_full_and_rle_lookup_agree(self):
        # The run-length lookup answers exactly what indexing the full,
        # uncompressed decision vector in C order would.
        table, decisions = self.make_table()
        for buffer_s in (0.0, 7.5, 29.9, 100.0):
            for prev in range(3):
                for kbps in (50.0, 800.0, 3900.0, 9000.0):
                    b = table.buffer_bins.index_of(buffer_s)
                    c = table.throughput_bins.index_of(kbps)
                    full = decisions[(b * 3 + prev) * 6 + c]
                    assert table.lookup(buffer_s, prev, kbps) == full
        assert list(table.rle.decode()) == decisions

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DecisionTable(Binning(0, 30, 4), 3, Binning(100, 4000, 6), [0, 1])

    def test_invalid_decisions_rejected(self):
        buffer_bins = Binning(0.0, 30.0, 2)
        throughput_bins = Binning(100.0, 4000.0, 2)
        with pytest.raises(ValueError):
            DecisionTable(buffer_bins, 2, throughput_bins, [0, 0, 5, 0, 0, 0, 0, 0])

    def test_prev_level_bounds(self):
        table, _ = self.make_table()
        with pytest.raises(IndexError):
            table.lookup(1.0, 3, 500.0)

    def test_size_report(self):
        table, _ = self.make_table()
        report = table.size_report(6)
        assert isinstance(report, TableSizeReport)
        assert report.num_entries == 72
        assert report.full_bytes == 72
        assert report.rle_bytes == table.rle.size_bytes()
        assert "levels" in report.describe()


class TestForgedTables:
    """Serialized tables from an untrusted peer (``POST /v1/table``) must
    be rejected with ``ValueError`` at O(blob) memory cost."""

    @pytest.mark.parametrize(
        "name", ["huge-run", "huge-bin-count", "huge-bin-count-consistent"]
    )
    @pytest.mark.parametrize("load", ["from_bytes", "from_buffer"])
    def test_rejected_within_bounded_memory(
        self, forged_table_blobs, address_space_headroom, name, load
    ):
        blob = forged_table_blobs[name]
        with address_space_headroom(256 << 20):
            with pytest.raises(ValueError):
                getattr(DecisionTable, load)(blob)

    @pytest.mark.parametrize("load", ["from_bytes", "from_buffer"])
    def test_malformed_headers_raise_value_error(self, load):
        blob = TestDecisionTable().make_table()[0].to_bytes()
        spacing_at = 8 + 20  # magic, then <ddI of the buffer binning
        for bad in (
            blob[:40],  # truncated inside the header
            blob[:spacing_at] + b"\x07" + blob[spacing_at + 1 :],  # spacing code
            blob[:8] + struct.pack("<d", float("nan")) + blob[16:],  # NaN low edge
        ):
            with pytest.raises(ValueError):
                getattr(DecisionTable, load)(bad)

    def test_parent_flag_byte_is_ignored(self):
        table, _ = TestDecisionTable().make_table()
        blob = bytearray(table.to_bytes())
        blob[8 + 2 * 21 + 4] = 1  # the legacy full-table flag
        for loaded in (DecisionTable.from_bytes(blob), DecisionTable.from_buffer(blob)):
            assert loaded.same_decisions(table)
            assert loaded.to_bytes() == table.to_bytes()

    def test_bin_count_cap(self):
        assert Binning(0.0, 1.0, MAX_BINS_PER_AXIS).count == MAX_BINS_PER_AXIS
        with pytest.raises(ValueError):
            Binning(0.0, 1.0, MAX_BINS_PER_AXIS + 1)
        with pytest.raises(ValueError):
            Binning(0.0, float("inf"), 4)


class TestTableSizeReport:
    def test_compression_ratio(self):
        report = TableSizeReport(100, 50_000, 50_000, 25_000)
        assert report.compression_ratio == pytest.approx(0.5)
