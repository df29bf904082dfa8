"""Flat-array quantization fast path — parity with the bisect oracle.

The online lookup replaced per-request ``bisect`` with precomputed
inverse-scale multiply + clip index arithmetic (scalar and batch).
These tests pin the contract: for every value, the arithmetic path must
return exactly what ``bisect_right(edges, v) - 1`` (clamped) returns —
including values sitting exactly on bin edges, one ULP to either side
of them, and out-of-range values.  Scalar and batch paths share the
same precomputed ``(offset, scale)`` and edges, so they cannot drift;
the batch lookups must match per-element scalar lookups.  The single
RLE class must answer identically whether it was encoded in memory,
reloaded from owned bytes, or wrapped over a serialized buffer, and its
serialization must be exactly the documented ``(u32 end, u8 value)``
record layout.
"""

from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import Binning, DecisionTable, RunLengthEncodedTable


def _binnings():
    """Random but valid binnings, both spacings."""
    return st.builds(
        Binning,
        low=st.floats(0.01, 50.0),
        high=st.floats(51.0, 10_000.0),
        count=st.integers(1, 200),
        spacing=st.sampled_from(["linear", "log"]),
    )


class TestIndexOfMatchesBisectOracle:
    @settings(max_examples=200, deadline=None)
    @given(binning=_binnings(), value=st.floats(0.0, 20_000.0))
    def test_random_values(self, binning, value):
        assert binning.index_of(value) == binning.index_of_reference(value)

    @settings(max_examples=60, deadline=None)
    @given(binning=_binnings())
    def test_every_edge_and_ulp_neighbours(self, binning):
        # Exactly on each edge, and one ULP to either side — the spots
        # where naive multiply-and-truncate arithmetic goes wrong.
        for edge in binning.edges:
            for probe in (
                edge,
                math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf),
            ):
                assert binning.index_of(probe) == binning.index_of_reference(
                    probe
                ), f"diverged at {probe!r} near edge {edge!r} of {binning!r}"

    def test_out_of_range_clamps(self):
        binning = Binning(1.0, 100.0, 25, spacing="log")
        assert binning.index_of(-5.0) == 0
        assert binning.index_of(0.0) == 0
        assert binning.index_of(1.0) == 0
        assert binning.index_of(100.0) == 24
        assert binning.index_of(1e12) == 24

    def test_nan_rejected(self):
        binning = Binning(0.0, 10.0, 5)
        with pytest.raises(ValueError):
            binning.index_of(float("nan"))

    def test_regression_linear_bin_edges(self):
        # The historic bug shape: an interior edge whose product
        # ``(v - low) * scale`` lands a hair under the integer, so a
        # truncating path would misplace the exact-edge value by one bin.
        binning = Binning(0.0, 30.0, 7)
        for i, edge in enumerate(binning.edges[:-1]):
            assert binning.index_of(edge) == binning.index_of_reference(edge)
            assert binning.index_of(edge) == i


class TestBatchMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(
        binning=_binnings(),
        values=st.lists(st.floats(0.0, 20_000.0), min_size=1, max_size=64),
    )
    def test_index_of_batch(self, binning, values):
        batch = binning.index_of_batch(values)
        assert [int(i) for i in batch] == [binning.index_of(v) for v in values]

    def test_index_of_batch_hits_edges(self):
        binning = Binning(2.0, 512.0, 40, spacing="log")
        probes = []
        for edge in binning.edges:
            probes += [
                edge,
                math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf),
            ]
        probes += [-1.0, 0.0, 1e9]
        batch = binning.index_of_batch(probes)
        assert [int(i) for i in batch] == [binning.index_of(v) for v in probes]

    def test_rle_lookup_batch(self):
        values = [0, 0, 1, 1, 1, 2, 0, 0, 3, 3]
        rle = RunLengthEncodedTable.encode(values)
        indices = list(range(len(values)))
        assert [int(v) for v in rle.lookup_batch(indices)] == values
        with pytest.raises(IndexError):
            rle.lookup_batch([len(values)])
        with pytest.raises(IndexError):
            rle.lookup_batch([-1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_decision_table_lookup_batch(self, seed):
        rng = random.Random(seed)
        buffers = Binning(0.0, 30.0, rng.randint(2, 20))
        throughputs = Binning(10.0, 8000.0, rng.randint(2, 20), spacing="log")
        levels = rng.randint(1, 6)
        flat = [
            rng.randint(0, levels - 1)
            for _ in range(buffers.count * levels * throughputs.count)
        ]
        built = DecisionTable(buffers, levels, throughputs, flat)
        blob = built.to_bytes()
        states = [
            (rng.uniform(-2, 35), rng.randrange(levels), rng.uniform(1, 10_000))
            for _ in range(50)
        ]
        scalar = [built.lookup(*s) for s in states]
        for table in (built, DecisionTable.from_bytes(blob), DecisionTable.from_buffer(blob)):
            batch = table.lookup_batch(
                [s[0] for s in states], [s[1] for s in states], [s[2] for s in states]
            )
            assert [int(v) for v in batch] == scalar
            assert [table.lookup(*s) for s in states] == scalar

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rle_representations_agree(self, data):
        levels = data.draw(st.sampled_from([1, 2, 5, 17, 256]))
        buffers = Binning(0.0, 30.0, data.draw(st.integers(1, 3)))
        throughputs = Binning(10.0, 8000.0, data.draw(st.integers(1, 6)), spacing="log")
        n = buffers.count * levels * throughputs.count
        cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=40))) | {n})
        run_levels = data.draw(
            st.lists(st.integers(0, levels - 1), min_size=len(cuts), max_size=len(cuts))
        )
        values, start = [], 0
        for end, level in zip(cuts, run_levels):
            values += [level] * (end - start)
            start = end
        # The serialized form is exactly the documented record layout:
        # u32 run count, then one (u32 exclusive end, u8 value) per run.
        ends, run_values = [], []
        for i, v in enumerate(values):
            if run_values and v == run_values[-1]:
                ends[-1] = i + 1
            else:
                ends.append(i + 1)
                run_values.append(v)
        packed = struct.pack("<I", len(ends)) + b"".join(
            struct.pack("<IB", end, v) for end, v in zip(ends, run_values)
        )
        encoded = RunLengthEncodedTable.encode(values)
        assert encoded.to_bytes() == packed
        # Encoded in memory, reloaded from owned bytes, and wrapped inside
        # a serialized DecisionTable buffer: one class, identical answers.
        blob = DecisionTable(buffers, levels, throughputs, values).to_bytes()
        mapped = DecisionTable.from_buffer(bytearray(blob)).rle
        indices = list(range(n))
        profiled = [encoded.lookup_profiled(i) for i in indices]
        assert [value for value, _ in profiled] == values
        for rle in (encoded, RunLengthEncodedTable.from_bytes(packed), mapped):
            assert rle.to_bytes() == packed
            assert (len(rle), rle.num_runs) == (n, len(ends))
            assert [rle.lookup(i) for i in indices] == values
            assert [int(v) for v in rle.lookup_batch(indices)] == values
            assert [rle.lookup_profiled(i) for i in indices] == profiled

    def test_decision_table_batch_rejects_bad_prev(self):
        buffers = Binning(0.0, 30.0, 4)
        throughputs = Binning(10.0, 1000.0, 4)
        table = DecisionTable(buffers, 3, throughputs, [0] * (4 * 3 * 4))
        with pytest.raises(IndexError):
            table.lookup_batch([1.0], [3], [100.0])
        with pytest.raises(IndexError):
            table.lookup_batch([1.0], [-1], [100.0])
