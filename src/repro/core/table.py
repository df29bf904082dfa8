"""Binning and table storage for FastMPC (Section 5).

FastMPC replaces the online solver with a precomputed decision table
indexed by (buffer level, previous bitrate, predicted throughput).  Two
optimisations from Section 5.2 live here:

* **Compaction via binning** — buffer and throughput values are coarsened
  into bins; row keys need not be stored because they are computed from
  bin indices (:class:`Binning`).  Quantisation is *flat-array index
  arithmetic*: one inverse-scale multiply plus clamp (with an exact
  edge-correction step), not a per-value binary search — the same
  precomputed scale backs the scalar :meth:`Binning.index_of` and the
  vectorized :meth:`Binning.index_of_batch`, so they cannot drift.

* **Table compression** — the optimal decisions for neighbouring scenarios
  are usually identical, so the decision vector compresses extremely well
  under lossless run-length encoding; lookups on the compressed form use
  binary search (:class:`RunLengthEncodedTable`).  Table 1 of the paper
  reports the resulting sizes; :class:`TableSizeReport` reproduces them.
  Batch lookups (:meth:`RunLengthEncodedTable.lookup_batch`) replace the
  per-value bisect with one vectorized ``searchsorted`` over the run
  ends — identical answers, amortised cost.

The RLE is stored as its serialized run records, never as the expanded
decision vector, so one representation serves every deployment:
:meth:`DecisionTable.from_buffer` wraps a serialized table — typically an
``mmap`` of a published table file — and :meth:`DecisionTable.from_bytes`
does the same over an owned copy.  Many worker processes can therefore
serve one read-only table file; the serialized form is
position-independent, which is what makes that sharing safe.  Loading
checks the header-declared shape against the runs before either
:class:`Binning` is built, and bin counts are capped at
:data:`MAX_BINS_PER_AXIS`, so a forged table costs at most O(blob)
memory to reject.
"""

from __future__ import annotations

import bisect
import math
import struct
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..obs.events import TableLookup

__all__ = [
    "Binning",
    "RunLengthEncodedTable",
    "DecisionTable",
    "TableSizeReport",
    "MAX_BINS_PER_AXIS",
]

#: Largest bin count per axis a :class:`Binning` accepts — far above the
#: paper's finest configuration (Table 1: 500 levels), and low enough that
#: a forged count in a serialized table cannot demand unbounded edge
#: arrays.
MAX_BINS_PER_AXIS = 1 << 16


class Binning:
    """Fixed bins over ``[low, high]`` with linear or logarithmic spacing.

    Values outside the range clamp to the edge bins, so any observed state
    maps to *some* table row — the paper's "key value closest to the
    current state".

    Quantisation is O(1) index arithmetic: ``idx = (f(value) - offset) *
    scale`` (``f`` = identity or ``log``) followed by an exact correction
    against the true edge values, which repairs any floating-point
    off-by-one so the result always equals the reference
    ``bisect_right(edges, value) - 1``.  The same precomputed
    ``(offset, scale)`` pair and the same edge array back both the scalar
    and the batch path.
    """

    __slots__ = (
        "low",
        "high",
        "count",
        "spacing",
        "_edges",
        "_centers",
        "_edges_list",
        "_offset",
        "_scale",
    )

    def __init__(self, low: float, high: float, count: int, spacing: str = "linear") -> None:
        if not 1 <= count <= MAX_BINS_PER_AXIS:
            raise ValueError(f"bin count must be in 1..{MAX_BINS_PER_AXIS}")
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("bin range must be finite")
        if not (low < high):
            raise ValueError("need low < high")
        if spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {spacing!r}")
        if spacing == "log" and low <= 0:
            raise ValueError("log spacing requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.count = count
        self.spacing = spacing
        if spacing == "linear":
            edges = np.linspace(self.low, self.high, count + 1)
            centers = (edges[:-1] + edges[1:]) / 2.0
        else:
            edges = np.geomspace(self.low, self.high, count + 1)
            centers = np.sqrt(edges[:-1] * edges[1:])  # geometric mid
        # The flat-lookup scale: one multiply maps a value to (almost) its
        # bin; the correction loops in index_of make it exact.
        if spacing == "linear":
            self._offset = self.low
            self._scale = count / (self.high - self.low)
        else:
            self._offset = math.log(self.low)
            self._scale = count / (math.log(self.high) - math.log(self.low))
        # Scalar lookups compare against the plain list (no per-access
        # NumPy scalar boxing); batch lookups use the shared array views.
        self._edges_list = edges.tolist()
        # Shared read-only views: hot-loop callers (table builds, kernels)
        # access these per call, so handing out defensive copies would be
        # a per-access allocation; read-only flags keep sharing safe.
        edges.setflags(write=False)
        centers.setflags(write=False)
        self._edges = edges
        self._centers = centers

    @property
    def edges(self):
        """Bin edge values — a shared *read-only* view, not a copy."""
        return self._edges

    @property
    def centers(self):
        """Bin centre values — a shared *read-only* view, not a copy."""
        return self._centers

    def index_of(self, value: float) -> int:
        """Bin index for a value, clamping out-of-range values.

        Equivalent to (and regression-tested against)
        ``bisect_right(edges, value) - 1`` clamped to ``[0, count - 1]``
        — but via the precomputed inverse scale: one multiply, one
        truncation, and an edge correction that moves at most a step or
        two when floating point lands the raw index one bin off.
        """
        if math.isnan(value):
            raise ValueError("cannot bin NaN")
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.count - 1
        x = value if self.spacing == "linear" else math.log(value)
        idx = int((x - self._offset) * self._scale)
        last = self.count - 1
        if idx < 0:
            idx = 0
        elif idx > last:
            idx = last
        edges = self._edges_list
        # Exact correction: settle on the largest idx with edges[idx] <=
        # value.  The raw index is within one bin of the answer, so each
        # loop runs 0 or 1 iterations in practice (bounded by the edge
        # monotonicity either way).
        while idx > 0 and value < edges[idx]:
            idx -= 1
        while idx < last and value >= edges[idx + 1]:
            idx += 1
        return idx

    def index_of_reference(self, value: float) -> int:
        """The bisect reference implementation of :meth:`index_of`.

        Kept (and exported) purely as the parity oracle for tests: the
        arithmetic path must agree with this on every input, including
        exact bin edges and out-of-range clamps.
        """
        if math.isnan(value):
            raise ValueError("cannot bin NaN")
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.count - 1
        idx = bisect.bisect_right(self._edges_list, value) - 1
        return min(max(idx, 0), self.count - 1)

    def index_of_batch(self, values):
        """Vectorized :meth:`index_of` over an array of values.

        Returns an ``int64`` array.  Same clamp and NaN semantics as the
        scalar path, computed from the same precomputed scale and
        corrected against the same edges — the two paths cannot disagree
        on any input.
        """
        v = np.asarray(values, dtype=np.float64)
        if np.isnan(v).any():
            raise ValueError("cannot bin NaN")
        vc = np.clip(v, self.low, self.high)
        x = vc if self.spacing == "linear" else np.log(vc)
        idx = ((x - self._offset) * self._scale).astype(np.int64)
        np.clip(idx, 0, self.count - 1, out=idx)
        edges = self._edges
        last = self.count - 1
        # vc >= edges[0] after the clip, so the down-correction can never
        # push below 0; the up-correction is bounded by `last`.
        while True:
            mask = vc < edges[idx]
            if not mask.any():
                break
            idx[mask] -= 1
        while True:
            mask = (idx < last) & (vc >= edges[np.minimum(idx + 1, self.count)])
            if not mask.any():
                break
            idx[mask] += 1
        return idx

    def center(self, index: int) -> float:
        if not 0 <= index < self.count:
            raise IndexError(f"bin index {index} out of range")
        return float(self._centers[index])

    def __repr__(self) -> str:
        return (
            f"Binning({self.low:g}..{self.high:g}, count={self.count}, "
            f"{self.spacing})"
        )


#: Serialized RLE layout: ``u32 run count`` then one ``(u32 end, u8 value)``
#: record per run — 5 bytes, unaligned, little-endian.
_RLE_HEADER = struct.Struct("<I")
_RLE_RECORD = np.dtype([("end", "<u4"), ("value", "u1")])


class RunLengthEncodedTable:
    """Lossless RLE of a flat decision vector with binary-search lookup.

    The table *is* its serialized form: a ``u32`` run count followed by
    one ``(u32 exclusive end, u8 value)`` record per run.  :meth:`encode`
    packs those records from a decision vector; the constructor wraps any
    buffer holding them — an owned ``bytes`` copy (:meth:`from_bytes`) or
    an ``mmap`` of a published table file — without expanding the vector,
    so memory stays O(runs) however many entries the runs cover.  The
    layout is position-independent: any process that can see the bytes
    can build a table from them, which is what lets a cluster of worker
    processes share one read-only table file.

    Construction validates the run structure (strictly increasing,
    positive ends) and reads the run ends out once: ``lookup(i)`` then
    binary-searches them — exactly the online procedure Section 5.2
    describes — and ``lookup_batch`` answers many indices with one
    ``searchsorted`` over the same ends (bitwise-identical results).  The
    memoryview held here keeps the underlying buffer (and any ``mmap``
    behind it) alive.
    """

    __slots__ = ("_view", "_ends", "_values", "_ends_arr", "_values_arr")

    def __init__(self, buffer) -> None:
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if len(view) < _RLE_HEADER.size:
            raise ValueError("buffer too small for an RLE header")
        (count,) = _RLE_HEADER.unpack_from(view, 0)
        if count < 1:
            raise ValueError("table must not be empty")
        need = _RLE_HEADER.size + _RLE_RECORD.itemsize * count
        if len(view) < need:
            raise ValueError(
                f"truncated RLE blob: {len(view)} bytes, {count} runs need {need}"
            )
        records = np.frombuffer(
            view, dtype=_RLE_RECORD, count=count, offset=_RLE_HEADER.size
        )
        ends = records["end"].astype(np.int64)
        if ends[0] < 1 or (ends[1:] <= ends[:-1]).any():
            raise ValueError("run ends must be strictly increasing and positive")
        self._view = view[:need]
        self._ends_arr = ends
        self._values_arr = records["value"].astype(np.int64)
        # Scalar lookups bisect plain Python containers (no per-probe
        # NumPy scalar boxing); batch lookups use the arrays.
        self._ends = ends.tolist()
        self._values = records["value"].tobytes()

    @classmethod
    def encode(cls, values: Sequence[int]) -> "RunLengthEncodedTable":
        """Compress a flat vector of byte-sized non-negative ints."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size == 0:
            raise ValueError("cannot encode an empty vector")
        if arr.size > 0xFFFFFFFF:
            raise ValueError("vector too long for u32 run ends")
        change = np.flatnonzero(np.diff(arr)) + 1
        run_values = arr[np.concatenate(([0], change))]
        if run_values.min() < 0 or run_values.max() > 0xFF:
            raise ValueError("values must fit in an unsigned byte")
        records = np.empty(change.size + 1, dtype=_RLE_RECORD)
        records["end"] = np.append(change, arr.size)
        records["value"] = run_values
        return cls(_RLE_HEADER.pack(records.size) + records.tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RunLengthEncodedTable":
        """Inverse of :meth:`to_bytes`, over an owned copy of ``blob``."""
        return cls(bytes(blob))

    def decode(self):
        """Expand back to the full vector (tests and parity checks only)."""
        return np.repeat(self._values_arr, np.diff(self._ends_arr, prepend=0))

    def lookup(self, index: int) -> int:
        """Value at a flat index via binary search over run ends."""
        if not 0 <= index < self._ends[-1]:
            raise IndexError(f"index {index} out of range 0..{self._ends[-1] - 1}")
        return self._values[bisect.bisect_right(self._ends, index)]

    def lookup_batch(self, indices):
        """Values at many flat indices — one vectorized ``searchsorted``.

        ``side='right'`` over the run ends is exactly the scalar
        ``bisect_right`` recurrence, so batch and scalar answers are
        identical on every index.  Raises ``IndexError`` when any index
        is out of range.
        """
        flat = np.asarray(indices, dtype=np.int64)
        length = self._ends[-1]
        if flat.size and (flat.min() < 0 or flat.max() >= length):
            raise IndexError(f"batch index out of range 0..{length - 1}")
        runs = np.searchsorted(self._ends_arr, flat, side="right")
        return self._values_arr[runs]

    def lookup_profiled(self, index: int) -> Tuple[int, int]:
        """Like :meth:`lookup` but also counts binary-search probes.

        Returns ``(value, depth)`` where ``depth`` is the number of run
        ends examined — the profiling signal behind the observability
        layer's table-lookup events.  The search is the same
        ``bisect_right`` recurrence, hand-rolled so probes are countable.
        """
        ends = self._ends
        if not 0 <= index < ends[-1]:
            raise IndexError(f"index {index} out of range 0..{ends[-1] - 1}")
        lo, hi, depth = 0, len(ends), 0
        while lo < hi:
            mid = (lo + hi) // 2
            depth += 1
            if index < ends[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self._values[lo], depth

    def __len__(self) -> int:
        return self._ends[-1]

    @property
    def num_runs(self) -> int:
        return len(self._ends)

    @property
    def max_value(self) -> int:
        """Largest decision value across all runs."""
        return int(self._values_arr.max())

    def size_bytes(self, index_bytes: int = 4, value_bytes: int = 1) -> int:
        """Serialized size: one (end, value) record per run."""
        return self.num_runs * (index_bytes + value_bytes)

    def to_bytes(self) -> bytes:
        """The serialized records: u32 run count, then (u32 end, u8 value)."""
        return bytes(self._view)


@dataclass(frozen=True)
class TableSizeReport:
    """One row of the paper's Table 1."""

    discretization_levels: int
    num_entries: int
    full_bytes: int
    rle_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Compressed / full — lower is better (paper: 0.5 at 100 levels,
        ~0.18 at 500 levels)."""
        return self.rle_bytes / self.full_bytes

    def describe(self) -> str:
        return (
            f"{self.discretization_levels:>5} levels | full {self.full_bytes / 1000:8.1f} kB"
            f" | RLE {self.rle_bytes / 1000:8.1f} kB"
            f" | ratio {self.compression_ratio:5.2f}"
        )


class DecisionTable:
    """The FastMPC lookup structure over (buffer, prev level, throughput).

    The flat layout is C-order ``(buffer_bin, prev_level, throughput_bin)``
    with the throughput axis fastest — neighbouring throughput bins almost
    always share a decision, which is what makes the RLE effective.
    """

    __slots__ = ("buffer_bins", "num_levels", "throughput_bins", "_rle")

    def __init__(
        self,
        buffer_bins: Binning,
        num_levels: int,
        throughput_bins: Binning,
        decisions_flat: Sequence[int],
    ) -> None:
        if num_levels < 1:
            raise ValueError("need at least one ladder level")
        expected = buffer_bins.count * num_levels * throughput_bins.count
        if len(decisions_flat) != expected:
            raise ValueError(
                f"{len(decisions_flat)} decisions but the index space has {expected}"
            )
        arr = np.asarray(decisions_flat, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= num_levels:
            raise ValueError("decisions must be valid ladder level indices")
        self.buffer_bins = buffer_bins
        self.num_levels = num_levels
        self.throughput_bins = throughput_bins
        self._rle = RunLengthEncodedTable.encode(arr)

    # ------------------------------------------------------------------

    def _flat_index(self, buffer_idx: int, prev_level: int, throughput_idx: int) -> int:
        if not 0 <= prev_level < self.num_levels:
            raise IndexError(f"prev level {prev_level} out of range")
        return (
            buffer_idx * self.num_levels + prev_level
        ) * self.throughput_bins.count + throughput_idx

    def lookup(
        self, buffer_level_s: float, prev_level: int, predicted_kbps: float
    ) -> int:
        """The online step: quantize the state, then one run lookup."""
        b = self.buffer_bins.index_of(buffer_level_s)
        c = self.throughput_bins.index_of(predicted_kbps)
        return self._rle.lookup(self._flat_index(b, prev_level, c))

    def lookup_batch(self, buffer_levels_s, prev_levels, predicted_kbps):
        """Vectorized :meth:`lookup` over equal-length state arrays.

        ``prev_levels`` must already be valid ladder indices (the
        decision service validates per request and degrades invalid ones
        to the fallback *before* batching).  Returns an ``int64`` array
        of level indices.  Answers are identical to per-element
        :meth:`lookup` calls: both paths share the binnings' index
        arithmetic and the RLE run search.
        """
        b = self.buffer_bins.index_of_batch(buffer_levels_s)
        c = self.throughput_bins.index_of_batch(predicted_kbps)
        prev = np.asarray(prev_levels, dtype=np.int64)
        if prev.size and (prev.min() < 0 or prev.max() >= self.num_levels):
            raise IndexError("prev level out of range")
        flat = (b * self.num_levels + prev) * self.throughput_bins.count + c
        return self._rle.lookup_batch(flat)

    def lookup_traced(
        self,
        buffer_level_s: float,
        prev_level: int,
        predicted_kbps: float,
        tracer,
        session_id: str = "",
    ) -> int:
        """:meth:`lookup` plus a :class:`repro.obs.TableLookup` event.

        Returns the same level as :meth:`lookup` on the same inputs; the
        event records the quantized bins, the RLE search depth, and the
        lookup wall time.
        """
        t0 = time.perf_counter()
        b = self.buffer_bins.index_of(buffer_level_s)
        c = self.throughput_bins.index_of(predicted_kbps)
        level, depth = self._rle.lookup_profiled(self._flat_index(b, prev_level, c))
        tracer.emit(
            TableLookup(
                session_id=session_id,
                t_mono=tracer.now(),
                buffer_bin=b,
                prev_level=prev_level,
                throughput_bin=c,
                level=level,
                num_runs=self._rle.num_runs,
                depth=depth,
                wall_s=time.perf_counter() - t0,
            )
        )
        return level

    @property
    def num_entries(self) -> int:
        return len(self._rle)

    @property
    def rle(self) -> RunLengthEncodedTable:
        return self._rle

    def size_report(self, discretization_levels: int) -> TableSizeReport:
        """Full-table vs RLE sizes (one Table 1 row).

        Full storage is one byte per entry (levels fit a u8, as in the
        paper's 5-level ladder); RLE records are 5 bytes per run.
        """
        return TableSizeReport(
            discretization_levels=discretization_levels,
            num_entries=self.num_entries,
            full_bytes=self.num_entries,
            rle_bytes=self._rle.size_bytes(),
        )

    # ------------------------------------------------------------------
    # Portable serialization (the persistent on-disk table cache)
    # ------------------------------------------------------------------

    _MAGIC = b"RPROTBL1"
    _SPACING_CODES = {"linear": 0, "log": 1}
    _SPACINGS = {code: name for name, code in _SPACING_CODES.items()}
    _BINNING = struct.Struct("<ddIB")
    # Ladder size plus a reserved flag byte: written as 0 and ignored on
    # read, so tables serialized with the flag set still load.
    _LEVELS = struct.Struct("<IB")
    _HEADER_SIZE = len(_MAGIC) + 2 * _BINNING.size + _LEVELS.size

    @classmethod
    def _pack_binning(cls, binning: Binning) -> bytes:
        return cls._BINNING.pack(
            binning.low, binning.high, binning.count, cls._SPACING_CODES[binning.spacing]
        )

    def to_bytes(self) -> bytes:
        """Lossless serialization: binnings, ladder size, then the RLE.

        ``from_bytes(to_bytes())`` reproduces a bitwise-identical table
        (same binnings, same runs, same lookups).
        """
        return b"".join(
            [
                self._MAGIC,
                self._pack_binning(self.buffer_bins),
                self._pack_binning(self.throughput_bins),
                self._LEVELS.pack(self.num_levels, 0),
                self._rle.to_bytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DecisionTable":
        """Inverse of :meth:`to_bytes`: :meth:`from_buffer` over an owned
        copy of ``blob``, so the caller may reuse its buffer."""
        return cls.from_buffer(bytes(blob))

    @classmethod
    def from_buffer(cls, buffer) -> "DecisionTable":
        """A table over a serialized buffer (the :meth:`to_bytes` layout),
        typically an ``mmap`` of a published table file.

        The decision vector is never expanded.  The mapped file is shared
        (N worker processes mapping it hold one copy in page cache); each
        process reads the O(runs) run ends and values out of it once, at
        construction, for ``bisect`` and ``searchsorted``.  The
        header-declared shape is checked against the runs before either
        :class:`Binning` is built, so a malformed or forged buffer raises
        ``ValueError`` at O(buffer) memory cost.
        """
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if bytes(view[: len(cls._MAGIC)]) != cls._MAGIC:
            raise ValueError("not a serialized DecisionTable")
        if len(view) < cls._HEADER_SIZE:
            raise ValueError("truncated DecisionTable header")
        offset = len(cls._MAGIC)
        buffer_spec = cls._BINNING.unpack_from(view, offset)
        offset += cls._BINNING.size
        throughput_spec = cls._BINNING.unpack_from(view, offset)
        offset += cls._BINNING.size
        num_levels, _flag = cls._LEVELS.unpack_from(view, offset)
        offset += cls._LEVELS.size
        if num_levels < 1:
            raise ValueError("need at least one ladder level")
        rle = RunLengthEncodedTable(view[offset:])
        expected = buffer_spec[2] * num_levels * throughput_spec[2]
        if len(rle) != expected:
            raise ValueError(f"{len(rle)} decisions but the index space has {expected}")
        if rle.max_value >= num_levels:
            raise ValueError("decisions must be valid ladder level indices")
        table = object.__new__(cls)
        table.buffer_bins = cls._unpack_binning(buffer_spec)
        table.num_levels = num_levels
        table.throughput_bins = cls._unpack_binning(throughput_spec)
        table._rle = rle
        return table

    @classmethod
    def _unpack_binning(cls, spec: Tuple[float, float, int, int]) -> Binning:
        low, high, count, code = spec
        if code not in cls._SPACINGS:
            raise ValueError(f"unknown bin spacing code {code}")
        return Binning(low, high, count, cls._SPACINGS[code])

    def same_decisions(self, other: "DecisionTable") -> bool:
        """True when ``other`` answers every lookup identically.

        Compares the binnings, ladder size, and the run-length encoding
        byte for byte (the RLE is canonical: one encoding per decision
        vector), ignoring whether either side is buffer-backed.  This is
        the parity check the cluster runs after mapping a published
        table file.
        """
        return (
            self.num_levels == other.num_levels
            and self._same_binning(self.buffer_bins, other.buffer_bins)
            and self._same_binning(self.throughput_bins, other.throughput_bins)
            and self._rle.to_bytes() == other._rle.to_bytes()
        )

    @staticmethod
    def _same_binning(a: Binning, b: Binning) -> bool:
        return (
            a.low == b.low
            and a.high == b.high
            and a.count == b.count
            and a.spacing == b.spacing
        )
