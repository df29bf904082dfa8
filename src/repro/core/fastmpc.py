"""FastMPC — table-enumerated MPC (Section 5).

FastMPC does MPC's "Optimize" step offline: it enumerates the binned state
space (current buffer level x previous bitrate x predicted throughput),
solves each instance exactly, and stores only the *first* bitrate of each
optimal plan.  Online, a decision is one state quantisation plus one
binary-search lookup — no solver ships with the player.

The offline enumeration delegates to the batched horizon kernel
(:func:`repro.core.kernel.build_table_decisions`), which evaluates the
whole binned state space — every ``(buffer_bin, prev_level,
throughput_bin)`` instance — in a handful of NumPy passes rather than a
Python loop per state.  Built tables are memoised per configuration
in-process because every session of an experiment shares one table, and
optionally persisted to a disk cache (``cache_dir`` argument or the
``REPRO_CACHE_DIR`` environment variable) so repeated benchmark/figure
runs skip the build entirely — mirroring deployment, where the table is
computed once and downloaded by every player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..abr.base import ABRAlgorithm, PlayerObservation
from ..prediction.base import ThroughputPredictor
from ..prediction.errors import PredictionErrorTracker
from ..prediction.harmonic import HarmonicMeanPredictor
from .kernel import build_table_decisions
from ..qoe import QoEWeights
from .table import Binning, DecisionTable, TableSizeReport

__all__ = [
    "FastMPCConfig",
    "build_decision_table",
    "clear_table_cache",
    "table_size_sweep",
    "FastMPCController",
]


@dataclass(frozen=True)
class FastMPCConfig:
    """Discretization parameters for the offline enumeration.

    The paper's deployed configuration is 100 buffer bins and 100
    throughput bins with horizon 5 (Section 5.2); Figure 12a sweeps the
    bin count and Table 1 reports the resulting table sizes.
    """

    buffer_bins: int = 100
    throughput_bins: int = 100
    horizon: int = 5
    throughput_low_kbps: Optional[float] = None  # default: 0.2 * min ladder rate
    throughput_high_kbps: Optional[float] = None  # default: 2.0 * max ladder rate
    throughput_spacing: str = "log"

    def __post_init__(self) -> None:
        if self.buffer_bins < 1 or self.throughput_bins < 1:
            raise ValueError("bin counts must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def resolved_range(self, ladder_kbps: Tuple[float, ...]) -> Tuple[float, float]:
        low = (
            self.throughput_low_kbps
            if self.throughput_low_kbps is not None
            else 0.2 * min(ladder_kbps)
        )
        high = (
            self.throughput_high_kbps
            if self.throughput_high_kbps is not None
            else 2.0 * max(ladder_kbps)
        )
        if not (0 < low < high):
            raise ValueError("need 0 < throughput_low < throughput_high")
        return low, high


_TABLE_CACHE: Dict[tuple, DecisionTable] = {}


def clear_table_cache() -> None:
    """Drop all memoised decision tables (used by tests)."""
    _TABLE_CACHE.clear()


def _cache_key(
    ladder_kbps: Tuple[float, ...],
    quality_values: Tuple[float, ...],
    chunk_duration_s: float,
    buffer_capacity_s: float,
    weights: QoEWeights,
    config: FastMPCConfig,
) -> tuple:
    return (
        ladder_kbps,
        quality_values,
        chunk_duration_s,
        buffer_capacity_s,
        (weights.switching, weights.rebuffering, weights.startup),
        (
            config.buffer_bins,
            config.throughput_bins,
            config.horizon,
            config.throughput_low_kbps,
            config.throughput_high_kbps,
            config.throughput_spacing,
        ),
    )


def build_decision_table(
    ladder_kbps: Iterable[float],
    chunk_duration_s: float,
    buffer_capacity_s: float,
    weights: QoEWeights,
    quality_values: Optional[Iterable[float]] = None,
    config: Optional[FastMPCConfig] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> DecisionTable:
    """Enumerate the binned state space and solve every instance offline.

    ``quality_values`` defaults to identity quality (``q(R) = R``).  Chunk
    sizes are the CBR model ``d(R) = L * R`` — the paper's table also keys
    on nominal rates, with VBR left to the online solver.

    Caching is two-level.  The in-process memo (``use_cache``) shares one
    table across every session of a run.  The optional disk cache —
    enabled by ``cache_dir`` or the ``REPRO_CACHE_DIR`` environment
    variable — additionally persists tables across processes and runs,
    keyed by the full configuration tuple; a hit skips the build and a
    stale/corrupt entry silently falls back to rebuilding.
    """
    ladder = tuple(float(r) for r in ladder_kbps)
    if not ladder or list(ladder) != sorted(ladder):
        raise ValueError("ladder must be non-empty and ascending")
    quality = (
        tuple(float(q) for q in quality_values)
        if quality_values is not None
        else ladder
    )
    if len(quality) != len(ladder):
        raise ValueError("one quality value per ladder level required")
    config = config if config is not None else FastMPCConfig()
    key = _cache_key(
        ladder, quality, chunk_duration_s, buffer_capacity_s, weights, config
    )
    if use_cache and key in _TABLE_CACHE:
        return _TABLE_CACHE[key]

    # Imported lazily: experiments.persistence sits above core in the
    # layering (it imports experiments.runner), so a module-level import
    # here would be circular.
    from ..experiments import persistence

    cached = persistence.load_cached_table(key, cache_dir=cache_dir)
    if cached is not None and cached.num_levels == len(ladder):
        if use_cache:
            _TABLE_CACHE[key] = cached
        return cached

    low, high = config.resolved_range(ladder)
    buffer_binning = Binning(0.0, buffer_capacity_s, config.buffer_bins, "linear")
    throughput_binning = Binning(low, high, config.throughput_bins, config.throughput_spacing)

    decisions = build_table_decisions(
        level_sizes_kilobits=[chunk_duration_s * r for r in ladder],  # CBR
        quality_values=quality,
        buffer_centers=buffer_binning.centers,
        throughput_centers=throughput_binning.centers,
        horizon=config.horizon,
        switching=weights.switching,
        rebuffering=weights.rebuffering,
        chunk_duration_s=chunk_duration_s,
        buffer_capacity_s=buffer_capacity_s,
    )

    table = DecisionTable(
        buffer_binning, len(ladder), throughput_binning, decisions.reshape(-1)
    )
    if use_cache:
        _TABLE_CACHE[key] = table
    persistence.save_cached_table(key, table, cache_dir=cache_dir)
    return table


def table_size_sweep(
    ladder_kbps: Iterable[float],
    chunk_duration_s: float,
    buffer_capacity_s: float,
    weights: QoEWeights,
    discretization_levels: Iterable[int] = (50, 100, 200, 500),
    horizon: int = 5,
    cache_dir: Optional[str] = None,
) -> List[TableSizeReport]:
    """Reproduce Table 1: table size vs discretization granularity.

    Each level count ``n`` uses ``n`` buffer bins and ``n`` throughput
    bins, mirroring the paper's single "discretization levels" knob.
    With a disk cache (``cache_dir`` / ``REPRO_CACHE_DIR``), a repeat
    sweep of the same configuration loads every table instead of
    rebuilding.
    """
    ladder = tuple(float(r) for r in ladder_kbps)
    reports = []
    for n in discretization_levels:
        config = FastMPCConfig(buffer_bins=n, throughput_bins=n, horizon=horizon)
        table = build_decision_table(
            ladder,
            chunk_duration_s,
            buffer_capacity_s,
            weights,
            config=config,
            cache_dir=cache_dir,
        )
        reports.append(table.size_report(n))
    return reports


class FastMPCController(ABRAlgorithm):
    """The table-driven player-side algorithm.

    Online cost per decision: one harmonic-mean update, two bin index
    computations, and one binary search — the "negligible overhead"
    claimed in Section 7.4 and measured by the overhead benchmark.

    Parameters
    ----------
    predictor:
        Defaults to the harmonic mean of the last 5 chunks.
    config:
        Discretization settings; the table is built (or fetched from the
        module cache) at :meth:`prepare` time.
    robust:
        When True, queries the table with the RobustMPC lower bound
        ``C_hat / (1 + err)`` — valid because the table's throughput axis
        *is* the MPC input that Theorem 1 says to lower-bound.
    cache_dir:
        Optional disk-cache directory for the built table (defaults to
        the ``REPRO_CACHE_DIR`` environment variable when unset).
    """

    name = "fastmpc"

    def __init__(
        self,
        predictor: Optional[ThroughputPredictor] = None,
        config: Optional[FastMPCConfig] = None,
        robust: bool = False,
        error_window: int = 5,
        name: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.predictor = predictor if predictor is not None else HarmonicMeanPredictor()
        self.table_config = config if config is not None else FastMPCConfig()
        self.robust = robust
        self.cache_dir = cache_dir
        self.error_tracker = PredictionErrorTracker(window=error_window)
        if name:
            self.name = name
        elif robust:
            self.name = "robust-fastmpc"
        self._pending_raw_prediction: Optional[float] = None
        self.table: Optional[DecisionTable] = None

    def prepare(self, manifest, config) -> None:
        super().prepare(manifest, config)
        self.error_tracker.reset()
        self._pending_raw_prediction = None
        quality_values = tuple(config.quality(r) for r in manifest.ladder)
        self.table = build_decision_table(
            manifest.ladder.levels_kbps,
            manifest.chunk_duration_s,
            config.buffer_capacity_s,
            config.weights,
            quality_values=quality_values,
            config=self.table_config,
            cache_dir=self.cache_dir,
        )

    def predictors(self) -> Iterable[ThroughputPredictor]:
        return (self.predictor,)

    def select_bitrate(self, observation: PlayerObservation) -> int:
        self._require_prepared()
        assert self.table is not None
        raw = self.predictor.predict(1)[0]
        self._pending_raw_prediction = raw
        query = raw
        if self.robust:
            query = raw / (1.0 + self.error_tracker.max_recent_abs_error())
        prev = observation.prev_level_index if observation.prev_level_index is not None else 0
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return self.table.lookup_traced(
                observation.buffer_level_s, prev, query, tracer
            )
        return self.table.lookup(observation.buffer_level_s, prev, query)

    def on_download_complete(self, result) -> None:
        if self._pending_raw_prediction is not None:
            self.error_tracker.record(
                self._pending_raw_prediction,
                result.throughput_kbps,
                duration_s=result.download_time_s,
                idle_s=result.idle_before_s,
                stall_s=result.stalled_s,
            )
            self._pending_raw_prediction = None
        super().on_download_complete(result)
