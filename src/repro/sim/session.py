"""The chunk-level trace-driven simulator (Section 7.3's framework).

*"The simulation takes as input a throughput trace and models the video
download/playback process and the buffer dynamics.  At time t_k when the
bitrate of chunk k is needed, the simulation calls the bitrate controller
embedded with different algorithms to get R_k."*

The engine implements Eqs. (1)–(4) exactly:

* download time of chunk ``k`` is obtained by inverting the trace
  integral (Eq. 1/2) — no per-chunk constant-throughput approximation;
* the buffer drains in real time while downloading, gains ``L`` per
  completed chunk, and rebuffering accrues whenever a download outlasts
  the buffer (Eq. 3);
* a full buffer forces the Eq. (4) pause before the next request;
* playback start is governed by a :class:`StartupPolicy` — immediately
  after the first chunk (real players; the default), at a fixed delay
  (the Figure 11d experiment), or extended by the algorithm's own
  ``f_stmpc`` startup decision.

Every decision flows through the :class:`~repro.abr.base.ABRAlgorithm`
interface, so the simulator runs the paper's algorithms and any
user-supplied one interchangeably.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..abr.base import (
    ABRAlgorithm,
    DownloadResult,
    PlayerObservation,
    SessionConfig,
)
from ..qoe import QoEBreakdown, compute_qoe
from ..obs.events import (
    ChunkDecision,
    ChunkDownload,
    PredictionSpan,
    Rebuffer,
    SessionSummary,
)
from ..obs.tracer import Tracer
from ..prediction.base import (
    OBSERVATION_FLOOR_KBPS,
    ThroughputObservation,
    TraceAware,
)
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .metrics import SessionMetrics

__all__ = ["StartupPolicy", "SessionResult", "simulate_session"]

_INFINITY = math.inf


class StartupPolicy(enum.Enum):
    """When playback begins relative to downloading."""

    FIRST_CHUNK = "first-chunk"  # play as soon as chunk 1 arrives (+ algo wait)
    FIXED = "fixed"  # play at a fixed wall-clock delay (Figure 11d)


@dataclass(frozen=True)
class SessionResult:
    """Everything observed during one simulated playback session."""

    algorithm_name: str
    trace_name: str
    records: tuple  # DownloadResult per chunk, in order
    startup_delay_s: float
    total_rebuffer_s: float
    total_wall_time_s: float
    config: SessionConfig

    @property
    def bitrates_kbps(self) -> List[float]:
        return [r.bitrate_kbps for r in self.records]

    @property
    def level_indices(self) -> List[int]:
        return [r.level_index for r in self.records]

    def qoe(self, weights=None, include_startup: bool = True) -> QoEBreakdown:
        """Score the session under Eq. 5 (optionally re-weighted)."""
        breakdown = compute_qoe(
            self.bitrates_kbps,
            self.total_rebuffer_s,
            self.startup_delay_s,
            weights if weights is not None else self.config.weights,
            self.config.quality,
        )
        return breakdown if include_startup else breakdown.without_startup()

    def metrics(self) -> SessionMetrics:
        return SessionMetrics.from_session(self)


def _bind_trace_aware(algorithm: ABRAlgorithm, trace: Trace, manifest: VideoManifest) -> None:
    for predictor in algorithm.predictors():
        if isinstance(predictor, TraceAware):
            predictor.bind_trace(trace, manifest.chunk_duration_s)


def _set_wall_time(algorithm: ABRAlgorithm, t: float) -> None:
    for predictor in algorithm.predictors():
        if isinstance(predictor, TraceAware):
            predictor.set_wall_time(t)


def simulate_session(
    algorithm: ABRAlgorithm,
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
    fixed_startup_delay_s: float = 0.0,
    tracer: Optional[Tracer] = None,
    session_id: str = "",
    link_faults: Optional[Iterable] = None,
    fault_seed: int = 0,
) -> SessionResult:
    """Play the whole video once and return the session log.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.abr.base.ABRAlgorithm`; it is ``prepare()``-d
        here, so instances may be reused across sessions.
    startup_policy / fixed_startup_delay_s:
        ``FIRST_CHUNK`` starts playback when the first chunk arrives plus
        the algorithm's optional extra wait; ``FIXED`` starts at the given
        wall-clock delay exactly (Section 7.3's startup experiment).
    tracer / session_id:
        When a :class:`repro.obs.Tracer` is given, the session emits the
        full per-chunk event timeline (decision, download, rebuffer,
        per-predictor prediction spans) plus a closing summary, and
        attaches itself to the algorithm so solver and table profiling
        hooks fire too.  ``session_id`` defaults to
        ``"<algorithm>:<trace>"``.
    link_faults / fault_seed:
        Per-transfer fault specs (:class:`LatencySpike` /
        :class:`ChunkFailure`) enforced by a seeded
        :class:`~repro.faults.simlink.SimLinkFaults` injector with the
        same semantics as the emulation's ``FaultyLink``: each transfer's
        fault overhead is dead wall time, counted into both the download
        time and the chunk's ``stalled_s``.  Bandwidth faults belong in
        the trace (:func:`~repro.faults.trace.apply_trace_faults`).
    """
    config = config if config is not None else SessionConfig()
    if link_faults:
        # Imported lazily: the faults package reaches into the emulation
        # layer (FaultyLink), which itself imports this module.
        from ..faults.simlink import SimLinkFaults

        injector = SimLinkFaults(link_faults, fault_seed)
    else:
        injector = None
    if startup_policy is StartupPolicy.FIXED and fixed_startup_delay_s < 0:
        raise ValueError("fixed startup delay must be >= 0")
    tracing = tracer is not None and tracer.enabled
    if tracing and not session_id:
        session_id = f"{algorithm.name}:{trace.name}"
    if tracing and not tracer.session_id:
        # Attribute solver/table profiling events (which are emitted with
        # an empty session id) to this session.  Reuse a fresh tracer per
        # session, or pre-set ``tracer.session_id``, when that matters.
        tracer.session_id = session_id
    if tracer is not None:
        algorithm.tracer = tracer
    algorithm.prepare(manifest, config)
    _bind_trace_aware(algorithm, trace, manifest)

    L = manifest.chunk_duration_s
    bmax = config.buffer_capacity_s
    t = 0.0
    buffer_s = 0.0
    playback_start_s = (
        fixed_startup_delay_s if startup_policy is StartupPolicy.FIXED else _INFINITY
    )
    total_rebuffer = 0.0
    prev_level: Optional[int] = None
    records: List[DownloadResult] = []
    last_transfer_end = 0.0  # wall time the previous download finished

    for k in range(manifest.num_chunks):
        _set_wall_time(algorithm, t)
        idle_before = t - last_transfer_end
        observation = PlayerObservation(
            chunk_index=k,
            buffer_level_s=buffer_s,
            prev_level_index=prev_level,
            wall_time_s=t,
            playback_started=t >= playback_start_s,
        )
        if tracing:
            _decide_t0 = time.perf_counter()
        level = algorithm.select_bitrate(observation)
        if not 0 <= level < len(manifest.ladder):
            raise ValueError(
                f"{algorithm.name} returned invalid level {level} for chunk {k}"
            )
        if tracing:
            tracer.emit(
                ChunkDecision(
                    session_id=session_id,
                    t_mono=tracer.now(),
                    chunk_index=k,
                    buffer_s=observation.buffer_level_s,
                    prev_level=prev_level,
                    level=level,
                    bitrate_kbps=manifest.ladder[level],
                    wall_time_s=observation.wall_time_s,
                    decide_wall_s=time.perf_counter() - _decide_t0,
                )
            )
        if tracing:
            _pending_predictions = [
                (p.name, p.predict(1)[0]) for p in algorithm.predictors()
            ]
        size = manifest.chunk_size_kilobits(k, level)
        # Link-fault overhead is dead time ahead of the first byte; the
        # trace transfer then starts at the delayed instant.  With no
        # injector the arithmetic below is untouched (+0.0 paths), so
        # fault-free sessions reproduce their historical floats exactly.
        overhead = injector.overhead_s(t) if injector is not None else 0.0
        transfer_time, trace_stall = trace.download_time_and_stall(
            t + overhead, size
        )
        download_time = overhead + transfer_time
        stalled = overhead + trace_stall
        t_end = t + download_time

        # Real-time drain over the portion of the download after playback
        # has started (Eq. 3, generalised to mid-download playback start).
        drain = max(0.0, t_end - max(playback_start_s, t))
        rebuffer = max(drain - buffer_s, 0.0)
        buffer_s = max(buffer_s - drain, 0.0)
        total_rebuffer += rebuffer
        t = t_end
        last_transfer_end = t
        buffer_s += L

        if playback_start_s == _INFINITY:
            # FIRST_CHUNK policy: playback begins now, plus any extra wait
            # the algorithm requests (MPC's f_stmpc startup decision).
            extra = algorithm.select_startup_wait(
                PlayerObservation(
                    chunk_index=k,
                    buffer_level_s=buffer_s,
                    prev_level_index=level,
                    wall_time_s=t,
                    playback_started=False,
                )
            )
            if extra < 0:
                raise ValueError("startup wait must be >= 0")
            t += extra
            playback_start_s = t

        waited = 0.0
        if buffer_s > bmax and playback_start_s == _INFINITY:
            # FIRST_CHUNK sessions never overflow before playback, but
            # a misbehaving startup wait could; begin playback now.
            playback_start_s = t
        # Eq. (4), generalised by request pacing: pause until the buffer
        # drains to the pacing threshold (Bmax by default).  Under a FIXED
        # startup policy the buffer only drains once playback begins, so
        # the wait spans until then too.  Pre-playback, pacing below Bmax
        # does not apply (players build their pre-roll at full speed).
        threshold = config.pacing_threshold_s
        if buffer_s > threshold and playback_start_s != _INFINITY:
            if t >= playback_start_s or buffer_s > bmax:
                drain_start = max(t, playback_start_s)
                waited = (drain_start - t) + (buffer_s - threshold)
                t = drain_start + (buffer_s - threshold)
                buffer_s = threshold

        result = DownloadResult(
            chunk_index=k,
            level_index=level,
            bitrate_kbps=manifest.ladder[level],
            size_kilobits=size,
            download_time_s=download_time,
            # Floored: a blackout chunk (download_time = inf) divides to
            # exactly 0.0, which the constructor rejects; sub-floor
            # trickles clamp the same way the predictors already do.
            throughput_kbps=max(
                size / download_time if download_time > 0 else _INFINITY,
                OBSERVATION_FLOOR_KBPS,
            ),
            rebuffer_s=rebuffer,
            buffer_after_s=buffer_s,
            wall_time_end_s=t,
            waited_s=waited,
            buffer_before_s=observation.buffer_level_s,
            stalled_s=stalled,
            idle_before_s=idle_before,
        )
        records.append(result)
        if tracing:
            tracer.emit(
                ChunkDownload(
                    session_id=session_id,
                    t_mono=tracer.now(),
                    chunk_index=k,
                    level=level,
                    bitrate_kbps=result.bitrate_kbps,
                    size_kilobits=size,
                    download_time_s=download_time,
                    throughput_kbps=result.throughput_kbps,
                    rebuffer_s=rebuffer,
                    buffer_before_s=result.buffer_before_s,
                    buffer_after_s=buffer_s,
                    wall_time_end_s=t,
                    waited_s=waited,
                )
            )
            if rebuffer > 0:
                tracer.emit(
                    Rebuffer(
                        session_id=session_id,
                        t_mono=tracer.now(),
                        chunk_index=k,
                        duration_s=rebuffer,
                        wall_time_s=t,
                    )
                )
            if _pending_predictions:
                # The active rate is exactly what a gap-corrected
                # predictor will reconstruct from this download.
                active = ThroughputObservation(
                    result.throughput_kbps,
                    download_time,
                    idle_s=idle_before,
                    stall_s=stalled,
                ).active_kbps
                for predictor_name, predicted in _pending_predictions:
                    tracer.emit(
                        PredictionSpan(
                            session_id=session_id,
                            t_mono=tracer.now(),
                            chunk_index=k,
                            predictor=predictor_name,
                            predicted_kbps=predicted,
                            actual_kbps=result.throughput_kbps,
                            active_kbps=active,
                            error=(predicted - active) / active,
                            duration_s=download_time,
                            idle_s=idle_before,
                            stall_s=stalled,
                        )
                    )
        algorithm.on_download_complete(result)
        prev_level = level

    startup_delay = playback_start_s if playback_start_s != _INFINITY else t
    session = SessionResult(
        algorithm_name=algorithm.name,
        trace_name=trace.name,
        records=tuple(records),
        startup_delay_s=startup_delay,
        total_rebuffer_s=total_rebuffer,
        total_wall_time_s=t,
        config=config,
    )
    if tracing:
        tracer.emit(
            SessionSummary(
                session_id=session_id,
                t_mono=tracer.now(),
                algorithm=algorithm.name,
                trace_name=trace.name,
                num_chunks=len(records),
                startup_delay_s=startup_delay,
                total_rebuffer_s=total_rebuffer,
                total_wall_time_s=t,
                qoe_total=session.qoe().total,
                weight_switching=config.weights.switching,
                weight_rebuffering=config.weights.rebuffering,
                weight_startup=config.weights.startup,
            )
        )
    return session
