"""The batch session stepper — Eq. 1–4 over an array of sessions.

One :func:`run_batch` call advances N sessions through a whole video in
lockstep: struct-of-arrays state (wall time, buffer, accumulated
rebuffer, previous level per session) and one vectorized decision +
dynamics step per chunk.  The correctness bar is *exact parity*: for
every session the level sequence, per-chunk rebuffer/buffer trajectory,
download times, startup delay, and QoE breakdown are bit-identical to
running :func:`repro.sim.session.simulate_session` on that session alone
(same floats, same tie-breaks).

What makes exactness possible (and where the traps were):

* All per-session dynamics are elementwise float64 arithmetic replicated
  in the scalar simulator's operation order — elementwise NumPy
  add/sub/mul/div/maximum are IEEE-754 identical to the Python-float
  expression, so ``drain``/``rebuffer``/pacing come out bit-equal.
* Reductions are **not** IEEE-order-stable in NumPy (pairwise
  summation), so none are used where the scalar code sums sequentially:
  QoE quality/switching totals and the rebuffer total accumulate chunk
  by chunk with elementwise adds, in the simulator's own order.
* Download times invert the trace integral with a masked lockstep
  re-implementation of :meth:`Trace.time_to_download` — the same
  segment walk, the same ``_EPS`` completion test, the same
  floor-division repetition skip — never a closed-form inversion, whose
  rounding would diverge.
* Segment location is comparison-only (a per-session hint index advanced
  while ``t >= times[idx+1]``, exactly ``bisect_right``'s recurrence),
  not arithmetic search, so it cannot disagree with the scalar walk.
* Under the FIRST_CHUNK startup policy every supported controller's
  ``select_startup_wait`` is the base-class 0.0, and playback always
  starts at the first chunk's completion — which pins
  ``max(playback_start, t) == t`` for every later chunk and lets the
  pacing wait collapse to ``buffer - threshold`` exactly as the scalar
  expressions do.

With ``engine="scalar"`` each session runs through the reference
simulator itself, which is parity-exact by construction — the oracle
the vector engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..abr.base import SessionConfig
from ..core.fastmpc import FastMPCConfig
from ..traces.trace import Trace, _EPS
from ..video.manifest import VideoManifest
from .controllers import (
    SUPPORTED_CONTROLLERS,
    make_batch_controller,
    make_scalar_algorithm,
)

__all__ = ["TraceBank", "BatchResult", "run_batch"]

_ENGINES = ("vector", "scalar")


@dataclass
class BatchResult:
    """Struct-of-arrays log of one batch: row i is session i.

    The 2-D fields are ``(num_sessions, num_chunks)``; the 1-D fields
    one value per session.  Arrays are NumPy under the vector engine and
    plain nested lists under the scalar engine — both index the same
    way, and the *values* are identical between engines.
    """

    controller: str
    num_sessions: int
    num_chunks: int
    engine: str
    levels: object  # int, per chunk
    rebuffer_s: object  # per chunk
    buffer_after_s: object  # per chunk, after pacing
    download_time_s: object  # per chunk
    startup_delay_s: object
    total_rebuffer_s: object
    total_wall_time_s: object
    quality_total: object
    switching_total: object
    qoe_total: object
    mean_bitrate_kbps: object

    def qoe_per_chunk(self):
        """Per-session QoE normalised by chunk count (the population
        metric the fleet histograms aggregate — Eq. 5 per chunk)."""
        if self.num_sessions == 0:
            return []
        if isinstance(self.qoe_total, np.ndarray):
            return self.qoe_total / self.num_chunks
        return [value / self.num_chunks for value in self.qoe_total]

    def session_levels(self, i: int) -> List[int]:
        return [int(level) for level in self.levels[i]]


# ----------------------------------------------------------------------
# TraceBank — flattened piecewise-constant traces for gather access
# ----------------------------------------------------------------------


class TraceBank:
    """Per-session views over the batch's (deduplicated) traces.

    Stores every unique trace's segment start times, bandwidths, and
    segment ends as slices of flat arrays, plus per-session gather
    offsets.  ``segend_flat`` holds ``times[i+1]`` (or the duration for
    the last segment) **copied, not recomputed**, so the lockstep walk
    compares and subtracts exactly the floats the scalar walk does.
    ``per_pass`` comes from the trace's own integrator for the same
    reason.
    """

    def __init__(self, traces: Sequence[Trace]) -> None:
        unique: dict = {}
        order: List[Trace] = []
        session_tids: List[int] = []
        for trace in traces:
            tid = unique.get(id(trace))
            if tid is None:
                tid = len(order)
                unique[id(trace)] = tid
                order.append(trace)
            session_tids.append(tid)

        times_flat: List[float] = []
        bw_flat: List[float] = []
        segend_flat: List[float] = []
        offsets: List[int] = []
        nseg: List[int] = []
        durations: List[float] = []
        per_pass: List[float] = []
        stall_pp: List[float] = []
        for trace in order:
            offsets.append(len(times_flat))
            times = list(trace.timestamps)
            times_flat.extend(times)
            bw_flat.extend(trace.bandwidths_kbps)
            segend_flat.extend(times[1:])
            segend_flat.append(trace.duration_s)
            nseg.append(len(times))
            durations.append(trace.duration_s)
            bits = trace._kilobits_one_pass(0.0, trace.duration_s)
            if bits <= 0:
                raise ValueError(
                    "trace delivers zero bytes per pass; download never completes"
                )
            per_pass.append(bits)
            stall_pp.append(trace._stall_one_pass())

        self.num_traces = len(order)
        self.times_flat = np.asarray(times_flat, dtype=np.float64)
        self.bw_flat = np.asarray(bw_flat, dtype=np.float64)
        self.segend_flat = np.asarray(segend_flat, dtype=np.float64)
        tids = np.asarray(session_tids, dtype=np.int64)
        self.off = np.asarray(offsets, dtype=np.int64)[tids]
        self.nseg = np.asarray(nseg, dtype=np.int64)[tids]
        self.duration = np.asarray(durations, dtype=np.float64)[tids]
        self.per_pass = np.asarray(per_pass, dtype=np.float64)[tids]
        self.stall_pp = np.asarray(stall_pp, dtype=np.float64)[tids]
        self._max_nseg = int(max(nseg)) if nseg else 0

    # ------------------------------------------------------------------

    def _wrap(self, t):
        """``Trace._wrap`` per session: identity below the duration,
        Python float ``%`` (exact fmod for positive operands) above."""
        wrapped = t >= self.duration
        if not wrapped.any():
            return t.copy()
        tw = t.copy()
        for i in np.nonzero(wrapped)[0].tolist():
            tw[i] = float(t[i]) % float(self.duration[i])
        return tw

    def locate(self, tw, hint):
        """``bisect_right(times, tw) - 1`` via hint advance.

        Comparison-only: reset the hint to 0 where the session wrapped
        behind it, then advance while ``tw >= times[idx + 1]`` — the
        exact ``bisect_right`` recurrence, immune to rounding.
        """
        idx = hint.copy()
        behind = tw < self.times_flat[self.off + idx]
        if behind.any():
            idx[behind] = 0
        while True:
            can = idx + 1 < self.nseg
            pos = np.where(can, self.off + idx + 1, self.off)
            advance = can & (tw >= self.times_flat[pos])
            if not advance.any():
                return idx
            idx = idx + advance

    def time_to_download(self, t0, size_kilobits, hint):
        """Vectorized :meth:`Trace.time_to_download` — exact per session.

        A masked lockstep walk: each iteration advances every still-
        downloading session by one trace segment, with the scalar
        inverter's own phase structure (leading partial pass, floor-
        division skip over whole repetitions, wrapped tail walk) and its
        ``_EPS`` completion test.  ``hint`` is updated in place with the
        located start segment for the next chunk's warm start.
        """
        return self._walk(t0, size_kilobits, hint, collect_stall=False)[0]

    def download_time_and_stall(self, t0, size_kilobits, hint):
        """Vectorized :meth:`Trace.download_time_and_stall`.

        The identical walk with a stall accumulator bolted on — zero-
        bandwidth segments contribute their length, whole-repetition
        skips contribute ``full * stall_per_pass`` — mirroring the
        scalar method's accrual points exactly, and (like the scalar
        twin) never touching the download-time arithmetic.
        """
        return self._walk(t0, size_kilobits, hint, collect_stall=True)

    def _walk(self, t0, size_kilobits, hint, collect_stall):
        n = int(t0.shape[0])
        tw = self._wrap(t0)
        start_idx = self.locate(tw, hint)
        hint[:] = start_idx

        out = np.zeros(n, dtype=np.float64)
        stall = np.zeros(n, dtype=np.float64)
        remaining = np.asarray(size_kilobits, dtype=np.float64).copy()
        elapsed = np.zeros(n, dtype=np.float64)
        t = tw.copy()
        idx = start_idx.copy()
        phase = np.zeros(n, dtype=np.int8)  # 0 = leading pass, 1 = post-skip
        active = remaining > 0.0  # size 0 downloads take 0 s, as scalar

        guard = 2 * self._max_nseg + 64
        iteration = 0
        while active.any():
            iteration += 1
            if iteration > guard:  # pragma: no cover - defensive
                raise RuntimeError("download walk failed to terminate")
            ids = np.nonzero(active)[0]

            # Leading pass exhausted: skip whole repetitions by floor
            # division, then restart the walk from the top of the trace.
            trans = (phase[ids] == 0) & (idx[ids] >= self.nseg[ids])
            if trans.any():
                tids = ids[trans]
                big = remaining[tids] > _EPS
                if big.any():
                    mids = tids[big]
                    full = np.floor(remaining[mids] / self.per_pass[mids])
                    remaining[mids] = remaining[mids] - full * self.per_pass[mids]
                    elapsed[mids] = elapsed[mids] + full * self.duration[mids]
                    if collect_stall:
                        stall[mids] = stall[mids] + full * self.stall_pp[mids]
                phase[tids] = 1
                t[tids] = 0.0
                idx[tids] = 0

            # Post-skip loop condition: `while remaining > _EPS`.
            done = (phase[ids] == 1) & (remaining[ids] <= _EPS)
            if done.any():
                dids = ids[done]
                out[dids] = elapsed[dids]
                active[dids] = False
                ids = np.nonzero(active)[0]
                if ids.size == 0:
                    break

            # One segment step, identical arithmetic to the scalar walk.
            pos = self.off[ids] + idx[ids]
            bw = self.bw_flat[pos]
            seg_end = self.segend_flat[pos]
            seg_len = seg_end - t[ids]
            seg_bits = bw * seg_len
            rem = remaining[ids]
            finish = (seg_bits >= rem - _EPS) & (bw > 0.0)
            if finish.any():
                fids = ids[finish]
                out[fids] = elapsed[fids] + rem[finish] / bw[finish]
                active[fids] = False
            cont = ~finish
            if cont.any():
                cids = ids[cont]
                remaining[cids] = remaining[cids] - seg_bits[cont]
                elapsed[cids] = elapsed[cids] + seg_len[cont]
                if collect_stall:
                    zero = bw[cont] == 0.0
                    if zero.any():
                        zids = cids[zero]
                        stall[zids] = stall[zids] + seg_len[cont][zero]
                t[cids] = seg_end[cont]
                idx[cids] = idx[cids] + 1
                wrap = (phase[cids] == 1) & (idx[cids] >= self.nseg[cids])
                if wrap.any():
                    wids = cids[wrap]
                    t[wids] = 0.0
                    idx[wids] = 0
        return out, stall


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def _empty_result(controller: str, manifest: VideoManifest, engine: str) -> BatchResult:
    empty: List = []
    return BatchResult(
        controller=controller,
        num_sessions=0,
        num_chunks=manifest.num_chunks,
        engine=engine,
        levels=empty,
        rebuffer_s=[],
        buffer_after_s=[],
        download_time_s=[],
        startup_delay_s=[],
        total_rebuffer_s=[],
        total_wall_time_s=[],
        quality_total=[],
        switching_total=[],
        qoe_total=[],
        mean_bitrate_kbps=[],
    )


def _run_vector(
    controller_name: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    config: SessionConfig,
    cache_dir: Optional[str],
    table_config: Optional[FastMPCConfig],
) -> BatchResult:
    n = len(traces)
    num_chunks = manifest.num_chunks
    num_levels = len(manifest.ladder)
    bank = TraceBank(traces)
    controller = make_batch_controller(controller_name, cache_dir, table_config)
    controller.prepare(manifest, config, n)

    chunk_s = manifest.chunk_duration_s
    threshold = config.pacing_threshold_s
    ladder_arr = np.asarray(manifest.ladder.levels_kbps, dtype=np.float64)
    quality_arr = np.asarray(
        [config.quality(rate) for rate in manifest.ladder], dtype=np.float64
    )
    sizes = np.asarray(
        [
            [manifest.chunk_size_kilobits(k, level) for level in range(num_levels)]
            for k in range(num_chunks)
        ],
        dtype=np.float64,
    )

    t = np.zeros(n, dtype=np.float64)
    buffer_s = np.zeros(n, dtype=np.float64)
    total_rebuffer = np.zeros(n, dtype=np.float64)
    playback_start = np.zeros(n, dtype=np.float64)
    prev_levels = np.zeros(n, dtype=np.int64)
    prev_quality = np.zeros(n, dtype=np.float64)
    quality_total = np.zeros(n, dtype=np.float64)
    switching_total = np.zeros(n, dtype=np.float64)
    bitrate_total = np.zeros(n, dtype=np.float64)
    hint = np.zeros(n, dtype=np.int64)

    levels_out = np.empty((n, num_chunks), dtype=np.int64)
    rebuffer_out = np.empty((n, num_chunks), dtype=np.float64)
    buffer_out = np.empty((n, num_chunks), dtype=np.float64)
    download_out = np.empty((n, num_chunks), dtype=np.float64)

    wants_gap = controller.wants_gap_context
    for k in range(num_chunks):
        levels = controller.decide(k, buffer_s, prev_levels)
        if levels.size and (levels.min() < 0 or levels.max() >= num_levels):
            raise ValueError(
                f"{controller_name} returned an invalid level for chunk {k}"
            )
        size = sizes[k][levels]
        if wants_gap:
            download_time, stalled = bank.download_time_and_stall(t, size, hint)
        else:
            download_time = bank.time_to_download(t, size, hint)
            stalled = None
        t_end = t + download_time

        if k == 0:
            # FIRST_CHUNK: playback has not started, so nothing drains
            # (scalar: drain = max(0, t_end - max(inf, t)) = 0), and
            # playback begins at this chunk's completion (wait = 0.0 for
            # every supported controller).
            rebuffer = np.zeros(n, dtype=np.float64)
            t = t_end
            buffer_s = buffer_s + chunk_s
            playback_start = t.copy()
        else:
            # Playback started at chunk 0's completion, so
            # max(playback_start, t) == t for every later chunk.
            drain = np.maximum(0.0, t_end - t)
            rebuffer = np.maximum(drain - buffer_s, 0.0)
            buffer_s = np.maximum(buffer_s - drain, 0.0)
            total_rebuffer = total_rebuffer + rebuffer
            t = t_end
            buffer_s = buffer_s + chunk_s

        # Eq. 4 pacing: wait until the buffer drains to the threshold.
        # drain_start = max(t, playback_start) = t, so the wait is
        # exactly (buffer - threshold), as in the scalar expressions.
        over = buffer_s > threshold
        if over.any():
            t[over] = t[over] + (buffer_s[over] - threshold)
            buffer_s[over] = threshold

        with np.errstate(divide="ignore"):
            throughput = size / download_time

        levels_out[:, k] = levels
        rebuffer_out[:, k] = rebuffer
        buffer_out[:, k] = buffer_s
        download_out[:, k] = download_time

        chunk_quality = quality_arr[levels]
        quality_total = quality_total + chunk_quality
        if k > 0:
            switching_total = switching_total + np.abs(chunk_quality - prev_quality)
        prev_quality = chunk_quality
        bitrate_total = bitrate_total + ladder_arr[levels]

        controller.observe(throughput, download_time, stalled)
        prev_levels = levels

    weights = config.weights
    qoe_total = quality_total - weights.switching * switching_total
    qoe_total = qoe_total - weights.rebuffering * total_rebuffer
    qoe_total = qoe_total - weights.startup * playback_start

    return BatchResult(
        controller=controller_name,
        num_sessions=n,
        num_chunks=num_chunks,
        engine="vector",
        levels=levels_out,
        rebuffer_s=rebuffer_out,
        buffer_after_s=buffer_out,
        download_time_s=download_out,
        startup_delay_s=playback_start,
        total_rebuffer_s=total_rebuffer,
        total_wall_time_s=t,
        quality_total=quality_total,
        switching_total=switching_total,
        qoe_total=qoe_total,
        mean_bitrate_kbps=bitrate_total / num_chunks,
    )


def _run_scalar(
    controller_name: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    config: SessionConfig,
    cache_dir: Optional[str],
    table_config: Optional[FastMPCConfig],
) -> BatchResult:
    # The reference path: one simulate_session per row.  Parity with the
    # vector engine is the test suite's core invariant; fresh algorithm
    # instances per session mirror the vector engine's per-row state.
    from ..sim.session import simulate_session

    num_chunks = manifest.num_chunks
    levels: List[List[int]] = []
    rebuffer: List[List[float]] = []
    buffer_after: List[List[float]] = []
    download: List[List[float]] = []
    startup: List[float] = []
    total_rebuffer: List[float] = []
    wall: List[float] = []
    quality: List[float] = []
    switching: List[float] = []
    qoe: List[float] = []
    mean_bitrate: List[float] = []
    for trace in traces:
        algorithm = make_scalar_algorithm(controller_name, cache_dir, table_config)
        result = simulate_session(algorithm, trace, manifest, config)
        breakdown = result.qoe()
        levels.append([record.level_index for record in result.records])
        rebuffer.append([record.rebuffer_s for record in result.records])
        buffer_after.append([record.buffer_after_s for record in result.records])
        download.append([record.download_time_s for record in result.records])
        startup.append(result.startup_delay_s)
        total_rebuffer.append(result.total_rebuffer_s)
        wall.append(result.total_wall_time_s)
        quality.append(breakdown.quality_total)
        switching.append(breakdown.switching_total)
        qoe.append(breakdown.total)
        total = 0.0
        for record in result.records:
            total += record.bitrate_kbps
        mean_bitrate.append(total / num_chunks)
    return BatchResult(
        controller=controller_name,
        num_sessions=len(traces),
        num_chunks=num_chunks,
        engine="scalar",
        levels=levels,
        rebuffer_s=rebuffer,
        buffer_after_s=buffer_after,
        download_time_s=download,
        startup_delay_s=startup,
        total_rebuffer_s=total_rebuffer,
        total_wall_time_s=wall,
        quality_total=quality,
        switching_total=switching,
        qoe_total=qoe,
        mean_bitrate_kbps=mean_bitrate,
    )


def run_batch(
    controller: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    *,
    cache_dir: Optional[str] = None,
    table_config: Optional[FastMPCConfig] = None,
    engine: str = "vector",
) -> BatchResult:
    """Simulate one session per trace, all in lockstep.

    Parameters
    ----------
    controller:
        One of :data:`~repro.fleet.controllers.SUPPORTED_CONTROLLERS`.
    traces:
        One :class:`Trace` per session (repeats allowed and deduplicated
        internally).  Empty input returns a well-formed empty result.
    engine:
        ``"vector"`` (the struct-of-arrays stepper) or ``"scalar"``.
        Both engines produce identical values; the scalar engine is the
        reference simulator itself.
    table_config:
        Optional FastMPC table discretization override, threaded to both
        engines so they keep sharing one table.
    """
    if controller not in SUPPORTED_CONTROLLERS:
        raise ValueError(
            f"unsupported fleet controller {controller!r}; expected one of "
            f"{SUPPORTED_CONTROLLERS}"
        )
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if manifest.num_chunks < 1:
        raise ValueError("manifest must have at least one chunk")
    config = config if config is not None else SessionConfig()
    traces = list(traces)
    if not traces:
        return _empty_result(controller, manifest, engine)
    if engine == "vector":
        return _run_vector(
            controller, traces, manifest, config, cache_dir, table_config
        )
    return _run_scalar(controller, traces, manifest, config, cache_dir, table_config)
