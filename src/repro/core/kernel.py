"""Batched horizon-solver kernel — one plan evaluator for every consumer.

Every hot path of the reproduction ultimately evaluates the same
recurrence: roll the buffer dynamics of Eqs. (1)-(4) forward over all
``|R|^N`` candidate plans and take the QoE argmax.  Historically each
consumer re-implemented that roll-out — :func:`~repro.core.horizon.
solve_horizon` per chunk, :func:`~repro.core.horizon.solve_startup` once
per wait-grid point, and the FastMPC table builder in a hand-rolled
double loop over ``(buffer_bin, prev_level)`` states.  This module is the
single implementation they all delegate to:

* :class:`_BatchEvaluator` — reusable scratch buffers plus the vectorised
  plan roll-out, evaluating ``(n_instances, n_plans)`` in one shot.  The
  arithmetic is element-wise and associates *exactly* like the scalar
  reference solver, so batched results are bit-identical to
  :func:`~repro.core.horizon.solve_horizon_reference` (same optimal QoE,
  same lexicographic tie-break).

* :func:`solve_horizon_batch` — solve many :class:`~repro.core.horizon.
  HorizonProblem` instances at once.  Problems sharing structure (ladder,
  weights, horizon, chunk duration, capacity) are stacked into one NumPy
  computation; oversized plan spaces fall back to the exact Pareto DP per
  instance.

* :func:`build_table_decisions` — the FastMPC offline enumeration.  It
  exploits the table's extra structure (CBR sizes, flat predictions): the
  quality/switching part of a plan's QoE is independent of the buffer and
  throughput state, so it is computed once per plan and only the
  rebuffering dynamics are rolled out per state.  This re-associates the
  floating-point sum (documented; immaterial at the table's resolution)
  and is what makes a 100x100x5 table build several times faster than
  per-state solves.

Instance batches are chunked internally so scratch stays bounded
(:data:`MAX_BATCH_ELEMENTS` elements per array) regardless of batch size.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import SolverCall

from .horizon import (
    _ENUMERATION_LIMIT,
    _plan_matrix,
    HorizonProblem,
    HorizonSolution,
    solve_horizon_dp,
)

__all__ = ["solve_horizon_batch", "build_table_decisions", "MAX_BATCH_ELEMENTS"]

# Upper bound on the element count of any one scratch array (~16 MB of
# float64).  Batches larger than this are processed in chunks.
MAX_BATCH_ELEMENTS = 2_000_000


class _BatchEvaluator:
    """Reusable scratch state for the vectorised plan roll-out.

    An evaluator owns a small dictionary of named scratch arrays, reused
    across calls whenever the requested shape matches (the common case:
    one controller solving the same-shaped problem every chunk).  Holding
    one evaluator per session removes all per-decision allocations from
    the online MPC path; a fresh throw-away evaluator degrades gracefully
    to the old allocate-per-call behaviour.

    Not thread-safe: the returned arrays alias the scratch and are only
    valid until the next call on the same evaluator.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def scratch(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """An uninitialised float64 array of ``shape``, reused when possible."""
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = np.empty(shape, dtype=np.float64)
            self._arrays[name] = arr
        return arr

    def evaluate(
        self,
        plans: np.ndarray,
        sizes: np.ndarray,
        preds: np.ndarray,
        buffer0: np.ndarray,
        prev_quality: Optional[np.ndarray],
        quality: np.ndarray,
        switching: float,
        rebuffering: float,
        chunk_duration_s: float,
        buffer_capacity_s: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """QoE, total rebuffer and final buffer of every (instance, plan).

        Parameters
        ----------
        plans:
            ``(M, N)`` level indices (from :func:`~repro.core.horizon.
            _plan_matrix`).
        sizes:
            ``(n, N, levels)`` per-instance chunk sizes, or ``(N, levels)``
            shared by all instances.
        preds:
            ``(n, N)`` per-instance predictions, or ``(N,)`` shared.
        buffer0:
            ``(n,)`` starting buffer levels.
        prev_quality:
            ``(n,)`` previous-chunk qualities with NaN marking "no
            previous chunk" (no first-step switching penalty), or None
            when no instance has a previous chunk.
        quality:
            ``(levels,)`` the ladder's quality values.

        Returns ``(qoe, rebuffer, final_buffer)``, each ``(n, M)`` views
        into this evaluator's scratch — consume before the next call.
        """
        n = buffer0.shape[0]
        m, horizon = plans.shape
        qoe = self.scratch("qoe", (n, m))
        rebuf = self.scratch("rebuf", (n, m))
        buf = self.scratch("buf", (n, m))
        dt = self.scratch("dt", (n, m))
        tmp = self.scratch("tmp", (n, m))
        qoe.fill(0.0)
        rebuf.fill(0.0)
        buf[:] = buffer0[:, None]
        shared_sizes = sizes.ndim == 2
        shared_preds = preds.ndim == 1
        no_prev = None
        if prev_quality is not None:
            mask = np.isnan(prev_quality)
            if mask.any():
                no_prev = mask

        for i in range(horizon):
            levels = plans[:, i]
            q_now = quality[levels]  # (M,)
            if shared_sizes:
                step_sizes = sizes[i, levels]  # (M,)
                if shared_preds:
                    np.divide(step_sizes[None, :], preds[i], out=dt)
                else:
                    np.divide(step_sizes[None, :], preds[:, i, None], out=dt)
            else:
                np.take(sizes[:, i, :], levels, axis=1, out=tmp)
                if shared_preds:
                    np.divide(tmp, preds[i], out=dt)
                else:
                    np.divide(tmp, preds[:, i, None], out=dt)
            # stall = max(dt - buffer, 0); accumulate before reusing tmp.
            np.subtract(dt, buf, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            rebuf += tmp
            # qoe += q_now - mu * stall (exact reference association).
            np.multiply(tmp, rebuffering, out=tmp)
            np.subtract(q_now[None, :], tmp, out=tmp)
            qoe += tmp
            # buffer = min(max(buffer - dt, 0) + L, Bmax)  (Eqs. 1-4).
            np.subtract(buf, dt, out=buf)
            np.maximum(buf, 0.0, out=buf)
            buf += chunk_duration_s
            np.minimum(buf, buffer_capacity_s, out=buf)
            # Switching penalty: per-instance at the first step, shared
            # between steps (the plan fixes both qualities).
            if i == 0:
                if prev_quality is not None:
                    np.subtract(q_now[None, :], prev_quality[:, None], out=tmp)
                    np.abs(tmp, out=tmp)
                    np.multiply(tmp, switching, out=tmp)
                    if no_prev is not None:
                        tmp[no_prev, :] = 0.0
                    qoe -= tmp
            else:
                penalty = switching * np.abs(q_now - quality[plans[:, i - 1]])
                qoe -= penalty[None, :]
        return qoe, rebuf, buf


def _solve_rows(
    evaluator: Optional[_BatchEvaluator],
    plans,
    sizes,
    preds,
    buffer0,
    prev_quality,
    quality,
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
):
    """Argmax-reduced batch evaluation, chunked to bound scratch size.

    Returns per-instance arrays ``(best_plan_index, qoe, rebuffer,
    final_buffer)``; the argmax takes the first maximum, i.e. the
    lexicographically smallest optimal plan.
    """
    if evaluator is None:
        evaluator = _BatchEvaluator()
    n = buffer0.shape[0]
    m = plans.shape[0]
    step = max(1, MAX_BATCH_ELEMENTS // m)
    best = np.empty(n, dtype=np.int64)
    best_qoe = np.empty(n)
    best_rebuf = np.empty(n)
    best_buf = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        qoe, rebuf, fin = evaluator.evaluate(
            plans,
            sizes if sizes.ndim == 2 else sizes[lo:hi],
            preds if preds.ndim == 1 else preds[lo:hi],
            buffer0[lo:hi],
            None if prev_quality is None else prev_quality[lo:hi],
            quality,
            switching,
            rebuffering,
            chunk_duration_s,
            buffer_capacity_s,
        )
        idx = np.argmax(qoe, axis=1)
        rows = np.arange(hi - lo)
        best[lo:hi] = idx
        best_qoe[lo:hi] = qoe[rows, idx]
        best_rebuf[lo:hi] = rebuf[rows, idx]
        best_buf[lo:hi] = fin[rows, idx]
    return best, best_qoe, best_rebuf, best_buf


def solve_horizon_batch(
    problems: Iterable[HorizonProblem],
    evaluator: Optional[_BatchEvaluator] = None,
    tracer=None,
) -> List[HorizonSolution]:
    """Solve many ``QOE_MAX_STEADY`` instances in one vectorised pass.

    Problems are grouped by shared structure (ladder qualities, weights,
    horizon, chunk duration, capacity); each group is stacked into a
    single ``(n_instances, n_plans)`` evaluation.  Per-instance chunk
    sizes (VBR rows) and predictions may differ freely within a group.
    Results are returned in input order and are bit-identical to
    :func:`~repro.core.horizon.solve_horizon` on each instance —
    including the lexicographic tie-break — because the batched
    arithmetic associates exactly like the scalar reference.

    Instances whose plan space exceeds the enumeration limit are solved
    with the exact Pareto DP, matching ``solve_horizon``'s dispatch.

    A :class:`repro.obs.Tracer` records one ``solver-call`` event per
    structural group (batch size, plan count, wall time).
    """
    tracing = tracer is not None and tracer.enabled
    problem_list = list(problems)
    if not problem_list:
        return []
    if evaluator is None:
        evaluator = _BatchEvaluator()
    solutions: List[Optional[HorizonSolution]] = [None] * len(problem_list)

    groups: Dict[tuple, List[int]] = {}
    for idx, problem in enumerate(problem_list):
        if problem.num_levels**problem.horizon > _ENUMERATION_LIMIT:
            solutions[idx] = solve_horizon_dp(problem)
            continue
        key = (
            problem.quality_values,
            problem.horizon,
            problem.num_levels,
            problem.weights.switching,
            problem.weights.rebuffering,
            problem.chunk_duration_s,
            problem.buffer_capacity_s,
        )
        groups.setdefault(key, []).append(idx)

    for key, idxs in groups.items():
        quality_values, horizon, num_levels, lam, mu, duration, capacity = key
        if tracing:
            _t0 = time.perf_counter()
        plans = _plan_matrix(num_levels, horizon)
        members = [problem_list[i] for i in idxs]
        sizes = np.asarray(
            [p.chunk_sizes_kilobits for p in members], dtype=np.float64
        )
        preds = np.asarray([p.predicted_kbps for p in members], dtype=np.float64)
        buffer0 = np.asarray([p.buffer_level_s for p in members], dtype=np.float64)
        if all(p.prev_quality is None for p in members):
            prev = None
        else:
            prev = np.asarray(
                [np.nan if p.prev_quality is None else p.prev_quality for p in members],
                dtype=np.float64,
            )
        quality = np.asarray(quality_values, dtype=np.float64)
        best, qoe, rebuf, fin = _solve_rows(
            evaluator, plans, sizes, preds, buffer0, prev, quality,
            lam, mu, duration, capacity,
        )
        for row, idx in enumerate(idxs):
            solutions[idx] = HorizonSolution(
                plan=tuple(int(x) for x in plans[best[row]]),
                qoe=float(qoe[row]),
                rebuffer_s=float(rebuf[row]),
                final_buffer_s=float(fin[row]),
            )
        if tracing:
            tracer.emit(
                SolverCall(
                    session_id="",
                    t_mono=tracer.now(),
                    op="solve-horizon-batch",
                    instances=len(idxs),
                    plans=len(plans),
                    wall_s=time.perf_counter() - _t0,
                )
            )
    assert all(s is not None for s in solutions)
    return solutions  # type: ignore[return-value]


def build_table_decisions(
    level_sizes_kilobits: Sequence[float],
    quality_values: Sequence[float],
    buffer_centers: Sequence[float],
    throughput_centers: Sequence[float],
    horizon: int,
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
    evaluator: Optional[_BatchEvaluator] = None,
    tracer=None,
):
    """FastMPC's offline enumeration over the whole binned state space.

    Solves every ``(buffer_bin, prev_level, throughput_bin)`` instance —
    CBR sizes, flat predictions — and returns the optimal *first* level
    of each as an ``(buffer_bins, num_levels, throughput_bins)`` int
    array.  Ties pick the lexicographically smallest
    plan, matching the online solver.

    The quality and switching terms of a plan's QoE do not depend on the
    buffer or throughput state, so they are computed once per plan
    (``static``) plus a per-``prev_level`` first-switch column; only the
    rebuffering dynamics are rolled out per state, batched across buffer
    bins.  The resulting QoE sums associate differently from the scalar
    solver's interleaved accumulation — mathematically identical, and at
    table resolution the (sub-ULP) difference cannot flip a decision
    except on exact ties between plans that already share a first level.
    """
    tracing = tracer is not None and tracer.enabled
    if tracing:
        _t0 = time.perf_counter()
    sizes = np.asarray(level_sizes_kilobits, dtype=np.float64)
    quality = np.asarray(quality_values, dtype=np.float64)
    b_centers = np.asarray(buffer_centers, dtype=np.float64)
    c_centers = np.asarray(throughput_centers, dtype=np.float64)
    num_levels = quality.shape[0]
    if evaluator is None:
        evaluator = _BatchEvaluator()

    plans = _plan_matrix(num_levels, horizon)
    m = plans.shape[0]
    num_buffer = b_centers.shape[0]
    num_throughput = c_centers.shape[0]

    # State-independent part of every plan's QoE.
    plan_quality = quality[plans]  # (M, N)
    static = plan_quality.sum(axis=1)
    if horizon > 1:
        static = static - switching * np.abs(
            np.diff(plan_quality, axis=1)
        ).sum(axis=1)
    first_switch = switching * np.abs(
        plan_quality[:, 0][:, None] - quality[None, :]
    )  # (M, num_levels)

    # Download times are shared by every buffer bin: CBR sizes and flat
    # predictions make dt a pure (level, throughput_bin) gather per step.
    level_dt = sizes[:, None] / c_centers[None, :]  # (levels, C)
    step_dt = [level_dt[plans[:, i]] for i in range(horizon)]  # (M, C) each

    decisions = np.empty(
        (num_buffer, num_levels, num_throughput), dtype=np.int64
    )
    plan_first = plans[:, 0]
    block = max(1, MAX_BATCH_ELEMENTS // max(m * num_throughput, 1))
    buf = evaluator.scratch("table_buf", (block, m, num_throughput))
    rebuf = evaluator.scratch("table_rebuf", (block, m, num_throughput))
    tmp = evaluator.scratch("table_tmp", (block, m, num_throughput))
    score = evaluator.scratch("table_score", (block, m, num_throughput))
    for lo in range(0, num_buffer, block):
        hi = min(lo + block, num_buffer)
        nb = hi - lo
        buf_v, rebuf_v, tmp_v, score_v = (
            buf[:nb], rebuf[:nb], tmp[:nb], score[:nb]
        )
        buf_v[:] = b_centers[lo:hi, None, None]
        rebuf_v.fill(0.0)
        for i in range(horizon):
            dt = step_dt[i][None, :, :]
            np.subtract(dt, buf_v, out=tmp_v)
            np.maximum(tmp_v, 0.0, out=tmp_v)
            rebuf_v += tmp_v
            np.subtract(buf_v, dt, out=buf_v)
            np.maximum(buf_v, 0.0, out=buf_v)
            buf_v += chunk_duration_s
            np.minimum(buf_v, buffer_capacity_s, out=buf_v)
        np.multiply(rebuf_v, -rebuffering, out=rebuf_v)  # -> -mu * rebuffer
        for prev in range(num_levels):
            column = static - first_switch[:, prev]  # (M,)
            np.add(rebuf_v, column[None, :, None], out=score_v)
            decisions[lo:hi, prev, :] = plan_first[np.argmax(score_v, axis=1)]
    if tracing:
        tracer.emit(
            SolverCall(
                session_id="",
                t_mono=tracer.now(),
                op="table-build",
                instances=int(decisions.size),
                plans=m,
                wall_s=time.perf_counter() - _t0,
            )
        )
    return decisions

