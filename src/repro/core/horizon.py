"""Exact solver for the MPC horizon problem ``QOE_MAX_STEADY``.

Section 4.2, step "Optimize": given buffer occupancy ``B_k``, previous
bitrate ``R_{k-1}`` and throughput predictions over the next ``N`` chunks,
find the bitrate plan maximising the QoE of chunks ``k .. k+N-1`` under the
buffer dynamics of Eqs. (1)–(4).  The paper solves these instances with
CPLEX offline; because the problem is a small discrete program
(``|R|^N`` plans — 3125 for the default 5 levels x horizon 5), exhaustive
enumeration returns the identical argmax.  We provide:

* :func:`solve_horizon` — vectorised NumPy enumeration (the production
  path; all plans evaluated simultaneously),
* :func:`solve_horizon_reference` — a straightforward recursive
  implementation used as the ground truth in property tests, and
* :func:`solve_startup` — the startup variant ``QOE_MAX`` that also
  optimises the startup delay ``T_s`` (the paper's ``f_stmpc``), using the
  formulation's ``B_1 = T_s`` equivalence: delaying playback by ``T_s``
  seconds is exactly like starting with ``T_s`` seconds of buffer, at a
  price of ``mu_s * T_s``.

Ties between plans are broken lexicographically (lowest level indices
first), making both solvers deterministic and mutually consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..qoe import QoEWeights
from ..video.quality import QualityFunction

__all__ = [
    "HorizonProblem",
    "HorizonSolution",
    "solve_horizon",
    "solve_horizon_dp",
    "solve_horizon_reference",
    "solve_startup",
]

# Above this many plans the enumerating solver hands over to the exact
# Pareto-pruned DP (identical optimum, different tie-breaking).
_ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class HorizonProblem:
    """One instance of ``QOE_MAX_STEADY(k .. k+N-1)``.

    Attributes
    ----------
    buffer_level_s:
        ``B_k`` at the decision instant.
    prev_quality:
        ``q(R_{k-1})`` — or None at the session's first chunk, in which
        case the first chunk incurs no switching penalty.
    chunk_sizes_kilobits:
        ``sizes[i][j]`` = size of horizon chunk ``i`` at ladder level ``j``
        (rows may differ under VBR).
    quality_values:
        ``q(R_j)`` per ladder level (shared by all horizon chunks).
    predicted_kbps:
        Predicted average throughput for each horizon chunk, length ``N``.
    chunk_duration_s / buffer_capacity_s:
        ``L`` and ``Bmax``.
    weights:
        The QoE weight vector (``mu_s`` unused in the steady problem).
    """

    buffer_level_s: float
    prev_quality: Optional[float]
    chunk_sizes_kilobits: Tuple[Tuple[float, ...], ...]
    quality_values: Tuple[float, ...]
    predicted_kbps: Tuple[float, ...]
    chunk_duration_s: float
    buffer_capacity_s: float
    weights: QoEWeights

    def __post_init__(self) -> None:
        n = len(self.chunk_sizes_kilobits)
        if n == 0:
            raise ValueError("horizon must contain at least one chunk")
        if len(self.predicted_kbps) != n:
            raise ValueError(
                f"{len(self.predicted_kbps)} predictions for {n} horizon chunks"
            )
        levels = len(self.quality_values)
        if levels == 0:
            raise ValueError("need at least one ladder level")
        for row in self.chunk_sizes_kilobits:
            if len(row) != levels:
                raise ValueError("chunk size rows must match the ladder size")
        if any(c <= 0 for c in self.predicted_kbps):
            raise ValueError("predicted throughput must be positive")
        if self.buffer_level_s < 0:
            raise ValueError("buffer level must be >= 0")
        if self.chunk_duration_s <= 0 or self.buffer_capacity_s <= 0:
            raise ValueError("L and Bmax must be positive")

    @property
    def horizon(self) -> int:
        return len(self.chunk_sizes_kilobits)

    @property
    def num_levels(self) -> int:
        return len(self.quality_values)


@dataclass(frozen=True)
class HorizonSolution:
    """The optimal plan and its diagnostics."""

    plan: Tuple[int, ...]  # level index per horizon chunk
    qoe: float  # objective value of the plan
    rebuffer_s: float  # predicted stall time under the plan
    final_buffer_s: float  # predicted buffer at horizon end
    startup_wait_s: float = 0.0  # only set by solve_startup

    @property
    def first_level(self) -> int:
        """The decision MPC actually applies (receding horizon)."""
        return self.plan[0]


@lru_cache(maxsize=64)
def _plan_matrix(num_levels: int, horizon: int):
    """All ``num_levels**horizon`` plans, lexicographic row order.

    The returned array is shared by every caller (it is memoised), so it
    is marked read-only — a consumer mutating it in place would silently
    corrupt every other caller's plan space.
    """
    if num_levels**horizon > 2_000_000:
        raise ValueError(
            f"{num_levels}^{horizon} plans is beyond exhaustive enumeration; "
            "reduce the horizon or ladder size"
        )
    ranges = [range(num_levels)] * horizon
    plans = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    plans.setflags(write=False)
    return plans


def solve_horizon(
    problem: HorizonProblem, evaluator: Optional[object] = None
) -> HorizonSolution:
    """Exact solution of ``QOE_MAX_STEADY``.

    Dispatches on instance size: small plan spaces use vectorised
    exhaustive enumeration (deterministic lexicographic tie-break); large
    ones (long horizons or fine ladders) use the exact Pareto-pruned DP,
    which returns the same optimal QoE but may pick a different optimal
    plan when several are tied.

    ``evaluator`` optionally carries a :class:`repro.core.kernel.
    _BatchEvaluator` whose scratch buffers are reused across calls (the
    per-session state held by the MPC controllers).
    """
    if problem.num_levels**problem.horizon > _ENUMERATION_LIMIT:
        return solve_horizon_dp(problem)
    from .kernel import solve_horizon_batch

    return solve_horizon_batch([problem], evaluator=evaluator)[0]


def solve_horizon_reference(problem: HorizonProblem) -> HorizonSolution:
    """Plain-Python exhaustive search — ground truth for property tests."""
    lam = problem.weights.switching
    mu = problem.weights.rebuffering
    L = problem.chunk_duration_s
    bmax = problem.buffer_capacity_s
    quality = problem.quality_values
    sizes = problem.chunk_sizes_kilobits
    preds = problem.predicted_kbps

    best_plan: Optional[Tuple[int, ...]] = None
    best = (-float("inf"), 0.0, 0.0)
    for plan in itertools.product(range(problem.num_levels), repeat=problem.horizon):
        buffer_s = problem.buffer_level_s
        qoe = 0.0
        rebuf_total = 0.0
        prev_q = problem.prev_quality
        for i, level in enumerate(plan):
            download_time = sizes[i][level] / preds[i]
            rebuffer = max(download_time - buffer_s, 0.0)
            buffer_s = max(buffer_s - download_time, 0.0) + L
            buffer_s = min(buffer_s, bmax)
            q_now = quality[level]
            qoe += q_now - mu * rebuffer
            rebuf_total += rebuffer
            if prev_q is not None:
                qoe -= lam * abs(q_now - prev_q)
            prev_q = q_now
        if qoe > best[0] + 1e-12:
            best = (qoe, rebuf_total, buffer_s)
            best_plan = plan
    assert best_plan is not None
    return HorizonSolution(
        plan=best_plan,
        qoe=best[0],
        rebuffer_s=best[1],
        final_buffer_s=best[2],
    )


def _pareto_prune(nodes: List[tuple]) -> List[tuple]:
    """Keep only non-dominated (buffer, qoe) nodes.

    A node dominates another at the same ladder level when it has both
    more (or equal) buffer and more (or equal) accumulated QoE: the
    dynamics are monotone in buffer (more buffer can only reduce future
    rebuffering), so the dominated node can never catch up.
    """
    nodes.sort(key=lambda n: (-n[0], -n[1]))
    out: List[tuple] = []
    best_qoe = -float("inf")
    for node in nodes:
        if node[1] > best_qoe + 1e-12:
            out.append(node)
            best_qoe = node[1]
    return out


def solve_horizon_dp(problem: HorizonProblem) -> HorizonSolution:
    """Exact solution by dynamic programming with Pareto pruning.

    State after ``i`` horizon steps is (current level, buffer, accumulated
    QoE); within each level only the (buffer, QoE) Pareto frontier is
    kept.  The buffer clamps at 0 and ``Bmax`` collapse the frontier to a
    handful of nodes in practice, so long horizons (Figure 12b sweeps up
    to 9 chunks — ~2M raw plans) solve in milliseconds while remaining
    exact.
    """
    lam = problem.weights.switching
    mu = problem.weights.rebuffering
    L = problem.chunk_duration_s
    bmax = problem.buffer_capacity_s
    quality = problem.quality_values
    sizes = problem.chunk_sizes_kilobits
    preds = problem.predicted_kbps
    levels = range(problem.num_levels)

    def step(buffer_s, qoe, rebuf, prev_q, level, i):
        dt = sizes[i][level] / preds[i]
        stall = max(dt - buffer_s, 0.0)
        new_buffer = min(max(buffer_s - dt, 0.0) + L, bmax)
        q_now = quality[level]
        new_qoe = qoe + q_now - mu * stall
        if prev_q is not None:
            new_qoe -= lam * abs(q_now - prev_q)
        return new_buffer, new_qoe, rebuf + stall

    # Node: (buffer, qoe, rebuffer_total, plan)
    frontier = {}
    for level in levels:
        node = step(problem.buffer_level_s, 0.0, 0.0, problem.prev_quality, level, 0)
        frontier.setdefault(level, []).append((*node, (level,)))
    frontier = {lv: _pareto_prune(nodes) for lv, nodes in frontier.items()}

    for i in range(1, problem.horizon):
        incoming: dict = {}
        for prev_level, nodes in frontier.items():
            prev_q = quality[prev_level]
            for buffer_s, qoe, rebuf, plan in nodes:
                for level in levels:
                    node = step(buffer_s, qoe, rebuf, prev_q, level, i)
                    incoming.setdefault(level, []).append((*node, plan + (level,)))
        frontier = {lv: _pareto_prune(nodes) for lv, nodes in incoming.items()}

    best = None
    for nodes in frontier.values():
        for node in nodes:
            if best is None or node[1] > best[1] + 1e-12:
                best = node
    assert best is not None
    return HorizonSolution(
        plan=best[3], qoe=best[1], rebuffer_s=best[2], final_buffer_s=best[0]
    )


def solve_startup(
    problem: HorizonProblem,
    max_wait_s: Optional[float] = None,
    wait_step_s: float = 0.25,
    evaluator: Optional[object] = None,
) -> HorizonSolution:
    """The startup problem ``QOE_MAX`` — jointly optimise plan and ``T_s``.

    Uses the formulation's ``B_1 = T_s`` equivalence (Eq. 10): each
    candidate wait ``T_s`` is evaluated as the steady problem with initial
    buffer ``B_k + T_s`` and an added ``-mu_s * T_s`` penalty; the best
    (plan, T_s) pair wins.  The wait grid spans ``[0, max_wait_s]`` —
    by default up to the remaining buffer headroom, since waiting longer
    than ``Bmax`` of accumulated content is never useful.

    The whole wait grid is evaluated as *one* batched-kernel call — the
    grid points differ only in starting buffer, so they stack into a
    single ``(grid, plans)`` computation instead of ``steps + 1``
    independent solves.  Results (QoE values and the smallest-wait /
    lexicographic tie-break) are identical to the per-point loop.
    """
    if wait_step_s <= 0:
        raise ValueError("wait step must be positive")
    if max_wait_s is None:
        max_wait_s = max(problem.buffer_capacity_s - problem.buffer_level_s, 0.0)
    if max_wait_s < 0:
        raise ValueError("max wait must be >= 0")
    mu_s = problem.weights.startup
    steps = int(round(max_wait_s / wait_step_s))
    waits = np.minimum(np.arange(steps + 1) * wait_step_s, max_wait_s)

    best: Optional[HorizonSolution] = None
    if problem.num_levels**problem.horizon > _ENUMERATION_LIMIT:
        # DP regime (huge plan spaces): per-point exact solves.
        for wait in waits:
            solution = solve_horizon_dp(
                replace(problem, buffer_level_s=problem.buffer_level_s + float(wait))
            )
            adjusted = solution.qoe - mu_s * float(wait)
            if best is None or adjusted > best.qoe + 1e-12:
                best = HorizonSolution(
                    plan=solution.plan,
                    qoe=adjusted,
                    rebuffer_s=solution.rebuffer_s,
                    final_buffer_s=solution.final_buffer_s,
                    startup_wait_s=float(wait),
                )
        assert best is not None
        return best

    from .kernel import _BatchEvaluator, _solve_rows

    plans = _plan_matrix(problem.num_levels, problem.horizon)
    if evaluator is None:
        evaluator = _BatchEvaluator()
    sizes = np.asarray(problem.chunk_sizes_kilobits, dtype=np.float64)
    preds = np.asarray(problem.predicted_kbps, dtype=np.float64)
    quality = np.asarray(problem.quality_values, dtype=np.float64)
    buffer0 = problem.buffer_level_s + waits
    prev = (
        None
        if problem.prev_quality is None
        else np.full(waits.shape, problem.prev_quality)
    )
    best_idx, qoe, rebuf, fin = _solve_rows(
        evaluator, plans, sizes, preds, buffer0, prev, quality,
        problem.weights.switching, problem.weights.rebuffering,
        problem.chunk_duration_s, problem.buffer_capacity_s,
    )
    adjusted = qoe - mu_s * waits
    for j in range(len(waits)):
        if best is None or adjusted[j] > best.qoe + 1e-12:
            best = HorizonSolution(
                plan=tuple(int(x) for x in plans[best_idx[j]]),
                qoe=float(adjusted[j]),
                rebuffer_s=float(rebuf[j]),
                final_buffer_s=float(fin[j]),
                startup_wait_s=float(waits[j]),
            )
    assert best is not None
    return best
