"""Extra solver coverage: large horizons, VBR rows, degenerate ladders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.horizon import (
    HorizonProblem,
    solve_horizon,
    solve_horizon_dp,
)
from repro.qoe import QoEWeights

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)


def vbr_problem(factors, predictions, buffer_s=10.0):
    horizon = len(factors)
    return HorizonProblem(
        buffer_level_s=buffer_s,
        prev_quality=600.0,
        chunk_sizes_kilobits=tuple(
            tuple(4.0 * r * f for r in LADDER) for f in factors
        ),
        quality_values=LADDER,
        predicted_kbps=tuple(predictions),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        weights=QoEWeights.balanced(),
    )


class TestVBRHorizon:
    def test_vbr_rows_respected(self):
        """A horizon chunk that is twice as heavy must push the plan down
        for that chunk when throughput is tight."""
        flat = vbr_problem([1.0, 1.0, 1.0], [1000.0] * 3, buffer_s=4.0)
        heavy_mid = vbr_problem([1.0, 2.2, 1.0], [1000.0] * 3, buffer_s=4.0)
        sol_flat = solve_horizon(flat)
        sol_heavy = solve_horizon(heavy_mid)
        assert sol_heavy.plan[1] <= sol_flat.plan[1]

    @given(
        factors=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4),
        predictions=st.lists(st.floats(100.0, 5000.0), min_size=4, max_size=4),
    )
    @settings(max_examples=40)
    def test_solvers_agree_under_vbr(self, factors, predictions):
        problem = vbr_problem(factors, predictions[: len(factors)])
        a = solve_horizon(problem)
        b = solve_horizon_dp(problem)
        assert a.qoe == pytest.approx(b.qoe, rel=1e-9, abs=1e-6)


class TestLargeInstances:
    def test_dispatch_to_dp_for_long_horizons(self):
        """horizon 9 exceeds the enumeration limit; solve_horizon must
        still return the exact optimum (checked against DP directly)."""
        problem = HorizonProblem(
            buffer_level_s=12.0,
            prev_quality=1000.0,
            chunk_sizes_kilobits=tuple(
                tuple(4.0 * r for r in LADDER) for _ in range(9)
            ),
            quality_values=LADDER,
            predicted_kbps=(1400.0,) * 9,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
            weights=QoEWeights.balanced(),
        )
        via_dispatch = solve_horizon(problem)
        via_dp = solve_horizon_dp(problem)
        assert via_dispatch.qoe == pytest.approx(via_dp.qoe)

    def test_fine_ladder_long_horizon(self):
        """20 levels x horizon 6 (6.4e7 raw plans) solves exactly via DP."""
        ladder = tuple(350.0 + i * (2650.0 / 19) for i in range(20))
        problem = HorizonProblem(
            buffer_level_s=15.0,
            prev_quality=ladder[4],
            chunk_sizes_kilobits=tuple(
                tuple(4.0 * r for r in ladder) for _ in range(6)
            ),
            quality_values=ladder,
            predicted_kbps=(1100.0,) * 6,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
            weights=QoEWeights.balanced(),
        )
        solution = solve_horizon(problem)
        assert len(solution.plan) == 6
        assert all(0 <= level < 20 for level in solution.plan)
        # Cross-check against enumeration on a truncated 3-chunk variant.
        truncated = HorizonProblem(
            problem.buffer_level_s,
            problem.prev_quality,
            problem.chunk_sizes_kilobits[:3],
            problem.quality_values,
            problem.predicted_kbps[:3],
            problem.chunk_duration_s,
            problem.buffer_capacity_s,
            problem.weights,
        )
        assert solve_horizon_dp(truncated).qoe == pytest.approx(
            solve_horizon(truncated).qoe
        )


class TestDegenerateLadders:
    def test_single_level_ladder(self):
        problem = HorizonProblem(
            buffer_level_s=5.0,
            prev_quality=None,
            chunk_sizes_kilobits=((1400.0,),) * 3,
            quality_values=(350.0,),
            predicted_kbps=(800.0,) * 3,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
            weights=QoEWeights.balanced(),
        )
        solution = solve_horizon(problem)
        assert solution.plan == (0, 0, 0)

    def test_zero_weights_pick_max_quality(self):
        """With all penalties zero the solver greedily maxes quality."""
        problem = HorizonProblem(
            buffer_level_s=0.0,
            prev_quality=350.0,
            chunk_sizes_kilobits=tuple(
                tuple(4.0 * r for r in LADDER) for _ in range(4)
            ),
            quality_values=LADDER,
            predicted_kbps=(100.0,) * 4,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
            weights=QoEWeights(0.0, 0.0, 0.0, label="free"),
        )
        assert solve_horizon(problem).plan == (4, 4, 4, 4)
