"""Exact parity: the batch stepper vs the reference simulator.

The fleet's correctness bar is not statistical — for every session in a
batch, the vector engine must reproduce :func:`simulate_session`'s level
sequence, rebuffer/buffer trajectory, download times, startup delay, and
Eq. 5 QoE breakdown *bit for bit* (``==`` on floats, no tolerances).
The scalar engine IS the reference simulator, so vector-vs-scalar
equality is the parity statement; one test additionally pins the scalar
engine against ``simulate_session`` directly to keep that anchor honest.
"""

from __future__ import annotations

import pytest

from repro.abr.base import SessionConfig
from repro.core.fastmpc import FastMPCConfig
from repro.fleet import SUPPORTED_CONTROLLERS, run_batch
from repro.fleet.controllers import make_scalar_algorithm
from repro.qoe import QoEWeights
from repro.sim.session import simulate_session
from repro.traces import (
    FCCTraceGenerator,
    HSDPATraceGenerator,
    SyntheticTraceGenerator,
)
from repro.video import envivio, envivio_vbr
from repro.video.manifest import BitrateLadder, VideoManifest
from repro.video.presets import ENVIVIO_LADDER_KBPS

#: Small table so the fastmpc variants build in seconds, shared by both
#: engines (the stepper threads it through to the scalar algorithm too).
TABLE_CONFIG = FastMPCConfig(buffer_bins=24, throughput_bins=24, horizon=5)


@pytest.fixture(scope="module")
def mixed_traces():
    """A cross-dataset pool: every generator family, one fixed seed."""
    traces = []
    traces += FCCTraceGenerator(seed=11).generate_many(4, 320.0)
    traces += HSDPATraceGenerator(seed=11).generate_many(4, 320.0)
    traces += SyntheticTraceGenerator(seed=11).generate_many(4, 320.0)
    return traces


@pytest.fixture(scope="module")
def manifest():
    return envivio()


def assert_exact_parity(vec, sca):
    """Field-by-field ``==`` between the two engines — no tolerances."""
    assert vec.num_sessions == sca.num_sessions
    assert vec.num_chunks == sca.num_chunks
    for i in range(vec.num_sessions):
        assert vec.session_levels(i) == [int(x) for x in sca.levels[i]]
        assert list(vec.rebuffer_s[i]) == list(sca.rebuffer_s[i])
        assert list(vec.buffer_after_s[i]) == list(sca.buffer_after_s[i])
        assert list(vec.download_time_s[i]) == list(sca.download_time_s[i])
    assert list(vec.startup_delay_s) == list(sca.startup_delay_s)
    assert list(vec.total_rebuffer_s) == list(sca.total_rebuffer_s)
    assert list(vec.total_wall_time_s) == list(sca.total_wall_time_s)
    assert list(vec.quality_total) == list(sca.quality_total)
    assert list(vec.switching_total) == list(sca.switching_total)
    assert list(vec.qoe_total) == list(sca.qoe_total)
    assert list(vec.mean_bitrate_kbps) == list(sca.mean_bitrate_kbps)


def run_both(controller, traces, manifest, config=None):
    kwargs = dict(config=config, table_config=TABLE_CONFIG)
    vec = run_batch(controller, traces, manifest, engine="vector", **kwargs)
    sca = run_batch(controller, traces, manifest, engine="scalar", **kwargs)
    assert vec.engine == "vector" and sca.engine == "scalar"
    return vec, sca


@pytest.mark.parametrize("controller", SUPPORTED_CONTROLLERS)
def test_vector_matches_scalar_everywhere(controller, mixed_traces, manifest):
    vec, sca = run_both(controller, mixed_traces, manifest)
    assert_exact_parity(vec, sca)


@pytest.mark.parametrize("preset", ("avoid-rebuffering", "avoid-instability"))
@pytest.mark.parametrize("controller", ("bola", "robust-fastmpc"))
def test_parity_holds_across_qoe_presets(controller, preset, mixed_traces, manifest):
    config = SessionConfig(weights=QoEWeights.preset(preset))
    vec, sca = run_both(controller, mixed_traces[:6], manifest, config)
    assert_exact_parity(vec, sca)


@pytest.mark.parametrize("controller", ("rb", "bb", "fastmpc"))
def test_parity_with_request_pacing_target(controller, mixed_traces, manifest):
    # Eq. 4 pacing at a target below Bmax exercises the wait branch on
    # nearly every chunk instead of only at capacity.
    config = SessionConfig(request_target_buffer_s=12.0)
    vec, sca = run_both(controller, mixed_traces[:6], manifest, config)
    assert_exact_parity(vec, sca)


@pytest.mark.parametrize("controller", ("rb", "bola", "fastmpc"))
def test_parity_on_vbr_manifest(controller, mixed_traces):
    # Per-chunk sizes deviate from d(R) = L*R, so the stepper's size
    # gather must follow the manifest, not the CBR shortcut.
    vec, sca = run_both(controller, mixed_traces[:6], envivio_vbr(seed=4))
    assert_exact_parity(vec, sca)


@pytest.mark.parametrize("controller", ("lowest", "bb", "bola"))
def test_parity_when_traces_wrap_around(controller):
    # 40 s traces under a 260 s video force every session through the
    # trace-wrap path (floor-division repetition skip + restarted walk).
    traces = SyntheticTraceGenerator(seed=3).generate_many(5, 40.0)
    vec, sca = run_both(controller, traces, envivio())
    assert_exact_parity(vec, sca)


@pytest.mark.parametrize("controller", ("fastmpc-gap", "fastmpc", "robust-fastmpc"))
def test_parity_through_blackouts(controller):
    # Zero-bandwidth windows exercise the stall-collecting trace walk and
    # (for fastmpc-gap) the active-rate reconstruction — the correction
    # must engage identically in both engines, bit for bit.
    from repro.faults import Blackout, apply_trace_faults

    faults = [
        Blackout(start_s=20.0, duration_s=6.0),
        Blackout(start_s=70.0, duration_s=9.0),
    ]
    traces = [
        apply_trace_faults(trace, faults)
        for trace in SyntheticTraceGenerator(seed=13).generate_many(5, 120.0)
    ]
    vec, sca = run_both(controller, traces, envivio())
    assert_exact_parity(vec, sca)


def test_parity_on_single_chunk_video(mixed_traces):
    manifest = VideoManifest.cbr(4.0, BitrateLadder(ENVIVIO_LADDER_KBPS), 1)
    for controller in ("lowest", "rb", "bola"):
        vec, sca = run_both(controller, mixed_traces[:4], manifest)
        assert_exact_parity(vec, sca)
        assert vec.num_chunks == 1


def test_duplicate_traces_share_bank_rows(manifest):
    # The TraceBank deduplicates by identity; repeated rows must still
    # produce per-session results equal to the lone-session run.
    trace = SyntheticTraceGenerator(seed=9).generate_many(1, 320.0)[0]
    vec = run_batch("bb", [trace, trace, trace], manifest, engine="vector")
    solo = run_batch("bb", [trace], manifest, engine="vector")
    for i in range(3):
        assert vec.session_levels(i) == solo.session_levels(0)
        assert float(vec.qoe_total[i]) == float(solo.qoe_total[0])


def test_scalar_engine_is_simulate_session(manifest):
    # The anchor: the scalar engine's rows are literally the reference
    # simulator's outputs, field by field.
    traces = SyntheticTraceGenerator(seed=21).generate_many(3, 320.0)
    batch = run_batch("bola", traces, manifest, engine="scalar")
    for i, trace in enumerate(traces):
        result = simulate_session(
            make_scalar_algorithm("bola"), trace, manifest, SessionConfig()
        )
        breakdown = result.qoe()
        assert batch.levels[i] == [r.level_index for r in result.records]
        assert batch.startup_delay_s[i] == result.startup_delay_s
        assert batch.total_rebuffer_s[i] == result.total_rebuffer_s
        assert batch.qoe_total[i] == breakdown.total
        assert batch.quality_total[i] == breakdown.quality_total
        assert batch.switching_total[i] == breakdown.switching_total


def test_empty_batch_returns_wellformed_result(manifest):
    batch = run_batch("bola", [], manifest)
    assert batch.num_sessions == 0
    assert batch.num_chunks == manifest.num_chunks
    assert batch.qoe_per_chunk() == []
    assert list(batch.levels) == []


def test_unknown_controller_and_engine_are_rejected(manifest):
    trace = SyntheticTraceGenerator(seed=1).generate_many(1, 320.0)[0]
    with pytest.raises(ValueError, match="unsupported fleet controller"):
        run_batch("mpc", [trace], manifest)
    with pytest.raises(ValueError, match="unknown engine"):
        run_batch("bola", [trace], manifest, engine="warp")
