"""``arena-slowstart``: many players on one shared bottleneck, slow start on.

Each job is one ``run_arena`` with the paper-default ``NetworkProfile``
(slow-start ramps enabled): 100 players of bola, fair-bola and rb arrive
as a seeded Poisson stream, watch a random share of the video (churn) and
contend with a pulsed cross-traffic flow.  The shared link's capped-flow
water-fill and the event loop dominate; no other workload touches
``repro.emulation.link``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.abr import registry
from repro.arena import ArenaConfig, CrossTrafficSpec, ScheduleConfig, run_arena
from repro.arena import runner as runner_module
from repro.emulation import emulate_shared_link
from repro.emulation.clock import EventQueue
from repro.emulation.client import EmulatedClient
from repro.emulation.harness import NetworkProfile
from repro.emulation.link import SharedTraceLink
from repro.service.experiment import ExperimentArm, ExperimentConfig
from repro.traces import Trace
from repro.video import envivio

from common import GateFailure, job_values, log, median, self_cpu_s, self_peak_rss_mb
from layers import LayerRecorder, diff_snapshots, format_layer_table

#: Players per job.  Small enough that a run holds about ten jobs (one
#: slice each, see common.job_values); large enough that ramping flows
#: keep SharedTraceLink._reschedule the dominant cost.
PLAYERS = 100
CONTROLLERS = ("bola", "fair-bola", "rb")
MIX = ExperimentConfig(
    arms=tuple(ExperimentArm(name=name, controller=name) for name in CONTROLLERS)
)


@dataclass
class ArenaContext:
    seed: int
    manifest: object
    trace: Trace
    phases: Dict[str, float] = field(default_factory=dict)


def setup(workload: str, seed: int) -> ArenaContext:
    t0 = time.perf_counter()
    manifest = envivio()
    bandwidth = 1500.0 * PLAYERS
    trace = Trace.constant(bandwidth, 900.0, name=f"arena-{PLAYERS}p")
    phases = {
        "traces.generate_s": time.perf_counter() - t0,
        "fastmpc.table_build_s": 0.0,
        "cluster.start_s": 0.0,
    }
    return ArenaContext(seed=seed, manifest=manifest, trace=trace, phases=phases)


def teardown(ctx: ArenaContext) -> None:
    pass


def job_config(ctx: ArenaContext, seed: int, players: int = PLAYERS) -> ArenaConfig:
    bandwidth = ctx.trace.bandwidths_kbps[0]
    return ArenaConfig(
        schedule=ScheduleConfig(
            players=players,
            seed=seed,
            mix=MIX,
            arrivals="poisson",
            mean_interarrival_s=30.0 / players,
            min_watch_chunks=10,
            max_watch_chunks=ctx.manifest.num_chunks,
            cross_traffic=(
                CrossTrafficSpec(label="pulse", rate_kbps=0.1 * bandwidth, period_s=20.0, duty=0.5),
            ),
        ),
        trace=ctx.trace,
        manifest=ctx.manifest,
        network=NetworkProfile(),
        window_s=30.0,
    )


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def parity_sessions(ctx: ArenaContext):
    """A churn-free arena slice and ``emulate_shared_link`` on the same cast."""
    manifest = ctx.manifest.truncated(12)
    trace = Trace.constant(6000.0, 600.0, name="probe")
    network = NetworkProfile()
    config = ArenaConfig(
        schedule=ScheduleConfig(
            players=4,
            mix=ExperimentConfig(arms=(ExperimentArm(name="bola", controller="bola"),)),
            arrivals="stagger",
            stagger_s=3.0,
        ),
        trace=trace,
        manifest=manifest,
        network=network,
    )
    arena = run_arena(config).sessions
    reference = emulate_shared_link(
        [registry.create("bola") for _ in range(4)], trace, manifest, network=network, start_stagger_s=3.0
    )
    return list(arena), list(reference)


def check_parity(arena, reference) -> List[int]:
    """Players whose records or QoE differ from the reference emulation."""
    if len(arena) != len(reference):
        return list(range(max(len(arena), len(reference))))
    return [
        i
        for i, (mine, theirs) in enumerate(zip(arena, reference))
        if mine.records != theirs.records or mine.qoe().total != theirs.qoe().total
    ]


def gate(ctx: ArenaContext) -> None:
    bad = check_parity(*parity_sessions(ctx))
    if bad:
        raise GateFailure(f"arena gate: players {bad} differ from emulate_shared_link")
    small = job_config(ctx, ctx.seed, players=30)
    if run_arena(small).to_json() != run_arena(small).to_json():
        raise GateFailure("arena gate: ArenaResult.to_json() differs between two runs of one seed")
    log("gate arena-slowstart: churn-free slice == emulate_shared_link; to_json() deterministic")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass
class JobWindow:
    walls_s: List[float] = field(default_factory=list)
    job_decisions: List[int] = field(default_factory=list)
    job_cpus_s: List[float] = field(default_factory=list)
    players: int = 0
    decisions: int = 0
    wrong: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def cpu_us_per_decision(self) -> float:
        return self.cpu_s * 1e6 / max(self.decisions, 1)


def run_jobs(ctx: ArenaContext, seconds: float) -> JobWindow:
    window = JobWindow()
    cpu0 = self_cpu_s()
    start = time.perf_counter()
    job = 0
    while time.perf_counter() - start < seconds:
        t0, cpu_job = time.perf_counter(), self_cpu_s()
        result = run_arena(job_config(ctx, ctx.seed * 1000 + job))
        window.walls_s.append(time.perf_counter() - t0)
        window.job_cpus_s.append(self_cpu_s() - cpu_job)
        window.job_decisions.append(sum(len(session.records) for session in result.sessions))
        job += 1
        window.players += result.num_players
        window.decisions += window.job_decisions[-1]
        if result.num_players != PLAYERS or any(
            result.cohorts[arm].chunks <= 0 for arm in CONTROLLERS
        ):
            window.wrong += 1
    window.wall_s = time.perf_counter() - start
    window.cpu_s = self_cpu_s() - cpu0
    return window


def install_wrappers(recorder: LayerRecorder) -> None:
    recorder.wrap(EventQueue, "run_next", "arena.event")
    recorder.wrap(EventQueue, "run_until_idle", "arena.event_loop")
    recorder.wrap(runner_module, "_drive", "arena.event_loop")
    recorder.wrap(
        SharedTraceLink, "_on_progress", "link.progress", units=lambda a, r: a[0].active_transfers
    )
    recorder.wrap(SharedTraceLink, "_reschedule", "link.reschedule")
    recorder.wrap(SharedTraceLink, "start_transfer", "link.start_transfer")
    recorder.wrap(EmulatedClient, "_on_chunk_delivered", "client.chunk_delivered")
    recorder.wrap(EmulatedClient, "_request_next_chunk", "client.request_next_chunk")
    for name in CONTROLLERS:
        cls = type(registry.create(name))
        recorder.wrap(cls, "select_bitrate", f"abr.select_bitrate.{cls.__name__}")
    for name in ("compute_windows", "compute_cohorts", "compute_totals", "player_outcome"):
        recorder.wrap(runner_module, name, "arena.metrics")


def run(ctx: ArenaContext, seconds: float, traced: bool) -> dict:
    gate(ctx)
    if not traced:
        window = run_jobs(ctx, seconds)
        return {
            "correct": window.wrong == 0,
            "attempted": window.decisions,
            "failed": 0,
            "values": {
                **job_values(window.walls_s, window.job_decisions, window.job_cpus_s),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            "report": _report(window),
        }
    plain = run_jobs(ctx, seconds / 2.0)
    recorder = LayerRecorder()
    install_wrappers(recorder)
    before = recorder.snapshot()
    try:
        window = run_jobs(ctx, seconds / 2.0)
    finally:
        recorder.unwrap_all()
    layers = diff_snapshots(recorder.snapshot(), before)
    jobs = len(window.walls_s)

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    progress_calls = layer("link.progress", "calls")
    abr_self = sum(v["self_s"] for k, v in layers.items() if k.startswith("abr.select_bitrate."))
    attributed = sum(v["self_s"] for v in layers.values())
    values = {
        "arena.events": layer("arena.event", "calls") / jobs,
        "arena.event_loop_s": layer("arena.event_loop", "total_s") / jobs,
        "link.progress_events": progress_calls / jobs,
        "link.progress_s": layer("link.progress", "total_s") / jobs,
        "link.active_transfers_mean": layer("link.progress", "units") / progress_calls if progress_calls else 0.0,
        "link.start_transfer_us": (
            layer("link.start_transfer", "total_s") * 1e6 / layer("link.start_transfer", "calls")
            if layer("link.start_transfer", "calls")
            else 0.0
        ),
        "client.callback_s": (
            layer("client.chunk_delivered", "self_s") + layer("client.request_next_chunk", "self_s")
        ) / jobs,
        "abr.select_bitrate_us": abr_self * 1e6 / max(window.decisions, 1),
        "arena.metrics_s": layer("arena.metrics", "total_s") / jobs,
        "layers.other_share": (sum(window.walls_s) - attributed) / sum(window.walls_s),
        "trace.overhead_us_per_decision": window.cpu_us_per_decision - plain.cpu_us_per_decision,
        "trace.overhead_share": window.cpu_us_per_decision / plain.cpu_us_per_decision - 1.0,
        **ctx.phases,
    }
    table = format_layer_table(
        f"arena-slowstart: {jobs} job(s)", layers, sum(window.walls_s), "job wall time"
    )
    return {
        "correct": window.wrong == 0 and plain.wrong == 0,
        "attempted": window.decisions,
        "failed": 0,
        "values": values,
        "report": table + "\n" + _report(window),
    }


def _report(window: JobWindow) -> str:
    return (
        f"arena-slowstart: {len(window.walls_s)} job(s) x {PLAYERS} players in {window.wall_s:.2f} s"
        f" | chunks_per_s {window.decisions / window.wall_s:,.1f}"
        f" | job wall p50 {median(window.walls_s):.3f} s"
    )
