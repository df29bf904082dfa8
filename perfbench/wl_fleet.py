"""``fleet-mix``: the vectorised fleet stepper over the default scenario space.

Each job is one ``run_fleet`` call with one worker over the default
:class:`~repro.fleet.scenarios.ScenarioSpace` (every supported controller
x 3 datasets x 3 QoE presets, 100 traces per dataset) for one default
4096-session shard.  Trace preparation (``TraceBank``) and vectorised
stepping dominate; no HTTP or service code runs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.fleet import aggregate as aggregate_module
from repro.fleet import driver as driver_module
from repro.fleet import stepper as stepper_module
from repro.fleet.controllers import make_batch_controller
from repro.fleet.driver import FleetConfig, run_fleet
from repro.fleet.scenarios import ScenarioSpace, manifest_for, session_config_for, trace_pools
from repro.fleet.stepper import TraceBank, run_batch

from common import GateFailure, job_values, log, median, self_cpu_s, self_peak_rss_mb
from layers import LayerRecorder, diff_snapshots, format_layer_table

JOB_SESSIONS = 4096
PROBE_TRACES = 3
SPACE = ScenarioSpace()


@dataclass
class FleetContext:
    seed: int
    phases: Dict[str, float] = field(default_factory=dict)


def setup(workload: str, seed: int) -> FleetContext:
    """Trace pools and the three presets' FastMPC tables, built cold."""
    phases = {"cluster.start_s": 0.0}
    t0 = time.perf_counter()
    trace_pools(SPACE)
    phases["traces.generate_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for ladder in SPACE.ladders:
        for preset in SPACE.presets:
            make_batch_controller("fastmpc").prepare(
                manifest_for(ladder, SPACE.num_chunks), session_config_for(preset), 1
            )
    phases["fastmpc.table_build_s"] = time.perf_counter() - t0
    return FleetContext(seed=seed, phases=phases)


def teardown(ctx: FleetContext) -> None:
    pass


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def probe_batches(seed: int) -> List[dict]:
    """Vector and scalar engine results for a seeded probe of every
    (controller, preset) cell."""
    rng = random.Random(seed)
    pools = trace_pools(SPACE)
    manifest = manifest_for(SPACE.ladders[0], SPACE.num_chunks)
    probes = []
    for controller in SPACE.controllers:
        for preset in SPACE.presets:
            dataset = SPACE.datasets[rng.randrange(len(SPACE.datasets))]
            traces = [pools[dataset][rng.randrange(len(pools[dataset]))] for _ in range(PROBE_TRACES)]
            config = session_config_for(preset)
            probes.append(
                {
                    "cell": f"{controller}/{preset}/{dataset}",
                    "vector": run_batch(controller, traces, manifest, config, engine="vector"),
                    "scalar": run_batch(controller, traces, manifest, config, engine="scalar"),
                }
            )
    return probes


def check_parity(probes: List[dict]) -> List[str]:
    """Cells whose vector levels or QoE differ from the scalar reference."""
    bad = []
    for probe in probes:
        vector, scalar = probe["vector"], probe["scalar"]
        if not (
            np.array_equal(vector.levels, scalar.levels)
            and np.array_equal(vector.qoe_total, scalar.qoe_total)
        ):
            bad.append(probe["cell"])
    return bad


def gate(seed: int) -> None:
    bad = check_parity(probe_batches(seed))
    if bad:
        raise GateFailure(f"fleet-mix gate: vector != scalar reference in {bad}")
    log(f"gate fleet-mix: vector == scalar on {len(SPACE.controllers) * len(SPACE.presets)} probe cells")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass
class JobWindow:
    walls_s: List[float] = field(default_factory=list)
    job_decisions: List[int] = field(default_factory=list)
    job_cpus_s: List[float] = field(default_factory=list)
    sessions: int = 0
    decisions: int = 0
    wrong: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def cpu_us_per_decision(self) -> float:
        return self.cpu_s * 1e6 / max(self.decisions, 1)


def run_jobs(seed: int, seconds: float) -> JobWindow:
    window = JobWindow()
    cpu0 = self_cpu_s()
    start = time.perf_counter()
    job = 0
    while time.perf_counter() - start < seconds:
        t0, cpu_job = time.perf_counter(), self_cpu_s()
        result = run_fleet(FleetConfig(sessions=JOB_SESSIONS, seed=seed * 1000 + job), workers=1)
        window.walls_s.append(time.perf_counter() - t0)
        window.job_cpus_s.append(self_cpu_s() - cpu_job)
        window.job_decisions.append(result.sessions * SPACE.num_chunks)
        job += 1
        window.sessions += result.sessions
        window.decisions += result.sessions * SPACE.num_chunks
        qoe_sum = sum(arm.qoe_per_chunk.sum_value for arm in result.arms.values())
        if result.sessions != JOB_SESSIONS or not math.isfinite(qoe_sum):
            window.wrong += 1
    window.wall_s = time.perf_counter() - start
    window.cpu_s = self_cpu_s() - cpu0
    return window


def install_wrappers(recorder: LayerRecorder) -> None:
    recorder.wrap(TraceBank, "__init__", "fleet.trace_prep", units=lambda a, r: a[0].num_traces)
    recorder.wrap(TraceBank, "time_to_download", "fleet.dynamics")
    recorder.wrap(TraceBank, "download_time_and_stall", "fleet.dynamics")
    recorder.wrap(driver_module, "sample_scenarios", "fleet.sample")
    recorder.wrap(driver_module, "run_batch", "fleet.run_batch")
    recorder.wrap(stepper_module.BatchResult, "qoe_per_chunk", "fleet.aggregate")
    recorder.wrap(aggregate_module.ArmAggregate, "observe_sessions", "fleet.aggregate")
    recorder.wrap(aggregate_module.FleetResult, "merge", "fleet.aggregate")
    recorder.wrap(aggregate_module.FleetResult, "to_dict", "fleet.aggregate")
    recorder.wrap(aggregate_module.FleetResult, "from_dict", "fleet.aggregate")
    make = stepper_module.make_batch_controller

    def make_timed(*args, **kwargs):
        controller = make(*args, **kwargs)
        controller.decide = recorder.timed(controller.decide, "fleet.decide")
        controller.observe = recorder.timed(controller.observe, "fleet.observe")
        return controller

    recorder.patch(stepper_module, "make_batch_controller", make_timed)


def run(ctx: FleetContext, seconds: float, traced: bool) -> dict:
    gate(ctx.seed)
    if not traced:
        window = run_jobs(ctx.seed, seconds)
        return {
            "correct": window.wrong == 0,
            "attempted": window.sessions,
            "failed": 0,
            "values": {
                **job_values(window.walls_s, window.job_decisions, window.job_cpus_s),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            "report": _report(window),
        }
    plain = run_jobs(ctx.seed, seconds / 2.0)
    recorder = LayerRecorder()
    install_wrappers(recorder)
    before = recorder.snapshot()
    try:
        window = run_jobs(ctx.seed, seconds / 2.0)
    finally:
        recorder.unwrap_all()
    layers = diff_snapshots(recorder.snapshot(), before)
    jobs = len(window.walls_s)

    def per_job(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0) / jobs

    attributed = sum(layer["self_s"] for layer in layers.values())
    values = {
        "fleet.trace_prep_s": per_job("fleet.trace_prep"),
        "fleet.trace_preps_per_session": layers.get("fleet.trace_prep", {}).get("units", 0) / window.sessions,
        "fleet.dynamics_s": per_job("fleet.dynamics"),
        "fleet.decide_s": per_job("fleet.decide"),
        "fleet.observe_s": per_job("fleet.observe"),
        "fleet.aggregate_s": per_job("fleet.aggregate"),
        "fleet.sample_s": per_job("fleet.sample"),
        "fleet.batches": per_job("fleet.run_batch", "calls"),
        "fleet.other_s": (sum(window.walls_s) - attributed) / jobs,
        "layers.other_share": (sum(window.walls_s) - attributed) / sum(window.walls_s),
        "trace.overhead_us_per_decision": window.cpu_us_per_decision - plain.cpu_us_per_decision,
        "trace.overhead_share": window.cpu_us_per_decision / plain.cpu_us_per_decision - 1.0,
        **ctx.phases,
    }
    table = format_layer_table(
        f"fleet-mix: {jobs} job(s)", layers, sum(window.walls_s), "job wall time"
    )
    return {
        "correct": window.wrong == 0 and plain.wrong == 0,
        "attempted": window.sessions,
        "failed": 0,
        "values": values,
        "report": table + "\n" + _report(window),
    }


def _report(window: JobWindow) -> str:
    return (
        f"fleet-mix: {len(window.walls_s)} job(s) x {JOB_SESSIONS} sessions in {window.wall_s:.2f} s"
        f" | sessions_per_s {window.sessions / window.wall_s:,.1f}"
        f" | decisions_per_s {window.decisions / window.wall_s:,.0f}"
        f" | job wall p50 {median(window.walls_s):.3f} s"
    )
