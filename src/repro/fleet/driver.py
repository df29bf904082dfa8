"""The fleet driver — million-session populations over a process pool.

``run_fleet`` samples one seeded scenario stream, cuts it into
contiguous fixed-size shards, steps each shard through
:func:`repro.fleet.stepper.run_batch` (grouped so every (controller,
preset, ladder) cell in a shard is one vectorized call), and merges the
per-shard :class:`FleetResult` payloads **in shard-index order**.

Determinism across worker counts falls out of three choices:

* shard boundaries depend only on ``shard_size``, never on the worker
  count — workers change scheduling, not the work;
* shards travel to workers as picklable scenario tuples and come back
  as serialized aggregate dicts (the same lossless path the cluster
  ``/metrics`` merge uses);
* the parent folds shard payloads in shard order, and every aggregate
  field is either integer-exact or an ``fsum``-accumulated float, so
  1 worker and N workers produce bit-identical merged results.

A zero-session fleet returns a well-formed empty :class:`FleetResult`
without touching the pool.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.events import FleetShard, FleetSummary
from ..obs.tracer import Tracer
from .aggregate import FleetResult
from .scenarios import (
    Scenario,
    ScenarioSpace,
    manifest_for,
    sample_scenarios,
    session_config_for,
    trace_pools,
)
from .stepper import run_batch

__all__ = ["FleetConfig", "run_fleet", "run_shard"]


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run's parameters (picklable, fully seed-determined)."""

    sessions: int
    seed: int = 7
    shard_size: int = 4096
    space: ScenarioSpace = field(default_factory=ScenarioSpace)
    cache_dir: Optional[str] = None
    #: Stepper engine, forwarded to :func:`run_batch`.
    engine: str = "vector"

    def __post_init__(self) -> None:
        if self.sessions < 0:
            raise ValueError("sessions must be >= 0")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")


def run_shard(
    space: ScenarioSpace,
    scenarios: Sequence[Scenario],
    cache_dir: Optional[str] = None,
    engine: str = "vector",
) -> dict:
    """Run one shard and return its serialized :class:`FleetResult`.

    Module-level so process pools can pickle it.  Scenarios are grouped
    by (controller, preset, ladder) — the axes that fix the batch
    controller and manifest — and each group is one ``run_batch`` call;
    sessions then fan back out to their (…, dataset, …) arms.  The
    ``fsum``-based histogram accumulation makes the aggregate
    independent of the grouping order.
    """
    pools = trace_pools(space)
    result = FleetResult()
    groups: Dict[Tuple[str, str, str], List[Scenario]] = {}
    for scenario in scenarios:
        key = (scenario.controller, scenario.preset, scenario.ladder)
        groups.setdefault(key, []).append(scenario)
    for controller, preset, ladder in sorted(groups):
        group = groups[(controller, preset, ladder)]
        traces = [pools[s.dataset][s.trace_index] for s in group]
        batch = run_batch(
            controller,
            traces,
            manifest_for(ladder, space.num_chunks),
            session_config_for(preset),
            cache_dir=cache_dir,
            table_config=space.table_config,
            engine=engine,
        )
        qoe = batch.qoe_per_chunk()
        rebuffer = batch.total_rebuffer_s
        bitrate = batch.mean_bitrate_kbps
        by_arm: Dict[str, List[int]] = {}
        for row, scenario in enumerate(group):
            by_arm.setdefault(scenario.arm_key, []).append(row)
        for arm_key in sorted(by_arm):
            rows = by_arm[arm_key]
            result.arm(arm_key).observe_sessions(
                [float(qoe[i]) for i in rows],
                [float(rebuffer[i]) for i in rows],
                [float(bitrate[i]) for i in rows],
            )
        result.sessions += len(group)
    return result.to_dict()


def _run_shard_job(args) -> dict:
    space, scenarios, cache_dir, engine = args
    return run_shard(space, scenarios, cache_dir=cache_dir, engine=engine)


def run_fleet(
    config: FleetConfig,
    workers: int = 1,
    tracer: Optional[Tracer] = None,
) -> FleetResult:
    """Run the whole fleet and return the merged population aggregates.

    ``workers > 1`` shards across a process pool; the result is
    bit-identical to ``workers=1`` because shard boundaries and the
    merge order depend only on the config.  A tracer (if given) receives
    one :class:`FleetShard` event per completed shard and a closing
    :class:`FleetSummary`.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tracing = tracer is not None and tracer.enabled
    t0 = time.perf_counter()
    scenarios = sample_scenarios(config.space, config.sessions, config.seed)
    shards = [
        scenarios[start : start + config.shard_size]
        for start in range(0, len(scenarios), config.shard_size)
    ]

    merged = FleetResult.empty()
    if shards:
        jobs = [
            (config.space, tuple(shard), config.cache_dir, config.engine)
            for shard in shards
        ]
        if workers == 1 or len(shards) == 1:
            payloads = []
            for index, job in enumerate(jobs):
                shard_t0 = time.perf_counter()
                payload = _run_shard_job(job)
                payloads.append(payload)
                if tracing:
                    tracer.emit(
                        FleetShard(
                            session_id=tracer.session_id,
                            t_mono=tracer.now(),
                            shard_index=index,
                            sessions=len(shards[index]),
                            wall_s=time.perf_counter() - shard_t0,
                        )
                    )
        else:
            with multiprocessing.Pool(processes=min(workers, len(shards))) as pool:
                payloads = pool.map(_run_shard_job, jobs)
            if tracing:
                for index, shard in enumerate(shards):
                    tracer.emit(
                        FleetShard(
                            session_id=tracer.session_id,
                            t_mono=tracer.now(),
                            shard_index=index,
                            sessions=len(shard),
                            wall_s=0.0,  # not measured inside pool workers
                        )
                    )
        # Ordered fold: shard index order, independent of worker count.
        for payload in payloads:
            merged.merge(FleetResult.from_dict(payload))

    wall_s = time.perf_counter() - t0
    if tracing:
        tracer.emit(
            FleetSummary(
                session_id=tracer.session_id,
                t_mono=tracer.now(),
                sessions=merged.sessions,
                shards=len(shards),
                workers=workers,
                wall_s=wall_s,
                sessions_per_s=merged.sessions / wall_s if wall_s > 0 else 0.0,
            )
        )
    return merged
