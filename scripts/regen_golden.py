#!/usr/bin/env python
"""Regenerate the golden-session fixtures under ``tests/golden/``.

Each fixture is one JSONL timeline per registered ABR algorithm,
recorded by the :mod:`repro.obs` tracer over two fixed synthetic traces
(both sessions in one file, distinguished by session id).  The paired
regression test (``tests/integration/test_golden_sessions.py``) replays
the fixtures and re-runs the sessions live, failing on any decision or
QoE drift — so an intentional algorithm change must regenerate them:

    PYTHONPATH=src python scripts/regen_golden.py

and commit the diff.  Timelines are normalised for byte-stable output:
the tracer runs on a counting clock and wall-time profiling fields are
zeroed, so a regeneration with unchanged decisions is a no-op diff.

``--check`` renders every fixture in memory instead and compares it byte
for byte with ``tests/golden/``; it writes nothing, names each fixture
that drifted (or is missing, or no longer rendered), and exits 1 if any
did:

    PYTHONPATH=src python scripts/regen_golden.py --check
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import json  # noqa: E402

from repro.abr.registry import available, create  # noqa: E402
from repro.obs import RingBufferSink, Tracer, event_to_json  # noqa: E402
from repro.sim.session import simulate_session  # noqa: E402
from repro.traces.trace import Trace  # noqa: E402
from repro.video import short_test_video  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")

#: Wall-clock profiling fields zeroed during normalisation (everything
#: else in a timeline is deterministic given the algorithm and trace).
VOLATILE_FIELDS = ("decide_wall_s", "wall_s")


def golden_manifest():
    """The fixture video: small enough that every ABR runs in seconds."""
    return short_test_video(num_chunks=12, num_levels=3)


def golden_traces():
    """The two fixed synthetic traces every fixture is recorded on."""
    return [
        # A capacity staircase across the ladder: forces up/down switches.
        Trace(
            [0.0, 60.0, 120.0, 180.0],
            [2400.0, 700.0, 1500.0, 3200.0],
            duration_s=600.0,
            name="golden-staircase",
        ),
        # A deep trough under the lowest sustainable rate: forces
        # rebuffering decisions and recovery.
        Trace(
            [0.0, 40.0, 70.0, 110.0],
            [1800.0, 250.0, 900.0, 2000.0],
            duration_s=600.0,
            name="golden-trough",
        ),
    ]


def _normalise(event):
    updates = {
        field: 0.0
        for field in VOLATILE_FIELDS
        if hasattr(event, field)
    }
    return dataclasses.replace(event, **updates) if updates else event


def run_golden_session(algorithm_name: str, trace: Trace):
    """One deterministic traced session -> normalised event list."""
    sink = RingBufferSink(capacity=100_000)
    counter = iter(range(10**9))
    tracer = Tracer([sink], clock=lambda: float(next(counter)))
    simulate_session(
        create(algorithm_name),
        trace,
        golden_manifest(),
        tracer=tracer,
        # Keyed by registry name, not algorithm.name: aliases such as
        # "highest" report a parameterised display name ("constant[-1]").
        session_id=f"{algorithm_name}:{trace.name}",
    )
    return [_normalise(e) for e in sink.events()]


def render_fixture(algorithm_name: str) -> str:
    """The full JSONL fixture body for one algorithm (both traces)."""
    lines = []
    for trace in golden_traces():
        for event in run_golden_session(algorithm_name, trace):
            lines.append(event_to_json(event))
    return "\n".join(lines) + "\n"


#: The algorithm recorded in the live-mode fixture: the gap-corrected
#: predictor is exactly what the live edge's off time exercises.
LIVE_FIXTURE_ALGORITHM = "fastmpc-gap"


def run_golden_live_session(algorithm_name: str, trace: Trace):
    """One deterministic traced *live* session -> normalised events."""
    from repro.sim.live import run_live_session

    sink = RingBufferSink(capacity=100_000)
    counter = iter(range(10**9))
    tracer = Tracer([sink], clock=lambda: float(next(counter)))
    run_live_session(
        create(algorithm_name),
        trace,
        golden_manifest(),
        tracer=tracer,
        session_id=f"live:{algorithm_name}:{trace.name}",
    )
    return [_normalise(e) for e in sink.events()]


def render_live_fixture() -> str:
    """The live-mode JSONL fixture (both golden traces, default edge)."""
    lines = []
    for trace in golden_traces():
        for event in run_golden_live_session(LIVE_FIXTURE_ALGORITHM, trace):
            lines.append(event_to_json(event))
    return "\n".join(lines) + "\n"


def prior_request_stream():
    """A fixed request schedule over two trace families.

    Three virtual sessions interleave across two families with a
    deterministic predicted-throughput pattern, so the fixture covers
    cold starts, pooled estimates, and per-family separation.
    """
    requests = []
    for i in range(12):
        family = "golden-fcc" if i % 2 == 0 else "golden-hsdpa"
        requests.append(
            {
                "session_id": f"prior-s{i % 3}",
                "family": family,
                "predicted_kbps": 400.0 + 137.0 * ((i * 7) % 9),
                "buffer_s": float(i % 5),
                "prev_level": i % 3,
            }
        )
    return requests


def make_prior_service():
    """A decision service over the golden ladder with a tiny real table."""
    from repro.core.fastmpc import FastMPCConfig, build_decision_table
    from repro.qoe import QoEWeights
    from repro.service import DecisionService

    manifest = golden_manifest()
    ladder = manifest.ladder.levels_kbps
    table = build_decision_table(
        ladder,
        manifest.chunk_duration_s,
        30.0,
        QoEWeights(),
        config=FastMPCConfig(buffer_bins=8, throughput_bins=8, horizon=3),
        use_cache=False,
    )
    return DecisionService(ladder, table=table)


def render_prior_fixture() -> str:
    """The shared-prior JSONL fixture: each served request's outcome in
    order, then the store's final snapshot as the last line."""
    from repro.service.protocol import DecisionRequest

    service = make_prior_service()
    lines = []
    for fields in prior_request_stream():
        response = service.decide(DecisionRequest(**fields))
        lines.append(
            json.dumps(
                {
                    **fields,
                    "level_index": response.level_index,
                    "bitrate_kbps": response.bitrate_kbps,
                    "source": response.source,
                    "prior_kbps": response.prior_kbps,
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {"priors": service.metrics_document()["priors"]}, sort_keys=True
        )
    )
    return "\n".join(lines) + "\n"


def render_all() -> Dict[str, str]:
    """Every fixture body, keyed by its file name under ``tests/golden/``."""
    bodies = {f"{name}.jsonl": render_fixture(name) for name in sorted(available())}
    bodies[f"live-{LIVE_FIXTURE_ALGORITHM}.jsonl"] = render_live_fixture()
    bodies["prior-session.jsonl"] = render_prior_fixture()
    return bodies


def drifted_fixtures(bodies: Dict[str, str]) -> List[str]:
    """Fixture files whose bytes differ from ``bodies``: changed or
    missing ones, plus committed fixtures nothing renders any more."""
    drifted = []
    for filename, body in bodies.items():
        path = os.path.join(GOLDEN_DIR, filename)
        try:
            with open(path, "rb") as stream:
                on_disk = stream.read()
        except FileNotFoundError:
            on_disk = None
        if on_disk != body.encode("utf-8"):
            drifted.append(filename)
    committed = {name for name in os.listdir(GOLDEN_DIR) if name.endswith(".jsonl")}
    return drifted + sorted(committed - set(bodies))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare rendered fixtures with tests/golden/ byte for byte; write nothing",
    )
    args = parser.parse_args(argv)
    bodies = render_all()
    if args.check:
        drifted = drifted_fixtures(bodies)
        for filename in drifted:
            print(f"drifted: {os.path.relpath(os.path.join(GOLDEN_DIR, filename))}")
        if drifted:
            return 1
        print(f"golden fixtures byte-identical ({len(bodies)} files)")
        return 0
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for filename, body in bodies.items():
        path = os.path.join(GOLDEN_DIR, filename)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(body)
        print(f"wrote {os.path.relpath(path)} ({body.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
