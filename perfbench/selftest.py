"""Self-tests of the benchmark itself, at tiny scale.

Usage (from the repository root)::

    python3 perfbench/selftest.py            # gates + smoke runs (~3 min)
    python3 perfbench/selftest.py --gates    # gate tests only (~15 s)

* every correctness gate fails when fed a deliberately flipped decision
  level or a perturbed QoE, and passes on the honest input;
* all four workloads smoke-run with ``--trace 0`` and ``--trace 1``, and
  each prints every metric BENCHMARK.json declares, with its unit, in a
  final JSON line of exactly the agreed shape;
* without the program's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK_DIR, declared_metrics  # noqa: E402

sys.path.insert(0, str(SRC))

SMOKE_SECONDS = "1"


# ---------------------------------------------------------------------------
# Gates reject wrong outputs
# ---------------------------------------------------------------------------


def _small_table():
    from repro.core.fastmpc import FastMPCConfig, build_decision_table
    from repro.qoe import QoEWeights
    from wl_decide import LADDER
    from repro.video.presets import DEFAULT_BUFFER_CAPACITY_S, ENVIVIO_CHUNK_SECONDS

    return build_decision_table(
        LADDER,
        ENVIVIO_CHUNK_SECONDS,
        DEFAULT_BUFFER_CAPACITY_S,
        QoEWeights.balanced(),
        config=FastMPCConfig(buffer_bins=12, throughput_bins=12),
    )


def test_frames_gate_rejects_flipped_level() -> None:
    from repro.service import DecisionService
    from repro.service.protocol import encode_response_batch
    from wl_decide import LADDER, Window, _check_frame, make_frames, matches_template, response_template

    table = _small_table()
    frame = make_frames(3)[0]
    service = DecisionService(LADDER, table=table)
    responses = [service.decide(r) for r in frame]
    expected = [r.level_index for r in responses]
    honest = Window()
    _check_frame(responses, expected, honest)
    assert honest.wrong == 0, honest
    flipped = list(responses)
    victim = next(i for i, r in enumerate(flipped) if not r.degraded)
    flipped[victim] = dataclasses.replace(
        flipped[victim], level_index=(flipped[victim].level_index + 1) % len(LADDER)
    )
    caught = Window()
    _check_frame(flipped, expected, caught)
    assert caught.wrong == 1, caught
    # The timed run's byte check: latency may differ, a level may not.
    template = response_template(responses)
    relabelled = [dataclasses.replace(r, server_latency_us=1234.5) for r in responses]
    assert matches_template(encode_response_batch(relabelled), template)
    assert not matches_template(encode_response_batch(flipped), template)


def test_sessions_gate_rejects_flipped_level() -> None:
    import random

    from repro.service import DecisionService
    from wl_decide import EXPERIMENT, LADDER, DecideContext, Exchange, make_players, verify_sessions
    from repro.traces.datasets import make_generator

    table = _small_table()
    ctx = DecideContext(
        workload="decide-sessions", seed=5, table=table, table_path="", work_dir="",
        traces=make_generator("fcc", seed=5).generate_many(4, 120.0), loop=None, supervisor=None,
    )
    service = DecisionService(LADDER, table=table, experiment=EXPERIMENT)
    exchanges = []
    for player in make_players(ctx, "selftest", 6, random.Random(5)):
        for _ in range(4):
            request = player.request()
            response = service.decide(request)
            exchanges.append(Exchange(player, request, response))
            player.advance(response.level_index)
    checked, wrong = verify_sessions(table, exchanges)
    assert checked > 0 and wrong == 0, (checked, wrong)
    for controller in ("table", "bola", "robust-mpc"):
        index = next(
            i for i, e in enumerate(exchanges)
            if not e.response.degraded and EXPERIMENT.assign(e.request.session_id).controller == controller
        )
        tampered = list(exchanges)
        bad = tampered[index]
        tampered[index] = Exchange(
            bad.player,
            bad.request,
            dataclasses.replace(bad.response, level_index=(bad.response.level_index + 1) % len(LADDER)),
        )
        assert verify_sessions(table, tampered)[1] >= 1, controller


def test_fleet_gate_rejects_perturbed_qoe_and_level() -> None:
    import wl_fleet

    probes = wl_fleet.probe_batches(7)[:3]
    assert wl_fleet.check_parity(probes) == []
    vector = probes[1]["vector"]
    qoe = vector.qoe_total.copy()
    qoe[0] = math.nextafter(qoe[0], math.inf)
    perturbed = [dict(p) for p in probes]
    perturbed[1]["vector"] = dataclasses.replace(vector, qoe_total=qoe)
    assert wl_fleet.check_parity(perturbed) == [probes[1]["cell"]]
    levels = vector.levels.copy()
    levels[0, 5] = (levels[0, 5] + 1) % 6
    flipped = [dict(p) for p in probes]
    flipped[1]["vector"] = dataclasses.replace(vector, levels=levels)
    assert wl_fleet.check_parity(flipped) == [probes[1]["cell"]]


def test_arena_gate_rejects_perturbed_qoe_and_level() -> None:
    import wl_arena

    ctx = wl_arena.setup("arena-slowstart", 1)
    arena, reference = wl_arena.parity_sessions(ctx)
    assert wl_arena.check_parity(arena, reference) == []
    stalled = list(arena)
    stalled[2] = dataclasses.replace(stalled[2], total_rebuffer_s=stalled[2].total_rebuffer_s + 0.25)
    assert wl_arena.check_parity(stalled, reference) == [2]
    flipped = list(arena)
    records = list(flipped[1].records)
    records[4] = dataclasses.replace(records[4], level_index=(records[4].level_index + 1) % 6)
    flipped[1] = dataclasses.replace(flipped[1], records=tuple(records))
    assert wl_arena.check_parity(flipped, reference) == [1]


# ---------------------------------------------------------------------------
# Smoke runs: every declared metric, with its unit
# ---------------------------------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out.returncode == 0, f"{workload} --trace {trace}: exit {out.returncode}\n{out.stderr[-3000:]}"
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["attempted"] >= 1, result
        declared = {m["name"]: m["unit"] for m in declared_metrics(kind)}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), (workload, name, metric)
            if kind == "end_to_end":
                assert metric["value"] > 0, (workload, name, metric)
            printed = [line for line in out.stderr.splitlines() if line.split()[:1] == [name]]
            assert printed and printed[-1].split()[-1] == declared[name], (workload, name)


def test_missing_program_fails_without_result() -> None:
    bare = WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = _run("decide-frames", 0, cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gates", action="store_true", help="gate tests only")
    args = parser.parse_args()
    tests = [
        test_frames_gate_rejects_flipped_level,
        test_sessions_gate_rejects_flipped_level,
        test_fleet_gate_rejects_perturbed_qoe_and_level,
        test_arena_gate_rejects_perturbed_qoe_and_level,
        test_missing_program_fails_without_result,
    ]
    if not args.gates:
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
            test = lambda w=workload["name"]: smoke(w)  # noqa: E731
            test.__name__ = f"smoke_{workload['name']}"
            tests.append(test)
    failures = 0
    for test in tests:
        name = test.__name__
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", flush=True)
        else:
            print(f"ok   {name}", flush=True)
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
