"""The repository's benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decide-frames --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics BENCHMARK.json declares;
``--trace 1`` is a separate run that wraps each layer's functions from
outside the program and prints the per-layer metrics plus a per-layer
table (calls, total, self, unattributed remainder) and the tracing
overhead.  The last line of standard output is the JSON result; the
human-readable report goes to standard error.

Every run first times the cold set-up (table build, traces, cluster
start) three times — twice in fresh child processes and once in this
process — with no disk cache, and reports the median as ``setup_s``.
Correctness gates run before any clock; a failing gate or validity guard
prints the failure and exits non-zero without a result.  See
``perfbench/README.md`` for the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    GateFailure,
    declared_metrics,
    host_cpu_ticks,
    log,
    median,
    provenance,
    result_line,
    run_setup_probes,
)

WORKLOADS = {
    "decide-frames": "wl_decide",
    "decide-sessions": "wl_decide",
    "fleet-mix": "wl_fleet",
    "arena-slowstart": "wl_arena",
}
#: Cold set-ups per run: this process plus fresh children.
SETUP_RUNS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one cold set-up in this (fresh) process and exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(workload: str, seed: int):
    """Import the workload (and with it the program) and set it up; the
    import counts, because a fresh process pays it."""
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    ctx = module.setup(workload, seed)
    return module, ctx, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        log(f"error: the program under test is missing ({SRC / 'repro'} not found);"
            " run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        module, ctx, setup_s = timed_setup(args.workload, args.seed)
        module.teardown(ctx)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        setup_times = run_setup_probes(args.workload, args.seed, SETUP_RUNS - 1)
        module, ctx, own = timed_setup(args.workload, args.seed)
        setup_times.append(own)
        steal0, total0 = host_cpu_ticks()
        try:
            outcome = module.run(ctx, args.seconds, bool(args.trace))
        finally:
            module.teardown(ctx)
        steal1, total1 = host_cpu_ticks()
    except GateFailure as failure:
        log(f"FAILED: {failure}")
        return 1

    values = dict(outcome["values"])
    values["setup_s"] = median(setup_times)
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        for entry in declared_metrics("per_layer"):
            values.setdefault(entry["name"], 0.0)  # layer not exercised here
    log(outcome["report"])
    log(f"set-up runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    steal_share = (steal1 - steal0) / max(total1 - total0, 1)
    log(f"host steal during the measured phase: {steal_share:.1%} of CPU time"
        " (other tenants; high values mean noisy figures)")
    log(json.dumps({"provenance": provenance(args.seed, len(setup_times), args.workload, bool(args.trace))}))
    for entry in declared_metrics(kind):
        log(f"  {entry['name']:<40} {values[entry['name']]:>16.6g} {entry['unit']}")
    print(result_line(outcome["correct"], outcome["attempted"], outcome["failed"], values, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
