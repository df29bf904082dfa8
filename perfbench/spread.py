"""Run-to-run spread of the end-to-end metrics, the way acceptance judges it.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads decide-frames fleet-mix --seeds 1 2 3 4 5

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), then prints
for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as
a share of the median next to the metric's bound from BENCHMARK.json.
A spread at or above a third of its bound is flagged (``setup_s``'s spread
is reported but not judged).  Each run's failed operations are printed
and totalled; the helper exits 1 if a run failed or any operation did.
``--json PATH`` keeps every raw value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int):
    """The run's result, or ``None`` (with the reason printed) on failure."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed} FAILED (exit {out.returncode}):\n{out.stderr[-2000:]}", flush=True)
        return None
    steal = [line for line in out.stderr.splitlines() if line.startswith("host steal")]
    result["steal"] = steal[-1].split(": ", 1)[1].split()[0] if steal else "?"
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every raw value here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    worst = 0.0
    failures = 0
    failed_ops = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            if result is None:
                failures += 1
                continue
            failed_ops += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items())
                + f", failed={result['failed']}/{result['attempted']}, host_steal={result['steal']}", flush=True)
        raw[workload] = values
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            judged = name != "setup_s"
            flag = "  <-- spread >= bound/3" if judged and share >= bounds[name] / 3 else ""
            if judged:
                worst = max(worst, share / bounds[name])
            print(f"  {workload:<16} {name:<22} median {q2:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {share:7.2%}  bound {bounds[name]:.0%}{flag}", flush=True)
    print(f"worst judged spread / bound = {worst:.3f}; failed runs: {failures};"
          f" failed operations: {failed_ops}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=2) + "\n")
    return 1 if failures or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
