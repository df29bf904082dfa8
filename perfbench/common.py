"""Shared plumbing: process accounting, statistics, provenance, results.

Stdlib only, so ``run.py`` can import it before the set-up timer starts
(importing the program under test is part of set-up).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space for published tables; inside the checkout, git-ignored.
WORK_DIR = ROOT / ".perfbench_work"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class GateFailure(RuntimeError):
    """A correctness gate or validity guard failed: print it, no numbers."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def job_values(walls_s: Sequence[float], decisions: Sequence[int], cpus_s: Sequence[float]) -> Dict[str, float]:
    """End-to-end figures of a job-based workload: medians over its jobs."""
    return {
        "decisions_per_s": median([d / w for d, w in zip(decisions, walls_s)]),
        "cpu_us_per_decision": median([c * 1e6 / d for c, d in zip(cpus_s, decisions)]),
    }


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------


def self_cpu_s() -> float:
    """This process's user + system CPU seconds (``getrusage``)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from ``/proc``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime, stime are 14, 15.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_cpu_ticks() -> tuple:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``: the
    time the hypervisor ran another guest while this one was runnable."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    def git(*args: str) -> str:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""

    try:
        if Path(git("rev-parse", "--show-toplevel") or "/nonexistent").resolve() != ROOT:
            return "not-a-git-checkout"
        return git("rev-parse", "HEAD") or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (path + bytes): identifies the code
    under test even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, setup_runs: int, workload: str, traced: bool) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "runs": {
            "measured": 1,
            "setup": setup_runs,
            "fresh_process_each": True,
            "disk_cache": "none (REPRO_CACHE_DIR unset, cache_dir=None)",
        },
        "timestamp": time.time(),
    }


def fresh_env() -> Dict[str, str]:
    """Environment for set-up probes: no disk cache."""
    return {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}


# ---------------------------------------------------------------------------
# Declared metrics and the result line
# ---------------------------------------------------------------------------


def declared_metrics(kind: str) -> List[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return json.loads(BENCHMARK_JSON.read_text())[kind]


def result_line(correct: bool, attempted: int, failed: int, values: Dict[str, float], kind: str) -> str:
    """The final JSON line, with exactly the metrics BENCHMARK.json declares
    for this mode (a missing metric is a benchmark bug, so it raises)."""
    metrics = {}
    for entry in declared_metrics(kind):
        name = entry["name"]
        if name not in values:
            raise KeyError(f"workload did not produce declared metric {name!r}")
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        separators=(",", ":"),
    )


def log(*parts: object) -> None:
    """Human-readable report: stderr, so stdout's last line stays the result."""
    print(*parts, file=sys.stderr, flush=True)


def setup_probe_cmd(workload: str, seed: int) -> List[str]:
    return [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]


def run_setup_probes(workload: str, seed: int, count: int, timeout_s: float = 120.0) -> List[float]:
    """Time ``count`` cold set-ups, each in a fresh child process."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            setup_probe_cmd(workload, seed),
            cwd=ROOT,
            env=fresh_env(),
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
        if out.returncode != 0:
            raise GateFailure(
                f"set-up probe failed (exit {out.returncode}): {out.stderr.strip()[-2000:]}"
            )
        times.append(float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return times
