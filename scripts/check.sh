#!/usr/bin/env bash
# Tier-1 gate: golden fixtures byte-identical, the full test suite, and a
# smoke chaos run.
#
# Usage: scripts/check.sh [extra pytest args]
# Runs from any cwd; uses the repo's src/ tree directly (no install).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== golden fixtures (byte-identical) =="
python scripts/regen_golden.py --check

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== smoke chaos run (resets profile) =="
python -m repro.cli chaos resets --sessions 4 --chunks 8 --concurrency 2 --bins 10

if [[ "${SKIP_SOAK:-0}" != "1" ]]; then
    echo "== cluster soak (SKIP_SOAK=1 to skip) =="
    python -m pytest -q -m "soak and slow" tests/service/test_cluster_soak.py
fi

echo "check.sh: all green"
