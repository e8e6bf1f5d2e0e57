"""Smoke run of every workload with the smallest op count: one round per pass.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Plain ``pytest`` collects only ``tests/`` (see pyproject.toml), not this file; a full
pass takes about a minute because one deep-solve round solves at 1000 digits.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Numbers every untraced run prints by name, beyond the gated end-to-end metrics.
PRINTED = {
    "deep-solve": ["ops_per_s", "error_rate", "op_ms_p50.d300", "op_ms_p50.d1000",
                   "digits_growth_exponent"],
    "default-cli": ["ops_per_s", "error_rate", "op_ms_p90"],
    "oracle-suite": ["ops_per_s", "error_rate", "instances_per_s"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False)


def _printed_names(stdout: str) -> set[str]:
    return {line.split()[0] for line in stdout.splitlines() if line.startswith("  ")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported(workload, trace, key):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert set(PRINTED[workload]) <= _printed_names(proc.stdout)


def test_counts_repeat_across_runs():
    # The second run finds the first run's counts for this seed and code and compares them.
    for _ in range(2):
        proc = _run("oracle-suite", 1, seed=8)
        assert proc.returncode == 0, proc.stdout + proc.stderr

