"""Checks of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from agstab.symplectic import QuantumCodeReport  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_work_counts_repeat_across_traced_processes():
    runs = [
        _result(_run("--workload", "small-exact", "--seed", str(seed), "--seconds", "1", "--trace", "1"))
        for seed in (1, 2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    counts = [{m: r["metrics"][m]["value"] for m in tracing.EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    # The m=1 or-weight (1.34e8 pairs) and the m=2 minimum distance (2^140) are refused.
    assert counts[0]["linear.budget_refused"] == 2
    assert counts[0]["symplectic.states"] == (1 << 24) + (1 << 11)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(d_q, exact):
    return QuantumCodeReport(n=256, k_q=40, d_q=d_q, d_exact=exact, d_witness=None, trace=())


@pytest.mark.parametrize("d_q, exact", [(24, False), (30, False), (25, True)])
def test_bound_rows_may_rise_or_turn_exact(d_q, exact):
    workloads._check_report(_report(d_q, exact), 256, 40, 24, exact=False)


@pytest.mark.parametrize(
    "report, pinned",
    [
        (_report(23, False), (256, 40, 24, False)),
        (_report(None, False), (256, 40, 24, False)),
        (_report(24, False), (256, 41, 24, False)),
        (_report(24, False), (256, 40, 24, True)),
        (_report(25, True), (256, 40, 24, True)),
    ],
)
def test_output_check_rejects(report, pinned):
    n, k_q, d_q, exact = pinned
    with pytest.raises(workloads.CheckFailed):
        workloads._check_report(report, n, k_q, d_q, exact=exact)
