"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_runs_every_workload_in_both_modes():
    proc = _run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    # One operation each for cx-pipeline and wide-plot, one per s row for
    # verify-trunc, counted once per run and mode.
    assert summary["attempted"] == 2 * (1 + 1 + 3)
    for name in ("cx-pipeline", "wide-plot", "verify-trunc"):
        for trace in (0, 1):
            assert f"perfbench workload={name} seed=0 seconds=0 trace={trace} smoke" in lines
    detail = json.loads(
        (ROOT / ".perfbench_work" / "wide-plot-seed0-smoke" / "result-trace1.json").read_text()
    )
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(detail["metrics"]) == {m["name"] for m in per_layer}
    assert "ranges.to_dict" in detail["probed"]
    assert detail["metrics"]["ranges.eigensolves"]["value"] == 24 * 24


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "wide-plot", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
