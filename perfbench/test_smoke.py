"""Smoke run of the benchmark at tiny sizes (not part of the tier-1 suite):

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_reports_every_metric_and_passes_its_check(name, trace):
    doc, lines = run.run_workload(name, seed=3, seconds=0.05, trace=trace, n=200)
    assert doc["correct"], lines
    assert doc["failed"] == 0 and doc["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_inputs_repeat_for_a_seed(tmp_path):
    first = workloads.make("tall_dirty", tmp_path / "a", seed=5, n=300)
    second = workloads.make("tall_dirty", tmp_path / "b", seed=5, n=300)
    for flag in ("--expect", "--perceive", "--importance"):
        a = Path(first.argv[first.argv.index(flag) + 1]).read_bytes()
        b = Path(second.argv[second.argv.index(flag) + 1]).read_bytes()
        assert a == b
    assert first.rejected == second.rejected


def test_check_catches_a_wrong_report(tmp_path):
    inputs = workloads.make("xyz_batch", tmp_path, seed=1)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    assert subprocess.run([sys.executable, "-m", "satmetric.cli", *inputs.argv], env=env,
                          capture_output=True).returncode == 0
    doc = json.loads(inputs.report.read_bytes())
    assert workloads.check_report(doc, inputs) == []
    doc["gap_analysis"]["items"][3]["gap"] += 1e-6
    doc["gap_analysis"]["overall"]["weighted_sum"] += 1e-5
    doc["reliability"]["perception"]["alpha"] += 1e-11
    assert len(workloads.check_report(doc, inputs)) == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tall", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
