"""Smoke tests for the benchmark, at tiny model sizes.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import rep  # noqa: E402  (puts the package source on sys.path)
import run  # noqa: E402
import workloads  # noqa: E402
from attackpaths.filters import bind_filter, parse_filter  # noqa: E402
from attackpaths.pathstore import MergedStore  # noqa: E402
from attackpaths.traversal import TraversalConfig, single_threaded_search  # noqa: E402


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    table = run.metric_table(trace)
    assert list(result["metrics"]) == [name for name, _ in table]
    for name, unit in table:
        assert result["metrics"][name]["unit"] == unit
    assert "error_rate" in proc.stdout


def test_truncated_final_paths_raise_error_rate(tmp_path):
    def truncate(run_dir: Path):
        final = run_dir / "Final paths"
        with open(final, "r+b") as fh:
            fh.truncate(final.stat().st_size // 2)

    (tmp_path / "clean").mkdir()
    (tmp_path / "damaged").mkdir()
    clean = rep.run_repetition("layered-pass", 7, "tiny", tmp_path / "clean")
    damaged = rep.run_repetition("layered-pass", 7, "tiny", tmp_path / "damaged", tamper=truncate)
    assert clean["failed"] == 0
    assert damaged["failed"] / damaged["attempted"] > clean["failed"] / clean["attempted"]


def test_wrong_topk_answers_raise_error_rate(tmp_path, monkeypatch):
    """Answers that are the k lowest paths, still in non-increasing order,
    must fail the top-k check."""
    real = MergedStore.sorted_positions

    def lowest(self, key, k=None):
        ranked = real(self, key)
        return ranked[-k:] if k else ranked

    monkeypatch.setattr(MergedStore, "sorted_positions", lowest)
    result = rep.run_repetition("complete-revisit", 7, "tiny", tmp_path)
    assert workloads.build("complete-revisit", 7, "tiny").expected_paths > rep.TOP_K
    assert any("top-k values" in f for f in result["failures"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("layered-pass", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_path_counts(workload):
    wl = workloads.build(workload, 3, "tiny")
    flt = None
    if wl.filter_text:
        flt = bind_filter(parse_filter(wl.filter_text), wl.network, wl.end)
    found = []
    single_threaded_search(wl.network, TraversalConfig(wl.start, wl.end, completion_filter=flt), found.append)
    assert len(found) == wl.expected_paths > 0
