"""Smoke tests of the benchmark: each workload at minimal size.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Largest share of a traced operation's wall time no layer may cover.
RESIDUAL_BOUND = 0.05


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(run: subprocess.CompletedProcess) -> dict:
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    run = bench("--workload", workload, "--seed", "5", "--trace", trace)
    assert run.returncode == 0, run.stdout + run.stderr
    outcome = result(run)
    assert outcome["correct"] and outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(outcome["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = outcome["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert f"{metric['name']} = " in run.stdout
    if trace == "1":
        assert 0 <= outcome["metrics"]["residual_frac"]["value"] <= RESIDUAL_BOUND
    else:
        assert all(m["value"] > 0 for m in outcome["metrics"].values())


def test_a_stall_moves_one_stretch_not_the_medians():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from workloads import Op

    # 160 operations of 0.1 s back to back, one of them stalled for 5 s.
    ops, end = [], 0.0
    for index in range(160):
        latency = 5.1 if index == 85 else 0.1
        end += latency
        ops.append(Op(latency=latency, ok=True, refs=1000, end=end))
    metrics = run.end_to_end(ops, setup_s=1.0)
    assert metrics["ops_per_s"] == pytest.approx(10.0)
    assert metrics["refs_per_s"] == pytest.approx(10_000.0)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["latency_p90_ms"] == pytest.approx(100.0)


def test_default_seed_matches_committed_digests():
    run = bench("--workload", "cold_registry")
    assert run.returncode == 0, run.stdout + run.stderr
    assert result(run)["correct"]


def copy_benchmark(directory: Path) -> Path:
    """BENCHMARK.json and perfbench/ alone, in ``directory``."""
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    shutil.copytree(
        ROOT / "perfbench", directory / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return directory


def test_tampered_digest_fails(tmp_path):
    copy = copy_benchmark(tmp_path)
    (copy / "src").symlink_to(ROOT / "src")
    path = copy / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    cells = digests["workloads"]["cold_registry"]
    cells[next(iter(cells))] = "0" * 32
    path.write_text(json.dumps(digests))
    run = bench("--workload", "cold_registry", cwd=copy)
    assert run.returncode != 0
    outcome = result(run)
    assert not outcome["correct"] and outcome["failed"] == outcome["attempted"]
    assert "CHECK FAILED" in run.stdout


def test_fails_without_the_program(tmp_path):
    run = bench("--workload", "cold_registry", cwd=copy_benchmark(tmp_path))
    assert run.returncode != 0
    assert "{" not in run.stdout
