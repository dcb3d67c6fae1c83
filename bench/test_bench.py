"""Self-test of the benchmark.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
(about a minute). It writes only under .bench_runs/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_runs", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)


@pytest.fixture
def cp_artifacts():
    """A tiny cp invocation's config and output directory."""
    from bsumkit import cli

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    w = workloads.get("cp_swamp", tiny=True)
    config = w.config(0, os.path.join(SCRATCH, "out"))
    path = os.path.join(SCRATCH, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert cli.main(["cp", "--config", path]) == 0
    yield w, config
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _check(w, config, code=0):
    return check.check_invocation(w.experiment, config, config["output_dir"], code,
                                  w.tasks())


def test_check_passes_the_untouched_artifacts(cp_artifacts):
    outcome = _check(*cp_artifacts)
    assert outcome.failed == 0, outcome.problems
    assert outcome.work_units == 5 * 20


def test_check_rejects_an_objective_uptick(cp_artifacts):
    w, config = cp_artifacts
    path = os.path.join(config["output_dir"], "cp_dim_prox_seed0.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    previous = float(lines[4].split(",")[2])
    fields[2] = f"{previous * (1 + 1e-9):.17g}"
    lines[5] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    outcome = _check(w, config)
    assert outcome.failed == 1
    assert any("objective rises" in p for p in outcome.problems)


def test_check_rejects_a_nonzero_exit(cp_artifacts):
    w, config = cp_artifacts
    outcome = _check(w, config, code=3)
    assert outcome.failed == outcome.attempted == w.tasks()


def test_check_rejects_a_summary_that_disagrees(cp_artifacts):
    w, config = cp_artifacts
    path = os.path.join(config["output_dir"], "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["iterations_to_threshold"]["als"]["censored"] += 1
    with open(path, "w") as fh:
        json.dump(summary, fh)
    assert _check(w, config).failed >= 1


def test_fails_without_the_program_sources():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        shutil.copytree(HERE, os.path.join(SCRATCH, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SCRATCH, "--workload", "cp_swamp", "--seed", "0", "--seconds", "1")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
