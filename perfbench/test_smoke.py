"""Smoke test of the benchmark itself, at tiny T.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks that every metric named
in BENCHMARK.json is printed with its unit, that outputs repeat across
runs of one seed, that the digest gate fires when outputs differ, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from pipeline import ROOT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_T = "300"


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc


def _result(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--T", TINY_T)
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.splitlines()
    return json.loads(context_line)["context"], json.loads(result_line)


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    _, result = _result(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_outputs_repeat_across_runs_of_one_seed():
    first_context, first = _result("tree-ar1-lag1", 4, 0)
    second_context, second = _result("tree-ar1-lag1", 4, 0)
    for key in ("steps_sha256", "summary_sha256"):
        assert first_context[key] == second_context[key]
    assert first["metrics"]["avg_loss"] == second["metrics"]["avg_loss"]


def test_digest_gate_fires_when_outputs_differ(tmp_path):
    T = int(TINY_T)
    iterations = [run._child("tree-ar1-lag1", seed, T, tmp_path / str(seed), traced=False)
                  for seed in (5, 5, 6)]
    assert run.problems(iterations[:2], T) == []
    mismatches = run.digest_mismatches(iterations)
    assert {m.split()[0] for m in mismatches} == {"steps_sha256", "summary_sha256",
                                                  "avg_loss"}
    assert run.problems(iterations, T)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "meta-markov", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
