"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` wraps functions and methods of ``src/egtree`` by
name, so a refactor that renames or deletes one of them breaks the traced
benchmark run, and one whose wrapper the run no longer calls reads zero.
This runs one short traced pipeline per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PIPELINE = Path(__file__).resolve().parent.parent / "perfbench" / "pipeline.py"


@pytest.mark.parametrize("workload", ["meta-markov", "tree-ar1-lag1", "tree-uniform-d2"])
def test_traced_pipeline_runs(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PIPELINE), "--workload", workload, "--seed", "1", "--T", "60",
         "--workdir", str(tmp_path / "work"), "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [op["error"] for op in result["ops"]] == [None] * len(result["ops"])
    # a patched name that no longer reaches the run's code counts nothing
    calls = result["trace"]["calls"]
    for name in ("tree.update", "eg.predict", "tree._split", "harness.run"):
        assert calls.get(name, 0) > 0, name
    # only the workloads that verify with --L reach the Lipschitz comparator
    lipschitz_calls = calls.get("oracles.best_lipschitz_1d", 0)
    if workload == "tree-uniform-d2":
        assert lipschitz_calls == 0
    else:
        assert lipschitz_calls > 0
