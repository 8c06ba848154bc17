"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` wraps functions and methods of ``src/egtree`` by
name, so a refactor that renames or deletes one of them breaks the traced
benchmark run.  This runs one short traced pipeline per forecaster kind.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PIPELINE = Path(__file__).resolve().parent.parent / "perfbench" / "pipeline.py"


@pytest.mark.parametrize("workload", ["meta-markov", "tree-ar1-lag1"])
def test_traced_pipeline_runs(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PIPELINE), "--workload", workload, "--seed", "1", "--T", "60",
         "--workdir", str(tmp_path / "work"), "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [op["error"] for op in result["ops"]] == [None] * len(result["ops"])
    assert result["trace"]["calls"]["tree._split"] > 0
