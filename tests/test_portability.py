"""The pinned bytes do not depend on the interpreter or on the BLAS kernel.

From Python 3.12 the builtin ``sum()`` of floats is compensated, and
OpenBLAS picks the kernel of a dot product by the CPU it runs on, so a
float sum taken by either would make a log, ``bounds.json`` or a report
table depend on the machine.  egtree sums with ``losses.left_sum`` alone:
these tests put an emulation of 3.12's ``sum()`` into every egtree module
and force OpenBLAS's AVX2 kernel in a subprocess, and the pins must hold.
"""

import builtins
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egtree
import reference
from egtree.cli import main
from egtree.harness import RunConfig, read_run_log, run, verify_bounds, write_series
from egtree.losses import LossSpec
from test_golden import GOLDEN, VERIFY_GOLDEN, case, cases, digests, verify_digest

TESTS = Path(__file__).parent


def neumaier_sum(values, start=0):
    """CPython 3.12's ``sum()``: exact over integers, Neumaier-compensated
    once a float is met."""
    values = list(values)
    if not any(isinstance(v, float) for v in (start, *values)):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def compensate(monkeypatch):
    """Make :func:`neumaier_sum` the builtin ``sum`` of every egtree module until
    ``monkeypatch`` undoes it."""
    for name, module in list(sys.modules.items()):
        if name == "egtree" or name.startswith("egtree."):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


def test_the_emulation_is_compensated():
    values = [1.0, 1e-16, 1e-16]
    assert neumaier_sum(values) == 1.0 + 2e-16 != builtins.sum(values)
    assert neumaier_sum([3, 4]) == 7 and isinstance(neumaier_sum([3, 4]), int)


@pytest.mark.parametrize("name", list(cases()))
def test_golden_pins_hold_under_a_compensated_sum(name, tmp_path, monkeypatch):
    compensate(monkeypatch)
    run(*case(name), tmp_path / "run")
    assert digests(tmp_path / "run") == GOLDEN[name]
    assert verify_digest(name, tmp_path / "verify") == VERIFY_GOLDEN[name]


def _report_means(tmp_path, tag):
    runs = []
    for seed in (3, 5, 8):
        series = tmp_path / f"s{seed}.csv"
        write_series(series, np.random.default_rng(seed).random(50))
        runs.append(str(tmp_path / f"{tag}-{seed}"))
        assert main(["run", "--forecaster", "eg", "--input", str(series),
                     "--out", runs[-1]]) == 0
    assert main(["report", "--out", str(tmp_path / tag), *runs]) == 0
    return (tmp_path / tag / "avg_loss_vs_T.csv").read_bytes()


def test_report_means_hold_under_a_compensated_sum(tmp_path, monkeypatch):
    plain = _report_means(tmp_path, "plain")
    compensate(monkeypatch)
    assert _report_means(tmp_path, "compensated") == plain


def test_single_member_bound_holds_under_a_compensated_sum(tmp_path, monkeypatch):
    config = RunConfig("meta", LossSpec("absolute"), max_d=1)
    run(config, np.random.default_rng(15).random(500), None, tmp_path)
    log = read_run_log(tmp_path)
    plain = [c.to_dict() for c in verify_bounds(log)]
    # log(1) = 0: the bound is the tail sum alone
    assert [c["bound"] for c in plain if c["name"] == "mixture-regret(d=1)"] == [
        reference.mixture_bound(500, 1, 2)]
    compensate(monkeypatch)
    assert [c.to_dict() for c in verify_bounds(log)] == plain


def test_verify_pins_hold_under_another_blas_kernel():
    # OpenBLAS's AVX2 dot kernel adds in another order than its AVX-512 one
    script = ("import json, sys, tempfile\n"
              "from pathlib import Path\n"
              "from test_golden import cases, verify_digest\n"
              "with tempfile.TemporaryDirectory() as tmp:\n"
              "    json.dump({name: verify_digest(name, Path(tmp) / name) for name in cases()},"
              " sys.stdout)\n")
    src = str(Path(egtree.__file__).parents[1])
    path = os.pathsep.join(filter(None, (str(TESTS), src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert json.loads(out) == VERIFY_GOLDEN
