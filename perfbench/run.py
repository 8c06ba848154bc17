"""End-to-end and per-layer benchmark of the egtree pipeline.

    python3 perfbench/run.py --workload meta-markov --seed 1 --seconds 30 --trace 0

One closed-loop caller: a single process with no threads starts one fresh
``pipeline.py`` process per iteration, waits for it, and starts the next
until ``--seconds`` have passed (at least three iterations).  Every
iteration of a run uses the same inputs, made from ``--seed``, so the
outputs of all iterations must be byte-identical; that is one of the
correctness gates.  Times are medians, scaled to a nominal machine speed
by the probes each iteration takes (see ``pipeline.probe``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, with the
traced minus untraced pipeline time as the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's context (sizes, digests, versions, per-iteration samples).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from pipeline import PROBE_NOMINAL_S, ROOT, SRC, WORKLOADS

MIN_ITERATIONS = 3
REPEATS = 3  # of run, verify and report in each iteration of an untraced run
CHILD_TIMEOUT_S = 120
WORK = ROOT / ".perfbench_work"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_steps_per_s": "steps/s",
    "verify_s": "s",
    "report_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "avg_loss": "loss/step",
    "ops_ok": "share",
}
STAGES = ("setup", "run", "verify", "report")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracing.function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "tree.splits": "count",
        "tree.splits_per_update": "splits/update",
        "tree.n_nodes_final": "count",
        "tree.height_final": "levels",
        "tree.mean_leaf_depth": "levels",
        "tree.peak_traced_mb": "MB",
        "autoregressive.pool_size_final": "count",
        "oracles.lipschitz_distinct_x": "count",
        "harness.steps_csv_bytes": "bytes",
    })
    for stage in STAGES:
        units[f"{stage}.peak_traced_mb"] = "MB"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "share"
    units.update({"trace.pipeline_s": "s", "trace.untraced_pipeline_s": "s",
                  "trace.overhead_s": "s"})
    return units


def _child(workload: str, seed: int, T: int, workdir: Path, traced: bool,
           repeats: int = 1, weighed: bool = False) -> dict:
    """One pipeline iteration in a fresh process; returns its report."""
    argv = [sys.executable, str(Path(__file__).with_name("pipeline.py")),
            "--workload", workload, "--seed", str(seed), "--T", str(T),
            "--workdir", str(workdir), "--trace", str(int(traced)),
            "--repeats", str(repeats)] + (["--tracemalloc"] if weighed else [])
    spawned = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline process exited with {proc.returncode}")
    it = json.loads(proc.stdout.splitlines()[-1])
    it["setup_s"] = it["csv_on_disk_monotonic"] - spawned
    it["pipeline_s"] = it["setup_s"] + sum(_median(v) for v in it["stage_s"].values())
    # every timing at nominal machine speed, by the probes on either side;
    # set-up has only the probe after it
    p = it["probe_s"]
    it["scaled_s"] = {"setup": it["setup_s"] * PROBE_NOMINAL_S / p[0]}
    for stage, times in it["stage_s"].items():
        it["scaled_s"][stage] = [
            t * PROBE_NOMINAL_S / ((p[k] + p[k + 1]) / 2)
            for t, k in zip(times, range(STAGES.index(stage) - 1, len(p), 3))]
    it["scaled_s"]["pipeline"] = it["scaled_s"]["setup"] + sum(
        _median(it["scaled_s"][stage]) for stage in STAGES[1:])
    shutil.rmtree(workdir, ignore_errors=True)
    return it


def failed_ops(it: dict) -> int:
    """Commands that raised or returned nonzero; a FAILed bound check exits 1."""
    return sum(op["rc"] != 0 for op in it["ops"])


def problems(iterations: list, T: int) -> list[str]:
    """Correctness gates over the iterations of one run (same inputs)."""
    found = []
    for k, it in enumerate(iterations):
        for op in it["ops"]:
            if op["rc"] == 0 and op["checks_failed"]:
                found.append(f"iteration {k}: {op['command']} exited 0 with a FAIL check")
            if op["command"] == "verify-bounds" and op["rc"] == 0 and not op["checks_passed"]:
                found.append(f"iteration {k}: verify-bounds exited 0 and printed no check")
        out = it["outputs"]
        if "summary_sha256" not in out or "steps_sha256" not in out:
            found.append(f"iteration {k}: the run wrote no complete log")
            continue
        if out["T"] != T or out["steps_rows"] != T:
            found.append(f"iteration {k}: log has {out['steps_rows']} rows, T={out['T']}, "
                         f"expected {T}")
        if "report_avg_loss" in out and float(out["report_avg_loss"]) != out["avg_loss"]:
            found.append(f"iteration {k}: report avg_loss {out['report_avg_loss']} differs "
                         f"from summary {out['avg_loss']!r}")
    found += digest_mismatches(iterations)
    return found


def digest_mismatches(iterations: list) -> list[str]:
    """Outputs of one input must repeat byte for byte, in every repeat of every process."""
    found = []
    for k, key in enumerate(("steps_sha256", "summary_sha256")):
        seen = {d[k] for it in iterations for d in it["digests"]}
        if len(seen) > 1:
            found.append(f"{key} differs between runs of the same input: {sorted(seen)}")
    losses = {it["outputs"].get("avg_loss") for it in iterations}
    if len(losses) > 1:
        found.append(f"avg_loss differs between runs of the same input: {sorted(losses)}")
    return found


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(iterations: list) -> dict:
    attempted = sum(len(it["ops"]) for it in iterations)
    failed = sum(failed_ops(it) for it in iterations)
    T = iterations[0]["outputs"]["T"]

    def pooled(stage):
        return _median(t for it in iterations for t in it["scaled_s"][stage])

    values = {
        "setup_s": _median(it["scaled_s"]["setup"] for it in iterations),
        "run_steps_per_s": T / pooled("run"),
        "verify_s": pooled("verify"),
        "report_s": pooled("report"),
        "pipeline_s": _median(it["scaled_s"]["pipeline"] for it in iterations),
        "peak_rss_mb": _median(it["peak_rss_mb"] for it in iterations),
        "avg_loss": iterations[0]["outputs"]["avg_loss"],
        "ops_ok": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(traced: list, untraced: list, weighed: dict) -> dict:
    """Per-layer metrics: times from ``traced``, memory from ``weighed``."""
    units = per_layer_units()
    values = {}

    def med(get):
        return _median(get(it) for it in traced)

    for name in tracing.function_names():
        values[f"{name}.calls"] = med(lambda it: it["trace"]["calls"].get(name, 0))
        values[f"{name}.self_s"] = med(lambda it: it["trace"]["self_s"].get(name, 0.0))
    out0 = traced[0]["outputs"]
    route_calls = values["tree.route.calls"]
    splits = med(lambda it: it["trace"]["calls"].get("tree._split", 0))
    values.update({
        "tree.splits": splits,
        "tree.splits_per_update": splits / max(values["tree.update.calls"], 1.0),
        "tree.n_nodes_final": out0["n_nodes_final"],
        "tree.height_final": out0["height_final"],
        "tree.mean_leaf_depth": (traced[0]["trace"]["leaf_depth_sum"] / route_calls
                                 if route_calls else 0.0),
        "tree.peak_traced_mb": weighed["trace"]["tree_mb"],
        "autoregressive.pool_size_final": out0["pool_size_final"],
        "oracles.lipschitz_distinct_x": out0.get("distinct_x", 0),
        "harness.steps_csv_bytes": out0["steps_csv_bytes"],
    })
    for stage in STAGES:
        values[f"{stage}.peak_traced_mb"] = weighed["trace"]["stage_peak_mb"][stage]
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = med(lambda it: tracing.layer_self_s(it["trace"]["self_s"])[layer])
        # self times add up to the time inside the stage spans
        values[f"{layer}.share"] = med(lambda it: tracing.layer_self_s(it["trace"]["self_s"])[layer]
                                       / sum(it["trace"]["self_s"].values()))
    # the probes run no wrapped code, so scaling is fair to both sides
    traced_s = med(lambda it: it["scaled_s"]["pipeline"])
    untraced_s = _median(it["scaled_s"]["pipeline"] for it in untraced)
    values.update({"trace.pipeline_s": traced_s, "trace.untraced_pipeline_s": untraced_s,
                   "trace.overhead_s": traced_s - untraced_s})
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def context(workload: str, seed: int, iterations: list) -> dict:
    import numpy

    out = iterations[0]["outputs"]
    return {
        "workload": workload,
        "seed": seed,
        "iterations": len(iterations),
        "T": out.get("T"),
        "d": out.get("d"),
        "pool_size": out.get("pool_size_final"),
        "n_nodes_final": out.get("n_nodes_final"),
        "height_final": out.get("height_final"),
        "distinct_x": out.get("distinct_x"),
        "steps_csv_bytes": out.get("steps_csv_bytes"),
        "steps_sha256": out.get("steps_sha256"),
        "summary_sha256": out.get("summary_sha256"),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {
            "setup_s": [it["setup_s"] for it in iterations],
            "stage_s": [it["stage_s"] for it in iterations],
            "probe_s": [it["probe_s"] for it in iterations],
            "scaled_s": [it["scaled_s"] for it in iterations],
            "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
        },
        "errors": sorted({op["error"].strip().splitlines()[-1]
                          for it in iterations for op in it["ops"] if op["error"]}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--T", type=int, default=None,
                        help="override the workload's length (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "egtree" / "__init__.py").is_file():
        print(f"error: no egtree sources under {SRC}", file=sys.stderr)
        return 2

    T = args.T or WORKLOADS[args.workload].T
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    try:
        # tracemalloc slows allocation-heavy code several times over, so
        # memory is weighed in an iteration of its own
        weighed = (_child(args.workload, args.seed, T, workdir / "weighed", traced=True,
                          weighed=True) if args.trace else None)
        while len(untraced) < MIN_ITERATIONS or time.monotonic() < deadline:
            k = len(untraced) + len(traced)
            untraced.append(_child(args.workload, args.seed, T, workdir / str(k), traced=False,
                                   repeats=1 if args.trace else REPEATS))
            if args.trace:
                traced.append(_child(args.workload, args.seed, T, workdir / str(k + 1),
                                     traced=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other workload's files are left

    everything = untraced + traced + ([weighed] if weighed else [])
    found = problems(everything, T)
    for line in found:
        print(f"INCORRECT: {line}", file=sys.stderr)
    metrics = per_layer(traced, untraced, weighed) if args.trace else end_to_end(untraced)
    print(json.dumps({"context": context(args.workload, args.seed, everything)}))
    print(json.dumps({
        "correct": not found,
        "attempted": sum(len(it["ops"]) for it in everything),
        "failed": sum(failed_ops(it) for it in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
