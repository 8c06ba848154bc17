"""One iteration of the user's pipeline, in a fresh process.

``run.py`` starts this script once per iteration, so every iteration pays
interpreter start-up and the ``egtree`` import, and its peak resident
memory is its own.  The iteration drives ``egtree.cli.main`` in-process
through the same commands a user types:

    [simulate]  ->  run  ->  verify-bounds --input ...  ->  report

``--repeats`` runs the last three commands that many times on the same
input.  It prints one JSON object on the last line of standard output: stage
times, the outcome of every command, digests of the outputs and the
facts a caller needs to judge them.  With ``--trace 1`` it also wraps
every layer's public functions (see ``tracing.py``); ``--tracemalloc``
adds memory tracing on top.

    python3 perfbench/pipeline.py --workload tree-ar1-lag1 --seed 1 \\
        --T 10000 --workdir .perfbench_work/x --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The speed of a shared machine drifts by up to half over tens of seconds,
# in CPU time as much as in wall time.  A fixed pure-Python loop, timed
# after set-up and after every stage, tracks that drift; run.py reports
# each timing at the nominal speed at which the loop takes PROBE_NOMINAL_S.
PROBE_LOOPS = 150_000
PROBE_NOMINAL_S = 0.010


def probe() -> float:
    """Best of three timings of a fixed loop: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


# A 3-state chain whose lag windows keep splitting the trees of every order.
MARKOV_SPEC = {"kind": "markov", "emissions": [0.1, 0.5, 0.9],
               "transition": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]}


def _setup_meta_markov(work: Path, seed: int, T: int, command) -> Path:
    spec = work / "spec.json"
    spec.write_text(json.dumps(MARKOV_SPEC))
    series = work / "series.csv"
    command(["simulate", "--spec", str(spec), "--T", str(T), "--seed", str(seed),
             "--out", str(series)])
    return series


def _setup_tree_uniform_d2(work: Path, seed: int, T: int, command) -> Path:
    import numpy as np
    from egtree import harness

    rng = np.random.default_rng(seed)
    xs = rng.random((T, 2))
    noise = 0.1 * rng.standard_normal(T)
    ys = np.clip(0.5 + 0.3 * np.sin(2.0 * np.pi * xs[:, 0]) * xs[:, 1] + noise, 0.0, 1.0)
    path = work / "covariates.csv"
    harness.write_covariates(path, xs, ys)
    return path


def _setup_tree_ar1_lag1(work: Path, seed: int, T: int, command) -> Path:
    from egtree import harness, processes

    y = processes.generate(processes.ProcessSpec("ar1", seed, a=0.8, sigma=0.1), T + 1)
    path = work / "covariates.csv"
    harness.write_covariates(path, y[:-1, None], y[1:])
    return path


@dataclass(frozen=True)
class Workload:
    T: int
    setup: object          # (workdir, seed, T, command) -> input CSV path
    config: dict           # the `egtree run --config` file
    verify_args: tuple     # extra `egtree verify-bounds` arguments
    oracle_x_column: int | None  # input column of the Lipschitz oracle's x


WORKLOADS = {
    "meta-markov": Workload(6000, _setup_meta_markov, {"forecaster": "meta"},
                            ("--L", "1.0"), 1),
    "tree-uniform-d2": Workload(20000, _setup_tree_uniform_d2,
                                {"forecaster": "tree", "d": 2}, (), None),
    "tree-ar1-lag1": Workload(10000, _setup_tree_ar1_lag1,
                              {"forecaster": "tree", "d": 1}, ("--L", "1.0"), 0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path):
    return _sha256(path.read_bytes()) if path.exists() else None


def _summary_sha256(rundir: Path):
    """Digest of summary.json without its one nondeterministic field."""
    path = rundir / "summary.json"
    if not path.exists():
        return None
    summary = json.loads(path.read_text())
    summary.pop("wall_clock_sec", None)
    return _sha256(json.dumps(summary, sort_keys=True).encode())


def _command(cli, argv: list, tracer) -> dict:
    """Run one CLI command; a command that raises is a failed operation."""
    out = io.StringIO()
    span = tracer.span(f"cli.main.{argv[0]}") if tracer else nullcontext()
    error = None
    t0 = time.perf_counter()
    try:
        with span, redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # recorded and counted, never retried or hidden
        rc, error = None, traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - t0
    lines = out.getvalue().splitlines()
    return {
        "command": argv[0],
        "rc": rc,
        "error": error,
        "seconds": seconds,
        "checks_passed": sum(line.startswith("PASS ") for line in lines),
        "checks_failed": sum(line.startswith("FAIL ") for line in lines),
    }


def _outputs(rundir: Path, tables: Path, input_path: Path, workload: Workload) -> dict:
    """Digests and facts read off the files the pipeline wrote (untimed)."""
    import numpy as np

    facts: dict = {}
    steps = rundir / "steps.csv"
    summary_path = rundir / "summary.json"
    if steps.exists():
        data = steps.read_bytes()
        facts.update(steps_sha256=_sha256(data), steps_csv_bytes=len(data),
                     steps_rows=data.count(b"\n") - 1)
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        facts["summary_sha256"] = _summary_sha256(rundir)
        final = summary["final"]
        facts.update(T=summary["T"], d=summary["config"]["d"],
                     cumulative_loss=summary["cumulative_loss"],
                     avg_loss=summary["cumulative_loss"] / summary["T"],
                     n_nodes_final=final["n_nodes"], height_final=final["height"],
                     pool_size_final=final.get("n_active", 0))
    runs_csv = tables / "runs.csv"
    if runs_csv.exists():
        header, row = runs_csv.read_text().splitlines()[:2]
        facts["report_avg_loss"] = dict(zip(header.split(","), row.split(",")))["avg_loss"]
    if workload.oracle_x_column is not None:
        x = np.loadtxt(input_path, delimiter=",", skiprows=1, ndmin=2)[:, workload.oracle_x_column]
        # the oracle pairs x_t with y_{t+1} for a series input
        facts["distinct_x"] = int(np.unique(x[:-1] if workload.config["forecaster"] == "meta"
                                            else x).size)
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tracemalloc", action="store_true",
                        help="with --trace 1, also weigh memory (slows allocation-heavy code)")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    weighed = traced and args.tracemalloc

    sys.path.insert(0, str(SRC))
    from egtree import cli, eg, harness, tree

    tracer = None
    tree_mb = [0.0]
    if traced:
        import tracing

        def weigh_trees(_args):
            # harness.run digests its input after the loop, while every tree
            # is still alive and at its largest
            caller = sys._getframe(2).f_code
            if caller.co_name == "run" and caller.co_filename == harness.__file__:
                held = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, tree.__file__),
                     tracemalloc.Filter(True, eg.__file__)])
                tree_mb[0] = sum(s.size for s in held.statistics("filename")) / 2**20

        tracer = tracing.Tracer()
        tracing.install(tracer, before_digest=weigh_trees if weighed else None)
        if weighed:
            tracemalloc.start()

    workload = WORKLOADS[args.workload]
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    rundir, tables = work / "run", work / "tables"
    ops: list = []
    peak_mb: dict = {}

    def command(argv):
        ops.append(_command(cli, argv, tracer))
        return ops[-1]

    def stage(name):
        if not traced:
            return nullcontext()
        if weighed:
            tracemalloc.reset_peak()
        return tracer.span(f"stage.{name}")

    def end_stage(name):
        if weighed:
            peak_mb[name] = tracemalloc.get_traced_memory()[1] / 2**20

    with stage("setup"):
        config = work / "config.json"
        config.write_text(json.dumps(workload.config))
        input_path = workload.setup(work, args.seed, args.T, command)
    csv_on_disk = time.monotonic()
    end_stage("setup")

    # run, verify and report repeat on the same input: more samples per
    # process start
    probes = [probe()]
    stage_s: dict = {"run": [], "verify": [], "report": []}
    digests = []
    for _ in range(args.repeats):
        for name, argv in (
            ("run", ["run", "--config", str(config), "--input", str(input_path),
                     "--out", str(rundir)]),
            ("verify", ["verify-bounds", "--out", str(rundir), "--input", str(input_path),
                        *workload.verify_args]),
            ("report", ["report", "--out", str(tables), str(rundir)]),
        ):
            with stage(name):
                stage_s[name].append(command(argv)["seconds"])
            end_stage(name)
            probes.append(probe())
        digests.append([_file_sha256(rundir / "steps.csv"), _summary_sha256(rundir)])

    result = {
        "csv_on_disk_monotonic": csv_on_disk,
        "stage_s": stage_s,
        "probe_s": probes,
        "digests": digests,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": _outputs(rundir, tables, input_path, workload),
    }
    if traced:
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "leaf_depth_sum": tracer.leaf_depth_sum,
            "tree_mb": tree_mb[0],
            "stage_peak_mb": peak_mb,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
