"""Experiment driver: run forecasters over series, log, and check bounds.

A run follows the strict predict-then-observe protocol step by step and
records everything needed to re-verify the guarantees offline: the
prediction, outcome and loss of every step, the active leaf and tree size
for tree runs, and the member predictions and mixture weights for
aggregated runs.  Logs are written as a CSV of steps plus a JSON summary;
floats are printed with 17 significant digits so they round-trip exactly
and two identical runs produce byte-identical step files.

:func:`verify_bounds` replays the inequalities the forecasters are
guaranteed to satisfy (regret versus the offline comparators, partition
growth caps, mixture-weight accounting) against a finished log and
reports bound, achieved value and slack for each.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import eg
from .autoregressive import (
    MetaForecaster,
    POWERS_OF_TWO,
    combined_regret_bound,
    entry_step,
    mixture_regret_bound,
    mixture_regret_bound_raw,
)
from .errors import ContractViolationError, RejectedInputError
from .losses import LossSpec
from .oracles import best_constant, best_lipschitz_1d, lipschitz_regret_bound
from .tree import PartitionTree, height_bound, node_count_bound

LOG_FORMAT = "egtree-runlog-v1"
STEP_COLUMNS = ("t", "x", "pred", "y", "loss", "leaf_h", "leaf_i",
                "n_nodes", "height", "experts", "weights")


def fmt17(x: float) -> str:
    """Decimal rendering that round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def data_digest(ys, xs=None) -> str:
    """Canonical digest of a dataset, independent of CSV cosmetics.

    The digest covers the text ``x1,..,xd,y;`` of every row, each value
    rendered by :func:`fmt17`; a one-dimensional ``xs`` is one covariate.
    """
    ys = np.asarray(ys, dtype=float)
    columns = []
    if xs is not None:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if len(xs) != len(ys):
            raise RejectedInputError(f"{len(xs)} covariate rows for {len(ys)} observations")
        columns = xs.T.tolist()
    h = hashlib.sha256()
    for row in zip(*columns, ys.tolist()):
        h.update((",".join([f"{v:.17g}" for v in row]) + ";").encode())
    return h.hexdigest()


@dataclass(frozen=True)
class RunConfig:
    forecaster: str = "eg"                  # "eg" | "tree" | "meta"
    loss: LossSpec = field(default_factory=LossSpec)
    d: int = 1                              # tree runs: covariate dimension
    schedule: str = POWERS_OF_TWO           # meta runs
    effective_range: bool = False
    max_d: int | None = None
    seed: int | None = None                 # provenance echo only

    def __post_init__(self):
        if self.forecaster not in ("eg", "tree", "meta"):
            raise RejectedInputError(f"unknown forecaster {self.forecaster!r}")
        entry_step(self.schedule, 1)  # rejects an unknown schedule
        if self.max_d is not None and not (isinstance(self.max_d, int) and self.max_d >= 1):
            raise RejectedInputError(f"max_d must be an integer >= 1, got {self.max_d!r}")

    def to_dict(self) -> dict:
        return {
            "forecaster": self.forecaster,
            "loss": self.loss.to_dict(),
            "d": self.d,
            "schedule": self.schedule,
            "effective_range": self.effective_range,
            "max_d": self.max_d,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(
            forecaster=data.get("forecaster", "eg"),
            loss=LossSpec.from_dict(data.get("loss", {"kind": "absolute"})),
            d=int(data.get("d", 1)),
            schedule=data.get("schedule", POWERS_OF_TWO),
            effective_range=bool(data.get("effective_range", False)),
            max_d=data.get("max_d"),
            seed=data.get("seed"),
        )


@dataclass
class RunLog:
    """Per-step records plus the run summary."""

    t: np.ndarray
    x_text: list
    preds: np.ndarray
    ys: np.ndarray
    losses: np.ndarray
    leaf_h: np.ndarray      # -1 where no tree is involved
    leaf_i: np.ndarray
    n_nodes: np.ndarray
    height: np.ndarray
    expert_preds: list      # tuple per step, () where not aggregated
    expert_weights: list
    summary: dict

    def __len__(self) -> int:
        return len(self.t)


def _check_series(ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size == 0:
        raise RejectedInputError("need a nonempty one-dimensional series")
    bad = np.nonzero((ys < 0.0) | (ys > 1.0) | ~np.isfinite(ys))[0]
    if bad.size:
        raise RejectedInputError(f"observation {bad[0] + 1} outside [0, 1]: {ys[bad[0]]!r}")
    return ys


def run(config: RunConfig, ys, xs=None, save_state: bool = False) -> RunLog:
    """Drive the configured forecaster over a series; returns the full log.

    ``xs`` (shape (T, d), values in [0,1]) is required for tree runs and
    must be absent otherwise.  Outcomes are never shown to a forecaster
    before its prediction for the step is collected.  With ``save_state``
    the final tree of a tree run is embedded in the summary for later
    snapshot/restore.
    """
    started = time.perf_counter()
    ys = _check_series(ys)
    T = len(ys)
    if config.forecaster == "tree":
        if xs is None:
            raise RejectedInputError("tree runs need covariates")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if xs.shape != (T, config.d):
            raise RejectedInputError(
                f"covariates have shape {xs.shape}, expected {(T, config.d)}")
        if xs.min() < 0.0 or xs.max() > 1.0:
            raise RejectedInputError("covariates must lie in [0, 1]^d")
    elif xs is not None:
        raise RejectedInputError(f"{config.forecaster!r} runs take no covariates")

    t_col = np.arange(1, T + 1, dtype=np.int64)
    preds = np.empty(T)
    losses = np.empty(T)
    leaf_h = np.full(T, -1, dtype=np.int64)
    leaf_i = np.full(T, -1, dtype=np.int64)
    n_nodes = np.ones(T, dtype=np.int64)
    height = np.zeros(T, dtype=np.int64)
    x_text = [""] * T
    expert_preds: list = [()] * T
    expert_weights: list = [()] * T
    cumulative = 0.0
    summary_extra: dict = {}

    if config.forecaster == "eg":
        state = eg.EgState(M=config.loss.M)
        for t in range(T):
            p = eg.predict(state)
            y = float(ys[t])  # forecasters see Python floats
            state = eg.update(state, p, y, config.loss)
            preds[t] = p
            losses[t] = config.loss.value(p, y)
            cumulative += float(losses[t])
        final = {"n_nodes": 1, "height": 0, "total_steps": T}

    elif config.forecaster == "tree":
        tree = PartitionTree(config.d, config.loss, config.effective_range)
        for t in range(T):
            x = xs[t].tolist()
            p, leaf = tree.predict(x)
            y = float(ys[t])
            h_t, i_t = leaf.h, leaf.i
            tree.update(leaf, p, y)
            preds[t] = p
            losses[t] = config.loss.value(p, y)
            cumulative += float(losses[t])
            leaf_h[t] = h_t
            leaf_i[t] = i_t
            n_nodes[t] = tree.n_nodes
            height[t] = tree.height
            x_text[t] = ";".join(fmt17(v) for v in x)
        final = {"n_nodes": tree.n_nodes, "height": tree.height,
                 "total_steps": tree.total_steps}
        if save_state:
            summary_extra["tree"] = tree.to_dict()

    else:
        meta = MetaForecaster(config.loss, config.schedule,
                              config.effective_range, config.max_d)
        history_text = []  # fmt17 of every observation so far
        for t in range(T):
            p = meta.predict()
            f_vec = meta.last_expert_preds
            w_vec = meta.last_weights
            window = history_text[-len(meta.experts):] if meta.experts else []
            x_text[t] = hashlib.sha256(",".join(window).encode()).hexdigest()[:12]
            y = float(ys[t])
            meta.update(y)
            history_text.append(fmt17(y))
            preds[t] = p
            losses[t] = config.loss.value(p, y)
            cumulative += float(losses[t])
            expert_preds[t] = f_vec
            expert_weights[t] = w_vec
            total_nodes = sum(ex.tree.n_nodes for ex in meta.experts)
            n_nodes[t] = total_nodes if total_nodes else 1
            height[t] = max((ex.tree.height for ex in meta.experts), default=0)
        final = {
            "n_nodes": int(n_nodes[-1]),
            "height": int(height[-1]),
            "total_steps": T,
            "n_active": meta.n_active,  # pool size for step T+1
            "experts": [
                {"d": ex.d, "start": ex.start, "n_nodes": ex.tree.n_nodes,
                 "height": ex.tree.height}
                for ex in meta.experts
            ],
        }

    summary = {
        "format": LOG_FORMAT,
        "T": T,
        "cumulative_loss": cumulative,
        "config": config.to_dict(),
        "seed": config.seed,
        "data_digest": data_digest(ys, xs),
        "final": final,
        "wall_clock_sec": time.perf_counter() - started,
    }
    summary.update(summary_extra)
    return RunLog(t_col, x_text, preds, ys, losses, leaf_h, leaf_i,
                  n_nodes, height, expert_preds, expert_weights, summary)


# -- log persistence -----------------------------------------------------


def write_run_log(log: RunLog, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "steps.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STEP_COLUMNS)
        for k in range(len(log)):
            writer.writerow((
                int(log.t[k]),
                log.x_text[k],
                fmt17(log.preds[k]),
                fmt17(log.ys[k]),
                fmt17(log.losses[k]),
                int(log.leaf_h[k]) if log.leaf_h[k] >= 0 else "",
                int(log.leaf_i[k]) if log.leaf_i[k] >= 0 else "",
                int(log.n_nodes[k]),
                int(log.height[k]),
                ";".join(fmt17(v) for v in log.expert_preds[k]),
                ";".join(fmt17(v) for v in log.expert_weights[k]),
            ))
    with open(outdir / "summary.json", "w") as fh:
        json.dump(log.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_run_log(outdir) -> RunLog:
    outdir = Path(outdir)
    with open(outdir / "summary.json") as fh:
        summary = json.load(fh)
    cols: dict = {name: [] for name in STEP_COLUMNS}
    with open(outdir / "steps.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != STEP_COLUMNS:
            raise RejectedInputError(f"unrecognized step log header: {header}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(STEP_COLUMNS):
                raise RejectedInputError(
                    f"row {row_no}: expected {len(STEP_COLUMNS)} fields, got {len(row)}")
            for name, cell in zip(STEP_COLUMNS, row):
                cols[name].append(cell)
    T = len(cols["t"])
    if T == 0:
        raise RejectedInputError("step log is empty")

    def ints(name, sentinel=None):
        return np.array(
            [int(v) if v != "" else sentinel for v in cols[name]], dtype=np.int64)

    def floats(name):
        return np.array([float(v) for v in cols[name]])

    def tuples(name):
        return [tuple(float(v) for v in cell.split(";")) if cell else ()
                for cell in cols[name]]

    return RunLog(
        t=ints("t"),
        x_text=cols["x"],
        preds=floats("pred"),
        ys=floats("y"),
        losses=floats("loss"),
        leaf_h=ints("leaf_h", sentinel=-1),
        leaf_i=ints("leaf_i", sentinel=-1),
        n_nodes=ints("n_nodes"),
        height=ints("height"),
        expert_preds=tuples("experts"),
        expert_weights=tuples("weights"),
        summary=summary,
    )


# -- series / covariate CSV ------------------------------------------------


def write_series(path, ys) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("t", "y"))
        for t, y in enumerate(np.asarray(ys, dtype=float), start=1):
            writer.writerow((t, fmt17(y)))


def _parse_unit(cell: str, row_no: int, what: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RejectedInputError(f"row {row_no}: {what} {cell!r} is not a number") from None
    if not 0.0 <= v <= 1.0:
        raise RejectedInputError(f"row {row_no}: {what} {v!r} outside [0, 1]")
    return v


def read_series(path) -> np.ndarray:
    """Read a ``t,y`` CSV; malformed rows raise with their row number."""
    ys = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "y"]:
            raise RejectedInputError(f"expected header 't,y', got {header}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise RejectedInputError(f"row {row_no}: expected 2 fields, got {len(row)}")
            ys.append(_parse_unit(row[1], row_no, "observation"))
    if not ys:
        raise RejectedInputError("series file has no observations")
    return np.array(ys)


def write_covariates(path, xs, ys) -> None:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(xs.shape[1])] + ["y"])
        for t in range(len(ys)):
            writer.writerow([fmt17(v) for v in xs[t]] + [fmt17(ys[t])])


def read_covariates(path):
    """Read an ``x1,..,xd,y`` CSV into (xs, ys) arrays."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[-1].strip() != "y":
            raise RejectedInputError(f"expected header 'x1,..,xd,y', got {header}")
        d = len(header) - 1
        for row_no, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise RejectedInputError(
                    f"row {row_no}: expected {d + 1} fields, got {len(row)}")
            xs.append([_parse_unit(c, row_no, "covariate") for c in row[:-1]])
            ys.append(_parse_unit(row[-1], row_no, "observation"))
    if not ys:
        raise RejectedInputError("covariate file has no observations")
    return np.array(xs), np.array(ys)


# -- bound verification ----------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float
    achieved: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # Checks compute with numpy scalars; store plain Python values so
        # to_dict() is JSON-safe whatever a check computes.
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "achieved", float(self.achieved))
        object.__setattr__(self, "passed", bool(self.passed))

    @property
    def slack(self) -> float:
        return self.bound - self.achieved

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "achieved": self.achieved,
                "slack": self.slack, "passed": self.passed, "note": self.note}


def expert_regret(log: RunLog, d: int) -> float:
    """Cumulative loss gap of the mixture versus its order-d member."""
    loss = RunConfig.from_dict(log.summary["config"]).loss
    total = 0.0
    seen = False
    for k in range(len(log)):
        if len(log.expert_preds[k]) >= d:
            seen = True
            total += float(log.losses[k]) - loss.value(log.expert_preds[k][d - 1],
                                                       float(log.ys[k]))
    if not seen:
        raise RejectedInputError(f"order-{d} member was never active in this run")
    return total


def verify_bounds(log: RunLog, lipschitz_L: float | None = None) -> list[BoundCheck]:
    """Check every guarantee the logged run is supposed to satisfy."""
    if len(log) == 0:
        raise RejectedInputError("cannot verify an empty log")
    config = RunConfig.from_dict(log.summary["config"])
    loss, M, T = config.loss, config.loss.M, len(log)
    checks: list[BoundCheck] = []

    resummed = 0.0
    for v in log.losses:
        resummed += float(v)
    recorded = log.summary["cumulative_loss"]
    checks.append(BoundCheck("cumulative-loss-resummation", recorded, resummed,
                             resummed == recorded, "exact equality required"))

    recomputed = max(
        abs(loss.value(float(p), float(y)) - float(l))
        for p, y, l in zip(log.preds, log.ys, log.losses)
    )
    checks.append(BoundCheck("per-step-loss-consistency", 0.0, recomputed,
                             recomputed == 0.0, "log rows must round-trip"))

    if config.forecaster in ("eg", "tree", "meta"):
        mono_n = bool(np.all(np.diff(log.n_nodes) >= 0))
        mono_h = bool(np.all(np.diff(log.height) >= 0))
        checks.append(BoundCheck("tree-size-monotone", 1.0, float(mono_n and mono_h),
                                 mono_n and mono_h, "N_t and H_t never shrink"))

    if config.forecaster == "eg":
        fit = best_constant(log.ys, loss)
        regret = resummed - fit.value
        bound = eg.regret_bound(M, T)
        checks.append(BoundCheck("constant-regret", bound, regret, regret < bound))

    if config.forecaster == "tree":
        n_ok = all(log.n_nodes[k] <= node_count_bound(config.d, int(log.t[k]))
                   for k in range(T))
        h_ok = all(log.height[k] <= height_bound(config.d, int(log.t[k]))
                   for k in range(T))
        checks.append(BoundCheck("node-count-growth", 1.0, float(n_ok), n_ok,
                                 "N_t <= 1 + 8 (d t)^(d/(d+2)) at every step"))
        checks.append(BoundCheck("height-growth", 1.0, float(h_ok), h_ok,
                                 "H_t <= 1 + (d/2) log2(4 d t) at every step"))

        groups: dict = {}
        for k in range(T):
            groups.setdefault((int(log.leaf_h[k]), int(log.leaf_i[k])), []).append(k)
        node_best = sum(
            best_constant(log.ys[idx], loss).value for idx in groups.values())
        sqrt_sum = sum(math.sqrt(len(idx)) for idx in groups.values())
        decomposed = resummed - node_best
        checks.append(BoundCheck("per-leaf-decomposition", 3.0 * M * sqrt_sum,
                                 decomposed, decomposed <= 3.0 * M * sqrt_sum,
                                 "vs the best constant of every visited node"))
        cap = math.sqrt(float(log.n_nodes[-1]) * T)
        checks.append(BoundCheck("visit-concentration", cap, sqrt_sum,
                                 sqrt_sum <= cap, "sum sqrt(T_node) <= sqrt(N_T T)"))
        if lipschitz_L is not None and config.d == 1:
            xs = np.array([float(s) for s in log.x_text])
            fit = best_lipschitz_1d(xs, log.ys, lipschitz_L, loss)
            regret = resummed - fit.value
            bound = lipschitz_regret_bound(M, lipschitz_L, 1, T)
            checks.append(BoundCheck(f"lipschitz-regret(L={lipschitz_L})", bound,
                                     regret, regret <= bound))

    if config.forecaster == "meta":
        worst = max((abs(math.fsum(w) - 1.0) for w in log.expert_weights if w),
                    default=0.0)
        checks.append(BoundCheck("weight-simplex", 1e-12, worst, worst <= 1e-12,
                                 "mixture weights sum to 1 at every step"))
        sizes = [len(w) for w in log.expert_preds]
        steps_ok = all(0 <= b - a <= 1 for a, b in zip(sizes, sizes[1:]))
        checks.append(BoundCheck("one-entrant-per-step", 1.0, float(steps_ok), steps_ok))
        n_active = int(log.summary["final"]["n_active"])
        start_1 = entry_step(config.schedule, 1)
        for d in range(1, max(sizes) + 1):
            regret = expert_regret(log, d)
            if n_active >= 2:
                bound = mixture_regret_bound(T, n_active)
                note = ""
            else:
                bound = mixture_regret_bound_raw(T, n_active, start_1)
                note = "single-member pool: pre-simplification form"
            checks.append(BoundCheck(f"mixture-regret(d={d})", bound, regret,
                                     regret <= bound, note))
        if lipschitz_L is not None and T >= 2:
            fit = best_lipschitz_1d(log.ys[:-1], log.ys[1:], lipschitz_L, loss)
            regret = resummed - fit.value
            bound = combined_regret_bound(M, lipschitz_L, 1, T, start_1, n_active)
            checks.append(BoundCheck(f"combined-regret(d=1,L={lipschitz_L})", bound,
                                     regret, regret <= bound))
    return checks


# -- aggregation -----------------------------------------------------------


def report(run_dirs, outdir) -> dict:
    """Aggregate finished runs into summary tables and plot-ready CSVs."""
    run_dirs = [Path(p) for p in run_dirs]
    if not run_dirs:
        raise RejectedInputError("report needs at least one run directory")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    growth_rows = []
    weight_rows = []
    for path in run_dirs:
        log = read_run_log(path)
        s = log.summary
        T = s["T"]
        rows.append({
            "run": path.name,
            "forecaster": s["config"]["forecaster"],
            "T": T,
            "seed": s.get("seed"),
            "cumulative_loss": s["cumulative_loss"],
            "avg_loss": s["cumulative_loss"] / T,
            "n_nodes": s["final"]["n_nodes"],
            "height": s["final"]["height"],
        })
        for k in range(len(log)):
            growth_rows.append((path.name, int(log.t[k]), int(log.n_nodes[k]),
                                int(log.height[k])))
            for d, w in enumerate(log.expert_weights[k], start=1):
                weight_rows.append((path.name, int(log.t[k]), d, w))

    with open(outdir / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("run", "forecaster", "T", "seed", "cumulative_loss",
                         "avg_loss", "n_nodes", "height"))
        for r in rows:
            writer.writerow((r["run"], r["forecaster"], r["T"], r["seed"],
                             fmt17(r["cumulative_loss"]), fmt17(r["avg_loss"]),
                             r["n_nodes"], r["height"]))

    by_group: dict = {}
    for r in rows:
        by_group.setdefault((r["forecaster"], r["T"]), []).append(r["avg_loss"])
    with open(outdir / "avg_loss_vs_T.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("forecaster", "T", "runs", "mean_avg_loss",
                         "min_avg_loss", "max_avg_loss"))
        for (fc, T), vals in sorted(by_group.items()):
            writer.writerow((fc, T, len(vals), fmt17(sum(vals) / len(vals)),
                             fmt17(min(vals)), fmt17(max(vals))))

    with open(outdir / "node_growth.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("run", "t", "n_nodes", "height"))
        writer.writerows(growth_rows)

    if weight_rows:
        with open(outdir / "weights.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("run", "t", "d", "weight"))
            for run_name, t, d, w in weight_rows:
                writer.writerow((run_name, t, d, fmt17(w)))
    return {"runs": rows, "groups": {f"{fc}/T={T}": len(v) for (fc, T), v in by_group.items()}}
