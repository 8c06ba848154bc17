"""Experiment driver: run forecasters over series, log, and check bounds.

A run follows the strict predict-then-observe protocol step by step and
records everything needed to re-verify the guarantees offline: the
prediction, outcome and loss of every step, the active leaf and tree size
for tree runs, and the member predictions and mixture weights for
aggregated runs.  Logs are written as a CSV of steps plus a JSON summary;
floats are printed with 17 significant digits so they round-trip exactly
and two identical runs produce byte-identical step files.

Every value is rendered or parsed once.  The writers take each column of
a log or dataset once (``tolist``) and render a row with a single ``%``
format; no field ever needs CSV quoting.  The readers split rows with one
``csv.reader`` pass, a block of rows at a time, and parse each column of a
block at once; the series and covariate readers then check the [0, 1]
range on arrays and report the first bad row, field and value, as a
row-by-row scan would.

:func:`verify_bounds` replays the inequalities the forecasters are
guaranteed to satisfy (regret versus the offline comparators, partition
growth caps, mixture-weight accounting) against a finished log and
reports bound, achieved value and slack for each.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
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
from .errors import RejectedInputError
from .losses import LossSpec
from .oracles import best_constant, best_lipschitz_1d, lipschitz_regret_bound
from .tree import PartitionTree, height_bound, node_count_bound

LOG_FORMAT = "egtree-runlog-v1"
STEP_COLUMNS = ("t", "x", "pred", "y", "loss", "leaf_h", "leaf_i",
                "n_nodes", "height", "experts", "weights")


_DIGEST_BLOCK = 4096   # rows hashed per sha256 update
_ROW_BLOCK = 1024      # CSV rows read and transposed at a time


def fmt17(x: float) -> str:
    """Decimal rendering that round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def data_digest(ys, xs=None, *, x_text=None) -> str:
    """Canonical digest of a dataset, independent of CSV cosmetics.

    The digest covers the text ``x1,..,xd,y;`` of every row, each value
    rendered by :func:`fmt17`; a one-dimensional ``xs`` is one covariate.
    ``x_text`` stands in for ``xs`` when the covariate rows are already
    rendered: the ``;``-joined ``.17g`` text of a tree run's ``x`` column.
    """
    ys = np.asarray(ys, dtype=float)
    y_list = ys.tolist()
    if x_text is not None:
        if len(x_text) != len(ys):
            raise RejectedInputError(f"{len(x_text)} covariate rows for {len(ys)} observations")
        texts = (f"{x.replace(';', ',')},{y:.17g};" for x, y in zip(x_text, y_list))
    else:
        columns = []
        if xs is not None:
            xs = np.asarray(xs, dtype=float)
            if xs.ndim == 1:
                xs = xs[:, None]
            if len(xs) != len(ys):
                raise RejectedInputError(f"{len(xs)} covariate rows for {len(ys)} observations")
            columns = xs.T.tolist()
        row_format = ",".join(["%.17g"] * (len(columns) + 1)) + ";"
        texts = (row_format % row for row in zip(*columns, y_list))
    h = hashlib.sha256()
    # a block of rows per update: few calls, and never the whole file as one string
    for block in iter(lambda: "".join(itertools.islice(texts, _DIGEST_BLOCK)), ""):
        h.update(block.encode())
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
        if type(self.d) is not int:
            raise RejectedInputError(f"d must be an integer, got {self.d!r}")
        if type(self.effective_range) is not bool:
            raise RejectedInputError(
                f"effective_range must be true or false, got {self.effective_range!r}")
        if self.max_d is not None and not (type(self.max_d) is int and self.max_d >= 1):
            raise RejectedInputError(f"max_d must be an integer >= 1, got {self.max_d!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise RejectedInputError(f"seed must be an integer, got {self.seed!r}")

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
            d=data.get("d", 1),
            schedule=data.get("schedule", POWERS_OF_TWO),
            effective_range=data.get("effective_range", False),
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


def _forecaster(config: RunConfig):
    if config.forecaster == "eg":
        return eg.EgTracker(config.loss)
    if config.forecaster == "tree":
        return PartitionTree(config.d, config.loss, config.effective_range)
    return MetaForecaster(config.loss, config.schedule, config.effective_range,
                          config.max_d)


def run(config: RunConfig, ys, xs=None, save_state: bool = False) -> RunLog:
    """Drive the configured forecaster over a series; returns the full log.

    ``xs`` (shape (T, d), values in [0,1]) is required for tree runs and
    must be absent otherwise.  Every forecaster is driven by the same
    loop: ``predict(x)`` with the step's covariate (``None`` without
    covariates), then ``update(y)``, then ``trace()`` for the step's log
    columns, so an outcome is never shown before its prediction.  With
    ``save_state`` the final tree of a tree run is embedded in the summary
    for later snapshot/restore.
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

    preds = [0.0] * T
    losses = [0.0] * T
    # the step-log columns that trace() fills by name; a column a forecaster
    # does not trace keeps its default
    columns = {"x": [""] * T, "leaf_h": [-1] * T, "leaf_i": [-1] * T, "n_nodes": [1] * T,
               "height": [0] * T, "experts": [()] * T, "weights": [()] * T}
    cumulative = 0.0
    loss = config.loss

    forecaster = _forecaster(config)
    # forecasters see Python floats
    points = itertools.repeat(None, T) if xs is None else (row.tolist() for row in xs)
    for t, (x, y) in enumerate(zip(points, ys.tolist())):
        p = forecaster.predict(x)
        forecaster.update(y)
        preds[t] = p
        losses[t] = step_loss = loss.value(p, y)
        cumulative += step_loss
        for name, value in forecaster.trace().items():
            columns[name][t] = value

    final = {"n_nodes": int(columns["n_nodes"][-1]), "height": int(columns["height"][-1]),
             "total_steps": T}
    if config.forecaster == "meta":
        final["n_active"] = forecaster.n_active  # pool size for step T+1
        final["experts"] = [{"d": ex.d, "start": ex.start, "n_nodes": ex.tree.n_nodes,
                             "height": ex.tree.height} for ex in forecaster.experts]
    summary = {
        "format": LOG_FORMAT,
        "T": T,
        "cumulative_loss": cumulative,
        "config": config.to_dict(),
        "seed": config.seed,
        # a tree run's x column already holds its covariates as .17g text
        "data_digest": (data_digest(ys, x_text=columns["x"]) if xs is not None
                        else data_digest(ys)),
        "final": final,
        "wall_clock_sec": time.perf_counter() - started,
    }
    if save_state and config.forecaster == "tree":
        summary["tree"] = forecaster.to_dict()
    ints = {name: np.array(columns[name], dtype=np.int64)
            for name in ("leaf_h", "leaf_i", "n_nodes", "height")}
    return RunLog(np.arange(1, T + 1, dtype=np.int64), columns["x"], np.array(preds), ys,
                  np.array(losses), ints["leaf_h"], ints["leaf_i"], ints["n_nodes"],
                  ints["height"], columns["experts"], columns["weights"], summary)


# -- log persistence -----------------------------------------------------

# Every step-log field is an integer, a float, a 12-hex digest or
# ";"-joined floats, so no field ever needs CSV quoting and a row is one
# % format.
_STEP_ROW = "%d,%s,%.17g,%.17g,%.17g,%s,%s,%d,%d,%s,%s\n"


def _joined17(tuples) -> list:
    """The ``;``-joined .17g text of each tuple of floats."""
    formats = {}
    out = []
    for values in tuples:
        values = tuple(values)
        fmt = formats.get(len(values))
        if fmt is None:
            fmt = formats[len(values)] = ";".join(["%.17g"] * len(values))
        out.append(fmt % values)
    return out


def write_run_log(log: RunLog, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    leaf_h = ["" if v < 0 else v for v in log.leaf_h.tolist()]
    leaf_i = ["" if v < 0 else v for v in log.leaf_i.tolist()]
    rows = zip(log.t.tolist(), log.x_text, log.preds.tolist(), log.ys.tolist(),
               log.losses.tolist(), leaf_h, leaf_i, log.n_nodes.tolist(),
               log.height.tolist(), _joined17(log.expert_preds),
               _joined17(log.expert_weights))
    with open(outdir / "steps.csv", "w", newline="") as fh:
        fh.write(",".join(STEP_COLUMNS) + "\n")
        fh.writelines(_STEP_ROW % row for row in rows)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(log.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_rows(fh):
    """Rows of a CSV file; a row the csv module cannot split is rejected by number."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            yield row
    except csv.Error as exc:
        raise RejectedInputError(f"row {row_no + 1}: {exc}") from None


def _column_blocks(reader, width):
    """Yield ``(row number of the first row, columns)`` per block of CSV rows.

    A block is transposed at once; all rows at once would hold every row
    list next to the columns.  A row without ``width`` fields raises, after
    the rows before it have been yielded.
    """
    row_no = 2
    while rows := list(itertools.islice(reader, _ROW_BLOCK)):
        short = next((k for k, row in enumerate(rows) if len(row) != width), None)
        if short != 0:
            yield row_no, list(zip(*rows[:short]))
        if short is not None:
            raise RejectedInputError(
                f"row {row_no + short}: expected {width} fields, got {len(rows[short])}")
        row_no += len(rows)


def read_run_log(outdir) -> RunLog:
    outdir = Path(outdir)
    with open(outdir / "summary.json") as fh:
        summary = json.load(fh)
    cols = {name: [] for name in STEP_COLUMNS}
    with open(outdir / "steps.csv", newline="") as fh:
        reader = _csv_rows(fh)
        header = next(reader, None)
        if tuple(header or ()) != STEP_COLUMNS:
            raise RejectedInputError(f"unrecognized step log header: {header}")
        for _, columns in _column_blocks(reader, len(STEP_COLUMNS)):
            for name, cells in zip(STEP_COLUMNS, columns):
                cols[name] += cells
    if not cols["t"]:
        raise RejectedInputError("step log is empty")

    def ints(name, sentinel=None):
        cells = cols[name]
        values = map(int, cells) if sentinel is None else (
            int(v) if v != "" else sentinel for v in cells)
        return np.array(list(values), dtype=np.int64)

    def floats(name):
        return np.array(list(map(float, cols[name])))

    def tuples(name):
        return [tuple(map(float, cell.split(";"))) if cell else () for cell in cols[name]]

    t = ints("t")
    bad = np.flatnonzero(t != np.arange(1, len(t) + 1))
    if bad.size:
        raise RejectedInputError(f"row {bad[0] + 2}: t is {t[bad[0]]}, expected {bad[0] + 1}")
    if len(t) != summary.get("T"):
        raise RejectedInputError(f"step log has {len(t)} steps, its summary says T = "
                                 f"{summary.get('T')!r}")
    return RunLog(
        t=t,
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
    ys = np.asarray(ys, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("t,y\n")
        fh.writelines("%d,%.17g\n" % row for row in enumerate(ys.tolist(), start=1))


def _parse_unit(cell: str, row_no: int, what: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RejectedInputError(f"row {row_no}: {what} {cell!r} is not a number") from None
    if not 0.0 <= v <= 1.0:
        raise RejectedInputError(f"row {row_no}: {what} {v!r} outside [0, 1]")
    return v


def _unit_column(cells) -> tuple:
    """Parse one column of cells; returns (values, index of the first bad cell or None)."""
    try:
        values = np.array(list(map(float, cells)))
    except ValueError:
        # some cell is no number: find the first cell, of either kind, that is bad
        for k, cell in enumerate(cells):
            try:
                _parse_unit(cell, 0, "")
            except RejectedInputError:
                return None, k
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # NaN fails both
    return values, (int(bad[0]) if bad.size else None)


def _read_unit_rows(reader, whats) -> list:
    """Parse the rows left in ``reader``: ``len(whats)`` fields per row.

    Column ``j`` holds values in [0, 1] named ``whats[j]`` in messages, or
    is left unparsed where ``whats[j]`` is None.  Returns one float array
    per parsed column.  Each column of a block of rows is parsed at once; a
    malformed row or cell raises the message of the first fault in
    row-major order, as a row-by-row scan with :func:`_parse_unit` would.
    """
    parsed = {j: [] for j, what in enumerate(whats) if what is not None}
    for row_no, columns in _column_blocks(reader, len(whats)):
        firsts = []
        for j, blocks in parsed.items():
            values, bad = _unit_column(columns[j])
            blocks.append(values)
            if bad is not None:
                firsts.append((bad, j))
        if firsts:
            k, j = min(firsts)
            _parse_unit(columns[j][k], row_no + k, whats[j])
    return [np.concatenate(blocks) if blocks else np.empty(0) for blocks in parsed.values()]


def _is_series_header(header) -> bool:
    return header is not None and [c.strip() for c in header] == ["t", "y"]


def read_series(path) -> np.ndarray:
    """Read a ``t,y`` CSV; malformed rows raise with their row number."""
    with open(path, newline="") as fh:
        reader = _csv_rows(fh)
        header = next(reader, None)
        if not _is_series_header(header):
            raise RejectedInputError(f"expected header 't,y', got {header}")
        (ys,) = _read_unit_rows(reader, (None, "observation"))  # t is not parsed
    if not ys.size:
        raise RejectedInputError("series file has no observations")
    return ys


def write_covariates(path, xs, ys) -> None:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise RejectedInputError(f"{len(xs)} covariate rows for {len(ys)} observations")
    d = xs.shape[1]
    row_format = ",".join(["%.17g"] * (d + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(d)] + ["y"]) + "\n")
        fh.writelines(row_format % row for row in zip(*xs.T.tolist(), ys.tolist()))


def read_covariates(path):
    """Read an ``x1,..,xd,y`` CSV into (xs, ys) arrays."""
    with open(path, newline="") as fh:
        reader = _csv_rows(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[-1].strip() != "y":
            raise RejectedInputError(f"expected header 'x1,..,xd,y', got {header}")
        d = len(header) - 1
        *xs, ys = _read_unit_rows(reader, ("covariate",) * d + ("observation",))
    if not ys.size:
        raise RejectedInputError("covariate file has no observations")
    return np.column_stack(xs), ys


def read_input(path) -> tuple:
    """Read a series (header ``t,y``) as ``(None, ys)`` or a covariate file as ``(xs, ys)``."""
    with open(path, newline="") as fh:
        header = next(_csv_rows(fh), None)
    if _is_series_header(header):
        return None, read_series(path)
    return read_covariates(path)


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
    for v in log.losses.tolist():
        resummed += v
    recorded = log.summary["cumulative_loss"]
    checks.append(BoundCheck("cumulative-loss-resummation", recorded, resummed,
                             resummed == recorded, "exact equality required"))

    recomputed = max(
        abs(loss.value(p, y) - l)
        for p, y, l in zip(log.preds.tolist(), log.ys.tolist(), log.losses.tolist())
    )
    checks.append(BoundCheck("per-step-loss-consistency", 0.0, recomputed,
                             recomputed == 0.0, "log rows must round-trip"))

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
        n_ok = bool(np.all(log.n_nodes <= node_count_bound(config.d, log.t)))
        h_ok = bool(np.all(log.height <= height_bound(config.d, log.t)))
        checks.append(BoundCheck("node-count-growth", 1.0, float(n_ok), n_ok,
                                 "N_t <= 1 + 8 (d t)^(d/(d+2)) at every step"))
        checks.append(BoundCheck("height-growth", 1.0, float(h_ok), h_ok,
                                 "H_t <= 1 + (d/2) log2(4 d t) at every step"))

        groups: dict = {}
        for k, leaf in enumerate(zip(log.leaf_h.tolist(), log.leaf_i.tolist())):
            groups.setdefault(leaf, []).append(k)
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
        name = path.name
        rows.append({
            "run": name,
            "forecaster": s["config"]["forecaster"],
            "T": T,
            "seed": s.get("seed"),
            "cumulative_loss": s["cumulative_loss"],
            "avg_loss": s["cumulative_loss"] / T,
            "n_nodes": s["final"]["n_nodes"],
            "height": s["final"]["height"],
        })
        t_col = log.t.tolist()
        growth_rows += zip(itertools.repeat(name), t_col, log.n_nodes.tolist(),
                           log.height.tolist())
        for t, weights in zip(t_col, log.expert_weights):
            weight_rows += [(name, t, d, w) for d, w in enumerate(weights, start=1)]

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
            writer.writerows((run_name, t, d, "%.17g" % w) for run_name, t, d, w in weight_rows)
    return {"runs": rows, "groups": {f"{fc}/T={T}": len(v) for (fc, T), v in by_group.items()}}
