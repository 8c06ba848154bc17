"""Experiment driver: run forecasters over series, log, and check bounds.

A run follows the strict predict-then-observe protocol step by step and
records everything needed to re-verify the guarantees offline: the
prediction and outcome of every step (its loss is not logged: the
verifier recomputes it from the two), the active leaf and tree size for
tree runs, and the member predictions and mixture weights for aggregated
runs.  Logs are written as a CSV of steps plus a JSON summary, in the
format ``LOG_FORMAT`` (``egtree-runlog-v2``, which is the
``egtree-runlog-v1`` step log less its ``loss`` column); floats are
printed with 17 significant digits so they round-trip exactly and two
identical runs produce byte-identical step files.

:func:`run` (``egtree run``) checks its inputs as whole arrays before
the first step, and before any file is opened, then drives every
forecaster through one loop (:func:`_step_blocks`) that produces the step
log a block of ``_ROW_BLOCK`` steps at a time; a tree takes its checked
covariate rows through ``PartitionTree._predict``.  Each block's log
fields (``trace()``) go into one flat list, cut into the block's columns
after its steps, where the harness renders the block's data rows once,
as the text that both its ``x`` and ``y`` cells (a tree run's ``x``
cells; others are empty) and the running sha256 of :func:`data_digest`
are cut from, and adds the block's losses to the running cumulative
loss.  Each block is written as it arrives and the summary last, so a
run holds the forecaster and one block, never the whole log; the whole
log is only ever read back (:func:`read_run_log`).  The files are written
under temporary names and renamed into place at the end, so a run
rejected midway leaves its directory as it found it.
:func:`write_run_log` writes a :class:`RunLog` read back, or built by
hand, through the same block writer.

Every value is rendered or parsed once, and a canonical input not even
once: a run renders each covariate and outcome once, for its step log
and its digest alike.  The writers (series and covariate files, the
report's per-step tables) and :func:`data_digest` take each column once
(``tolist``), the step-log writer a block of steps at a time, and all
render a block of ``_ROW_BLOCK`` rows with a single ``%`` format
(:func:`_rendered`); no field but a report's run name ever needs CSV
quoting, and that one is quoted once per run.  The readers take a file a
block of lines at a time and cut a block that ``csv.reader`` would split
plainly with one ``str.split``; from the first block with a quote, a
``\\r``, a wrong field count or an oversized line on, ``csv.reader``
splits the rest (:func:`_column_blocks`).  :func:`read_input` tells a
series from a covariate file by its header alone.  The numbers of a CSV
are parsed by ``np.array(cells, dtype)``, which reads each cell as
``int`` or ``float`` does: an input block as one array, range-checked at
once, a step-log block a column at a time (but a member cell as a tuple
of floats, and a block of empty member or leaf cells, as all but a
mixture's or a tree's log holds, parses no cell).  A block that fails is
rescanned row by row for its first bad row, field and value.  The
step-log reader reads ``LOG_FORMAT`` alone, rejects a leaf that is no
node of a tree and checks the fields of ``summary.json`` that the
verifier and the report read.  A file that does not decode is rejected,
naming it.  Every input file this module writes holds the text that
:func:`data_digest` hashes, as it stands, so :func:`input_digest` checks
such a file against a run by hashing it block by block; it parses and
renders only a file that does not hash to the run's digest.

:func:`verify_bounds` replays the inequalities the forecasters are
guaranteed to satisfy (regret versus the offline comparators, partition
growth caps, mixture-weight accounting) against a finished log and
reports bound, achieved value and slack for each.  It works on whole
columns: it recomputes every step's loss from the logged prediction and
outcome once, and a tree run's per-leaf checks fit the best constant of
every visited leaf in one grouped pass (:func:`oracles.best_constants`).
:func:`report` reads its runs one at a time and writes each run's
per-step rows as it goes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field, fields
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
from .errors import RejectedInputError, json_field, json_keys, positive_int
from .losses import LossSpec
from .oracles import (best_constant, best_constants, best_lipschitz_1d,
                      lipschitz_regret_bound)
from .tree import PartitionTree, height_bound, node_count_bound

LOG_FORMAT = "egtree-runlog-v2"
STEP_COLUMNS = ("t", "x", "pred", "y", "leaf_h", "leaf_i", "n_nodes", "height",
                "experts", "weights")


_ROW_BLOCK = 1024      # CSV rows read, or rendered, at a time


def fmt17(x: float) -> str:
    """Decimal rendering that round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def _rendered(row_format: str, columns):
    """The text of the rows of ``columns``, one ``%`` format per block of rows.

    ``columns`` are equal-length sequences, one per field of ``row_format``;
    each block of ``_ROW_BLOCK`` rows is rendered as one string, so no text
    is built row by row and the whole table is never one string.
    """
    for k in range(0, len(columns[0]), _ROW_BLOCK):
        block = [column[k:k + _ROW_BLOCK] for column in columns]
        yield row_format * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block)))


def _covariate_columns(xs, ys) -> list:
    """The columns of ``xs``, one row per observation of ``ys``; a 1-D ``xs`` is one column."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if len(xs) != len(ys):
        raise RejectedInputError(f"{len(xs)} covariate rows for {len(ys)} observations")
    return xs.T.tolist()


def data_digest(ys, xs=None) -> str:
    """Canonical digest of a dataset, independent of CSV cosmetics.

    The digest covers the text ``x1,..,xd,y;`` of every row, each value
    rendered by :func:`fmt17`; a one-dimensional ``xs`` is one covariate.
    """
    ys = np.asarray(ys, dtype=float)
    columns = [] if xs is None else _covariate_columns(xs, ys)
    h = hashlib.sha256()
    for text in _rendered("%.17g," * len(columns) + "%.17g;", [*columns, ys.tolist()]):
        h.update(text.encode())
    return h.hexdigest()


def _undecodable(path, exc: UnicodeDecodeError) -> RejectedInputError:
    return RejectedInputError(f"{path} is not {exc.encoding} text: {exc.reason}")


@contextlib.contextmanager
def _open_csv(path):
    """``path`` opened to read CSV rows; bytes that do not decode are rejected, naming it."""
    with open(path, newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def load_json(path) -> dict:
    """The JSON object in the file ``path``; anything else is rejected, naming the path."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RejectedInputError(f"{path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    if not isinstance(data, dict):
        raise RejectedInputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


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
        if self.max_d is not None:
            positive_int(self.max_d, "max_d")
        if self.seed is not None and type(self.seed) is not int:
            raise RejectedInputError(f"seed must be an integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"loss": self.loss.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        json_keys(data, [f.name for f in fields(cls)], "config")
        if "loss" in data:
            data = {**data, "loss": LossSpec.from_dict(data["loss"])}
        return cls(**data)


@dataclass
class RunLog:
    """Per-step records plus the run summary."""

    t: np.ndarray
    x_text: list            # a tree run's covariate rows, "x1;..;xd"; "" elsewhere
    preds: np.ndarray
    ys: np.ndarray
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
        raise RejectedInputError(f"observation {bad[0] + 1} outside [0, 1]: {float(ys[bad[0]])!r}")
    return ys


def _forecaster(config: RunConfig):
    if config.forecaster == "eg":
        return eg.EgTracker(config.loss)
    if config.forecaster == "tree":
        return PartitionTree(config.d, config.loss, config.effective_range)
    return MetaForecaster(config.loss, config.schedule, config.effective_range,
                          config.max_d)


def _checked(config: RunConfig, ys, xs, save_state: bool) -> tuple:
    """The series and a tree run's covariates, checked as whole arrays before
    :func:`run` opens any file: ``(ys, xs)``.

    ``xs`` (shape (T, d), values in [0,1]) is required for tree runs and
    must be absent otherwise; only a tree run can save its state.
    """
    if save_state and config.forecaster != "tree":
        raise RejectedInputError(f"only a tree run can save its state, not {config.forecaster!r}")
    ys = _check_series(ys)
    if config.forecaster != "tree":
        if xs is not None:
            raise RejectedInputError(f"{config.forecaster!r} runs take no covariates")
        return ys, None
    if xs is None:
        raise RejectedInputError("tree runs need covariates")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape != (len(ys), config.d):
        raise RejectedInputError(f"config sets d = {config.d}, but the covariates have "
                                 f"shape {xs.shape} for T = {len(ys)}")
    bad = np.argwhere(~((xs >= 0.0) & (xs <= 1.0)))  # NaN fails both
    if bad.size:
        k, j = bad[0]
        raise RejectedInputError(f"observation {k + 1}: covariate {j + 1} outside "
                                 f"[0, 1]: {float(xs[k, j])!r}")
    return ys, xs


@dataclass
class _Block:
    """The step log of up to ``_ROW_BLOCK`` consecutive steps of a run.

    ``columns`` holds one list per entry of ``STEP_COLUMNS`` (``t`` a
    range): ``x`` and ``y`` are the cells' text, ``leaf_h`` and ``leaf_i``
    are -1 where no leaf is logged, and the members are tuples of floats.
    A block of a running run also carries the cumulative loss and the
    :func:`data_digest` of every step up to its last; a block cut from a
    finished :class:`RunLog` carries neither.
    """

    columns: list
    cumulative_loss: float | None = None
    data_digest: str | None = None


def _step_blocks(config: RunConfig, forecaster, ys: np.ndarray, xs):
    """Drive ``forecaster`` over the checked ``ys`` (and ``xs``), a :class:`_Block` at a time.

    Each step is predicted with its covariate row (``None`` without
    covariates), then ``update(y)``, then ``trace()`` gives its log fields,
    so an outcome is never shown before its prediction.  A tree predicts
    through ``PartitionTree._predict``, which takes the checked rows as
    tuples of floats and does not check them again.  After each block's
    loop its fields are cut into columns, and its data rows are rendered
    once, by one ``%`` format, as ``x1;..;xd,y`` (a tree run's) or ``y``
    lines: that text, respelled, feeds the running sha256 of
    :func:`data_digest`, and cut, gives the ``x`` and ``y`` cells.
    ``LossSpec.value_array`` (the floats of ``LossSpec.value``) computes
    the block's losses, which are added to the running cumulative loss
    left to right; the log holds no loss.  A leaf index beyond the 64 bits
    of the log's ``leaf_i`` is rejected in the block that reaches it.
    """
    if xs is None:
        predict, data_format = forecaster.predict, "%.17g\n"
    else:
        predict = forecaster._predict
        data_format = ";".join(["%.17g"] * config.d) + ",%.17g\n"
    update, traced = forecaster.update, forecaster.trace
    width = len(forecaster.TRACED)
    digest, cumulative = hashlib.sha256(), 0.0
    for start in range(0, len(ys), _ROW_BLOCK):
        block_ys = ys[start:start + _ROW_BLOCK]
        y = block_ys.tolist()
        n = len(y)
        if xs is None:
            x_columns, points = [], itertools.repeat(None, n)
        else:  # the rows checked before the run, as tuples of Python floats
            x_columns = xs[start:start + n].T.tolist()
            points = zip(*x_columns)
        # the fields of every step in one flat list: no container per step
        # outlives its step, so the loop adds no work for the garbage collector
        preds, fields = [], []
        for x, outcome in zip(points, y):
            preds.append(predict(x))
            update(outcome)
            fields.extend(traced())

        # a column the forecaster does not trace keeps its default
        columns = {"t": range(start + 1, start + n + 1), "x": [""] * n, "pred": preds,
                   "leaf_h": [-1] * n, "leaf_i": [-1] * n, "n_nodes": [1] * n,
                   "height": [0] * n, "experts": [()] * n, "weights": [()] * n}
        columns.update((name, fields[j::width]) for j, name in enumerate(forecaster.TRACED))
        del fields  # the columns hold every field now
        leaf_i = columns["leaf_i"]
        if max(leaf_i) >= 2**63:  # only a leaf index passes 2**63, at depth 64 or more
            k = next(k for k, i in enumerate(leaf_i) if i >= 2**63)
            raise RejectedInputError(
                f"step {start + k + 1}: the leaf at depth {columns['leaf_h'][k]} has index "
                f"{leaf_i[k]}, beyond the 64 bits of the step log's leaf_i")
        # "x1;..;xd,y\n" becomes the digest's "x1,..,xd,y;", and the cells
        # alternate x and y once the line ends are commas
        text = data_format * n % tuple(itertools.chain.from_iterable(zip(*x_columns, y)))
        digest.update(text.replace(";", ",").replace("\n", ";").encode())
        cells = text.replace("\n", ",").split(",")
        del text
        cells.pop()  # the empty cell after the last line end
        if xs is None:
            columns["y"] = cells
        else:
            columns["x"], columns["y"] = cells[0::2], cells[1::2]
        losses = config.loss.value_array(np.array(preds), block_ys).tolist()
        for v in losses:
            cumulative += v  # left to right, as verify_bounds resums it
        yield _Block([columns[name] for name in STEP_COLUMNS], cumulative, digest.hexdigest())


def _summary(config: RunConfig, forecaster, T: int, last: _Block, started: float) -> dict:
    """The summary of a run whose last block is ``last``; its wall clock ends now."""
    n_nodes, height = (last.columns[STEP_COLUMNS.index(name)][-1]
                       for name in ("n_nodes", "height"))
    final = {"n_nodes": n_nodes, "height": height, "total_steps": T}
    if config.forecaster == "meta":
        final["n_active"] = forecaster.n_active  # pool size for step T+1
        final["experts"] = [{"d": tree.d, "start": entry_step(config.schedule, tree.d),
                             "n_nodes": tree.n_nodes, "height": tree.height}
                            for tree in forecaster.experts]
    return {
        "format": LOG_FORMAT,
        "T": T,
        "cumulative_loss": last.cumulative_loss,
        "config": config.to_dict(),
        "seed": config.seed,
        "data_digest": last.data_digest,
        "final": final,
        "wall_clock_sec": time.perf_counter() - started,
    }


def run(config: RunConfig, ys, xs, outdir, save_state: bool = False) -> dict:
    """Drive the configured forecaster over a series, writing its log to ``outdir``.

    ``xs`` (shape (T, d), values in [0,1]) is required for tree runs and
    must be None otherwise.  Both are checked (:func:`_checked`) before any
    file is opened.  Each block of steps (:func:`_step_blocks`) is written
    to ``steps.csv`` as it arrives and ``summary.json`` last, so no more
    than the forecaster and one block is held, never the whole log; its
    ``wall_clock_sec`` covers the writing.  With ``save_state`` a tree
    run's final tree is written as ``tree.json``; no other forecaster can
    save its state yet, and a run without it removes a ``tree.json`` that
    an earlier run left in ``outdir``.  The files are written under
    temporary names and renamed into place together at the end, so a run
    rejected midway leaves ``outdir`` as it found it.  Returns the summary.
    """
    started = time.perf_counter()
    ys, xs = _checked(config, ys, xs, save_state)
    forecaster = _forecaster(config)
    with _staged(Path(outdir), ("steps.csv", "summary.json", "tree.json")) as paths:
        last = _write_steps(paths[0], _step_blocks(config, forecaster, ys, xs))
        summary = _summary(config, forecaster, len(ys), last, started)
        _write_json(paths[1], summary, indent=2, sort_keys=True)
        if save_state:
            _write_json(paths[2], forecaster.to_dict())
    return summary


# -- log persistence -----------------------------------------------------

# Every step-log field is an integer, a float, ";"-joined floats or empty,
# so no field ever needs CSV quoting and a block of rows is one % format;
# the x and y cells come rendered.
_STEP_ROW = "%d,%s,%.17g,%s,%s,%s,%d,%d,%s,%s\n"


def _cells17(values: list) -> list:
    """The .17g text of each float of the nonempty ``values``, rendered by one ``%`` format."""
    return ("%.17g\n" * len(values) % tuple(values))[:-1].split("\n")


def _joined17(tuples: list) -> list:
    """The ``;``-joined .17g text of each tuple of floats.

    The tuples are rendered by one ``%`` format, joined from the format of
    each tuple's length with a line end between tuples, and the text is cut
    at the line ends.
    """
    if not any(tuples):  # no run but a mixture logs members
        return [""] * len(tuples)
    formats = {k: ";".join(["%.17g"] * k) for k in set(map(len, tuples))}
    text_format = "\n".join(map(formats.__getitem__, map(len, tuples)))
    return (text_format % tuple(itertools.chain.from_iterable(tuples))).split("\n")


def _leaf_cells(values: list) -> list:
    """A leaf column's cells: its integers, and no text where no leaf is logged (-1)."""
    return ["" if v < 0 else v for v in values]


def _write_steps(path, blocks) -> _Block | None:
    """Write ``steps.csv`` to ``path``, rendering each block as it arrives; returns the last."""
    block = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(STEP_COLUMNS) + "\n")
        for block in blocks:
            t, x, pred, y, leaf_h, leaf_i, n_nodes, height, experts, weights = block.columns
            fh.writelines(_rendered(_STEP_ROW, [
                t, x, pred, y, _leaf_cells(leaf_h), _leaf_cells(leaf_i), n_nodes, height,
                _joined17(experts), _joined17(weights)]))
    return block


def _write_json(path, data, **options) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, **options)
        fh.write("\n")


@contextlib.contextmanager
def _staged(outdir: Path, names):
    """Temporary paths in ``outdir`` for the files ``names``, renamed into place at the end.

    Each file is written as its name plus ``.partial`` and renamed to its
    name when the ``with`` block ends without an error; a name whose file
    was not written is then removed from ``outdir``, so no file of an
    earlier call stays beside the new ones.  On an error the partial files
    are removed, and so is every directory made here, so ``outdir`` is left
    as it was found: the files it held are untouched.
    """
    made = list(itertools.takewhile(lambda path: not path.exists(), (outdir, *outdir.parents)))
    outdir.mkdir(parents=True, exist_ok=True)
    partial = [outdir / f"{name}.partial" for name in names]
    try:
        yield partial
    except BaseException:
        for path in partial:
            path.unlink(missing_ok=True)
        for path in made:  # the deepest first
            path.rmdir()
        raise
    for path, name in zip(partial, names):
        if path.exists():
            path.replace(outdir / name)
        else:
            (outdir / name).unlink(missing_ok=True)


def _log_blocks(log: RunLog):
    """The :class:`_Block` s of a finished log, each column cut and converted a block at a time."""
    for k in range(0, len(log), _ROW_BLOCK):
        cut = slice(k, k + _ROW_BLOCK)
        yield _Block([log.t[cut].tolist(), log.x_text[cut], log.preds[cut].tolist(),
                      _cells17(log.ys[cut].tolist()), log.leaf_h[cut].tolist(),
                      log.leaf_i[cut].tolist(), log.n_nodes[cut].tolist(),
                      log.height[cut].tolist(), log.expert_preds[cut], log.expert_weights[cut]])


def write_run_log(log: RunLog, outdir) -> None:
    """Write ``log`` to ``outdir`` as ``steps.csv`` and ``summary.json``.

    The log is cut into blocks of ``_ROW_BLOCK`` steps and each is written
    by the block writer of :func:`run`, so no column is converted
    whole; the files are renamed into place together, as there.
    """
    with _staged(Path(outdir), ("steps.csv", "summary.json")) as (steps, summary):
        _write_steps(steps, _log_blocks(log))
        _write_json(summary, log.summary, indent=2, sort_keys=True)


def _header(fh):
    """The first row of ``fh``, or None for an empty file.

    ``csv.reader`` pulls only the lines of that one row, so ``fh`` is left
    at the first data row.
    """
    try:
        return next(csv.reader(fh), None)
    except csv.Error as exc:
        raise RejectedInputError(f"row 1: {exc}") from None


def _csv_rows(lines, row_no: int):
    """CSV rows of ``lines``, the first being row ``row_no``; a row the csv
    module cannot split is rejected by number."""
    try:
        for row in csv.reader(lines):
            yield row
            row_no += 1
    except csv.Error as exc:
        raise RejectedInputError(f"row {row_no}: {exc}") from None


def _column_blocks(fh, width: int):
    """Yield ``(row number of the first row, columns)`` per block of rows.

    ``fh`` is an open file past its header row (row 1); every row must
    have ``width`` >= 2 fields.  The rows are read ``_ROW_BLOCK`` lines at
    a time: all rows at once would hold every cell string next to the
    parsed columns.  A block is *plain* when it holds no ``"``, ``\\r`` or
    NUL, every line ends in ``\\n`` and holds exactly ``width - 1`` commas,
    and no line is longer than ``csv.field_size_limit()``.  ``csv.reader``
    splits such a block exactly as ``str.split(",")`` does (a blank line,
    which it reads as no fields, has no comma), so a plain block is cut
    into cells by one split, a row per line.  Every file this module
    writes is plain.  From the first block that is not plain on, the rest
    of the file goes through ``csv.reader`` and :func:`_row_blocks`, so
    quoted fields, CRLF line ends and damaged rows read exactly as the csv
    module reads them, with the same row numbers and messages.
    """
    row_no = 2
    while lines := list(itertools.islice(fh, _ROW_BLOCK)):
        text = "".join(lines)
        if not _is_plain(text, lines, width):
            yield from _row_blocks(itertools.chain(lines, fh), width, row_no)
            return
        # one copy of the block's text at a time, and none once it is cut
        n = len(lines)
        del lines
        text = text.replace("\n", ",")
        flat = text.split(",")
        del text
        flat.pop()  # the empty cell after the last line end
        yield row_no, [flat[j::width] for j in range(width)]
        row_no += n


def _is_plain(text: str, lines: list, width: int) -> bool:
    """Whether ``csv.reader`` would split ``lines`` (joined: ``text``) as
    ``str.split(",")`` does, into ``width`` fields a line."""
    limit = csv.field_size_limit()
    return not ('"' in text or "\r" in text or "\0" in text or text[-1] != "\n"
                or list(map(str.count, lines, itertools.repeat(","))).count(width - 1)
                != len(lines)
                or len(text) > limit and max(map(len, lines)) > limit)


def _row_blocks(lines, width: int, row_no: int):
    """:func:`_column_blocks` by ``csv.reader``: the rows of ``lines``, the
    first being row ``row_no``, transposed a block at a time.  A row without
    ``width`` fields raises, after the rows before it have been yielded."""
    rows = _csv_rows(lines, row_no)
    while block := list(itertools.islice(rows, _ROW_BLOCK)):
        short = next((k for k, row in enumerate(block) if len(row) != width), None)
        if short != 0:
            yield row_no, list(zip(*block[:short]))
        if short is not None:
            raise RejectedInputError(
                f"row {row_no + short}: expected {width} fields, got {len(block[short])}")
        row_no += len(block)


def _parsed(cells, parse, name: str, first_row: int) -> list:
    """``parse`` applied to a step-log column; a cell it cannot parse is rejected by row.

    ``first_row`` is the row number of the first cell; the header is row 1.
    """
    try:
        return list(map(parse, cells))
    except ValueError:
        for row_no, cell in enumerate(cells, start=first_row):
            try:
                parse(cell)
            except ValueError:
                raise RejectedInputError(f"row {row_no}: {name} {cell!r} does not parse") from None
        raise


def _array(cells, dtype, name: str, first_row: int = 2) -> np.ndarray:
    """The ``dtype`` array of a step-log column, each cell parsed by ``np.array``
    as ``int`` or ``float`` parses it.  A column it rejects is rescanned: the
    first cell that does not parse is named, else the first integer beyond 64 bits.
    """
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        values = _parsed(cells, int if dtype is np.int64 else float, name, first_row)
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise RejectedInputError(f"row {first_row + k}: {name} {cells[k]!r} "
                                 "does not fit in 64 bits") from None


def _floats(cell: str) -> tuple:
    # a tuple of a list is made at its size; one of an iterator is made at a
    # guessed size and resized, so once freed it fills the free list of
    # another size than it was taken from, and each log read grows them
    return tuple(list(map(float, cell.split(";")))) if cell else ()


# per step-log column: its dtype; the x text stays text (None), member cells tuples (_floats)
_STEP_PARSERS = (np.int64, None, float, float, np.int64, np.int64, np.int64, np.int64,
                 _floats, _floats)


def _parsed_block(name: str, dtype, cells, first_row: int):
    """A block of the step-log column ``name``, parsed as ``_STEP_PARSERS`` says.

    A block whose member cells are all empty, or whose leaf cells are (all
    but a mixture's, and all but a tree's), parses no cell.
    """
    if dtype is None:
        return cells
    if dtype is _floats:
        return _parsed(cells, _floats, name, first_row) if any(cells) else [()] * len(cells)
    if name in ("leaf_h", "leaf_i") and not all(cells):  # an empty cell: no leaf, -1
        if not any(cells):
            return np.full(len(cells), -1, np.int64)
        cells = [cell or "-1" for cell in cells]
    return _array(cells, dtype, name, first_row)


def read_run_log(outdir) -> RunLog:
    """Load a run log; a damaged ``steps.csv`` is rejected at its first fault.

    Only a log of ``LOG_FORMAT`` (``egtree-runlog-v2``: no ``loss``
    column, as :func:`verify_bounds` recomputes every loss from ``pred``
    and ``y``) is read: a summary of any other format, the ``loss``-logging
    ``egtree-runlog-v1`` included, is rejected by name before ``steps.csv``
    is opened.  The rows are parsed a block at a time, and the first block
    with a fault decides which is reported.  A row with the wrong number of
    fields ends its block, so the rows above it are checked first.  Within
    a block, each column in log order is searched for a cell that does not
    parse, then for an integer beyond 64 bits; then come a step number out
    of sequence, a step with more or fewer ``experts`` than ``weights``,
    and a leaf that is no node of a tree (any leaf, outside a tree run).  A
    step count that differs from the summary's ``T`` is found last.
    """
    outdir = Path(outdir)
    path = outdir / "summary.json"
    summary = load_json(path)
    if summary.get("format") != LOG_FORMAT:
        raise RejectedInputError(f"{path}: log format {summary.get('format')!r} is not "
                                 f"{LOG_FORMAT!r}, the only format this version reads")
    for key, kind in (("T", int), ("cumulative_loss", float), ("data_digest", str),
                      ("config", dict), ("final", dict)):
        json_field(summary, key, kind, str(path))
    config = RunConfig.from_dict(summary["config"])
    for key in ("n_nodes", "height") + (("n_active",) if config.forecaster == "meta" else ()):
        json_field(summary["final"], key, int, f"{path}: final")
    tree = config.forecaster == "tree"
    leaf = [STEP_COLUMNS.index("leaf_h"), STEP_COLUMNS.index("leaf_i")]
    members = [STEP_COLUMNS.index("experts"), STEP_COLUMNS.index("weights")]
    # each block of rows is parsed as it is read, so no more than one
    # block of cell strings is held next to the parsed columns
    blocks = [[] for _ in STEP_COLUMNS]
    with _open_csv(outdir / "steps.csv") as fh:
        header = _header(fh)
        if tuple(header or ()) != STEP_COLUMNS:
            raise RejectedInputError(f"unrecognized step log header: {header}")
        for row_no, columns in _column_blocks(fh, len(STEP_COLUMNS)):
            for name, dtype, cells, parsed in zip(STEP_COLUMNS, _STEP_PARSERS, columns, blocks):
                parsed.append(_parsed_block(name, dtype, cells, row_no))
            t = blocks[0][-1]
            bad = np.flatnonzero(t != np.arange(row_no - 1, row_no - 1 + len(t)))
            if bad.size:
                k = bad[0]
                raise RejectedInputError(
                    f"row {row_no + k}: t is {t[k]}, expected {row_no - 1 + k}")
            # equal lists (all () where no step logs members) hold equal counts
            experts, weights = (blocks[j][-1] for j in members)
            if experts != weights and list(map(len, experts)) != list(map(len, weights)):
                k = next(k for k, (e, w) in enumerate(zip(experts, weights)) if len(e) != len(w))
                raise RejectedInputError(f"row {row_no + k}: {len(experts[k])} experts but "
                                         f"{len(weights[k])} weights")
            # a tree run logs a node (h, i), h >= 0 and 1 <= i <= 2**h (numpy shifts
            # i - 1 >= 0 by 64 or more to 0); any other run no leaf, (-1, -1)
            h, i = (blocks[j][-1] for j in leaf)
            bad = np.flatnonzero((h < 0) | (i < 1) | ((i - 1) >> h != 0) if tree
                                 else (h != -1) | (i != -1))
            if bad.size:
                k = bad[0]
                cell_h, cell_i = (columns[j][k] for j in leaf)
                raise RejectedInputError(
                    f"row {row_no + k}: leaf_h {cell_h!r}, leaf_i {cell_i!r} "
                    + ("is no node of a tree" if tree else f"in a {config.forecaster} run, "
                       "which logs no leaf"))
    if not blocks[0]:
        raise RejectedInputError("step log is empty")
    t, x, pred, y, leaf_h, leaf_i, n_nodes, height, experts, weights = [
        list(itertools.chain(*parsed)) if dtype in (None, _floats) else np.concatenate(parsed)
        for parsed, dtype in zip(blocks, _STEP_PARSERS)]
    if len(t) != summary["T"]:
        raise RejectedInputError(f"step log has {len(t)} steps, its summary says T = "
                                 f"{summary['T']!r}")
    return RunLog(t, x, pred, y, leaf_h, leaf_i, n_nodes, height, experts, weights, summary)


# -- series / covariate CSV ------------------------------------------------


def write_series(path, ys) -> None:
    ys = np.asarray(ys, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("t,y\n")
        fh.writelines(_rendered("%d,%.17g\n", [range(1, len(ys) + 1), ys.tolist()]))


def _parse_unit(cell: str, row_no: int, what: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RejectedInputError(f"row {row_no}: {what} {cell!r} is not a number") from None
    if not 0.0 <= v <= 1.0:
        raise RejectedInputError(f"row {row_no}: {what} {v!r} outside [0, 1]")
    return v


def _read_unit_rows(fh, whats) -> list:
    """Parse the rows left in the open file ``fh``: ``len(whats)`` fields per row.

    Column ``j`` holds values in [0, 1] named ``whats[j]`` in messages, or
    is left unparsed where ``whats[j]`` is None; returns one float array per
    parsed column.  A block of rows is parsed and range-checked as one array;
    a block that fails is rescanned row by row with :func:`_parse_unit`,
    which raises the first fault in row-major order.
    """
    parsed = [j for j, what in enumerate(whats) if what is not None]
    blocks = []
    for row_no, columns in _column_blocks(fh, len(whats)):
        cells = list(itertools.chain.from_iterable(columns[j] for j in parsed))
        try:
            values = np.array(cells, dtype=float).reshape(len(parsed), -1)
        except ValueError:  # some cell is no number
            values = None
        if values is None or not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails both
            for k, row in enumerate(zip(*columns), start=row_no):
                for j in parsed:
                    _parse_unit(row[j], k, whats[j])
        blocks.append(values)
    return list(np.concatenate(blocks, axis=1) if blocks else np.empty((len(parsed), 0)))


def _is_series_header(header) -> bool:
    return header is not None and [c.strip() for c in header] == ["t", "y"]


def _is_covariate_header(header) -> bool:
    return header is not None and len(header) >= 2 and header[-1].strip() == "y"


def read_series(path) -> np.ndarray:
    """Read a ``t,y`` CSV; malformed rows raise with their row number."""
    with _open_csv(path) as fh:
        header = _header(fh)
        if not _is_series_header(header):
            raise RejectedInputError(f"expected header 't,y', got {header}")
        (ys,) = _read_unit_rows(fh, (None, "observation"))  # t is not parsed
    if not ys.size:
        raise RejectedInputError("series file has no observations")
    return ys


def write_covariates(path, xs, ys) -> None:
    """Write an ``x1,..,xd,y`` CSV; a one-dimensional ``xs`` is one covariate."""
    ys = np.asarray(ys, dtype=float)
    columns = _covariate_columns(xs, ys)
    d = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(d)] + ["y"]) + "\n")
        fh.writelines(_rendered("%.17g," * d + "%.17g\n", columns + [ys.tolist()]))


def read_covariates(path):
    """Read an ``x1,..,xd,y`` CSV into (xs, ys) arrays."""
    with _open_csv(path) as fh:
        header = _header(fh)
        if not _is_covariate_header(header):
            raise RejectedInputError(f"expected header 'x1,..,xd,y', got {header}")
        d = len(header) - 1
        *xs, ys = _read_unit_rows(fh, ("covariate",) * d + ("observation",))
    if not ys.size:
        raise RejectedInputError("covariate file has no observations")
    return np.column_stack(xs), ys


def read_input(path) -> tuple:
    """Read a series (header ``t,y``) as ``(None, ys)`` or a covariate file as ``(xs, ys)``."""
    with _open_csv(path) as fh:
        header = _header(fh)
    if _is_series_header(header):
        return None, read_series(path)
    return read_covariates(path)


def input_digest(path, expected: str) -> str:
    """The :func:`data_digest` of the input file ``path``, as :func:`read_input` reads it.

    ``expected`` is the digest of a run's data, as its summary records it.
    A file that this module writes holds the digest's canonical text as it
    stands, with ``\\n`` where the text has ``;``: a covariate file in its
    body, a series in the part of each line after its first comma.  A file
    whose text hashes to ``expected`` that way (:func:`_plain_digest`) is
    the canonical rendering of the run's data, which :func:`read_input`
    would read back exactly and :func:`data_digest` render to the same
    text; it is not parsed.  Any other file is read and digested in full,
    so it is rejected, or gets its digest, exactly as there.
    """
    if _plain_digest(path) == expected:
        return expected
    xs, ys = read_input(path)
    return data_digest(ys, xs)


def _plain_digest(path) -> str | None:
    """sha256 of the canonical text an input file holds as it stands, or None.

    Only a file that decodes, has a header :func:`read_input` accepts,
    holds no ``;`` and would be cut wholly with ``str.split`` by
    :func:`_column_blocks` is hashed: with no ``;`` in it, its lines are
    the rows of the text one for one.  It is hashed a block of lines at a
    time, never as a whole.
    """
    h = hashlib.sha256()
    try:
        with open(path, newline="") as fh:
            header = _header(fh)
            series = _is_series_header(header)
            if not (series or _is_covariate_header(header)):
                return None
            while lines := list(itertools.islice(fh, _ROW_BLOCK)):
                text = "".join(lines)
                if ";" in text or not _is_plain(text, lines, len(header)):
                    return None
                if series:  # the y cell of every line: the t cells are not data
                    text = ";".join(text.replace("\n", ",").split(",")[1::2]) + ";"
                else:
                    text = text.replace("\n", ";")
                h.update(text.encode())
    except (UnicodeDecodeError, RejectedInputError):  # read_input says what is wrong
        return None
    return h.hexdigest()


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


def _check_loss_args(loss: LossSpec, preds: np.ndarray, ys: np.ndarray) -> None:
    """Reject the first step whose prediction or outcome lies outside [0, 1], NaN included.

    ``loss.value_array`` checks nothing; the message is the scalar ``loss.value``'s.
    """
    bad = np.flatnonzero(~((preds >= 0.0) & (preds <= 1.0) & (ys >= 0.0) & (ys <= 1.0)))
    if bad.size:
        k = bad[0]
        loss.value(preds[k].item(), ys[k].item())  # raises the scalar check's message


def _pool_sizes(members: list) -> np.ndarray:
    """The number of member values (predictions or weights) logged at each step."""
    return np.fromiter(map(len, members), np.int64, len(members))


def expert_regret(log: RunLog, d: int, sizes=None, losses=None) -> float:
    """Cumulative loss gap of the mixture versus its order-d member.

    ``sizes`` are the log's pool sizes (:func:`_pool_sizes` of its member
    predictions) and ``losses`` the mixture's loss at every step
    (``value_array`` of the logged predictions and outcomes), found here
    when not given: a caller that asks for several orders finds them once.
    """
    loss = RunConfig.from_dict(log.summary["config"]).loss
    if sizes is None:
        sizes = _pool_sizes(log.expert_preds)
    if losses is None:
        _check_loss_args(loss, log.preds, log.ys)
        losses = loss.value_array(log.preds, log.ys)
    steps = np.flatnonzero(sizes >= d)
    if not steps.size:
        raise RejectedInputError(f"order-{d} member was never active in this run")
    member = np.fromiter(map(operator.itemgetter(d - 1),
                             map(log.expert_preds.__getitem__, steps.tolist())),
                         float, steps.size)
    ys = log.ys[steps]
    _check_loss_args(loss, member, ys)
    total = 0.0
    for diff in (losses[steps] - loss.value_array(member, ys)).tolist():
        total += diff  # left to right: sum() rounds differently from 3.12
    return total


def verify_bounds(log: RunLog, lipschitz_L: float | None = None) -> list[BoundCheck]:
    """Check every guarantee the logged run is supposed to satisfy.

    The log holds no loss: every step's loss is recomputed once from its
    logged prediction and outcome (``LossSpec.value_array``, after a check
    that both lie in [0, 1]), and ``cumulative-loss-resummation`` adds
    them left to right, as the run did, against the summary's
    ``cumulative_loss``, so a prediction or outcome that differs from the
    run's fails it.  The regret checks take the same losses.
    ``lipschitz_L`` adds the regret check against the best L-Lipschitz
    predictor: for tree runs with d = 1 and meta runs with T >= 2; asked
    of any other run, it is rejected, not skipped.  A tree run's
    ``per-leaf-decomposition`` and ``visit-concentration`` group the steps
    by logged leaf ``(leaf_h, leaf_i)`` with one sort
    (:func:`oracles.best_constants`) and sum the leaves' best-constant
    losses and square-rooted visit counts in the order of first visits.
    """
    if len(log) == 0:
        raise RejectedInputError("cannot verify an empty log")
    config = RunConfig.from_dict(log.summary["config"])
    loss, M, T = config.loss, config.loss.M, len(log)
    checks: list[BoundCheck] = []

    _check_loss_args(loss, log.preds, log.ys)
    losses = loss.value_array(log.preds, log.ys)
    resummed = 0.0
    for v in losses.tolist():
        resummed += v
    recorded = log.summary["cumulative_loss"]
    checks.append(BoundCheck("cumulative-loss-resummation", recorded, resummed,
                             resummed == recorded, "exact equality required"))

    mono_n = bool(np.all(np.diff(log.n_nodes) >= 0))
    mono_h = bool(np.all(np.diff(log.height) >= 0))
    checks.append(BoundCheck("tree-size-monotone", 1.0, float(mono_n and mono_h),
                             mono_n and mono_h, "N_t and H_t never shrink"))

    if config.forecaster == "eg":
        regret = resummed - best_constant(log.ys, loss).value
        bound = eg.regret_bound(M, T)
        checks.append(BoundCheck("constant-regret", bound, regret, regret < bound))

    if config.forecaster == "tree":
        n_ok = bool(np.all(log.n_nodes <= node_count_bound(config.d, log.t)))
        h_ok = bool(np.all(log.height <= height_bound(config.d, log.t)))
        checks.append(BoundCheck("node-count-growth", 1.0, float(n_ok), n_ok,
                                 "N_t <= 1 + 8 (d t)^(d/(d+2)) at every step"))
        checks.append(BoundCheck("height-growth", 1.0, float(h_ok), h_ok,
                                 "H_t <= 1 + (d/2) log2(4 d t) at every step"))
        within = bool(np.all(log.leaf_h <= log.height))
        checks.append(BoundCheck("leaf-within-height", 1.0, float(within), within,
                                 "h_t <= H_t: each step's leaf lies in its tree"))

        # every visited leaf's best constant, summed in the order of first visits
        fits = best_constants(log.ys, (log.leaf_h, log.leaf_i), loss)
        visits = np.argsort(fits.first)
        node_best = sum(fits.value[visits].tolist())
        sqrt_sum = sum(map(math.sqrt, fits.count[visits].tolist()))
        decomposed = resummed - node_best
        checks.append(BoundCheck("per-leaf-decomposition", 3.0 * M * sqrt_sum,
                                 decomposed, decomposed <= 3.0 * M * sqrt_sum,
                                 "vs the best constant of every visited node"))
        cap = math.sqrt(float(log.n_nodes[-1]) * T)
        checks.append(BoundCheck("visit-concentration", cap, sqrt_sum,
                                 sqrt_sum <= cap, "sum sqrt(T_node) <= sqrt(N_T T)"))

    if config.forecaster == "meta":
        try:
            deviations = [abs(math.fsum(w) - 1.0) for w in log.expert_weights if w]
        except ValueError:  # fsum of inf and -inf: the weights have no sum
            deviations = [math.nan]
        # np.max, not max(): a NaN weight must make the check fail
        worst = np.max(deviations or [0.0])
        checks.append(BoundCheck("weight-simplex", 1e-12, worst, worst <= 1e-12,
                                 "mixture weights sum to 1 at every step"))
        sizes = _pool_sizes(log.expert_preds)
        entrants = np.diff(sizes)
        steps_ok = bool(np.all((entrants >= 0) & (entrants <= 1)))
        checks.append(BoundCheck("one-entrant-per-step", 1.0, float(steps_ok), steps_ok))
        n_active = int(log.summary["final"]["n_active"])
        start_1 = entry_step(config.schedule, 1)
        for d in range(1, int(sizes.max()) + 1):
            regret = expert_regret(log, d, sizes, losses)
            if n_active >= 2:
                bound = mixture_regret_bound(T, n_active)
                note = ""
            else:
                bound = mixture_regret_bound_raw(T, n_active, start_1)
                note = "single-member pool: pre-simplification form"
            checks.append(BoundCheck(f"mixture-regret(d={d})", bound, regret,
                                     regret <= bound, note))

    # the Lipschitz comparator comes last, after the checks of the run's kind
    if lipschitz_L is not None:
        L = lipschitz_L
        if config.forecaster == "tree" and config.d == 1:
            xs, ys = _array(log.x_text, float, "x"), log.ys
            name, bound = f"lipschitz-regret(L={L})", lipschitz_regret_bound(M, L, 1, T)
        elif config.forecaster == "meta" and T >= 2:
            xs, ys = log.ys[:-1], log.ys[1:]
            name = f"combined-regret(d=1,L={L})"
            bound = combined_regret_bound(M, L, 1, T, start_1, n_active)
        else:
            raise RejectedInputError(f"no Lipschitz-comparator check exists for this "
                                     f"{config.forecaster} run (only tree d = 1, meta T >= 2)")
        regret = resummed - best_lipschitz_1d(xs, ys, L, loss).value
        checks.append(BoundCheck(name, bound, regret, regret <= bound))
    return checks


# -- aggregation -----------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` as :mod:`csv` writes it among other fields, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # drop the empty field's "," and the line end


_WEIGHTS_HEADER = "run,t,d,weight\n"


def _report_run(path: Path, growth, weights) -> dict:
    """Read the run log in ``path`` and write its per-step rows to the open tables
    ``growth`` and ``weights`` a block at a time; returns its ``runs.csv`` row.
    The log is let go on return."""
    log = read_run_log(path)
    s = log.summary
    T = s["T"]
    name = path.name or path.resolve().name  # "." names the directory it stands for
    row = {
        "run": name,
        "forecaster": RunConfig.from_dict(s["config"]).forecaster,
        "T": T,
        "seed": s.get("seed"),
        "cumulative_loss": s["cumulative_loss"],
        "avg_loss": s["cumulative_loss"] / T,
        "n_nodes": s["final"]["n_nodes"],
        "height": s["final"]["height"],
    }
    run_field = _csv_field(name).replace("%", "%%")
    t_col = log.t.tolist()
    growth.writelines(_rendered(run_field + ",%d,%d,%d\n",
                                [t_col, log.n_nodes.tolist(), log.height.tolist()]))
    # one row per member weight: t repeated by the pool size, d = 1..size;
    # repeating t_col's own ints, not new ones, keeps a column one pointer a row
    sizes = _pool_sizes(log.expert_weights)
    if sizes.any():
        chained = itertools.chain.from_iterable
        weights.writelines(_rendered(run_field + ",%d,%d,%.17g\n", [
            list(chained(map(itertools.repeat, t_col, sizes.tolist()))),
            list(chained(map(range, itertools.repeat(1), (sizes + 1).tolist()))),
            list(chained(log.expert_weights))]))
    return row


def report(run_dirs, outdir) -> dict:
    """Aggregate finished runs into summary tables and plot-ready CSVs.

    The runs are read one at a time, and each run's per-step rows are
    written to ``node_growth.csv`` and ``weights.csv`` a block at a time as
    it is read, so no more than one run's log is held.  Where no run logs
    member weights there is no ``weights.csv``, and one that an earlier
    report left in ``outdir`` is removed.  The tables are written under
    temporary names and renamed into place together at the end
    (:func:`_staged`), so a run rejected midway leaves ``outdir`` as it
    found it.
    """
    run_dirs = [Path(p) for p in run_dirs]
    if not run_dirs:
        raise RejectedInputError("report needs at least one run directory")
    names = ("runs.csv", "avg_loss_vs_T.csv", "node_growth.csv", "weights.csv")
    with _staged(Path(outdir), names) as (runs_path, groups_path, growth_path, weights_path):
        with open(growth_path, "w", newline="") as growth, \
                open(weights_path, "w", newline="") as weights:
            growth.write("run,t,n_nodes,height\n")
            weights.write(_WEIGHTS_HEADER)
            rows = [_report_run(path, growth, weights) for path in run_dirs]
        if weights_path.stat().st_size == len(_WEIGHTS_HEADER):  # no run logs member weights
            weights_path.unlink()

        with open(runs_path, "w", newline="") as fh:
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
        with open(groups_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("forecaster", "T", "runs", "mean_avg_loss",
                             "min_avg_loss", "max_avg_loss"))
            for (fc, T), vals in sorted(by_group.items()):
                writer.writerow((fc, T, len(vals), fmt17(sum(vals) / len(vals)),
                                 fmt17(min(vals)), fmt17(max(vals))))
    return {"runs": rows, "groups": {f"{fc}/T={T}": len(v) for (fc, T), v in by_group.items()}}
