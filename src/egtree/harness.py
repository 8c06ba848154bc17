"""Experiment driver: run forecasters over series, log them, and report on the logs.

A run follows the strict predict-then-observe protocol step by step and
records everything needed to re-verify the guarantees offline: the
prediction and outcome of every step (the verifier recomputes its loss
from the two), a tree run's covariate rows, active leaf and tree size,
and a mixture's member predictions.  Logs are a CSV of steps plus a JSON
summary, in the format ``LOG_FORMAT`` (``egtree-runlog-v3``: the v1 step
log less its ``loss`` column, and the v2 log less its ``weights``).  A
mixture's weights follow from its member predictions and outcomes by a
closed form (:func:`~egtree.verify.mixture_weights`), so the log leaves
them out and the verifier and the report derive them; floats are
printed with 17 significant digits so they round-trip exactly and two
identical runs produce byte-identical step files.

:func:`run` (``egtree run``) checks its inputs as whole arrays before any
file is opened, then drives every forecaster through one loop
(:func:`_step_blocks`) that makes the step log a block of ``_ROW_BLOCK``
steps at a time.  A block is the columns of a :class:`RunLog` over its
steps, as arrays; :func:`write_run_log` cuts a log into the same blocks,
and both readers yield them.  Each block is written as it arrives and the
summary last, so a run holds the forecaster and one block, never the
whole log; the files are written under temporary names and renamed into
place at the end, so a rejected run leaves its directory as it found it.

``steps.csv`` is the log.  Its writer (:func:`_write_steps`) renders a
block's data rows once (:func:`_data_rows`, which :func:`data_digest`
also renders with): their text gives the ``x`` and ``y`` cells and feeds
the data digest that the writer returns for the summary.  In the same
pass it writes ``steps.cache``: each block's columns as
:func:`read_run_log` parses them, stamped with the sha256 of
``steps.csv``.  The cache is derived, optional and pinned by no digest:
:func:`read_run_log` loads a log from it where the stamps match and
parses ``steps.csv`` otherwise, so deleting it changes only speed.
Every writer renders a block of ``_ROW_BLOCK`` rows with one ``%`` format
(:func:`_rendered`).  The readers take a file a block of lines at a time
and cut a block that ``csv.reader`` would split plainly with one
``str.split``; from the first block that is not plain on, ``csv.reader``
splits the rest (:func:`_column_blocks`).  The numbers of a block are
parsed by ``np.array(cells, dtype)``, a column at a time (``x`` and
``experts`` as one array of their ``;``-joined values), and a block
that fails is rescanned row by row for its first bad row, field and
value.  The step-log reader reads ``LOG_FORMAT`` alone, rejects a leaf
that is no node of a tree, a member outside a mixture run and an ``x``
cell that is not the run's covariate row (``d`` values in a tree run,
none elsewhere), and checks the fields of ``summary.json`` that the
verifier and the report read.  A file that does not decode is rejected,
naming it.  :func:`input_digest` checks an input file that this module
wrote against a run by hashing it as it stands.

The input writers (:func:`write_series`, :func:`write_covariates`, and so
``egtree simulate``) also write ``<csv>.cache`` beside the CSV
(:func:`_write_input`): the values as little-endian float64, stamped with
the sha256 of the CSV bytes just written and of the values' own bytes.
Like ``steps.cache`` it is derived and optional: the input readers load
the values from it only where both stamps match and every value lies in
[0, 1] (:func:`_cached_input`), and parse the CSV otherwise, so every
rejection comes as the text gives it.  The stamps guard against a cache
that is out of date or damaged, not against one forged to match.  Where
the cache was used, ``egtree run`` (:func:`read_input_text`, then
:func:`run`) cuts the step log's ``x`` and ``y`` cells and the data-digest
text from the very CSV bytes that matched the stamp, a block of rows at a
time (:func:`_line_cells`): the writer spelled each value with the
``%.17g`` of :func:`_data_rows`, so these are the bytes it would render.

A :class:`RunLog` holds every column as a numpy array, a tree run's
covariates as ``x`` (float64, shape (T, d)), and its summary's
:class:`RunConfig`.  :mod:`egtree.verify` checks a run's guarantees
against it; its :func:`verify_bounds` and :func:`expert_regret` are
importable here.  :func:`report` reads its runs one at a time and writes
each run's per-step rows as it goes.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import locale
import math
import os
import struct
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import eg
from .autoregressive import POWERS_OF_TWO, MetaForecaster, entry_step
from .errors import RejectedInputError, _array, _parsed, json_field, json_keys, positive_int
from .losses import LossSpec, left_sum
from .tree import PartitionTree
from .verify import BoundCheck, expert_regret, mixture_weights, verify_bounds  # noqa: F401

LOG_FORMAT = "egtree-runlog-v3"
STEP_COLUMNS = ("t", "x", "pred", "y", "leaf_h", "leaf_i", "n_nodes", "height", "experts")


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


def _covariate_rows(xs, ys) -> np.ndarray:
    """``xs`` as float rows, one per observation of ``ys``; a 1-D ``xs`` is one column."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if len(xs) != len(ys):
        raise RejectedInputError(f"{len(xs)} covariate rows for {len(ys)} observations")
    return xs


def _data_rows(x: np.ndarray, y: np.ndarray, digest) -> str:
    """The data rows of a block of steps: the text ``x1;..;xd,y`` (or ``y``,
    where ``x`` has no column) of each, as ``steps.csv`` spells its cells.

    The text respelled ``x1,..,xd,y;``, its canonical form, is fed to the
    sha256 ``digest``, so :func:`data_digest` and the step-log writer hash
    the same text.
    """
    row = ";".join(["%.17g"] * x.shape[1]) + ",%.17g\n" if x.shape[1] else "%.17g\n"
    text = row * len(y) % tuple(np.column_stack([x, y]).ravel().tolist())
    digest.update(text.replace(";", ",").replace("\n", ";").encode())
    return text


def data_digest(ys, xs=None) -> str:
    """Canonical digest of a dataset, independent of CSV cosmetics.

    The digest covers the text ``x1,..,xd,y;`` of every row, each value
    rendered by :func:`fmt17` (:func:`_data_rows`); a one-dimensional
    ``xs`` is one covariate.
    """
    ys = np.asarray(ys, dtype=float)
    xs = np.empty((len(ys), 0)) if xs is None else _covariate_rows(xs, ys)
    h = hashlib.sha256()
    for k in range(0, len(ys), _ROW_BLOCK):
        _data_rows(xs[k:k + _ROW_BLOCK], ys[k:k + _ROW_BLOCK], h)
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
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise RejectedInputError(f"{path} is not valid JSON: {exc}") from None
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
    """Per-step records plus the run summary, and the :class:`RunConfig` that the
    summary's ``config`` holds, parsed when the log is built."""

    t: np.ndarray
    x: np.ndarray           # float64 (T, d): a tree run's covariate rows; (T, 0) elsewhere
    preds: np.ndarray
    ys: np.ndarray
    leaf_h: np.ndarray      # -1 where no tree is involved
    leaf_i: np.ndarray
    n_nodes: np.ndarray
    height: np.ndarray
    pool: np.ndarray        # int64: the members logged at each step, 0 where not aggregated
    expert_preds: np.ndarray  # float64: pool.sum() values, step by step, members in order
    summary: dict
    config: RunConfig = field(init=False)

    def __post_init__(self):
        self.config = RunConfig.from_dict(json_field(self.summary, "config", dict, "summary"))

    def __len__(self) -> int:
        return len(self.t)


def _x_width(config: RunConfig) -> int:
    """The values of each ``x`` cell of a run's step log: its ``d`` for a tree run, else 0."""
    return config.d if config.forecaster == "tree" else 0


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

    ``columns`` are the columns of a :class:`RunLog` over those steps, as
    arrays in its field order: ``t``, ``x``, ``preds``, ``ys``,
    ``leaf_h``, ``leaf_i``, ``n_nodes``, ``height``, ``pool`` and
    ``expert_preds``.  The readers yield the same columns as plain lists
    (:func:`_csv_blocks`, :func:`_cache_blocks`).
    A block of a running run also carries the cumulative loss of every
    step up to its last; a block cut from a finished :class:`RunLog` none.
    A block of a run over an input file whose cache vouched for it carries
    the file's rows of its steps as ``lines`` (see :func:`_line_cells`).
    """

    columns: list
    cumulative_loss: float | None = None
    lines: str | None = None


def _step_blocks(config: RunConfig, forecaster, ys: np.ndarray, xs, text: bytes | None):
    """Drive ``forecaster`` over the checked ``ys`` (and ``xs``), a :class:`_Block` at a time.

    Each step is predicted with its covariate row (``None`` without
    covariates), then ``update(y)``, then ``trace()`` gives its log fields,
    so an outcome is never shown before its prediction.  A tree predicts
    through ``PartitionTree._predict``, which takes the checked rows as
    tuples of floats and does not check them again.  After each block's
    loop every column is built once, as an array: ``x`` and ``ys`` are the
    slices of the checked inputs themselves, the traced fields are cut
    into their columns, and the members of each step are flattened.
    ``LossSpec.value_array`` (the floats of ``LossSpec.value``) computes
    the block's losses, which are added to the running cumulative loss
    left to right; the log holds no loss.  A leaf index beyond the 64 bits
    of the log's ``leaf_i`` is rejected in the block that reaches it.
    Where ``text`` holds the bytes of the input file (see :func:`run`),
    each block carries its steps' rows of it, decoded a block at a time.
    """
    predict = forecaster.predict if xs is None else forecaster._predict
    if text is not None:
        rows = io.BytesIO(text)  # shares the bytes: none is copied
        rows.readline()  # the header
        encoding = locale.getpreferredencoding(False)  # what open() reads text with
    update, traced = forecaster.update, forecaster.trace
    width = len(forecaster.TRACED)
    cumulative = 0.0
    for start in range(0, len(ys), _ROW_BLOCK):
        y = ys[start:start + _ROW_BLOCK]
        n = len(y)
        if xs is None:
            x, points = np.empty((n, 0)), itertools.repeat(None, n)
        else:  # the rows checked before the run, as tuples of Python floats
            x = xs[start:start + n]
            points = zip(*x.T.tolist())
        # the fields of every step in one flat list: no container per step
        # outlives its step, so the loop adds no work for the garbage collector
        preds, fields = [], []
        for point, outcome in zip(points, y.tolist()):
            preds.append(predict(point))
            update(outcome)
            fields.extend(traced())

        columns = {name: fields[j::width] for j, name in enumerate(forecaster.TRACED)}
        del fields  # the columns hold every field now
        leaf_i = columns.get("leaf_i", [-1])
        if max(leaf_i) >= 2**63:  # only a leaf index passes 2**63, at depth 64 or more
            k = next(k for k, i in enumerate(leaf_i) if i >= 2**63)
            raise RejectedInputError(
                f"step {start + k + 1}: the leaf at depth {columns['leaf_h'][k]} has index "
                f"{leaf_i[k]}, beyond the 64 bits of the step log's leaf_i")
        # a column that the forecaster does not trace holds its default
        ints = [np.fromiter(columns[name], np.int64, n) if name in columns
                else np.full(n, default, np.int64) for name, default in
                (("leaf_h", -1), ("leaf_i", -1), ("n_nodes", 1), ("height", 0))]
        pool = (np.fromiter(map(len, columns["experts"]), np.int64, n) if "experts" in columns
                else np.zeros(n, np.int64))
        # a tuple of members per step, flattened once
        members = np.fromiter(itertools.chain.from_iterable(columns.get("experts", ())), float)
        pred = np.array(preds)
        losses = config.loss.value_array(pred, y).tolist()
        cumulative = left_sum(losses, cumulative)  # as verify_bounds resums them
        del columns, preds, losses  # the arrays hold them: no list is kept while it is written
        lines = None if text is None else b"".join(itertools.islice(rows, n)).decode(encoding)
        yield _Block([np.arange(start + 1, start + n + 1), x, pred, y, *ints, pool, members],
                     cumulative, lines)


def _summary(config: RunConfig, forecaster, T: int, last: _Block, digest: str,
             started: float) -> dict:
    """The summary of a run whose last block is ``last`` and whose data has the
    :func:`data_digest` ``digest``; its wall clock ends now."""
    n_nodes, height = (int(column[-1]) for column in last.columns[6:8])
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
        "data_digest": digest,
        "final": final,
        "wall_clock_sec": time.perf_counter() - started,
    }


def run(config: RunConfig, ys, xs, outdir, save_state: bool = False,
        text: bytes | None = None) -> dict:
    """Drive the configured forecaster over a series, writing its log to ``outdir``.

    ``xs`` (shape (T, d), values in [0,1]) is required for tree runs and
    must be None otherwise.  Both are checked (:func:`_checked`) before any
    file is opened.  Each block of steps (:func:`_step_blocks`) is written
    to ``steps.csv`` and its derived ``steps.cache`` as it arrives by
    :func:`_write_steps`, which returns the data digest; ``summary.json``
    comes last, so no more than the forecaster and one block is held; its
    ``wall_clock_sec`` covers the writing.  With ``save_state`` a tree
    run's final tree is written as ``tree.json``; no other forecaster can
    save its state yet, and a run without it removes a ``tree.json`` that
    an earlier run left in ``outdir``.  The files are written under
    temporary names and renamed into place together at the end,
    ``steps.cache`` last, so a run rejected midway leaves ``outdir`` as it
    found it, and a failed rename leaves a ``steps.csv`` that reads.
    ``text``, where given, is the bytes of the input file that
    :func:`read_input_text` returned with ``xs`` and ``ys``, its cache
    having vouched for them: the ``x`` and ``y`` cells and the data digest
    are then cut from its rows (:func:`_line_cells`) instead of rendered.
    Returns the summary.
    """
    started = time.perf_counter()
    ys, xs = _checked(config, ys, xs, save_state)
    forecaster = _forecaster(config)
    blocks = _step_blocks(config, forecaster, ys, xs, text)
    with _staged(Path(outdir), ("steps.csv", "summary.json", "tree.json", "steps.cache")) \
            as paths:
        last, digest = _write_steps(paths[0], paths[3], blocks)
        summary = _summary(config, forecaster, len(ys), last, digest, started)
        _write_json(paths[1], summary, indent=2, sort_keys=True)
        if save_state:
            _write_json(paths[2], forecaster.to_dict())
    return summary


# -- log persistence -----------------------------------------------------

# Every step-log field is an integer, a float, ";"-joined floats or empty,
# so no field ever needs CSV quoting and a block of rows is one % format;
# the x and y cells come rendered.
_STEP_ROW = "%d,%s,%.17g,%s,%s,%s,%d,%d,%s\n"


def _joined17(pool: list, values: list) -> list:
    """The member cells of a block: at its step ``k``, the ``;``-joined .17g
    text of the next ``pool[k]`` of the flat ``values``.

    The values are rendered by one ``%`` format, joined from the format of
    each step's pool size with a line end between steps, and the text is
    cut at the line ends.
    """
    if not values:  # no run but a mixture logs members
        return [""] * len(pool)
    formats = {k: ";".join(["%.17g"] * k) for k in set(pool)}
    text_format = "\n".join(map(formats.__getitem__, pool))
    return (text_format % tuple(values)).split("\n")


def _step_rows(block: _Block, digest) -> str:
    """The ``steps.csv`` rows of a :class:`_Block`: the ``x`` and ``y`` cells are
    cut from its input file's ``lines`` (:func:`_line_cells`) where it has
    them, else from its data rows (:func:`_data_rows`); either feeds ``digest``."""
    t, x, pred, y, leaf_h, leaf_i, n_nodes, height, pool, experts = block.columns
    if block.lines is not None:
        x_cells, y_cells = _line_cells(block.lines, x.shape[1], digest)
    else:  # the cells alternate x and y once the line ends are commas
        cells = _data_rows(x, y, digest).replace("\n", ",").split(",")
        cells.pop()  # the empty cell after the last line end
        x_cells, y_cells = (cells[0::2], cells[1::2]) if x.shape[1] else ([""] * len(t), cells)
    return "".join(_rendered(_STEP_ROW, [
        t.tolist(), x_cells, pred.tolist(), y_cells, _leaf_cells(leaf_h.tolist()),
        _leaf_cells(leaf_i.tolist()), n_nodes.tolist(), height.tolist(),
        _joined17(pool.tolist(), experts.tolist())]))


def _line_cells(lines: str, d: int, digest) -> tuple:
    """The ``x`` and ``y`` cells of a block of steps, cut from ``lines``: their
    rows of an input file that :func:`_write_input` wrote, ``t,y`` for a
    series (``d`` = 0) and ``x1,..,xd,y`` otherwise.

    Its writer spelled each value with the ``%.17g`` of :func:`_data_rows`,
    so these are the very cells that :func:`_data_rows` would render; the
    file's digest text (:func:`_digest_text`), the text that
    :func:`_data_rows` feeds it, is fed to ``digest``.
    """
    digest.update(_digest_text(lines, not d))
    width = d + 1 if d else 2
    cells = lines.replace("\n", ",").split(",")
    cells.pop()  # the empty cell after the last line end
    y_cells = cells[width - 1::width]
    if d < 2:
        return (cells[0::2] if d else [""] * len(y_cells)), y_cells
    return list(map(";".join, zip(*(cells[j::width] for j in range(d))))), y_cells


def _leaf_cells(values: list) -> list:
    """A leaf column's cells: its integers, and no text where no leaf is logged (-1)."""
    if min(values) >= 0:  # a tree's leaves
        return values
    return ["" if v < 0 else v for v in values]


def _write_steps(path, cache_path, blocks) -> tuple:
    """Write ``steps.csv`` to ``path`` and its cache to ``cache_path``, a block
    at a time as the :class:`_Block` s arrive; returns the last block and the
    :func:`data_digest` of the blocks' ``x`` and ``ys``.

    Each block's rows are rendered once (:func:`_step_rows`), encoded once
    with the codec that ``open()`` reads text files with, and those bytes
    are hashed and written.  The cache (``steps.cache``) holds the same
    blocks as :func:`read_run_log` parses them, so it can load a log
    without parsing its text.  All of its numbers are little-endian.  A
    block of ``n`` steps is:

    - three int64: ``n``, the number ``m`` of expert values in the block,
      and the number ``w`` of values in each ``x`` cell (the ``d`` of a
      tree run, 0 otherwise);
    - ``pred`` and ``y`` as float64, ``n`` each;
    - ``leaf_h``, ``leaf_i`` (-1 where no leaf is logged), ``n_nodes``,
      ``height`` and ``pool`` (the members at each step) as int64, ``n``
      each;
    - the expert values as float64, ``m``, step by step;
    - the ``x`` values as float64, ``n * w``, step by step.

    A float is stored as its cell reads back: every NaN as the one NaN
    that ``float("nan")`` gives.  The blocks are followed by a trailer
    (``_TRAILER``): the tag ``_CACHE_TAG``, the sha256 of the bytes of
    ``steps.csv`` and the sha256 of the blocks.  ``blocks`` yields at
    least one block.
    """
    encoding = locale.getpreferredencoding(False)  # what open() writes text with
    steps_sha, cache_sha, digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with open(path, "wb") as fh, open(cache_path, "wb") as cache:
        data = (",".join(STEP_COLUMNS) + "\n").encode(encoding)
        steps_sha.update(data)
        fh.write(data)
        for block in blocks:
            data = _step_rows(block, digest).encode(encoding)
            steps_sha.update(data)
            fh.write(data)
            payload = _cache_block(block.columns)
            cache_sha.update(payload)
            cache.write(payload)
        cache.write(_TRAILER.pack(_CACHE_TAG, steps_sha.digest(), cache_sha.digest()))
    return block, digest.hexdigest()


# steps.cache: a block's three counts, and its trailer (see _write_steps)
_CACHE_TAG = b"egtree-steps-cache-v4\n"
_CACHE_HEAD = struct.Struct("<3q")
_TRAILER = struct.Struct(f"<{len(_CACHE_TAG)}s32s32s")


def _read_back(values) -> np.ndarray:
    """Floats as their .17g cells read back: little-endian float64, every NaN ``float("nan")``."""
    values = np.asarray(values, "<f8")
    nan = np.isnan(values)
    return np.asarray(np.where(nan, np.nan, values), "<f8") if nan.any() else values


def _cache_block(columns: list) -> bytes:
    """The bytes in ``steps.cache`` of a block's ``columns`` (see :func:`_write_steps`)."""
    t, x, pred, y, leaf_h, leaf_i, n_nodes, height, pool, experts = columns
    ints = (np.maximum(leaf_h, -1), np.maximum(leaf_i, -1), n_nodes, height, pool)
    return b"".join([_CACHE_HEAD.pack(len(t), len(experts), x.shape[1]),
                     _read_back(pred).tobytes(), _read_back(y).tobytes(),
                     *(np.asarray(a, "<i8").tobytes() for a in ints),
                     *(_read_back(a).tobytes() for a in (experts, x))])


def _write_json(path, data, **options) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, **options)
        fh.write("\n")


@contextlib.contextmanager
def _staged(outdir: Path, names):
    """Temporary paths in ``outdir`` for the files ``names``, renamed into place at the end.

    A name that is a directory in ``outdir`` is rejected first.  Each file
    is written as its name plus ``.partial`` and renamed to its name when
    the ``with`` block ends without an error; a name whose file was not
    written is removed from ``outdir``, so no file of an earlier call stays.
    On an error, a failed rename included, the partial files are removed,
    and so is every directory made here that holds no renamed file.
    """
    for name in names:
        if (outdir / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(outdir / name))
    made = list(itertools.takewhile(lambda path: not path.exists(), (outdir, *outdir.parents)))
    outdir.mkdir(parents=True, exist_ok=True)
    partial = [outdir / f"{name}.partial" for name in names]
    try:
        yield partial
        for path, name in zip(partial, names):
            if path.exists():
                path.replace(outdir / name)
            else:
                (outdir / name).unlink(missing_ok=True)
    except BaseException:
        for path in partial:  # those renamed are gone already
            path.unlink(missing_ok=True)
        for path in made:  # the deepest first
            if not any(path.iterdir()):
                path.rmdir()
        raise


def _log_blocks(log: RunLog):
    """The :class:`_Block` s of a finished log: its columns, cut a block of steps at a time."""
    steps = [log.t, log.x, log.preds, log.ys, log.leaf_h, log.leaf_i, log.n_nodes, log.height,
             log.pool]
    ends = np.cumsum(log.pool).tolist()  # the end of each step's members
    for k in range(0, len(log), _ROW_BLOCK):
        cut = slice(k, k + _ROW_BLOCK)
        members = slice(ends[k - 1] if k else 0, ends[cut][-1])
        yield _Block([column[cut] for column in steps] + [log.expert_preds[members]])


def _check_writable(log: RunLog) -> None:
    """Reject ``log`` unless :func:`read_run_log` could return it: its columns
    of the dtypes and shapes of a :class:`RunLog`, ``t`` the steps 1..T of at
    least one step, and a ``pool`` that cuts ``expert_preds`` into the steps.
    What the columns hold is not checked."""
    def typed(column, dtype, shape) -> bool:
        return getattr(column, "dtype", None) == dtype and np.shape(column) == shape

    t, pool, T = log.t, log.pool, np.size(log.t)
    if not (T and typed(t, np.int64, (T,)) and np.array_equal(t, np.arange(1, T + 1))):
        raise RejectedInputError("t must be the int64 steps 1, 2, .., T of at least one step")
    if not (typed(pool, np.int64, (T,)) and pool.min() >= 0
            and np.shape(log.expert_preds) == (pool.sum(),)):
        raise RejectedInputError(f"pool must hold {T} integers >= 0 adding up to the "
                                 "length of expert_preds")
    ints = ("leaf_h", "leaf_i", "n_nodes", "height")
    for name, shape in [("x", (T, _x_width(log.config))), ("preds", (T,)), ("ys", (T,)),
                        *((name, (T,)) for name in ints), ("expert_preds", (pool.sum(),))]:
        dtype = np.dtype(np.int64 if name in ints else np.float64)
        if not typed(getattr(log, name), dtype, shape):
            raise RejectedInputError(f"{name} must be {dtype} of shape {shape}")


def write_run_log(log: RunLog, outdir) -> None:
    """Write ``log`` to ``outdir`` as ``steps.csv`` and ``summary.json``, and
    the derived ``steps.cache``.

    Only a log that :func:`read_run_log` could return is written; any other
    is rejected first (:func:`_check_writable`).  Faulty content, such as a
    leaf that is no node of a tree, is written as it is, and both readers
    reject it alike.  The log is cut into blocks of ``_ROW_BLOCK`` steps
    and each is written by the block writer of :func:`run`
    (:func:`_write_steps`), so no column is converted whole; the files are
    renamed into place together, as there.  A log that :func:`read_run_log`
    read writes back the very bytes of its ``steps.csv`` and its cache.
    """
    _check_writable(log)
    with _staged(Path(outdir), ("steps.csv", "summary.json", "steps.cache")) as paths:
        _write_steps(paths[0], paths[2], _log_blocks(log))
        _write_json(paths[1], log.summary, indent=2, sort_keys=True)


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


# the dtype of each step-log column of one number a cell; the others, x and
# experts, hold ;-joined floats (_parsed_members)
_STEP_PARSERS = {"t": np.int64, "pred": float, "y": float, "leaf_h": np.int64,
                 "leaf_i": np.int64, "n_nodes": np.int64, "height": np.int64}


def _parsed_block(name: str, dtype, cells, first_row: int):
    """A block of the step-log column ``name``, parsed as ``dtype``.

    A block whose leaf cells are all empty (all but a tree's) parses no cell.
    """
    if name in ("leaf_h", "leaf_i") and not all(cells):  # an empty cell: no leaf, -1
        if not any(cells):
            return np.full(len(cells), -1, np.int64)
        cells = [cell or "-1" for cell in cells]
    return _array(cells, dtype, name, first_row)


def _parsed_members(name: str, cells, first_row: int) -> tuple:
    """A block of the column ``name`` of ``;``-joined floats (``x`` or
    ``experts``): the number of values in each cell (int64), and the values
    of its nonempty cells, ``;``-joined and parsed as one float64 array; a
    block of empty cells (all but a tree's ``x``, all but a mixture's
    members) parses none.
    """
    if not any(cells):
        return np.zeros(len(cells), np.int64), np.empty(0)
    counts = np.array([cell.count(";") + 1 if cell else 0 for cell in cells], np.int64)
    try:
        return counts, np.array(";".join(filter(None, cells)).split(";"), dtype=float)
    except ValueError:  # rescanned cell by cell, the first that does not parse named
        _parsed(cells, lambda cell: [float(v) for v in cell.split(";")] if cell else [], name,
                first_row)
        raise


def read_run_log(outdir) -> RunLog:
    """Load a run log; a damaged ``steps.csv`` is rejected at its first fault.

    ``steps.csv`` is the log.  Only a log of ``LOG_FORMAT`` is read: a
    summary of any other format, the ``weights``-logging ``egtree-runlog-v2``
    and the ``loss``-logging ``egtree-runlog-v1`` included, is rejected by
    name before ``steps.csv`` is opened.  The rows are parsed a block at a
    time, and the first block with a fault decides which is reported.  A row with the wrong number of fields ends its
    block, so the rows above it are checked first.  Within a block, each
    column in log order is searched for a cell that does not parse, then
    for an integer beyond 64 bits; then come a step number out of
    sequence, a leaf that is no node of a tree (any leaf, outside a tree
    run), a member outside a mixture run and an ``x`` cell that does not
    hold the run's ``d`` covariates (any value, outside a tree run).  A
    step count that differs from the summary's ``T`` is found last.

    Where the run directory holds a ``steps.cache`` stamped with the
    sha256 of this very ``steps.csv`` (see :func:`_write_steps`), the
    blocks are loaded from it instead of parsed, and go through the same
    checks.  A missing, stale, damaged or unknown cache, or one whose log
    fails a check, is passed over: ``steps.csv`` is then parsed, so every
    log and every error comes as the text gives it.  The stamps catch a
    cache that is out of date or damaged, not one forged to match.
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
    for key in ("n_nodes", "height"):
        json_field(summary["final"], key, int, f"{path}: final")
    columns = _cached_columns(outdir, config, summary["T"])
    if columns is None:
        columns = _joined(_csv_blocks(outdir / "steps.csv", config))
        if len(columns[0]) != summary["T"]:
            raise RejectedInputError(f"step log has {len(columns[0])} steps, its summary says "
                                     f"T = {summary['T']!r}")
    return RunLog(*columns, summary)


def _csv_blocks(path, config: RunConfig):
    """The checked blocks of the step log ``path``, each parsed as it is read,
    so no more than one block of cell strings is held next to the parsed columns."""
    width = _x_width(config)
    with _open_csv(path) as fh:
        header = _header(fh)
        if tuple(header or ()) != STEP_COLUMNS:
            raise RejectedInputError(f"unrecognized step log header: {header}")
        for row_no, cells in _column_blocks(fh, len(STEP_COLUMNS)):
            # the columns in log order, so the first that does not parse is named
            t, (x_count, x), *numbers, (pool, experts) = [
                _parsed_block(name, _STEP_PARSERS[name], column, row_no)
                if name in _STEP_PARSERS else _parsed_members(name, column, row_no)
                for name, column in zip(STEP_COLUMNS, cells)]
            block = [t, x, *numbers, pool, experts]
            _check_block(block, row_no, config, cells, x_count)
            block[1] = x.reshape(len(t), width)
            yield block


def _check_block(block: list, row_no: int, config: RunConfig, cells=None,
                 x_count=None) -> None:
    """Reject the parsed step-log ``block``, its first row being ``row_no``, at
    its first step out of sequence, leaf that is no node of a tree (any leaf,
    outside a tree run), member outside a mixture run, or ``x`` cell that
    does not hold the run's covariate row (``d`` values in a tree run, none
    elsewhere).  Where the block was parsed from its ``cells``, ``x_count``
    holds the values counted in each of its ``x`` cells, and a leaf is named
    by its text; a cached block has ``x`` of the run's width
    (:func:`_cache_blocks`)."""
    t, _, _, _, h, i, _, _, pool, _ = block
    bad = np.flatnonzero(t != np.arange(row_no - 1, row_no - 1 + len(t)))
    if bad.size:
        k = bad[0]
        raise RejectedInputError(f"row {row_no + k}: t is {t[k]}, expected {row_no - 1 + k}")
    # a tree run logs a node (h, i), h >= 0 and 1 <= i <= 2**h (numpy shifts
    # i - 1 >= 0 by 64 or more to 0); any other run no leaf, (-1, -1)
    tree = config.forecaster == "tree"
    bad = np.flatnonzero((h < 0) | (i < 1) | ((i - 1) >> h != 0) if tree
                         else (h != -1) | (i != -1))
    if bad.size:
        k = bad[0]
        cell_h, cell_i = (column[k] for column in (cells or block)[4:6])
        raise RejectedInputError(
            f"row {row_no + k}: leaf_h {cell_h!r}, leaf_i {cell_i!r} "
            + ("is no node of a tree" if tree else f"in a {config.forecaster} run, "
               "which logs no leaf"))
    if config.forecaster != "meta" and (bad := np.flatnonzero(pool)).size:
        k = bad[0]
        raise RejectedInputError(f"row {row_no + k}: {pool[k]} experts in a "
                                 f"{config.forecaster} run, which logs no members")
    if x_count is not None and (bad := np.flatnonzero(x_count != _x_width(config))).size:
        k = bad[0]
        raise RejectedInputError(
            f"row {row_no + k}: {x_count[k]} x values in a " + (
                f"tree run of d = {config.d}" if tree
                else f"{config.forecaster} run, which logs no covariates"))


def _joined(blocks) -> list:
    """The columns of a step log from its parsed blocks, each joined once."""
    parts = list(zip(*blocks))
    if not parts:
        raise RejectedInputError("step log is empty")
    return [np.concatenate(part) for part in parts]


def _cached_columns(outdir: Path, config: RunConfig, T: int) -> list | None:
    """The columns of the step log in ``outdir`` as loaded from its ``steps.cache``,
    checked as parsed blocks are; None where ``steps.csv`` must be parsed instead.

    The trailer is read first: its tag must be ``_CACHE_TAG``, and both
    ``steps.csv`` and the blocks must hash to its digests.  Only then are
    the blocks loaded, one at a time.  A log with a cache is ASCII text,
    which every codec that ``open()`` reads with reads alike.
    """
    try:
        with open(outdir / "steps.cache", "rb") as fh:
            size = fh.seek(0, io.SEEK_END) - _TRAILER.size
            if size < 0:
                return None
            fh.seek(size)
            tag, steps_sha, cache_sha = _TRAILER.unpack(fh.read(_TRAILER.size))
            if tag != _CACHE_TAG:
                return None
            with open(outdir / "steps.csv", "rb") as steps:
                if _sha256(steps) != steps_sha:
                    return None
            fh.seek(0)
            if _sha256(fh, size) != cache_sha:
                return None
            fh.seek(0)
            columns = _joined(_cache_blocks(fh, size, config))
    except (OSError, ValueError):  # an unreadable file, a malformed block, a failed check
        return None
    return columns if len(columns[0]) == T else None


def _sha256(fh, size: float = math.inf) -> bytes:
    """The sha256 of the next ``size`` bytes of the open binary file ``fh``, or of
    all it has left, read a quarter megabyte at a time."""
    h = hashlib.sha256()
    while size > 0 and (chunk := fh.read(min(size, 1 << 18))):
        h.update(chunk)
        size -= len(chunk)
    return h.digest()


def _cache_blocks(fh, size: int, config: RunConfig):
    """The blocks of the open ``steps.cache`` ``fh``, whose blocks are its first
    ``size`` bytes, as :func:`_csv_blocks` yields them: loaded, checked, one at a time.

    A block whose counts do not add up or overrun the blocks, whose ``x``
    width is not the run's, or with a field that ``csv.reader`` would find
    beyond ``csv.field_size_limit()``, raises ``ValueError``.
    """
    width, row_no = _x_width(config), 2
    while size:
        if size < _CACHE_HEAD.size:
            raise ValueError("a malformed steps.cache block")
        n, m, w = _CACHE_HEAD.unpack(fh.read(_CACHE_HEAD.size))
        size -= _CACHE_HEAD.size + 8 * ((7 + w) * n + m)
        if min(n - 1, m, size) < 0 or w != width:
            raise ValueError("a malformed steps.cache block")
        # each column holds on to the bytes of its own part of the block
        numbers, members, x = fh.read(56 * n), fh.read(8 * m), fh.read(8 * n * w)
        floats = np.frombuffer(numbers, "<f8", 2 * n)
        ints = np.frombuffer(numbers, "<i8", 5 * n, 16 * n).reshape(5, n)
        members = np.frombuffer(members, "<f8")
        pool = ints[4]
        if (pool < 0).any() or int(pool.sum()) != m:
            raise ValueError("a malformed steps.cache block")
        # csv.reader rejects a field beyond its limit: a number's cell is at most
        # 24 characters long, a cell of k ;-joined numbers 25 k - 1
        if 25 * max(1, int(pool.max()), w) - 1 > csv.field_size_limit():
            raise ValueError("a field of steps.csv beyond csv.field_size_limit()")
        block = [np.arange(row_no - 1, row_no - 1 + n), np.frombuffer(x, "<f8").reshape(n, w),
                 floats[:n], floats[n:], *ints, members]
        _check_block(block, row_no, config)
        yield block
        row_no += n


# -- series / covariate CSV ------------------------------------------------

# <csv>.cache: the trailer after its values (see _write_input)
_INPUT_TAG = b"egtree-input-cache-v1\n"
_INPUT_TRAILER = struct.Struct(f"<{len(_INPUT_TAG)}s32s32s")


def _digest_text(lines: str, series: bool) -> bytes:
    """The data-digest text of ``lines``, rows of an input file that hold no
    ``;`` and that :func:`_column_blocks` would cut with ``str.split``:
    every line with ``;`` for its line end, less a series' ``t`` cell."""
    if series:  # the y cell of every line: the t cells are not data
        return (";".join(lines.replace("\n", ",").split(",")[1::2]) + ";").encode()
    return lines.replace("\n", ";").encode()


def _write_input(path, header: str, row_format: str, columns: list, values: list) -> str:
    """Write an input file to ``path`` and its cache to ``<path>.cache``; returns
    the file's data digest.

    The file is ``header`` and then ``columns`` rendered by ``row_format``
    (:func:`_rendered`), each block encoded once with the codec that
    ``open()`` writes text with; those bytes are hashed and written, and
    their digest text (:func:`_digest_text`) is hashed as
    :func:`_plain_digest` hashes a canonical file, which gives the
    :func:`data_digest` of the values.  The cache holds the float64
    ``values`` arrays, little-endian, one after the other, and then a
    trailer (``_INPUT_TRAILER``): the tag ``_INPUT_TAG``, the sha256 of the
    bytes written to ``path`` and the sha256 of the values' bytes.
    """
    encoding = locale.getpreferredencoding(False)  # what open() writes text with
    file_sha, cache_sha, digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    series = header == "t,y\n"
    with open(path, "wb") as fh:
        data = header.encode(encoding)
        file_sha.update(data)
        fh.write(data)
        for text in _rendered(row_format, columns):
            data = text.encode(encoding)
            file_sha.update(data)
            fh.write(data)
            digest.update(_digest_text(text, series))
    with open(f"{path}.cache", "wb") as fh:
        for array in values:
            data = np.asarray(array, "<f8").tobytes()
            cache_sha.update(data)
            fh.write(data)
        fh.write(_INPUT_TRAILER.pack(_INPUT_TAG, file_sha.digest(), cache_sha.digest()))
    return digest.hexdigest()


def write_series(path, ys) -> str:
    """Write the series ``ys`` to ``path`` as a ``t,y`` CSV, and its values to
    ``<path>.cache`` (:func:`_write_input`); returns its :func:`data_digest`."""
    ys = np.asarray(ys, dtype=float)
    return _write_input(path, "t,y\n", "%d,%.17g\n", [range(1, len(ys) + 1), ys.tolist()],
                        [ys])


def write_covariates(path, xs, ys) -> str:
    """Write ``xs`` and ``ys`` to ``path`` as an ``x1,..,xd,y`` CSV, and their
    values to ``<path>.cache``: ``xs`` row by row, then ``ys``
    (:func:`_write_input`); returns their :func:`data_digest`.  A
    one-dimensional ``xs`` is one covariate."""
    ys = np.asarray(ys, dtype=float)
    xs = _covariate_rows(xs, ys)
    d = xs.shape[1]
    return _write_input(path, ",".join([f"x{j + 1}" for j in range(d)] + ["y"]) + "\n",
                        "%.17g," * d + "%.17g\n", xs.T.tolist() + [ys.tolist()], [xs, ys])


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


def _cached_input(path) -> tuple | None:
    """The input file ``path`` as its cache ``<path>.cache`` holds it:
    ``(d, values, data)``, with ``d`` = 0 for a series and ``data`` the bytes
    of the file; None where the file must be parsed.

    The trailer is read first: its tag must be ``_INPUT_TAG``, and the file
    and the values must hash to its digests.  Then the file's header must
    be one that the readers accept, the values must fill its rows, at least
    one, one value a cell (``d`` + 1 a row, a series' ``t`` cell not
    counted), and every value must lie in [0, 1].  The stamps catch a cache
    that is out of date or damaged, not one forged to match.
    """
    try:
        with open(f"{path}.cache", "rb") as fh:
            cache = bytearray(os.fstat(fh.fileno()).st_size)  # writable, as parsed arrays are
            size = fh.readinto(cache) - _INPUT_TRAILER.size
            if size < 0 or size % 8:
                return None
            tag, file_sha, cache_sha = _INPUT_TRAILER.unpack_from(cache, size)
            if tag != _INPUT_TAG:
                return None
        with open(path, "rb") as fh:
            data = fh.read()
        header = data[:data.find(b"\n")].decode(locale.getpreferredencoding(False)).split(",")
    except (OSError, UnicodeDecodeError):
        return None
    if (hashlib.sha256(data).digest() != file_sha
            or hashlib.sha256(memoryview(cache)[:size]).digest() != cache_sha):
        return None
    series = _is_series_header(header)
    if not (series or _is_covariate_header(header)):
        return None
    d = 0 if series else len(header) - 1
    values = np.frombuffer(cache, "<f8", size // 8).astype(float, copy=False)
    rows = data.count(b"\n") - 1
    if (rows < 1 or values.size != rows * (d + 1) or not data.endswith(b"\n")
            or not ((values >= 0.0) & (values <= 1.0)).all()):  # NaN fails both
        return None
    return d, values, data


def _read_input(path, kind: str | None = None) -> tuple:
    """``(xs, ys, text)`` of the input file ``path``: read as a series where
    ``kind`` is ``"series"``, as covariates where it is ``"covariates"``, and
    as its header says where it is None.

    ``xs`` is None for a series.  Where the file's cache vouches for it
    (:func:`_cached_input`) and it is of the kind asked for, the arrays are
    its values and ``text`` is the file's bytes; otherwise ``text`` is None
    and the file is parsed, so every fault is rejected as the text gives
    it, with its row number.
    """
    cached = _cached_input(path)
    if cached is not None and kind in (None, "covariates" if cached[0] else "series"):
        d, values, text = cached
        T = values.size // (d + 1)
        return (values[:T * d].reshape(T, d) if d else None), values[T * d:], text
    with _open_csv(path) as fh:
        header = _header(fh)
        series = kind == "series" or kind is None and _is_series_header(header)
        if series and not _is_series_header(header):
            raise RejectedInputError(f"expected header 't,y', got {header}")
        if not (series or _is_covariate_header(header)):
            raise RejectedInputError(f"expected header 'x1,..,xd,y', got {header}")
        # a series' t column is not parsed
        *xs, ys = _read_unit_rows(fh, (None, "observation") if series
                                  else ("covariate",) * (len(header) - 1) + ("observation",))
    if not ys.size:
        raise RejectedInputError(f"{'series' if series else 'covariate'} file has no "
                                 "observations")
    return (np.column_stack(xs) if xs else None), ys, None


def read_series(path) -> np.ndarray:
    """Read a ``t,y`` CSV into its float64 ``ys``: from its cache where that
    vouches for them, else parsed, malformed rows raising with their row
    number (:func:`_read_input`)."""
    return _read_input(path, "series")[1]


def read_covariates(path):
    """Read an ``x1,..,xd,y`` CSV into (xs, ys) arrays, as :func:`read_series` reads."""
    return _read_input(path, "covariates")[:2]


def read_input(path) -> tuple:
    """Read a series (header ``t,y``) as ``(None, ys)`` or a covariate file as ``(xs, ys)``."""
    return _read_input(path)[:2]


def read_input_text(path) -> tuple:
    """:func:`read_input`'s ``(xs, ys)`` and the file's bytes, where its cache
    vouched for the arrays (else None), for :func:`run`: ``(xs, ys, text)``."""
    return _read_input(path)


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
    the rows of the text one for one (:func:`_digest_text`).  It is hashed
    a block of lines at a time, never as a whole.
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
                h.update(_digest_text(text, series))
    except (UnicodeDecodeError, RejectedInputError):  # read_input says what is wrong
        return None
    return h.hexdigest()


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
        "forecaster": log.config.forecaster,
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
    # one row per member weight (in closed form, from the members' predictions):
    # t repeated by the pool size, d = 1..size; repeating t_col's own ints,
    # not new ones, keeps a column one pointer a row
    if log.pool.any():
        chained = itertools.chain.from_iterable
        weights.writelines(_rendered(run_field + ",%d,%d,%.17g\n", [
            list(chained(map(itertools.repeat, t_col, log.pool.tolist()))),
            list(chained(map(range, itertools.repeat(1), (log.pool + 1).tolist()))),
            mixture_weights(log).tolist()]))
    return row


def report(run_dirs, outdir) -> dict:
    """Aggregate finished runs into summary tables and plot-ready CSVs.

    The runs are read one at a time, and each run's per-step rows are
    written to ``node_growth.csv`` and ``weights.csv`` a block at a time as
    it is read, so no more than one run's log is held.  The member weights
    are derived from each mixture's log (:func:`mixture_weights`), which
    holds none.  Where no run has members there is no ``weights.csv``, and
    one that an earlier report left in ``outdir`` is removed.  The tables
    are written under temporary names and renamed into place together at
    the end (:func:`_staged`), so a run rejected midway leaves ``outdir``
    as it found it.
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
        if weights_path.stat().st_size == len(_WEIGHTS_HEADER):  # no run has members
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
                writer.writerow((fc, T, len(vals), fmt17(left_sum(vals) / len(vals)),
                                 fmt17(min(vals)), fmt17(max(vals))))
    return {"runs": rows, "groups": {f"{fc}/T={T}": len(v) for (fc, T), v in by_group.items()}}
