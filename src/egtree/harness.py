"""Experiment driver: run forecasters over series, log them, and report on the logs.

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

Every value is rendered or parsed once, and a canonical input or a
cached step log not even once: a run renders each covariate and outcome
once, for its step log and its digest alike.  ``steps.csv`` is the log;
the step-log writer (:func:`_write_steps`) also writes, in the same
pass, ``steps.cache``: each block's columns as :func:`read_run_log`
parses them, stamped with the sha256 of ``steps.csv``.  The cache is
derived, optional and pinned by no digest; :func:`read_run_log` loads a
log from it where the stamps match, and parses ``steps.csv`` otherwise,
so deleting it changes only speed.  The writers (series and covariate
files, the report's per-step tables) and :func:`data_digest` take each
column once (``tolist``), the step-log writer a block of steps at a
time, and all render a block of ``_ROW_BLOCK`` rows with a single ``%``
format (:func:`_rendered`); no field but a report's run name ever needs
CSV quoting, and that one is quoted once per run.  The readers take a
file a block of lines at a time and cut a block that ``csv.reader``
would split plainly with one ``str.split``; from the first block with a
quote, a ``\\r``, a wrong field count or an oversized line on,
``csv.reader`` splits the rest (:func:`_column_blocks`).
:func:`read_input` tells a series from a covariate file by its header
alone.  The numbers of a CSV are parsed by ``np.array(cells, dtype)``,
which reads each cell as ``int`` or ``float`` does: an input block as
one array, range-checked at once, a step-log block a column at a time
(a member column as one array of its nonempty cells' ``;``-joined
values, and a block of empty member or leaf cells, as all but a
mixture's or a tree's log holds, parses no cell).  A block that fails
is rescanned row by row for its first bad row, field and value.  The
step-log reader reads ``LOG_FORMAT`` alone, rejects a leaf that is no
node of a tree and a member outside a mixture run, and checks the
fields of ``summary.json`` that the verifier and the report read.  A
file that does not decode is rejected, naming it.  Every input file
this module writes holds the text that :func:`data_digest` hashes, as
it stands, so :func:`input_digest` checks such a file against a run by
hashing it block by block; it parses and renders only a file that does
not hash to the run's digest.

A read log's :class:`RunLog` holds its summary's :class:`RunConfig`,
parsed once.  :mod:`egtree.verify` checks a run's guarantees against it;
its :func:`verify_bounds` and :func:`expert_regret` are importable here.
:func:`report` reads its runs one at a time and writes each run's
per-step rows as it goes.
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
from .verify import BoundCheck, expert_regret, verify_bounds  # noqa: F401

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
    """Per-step records plus the run summary, and the summary's config as parsed
    by :func:`read_run_log` (None in a log built by hand, unless given)."""

    t: np.ndarray
    x_text: list            # a tree run's covariate rows, "x1;..;xd"; "" elsewhere
    preds: np.ndarray
    ys: np.ndarray
    leaf_h: np.ndarray      # -1 where no tree is involved
    leaf_i: np.ndarray
    n_nodes: np.ndarray
    height: np.ndarray
    pool: np.ndarray        # int64: the members logged at each step, 0 where not aggregated
    expert_preds: np.ndarray    # float64: pool.sum() values, step by step, members in order
    expert_weights: np.ndarray  # float64: as expert_preds
    summary: dict
    config: RunConfig | None = field(default=None, kw_only=True)

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
    are -1 where no leaf is logged, and the members are floats, flat:
    ``pool[k]`` of each at the block's step ``k``.
    ``arrays`` holds ``t``, ``pred``, ``y``, ``leaf_h``, ``leaf_i``,
    ``n_nodes`` and ``height`` as int64 and float64 arrays where the
    block's producer vouches that its cells read back as their values, and
    its ``x`` cells as themselves; else it is None, and the log gets no
    cache (:func:`_write_steps`).  A block of a running run also carries
    the cumulative loss and the :func:`data_digest` of every step up to
    its last; a block cut from a finished :class:`RunLog` carries neither.
    """

    columns: list
    pool: list
    arrays: list | None
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
                   "height": [0] * n, "experts": [], "weights": []}
        columns.update((name, fields[j::width]) for j, name in enumerate(forecaster.TRACED))
        del fields  # the columns hold every field now
        pool = list(map(len, columns["experts"])) if "experts" in forecaster.TRACED else [0] * n
        for name in ("experts", "weights"):  # a tuple per step, flattened once
            columns[name] = list(itertools.chain.from_iterable(columns[name]))
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
        pred = np.array(preds)
        losses = config.loss.value_array(pred, block_ys).tolist()
        cumulative = left_sum(losses, cumulative)  # as verify_bounds resums them
        # the traced integers are Python ints, as the cells render them
        arrays = [np.arange(start + 1, start + n + 1), pred, block_ys] + [
            np.fromiter(columns[name], np.int64, n) if name in forecaster.TRACED
            else np.full(n, columns[name][0]) for name in ("leaf_h", "leaf_i", "n_nodes", "height")]
        yield _Block([columns[name] for name in STEP_COLUMNS], pool, arrays, cumulative,
                     digest.hexdigest())


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
    to ``steps.csv``, the log, as it arrives, and ``summary.json`` last, so
    no more than the forecaster and one block is held, never the whole
    log; its ``wall_clock_sec`` covers the writing.  The same pass writes
    ``steps.cache``, the blocks as :func:`read_run_log` parses them,
    stamped with the sha256 of ``steps.csv`` (:func:`_write_steps`): it
    is derived and optional, it only spares :func:`read_run_log` the
    parse, and no digest pins it.  With ``save_state`` a tree run's final
    tree is written as ``tree.json``; no other forecaster can save its
    state yet, and a run without it removes a ``tree.json`` that an
    earlier run left in ``outdir``.  The files are written under temporary
    names and renamed into place together at the end, ``steps.cache``
    last, so a run rejected midway leaves ``outdir`` as it found it, and a
    failed rename leaves a ``steps.csv`` that reads.  Returns the summary.
    """
    started = time.perf_counter()
    ys, xs = _checked(config, ys, xs, save_state)
    forecaster = _forecaster(config)
    with _staged(Path(outdir), ("steps.csv", "summary.json", "tree.json", "steps.cache")) \
            as paths:
        last = _write_steps(paths[0], paths[3], _step_blocks(config, forecaster, ys, xs))
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


def _leaf_cells(values: list) -> list:
    """A leaf column's cells: its integers, and no text where no leaf is logged (-1)."""
    if min(values) >= 0:  # a tree's leaves
        return values
    return ["" if v < 0 else v for v in values]


def _write_steps(path, cache_path, blocks) -> _Block | None:
    """Write ``steps.csv`` to ``path`` and its cache to ``cache_path``, a block
    at a time as the blocks arrive; returns the last block.

    Each block is rendered once, encoded once with the codec that
    ``open()`` reads text files with, and those bytes are hashed and
    written.  The cache (``steps.cache``) holds the same blocks as
    :func:`read_run_log` parses them, so it can load a log without parsing
    its text; ``steps.csv`` stays the log, and the cache is derived and
    optional.  All of its numbers are little-endian.  A block of ``n``
    steps is:

    - three int64: ``n``, the number ``m`` of expert values in the block
      (and of weight values), and the number of bytes of its ``x`` text;
    - ``pred`` and ``y`` as float64, ``n`` each;
    - ``leaf_h``, ``leaf_i`` (-1 where no leaf is logged), ``n_nodes``,
      ``height`` and ``pool`` (the members at each step) as int64, ``n``
      each;
    - the expert and the weight values as float64, ``m`` each;
    - the ``x`` cells joined by ``\\n``, as ASCII.

    A float is stored as its cell reads back: every NaN as the one NaN
    that ``float("nan")`` gives.  The blocks are followed by a trailer
    (``_TRAILER``): the tag ``_CACHE_TAG``, the sha256 of the bytes of
    ``steps.csv`` and the sha256 of the blocks.  A log with no step, or
    with a block whose ``arrays`` are None, gets no cache: the partial one
    is removed.
    """
    encoding = locale.getpreferredencoding(False)  # what open() writes text with
    steps_sha, cache_sha = hashlib.sha256(), hashlib.sha256()
    block, cached = None, True
    with open(path, "wb") as fh, open(cache_path, "wb") as cache:
        data = (",".join(STEP_COLUMNS) + "\n").encode(encoding)
        steps_sha.update(data)
        fh.write(data)
        for block in blocks:
            t, x, pred, y, leaf_h, leaf_i, n_nodes, height, experts, weights = block.columns
            data = "".join(_rendered(_STEP_ROW, [
                t, x, pred, y, _leaf_cells(leaf_h), _leaf_cells(leaf_i), n_nodes, height,
                _joined17(block.pool, experts), _joined17(block.pool, weights)])).encode(encoding)
            steps_sha.update(data)
            fh.write(data)
            cached = cached and block.arrays is not None
            if cached:
                payload = _cache_block(block)
                cache_sha.update(payload)
                cache.write(payload)
        cached = cached and block is not None
        if cached:
            cache.write(_TRAILER.pack(_CACHE_TAG, steps_sha.digest(), cache_sha.digest()))
    if not cached:
        Path(cache_path).unlink()
    return block


# steps.cache: a block's three counts, and its trailer (see _write_steps)
_CACHE_TAG = b"egtree-steps-cache-v2\n"
_CACHE_HEAD = struct.Struct("<3q")
_TRAILER = struct.Struct(f"<{len(_CACHE_TAG)}s32s32s")


def _read_back(values) -> np.ndarray:
    """Floats as their .17g cells read back: little-endian float64, every NaN ``float("nan")``."""
    values = np.asarray(values, "<f8")
    nan = np.isnan(values)
    return np.asarray(np.where(nan, np.nan, values), "<f8") if nan.any() else values


def _cache_block(block: _Block) -> bytes:
    """The bytes of ``block``, whose ``arrays`` are given, in ``steps.cache`` (see
    :func:`_write_steps`)."""
    t, pred, y, leaf_h, leaf_i, n_nodes, height = block.arrays
    x = "\n".join(block.columns[1]).encode("ascii")
    ints = (np.maximum(leaf_h, -1), np.maximum(leaf_i, -1), n_nodes, height, block.pool)
    return b"".join([_CACHE_HEAD.pack(len(t), len(block.columns[8]), len(x)),
                     _read_back(pred).tobytes(), _read_back(y).tobytes(),
                     *(np.asarray(a, "<i8").tobytes() for a in ints),
                     *(_read_back(a).tobytes() for a in block.columns[8:]), x])


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
    """The :class:`_Block` s of a finished log, each column cut and converted a block at a time.

    The blocks' ``arrays`` are cut from the log's own arrays where the log
    holds what :func:`read_run_log` reads back from its text: arrays of
    the dtypes it gives, ``t`` the steps in order, and ``x`` cells that are
    ASCII strings with no character that CSV splits or quotes at.
    """
    numbers = [log.t, log.preds, log.ys, log.leaf_h, log.leaf_i, log.n_nodes, log.height]
    x = "\n".join(log.x_text) if set(map(type, log.x_text)) <= {str} else ","
    vouched = ([column.dtype for column in numbers] == [np.int64, *[np.float64] * 2,
                                                         *[np.int64] * 4]
               and np.array_equal(log.t, np.arange(1, len(log) + 1))
               and x.isascii() and x.count("\n") == len(log) - 1
               and not any(c in x for c in ',"\r\0'))
    del x
    ends = np.cumsum(log.pool).tolist()  # the end of each step's members
    for k in range(0, len(log), _ROW_BLOCK):
        cut = slice(k, k + _ROW_BLOCK)
        members = slice(ends[k - 1] if k else 0, ends[cut][-1])
        pool = log.pool[cut].tolist()
        yield _Block([log.t[cut].tolist(), log.x_text[cut], log.preds[cut].tolist(),
                      _joined17([1] * len(pool), log.ys[cut].tolist()), log.leaf_h[cut].tolist(),
                      log.leaf_i[cut].tolist(), log.n_nodes[cut].tolist(),
                      log.height[cut].tolist(), log.expert_preds[members].tolist(),
                      log.expert_weights[members].tolist()], pool,
                     [column[cut] for column in numbers] if vouched else None)


def write_run_log(log: RunLog, outdir) -> None:
    """Write ``log`` to ``outdir`` as ``steps.csv`` and ``summary.json``, and
    the derived ``steps.cache``.

    The log is cut into blocks of ``_ROW_BLOCK`` steps and each is written
    by the block writer of :func:`run` (:func:`_write_steps`), so no column
    is converted whole; the files are renamed into place together, as
    there.  A log that :func:`read_run_log` read writes back the very
    bytes of its ``steps.csv``, and its cache as well; one whose ``pool``
    does not cut both member arrays into its steps is rejected first.
    """
    pool = log.pool
    if not (pool.dtype.kind == "i" and len(pool) == len(log) and pool.min(initial=0) >= 0
            and pool.sum() == len(log.expert_preds) == len(log.expert_weights)):
        raise RejectedInputError(f"pool must hold {len(log)} integers >= 0 adding up to the "
                                 "length of expert_preds and of expert_weights")
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


# per step-log column before the members: its dtype; the x text stays text (None)
_STEP_PARSERS = (np.int64, None, float, float, np.int64, np.int64, np.int64, np.int64)


def _parsed_block(name: str, dtype, cells, first_row: int):
    """A block of the step-log column ``name``, parsed as ``_STEP_PARSERS`` says.

    A block whose leaf cells are all empty (all but a tree's) parses no cell.
    """
    if dtype is None:
        return cells
    if name in ("leaf_h", "leaf_i") and not all(cells):  # an empty cell: no leaf, -1
        if not any(cells):
            return np.full(len(cells), -1, np.int64)
        cells = [cell or "-1" for cell in cells]
    return _array(cells, dtype, name, first_row)


def _parsed_members(name: str, cells, first_row: int) -> tuple:
    """A block of the member column ``name``: the number of values in each cell
    (int64), and the values of its nonempty cells, ``;``-joined and parsed as
    one float64 array; a block of empty cells (all but a mixture's) parses none.
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

    ``steps.csv`` is the log.  Only a log of ``LOG_FORMAT``
    (``egtree-runlog-v2``: no ``loss`` column, as :func:`verify_bounds`
    recomputes every loss from ``pred`` and ``y``) is read: a summary of
    any other format, the ``loss``-logging ``egtree-runlog-v1`` included,
    is rejected by name before ``steps.csv`` is opened.  The rows are
    parsed a block at a time, and the first block with a fault decides
    which is reported.  A row with the wrong number of fields ends its
    block, so the rows above it are checked first.  Within a block, each
    column in log order is searched for a cell that does not parse, then
    for an integer beyond 64 bits; then come a step number out of
    sequence, a step with more or fewer ``experts`` than ``weights``, a
    leaf that is no node of a tree (any leaf, outside a tree run) and a
    member outside a mixture run.  A step count that differs from the
    summary's ``T`` is found last.

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
    return RunLog(*columns, summary, config=config)


def _csv_blocks(path, config: RunConfig):
    """The checked blocks of the step log ``path``, each parsed as it is read,
    so no more than one block of cell strings is held next to the parsed columns."""
    with _open_csv(path) as fh:
        header = _header(fh)
        if tuple(header or ()) != STEP_COLUMNS:
            raise RejectedInputError(f"unrecognized step log header: {header}")
        for row_no, cells in _column_blocks(fh, len(STEP_COLUMNS)):
            block = [_parsed_block(name, dtype, column, row_no)
                     for name, dtype, column in zip(STEP_COLUMNS, _STEP_PARSERS, cells)]
            (pool, experts), (weight_pool, weights) = (
                _parsed_members(name, column, row_no)
                for name, column in zip(STEP_COLUMNS[8:], cells[8:]))
            block += [pool, experts, weights]
            _check_block(block, row_no, config, cells, weight_pool)
            yield block


def _check_block(block: list, row_no: int, config: RunConfig, cells=None,
                 weight_pool=None) -> None:
    """Reject the parsed step-log ``block``, its first row being ``row_no``, at
    its first step out of sequence, step with more or fewer ``experts`` (its
    pool) than ``weights`` (``weight_pool``, where they were counted apart),
    leaf that is no node of a tree (any leaf, outside a tree run), or member
    outside a mixture run.  A leaf is named by its ``cells``' text where given."""
    t, _, _, _, h, i, _, _, pool, _, _ = block
    bad = np.flatnonzero(t != np.arange(row_no - 1, row_no - 1 + len(t)))
    if bad.size:
        k = bad[0]
        raise RejectedInputError(f"row {row_no + k}: t is {t[k]}, expected {row_no - 1 + k}")
    if weight_pool is not None and (bad := np.flatnonzero(pool != weight_pool)).size:
        k = bad[0]
        raise RejectedInputError(f"row {row_no + k}: {pool[k]} experts but "
                                 f"{weight_pool[k]} weights")
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


def _joined(blocks) -> list:
    """The columns of a step log from its parsed blocks, each joined once."""
    parts = list(zip(*blocks))
    if not parts:
        raise RejectedInputError("step log is empty")
    return [np.concatenate(part) if isinstance(part[0], np.ndarray)
            else list(itertools.chain(*part)) for part in parts]


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

    A block whose counts do not add up or overrun the blocks, or with a
    field that ``csv.reader`` would find beyond ``csv.field_size_limit()``,
    raises ``ValueError``.
    """
    row_no = 2
    while size:
        if size < _CACHE_HEAD.size:
            raise ValueError("a malformed steps.cache block")
        n, m, n_x = _CACHE_HEAD.unpack(fh.read(_CACHE_HEAD.size))
        length = 8 * (7 * n + 2 * m) + n_x
        size -= _CACHE_HEAD.size + length
        if min(n - 1, m, n_x, size) < 0:
            raise ValueError("a malformed steps.cache block")
        # the columns hold on to the bytes of the numbers alone
        numbers, rest = fh.read(56 * n), fh.read(length - 56 * n)
        floats = np.frombuffer(numbers, "<f8", 2 * n)
        ints = np.frombuffer(numbers, "<i8", 5 * n, 16 * n).reshape(5, n)
        members = np.frombuffer(rest, "<f8", 2 * m)
        x = rest[16 * m:].decode("ascii").split("\n")
        pool = ints[4]
        if len(x) != n or (pool < 0).any() or int(pool.sum()) != m:
            raise ValueError("a malformed steps.cache block")
        # csv.reader rejects a field beyond its limit: a number's cell is at most
        # 24 characters long, a member cell 25 a value
        if max(24, 25 * int(pool.max()), *map(len, x)) > csv.field_size_limit():
            raise ValueError("a field of steps.csv beyond csv.field_size_limit()")
        block = [np.arange(row_no - 1, row_no - 1 + n), x, floats[:n], floats[n:], *ints,
                 members[:m], members[m:]]
        _check_block(block, row_no, config)
        yield block
        row_no += n


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
    # one row per member weight: t repeated by the pool size, d = 1..size;
    # repeating t_col's own ints, not new ones, keeps a column one pointer a row
    if log.pool.any():
        chained = itertools.chain.from_iterable
        weights.writelines(_rendered(run_field + ",%d,%d,%.17g\n", [
            list(chained(map(itertools.repeat, t_col, log.pool.tolist()))),
            list(chained(map(range, itertools.repeat(1), (log.pool + 1).tolist()))),
            log.expert_weights.tolist()]))
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
                writer.writerow((fc, T, len(vals), fmt17(left_sum(vals) / len(vals)),
                                 fmt17(min(vals)), fmt17(max(vals))))
    return {"runs": rows, "groups": {f"{fc}/T={T}": len(v) for (fc, T), v in by_group.items()}}
