"""The step-log cache against the CSV reader it stands in for.

``harness.run`` and ``write_run_log`` write ``steps.cache`` beside
``steps.csv``, and ``read_run_log`` loads a log from it where its stamps
match ``steps.csv``.  Every log here is read both ways, with the cache and
after deleting it: the two reads must agree bit for bit, or raise the very
same error, and so must everything ``verify-bounds`` and ``report`` make of
them.
"""

import csv
import dataclasses
import json
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from egtree import harness
from egtree.cli import main
from egtree.errors import RejectedInputError
from egtree.harness import RunConfig, RunLog, read_run_log, report, run, write_run_log
from reference import set_members
from test_golden import case, cases, dyadic_mix

# every column of a RunLog, those added later included
NUMBERS = tuple(f.name for f in dataclasses.fields(RunLog) if f.name not in ("summary", "config"))
LONG = "meta-T2500"  # crosses two 1024-row blocks


def inputs(name):
    if name == LONG:
        return RunConfig("meta", seed=31), dyadic_mix(np.random.default_rng(31), 2500), None
    return case(name)


def assert_same_log(a, b):
    for name in NUMBERS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert a.summary == b.summary and a.config == b.config


def outcome(outdir):
    """What ``read_run_log`` makes of ``outdir``: its log, or its error message."""
    try:
        return read_run_log(outdir)
    except RejectedInputError as exc:
        return str(exc)


def assert_same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert_same_log(a, b)


def cached_read(outdir):
    """``read_run_log(outdir)`` from its cache, the CSV reader barred."""
    with mock.patch.object(harness, "_csv_blocks", side_effect=AssertionError("parsed")):
        return read_run_log(outdir)


def csv_read(outdir):
    """What the CSV reader makes of ``outdir``: read with its cache deleted, then put back."""
    cache = outdir / "steps.cache"
    saved = cache.read_bytes() if cache.exists() else None
    cache.unlink(missing_ok=True)
    try:
        return outcome(outdir)
    finally:
        if saved is not None:
            cache.write_bytes(saved)


def passed_over(outdir):
    """``read_run_log``'s outcome of ``outdir``, asserting that it parsed ``steps.csv``."""
    with mock.patch.object(harness, "_csv_blocks", wraps=harness._csv_blocks) as parse:
        result = outcome(outdir)
    assert parse.called
    return result


def verify(rundir, L, capsys) -> tuple:
    """The output and ``bounds.json`` of ``egtree verify-bounds`` on ``rundir``."""
    capsys.readouterr()
    rc = main(["verify-bounds", "--out", str(rundir)] + (["--L", str(L)] if L else []))
    return rc, capsys.readouterr().out, (rundir / "bounds.json").read_bytes()


def tables(outdir) -> dict:
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("name", [*cases(), LONG])
def test_the_cache_reads_as_the_csv_does(name, block, tmp_path, capsys):
    config, ys, xs = inputs(name)
    L = 1.0 if config.forecaster == "meta" or (config.forecaster, config.d) == ("tree", 1) \
        else None
    rundir = tmp_path / "run"
    with mock.patch.object(harness, "_ROW_BLOCK", block):
        run(config, ys, xs, rundir)
        written = tables(rundir)
        cached = cached_read(rundir)
        with_cache = verify(rundir, L, capsys)
        report([rundir], tmp_path / "tables-cached")
        write_run_log(cached, tmp_path / "rewritten")
        (rundir / "steps.cache").unlink()
        parsed = read_run_log(rundir)
        without = verify(rundir, L, capsys)
        report([rundir], tmp_path / "tables-parsed")
        write_run_log(parsed, tmp_path / "rewritten-parsed")
    assert_same_log(cached, parsed)
    assert with_cache == without
    assert tables(tmp_path / "tables-cached") == tables(tmp_path / "tables-parsed")
    # the writer turns either read back into the very bytes of the log and its cache
    assert sorted(written) == ["steps.cache", "steps.csv", "summary.json"]
    assert tables(tmp_path / "rewritten") == tables(tmp_path / "rewritten-parsed") == written


@pytest.fixture
def tree_run(tmp_path):
    """A tree run over two blocks of steps, with its cache."""
    rng = np.random.default_rng(4)
    rundir = tmp_path / "tree"
    run(RunConfig("tree", d=2, seed=4), rng.random(1500), rng.random((1500, 2)), rundir)
    assert (rundir / "steps.cache").exists()
    return rundir


def test_a_log_without_a_cache_is_parsed(tree_run):
    (tree_run / "steps.cache").unlink()
    assert_same_outcome(passed_over(tree_run), csv_read(tree_run))


@pytest.mark.parametrize("old, new", [(b"\n1200,0.", b"\n1200,0.9"),
                                      (b"\n1200,", b"\n1201,")],
                         ids=["a-digit-added", "a-step-number"])
def test_a_changed_byte_of_steps_csv_is_parsed(tree_run, old, new):
    steps = tree_run / "steps.csv"
    data = steps.read_bytes()
    assert data.count(old) == 1
    steps.write_bytes(data.replace(old, new))
    result = passed_over(tree_run)
    assert_same_outcome(result, csv_read(tree_run))
    assert isinstance(result, str) == (new == b"\n1201,")


def _edit_cache(rundir, edit):
    cache = rundir / "steps.cache"
    cache.write_bytes(edit(cache.read_bytes()))


@pytest.mark.parametrize("edit", [
    lambda data: data[:100] + bytes([data[100] ^ 1]) + data[101:],
    lambda data: data[:len(data) // 2],
    lambda data: data[:-1],
    lambda data: data.replace(harness._CACHE_TAG, b"egtree-steps-cache-v9\n"),
    lambda data: data.replace(harness._CACHE_TAG, b"egtree-steps-cache-v1\n"),
    lambda data: data.replace(harness._CACHE_TAG, b"egtree-steps-cache-v2\n"),
    lambda data: data.replace(harness._CACHE_TAG, b"egtree-steps-cache-v3\n"),
    lambda data: data[:-harness._TRAILER.size],
    lambda data: b"",
], ids=["a-payload-bit-flipped", "cut-in-half", "a-byte-short", "an-unknown-tag",
        "the-v1-tag", "the-v2-tag", "the-v3-tag", "no-trailer", "empty"])
def test_a_damaged_cache_is_passed_over(tree_run, edit):
    _edit_cache(tree_run, edit)
    assert_same_outcome(passed_over(tree_run), csv_read(tree_run))


def test_another_runs_cache_is_passed_over(tree_run, tmp_path):
    other = tmp_path / "other"
    rng = np.random.default_rng(5)
    run(RunConfig("tree", d=2, seed=5), rng.random(1500), rng.random((1500, 2)), other)
    shutil.copyfile(other / "steps.cache", tree_run / "steps.cache")
    assert_same_outcome(passed_over(tree_run), csv_read(tree_run))


def test_a_line_beyond_the_field_size_limit_is_parsed(tmp_path):
    rundir = tmp_path / "meta"
    run(RunConfig("meta"), dyadic_mix(np.random.default_rng(6), 300), None, rundir)
    width = max(map(len, (rundir / "steps.csv").read_text().splitlines()))
    limit = csv.field_size_limit(width // 4)
    try:
        result = passed_over(rundir)
        assert_same_outcome(result, csv_read(rundir))
        assert "field larger than field limit" in result
    finally:
        csv.field_size_limit(limit)


def test_a_summary_that_disagrees_with_the_cache_is_parsed(tree_run):
    summary = tree_run / "summary.json"
    data = json.loads(summary.read_text())
    for edit in ({"T": 1499}, {"config": {**data["config"], "forecaster": "eg"}},
                 {"config": {**data["config"], "d": 3}}):
        summary.write_text(json.dumps(data | edit))
        result = passed_over(tree_run)
        assert isinstance(result, str)
        assert result == csv_read(tree_run)


@pytest.mark.parametrize("fault", ["a-leaf-that-is-no-node", "a-member-in-a-tree-run"])
def test_a_faulty_log_with_a_cache_fails_as_its_csv_does(tmp_path, fault):
    rng = np.random.default_rng(8)
    source = tmp_path / "source"
    run(RunConfig("tree", d=1), rng.random(1200), rng.random(1200), source)
    log = read_run_log(source)
    if fault == "a-leaf-that-is-no-node":
        log.leaf_i[1100] = 2 ** log.leaf_h[1100] + 1
    else:
        set_members(log, 1100, [0.5])
    rundir = tmp_path / "faulty"
    write_run_log(log, rundir)
    assert (rundir / "steps.cache").exists()
    result = passed_over(rundir)
    assert result == csv_read(rundir) == {
        "a-leaf-that-is-no-node": f"row 1102: leaf_h '{log.leaf_h[1100]}', leaf_i "
                                  f"'{log.leaf_i[1100]}' is no node of a tree",
        "a-member-in-a-tree-run": "row 1102: 1 experts in a tree run, which logs no members",
    }[fault]


def _hand_log(preds=(0.5,) * 4, **fields):
    """An eg log built by hand, its ``fields`` given."""
    n = len(preds)
    summary = {"format": harness.LOG_FORMAT, "T": n, "cumulative_loss": 0.0,
               "data_digest": "0" * 64, "config": RunConfig("eg").to_dict(),
               "final": {"n_nodes": 1, "height": 0}}
    columns = {"t": np.arange(1, n + 1), "x": np.empty((n, 0)), "preds": np.array(preds),
               "ys": np.full(n, 0.5), "leaf_h": np.full(n, -1), "leaf_i": np.full(n, -1),
               "n_nodes": np.ones(n, np.int64), "height": np.zeros(n, np.int64),
               "pool": np.zeros(n, np.int64), "expert_preds": np.empty(0)} | fields
    return harness.RunLog(**columns, summary=summary)


def test_a_float_is_cached_as_its_cell_reads_back(tmp_path):
    # -0.0 keeps its sign; a NaN of any sign and payload reads back as float("nan")
    odd_nan = np.array([0x7FF0000000000123, 0xFFF8000000000000], np.uint64).view(np.float64)
    log = _hand_log([0.25, -0.0, *odd_nan.tolist(), float("inf")],
                    leaf_h=np.array([-1, -5, -1, -1, -1]))
    write_run_log(log, tmp_path)
    assert (tmp_path / "steps.cache").exists()
    cached = cached_read(tmp_path)
    assert_same_log(cached, csv_read(tmp_path))
    assert cached.preds[1:2].tobytes() == np.array([-0.0]).tobytes()
    assert cached.preds[2:4].tobytes() == np.array([float("nan")] * 2).tobytes()


MEMBERS = {"expert_preds": np.array([0.5, 0.5])}
POOL = "pool must hold 4 integers >= 0 adding up to the length of expert_preds$"


@pytest.mark.parametrize("fields, message", [
    ({"leaf_h": np.full(4, -1.0)}, r"leaf_h must be int64 of shape \(4,\)"),
    ({"preds": np.full(4, 0.5, np.float32)}, r"preds must be float64 of shape \(4,\)"),
    ({"t": np.array([1, 2, 4, 3])}, "t must be the int64 steps 1, 2"),
    ({"x": np.full((4, 1), 0.5)}, r"x must be float64 of shape \(4, 0\)"),
    ({"preds": np.empty(0), "t": np.empty(0, np.int64)}, "t must be the int64 steps 1, 2"),
    (MEMBERS | {"pool": np.array([0, -1, 1, 0])}, POOL),
    (MEMBERS | {"pool": np.array([0, 2, 1, 0])}, POOL),
    (MEMBERS | {"pool": np.array([0, 1, 0, 0])}, POOL),
    (MEMBERS | {"pool": np.zeros(3, np.int64)}, POOL),
    (MEMBERS | {"pool": np.array([0.0, 2.0, 0.0, 0.0])}, POOL),
], ids=["float-leaf", "float32", "out-of-order", "an-x-column", "empty", "a-negative-pool",
        "a-pool-of-more-than-the-values", "a-pool-of-fewer-than-the-values",
        "a-pool-a-step-short",
        "a-pool-not-of-integers"])
def test_a_log_that_read_run_log_could_not_return_is_rejected(tmp_path, fields, message):
    (tmp_path / "steps.csv").write_text("an earlier log")
    (tmp_path / "steps.cache").write_bytes(b"an earlier cache")
    before = tables(tmp_path)
    with pytest.raises(RejectedInputError, match=f"^{message}"):
        write_run_log(_hand_log(**fields), tmp_path)
    assert tables(tmp_path) == before


def _with_x(rundir, row, *texts):
    """Set the ``x`` cells of ``row`` (the header is row 1) and of the rows
    after it, one a text, in the log in ``rundir``."""
    steps = rundir / "steps.csv"
    lines = steps.read_text().split("\n")
    for k, text in enumerate(texts, start=row - 1):
        cells = lines[k].split(",")
        cells[1] = text
        lines[k] = ",".join(cells)
    steps.write_text("\n".join(lines))


# balanced: rows 1200 and 1201 hold 3 and 1 values, so their block still
# holds 2 values a row in all; each x cell is counted on its own
@pytest.mark.parametrize("forecaster, texts, message", [
    ("tree", ("0.5;0.25;0.75",), "row 1200: 3 x values in a tree run of d = 2"),
    ("tree", ("0.5",), "row 1200: 1 x values in a tree run of d = 2"),
    ("tree", ("0.5;0.25;0.75", "0.5"), "row 1200: 3 x values in a tree run of d = 2"),
    ("tree", ("0.5;abc",), "row 1200: x '0.5;abc' does not parse"),
    ("eg", ("0.5",), "row 1200: 1 x values in a eg run, which logs no covariates"),
    ("meta", ("0.5;0.25",), "row 1200: 2 x values in a meta run, which logs no covariates"),
], ids=["d+1-values", "d-1-values", "balanced", "not-a-number", "eg", "meta"])
def test_an_x_cell_that_is_not_the_covariate_row_fails_alike(tree_run, tmp_path, forecaster,
                                                              texts, message):
    rundir = tree_run
    if forecaster != "tree":
        rundir = tmp_path / forecaster
        run(RunConfig(forecaster), np.random.default_rng(11).random(1500), None, rundir)
    _with_x(rundir, 1200, *texts)
    assert passed_over(rundir) == csv_read(rundir) == message


def test_a_run_replaces_the_cache_of_an_earlier_run(tree_run, tmp_path):
    before = (tree_run / "steps.cache").read_bytes()
    run(RunConfig("eg"), np.random.default_rng(9).random(100), None, tree_run)
    assert (tree_run / "steps.cache").read_bytes() != before
    assert_same_log(cached_read(tree_run), csv_read(tree_run))


def test_a_rejected_run_leaves_the_directory_as_it_was(tree_run):
    before = tables(tree_run)
    with pytest.raises(RejectedInputError):
        run(RunConfig("tree", d=14), np.full(2000, 0.5), np.full((2000, 14), 0.3), tree_run)
    assert tables(tree_run) == before
    with pytest.raises(RejectedInputError):
        run(RunConfig("tree", d=14), np.full(2000, 0.5), np.full((2000, 14), 0.3),
            tree_run / "new")
    assert not (tree_run / "new").exists()


def test_a_failed_rename_of_the_cache_leaves_a_log_that_reads(tree_run, monkeypatch):
    replace = Path.replace

    def failing(self, target):
        if target.name == "steps.cache":
            raise PermissionError(13, "Permission denied", str(self))
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", failing)
    rng = np.random.default_rng(10)
    with pytest.raises(PermissionError):
        run(RunConfig("tree", d=2), rng.random(1300), rng.random((1300, 2)), tree_run)
    assert sorted(path.name for path in tree_run.iterdir()) == [
        "steps.cache", "steps.csv", "summary.json"]
    monkeypatch.undo()
    log = passed_over(tree_run)  # the cache is the earlier run's
    assert len(log) == 1300
    assert_same_log(log, csv_read(tree_run))
