import csv
import hashlib
import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from egtree.errors import RejectedInputError
from egtree.harness import (
    STEP_COLUMNS,
    RunConfig,
    RunLog,
    data_digest,
    expert_regret,
    fmt17,
    input_digest,
    read_covariates,
    read_run_log,
    read_series,
    run,
    verify_bounds,
    write_covariates,
    write_run_log,
    write_series,
    report,
)
from egtree.losses import LossSpec
from egtree.tree import PartitionTree, height_bound, node_count_bound

ABS = LossSpec("absolute")


def uniform(T, seed, d=None):
    rng = np.random.default_rng(seed)
    if d is None:
        return rng.random(T)
    return rng.random((T, d)), rng.random(T)


class TestRun:
    def test_constant_half_series_is_free_for_the_tracker(self):
        log = run(RunConfig("eg", ABS), np.full(500, 0.5))
        assert np.all(log.preds == 0.5)
        assert log.summary["cumulative_loss"] == 0.0

    def test_cumulative_equals_resummation(self):
        log = run(RunConfig("tree", ABS, d=2), *reversed(uniform(400, 1, d=2)))
        acc = 0.0
        for pred, y in zip(log.preds.tolist(), log.ys.tolist()):
            acc += ABS.value(pred, y)
        assert acc == log.summary["cumulative_loss"]

    @pytest.mark.parametrize("forecaster", ["eg", "tree", "meta"])
    def test_cumulative_loss_is_a_python_float(self, forecaster):
        xs, ys = uniform(200, 6, d=1)
        covariates = xs if forecaster == "tree" else None
        log = run(RunConfig(forecaster, ABS, d=1), ys, covariates)
        assert type(log.summary["cumulative_loss"]) is float

    def test_covariates_required_for_tree(self):
        with pytest.raises(RejectedInputError):
            run(RunConfig("tree", ABS), uniform(10, 0))
        with pytest.raises(RejectedInputError):
            run(RunConfig("eg", ABS), uniform(10, 0), np.zeros((10, 1)))

    def test_small_tree_run_respects_growth_cap(self):
        xs, ys = uniform(1000, 3, d=1)
        log = run(RunConfig("tree", ABS, d=1), ys, xs)
        assert log.summary["final"]["n_nodes"] <= node_count_bound(1, 1000)
        assert log.summary["final"]["n_nodes"] <= 81

    def test_meta_run_records_members(self):
        log = run(RunConfig("meta", ABS), uniform(300, 4))
        assert log.summary["final"]["n_active"] == 8  # next entry at 512
        assert len(log.expert_preds[-1]) == 8
        assert log.x_text == [""] * 300  # the y column holds the lag windows

    @pytest.mark.parametrize("schedule, max_d, T", [
        ("powers_of_two", None, 255),  # order 8 enters at step 256 = T + 1
        ("quadratic", None, 300),
        ("powers_of_two", 3, 300),
        ("quadratic", 2, 300),
    ])
    def test_final_members_match_the_log(self, schedule, max_d, T):
        log = run(RunConfig("meta", ABS, schedule=schedule, max_d=max_d), uniform(T, 7))
        final = log.summary["final"]
        members = final["experts"]
        assert [m["d"] for m in members] == list(range(1, final["n_active"] + 1))
        for m in members:
            # the first step whose experts cell holds d predictions; T + 1 if none does
            first = next((t for t, preds in enumerate(log.expert_preds, start=1)
                          if len(preds) >= m["d"]), T + 1)
            assert m["start"] == first, m
        assert sum(m["n_nodes"] for m in members) == final["n_nodes"] == log.n_nodes[-1]
        assert max(m["height"] for m in members) == final["height"] == log.height[-1]
        if max_d is not None:
            assert len(members) == max_d

    def test_a_leaf_index_beyond_64_bits_is_rejected(self):
        # one repeated point drives the tree past depth 64, where a leaf
        # index i < 2**h no longer fits the step log's int64 leaf_i
        T, d = 2000, 14
        tree = PartitionTree(d, ABS)
        for t in range(1, T + 1):
            tree._predict((0.3,) * d)
            tree.update(0.5)
            h, i = tree.trace()[:2]
            if i >= 2**63:
                break
        with pytest.raises(RejectedInputError,
                           match=f"^step {t}: the leaf at depth {h} has index {i}, beyond "
                                 "the 64 bits of the step log's leaf_i$"):
            run(RunConfig("tree", ABS, d=d), np.full(T, 0.5), np.full((T, d), 0.3))
        assert (t, h) == (1328, 78)

    def test_leaves_deeper_than_63_levels_read_back(self, tmp_path):
        # below depth 63 a leaf index still fits in 64 bits if the path
        # turns left often enough: such a log is a tree's and reads back
        T, d = 1300, 14
        log = run(RunConfig("tree", ABS, d=d), np.full(T, 0.5), np.full((T, d), 0.3))
        assert log.leaf_h.max() > 63
        write_run_log(log, tmp_path)
        back = read_run_log(tmp_path)
        assert np.array_equal(back.leaf_h, log.leaf_h)
        assert np.array_equal(back.leaf_i, log.leaf_i)

    def test_save_state_embeds_tree(self):
        xs, ys = uniform(50, 5, d=1)
        log = run(RunConfig("tree", ABS, d=1), ys, xs, save_state=True)
        assert "tree" in log.summary
        from egtree.tree import PartitionTree
        clone = PartitionTree.from_dict(log.summary["tree"])
        assert clone.n_nodes == log.summary["final"]["n_nodes"]

    def test_rejects_out_of_range(self):
        with pytest.raises(RejectedInputError):
            run(RunConfig("eg", ABS), np.array([0.5, 1.5, 0.2]))

    @pytest.mark.parametrize("bad, text", [(1.5, "1.5"), (float("nan"), "nan")])
    def test_an_observation_out_of_range_is_named_as_a_float(self, bad, text):
        with pytest.raises(RejectedInputError,
                           match=rf"^observation 2 outside \[0, 1\]: {text}$"):
            run(RunConfig("eg", ABS), [0.2, bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.5, -0.1])
    def test_rejects_bad_covariates_before_any_step(self, bad, monkeypatch):
        steps = []
        # a tree run predicts through _predict, which trusts its point
        monkeypatch.setattr(PartitionTree, "_predict", lambda self, x: steps.append(x))
        xs = [[0.5, 0.2], [0.4, bad], [bad, 0.3]]
        message = rf"^observation 2: covariate 2 outside \[0, 1\]: {re.escape(repr(bad))}$"
        with pytest.raises(RejectedInputError, match=message):
            run(RunConfig("tree", ABS, d=2), [0.1, 0.2, 0.3], xs)
        assert steps == []

    def test_config_rejects_unknown_schedule(self):
        with pytest.raises(RejectedInputError):
            RunConfig("meta", ABS, schedule="linear")
        with pytest.raises(RejectedInputError):
            RunConfig.from_dict({"forecaster": "meta", "schedule": "cubic"})

    @pytest.mark.parametrize("max_d", [0, -3, 2.5, "3", True])
    def test_config_rejects_max_d_below_one(self, max_d):
        with pytest.raises(RejectedInputError):
            RunConfig.from_dict({"forecaster": "meta", "max_d": max_d})

    @pytest.mark.parametrize("seed", ["abc", True, 1.5])
    def test_config_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(RejectedInputError, match="seed must be an integer"):
            RunConfig.from_dict({"forecaster": "eg", "seed": seed})

    @pytest.mark.parametrize("seed", [None, 0, 7, -2])
    def test_config_keeps_an_integer_seed(self, seed):
        assert RunConfig.from_dict({"forecaster": "eg", "seed": seed}).seed == seed


def with_cell(lines, row, column, text):
    """Step-log ``lines`` with the ``column`` cell of ``row`` (the header is row 1) replaced."""
    fields = lines[row - 1].split(",")
    fields[STEP_COLUMNS.index(column)] = text
    return lines[:row - 1] + [",".join(fields)] + lines[row:]


def blanked(lines, column):
    """Step-log ``lines`` with the ``column`` cell of every step emptied."""
    return lines[:1] + [with_cell([line], 1, column, "")[0] for line in lines[1:]]


class TestDeterminism:
    @pytest.mark.parametrize("forecaster", ["eg", "tree", "meta"])
    def test_identical_runs_are_byte_identical(self, forecaster, tmp_path):
        if forecaster == "tree":
            xs, ys = uniform(300, 6, d=2)
            cfg = RunConfig("tree", ABS, d=2)
        else:
            xs, ys = None, uniform(300, 6)
            cfg = RunConfig(forecaster, ABS)
        for name in ("a", "b"):
            write_run_log(run(cfg, ys, xs), tmp_path / name)
        steps_a = (tmp_path / "a" / "steps.csv").read_bytes()
        steps_b = (tmp_path / "b" / "steps.csv").read_bytes()
        assert steps_a == steps_b
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        sa.pop("wall_clock_sec"), sb.pop("wall_clock_sec")
        assert sa == sb

    def test_log_round_trip(self, tmp_path):
        log = run(RunConfig("meta", ABS), uniform(120, 7))
        write_run_log(log, tmp_path)
        back = read_run_log(tmp_path)
        assert np.array_equal(back.preds, log.preds)
        assert np.array_equal(back.ys, log.ys)
        assert back.expert_preds == [tuple(v) for v in log.expert_preds]
        assert back.expert_weights == [tuple(v) for v in log.expert_weights]
        assert back.summary == json.loads(json.dumps(log.summary))

    def test_long_tree_log_round_trip(self, tmp_path):
        xs, ys = uniform(2500, 10, d=2)
        log = run(RunConfig("tree", ABS, d=2), ys, xs)
        write_run_log(log, tmp_path)
        back = read_run_log(tmp_path)
        for name in ("t", "preds", "ys", "leaf_h", "leaf_i", "n_nodes", "height"):
            assert np.array_equal(getattr(back, name), getattr(log, name)), name
        assert back.x_text == log.x_text
        assert back.expert_preds == back.expert_weights == [()] * 2500

    @pytest.mark.parametrize("damage, message", [
        (lambda lines: lines[:1], "step log is empty"),
        (lambda lines: ["t,x,pred"] + lines[1:], "unrecognized step log header"),
        (lambda lines: lines[:1499] + [lines[1499] + ",9"] + lines[1500:],
         "row 1500: expected 10 fields, got 11"),
        (lambda lines: lines[:2100] + [lines[2100].rsplit(",", 1)[0]] + lines[2101:],
         "row 2101: expected 10 fields, got 9"),
        (lambda lines: lines[:700] + ["7" * 200_000] + lines[701:],
         "row 701: field larger than field limit"),
        (lambda lines: lines[:1] + [f"{1000 * k}," + line.split(",", 1)[1]
                                    for k, line in enumerate(lines[1:], start=1)],
         "row 2: t is 1000, expected 1"),
        (lambda lines: lines[:100] + [lines[101], lines[100]] + lines[102:],
         "row 101: t is 101, expected 100"),
        (lambda lines: lines[:2000], "step log has 1999 steps, its summary says T = 2500"),
        (lambda lines: with_cell(lines, 5, "pred", "abc"), "row 5: pred 'abc' does not parse"),
        (lambda lines: with_cell(lines, 1800, "experts", "x;y"),
         "row 1800: experts 'x;y' does not parse"),
        (lambda lines: with_cell(lines, 2501, "weights", "0.5;"),
         "row 2501: weights '0.5;' does not parse"),
        (lambda lines: with_cell(lines, 9, "leaf_h", "1.5"), "row 9: leaf_h '1.5' does not parse"),
        (lambda lines: with_cell(lines, 3, "n_nodes", ""), "row 3: n_nodes '' does not parse"),
        # the first and the last row of the second block of rows
        (lambda lines: with_cell(lines, 1026, "y", "abc"),
         "row 1026: y 'abc' does not parse"),
        (lambda lines: with_cell(lines, 2049, "height", "1e3"),
         "row 2049: height '1e3' does not parse"),
        (lambda lines: with_cell(lines, 1026, "experts", "0.5;x"),
         "row 1026: experts '0.5;x' does not parse"),
        # member predictions without their weights, and weights without members
        (lambda lines: with_cell(lines, 1700, "experts", "0.5"),
         "row 1700: 1 experts but 0 weights"),
        (lambda lines: with_cell(lines, 2049, "weights", "0.5;0.5"),
         "row 2049: 0 experts but 2 weights"),
    ])
    def test_damaged_step_log_rejected(self, tmp_path, damage, message):
        xs, ys = uniform(2500, 10, d=2)
        write_run_log(run(RunConfig("tree", ABS, d=2), ys, xs), tmp_path)
        steps = tmp_path / "steps.csv"
        steps.write_text("\n".join(damage(steps.read_text().splitlines())) + "\n")
        with pytest.raises(RejectedInputError, match=message):
            read_run_log(tmp_path)

    def test_meta_step_with_an_extra_member_prediction_rejected(self, tmp_path):
        write_run_log(run(RunConfig("meta", ABS), uniform(300, 3)), tmp_path)
        steps = tmp_path / "steps.csv"
        lines = steps.read_text().splitlines()
        experts = lines[-1].split(",")[STEP_COLUMNS.index("experts")]
        steps.write_text("\n".join(with_cell(lines, 301, "experts", experts + ";0.5")) + "\n")
        with pytest.raises(RejectedInputError, match="^row 301: 9 experts but 8 weights$"):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("column, text", [
        ("n_nodes", "99999999999999999999"), ("height", "-9223372036854775809"),
        ("t", "9223372036854775808"), ("leaf_h", "99999999999999999999")])
    def test_integer_beyond_int64_rejected(self, tmp_path, column, text):
        write_run_log(run(RunConfig("eg", ABS), [0.2, 0.4, 0.9, 0.1]), tmp_path)
        steps = tmp_path / "steps.csv"
        steps.write_text("\n".join(with_cell(steps.read_text().splitlines(), 3, column, text))
                         + "\n")
        with pytest.raises(RejectedInputError,
                           match=f"^row 3: {column} '{text}' does not fit in 64 bits$"):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("column", ["leaf_h", "leaf_i", "n_nodes", "height"])
    @pytest.mark.parametrize("text, fault", [
        ("abc", "does not parse"), ("1.5", "does not parse"),
        ("99999999999999999999", "does not fit in 64 bits"),
        ("-9223372036854775809", "does not fit in 64 bits")])
    def test_a_bad_cell_repeated_in_many_rows_is_named_at_its_first(self, tmp_path, column,
                                                                    text, fault):
        # the same bad cell in many rows of a block: the first row is named
        xs, ys = uniform(2500, 10, d=2)
        write_run_log(run(RunConfig("tree", ABS, d=2), ys, xs), tmp_path)
        steps = tmp_path / "steps.csv"
        lines = steps.read_text().splitlines()
        for row in (1900, 1300, 2000, 1101, 1100, 2400, 1500):
            lines = with_cell(lines, row, column, text)
        steps.write_text("\n".join(lines) + "\n")
        with pytest.raises(RejectedInputError, match=f"^row 1100: {column} '{text}' {fault}$"):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("faults, message", [
        # an earlier block of rows wins, whatever the columns
        ([(1100, "pred", "abc"), (1000, "weights", "x")], "row 1000: weights 'x'"),
        ([(1500, "t", "9"), (1025, "experts", "x")], "row 1025: experts 'x'"),
        # within a block, a cell that does not parse: the columns in log
        # order, then the rows; then a step number out of sequence; then a
        # step whose experts and weights counts differ
        ([(900, "pred", "abc"), (500, "weights", "x")], "row 900: pred 'abc'"),
        ([(1300, "y", "abc"), (1200, "y", "def")], "row 1200: y 'def'"),
        ([(1100, "t", "9"), (1200, "weights", "x")], "row 1200: weights 'x'"),
        ([(1100, "t", "9"), (1200, "t", "7")], "row 1100: t is 9, expected 1099"),
        ([(1100, "experts", "0.5"), (1200, "t", "9")], "row 1200: t is 9, expected 1199"),
        ([(1000, "experts", "0.5"), (1100, "t", "9")], "row 1000: 1 experts but 0 weights"),
        ([(1100, "experts", "0.5"), (1200, "pred", "abc")], "row 1200: pred 'abc'"),
        # within a column, a cell that does not parse before an integer beyond
        # 64 bits; an earlier column's integer beyond 64 bits first
        ([(1100, "n_nodes", "99999999999999999999"), (1200, "n_nodes", "abc")],
         "row 1200: n_nodes 'abc' does not parse$"),
        ([(1100, "t", "9223372036854775808"), (1050, "pred", "abc")],
         "row 1100: t '9223372036854775808' does not fit in 64 bits$"),
        # then a leaf that is no node of a tree, after the member counts
        ([(1100, "leaf_i", "0"), (1200, "experts", "0.5")], "row 1200: 1 experts but 0"),
        ([(1100, "leaf_i", "0"), (1050, "t", "9")], "row 1050: t is 9"),
        ([(1100, "leaf_i", "0"), (1200, "leaf_h", "-1")], "row 1100: leaf_h '"),
    ])
    def test_first_fault_of_a_damaged_step_log(self, tmp_path, faults, message):
        xs, ys = uniform(2500, 10, d=2)
        write_run_log(run(RunConfig("tree", ABS, d=2), ys, xs), tmp_path)
        steps = tmp_path / "steps.csv"
        lines = steps.read_text().splitlines()
        for row, column, text in faults:
            lines = with_cell(lines, row, column, text)
        steps.write_text("\n".join(lines) + "\n")
        with pytest.raises(RejectedInputError, match=f"^{message}"):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("damage, message", [
        # no leaf on any row, or a leaf index on none
        (lambda lines: blanked(blanked(lines, "leaf_h"), "leaf_i"),
         "^row 2: leaf_h '', leaf_i '' is no node of a tree$"),
        (lambda lines: blanked(lines, "leaf_i"),
         "^row 2: leaf_h '0', leaf_i '' is no node of a tree$"),
        (lambda lines: with_cell(lines, 2500, "leaf_i", ""), "^row 2500: leaf_h '.*', leaf_i ''"),
        (lambda lines: with_cell(lines, 1800, "leaf_h", "-2"), "^row 1800: leaf_h '-2'"),
        (lambda lines: with_cell(lines, 3001, "leaf_i", "0"), "^row 3001: .* leaf_i '0' is no"),
        # (h, 2**h + 1) lies beyond the last node of depth h
        (lambda lines: with_cell(lines, 900, "leaf_i", str(
            2**int(lines[899].split(",")[STEP_COLUMNS.index("leaf_h")]) + 1)),
         "^row 900: .* is no node of a tree$"),
    ])
    def test_a_tree_log_with_an_impossible_leaf_is_rejected(self, tmp_path, damage, message):
        xs, ys = uniform(3000, 12, d=1)
        write_run_log(run(RunConfig("tree", ABS, d=1), ys, xs), tmp_path)
        steps = tmp_path / "steps.csv"
        steps.write_text("\n".join(damage(steps.read_text().splitlines())) + "\n")
        with pytest.raises(RejectedInputError, match=message):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("forecaster", ["eg", "meta"])
    @pytest.mark.parametrize("column, text", [("leaf_h", "0"), ("leaf_i", "1"), ("leaf_h", "-2")])
    def test_a_leaf_outside_a_tree_run_is_rejected(self, tmp_path, forecaster, column, text):
        write_run_log(run(RunConfig(forecaster, ABS), uniform(300, 3)), tmp_path)
        steps = tmp_path / "steps.csv"
        steps.write_text("\n".join(with_cell(steps.read_text().splitlines(), 200, column, text))
                         + "\n")
        cells = {"leaf_h": "''", "leaf_i": "''", column: repr(text)}
        with pytest.raises(RejectedInputError,
                           match=f"^row 200: leaf_h {cells['leaf_h']}, leaf_i {cells['leaf_i']} "
                                 f"in a {forecaster} run, which logs no leaf$"):
            read_run_log(tmp_path)

    @pytest.mark.parametrize("damage, message", [
        (lambda summary: "{not json", "is not valid JSON"),
        (lambda summary: "[1, 2]", "must hold a JSON object, got list"),
        (lambda summary: {k: v for k, v in summary.items() if k != "config"}, "has no 'config'"),
        (lambda summary: {k: v for k, v in summary.items() if k != "T"}, "has no 'T'"),
        (lambda summary: {k: v for k, v in summary.items() if k != "final"}, "has no 'final'"),
        (lambda summary: {k: v for k, v in summary.items() if k != "cumulative_loss"},
         "has no 'cumulative_loss'"),
        (lambda summary: {**summary, "T": "2500"}, "'T' must be an integer"),
        (lambda summary: {**summary, "config": {"forecaster": "lstm"}}, "unknown forecaster"),
        (lambda summary: {**summary, "config": {**summary["config"], "depth": 3}},
         "config has an unknown key 'depth'"),
        (lambda summary: {**summary, "final": {"height": 3}}, "final has no 'n_nodes'"),
    ])
    def test_damaged_summary_rejected(self, tmp_path, damage, message):
        xs, ys = uniform(2500, 10, d=2)
        write_run_log(run(RunConfig("tree", ABS, d=2), ys, xs), tmp_path)
        path = tmp_path / "summary.json"
        damaged = damage(json.loads(path.read_text()))
        path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        with pytest.raises(RejectedInputError, match=message):
            read_run_log(tmp_path)


class TestCsvFormats:
    def test_series_round_trip(self, tmp_path):
        ys = uniform(40, 8)
        path = tmp_path / "series.csv"
        write_series(path, ys)
        assert np.array_equal(read_series(path), ys)

    def test_covariates_round_trip(self, tmp_path):
        xs, ys = uniform(40, 9, d=3)
        path = tmp_path / "cov.csv"
        write_covariates(path, xs, ys)
        xs2, ys2 = read_covariates(path)
        assert np.array_equal(xs2, xs) and np.array_equal(ys2, ys)

    def test_flat_covariates_are_one_column(self, tmp_path):
        # as in run and data_digest, a one-dimensional xs is one covariate
        xs, ys = [0.1, 0.2, 0.3], uniform(3, 10)
        path = tmp_path / "cov.csv"
        write_covariates(path, xs, ys)
        assert path.read_text().splitlines()[0] == "x1,y"
        xs2, ys2 = read_covariates(path)
        assert xs2.shape == (3, 1)
        assert np.array_equal(xs2[:, 0], xs) and np.array_equal(ys2, ys)
        assert input_digest(path, "0" * 64) == data_digest(ys, xs)
        with pytest.raises(RejectedInputError, match="2 covariate rows for 3 observations"):
            write_covariates(path, xs[:2], ys)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,value\n1,0.5\n")
        with pytest.raises(RejectedInputError):
            read_series(p)

    def test_row_numbered_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y\n1,0.5\n2,0.5,9\n")
        with pytest.raises(RejectedInputError, match="row 3"):
            read_series(p)

    def test_row_numbered_range_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y\n1,0.5\n2,1.7\n")
        with pytest.raises(RejectedInputError, match="row 3"):
            read_series(p)

    def test_row_numbered_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y\n1,abc\n")
        with pytest.raises(RejectedInputError, match="row 2"):
            read_series(p)

    def test_first_fault_of_a_block_in_row_major_order(self, tmp_path):
        # the range fault sits in an earlier row, but a later column, than a
        # cell that is no number; both share one block of rows
        p = tmp_path / "bad.csv"
        p.write_text("x1,x2,y\n0.1,0.2,0.3\n0.5,1.5,0.2\nabc,0.1,0.1\n")
        with pytest.raises(RejectedInputError, match=r"^row 3: covariate 1.5 outside"):
            read_covariates(p)
        p.write_text("x1,x2,y\n0.1,0.2,0.3\n0.5,0.5,abc\n1.5,0.1,0.1\n")
        with pytest.raises(RejectedInputError, match=r"^row 3: observation 'abc' is not"):
            read_covariates(p)

    def test_empty_series_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("t,y\n")
        with pytest.raises(RejectedInputError):
            read_series(p)

    def test_fmt17_round_trips(self):
        rng = np.random.default_rng(10)
        for v in rng.random(200):
            assert float(fmt17(float(v))) == float(v)


class TestVerifyBounds:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), effective_range=st.booleans(), T=st.integers(1, 600),
           seed=st.integers(0, 2**16), dyadic=st.booleans(),
           loss=st.sampled_from([ABS, LossSpec("square"), LossSpec("pinball", 0.3)]))
    def test_per_leaf_checks_match_the_dict_of_step_lists(self, d, effective_range, T, seed,
                                                          dyadic, loss):
        xs, ys = uniform(T, seed, d=d)
        if dyadic:  # ties: exact quarters route to cut points and repeat outcomes
            xs, ys = np.round(4 * xs) / 4, np.round(4 * ys) / 4
        log = run(RunConfig("tree", loss, d=d, effective_range=effective_range), ys, xs)
        checks = {c.name: c for c in verify_bounds(log)}
        node_best, sqrt_sum = reference.leaf_decomposition(log, loss)
        resummed = checks["cumulative-loss-resummation"].achieved
        decomposed = checks["per-leaf-decomposition"]
        assert decomposed.achieved == resummed - node_best
        assert decomposed.bound == 3.0 * loss.M * sqrt_sum
        assert checks["visit-concentration"].achieved == sqrt_sum

    def test_eg_run_passes_all(self):
        log = run(RunConfig("eg", ABS), uniform(2000, 11))
        checks = verify_bounds(log)
        assert all(c.passed for c in checks)
        assert any(c.name == "constant-regret" for c in checks)

    def test_tree_run_passes_all(self):
        xs, ys = uniform(2000, 12, d=2)
        checks = verify_bounds(run(RunConfig("tree", ABS, d=2), ys, xs))
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert {"node-count-growth", "height-growth", "leaf-within-height",
                "per-leaf-decomposition", "visit-concentration"} <= names

    @pytest.mark.parametrize("column, name, cap", [
        ("n_nodes", "node-count-growth", node_count_bound),
        ("height", "height-growth", height_bound),
    ])
    def test_growth_checks_compare_each_step_with_its_own_cap(self, column, name, cap):
        xs, ys = uniform(500, 12, d=2)
        log = run(RunConfig("tree", ABS, d=2), ys, xs)
        # a step t whose successor's cap passes the next integer
        t = next(t for t in range(100, 500) if int(cap(2, t + 1)) > int(cap(2, t)))
        value = int(cap(2, t + 1))
        getattr(log, column)[t] = value  # step t + 1, at its cap: passes
        assert next(c for c in verify_bounds(log) if c.name == name).passed
        getattr(log, column)[t - 1] = value  # step t, over its own cap
        assert not next(c for c in verify_bounds(log) if c.name == name).passed

    def test_tree_run_with_lipschitz_comparator(self):
        xs, ys = uniform(1500, 13, d=1)
        checks = verify_bounds(run(RunConfig("tree", ABS, d=1), ys, xs), lipschitz_L=1.0)
        assert all(c.passed for c in checks)
        assert any(c.name.startswith("lipschitz-regret") for c in checks)

    def test_meta_run_passes_all(self):
        checks = verify_bounds(run(RunConfig("meta", ABS), uniform(2000, 14)),
                               lipschitz_L=1.0)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "weight-simplex" in names
        assert any(n.startswith("mixture-regret") for n in names)
        assert any(n.startswith("combined-regret") for n in names)

    @pytest.mark.parametrize("forecaster, d, T", [("eg", 1, 50), ("tree", 2, 50),
                                                  ("meta", 1, 1)])
    def test_lipschitz_check_that_does_not_apply_is_rejected(self, forecaster, d, T):
        xs, ys = uniform(T, 24, d=d) if forecaster == "tree" else (None, uniform(T, 24))
        log = run(RunConfig(forecaster, ABS, d=d), ys, xs)
        assert verify_bounds(log)
        with pytest.raises(RejectedInputError, match="no Lipschitz-comparator check"):
            verify_bounds(log, lipschitz_L=1.0)

    def test_single_member_pool_uses_raw_form(self):
        log = run(RunConfig("meta", ABS, max_d=1), uniform(500, 15))
        checks = verify_bounds(log)
        note = next(c for c in checks if c.name == "mixture-regret(d=1)")
        assert note.passed and "single-member" in note.note

    def test_empty_log_rejected(self):
        log = run(RunConfig("eg", ABS), uniform(5, 16))
        empty = RunLog(np.empty(0, dtype=np.int64), [], np.empty(0), np.empty(0),
                       np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64), [], [], log.summary)
        with pytest.raises(RejectedInputError):
            verify_bounds(empty)

    def test_tampered_log_fails(self):
        log = run(RunConfig("eg", ABS), uniform(50, 17))
        log.summary["cumulative_loss"] += 0.25
        checks = verify_bounds(log)
        assert not all(c.passed for c in checks)

    @pytest.mark.parametrize("weights", [("nan",), ("inf", "-inf")])
    def test_a_weight_without_a_sum_fails_the_simplex_check(self, tmp_path, weights):
        write_run_log(run(RunConfig("meta", ABS), uniform(60, 17)), tmp_path)
        steps = tmp_path / "steps.csv"
        lines = steps.read_text().splitlines()
        cell = lines[39].split(",")[STEP_COLUMNS.index("weights")].split(";")
        assert len(cell) == 5
        cell[1:1 + len(weights)] = weights
        steps.write_text("\n".join(with_cell(lines, 40, "weights", ";".join(cell))) + "\n")
        checks = verify_bounds(read_run_log(tmp_path))
        check = next(c for c in checks if c.name == "weight-simplex")
        assert not check.passed and math.isnan(check.achieved)
        assert [c.name for c in checks if not c.passed] == ["weight-simplex"]

    @pytest.mark.parametrize("column, named", [("preds", "pred"), ("ys", "outcome")])
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_an_out_of_range_logged_value_is_rejected(self, column, named, bad):
        log = run(RunConfig("eg", ABS), uniform(100, 18))
        getattr(log, column)[[40, 70]] = bad, 2.0  # the first bad step is named
        with pytest.raises(RejectedInputError,
                           match=rf"^{named} must lie in \[0, 1\], got {re.escape(repr(bad))}$"):
            verify_bounds(log)

    @pytest.mark.parametrize("edit", ["member-leaves", "two-entrants"])
    def test_a_pool_that_does_not_grow_one_at_a_time_fails(self, edit):
        log = run(RunConfig("meta", ABS), uniform(100, 18))
        k = next(k for k in range(1, 100)
                 if len(log.expert_preds[k]) == len(log.expert_preds[k - 1]) >= 2)
        preds = log.expert_preds[k]
        log.expert_preds[k] = preds[:-1] if edit == "member-leaves" else preds + (0.5, 0.5)
        checks = verify_bounds(log)
        assert [c.name for c in checks if not c.passed] == ["one-entrant-per-step"]

    def test_expert_regret_requires_active_member(self):
        log = run(RunConfig("meta", ABS), uniform(100, 18))
        with pytest.raises(RejectedInputError):
            expert_regret(log, 25)

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_expert_regret_rejects_an_out_of_range_member_prediction(self, bad):
        log = run(RunConfig("meta", ABS), uniform(100, 18))
        k = 60
        preds = list(log.expert_preds[k])
        preds[1] = bad
        log.expert_preds[k] = tuple(preds)
        assert math.isfinite(expert_regret(log, 1))  # order 1 is untouched
        with pytest.raises(RejectedInputError, match=rf"pred must lie in \[0, 1\], got {bad!r}"):
            expert_regret(log, 2)

    @pytest.mark.parametrize("loss", [ABS, LossSpec("square"), LossSpec("pinball", 0.3)],
                             ids=lambda spec: spec.kind)
    def test_expert_regret_adds_the_per_step_gaps_left_to_right(self, loss):
        log = run(RunConfig("meta", loss), uniform(700, 23))
        for d in range(1, len(log.expert_preds[-1]) + 1):
            total = 0.0
            for preds, pred, y in zip(log.expert_preds, log.preds.tolist(), log.ys.tolist()):
                if len(preds) >= d:
                    total += loss.value(pred, y) - loss.value(preds[d - 1], y)
            assert expert_regret(log, d) == total

    @pytest.mark.parametrize("loss", [ABS, LossSpec("square"), LossSpec("pinball", 0.3)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("forecaster", ["eg", "tree", "meta"])
    def test_checks_are_json_safe(self, forecaster, loss):
        if forecaster == "tree":
            xs, ys = uniform(200, 21, d=1)
        else:
            xs, ys = None, uniform(200, 21)
        log = run(RunConfig(forecaster, loss), ys, xs)
        checks = verify_bounds(log, lipschitz_L=None if forecaster == "eg" else 1.0)
        for c in checks:
            d = c.to_dict()
            assert json.loads(json.dumps(d)) == d, c.name
            assert type(c.passed) is bool, c.name
            assert type(c.bound) is float and type(c.achieved) is float, c.name
        if forecaster == "meta":
            assert type(expert_regret(log, 1)) is float

    def test_digest_is_input_sensitive(self):
        ys = uniform(30, 19)
        assert data_digest(ys) != data_digest(ys[::-1].copy())
        assert data_digest(ys) == data_digest(list(map(float, ys)))

    def test_digest_bytes_are_pinned(self):
        # values computed by the per-value digest this one replaced
        rng = np.random.default_rng(5)
        xs = rng.random((200, 2))
        xs[:4] = [[0.0, 1.0], [0.5, 0.25], [1.0, 1.0], [1e-300, 0.1]]
        ys = rng.random(200)
        ys[:3] = [0.0, 1.0, 0.5]
        assert data_digest(ys, xs) == (
            "989732a66dcb6e511fbde7101a359a48c0f984cc4c7145fcab9cb1c5c8dd5661")
        assert data_digest(ys) == (
            "4849fe9a9438029e9f303b63f2e022b6062b963a443fae0966a6c38a20ef3167")

    def test_digest_reads_flat_covariates_as_one_column(self):
        xs, ys = uniform(40, 22, d=1)
        assert data_digest(ys, xs[:, 0]) == data_digest(ys, xs)
        with pytest.raises(RejectedInputError):
            data_digest(ys, xs[:-1])

    def test_combined_bound_comes_from_autoregressive(self):
        from egtree.autoregressive import combined_regret_bound

        T = 600
        log = run(RunConfig("meta", ABS), uniform(T, 23))
        check = next(c for c in verify_bounds(log, lipschitz_L=1.0)
                     if c.name.startswith("combined-regret"))
        n_active = log.summary["final"]["n_active"]
        assert check.bound == combined_regret_bound(ABS.M, 1.0, 1, T, 2, n_active)


class TestReport:
    def test_single_run_tables(self, tmp_path):
        log = run(RunConfig("meta", ABS), uniform(200, 20))
        write_run_log(log, tmp_path / "r0")
        tables = report([tmp_path / "r0"], tmp_path / "tables")
        assert (tmp_path / "tables" / "runs.csv").exists()
        assert (tmp_path / "tables" / "avg_loss_vs_T.csv").exists()
        assert (tmp_path / "tables" / "node_growth.csv").exists()
        assert (tmp_path / "tables" / "weights.csv").exists()
        row = tables["runs"][0]
        assert row["avg_loss"] == pytest.approx(log.summary["cumulative_loss"] / 200)

    def test_aggregates_across_seeds(self, tmp_path):
        dirs = []
        for seed in range(3):
            cfg = RunConfig("eg", ABS, seed=seed)
            write_run_log(run(cfg, uniform(100, seed)), tmp_path / f"r{seed}")
            dirs.append(tmp_path / f"r{seed}")
        tables = report(dirs, tmp_path / "tables")
        assert tables["groups"] == {"eg/T=100": 3}
        lines = (tmp_path / "tables" / "avg_loss_vs_T.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("eg,100,3,")

    def test_weights_rows_are_csv_rows(self, tmp_path):
        # the run name is quoted as csv quotes it; a % in it is text
        name = 'a,b"c%d'
        log = run(RunConfig("meta", ABS), uniform(60, 3))
        write_run_log(log, tmp_path / name)
        report([tmp_path / name], tmp_path / "tables")
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("run", "t", "d", "weight"))
        writer.writerows((name, t, d, "%.17g" % w) for t, weights in
                         zip(log.t.tolist(), log.expert_weights)
                         for d, w in enumerate(weights, start=1))
        assert (tmp_path / "tables" / "weights.csv").read_text() == expected.getvalue()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("run", "t", "n_nodes", "height"))
        writer.writerows(zip(itertools.repeat(name), log.t.tolist(), log.n_nodes.tolist(),
                             log.height.tolist()))
        assert (tmp_path / "tables" / "node_growth.csv").read_text() == expected.getvalue()

    def test_requires_runs(self, tmp_path):
        with pytest.raises(RejectedInputError):
            report([], tmp_path)

    def test_a_rejected_run_leaves_no_tables(self, tmp_path):
        for name in ("good", "bad"):
            write_run_log(run(RunConfig("meta", ABS), uniform(50, 4)), tmp_path / name)
        steps = tmp_path / "bad" / "steps.csv"
        steps.write_text(steps.read_text().replace("\n30,", "\n31,", 1))
        with pytest.raises(RejectedInputError, match="row 31: t is 31, expected 30"):
            report([tmp_path / "good", tmp_path / "bad"], tmp_path / "tables")
        assert not (tmp_path / "tables").exists()

    def test_table_bytes_are_pinned(self, tmp_path):
        # digests of the tables written by the row-by-row report this one replaced
        rng = np.random.default_rng(41)
        write_run_log(run(RunConfig("meta", ABS, seed=41), rng.random(600)),
                      tmp_path / "meta-run")
        rng = np.random.default_rng(42)
        xs, ys = rng.random((600, 2)), rng.random(600)
        write_run_log(run(RunConfig("tree", ABS, d=2, seed=42), ys, xs), tmp_path / "tree-run")
        report([tmp_path / "meta-run", tmp_path / "tree-run"], tmp_path / "tables")
        pinned = {
            "runs.csv": "90d959ef5dbaa5640fc9949524f41e626a722411f0d04904c86051d18d9fa5de",
            "avg_loss_vs_T.csv":
                "68cb6116df0152777771267eec03931e1e9cb2e077a290c0e1743928a930f079",
            "node_growth.csv":
                "b6d04a5f2a36a9b8a8ba4f8e1e64ce32528d31995cef2cfc2693c6af6d93f5c0",
            "weights.csv": "afcd8011bd8ccf146becd4c492299ab625d565e21edccae590057be3b3fca1fb",
        }
        for name, digest in pinned.items():
            data = (tmp_path / "tables" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
