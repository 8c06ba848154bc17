import csv
import json
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import reference
from egtree import harness
from egtree.cli import main
from egtree.harness import (
    STEP_COLUMNS,
    BoundCheck,
    data_digest,
    read_input,
    read_run_log,
    write_covariates,
    write_series,
)


@pytest.fixture
def markov_spec(tmp_path):
    spec = {"kind": "markov", "seed": 5, "emissions": [0.25, 0.75],
            "transition": [[0.9, 0.1], [0.1, 0.9]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_import_freezes_the_heap():
    # a fresh interpreter: this test process may have frozen its heap already
    code = "import gc, egtree.cli; print(gc.get_freeze_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert int(out) > 0


def test_simulate_writes_series_and_metadata(markov_spec, tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["simulate", "--spec", str(markov_spec), "--T", "200",
                 "--seed", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y" and len(lines) == 201
    meta = json.loads((tmp_path / "series.csv.meta.json").read_text())
    assert meta["rng"] == "pcg64" and meta["seed"] == 9
    printed = json.loads(capsys.readouterr().out)
    assert printed["digest"] == meta["digest"]


def test_simulate_is_reproducible(markov_spec, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--spec", str(markov_spec), "--T", "100", "--out", str(a)])
    main(["simulate", "--spec", str(markov_spec), "--T", "100", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_verify_report_pipeline(markov_spec, tmp_path, capsys):
    series = tmp_path / "series.csv"
    main(["simulate", "--spec", str(markov_spec), "--T", "400", "--out", str(series)])
    capsys.readouterr()

    rundir = tmp_path / "run-meta"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", "meta"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["T"] == 400
    assert (rundir / "steps.csv").exists() and (rundir / "summary.json").exists()

    assert main(["verify-bounds", "--out", str(rundir), "--input", str(series),
                 "--L", "1.0"]) == 0
    shown = capsys.readouterr().out
    assert "PASS" in shown and "FAIL" not in shown
    assert (rundir / "bounds.json").exists()
    bounds = json.loads((rundir / "bounds.json").read_text())
    n_pass = sum(line.startswith("PASS ") for line in shown.splitlines())
    assert len(bounds) == n_pass
    assert all(entry["passed"] is True for entry in bounds)

    tables = tmp_path / "tables"
    assert main(["report", "--out", str(tables), str(rundir)]) == 0
    assert (tables / "runs.csv").exists()


def test_report_from_inside_the_run_directory(markov_spec, tmp_path, capsys, monkeypatch):
    series = tmp_path / "series.csv"
    main(["simulate", "--spec", str(markov_spec), "--T", "50", "--out", str(series)])
    rundir = tmp_path / "run-meta"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", "meta"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(rundir)
    assert main(["report", "--out", "t", "."]) == 0
    assert capsys.readouterr().out.startswith("run-meta: meta T=50 ")
    for table in ("runs.csv", "node_growth.csv", "weights.csv"):
        rows = (rundir / "t" / table).read_text().splitlines()[1:]
        assert rows and all(row.startswith("run-meta,") for row in rows), table


def test_verify_refuses_mismatched_input(markov_spec, tmp_path, capsys):
    series = tmp_path / "series.csv"
    other = tmp_path / "other.csv"
    main(["simulate", "--spec", str(markov_spec), "--T", "100", "--out", str(series)])
    main(["simulate", "--spec", str(markov_spec), "--T", "100", "--seed", "77",
          "--out", str(other)])
    rundir = tmp_path / "run"
    main(["run", "--input", str(series), "--out", str(rundir), "--forecaster", "eg"])
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(other)]) == 2
    assert "REFUSED" in capsys.readouterr().err


def test_verify_leaves_no_partial_bounds_file(tmp_path, monkeypatch, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    rundir = tmp_path / "run"
    main(["run", "--input", str(series), "--out", str(rundir), "--forecaster", "eg"])
    monkeypatch.setattr(BoundCheck, "to_dict", lambda self: {"passed": object()})
    with pytest.raises(TypeError):
        main(["verify-bounds", "--out", str(rundir)])
    assert not (rundir / "bounds.json").exists()
    capsys.readouterr()


def test_run_tree_on_covariates_with_state(tmp_path, capsys):
    rng = np.random.default_rng(3)
    xs, ys = rng.random((300, 2)), rng.random(300)
    cov = tmp_path / "cov.csv"
    write_covariates(cov, xs, ys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forecaster": "tree", "d": 2,
                                  "loss": {"kind": "square"}}))
    rundir = tmp_path / "run-tree"
    assert main(["run", "--config", str(config), "--input", str(cov),
                 "--out", str(rundir), "--save-state"]) == 0
    state = json.loads((rundir / "tree.json").read_text())
    assert state["d"] == 2 and len(state["nodes"]) >= 3
    log = read_run_log(rundir)
    assert log.summary["config"]["loss"]["kind"] == "square"
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(cov)]) == 0
    capsys.readouterr()


def test_effective_range_flag_freezes_constant_stream(tmp_path, capsys):
    xs = np.full((200, 1), 0.4)
    ys = np.random.default_rng(8).random(200)
    cov = tmp_path / "cov.csv"
    write_covariates(cov, xs, ys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forecaster": "tree", "d": 1}))
    rundir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--input", str(cov),
                 "--out", str(rundir), "--effective-range"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["final"]["n_nodes"] == 1


def test_oracle_constant_json(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.2, 0.8])
    assert main(["oracle", "--input", str(series), "--kind", "constant"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "constant"
    assert out["loss"] == pytest.approx(0.6, abs=1e-6)
    assert out["argmin"] == pytest.approx(0.2, abs=1e-6)


def test_oracle_histogram_on_covariates(tmp_path, capsys):
    cov = tmp_path / "c.csv"
    write_covariates(cov, [[0.1], [0.2], [0.8], [0.9]], [0.0, 0.0, 1.0, 1.0])
    assert main(["oracle", "--input", str(cov), "--kind", "histogram",
                 "--bins", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["loss"] == pytest.approx(0.0, abs=1e-9)


def test_oracle_lipschitz_with_lag(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.25, 0.75, 0.25, 0.75, 0.25, 0.75, 0.25])
    assert main(["oracle", "--input", str(series), "--kind", "lipschitz",
                 "--lag", "1", "--L", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["loss"] == pytest.approx(0.0, abs=1e-9)
    assert out["params"]["L"] == 1.0


def test_pinball_loss_flag(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.1, 0.5, 0.9, 0.4])
    assert main(["oracle", "--input", str(series), "--kind", "constant",
                 "--loss", "pinball", "--alpha", "0.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["argmin"] <= 1.0


def test_domain_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y\n1,2.5\n")
    rc = main(["run", "--input", str(bad), "--out", str(tmp_path / "r"),
               "--forecaster", "eg"])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


def _run_with_config(tmp_path, text):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    config = tmp_path / "config.json"
    config.write_text(text)
    return main(["run", "--config", str(config), "--input", str(series),
                 "--out", str(tmp_path / "r")])


def test_malformed_config_json_exits_two(tmp_path, capsys):
    assert _run_with_config(tmp_path, '{"forecaster": "eg",') == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_config_top_level_must_be_an_object(tmp_path, capsys):
    assert _run_with_config(tmp_path, '["eg"]') == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_effective_range_must_be_a_boolean(tmp_path, capsys):
    text = json.dumps({"forecaster": "eg", "effective_range": "false"})
    assert _run_with_config(tmp_path, text) == 2
    assert "effective_range" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("d", [2.5, "x"])
def test_config_d_must_be_an_integer(tmp_path, capsys, d):
    assert _run_with_config(tmp_path, json.dumps({"forecaster": "eg", "d": d})) == 2
    assert "d must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_config_loss_needs_a_kind(tmp_path, capsys):
    text = json.dumps({"forecaster": "eg", "loss": {"alpha": 0.3}})
    assert _run_with_config(tmp_path, text) == 2
    assert "'kind'" in capsys.readouterr().err


def test_config_pinball_alpha_must_be_a_number(tmp_path, capsys):
    text = json.dumps({"forecaster": "eg", "loss": {"kind": "pinball", "alpha": "0.3"}})
    assert _run_with_config(tmp_path, text) == 2
    assert "alpha in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["abc", True, 1.5])
def test_config_seed_must_be_an_integer(tmp_path, capsys, seed):
    assert _run_with_config(tmp_path, json.dumps({"forecaster": "eg", "seed": seed})) == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_oversized_csv_field_exits_two(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(series), "--out", str(rundir), "--forecaster", "eg"]) == 0
    huge = "t,y\n1,0.5\n2," + "5" * 200_000 + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(huge)
    assert main(["run", "--input", str(bad), "--out", str(tmp_path / "r"),
                 "--forecaster", "eg"]) == 2
    assert "row 3: field larger than field limit" in capsys.readouterr().err
    steps = rundir / "steps.csv"
    steps.write_text(steps.read_text() + "7" * 200_000 + "\n")
    assert main(["verify-bounds", "--out", str(rundir)]) == 2
    assert "row 6: field larger than field limit" in capsys.readouterr().err


def test_spaced_series_header_is_one_rule_for_every_command(tmp_path, capsys):
    series = tmp_path / "s.csv"
    series.write_text("t, y\n1,0.25\n2,0.75\n3,0.25\n4,0.75\n")
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(series), "--out", str(rundir), "--forecaster", "eg"]) == 0
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(series)]) == 0
    assert main(["oracle", "--input", str(series), "--kind", "lipschitz", "--lag", "1"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["loss"] == pytest.approx(0.0, abs=1e-9)


def test_config_d_must_match_the_covariate_file(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    write_covariates(cov, [[0.1, 0.2], [0.8, 0.9], [0.5, 0.5]], [0.0, 1.0, 0.5])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forecaster": "tree", "d": 3}))
    assert main(["run", "--config", str(config), "--input", str(cov),
                 "--out", str(tmp_path / "r")]) == 2
    assert "d = 3" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # without a d in the config the file's width is used
    assert main(["run", "--input", str(cov), "--out", str(tmp_path / "r"),
                 "--forecaster", "tree"]) == 0
    assert read_run_log(tmp_path / "r").summary["config"]["d"] == 2
    capsys.readouterr()


def test_damaged_step_log_cell_exits_two(markov_spec, tmp_path, capsys):
    series = tmp_path / "series.csv"
    main(["simulate", "--spec", str(markov_spec), "--T", "40", "--out", str(series)])
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", "meta"]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    fields = lines[20].split(",")
    fields[STEP_COLUMNS.index("experts")] = "x;y"  # row 21
    steps.write_text("\n".join(lines[:20] + [",".join(fields)] + lines[21:]) + "\n")
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir)]) == 2
    assert main(["report", "--out", str(tmp_path / "tables"), str(rundir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: row 21: experts 'x;y' does not parse"] * 2
    (rundir / "summary.json").write_text("{not json")
    assert main(["verify-bounds", "--out", str(rundir)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_member_count_mismatch_exits_two(tmp_path, capsys):
    # one member prediction more than the step has weights
    series = tmp_path / "series.csv"
    write_series(series, np.random.default_rng(3).random(300))
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", "meta"]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[STEP_COLUMNS.index("experts")] += ";0.5"  # row 301
    steps.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--L", "1.0"]) == 2
    assert main(["report", "--out", str(tmp_path / "tables"), str(rundir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: row 301: 9 experts but 8 weights"] * 2
    assert not (rundir / "bounds.json").exists()


def test_step_log_integer_beyond_int64_exits_two(tmp_path, capsys):
    series = tmp_path / "series.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", "eg"]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    fields = lines[2].split(",")
    fields[STEP_COLUMNS.index("n_nodes")] = "99999999999999999999"  # row 3
    steps.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir)]) == 2
    assert main(["report", "--out", str(tmp_path / "tables"), str(rundir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: row 3: n_nodes '99999999999999999999' does not fit in 64 bits"] * 2


def test_a_tree_too_deep_for_the_step_log_exits_two(tmp_path, capsys):
    # a repeated point drives the d=14 tree past depth 64 at step 1328, in
    # the second block of steps, after the first has been written
    cov = tmp_path / "deep.csv"
    write_covariates(cov, np.full((2000, 14), 0.3), np.full(2000, 0.5))
    deep = ["run", "--forecaster", "tree", "--input", str(cov), "--out"]
    message = "error: step 1328: the leaf at depth 78 "
    rundir = tmp_path / "r"
    assert main(deep + [str(rundir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not rundir.exists()
    # no directory made for the run is left behind
    assert main(deep + [str(tmp_path / "a" / "b")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "a").exists()
    # a finished run in the directory stays as it was, with no partial file beside it
    series = tmp_path / "s.csv"
    write_series(series, np.random.default_rng(5).random(1500))
    assert main(["run", "--forecaster", "eg", "--input", str(series), "--out", str(rundir)]) == 0
    before = {path.name: path.read_bytes() for path in rundir.iterdir()}
    assert sorted(before) == ["steps.csv", "summary.json"]
    capsys.readouterr()
    assert main(deep + [str(rundir), "--save-state"]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert {path.name: path.read_bytes() for path in rundir.iterdir()} == before


def test_a_leaf_deeper_than_its_tree_fails_verification(tmp_path, capsys):
    # every leaf_h of a d=1 tree log raised by 20: each leaf is still a node
    # of some tree, but lies below the height the log records
    rng = np.random.default_rng(3)
    cov = tmp_path / "pairs.csv"
    write_covariates(cov, rng.random(3000), rng.random(3000))
    rundir = tmp_path / "r"
    assert main(["run", "--forecaster", "tree", "--input", str(cov), "--out", str(rundir),
                 "--seed", "3"]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    h = STEP_COLUMNS.index("leaf_h")
    raised = [",".join(cells[:h] + [str(int(cells[h]) + 20)] + cells[h + 1:])
              for cells in (line.split(",") for line in lines[1:])]
    steps.write_text("\n".join(lines[:1] + raised) + "\n")
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(cov), "--L", "1.0"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL leaf-within-height: ")


STREAM_T = 3500  # three full blocks of steps and a partial one


@pytest.mark.parametrize("forecaster, d, effective_range, schedule", [
    ("eg", 1, False, "powers_of_two"),
    ("tree", 1, False, "powers_of_two"),
    ("tree", 1, True, "powers_of_two"),
    ("tree", 3, False, "powers_of_two"),
    ("tree", 3, True, "powers_of_two"),
    ("meta", 1, False, "powers_of_two"),
    ("meta", 1, False, "quadratic"),
])
def test_run_streams_the_log_across_blocks(tmp_path, capsys, forecaster, d, effective_range,
                                           schedule):
    assert STREAM_T // harness._ROW_BLOCK == 3 and STREAM_T % harness._ROW_BLOCK
    config = harness.RunConfig(forecaster, d=d, effective_range=effective_range,
                               schedule=schedule, seed=7)
    rng = np.random.default_rng(7)
    ys = rng.random(STREAM_T)
    data = tmp_path / "input.csv"
    if forecaster == "tree":
        xs = rng.random((STREAM_T, d))
        write_covariates(data, xs, ys)
    else:
        xs = None
        write_series(data, ys)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    rundir = tmp_path / "r"
    assert main(["run", "--config", str(config_path), "--input", str(data),
                 "--out", str(rundir)]) == 0
    reference.write_steps_csv(harness.run(config, ys, xs), tmp_path / "reference.csv")
    assert (rundir / "steps.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["data_digest"] == reference.data_digest(ys, xs)
    # the log holds no loss: the logged pred and y give it, added left to right
    with open(rundir / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert "loss" not in rows[0]
    total = 0.0
    for row in rows:
        total += config.loss.value(float(row["pred"]), float(row["y"]))
    assert summary["cumulative_loss"] == total
    assert sorted(path.name for path in rundir.iterdir()) == ["steps.csv", "summary.json"]


def test_run_memory_does_not_grow_with_the_series(tmp_path, capsys):
    # the command holds one block of steps, not a log of every step
    peaks = []
    for T in (10240, 40960):
        series = tmp_path / f"s{T}.csv"
        write_series(series, np.random.default_rng(T).random(T))
        tracemalloc.start()
        try:
            assert main(["run", "--forecaster", "eg", "--input", str(series),
                         "--out", str(tmp_path / f"r{T}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks


def test_report_memory_does_not_grow_with_the_runs(tmp_path, capsys):
    # each run's per-step rows are written as its log is read, so the report
    # holds one log at a time, however many runs it tabulates
    series = tmp_path / "s.csv"
    write_series(series, np.random.default_rng(12).random(3000))
    runs = [str(tmp_path / f"r{k}") for k in range(4)]
    assert main(["run", "--forecaster", "meta", "--input", str(series), "--out", runs[0]]) == 0
    for copy in runs[1:]:
        shutil.copytree(runs[0], copy)
    # a freed tuple goes to the interpreter's free list of its size, where
    # tracemalloc counts it as held: a first report fills the lists, so that
    # both peaks are taken from lists full of traced tuples
    peaks = []
    tracemalloc.start()
    try:
        for n in (1, 1, 4):
            tracemalloc.reset_peak()
            assert main(["report", "--out", str(tmp_path / f"tables{n}"), *runs[:n]]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks
    weights = (tmp_path / "tables4" / "weights.csv").read_text().splitlines()
    assert len(weights) == 1 + 4 * (len(
        (tmp_path / "tables1" / "weights.csv").read_text().splitlines()) - 1)


def test_a_report_rejected_midway_leaves_its_out_as_found(tmp_path, capsys):
    # the second run is damaged in its second block of rows, after the first
    # run's rows have been written
    series = tmp_path / "s.csv"
    write_series(series, np.random.default_rng(13).random(2500))
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    for rundir in (good, bad):
        assert main(["run", "--forecaster", "meta", "--input", str(series),
                     "--out", rundir]) == 0
    steps = tmp_path / "bad" / "steps.csv"
    steps.write_text(steps.read_text().replace("\n2000,", "\n2001,", 1))
    fresh = tmp_path / "a" / "tables"
    tables = tmp_path / "tables"
    assert main(["report", "--out", str(tables), good]) == 0
    before = {path.name: path.read_bytes() for path in tables.iterdir()}
    assert sorted(before) == ["avg_loss_vs_T.csv", "node_growth.csv", "runs.csv", "weights.csv"]
    capsys.readouterr()
    for out in (fresh, tables):
        assert main(["report", "--out", str(out), good, bad]) == 2
        assert capsys.readouterr().err == "error: row 2001: t is 2001, expected 2000\n"
    assert not (tmp_path / "a").exists()
    assert {path.name: path.read_bytes() for path in tables.iterdir()} == before


def test_a_tree_log_without_leaves_exits_two(tmp_path, capsys):
    rng = np.random.default_rng(4)
    cov = tmp_path / "pairs.csv"
    write_covariates(cov, rng.random(1500), rng.random(1500))
    rundir = tmp_path / "r"
    assert main(["run", "--forecaster", "tree", "--input", str(cov), "--out", str(rundir)]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    h = STEP_COLUMNS.index("leaf_h")  # leaf_i follows it
    blank = [",".join(cells[:h] + ["", ""] + cells[h + 2:])
             for cells in (line.split(",") for line in lines[1:])]
    steps.write_text("\n".join(lines[:1] + blank) + "\n")
    capsys.readouterr()
    for args in (["verify-bounds", "--out", str(rundir), "--input", str(cov)],
                 ["report", "--out", str(tmp_path / "tables"), str(rundir)]):
        assert main(args) == 2
        assert capsys.readouterr().err == ("error: row 2: leaf_h '', leaf_i '' is no node "
                                           "of a tree\n")


def test_a_log_of_another_format_exits_two(tmp_path, capsys):
    # a v2 step log has no loss column; its summary's format decides, before
    # steps.csv is read, whether the log is read at all
    series = tmp_path / "s.csv"
    write_series(series, np.random.default_rng(8).random(300))
    rundir = tmp_path / "r"
    assert main(["run", "--forecaster", "eg", "--input", str(series), "--out", str(rundir)]) == 0
    steps, summary_path = rundir / "steps.csv", rundir / "summary.json"
    header, *lines = steps.read_text().splitlines()
    assert header == "t,x,pred,y,leaf_h,leaf_i,n_nodes,height,experts,weights"
    summary = json.loads(summary_path.read_text())
    assert summary["format"] == "egtree-runlog-v2"
    # the same log in v1: a loss cell after the y cell, and the v1 format
    loss = harness.RunConfig.from_dict(summary["config"]).loss
    v1 = [",".join(cells[:4] + [format(loss.value(float(cells[2]), float(cells[3])), ".17g")]
                   + cells[4:]) for cells in (line.split(",") for line in lines)]
    v1_header = "t,x,pred,y,loss,leaf_h,leaf_i,n_nodes,height,experts,weights"
    rejected = (f"error: {summary_path}: log format 'egtree-runlog-v1' is not "
                "'egtree-runlog-v2', the only format this version reads\n")
    capsys.readouterr()
    for step_lines, fmt, message in (
            ([v1_header] + v1, "egtree-runlog-v1", rejected),
            ([header] + lines, "egtree-runlog-v1", rejected),  # a v2 step log, a v1 summary
            ([v1_header] + v1, "egtree-runlog-v2", "error: unrecognized step log header: "
                                                   f"{v1_header.split(',')}\n")):
        steps.write_text("\n".join(step_lines) + "\n")
        summary_path.write_text(json.dumps({**summary, "format": fmt}))
        for argv in (["verify-bounds", "--out", str(rundir), "--input", str(series)],
                     ["report", "--out", str(tmp_path / "tables"), str(rundir)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == message, argv
    assert not (tmp_path / "tables").exists() and not (rundir / "bounds.json").exists()


def test_an_edited_prediction_fails_the_resummation(tmp_path, capsys):
    # the loss is recomputed from the logged pred and y, so an in-range pred
    # that is not the run's changes the resummed cumulative loss
    rng = np.random.default_rng(17)
    cov = tmp_path / "pairs.csv"
    write_covariates(cov, rng.random(50), rng.random(50))
    rundir = tmp_path / "r"
    assert main(["run", "--forecaster", "tree", "--input", str(cov), "--out", str(rundir)]) == 0
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(cov)]) == 0
    steps = rundir / "steps.csv"
    lines = steps.read_text().splitlines()
    fields = lines[29].split(",")
    pred, y = STEP_COLUMNS.index("pred"), STEP_COLUMNS.index("y")
    assert fields[pred] != fields[y]
    fields[pred] = fields[y]  # row 30 now predicts its outcome: no loss
    steps.write_text("\n".join(lines[:29] + [",".join(fields)] + lines[30:]) + "\n")
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(cov)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL cumulative-loss-resummation: ")


@pytest.mark.parametrize("forecaster", ["eg", "meta"])
def test_save_state_needs_a_tree_run(tmp_path, capsys, forecaster):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    rundir = tmp_path / "r"
    assert main(["run", "--input", str(series), "--out", str(rundir),
                 "--forecaster", forecaster, "--save-state"]) == 2
    assert "only a tree run can save its state" in capsys.readouterr().err
    assert not rundir.exists()


@pytest.mark.parametrize("argv, message", [
    (["--lag", "-1"], "--lag must be >= 0"),
    (["--kind", "histogram", "--lag", "2", "--bins", "-4"], "need at least one box"),
    (["--kind", "histogram", "--lag", "2", "--bins", "0"], "need at least one box"),
])
def test_oracle_rejects_bad_lag_and_bins(tmp_path, capsys, argv, message):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1, 0.6])
    assert main(["oracle", "--input", str(series), *argv]) == 2
    assert message in capsys.readouterr().err


def test_missing_files_exit_two_naming_the_path(markov_spec, tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    missing = str(tmp_path / "missing")
    for argv in (["run", "--input", missing, "--out", str(tmp_path / "r")],
                 ["run", "--config", missing, "--input", str(series),
                  "--out", str(tmp_path / "r")],
                 ["simulate", "--spec", missing, "--T", "5", "--out", str(tmp_path / "o.csv")],
                 ["oracle", "--input", missing],
                 ["verify-bounds", "--out", missing],
                 ["report", "--out", str(tmp_path / "tables"), missing]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and missing in err[0], argv


@pytest.mark.parametrize("spec", [
    {"kind": "ar1", "a": 0.5, "sigma": float("nan")},
    {"kind": "ar1", "a": 0.5, "sigma": float("inf")},
    {"kind": "markov", "emissions": [0.1, 0.9]},
    {"kind": "iid", "support": "ab", "probs": [0.5, 0.5]},
])
def test_bad_process_spec_exits_two(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # NaN and Infinity are written as such
    out = tmp_path / "series.csv"
    assert main(["simulate", "--spec", str(path), "--T", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("n_rows", [1, 2])
def test_tree_run_on_a_series_exits_two(tmp_path, capsys, n_rows):
    # a t,y file is a series whatever the forecaster: its t column is no covariate
    series = tmp_path / "s.csv"
    write_series(series, [0.25, 0.75][:n_rows])
    assert main(["run", "--input", str(series), "--out", str(tmp_path / "r"),
                 "--forecaster", "tree"]) == 2
    assert capsys.readouterr().err == "error: tree runs need covariates\n"
    assert not (tmp_path / "r").exists()


def test_meta_run_on_a_covariate_file_exits_two(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    write_covariates(cov, [[0.1], [0.8], [0.5]], [0.0, 1.0, 0.5])
    assert main(["run", "--input", str(cov), "--out", str(tmp_path / "r"),
                 "--forecaster", "meta"]) == 2
    assert capsys.readouterr().err == "error: 'meta' runs take no covariates\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("config, key", [
    ({"forcaster": "meta"}, "forcaster"),
    ({"forecaster": "eg", "loss": {"kind": "pinball", "alhpa": 0.3}}, "alhpa"),
])
def test_misspelled_config_key_exits_two(tmp_path, capsys, config, key):
    assert _run_with_config(tmp_path, json.dumps(config)) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("spec, key", [
    ({"kind": "ar1", "a": 0.5, "sgima": 0.1}, "sgima"),
    ({"kind": "iid", "support": [0.5], "probs": [1.0], "a": 0.5}, "a"),
    ({"kind": "markov", "seed": 1, "emission": [0.5], "transition": [[1.0]]}, "emission"),
])
def test_misspelled_spec_key_exits_two(tmp_path, capsys, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "series.csv"
    assert main(["simulate", "--spec", str(path), "--T", "20", "--out", str(out)]) == 2
    assert f"{spec['kind']} spec has an unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_lipschitz_without_a_check_exits_two(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series(series, [0.2, 0.4, 0.9, 0.1])
    cov = tmp_path / "cov.csv"
    write_covariates(cov, [[0.1, 0.2], [0.8, 0.9], [0.5, 0.5]], [0.0, 1.0, 0.5])
    for forecaster, path in (("eg", series), ("tree", cov)):
        rundir = tmp_path / forecaster
        assert main(["run", "--input", str(path), "--out", str(rundir),
                     "--forecaster", forecaster]) == 0
        capsys.readouterr()
        assert main(["verify-bounds", "--out", str(rundir), "--L", "1.0"]) == 2
        assert "no Lipschitz-comparator check" in capsys.readouterr().err
        assert not (rundir / "bounds.json").exists()
        assert main(["verify-bounds", "--out", str(rundir)]) == 0


# -- verify-bounds --input: a canonical file is hashed as it stands ----------

# values whose .17g text is shortest, longest, subnormal and at the ends
EDGE_VALUES = [0.0, 1.0, 0.5, 1e-300, 5e-324, 0.1, 2 / 3, 0.123456789]


def _verified_runs(tmp_path):
    """An eg run over a series and a d=2 tree run over covariates, each with
    the input file it was run on; both files hold every value of EDGE_VALUES."""
    rng = np.random.default_rng(67)
    ys = np.concatenate([EDGE_VALUES, rng.random(32)])
    xs = np.column_stack([ys[::-1], rng.random(len(ys))])
    series, cov = tmp_path / "s.csv", tmp_path / "c.csv"
    write_series(series, ys)
    write_covariates(cov, xs, ys)
    runs = {}
    for kind, forecaster, path in (("series", "eg", series), ("covariates", "tree", cov)):
        rundir = tmp_path / f"run-{kind}"
        assert main(["run", "--input", str(path), "--out", str(rundir),
                     "--forecaster", forecaster]) == 0
        runs[kind] = rundir, path
    return runs


def _old_input_digest(path, expected):
    """The check before inputs were hashed as they stand: parse, then render."""
    xs, ys = read_input(path)
    return data_digest(ys, xs)


def _with_lines(edit):
    def respell(text):
        header, *lines = text.splitlines()
        return "\n".join(edit(header, lines)) + "\n"
    return respell


def _joined_pairs(header, lines):
    """Two rows per line, joined by ";": a covariate line then has 2d commas,
    a series line keeps one comma and holds two y cells."""
    if header == "t,y":
        return [header] + [a + ";" + b.split(",")[1] for a, b in zip(lines[::2], lines[1::2])]
    width = 2 * header.count(",") + 1
    return ([",".join([f"x{j + 1}" for j in range(width - 1)] + ["y"])]
            + [a + ";" + b for a, b in zip(lines[::2], lines[1::2])])


def _spelled_half(header, lines):
    lines = list(lines)
    cells = lines[2].split(",")
    assert cells[-1] == "0.5"
    lines[2] = ",".join(cells[:-1] + ["0.50"])
    return [header] + lines


def _first_cell(cell):
    """The first cell of the third row replaced: a series' t, a covariate file's x1."""
    return _with_lines(lambda header, lines: [header] + lines[:2]
                       + [cell + lines[2][lines[2].index(","):]] + lines[3:])


RESPELLINGS = {
    "as-written": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cell-0.50": _with_lines(_spelled_half),
    "comma-space": lambda text: text.replace(",", ", "),
    "spaced-header": _with_lines(lambda header, lines: [
        " t , y " if header == "t,y" else " , ".join(header.split(","))] + lines),
    "quoted-header": _with_lines(lambda header, lines: [
        ",".join(f'"{cell}"' for cell in header.split(","))] + lines),
    "quote-across-lines": _first_cell('"3'),
    "nul-byte": _first_cell("3\0"),
    "oversized-first-cell": _first_cell("3" * 200_000),
    "non-ascii-first-cell": _first_cell("\u00e9"),
    "non-utf8-byte": _first_cell("3\udcff"),  # the byte 0xff, by surrogateescape
    "no-final-newline": lambda text: text[:-1],
    "extra-column": _with_lines(lambda header, lines: [header, lines[0] + ",0.5"] + lines[1:]),
    "empty-body": lambda text: text.splitlines()[0] + "\n",
    "rows-joined-by-semicolons": _with_lines(_joined_pairs),
    "wrong-header": _with_lines(lambda header, lines: [header[:-1] + "z"] + lines),
    "wrong-file": _with_lines(lambda header, lines: [header] + lines[1:] + lines[:1]),
}


@pytest.mark.parametrize("kind", ["series", "covariates"])
@pytest.mark.parametrize("respelling", list(RESPELLINGS))
def test_verify_input_verdicts_match_the_parsing_check(tmp_path, capsys, monkeypatch,
                                                       kind, respelling):
    rundir, path = _verified_runs(tmp_path)[kind]
    copy = tmp_path / "copy.csv"
    copy.write_bytes(RESPELLINGS[respelling](path.read_text()).encode("utf-8",
                                                                      "surrogateescape"))
    capsys.readouterr()
    outcomes = []
    for check in (harness.input_digest, _old_input_digest):
        monkeypatch.setattr(harness, "input_digest", check)
        (rundir / "bounds.json").unlink(missing_ok=True)
        rc = main(["verify-bounds", "--out", str(rundir), "--input", str(copy)])
        bounds = (rundir / "bounds.json").read_text() if rc != 2 else None
        outcomes.append((rc, capsys.readouterr(), bounds))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kind, respelling", [
    (kind, respelling) for kind in ("series", "covariates")
    for respelling in ("as-written", "spaced-header", "quoted-header")]
    + [("series", "non-ascii-first-cell")])  # a t cell is no data
def test_verify_hashes_a_canonical_input_as_it_stands(tmp_path, capsys, monkeypatch,
                                                      kind, respelling):
    rundir, path = _verified_runs(tmp_path)[kind]
    path.write_text(RESPELLINGS[respelling](path.read_text()), newline="")

    def unused(*args, **kwargs):
        raise AssertionError("a canonical input is neither parsed nor rendered")

    monkeypatch.setattr(harness, "read_input", unused)
    monkeypatch.setattr(harness, "data_digest", unused)
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_refuses_a_respelled_wrong_file(tmp_path, capsys):
    runs = _verified_runs(tmp_path)
    rundir, path = runs["covariates"]
    _, other = runs["series"]
    capsys.readouterr()
    assert main(["verify-bounds", "--out", str(rundir), "--input", str(other)]) == 2
    want = _old_input_digest(other, None)
    expected = read_run_log(rundir).summary["data_digest"]
    assert capsys.readouterr().err == (f"REFUSED: input digest {want[:12]}.. does not "
                                       f"match the run's {expected[:12]}..\n")


def test_undecodable_bytes_exit_two_naming_the_file(tmp_path, capsys):
    runs = _verified_runs(tmp_path)
    rundir, series = runs["series"]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,y\n1,0.5\n\xff,0.25\n")
    config = tmp_path / "config.json"
    config.write_bytes(b'{"forecaster": "eg\xff"}')
    capsys.readouterr()
    for argv, path in ((["run", "--input", str(bad), "--out", str(tmp_path / "r")], bad),
                       (["run", "--config", str(config), "--input", str(series),
                         "--out", str(tmp_path / "r")], config),
                       (["verify-bounds", "--out", str(rundir), "--input", str(bad)], bad)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not ") and " text: " in err, argv
    assert not (tmp_path / "r").exists()
    steps = rundir / "steps.csv"
    steps.write_bytes(steps.read_bytes() + b"\xff\n")
    for argv in (["verify-bounds", "--out", str(rundir)],
                 ["report", "--out", str(tmp_path / "tables"), str(rundir)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {steps} is not "), argv
