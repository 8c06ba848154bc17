import json

import numpy as np
import pytest

from egtree.cli import main
from egtree.harness import BoundCheck, read_run_log, write_covariates, write_series


@pytest.fixture
def markov_spec(tmp_path):
    spec = {"kind": "markov", "seed": 5, "emissions": [0.25, 0.75],
            "transition": [[0.9, 0.1], [0.1, 0.9]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


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
