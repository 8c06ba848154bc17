"""The input cache against the CSV reader it stands in for.

``write_series`` and ``write_covariates`` write ``<csv>.cache`` beside the
CSV, and the input readers load the values from it where its stamps match
the CSV and every value lies in [0, 1].  ``egtree run`` then cuts the step
log's ``x`` and ``y`` cells and the data digest from the CSV's own lines,
and ``input_digest`` hashes them, where both would otherwise render the
values as the writers do.
Every input here is read, and run, both ways, with the cache and after
deleting it: the two must agree bit for bit, or fail with the very same
error.  The CSV and ``.meta.json`` bytes that the writers produce are
pinned as they were before the cache existed.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from egtree import harness
from egtree.cli import main
from egtree.errors import RejectedInputError
from egtree.harness import (
    RunConfig,
    data_digest,
    input_digest,
    read_covariates,
    read_input,
    read_input_text,
    read_run_log,
    read_series,
    run,
    write_covariates,
    write_run_log,
    write_series,
)
from test_cli import EDGE_VALUES


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def edge_inputs(seed: int, T: int):
    """Every value of EDGE_VALUES and ``T`` random draws, as a series ``ys``
    and a d=2 covariate table ``xs`` whose first column is ``ys`` reversed."""
    rng = np.random.default_rng(seed)
    ys = np.concatenate([EDGE_VALUES, rng.random(T)])
    return np.column_stack([ys[::-1], rng.random(len(ys))]), ys


def test_writer_bytes_are_pinned(tmp_path):
    # 1508 rows: the writers render across a 1024-row block
    xs, ys = edge_inputs(2024, 1500)
    series, covariates = tmp_path / "s.csv", tmp_path / "c.csv"
    write_series(series, ys)
    write_covariates(covariates, xs, ys)
    assert sha256(series) == "1bd7ac44f4bed71dee7586e90ebdcbfe445a03bb92726d635bfee86906aef80f"
    assert sha256(covariates) == "bd34a767b2ce0002f2dce35877eac1c5555d01c2142995a4a99fc91cc700232d"
    # and their caches, whose trailers are one struct for both kinds of cache
    assert sha256(tmp_path / "s.csv.cache") == \
        "fc5ad25786f698306ef956e3198ff7fe7fae210e79ae3aac846e6283a5fa3767"
    assert sha256(tmp_path / "c.csv.cache") == \
        "30167736d24646874a9b1bd7174ea28c8d6e45f885a7d48d051b31a8348fdfbf"


def test_simulate_bytes_are_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "markov", "seed": 5, "emissions": [0.25, 0.75],
                                "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--spec", str(spec), "--T", "1500", "--out", str(out)]) == 0
    assert sha256(out) == "fb9d270c7063e2c152679f1d50fe5f21b65a77c8a35c782f10f4b880ed9ca22b"
    meta = tmp_path / "sim.csv.meta.json"
    assert sha256(meta) == "3ab62e06c5e228f41afd3e15a4726788a99de6e01dd616522071d742d75cd0c2"
    # the digest of the text written, which is the series' data digest
    digest = json.loads(meta.read_text())["digest"]
    assert digest == data_digest(read_series(out))
    assert (tmp_path / "sim.csv.cache").stat().st_size > 0


@pytest.mark.parametrize("values", [
    EDGE_VALUES,
    [-0.0, 1.5, float("nan"), float("inf"), -2.0, 1e300],  # rendered alike, if not read back
], ids=["edge-values", "outside-[0,1]"])
def test_the_writers_return_the_data_digest(tmp_path, values):
    ys = np.array(values, dtype=float)
    xs = np.column_stack([ys[::-1], ys])
    assert write_series(tmp_path / "s.csv", ys) == data_digest(ys)
    assert write_covariates(tmp_path / "c.csv", xs, ys) == data_digest(ys, xs)
    assert write_covariates(tmp_path / "c1.csv", ys[::-1], ys) == data_digest(ys, ys[::-1])


# -- the readers: the cache gives what the CSV gives ------------------------


def outcome(read, path):
    """What ``read`` makes of ``path``: its arrays, or its error message."""
    try:
        return read(path)
    except RejectedInputError as exc:
        return str(exc)


def parsed(read, path):
    """What ``read`` makes of ``path`` with its cache deleted, then put back."""
    cache = path.with_name(path.name + ".cache")
    saved = cache.read_bytes() if cache.exists() else None
    cache.unlink(missing_ok=True)
    try:
        return outcome(read, path)
    finally:
        if saved is not None:
            cache.write_bytes(saved)


def cached(read, path):
    """``read(path)`` from its cache, the CSV neither opened as text nor parsed."""
    with mock.patch.object(harness, "_open_csv", side_effect=AssertionError("opened")), \
            mock.patch.object(harness, "_read_unit_rows", side_effect=AssertionError("parsed")):
        return read(path)


def passed_over(read, path):
    """What ``read`` makes of ``path``, asserting that it opened the CSV to parse it."""
    with mock.patch.object(harness, "_open_csv", wraps=harness._open_csv) as opened:
        result = outcome(read, path)
    assert opened.called
    return result


def assert_same(a, b):
    """Two outcomes of a reader: the same message, or arrays alike in dtype, shape,
    bytes and writability (or both None)."""
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is y
        else:
            assert (x.dtype, x.shape, x.tobytes(), x.flags.writeable) == \
                (y.dtype, y.shape, y.tobytes(), y.flags.writeable)


@pytest.fixture
def inputs(tmp_path):
    """A series and a d=2 covariate file over two blocks of rows, written with their caches."""
    xs, ys = edge_inputs(41, 1500)
    series, covariates = tmp_path / "series.csv", tmp_path / "covariates.csv"
    write_series(series, ys)
    write_covariates(covariates, xs, ys)
    return {"series": series, "covariates": covariates}


@pytest.mark.parametrize("kind", ["series", "covariates"])
def test_the_cache_gives_the_arrays_the_csv_does(inputs, kind):
    path = inputs[kind]
    read = read_series if kind == "series" else read_covariates
    for reader in (read, read_input):
        assert_same(cached(reader, path), parsed(reader, path))
    xs, ys, text = cached(read_input_text, path)
    assert text == path.read_bytes()
    assert_same((xs, ys), parsed(read_input, path))
    assert parsed(read_input_text, path)[2] is None


def test_a_file_read_as_the_other_kind_is_parsed(inputs):
    # a series' header is a covariate header too: its t column is then a covariate
    for read, kind in ((read_covariates, "series"), (read_series, "covariates")):
        result = passed_over(read, inputs[kind])
        assert_same(result, parsed(read, inputs[kind]))
        assert isinstance(result, str)


def _flip(offset):
    """An edit that flips the lowest bit of the byte at ``offset``."""
    return lambda data: data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1:]


TRAILER = harness._TRAILER.size
CACHE_FAULTS = {
    "cut-in-half": lambda data: data[:len(data) // 2],
    "a-byte-short": lambda data: data[:-1],
    "no-trailer": lambda data: data[:-TRAILER],
    "empty": lambda data: b"",
    "a-value-byte-flipped": _flip(100),
    "the-tag-flipped": _flip(-TRAILER + 3),
    "the-csv-stamp-flipped": _flip(-64 + 3),
    "the-cache-stamp-flipped": _flip(-32 + 3),
    "an-unknown-tag": lambda data: data.replace(harness._INPUT_TAG, b"egtree-input-cache-v9\n"),
}


def _respelled(kind):
    # EDGE_VALUES[2] = 0.5 is the y of row 4 (the header is row 1)
    return lambda text: text.replace("\n3,0.5\n" if kind == "series" else ",0.5\n",
                                     "\n3,0.50\n" if kind == "series" else ",0.50\n", 1)


CSV_FAULTS = {
    "a-0.50-respelling": _respelled,
    "crlf": lambda kind: lambda text: text.replace("\n", "\r\n"),
    "a-dropped-row": lambda kind: lambda text: "".join(text.splitlines(True)[:5]
                                                       + text.splitlines(True)[6:]),
}


@pytest.mark.parametrize("kind", ["series", "covariates"])
@pytest.mark.parametrize("fault", ["no-cache", *CACHE_FAULTS, *CSV_FAULTS])
def test_a_faulty_cache_is_passed_over(inputs, kind, fault, tmp_path, capsys):
    path = inputs[kind]
    cache = path.with_name(path.name + ".cache")
    if fault == "no-cache":
        cache.unlink()
    elif fault in CACHE_FAULTS:
        cache.write_bytes(CACHE_FAULTS[fault](cache.read_bytes()))
    else:
        text = path.read_bytes().decode()
        edited = CSV_FAULTS[fault](kind)(text)
        assert edited != text
        path.write_bytes(edited.encode())
    for read in (read_series if kind == "series" else read_covariates, read_input):
        assert_same(passed_over(read, path), parsed(read, path))
    assert read_input_text(path)[2] is None
    # the run's step log and summary are those of the run without the cache
    forecaster = "eg" if kind == "series" else "tree"
    assert run_cli(path, forecaster, tmp_path / "a", capsys) == \
        parsed(lambda p: run_cli(p, forecaster, tmp_path / "b", capsys), path)


def test_another_files_cache_is_passed_over(inputs):
    covariates, series = inputs["covariates"], inputs["series"]
    (covariates.parent / "covariates.csv.cache").write_bytes(
        (series.parent / "series.csv.cache").read_bytes())
    assert_same(passed_over(read_covariates, covariates), parsed(read_covariates, covariates))


def _restamped(path, values):
    """Replace the cache of ``path`` with ``values``, stamped to match as a writer would."""
    data = np.asarray(values, "<f8").tobytes()
    path.with_name(path.name + ".cache").write_bytes(harness._TRAILER.pack(
        harness._INPUT_TAG, hashlib.sha256(path.read_bytes()).digest(),
        hashlib.sha256(data).digest()).join([data, b""]))


def test_a_restamped_cache_that_does_not_fit_is_passed_over(inputs):
    # the stamps guard against a stale or damaged cache, not a forged one; a
    # cache whose values do not fill the rows of the file, one a cell, or lie
    # outside [0, 1] is passed over all the same
    series = inputs["series"]
    ys = parsed(read_series, series)
    for values in (ys[:-1], np.append(ys, 0.5), np.where(np.arange(ys.size) == 9, np.nan, ys)):
        _restamped(series, values)
        assert_same(passed_over(read_series, series), ys)
    _restamped(series, ys)  # the very values, restamped: read from the cache
    assert_same(cached(read_series, series), ys)


@pytest.mark.parametrize("kind, bad, message", [
    ("series", 1.5, "row 1002: observation 1.5 outside [0, 1]"),
    ("series", float("nan"), "row 1002: observation nan outside [0, 1]"),
    ("covariates", float("nan"), "row 1002: covariate nan outside [0, 1]"),
    ("covariates", -0.25, "row 1002: covariate -0.25 outside [0, 1]"),
], ids=["series-1.5", "series-nan", "covariate-nan", "covariate-negative"])
def test_a_value_outside_the_unit_interval_fails_as_its_csv_does(tmp_path, kind, bad, message,
                                                                 capsys):
    xs, ys = edge_inputs(43, 1500)
    path = tmp_path / f"{kind}.csv"
    if kind == "series":
        ys[1000] = bad
        write_series(path, ys)
        read, forecaster = read_series, "eg"
    else:
        xs[1000, 1] = bad
        write_covariates(path, xs, ys)
        read, forecaster = read_covariates, "tree"
    assert passed_over(read, path) == parsed(read, path) == message
    assert run_cli(path, forecaster, tmp_path / "run", capsys) == \
        (2, f"error: {message}\n", {})


# -- the run: cells cut from the CSV's lines, or rendered, alike ------------


def run_cli(path, forecaster, outdir, capsys) -> tuple:
    """``egtree run`` over ``path``: its exit code, its standard error and the
    files it wrote, ``summary.json`` less ``wall_clock_sec``."""
    capsys.readouterr()
    rc = main(["run", "--input", str(path), "--out", str(outdir), "--forecaster", forecaster])
    files = {}
    if rc == 0:
        files = {name: (outdir / name).read_bytes() for name in ("steps.csv", "steps.cache")}
        summary = json.loads((outdir / "summary.json").read_text())
        del summary["wall_clock_sec"]
        files["summary.json"] = summary
    return rc, capsys.readouterr().err, files


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("forecaster, d", [("eg", 0), ("meta", 0), ("tree", 1), ("tree", 2),
                                           ("tree", 3)])
def test_a_run_from_the_cache_writes_the_log_of_a_parsed_run(tmp_path, capsys, forecaster, d,
                                                             block):
    xs, ys = edge_inputs(47 + d, 1100)
    rng = np.random.default_rng(d)
    path = tmp_path / "input.csv"
    xs = np.column_stack([xs[:, 0], rng.random((len(ys), d - 1))]) if d else None
    with mock.patch.object(harness, "_ROW_BLOCK", block):
        written = write_covariates(path, xs if d > 1 else xs[:, 0], ys) if d \
            else write_series(path, ys)
        # the run and the digest check neither parse the CSV nor render an input row
        with mock.patch.object(harness, "_input_rows", side_effect=AssertionError("rendered")):
            with_cache = cached(lambda p: run_cli(p, forecaster, tmp_path / "cached", capsys),
                                path)
            digests = [cached(input_digest, path)]
        without = parsed(lambda p: run_cli(p, forecaster, tmp_path / "parsed", capsys), path)
        digests.append(parsed(input_digest, path))
        # the run on the arrays alone, and the cached run's log read back and written again
        digests.append(run(RunConfig(forecaster, d=d or 1), ys, xs, tmp_path / "arrays")
                       ["data_digest"])
        write_run_log(read_run_log(tmp_path / "cached"), tmp_path / "rewritten")
    assert with_cache == without
    assert with_cache[0] == 0
    for name in ("steps.csv", "steps.cache"):
        for other in ("parsed", "arrays", "rewritten"):
            assert (tmp_path / other / name).read_bytes() == with_cache[2][name], (other, name)
    digests += [written, with_cache[2]["summary.json"]["data_digest"]]
    assert digests == [data_digest(ys, xs)] * 5


def test_the_run_cuts_its_cells_from_the_bytes_it_read(inputs, tmp_path):
    path = inputs["covariates"]
    xs, ys, text = read_input_text(path)
    assert text is not None
    path.write_text("t,y\n1,0.5\n")  # the file changes after it was read
    run(RunConfig("tree", d=2), ys, xs, tmp_path / "text", text=text)
    run(RunConfig("tree", d=2), ys, xs, tmp_path / "arrays")
    for name in ("steps.csv", "steps.cache"):
        assert (tmp_path / "text" / name).read_bytes() == (tmp_path / "arrays" / name).read_bytes()
