"""The CSV readers and writers against their row-by-row references.

Writers must round-trip every double exactly and write the bytes a
``csv.writer`` would, however their rows fall into rendered blocks.  Readers must return what the
row-by-row readers in ``reference`` return, and on a damaged file raise
the very same message: same row, same field, same value.
"""

import csv
import functools
import io
import re
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from egtree import harness
from egtree.errors import RejectedInputError
from egtree.harness import (
    LOG_FORMAT,
    RunConfig,
    RunLog,
    data_digest,
    input_digest,
    load_json,
    read_covariates,
    read_input,
    read_run_log,
    read_series,
    report,
    run,
    write_covariates,
    write_run_log,
    write_series,
)
from egtree.losses import LossSpec

units = st.floats(min_value=0.0, max_value=1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)
# small blocks make short files span several blocks
blocks = st.sampled_from([1, 2, 5, harness._ROW_BLOCK])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(reader, path):
    """What a reader makes of a file: its arrays, or its error message."""
    try:
        return reader(path)
    except RejectedInputError as exc:
        return str(exc)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(units, min_size=1, max_size=40), blocks)
    def test_series(self, tmp_path_factory, ys, block):
        path = tmp_path_factory.mktemp("series") / "s.csv"
        write_series(path, ys)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            assert same_bits(read_series(path), np.array(ys))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(units, min_size=d + 1, max_size=d + 1),
                           min_size=1, max_size=30)), blocks)
    def test_covariates(self, tmp_path_factory, table, block):
        table = np.array(table)
        xs, ys = table[:, :-1], table[:, -1]
        path = tmp_path_factory.mktemp("covariates") / "c.csv"
        write_covariates(path, xs, ys)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            xs2, ys2 = read_covariates(path)
        assert same_bits(xs2, xs) and same_bits(ys2, ys)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_run_log(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 30))
        kind = data.draw(st.sampled_from(["eg", "tree", "meta"]))
        ints = st.integers(0, 2**40)
        if kind == "tree":
            d = data.draw(st.integers(1, 3))
            x_text = [";".join(f"{v:.17g}" for v in data.draw(st.lists(units, min_size=d,
                                                                        max_size=d)))
                      for _ in range(n)]
            # a node (h, i) of a tree: 1 <= i <= 2**h
            leaf_h = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
            leaf_i = [data.draw(st.integers(1, 2**h)) for h in leaf_h]
        else:
            hexes = st.text("0123456789abcdef", min_size=12, max_size=12)
            x_text = data.draw(st.lists(hexes, min_size=n, max_size=n)) if kind == "meta" \
                else [""] * n
            leaf_h = leaf_i = [-1] * n
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)) \
            if kind == "meta" else [0] * n
        floats = [np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
                  for _ in range(2)]
        tuples = [[tuple(data.draw(st.lists(finite, min_size=k, max_size=k))) for k in sizes]
                  for _ in range(2)]
        # the fields read_run_log requires of a summary
        summary = {"format": LOG_FORMAT, "T": n, "cumulative_loss": 0.0,
                   "data_digest": "0" * 64,
                   "config": RunConfig(kind, d=d if kind == "tree" else 1).to_dict(),
                   "final": {"n_nodes": 1, "height": 0, "n_active": 1}}
        log = RunLog(np.arange(1, n + 1, dtype=np.int64), x_text, *floats,
                     np.array(leaf_h, dtype=np.int64), np.array(leaf_i, dtype=np.int64),
                     np.array(data.draw(st.lists(ints, min_size=n, max_size=n))),
                     np.array(data.draw(st.lists(ints, min_size=n, max_size=n))),
                     *tuples, summary)
        out = tmp_path_factory.mktemp("log")
        write_run_log(log, out)
        reference.write_steps_csv(log, out / "reference.csv")
        assert (out / "steps.csv").read_bytes() == (out / "reference.csv").read_bytes()
        back = read_run_log(out)
        for name in ("t", "preds", "ys", "leaf_h", "leaf_i", "n_nodes", "height"):
            assert same_bits(getattr(back, name), getattr(log, name)), name
        assert back.x_text == x_text
        assert back.expert_preds == tuples[0] and back.expert_weights == tuples[1]
        assert back.summary == summary


# replacement cells: not numbers, below 0, above 1, NaN and infinities
BAD_CELLS = ["abc", "", "0.5.5", "-0.25", "-1e-300", "1.0000000000000002", "7", "nan",
             "-nan", "inf", "-inf", "1e400"]


@st.composite
def damaged_tables(draw):
    """A valid table with a few random cells or rows damaged; d=None is a series."""
    d = draw(st.sampled_from([None, 1, 2, 3]))
    n = draw(st.integers(1, 25))
    if d is None:
        header = "t,y"
        rows = [[str(t + 1), f"{draw(units):.17g}"] for t in range(n)]
    else:
        header = ",".join([f"x{j + 1}" for j in range(d)] + ["y"])
        rows = [[f"{draw(units):.17g}" for _ in range(d + 1)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        row = rows[draw(st.integers(0, n - 1))]
        damage = draw(st.sampled_from(["cell", "cell", "cell", "extra", "missing", "blank"]))
        if damage == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif damage == "extra":
            row.append("0.5")
        elif damage == "missing" and row:
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif damage == "blank":
            row.clear()
    return d, header + "\n" + "".join(",".join(row) + "\n" for row in rows)


class TestDamagedInput:
    @settings(max_examples=300, deadline=None)
    @given(damaged_tables(), blocks)
    def test_readers_fail_like_the_row_by_row_reference(self, tmp_path_factory, case, block):
        d, text = case
        path = tmp_path_factory.mktemp("damaged") / "in.csv"
        path.write_text(text)
        new, ref = ((read_series, reference.read_series) if d is None
                    else (read_covariates, reference.read_covariates))
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            got = outcome(new, path)
        want = outcome(ref, path)
        if isinstance(want, str):
            assert got == want
        elif d is None:
            assert same_bits(got, want)
        else:
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("text, message", [
        ("t,y\n1,0.5\n2,abc\n3,0.5,1\n", "row 3: observation 'abc' is not a number"),
        ("t,y\n1,0.5\n2,0.5,1\n3,abc\n", "row 3: expected 2 fields, got 3"),
        ("x1,y\n0.5,0.5\n1.5,abc\n", "row 3: covariate 1.5 outside [0, 1]"),
        ("x1,y\n0.5,nan\n", "row 2: observation nan outside [0, 1]"),
        ("x1,x2,y\n0.5,0.5,0.5\n0.5,-inf,2\n", "row 3: covariate -inf outside [0, 1]"),
        ("x1,x2,y\n0.5,0.5,0.5\n0.5,abc,0.5\nabc,0.5,0.5\n",
         "row 3: covariate 'abc' is not a number"),
        ("x1,y\n0.5,0.5\n0.5,-1\n2,0.5\n", "row 3: observation -1.0 outside [0, 1]"),
        ("x1,y\n0.5,0.5\n\n", "row 3: expected 2 fields, got 0"),
        ("t,y\n", "series file has no observations"),
        pytest.param("t,y\n1,0.5\n2," + "5" * 200_000 + "\n",
                     "row 3: field larger than field limit (131072)", id="oversized-field"),
        pytest.param("x1," + "x" * 200_000 + ",y\n0.5,0.5\n",
                     "row 1: field larger than field limit (131072)", id="oversized-header"),
    ])
    def test_first_fault_in_row_order_is_reported(self, tmp_path, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        reader = read_series if text.startswith("t,y") else read_covariates
        with pytest.raises(RejectedInputError) as exc:
            reader(path)
        assert str(exc.value) == message

    def test_faults_past_the_first_block(self, tmp_path):
        n = harness._ROW_BLOCK + 100
        rows = [f"{(k % 97) / 97:.17g},{(k % 89) / 89:.17g}" for k in range(n)]
        rows[n - 50] = "0.5,1.25"
        rows[n - 20] = "0.5"
        path = tmp_path / "in.csv"
        path.write_text("x1,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(RejectedInputError) as exc:
            read_covariates(path)
        assert str(exc.value) == f"row {n - 50 + 2}: observation 1.25 outside [0, 1]"
        assert str(exc.value) == outcome(reference.read_covariates, path)


@st.composite
def csv_texts(draw):
    """A width and the text after a header: rows that split plainly mixed with
    rows and lines of commas, quotes, CRs, NULs, long cells and blanks, the
    final newline optional."""
    width = draw(st.integers(2, 4))

    def row(cell):
        return st.lists(cell, min_size=width, max_size=width).map(",".join)

    plain = row(st.text("0123456789;", max_size=3))
    quoted = st.text("0123456789,\n", max_size=4).map(lambda c: f'"{c}"')
    odd = row(st.one_of(st.text('0123456789;"\r\0', max_size=10), quoted))  # long cells too
    other = st.text(',"\r\n\0;0123456789', max_size=12)
    lines = draw(st.lists(st.one_of(plain, plain, plain, odd, other, st.just("")),
                          max_size=14))
    return width, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def blocks_of(split, text, width):
    """The blocks ``split`` yields for ``text`` (after a header line), then its
    error message or None."""
    fh = io.StringIO("h\n" + text, newline="")
    next(fh)
    out = []
    try:
        for row_no, columns in split(fh, width):
            out.append((row_no, [list(column) for column in columns]))
    except RejectedInputError as exc:
        return out, str(exc)
    return out, None


class TestSplitter:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts(), blocks, st.sampled_from([None, 4, 9]))
    def test_blocks_match_the_csv_reader_reference(self, case, block, limit):
        width, text = case
        old_limit = csv.field_size_limit(limit) if limit else None
        try:
            with mock.patch.object(harness, "_ROW_BLOCK", block):
                got = blocks_of(harness._column_blocks, text, width)
            want = blocks_of(lambda fh, w: reference.column_blocks(fh, w, block), text, width)
        finally:
            if old_limit is not None:
                csv.field_size_limit(old_limit)
        assert got == want

    @pytest.mark.parametrize("block", [3, harness._ROW_BLOCK])
    def test_crlf_copies_read_back_bit_identical(self, tmp_path, block):
        rng = np.random.default_rng(59)
        xs, ys = rng.random((2100, 2)), rng.random(2100)
        write_covariates(tmp_path / "c.csv", xs, ys)
        log = run(RunConfig("tree", ABS, d=2), ys, xs)
        write_run_log(log, tmp_path / "log")
        shutil.copytree(tmp_path / "log", tmp_path / "log-crlf")
        for name, copy in (("c.csv", "c-crlf.csv"), ("log/steps.csv", "log-crlf/steps.csv")):
            (tmp_path / copy).write_bytes((tmp_path / name).read_bytes().replace(b"\n", b"\r\n"))
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            xs2, ys2 = read_covariates(tmp_path / "c-crlf.csv")
            back = read_run_log(tmp_path / "log-crlf")
        assert same_bits(xs2, xs) and same_bits(ys2, ys)
        for name in ("t", "preds", "ys", "leaf_h", "leaf_i", "n_nodes", "height"):
            assert same_bits(getattr(back, name), getattr(log, name)), name
        assert back.x_text == log.x_text
        assert back.expert_preds == back.expert_weights == [()] * 2100


ABS = LossSpec("absolute")


# both ends of [0, 1], a short .17g text, a tiny normal and the least subnormal
edge_units = st.one_of(units, st.sampled_from([0.0, 1.0, 0.5, 1e-300, 5e-324]))


class TestInputDigest:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([None, 1, 2, 3]).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.lists(edge_units, min_size=(d or 0) + 1,
                                      max_size=(d or 0) + 1), min_size=1, max_size=30))),
        blocks)
    def test_written_inputs_hash_as_they_stand(self, tmp_path_factory, case, block):
        d, table = case
        table = np.array(table)
        xs, ys = (None, table[:, 0]) if d is None else (table[:, :-1], table[:, -1])
        path = tmp_path_factory.mktemp("input") / "in.csv"
        if d is None:
            write_series(path, ys)
        else:
            write_covariates(path, xs, ys)
        want = data_digest(*read_input(path)[::-1])
        # the digest a run records, from its own rendering of the covariates
        assert run(RunConfig("eg" if d is None else "tree", ABS, d=d or 1),
                   ys, xs).summary["data_digest"] == want
        with mock.patch.object(harness, "_ROW_BLOCK", block), \
                mock.patch.object(harness, "read_input", side_effect=AssertionError), \
                mock.patch.object(harness, "data_digest", side_effect=AssertionError):
            assert input_digest(path, want) == want
        # any other expectation reads the file in full
        assert input_digest(path, "0" * 64) == want


class TestUndecodableInput:
    """Bytes that do not decode are rejected, naming the file, wherever they lie."""

    @pytest.mark.parametrize("reader, text", [
        (read_series, b"t,y\n1,0.5\n\xff,0.25\n"),
        (read_covariates, b"x1,y\n0.5,0.5\n0.25,\xff\n"),
        (read_input, b"t,y\n1,0.5\n\xff,0.25\n"),
        (read_input, b"x1,y\n0.5,\xff\n"),
        (read_input, b"x\xff1,y\n0.5,0.5\n"),
        (load_json, b'{"forecaster": "eg\xff"}'),
        (read_covariates, b"x1,y\n" + b"0.25,0.5\n" * 20_000 + b"0.25,\xff\n"),
    ])
    def test_readers(self, tmp_path, reader, text):
        path = tmp_path / "in"
        path.write_bytes(text)
        with pytest.raises(RejectedInputError, match=self.message(path)):
            reader(path)
        if reader is not load_json:  # the digest check reads the file in full
            with pytest.raises(RejectedInputError, match=self.message(path)):
                input_digest(path, "0" * 64)

    @pytest.mark.parametrize("name", ["steps.csv", "summary.json"])
    def test_run_log(self, tmp_path, name):
        write_run_log(run(RunConfig("eg", ABS), [0.25, 0.5, 0.75]), tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(RejectedInputError, match=self.message(path)):
            read_run_log(tmp_path)

    @staticmethod
    def message(path) -> str:
        return rf"^{re.escape(str(path))} is not \S+ text: "


@pytest.mark.parametrize("forecaster, d", [("eg", None), ("tree", 1), ("tree", 3),
                                           ("meta", None)])
def test_log_writer_matches_csv_writer(tmp_path, forecaster, d):
    rng = np.random.default_rng(53)
    ys = rng.random(700)
    xs = rng.random((700, d)) if d else None
    log = run(RunConfig(forecaster, ABS, d=d or 1), ys, xs)
    write_run_log(log, tmp_path)
    reference.write_steps_csv(log, tmp_path / "reference.csv")
    written = (tmp_path / "steps.csv").read_bytes()
    assert written.count(b"\n") == 701
    assert written == (tmp_path / "reference.csv").read_bytes()


# T one row short of, at and one past a rendered block of rows
BOUNDARIES = [(block, block + k) for block in (1, 2, 5, harness._ROW_BLOCK)
              for k in (-1, 0, 1) if block + k > 0]


@functools.lru_cache(maxsize=None)
def logged(forecaster: str, T: int) -> RunLog:
    """A run of ``forecaster`` on T uniform steps; a tree has d = 2."""
    rng = np.random.default_rng(T)
    ys = rng.random(T)
    return run(RunConfig(forecaster, ABS, d=2), ys,
               rng.random((T, 2)) if forecaster == "tree" else None)


@pytest.mark.parametrize("block, T", BOUNDARIES)
class TestRenderedBlocks:
    """Each block-rendered file, table and digest against its row-by-row reference."""

    def test_series(self, tmp_path, block, T):
        ys = np.random.default_rng(T).random(T)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            write_series(tmp_path / "s.csv", ys)
        assert (tmp_path / "s.csv").read_text() == reference.series_csv(ys.tolist())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_covariates(self, tmp_path, block, T, d):
        rng = np.random.default_rng(T)
        xs, ys = rng.random((T, d)), rng.random(T)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            write_covariates(tmp_path / "c.csv", xs, ys)
        assert (tmp_path / "c.csv").read_text() == reference.covariates_csv(xs.tolist(),
                                                                            ys.tolist())

    def test_data_digest(self, block, T):
        rng = np.random.default_rng(T)
        xs, ys = rng.random((T, 2)), rng.random(T)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            digests = [data_digest(ys), data_digest(ys, xs)]
        assert digests == [reference.data_digest(ys), reference.data_digest(ys, xs)]

    @pytest.mark.parametrize("forecaster", ["eg", "tree", "meta"])
    def test_run_log(self, tmp_path, block, T, forecaster):
        log = logged(forecaster, T)
        if forecaster == "meta" and min(block, T) > 1:  # a member enters inside a block
            assert len(set(map(len, log.expert_weights[:block]))) > 1
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            write_run_log(log, tmp_path)
        reference.write_steps_csv(log, tmp_path / "reference.csv")
        assert (tmp_path / "steps.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_report(self, tmp_path, block, T):
        # one run name csv must quote, with a % that is text; only meta logs
        # weights, and its first member enters at step 2
        names = {"eg": "eg", "tree": 'a,b"c%d', "meta": "meta%s"}
        named_logs = [(names[f], logged(f, T)) for f in ("eg", "tree", "meta")]
        for name, log in named_logs:
            write_run_log(log, tmp_path / name)
        tables = tmp_path / "tables"
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            report([tmp_path / name for name, _ in named_logs], tables)
        assert (tables / "node_growth.csv").read_text() == reference.node_growth_csv(named_logs)
        if T == 1:
            assert not (tables / "weights.csv").exists()
            return
        weights = (tables / "weights.csv").read_text()
        assert weights == reference.weights_csv(named_logs)
        assert {row[0] for row in csv.reader(io.StringIO(weights))} == {"run", "meta%s"}


# cells over digits, signs, "_", ".", "e", spaces, NUL and non-ASCII digits,
# integers and .17g floats as the log spells them, the words float reads,
# and integers at the edges of int64
numeric_cells = st.one_of(
    st.text("0123456789+-_.e \0٣５", max_size=8),
    st.integers(-2**64, 2**64).map(str), st.floats().map(lambda v: f"{v:.17g}"),
    st.sampled_from(["nan", "-inf", "Infinity", " 5", "1_0", str(2**63 - 1), str(2**63),
                     str(-2**63), str(-2**63 - 1), "1" * 30]))


def first_fault(cells, dtype):
    """Where ``int`` (``np.int64``) or ``float`` first fails on ``cells``: the
    first cell it cannot parse, else the first integer beyond 64 bits; None
    where every cell parses."""
    parse = int if dtype is np.int64 else float
    for k, cell in enumerate(cells):
        try:
            parse(cell)
        except ValueError:
            return k, "does not parse"
    if dtype is np.int64:
        return next(((k, "does not fit in 64 bits") for k, cell in enumerate(cells)
                     if not -2**63 <= int(cell) < 2**63), None)
    return None


class TestCellParse:
    """``np.array(cells, dtype)`` reads a column block as ``int``/``float`` read each cell."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(numeric_cells, min_size=1, max_size=12), st.sampled_from([np.int64, float]))
    def test_numpy_parses_as_python_does(self, cells, dtype):
        fault = first_fault(cells, dtype)
        try:
            got = np.array(cells, dtype=dtype)
        except (ValueError, OverflowError):
            assert fault is not None, cells
            return
        assert fault is None, cells
        parse = int if dtype is np.int64 else float
        assert same_bits(got, np.array([parse(cell) for cell in cells], dtype=dtype)), cells

    @settings(max_examples=300, deadline=None)
    @given(st.lists(numeric_cells, min_size=1, max_size=12), st.sampled_from([np.int64, float]))
    def test_a_rejected_column_names_its_first_fault(self, cells, dtype):
        fault = first_fault(cells, dtype)
        if fault is None:
            assert same_bits(harness._array(cells, dtype, "c", 7), np.array(cells, dtype=dtype))
            return
        k, words = fault
        with pytest.raises(RejectedInputError,
                           match=f"^row {7 + k}: c {re.escape(repr(cells[k]))} {words}$"):
            harness._array(cells, dtype, "c", 7)
