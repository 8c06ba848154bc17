"""The CSV readers and writers against their row-by-row references.

Writers must round-trip every double exactly and, for the step log, write
the bytes a ``csv.writer`` would.  Readers must return what the
row-by-row readers in ``reference`` return, and on a damaged file raise
the very same message: same row, same field, same value.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from egtree import harness
from egtree.errors import RejectedInputError
from egtree.harness import (
    RunConfig,
    RunLog,
    read_covariates,
    read_run_log,
    read_series,
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
            leaf_h, leaf_i = (data.draw(st.lists(ints, min_size=n, max_size=n))
                              for _ in range(2))
        else:
            hexes = st.text("0123456789abcdef", min_size=12, max_size=12)
            x_text = data.draw(st.lists(hexes, min_size=n, max_size=n)) if kind == "meta" \
                else [""] * n
            leaf_h = leaf_i = [-1] * n
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)) \
            if kind == "meta" else [0] * n
        floats = [np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
                  for _ in range(3)]
        tuples = [[tuple(data.draw(st.lists(finite, min_size=k, max_size=k))) for k in sizes]
                  for _ in range(2)]
        log = RunLog(np.arange(1, n + 1, dtype=np.int64), x_text, *floats,
                     np.array(leaf_h, dtype=np.int64), np.array(leaf_i, dtype=np.int64),
                     np.array(data.draw(st.lists(ints, min_size=n, max_size=n))),
                     np.array(data.draw(st.lists(ints, min_size=n, max_size=n))),
                     *tuples, {"T": n})
        out = tmp_path_factory.mktemp("log")
        write_run_log(log, out)
        reference.write_steps_csv(log, out / "reference.csv")
        assert (out / "steps.csv").read_bytes() == (out / "reference.csv").read_bytes()
        back = read_run_log(out)
        for name in ("t", "preds", "ys", "losses", "leaf_h", "leaf_i", "n_nodes", "height"):
            assert same_bits(getattr(back, name), getattr(log, name)), name
        assert back.x_text == x_text
        assert back.expert_preds == tuples[0] and back.expert_weights == tuples[1]
        assert back.summary == {"T": n}


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


ABS = LossSpec("absolute")


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
