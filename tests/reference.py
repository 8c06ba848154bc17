"""Reference implementations that the tests compare the package against.

* Exhaustive grid twins of the exact comparators in :mod:`egtree.oracles`.
* One-group-at-a-time twins of the grouped best-constant pass: the
  closed form on one group by ``argsort``, ``cumsum`` and ``searchsorted``,
  the histogram by one boolean mask per box, and the per-leaf sums of
  ``verify_bounds`` by a dict of step lists; the grouped pass must match
  them bit for bit.
* The stationary distribution of a chain in exact rational arithmetic.
* Bound formulas that only tests evaluate.
* The box of a tree node rebuilt from its ``(h, i)`` path bits, the
  independent geometry that routing and the stored cuts are checked against,
  and the count of the nodes a tree has built.
* Row-by-row CSV readers, the ``csv.reader`` block transposition,
  ``csv.writer`` writers of every file and table the harness writes, and a
  row-by-row data digest: the straightforward versions of the block-wise
  I/O in :mod:`egtree.harness`, which must match them message for message
  and byte for byte.
* The step log of a run by a hand loop through the public, checking
  ``predict``, ``update`` and ``trace``: the step-by-step version of the
  block loop of ``harness.run``.
"""

import csv
import hashlib
import io
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from egtree import eg
from egtree.errors import RejectedInputError
from egtree.harness import STEP_COLUMNS, RunLog, _forecaster, fmt17
from egtree.losses import LossSpec
from egtree.oracles import Comparator, _group_by_x
from egtree.verify import mixture_weights

# -- comparator twins ------------------------------------------------------


def best_constant_grid(outcomes, loss: LossSpec, step: float = 1e-4, weights=None) -> Comparator:
    """Same minimization as ``best_constant`` on an explicit value grid."""
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise RejectedInputError("best_constant_grid needs a nonempty sequence")
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    w = np.ones(outcomes.size) if weights is None else np.asarray(weights, dtype=float)
    values = loss.value_array(grid[:, None], outcomes[None, :]) @ w
    k = int(values.argmin())
    return Comparator("constant", float(values[k]), argmin=float(grid[k]),
                      params={"step": step})


def lipschitz_grid_1d(xs, ys, L: float, loss: LossSpec, step: float = 0.02) -> Comparator:
    """Exhaustive minimization with every f-value restricted to a grid.

    Enumerates, via chain decomposition, exactly the same minimum a brute
    force scan over all grid assignments would find; the twin of
    ``best_lipschitz_1d``.
    """
    u, ys1, _, starts = _group_by_x(xs, ys)
    n = len(u)
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    m = len(grid)
    ends = np.concatenate((starts[1:], [len(ys1)]))

    def cost(i):
        pts = ys1[starts[i]:ends[i]]
        return loss.value_array(grid[:, None], pts[None, :]).sum(axis=1)

    V = cost(0)
    for i in range(1, n):
        reach = L * (u[i] - u[i - 1]) + 1e-12
        W = np.empty(m)
        for j in range(m):
            mask = np.abs(grid - grid[j]) <= reach
            W[j] = V[mask].min()
        V = cost(i) + W
    return Comparator("lipschitz_grid", float(V.min()), params={"L": L, "step": step})


def added_in_order(values) -> float:
    """The floats ``values`` added one at a time, first to last: the
    summation rule of ``egtree.losses.left_sum``, written out again so the
    twins below check that rule rather than share it."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def best_constant_sorted(outcomes, loss: LossSpec, weights=None) -> Comparator:
    """The best constant of one group: a stable argsort, then the weighted
    mean (square loss) or the first outcome whose cumulative weight reaches
    ``alpha`` of the total, by ``cumsum`` and ``searchsorted``.  Every sum
    is taken first to last over the sorted outcomes, of one rounded
    product per outcome."""
    outcomes = np.asarray(outcomes, dtype=float)
    w = np.ones(outcomes.size) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(outcomes, kind="stable")
    outcomes, w = outcomes[order].tolist(), w[order].tolist()
    if loss.kind == "square":
        mean = added_in_order(y * wk for y, wk in zip(outcomes, w)) / added_in_order(w)
        y_star = min(max(mean, 0.0), 1.0)
    else:
        alpha = 0.5 if loss.kind == "absolute" else loss.alpha
        cum = np.cumsum(w)
        k = min(int(np.searchsorted(cum, alpha * cum[-1])), len(outcomes) - 1)
        y_star = outcomes[k]
    value = added_in_order(loss.value(y_star, y) * wk for y, wk in zip(outcomes, w))
    return Comparator("constant", value, argmin=y_star)


def best_histogram_by_box(xs, ys, n_boxes: int, d: int, loss: LossSpec) -> Comparator:
    """The histogram comparator by one mask per box, boxes in sorted order."""
    xs, ys = np.asarray(xs, dtype=float).reshape(len(ys), d), np.asarray(ys, dtype=float)
    per_axis = round(n_boxes ** (1.0 / d))
    idx = np.minimum((xs * per_axis).astype(int), per_axis - 1)
    flat = np.zeros(len(xs), dtype=int)
    for j in range(d):
        flat = flat * per_axis + idx[:, j]
    fits, values = {}, []
    for box in np.unique(flat):
        fit = best_constant_sorted(ys[flat == box], loss)
        fits[int(box)] = fit.argmin
        values.append(fit.value)
    return Comparator("histogram", added_in_order(values), argmin=fits,
                      params={"n_boxes": n_boxes, "d": d})


def leaf_decomposition(log, loss: LossSpec) -> tuple:
    """``(node_best, sqrt_sum, eg_bounds)`` of a tree log: the steps grouped
    by leaf in a dict of step lists, in the order of first visits, each
    leaf's best constant, square-rooted visit count and EG regret bound
    (``eg.regret_bound`` of its visit count) summed in that order."""
    groups: dict = {}
    for k, leaf in enumerate(zip(log.leaf_h.tolist(), log.leaf_i.tolist())):
        groups.setdefault(leaf, []).append(k)
    node_best = added_in_order(best_constant_sorted(log.ys[idx], loss).value
                               for idx in groups.values())
    sqrt_sum = added_in_order(math.sqrt(len(idx)) for idx in groups.values())
    eg_bounds = added_in_order(eg.regret_bound(loss.M, len(idx)) for idx in groups.values())
    return node_best, sqrt_sum, eg_bounds


def stationary_exact(P) -> list:
    """The stationary distribution of the chain ``P`` (rows of floats, each
    summing to 1 exactly), in exact rational arithmetic: Gauss-Jordan
    elimination of ``(P^T - I) pi = 0`` with its last equation replaced by
    ``sum(pi) = 1``."""
    n = len(P)
    rows = [[Fraction(P[j][i]) - (i == j) for j in range(n)] + [Fraction(0)]
            for i in range(n - 1)]
    rows.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n] / row[i] for i, row in enumerate(rows)]


# -- bound formulas --------------------------------------------------------


def constant_gap_bound(M: float, L: float, count: int, diam: float) -> float:
    """Cap on (best constant - best Lipschitz) over one region: M*L*count*diam."""
    return M * L * count * diam


def mixture_bound(T: int, D: int, start: int) -> float:
    """The mixture's gap cap log(D) sqrt(T+1)/2 + (1/8) sum_(t=start..T) 2/sqrt(t),
    its tail added first to last by a loop of its own."""
    tail = 0.0
    for t in range(start, T + 1):
        tail = tail + 2.0 / math.sqrt(t)
    return math.log(D) * math.sqrt(T + 1.0) / 2.0 + tail / 8.0


def diameter_bound(d: int, h: int) -> float:
    """Box-diameter cap at depth h: sqrt(2d) * 2^(-h/d)."""
    return math.sqrt(2.0 * d) * 2.0 ** (-h / d)


# -- tree geometry ---------------------------------------------------------


def node_box(d: int, h: int, i: int) -> tuple:
    """Box ``(lo, hi)`` of tree node ``(h, i)`` in [0,1]^d.

    The bits of ``i - 1``, most significant first, spell the root-to-node
    path (1 = right child); the cut at depth ``level`` halves coordinate
    ``level mod d``.
    """
    lo, hi = [0.0] * d, [1.0] * d
    for level in range(h):
        c = level % d
        mid = (lo[c] + hi[c]) / 2.0
        if (i - 1 >> (h - 1 - level)) & 1:
            lo[c] = mid
        else:
            hi[c] = mid
    return tuple(lo), tuple(hi)


def contains(box, x) -> bool:
    """Whether ``x`` lies in the half-open ``box``; a face at 1 is closed."""
    lo, hi = box
    return all(l <= v < u or v == u == 1.0 for l, u, v in zip(lo, hi, x))


def built_nodes(tree) -> int:
    """Nodes reachable through the child links: those a point has reached."""
    stack, count = [tree.root], 0
    while stack:
        node = stack.pop()
        count += 1
        stack += [child for child in (node.left, node.right) if child is not None]
    return count


# -- row-by-row CSV I/O ----------------------------------------------------


def parse_unit(cell: str, row_no: int, what: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise RejectedInputError(f"row {row_no}: {what} {cell!r} is not a number") from None
    if not 0.0 <= v <= 1.0:
        raise RejectedInputError(f"row {row_no}: {what} {v!r} outside [0, 1]")
    return v


def read_series(path) -> np.ndarray:
    ys = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "y"]:
            raise RejectedInputError(f"expected header 't,y', got {header}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise RejectedInputError(f"row {row_no}: expected 2 fields, got {len(row)}")
            ys.append(parse_unit(row[1], row_no, "observation"))
    if not ys:
        raise RejectedInputError("series file has no observations")
    return np.array(ys)


def read_covariates(path):
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[-1].strip() != "y":
            raise RejectedInputError(f"expected header 'x1,..,xd,y', got {header}")
        d = len(header) - 1
        for row_no, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise RejectedInputError(
                    f"row {row_no}: expected {d + 1} fields, got {len(row)}")
            xs.append([parse_unit(c, row_no, "covariate") for c in row[:-1]])
            ys.append(parse_unit(row[-1], row_no, "observation"))
    if not ys:
        raise RejectedInputError("covariate file has no observations")
    return np.array(xs), np.array(ys)


def column_blocks(fh, width: int, block: int):
    """Yield ``(row number of the first row, columns)`` per ``block`` rows of ``fh``.

    ``fh`` is past its header (row 1); every row goes through ``csv.reader``
    and each block is transposed.  A row the csv module cannot split raises
    before its block is yielded; a row without ``width`` fields raises after
    the rows before it have been yielded.
    """
    def rows():
        row_no = 2
        try:
            for row in csv.reader(fh):
                yield row
                row_no += 1
        except csv.Error as exc:
            raise RejectedInputError(f"row {row_no}: {exc}") from None

    reader = rows()
    row_no = 2
    while chunk := list(itertools.islice(reader, block)):
        short = next((k for k, row in enumerate(chunk) if len(row) != width), None)
        if short != 0:
            yield row_no, list(zip(*chunk[:short]))
        if short is not None:
            raise RejectedInputError(
                f"row {row_no + short}: expected {width} fields, got {len(chunk[short])}")
        row_no += len(chunk)


def hand_run(config, ys, xs=None) -> RunLog:
    """The step log of the forecaster of ``config`` over ``ys``, each step
    predicted with its row of ``xs`` (None without covariates) through the
    public, checking ``predict``; its summary holds the config alone."""
    forecaster = _forecaster(config)
    T = len(ys)
    columns = {"leaf_h": [-1] * T, "leaf_i": [-1] * T, "n_nodes": [1] * T, "height": [0] * T,
               "experts": [()] * T}
    preds = []
    for k, y in enumerate(np.asarray(ys, dtype=float).tolist()):
        preds.append(forecaster.predict(None if xs is None else xs[k]))
        forecaster.update(y)
        for name, value in zip(forecaster.TRACED, forecaster.trace()):
            columns[name][k] = value
    x = np.empty((T, 0)) if xs is None else np.asarray(xs, dtype=float).reshape(T, -1)
    ints = (np.array(columns[name], dtype=np.int64)
            for name in ("leaf_h", "leaf_i", "n_nodes", "height"))
    pool = np.array([len(step) for step in columns["experts"]], dtype=np.int64)
    members = np.array([v for step in columns["experts"] for v in step], dtype=float)
    return RunLog(np.arange(1, T + 1, dtype=np.int64), x, np.array(preds),
                  np.asarray(ys, dtype=float), *ints, pool, members,
                  {"config": config.to_dict()})


def run_weights(config, ys) -> list:
    """The weights a mixture run predicts with at each step, as lists of floats
    read off the forecaster itself (``MetaForecaster.weights``)."""
    forecaster = _forecaster(config)
    weights = []
    for y in np.asarray(ys, dtype=float).tolist():
        forecaster.predict()
        weights.append(forecaster.weights)
        forecaster.update(y)
    return weights


def member_rows(log):
    """Each step's member predictions, a list of floats, cut from the log's flat
    column one step at a time."""
    start = 0
    for size in log.pool.tolist():
        yield log.expert_preds[start:start + size].tolist()
        start += size


def set_members(log, k, preds) -> None:
    """Give step ``k`` (from 0) of the in-memory ``log`` the member predictions
    ``preds``: its pool size and the flat column change together."""
    start = int(log.pool[:k].sum())
    end = start + int(log.pool[k])
    log.expert_preds = np.concatenate([log.expert_preds[:start], preds, log.expert_preds[end:]])
    log.pool[k] = len(preds)


def write_steps_csv(log, path) -> None:
    """The step log's ``steps.csv``, one ``csv.writer`` row per step."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STEP_COLUMNS)
        for k, experts in enumerate(member_rows(log)):
            writer.writerow((
                int(log.t[k]),
                ";".join(fmt17(v) for v in log.x[k]),
                fmt17(log.preds[k]),
                fmt17(log.ys[k]),
                int(log.leaf_h[k]) if log.leaf_h[k] >= 0 else "",
                int(log.leaf_i[k]) if log.leaf_i[k] >= 0 else "",
                int(log.n_nodes[k]),
                int(log.height[k]),
                ";".join(fmt17(v) for v in experts),
            ))


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as ``csv.writer`` writes them, one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def series_csv(ys) -> str:
    return csv_text(("t", "y"), ((t, fmt17(y)) for t, y in enumerate(ys, start=1)))


def covariates_csv(xs, ys) -> str:
    """A covariate file's text; ``xs`` is a list of rows."""
    d = len(xs[0]) if len(xs) else 0
    return csv_text([f"x{j + 1}" for j in range(d)] + ["y"],
                    ([fmt17(x) for x in row] + [fmt17(y)] for row, y in zip(xs, ys)))


def data_digest(ys, xs=None) -> str:
    """sha256 of ``x1,..,xd,y;`` per row, hashed a row at a time."""
    h = hashlib.sha256()
    for k, y in enumerate(ys):
        cells = [] if xs is None else [fmt17(x) for x in xs[k]]
        h.update((",".join(cells + [fmt17(y)]) + ";").encode())
    return h.hexdigest()


def node_growth_csv(named_logs) -> str:
    """The report's ``node_growth.csv`` of ``(run name, log)`` pairs."""
    return csv_text(("run", "t", "n_nodes", "height"),
                    ((name, int(log.t[k]), int(log.n_nodes[k]), int(log.height[k]))
                     for name, log in named_logs for k in range(len(log))))


def weights_csv(named_logs) -> str:
    """The report's ``weights.csv``, one row per member weight of
    :func:`egtree.verify.mixture_weights`, rendered a row at a time."""
    def rows(name, log):
        weights = iter(mixture_weights(log).tolist())
        for t, preds in zip(log.t.tolist(), member_rows(log)):
            for d in range(1, len(preds) + 1):
                yield name, t, d, fmt17(next(weights))

    return csv_text(("run", "t", "d", "weight"),
                    itertools.chain.from_iterable(rows(name, log) for name, log in named_logs))
