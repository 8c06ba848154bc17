"""Reference implementations that the tests compare the package against.

* Exhaustive grid twins of the exact comparators in :mod:`egtree.oracles`.
* Bound formulas that only tests evaluate.
* The box of a tree node rebuilt from its ``(h, i)`` path bits, the
  independent geometry that routing and the stored cuts are checked against,
  and the count of the nodes a tree has built.
* Row-by-row CSV readers and a ``csv.writer`` step-log writer: the
  straightforward versions of the column-wise I/O in :mod:`egtree.harness`,
  which must match them message for message and byte for byte.
"""

import csv
import math
from pathlib import Path

import numpy as np

from egtree.errors import RejectedInputError
from egtree.harness import STEP_COLUMNS, fmt17
from egtree.losses import LossSpec
from egtree.oracles import Comparator, _group_by_x

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


# -- bound formulas --------------------------------------------------------


def constant_gap_bound(M: float, L: float, count: int, diam: float) -> float:
    """Cap on (best constant - best Lipschitz) over one region: M*L*count*diam."""
    return M * L * count * diam


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


def write_steps_csv(log, path) -> None:
    """The step log's ``steps.csv``, one ``csv.writer`` row per step."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STEP_COLUMNS)
        for k in range(len(log)):
            writer.writerow((
                int(log.t[k]),
                log.x_text[k],
                fmt17(log.preds[k]),
                fmt17(log.ys[k]),
                fmt17(log.losses[k]),
                int(log.leaf_h[k]) if log.leaf_h[k] >= 0 else "",
                int(log.leaf_i[k]) if log.leaf_i[k] >= 0 else "",
                int(log.n_nodes[k]),
                int(log.height[k]),
                ";".join(fmt17(v) for v in log.expert_preds[k]),
                ";".join(fmt17(v) for v in log.expert_weights[k]),
            ))
