"""Online regression tree with per-leaf constant-tracking forecasters.

The tree adaptively partitions the covariate cube [0,1]^d into half-open
dyadic boxes.  Every observation is routed to the unique leaf containing
its covariate; the leaf predicts with its own exponentiated-gradient
constant tracker (:mod:`egtree.eg`).  A leaf at depth ``h`` splits its box
at the midpoint of coordinate ``h mod d`` (coordinates cycle with depth)
as soon as its observation count satisfies

    count + 1 >= 1 / diam(box)^2

where ``diam`` is the Euclidean diameter of the box.  In effective-range
mode the bounding-box diameter of the covariates actually observed at the
leaf is used instead, so a degenerate stream (e.g. a constant covariate)
never forces a split.

Geometry is fully determined by depth: after ``h = k*d + r`` splits the
first ``r`` coordinates of a box have side ``2^-(k+1)`` and the remaining
``d - r`` have side ``2^-k``, hence ``diam <= sqrt(2d) * 2^(-h/d)``.  The
box of node ``(h, i)`` follows from ``d``, ``h`` and ``i`` alone, so boxes
are neither stored nor rebuilt.  A node that splits keeps only its cut,
the coordinate ``c = h mod d`` and the midpoint of its box along it, which
:meth:`PartitionTree._cut` derives from any point of the box; routing then
costs one comparison per level.  Between ``predict`` and ``update`` the
tree itself remembers the leaf and the checked point.
"""

from __future__ import annotations

import math

import numpy as np

from . import eg
from .errors import ContractViolationError, RejectedInputError
from .losses import LossSpec


class TreeNode:
    """One tree node: depth/index pair, visit count, local forecaster.

    The forecaster state is kept unboxed: ``count`` is also its step count
    ``t`` and ``G`` its subgradient sum; its ``M`` is the tree's.  An inner
    node keeps its cut: it sends ``x`` left when ``x[c] < mid``.
    """

    __slots__ = ("h", "i", "count", "G", "left", "right", "c", "mid",
                 "obs_lo", "obs_hi")

    def __init__(self, h: int, i: int):
        self.h = h
        self.i = i
        self.count = 0
        self.G = 0.0
        self.left = None
        self.right = None
        self.c = None
        self.mid = None
        self.obs_lo = None  # per-coordinate min of observed covariates
        self.obs_hi = None  # per-coordinate max, effective-range mode only

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class PartitionTree:
    """Covariate-partitioning forecaster over [0,1]^d.

    A single instance must be driven sequentially: each ``predict`` is
    followed by exactly one ``update``, applied to the predicting leaf.
    """

    def __init__(self, d: int, loss: LossSpec, effective_range: bool = False):
        if d < 1:
            raise RejectedInputError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.loss = loss
        self.M = loss.M  # every node's forecaster uses the loss's M
        self.effective_range = effective_range
        self.root = TreeNode(0, 1)
        self.n_nodes = 1
        self.height = 0
        self._split_at = [1.0 / d]  # count + 1 that splits a depth-h box
        self._x_format = ";".join(["%.17g"] * d)  # a point as log text
        self._pending = None  # (leaf, point, prediction) awaiting its outcome
        self._last = None     # the same triple for the last completed step

    def _check_point(self, x) -> tuple:
        x = tuple(map(float, x))
        if len(x) != self.d:
            raise RejectedInputError(f"expected a point of dimension {self.d}, got {len(x)}")
        for v in x:
            if not 0.0 <= v <= 1.0:
                raise RejectedInputError(f"covariate {v!r} outside [0, 1]^d")
        return x

    # -- online protocol -----------------------------------------------

    def _descend(self, x: tuple) -> TreeNode:
        node = self.root
        while node.left is not None:
            # midpoint ties fall in the right box
            node = node.left if x[node.c] < node.mid else node.right
        return node

    def route(self, x) -> TreeNode:
        """Leaf whose box contains ``x``; cost proportional to the height."""
        return self._descend(self._check_point(x))

    def predict(self, x) -> float:
        """Prediction of the leaf whose box contains ``x``."""
        x = self._check_point(x)
        leaf = self._descend(x)
        pred = eg.prediction(leaf.count, leaf.G, self.M)
        self._pending = (leaf, x, pred)
        return pred

    def update(self, outcome: float) -> None:
        """Feed the observed outcome to the leaf of the pending prediction.

        The leaf may split afterwards, in which case it becomes an inner
        node and its two children start with fresh forecasters.  A rejected
        outcome leaves the tree and the pending prediction untouched.
        """
        if self._pending is None:
            raise ContractViolationError("update must follow predict")
        leaf, x, pred = self._pending
        g = self.loss.subgradient(pred, outcome)
        self._last, self._pending = self._pending, None

        leaf.G += g
        leaf.count += 1

        if self.effective_range:
            if leaf.obs_lo is None:
                leaf.obs_lo = list(x)
                leaf.obs_hi = list(x)
            else:
                for j, v in enumerate(x):
                    if v < leaf.obs_lo[j]:
                        leaf.obs_lo[j] = v
                    elif v > leaf.obs_hi[j]:
                        leaf.obs_hi[j] = v
            diam_sq = sum((b - a) ** 2 for a, b in zip(leaf.obs_lo, leaf.obs_hi))
            if diam_sq <= 0.0:
                return  # zero observed range: the split threshold is infinite
            if leaf.count + 1 >= 1.0 / diam_sq:
                self._split(leaf, x)
        elif leaf.count + 1 >= self._split_at[leaf.h]:
            self._split(leaf, x)

    def _cut(self, h: int, x) -> tuple:
        """Cut ``(c, mid)`` of the depth-``h`` box that contains ``x``.

        After ``k = h // d`` earlier cuts on coordinate ``c`` the box spans
        ``[j, j + 1] / 2^k`` there, with ``j = floor(x_c 2^k)`` (``2^k - 1``
        at ``x_c = 1``); both ends and the midpoint are exact doubles.
        """
        k, c = divmod(h, self.d)
        j = min(math.floor(math.ldexp(x[c], k)), (1 << k) - 1)
        return c, math.ldexp(2 * j + 1, -(k + 1))

    def _split(self, node: TreeNode, x) -> None:
        h = node.h + 1
        node.c, node.mid = self._cut(node.h, x)
        node.left = TreeNode(h, 2 * node.i - 1)
        node.right = TreeNode(h, 2 * node.i)
        node.obs_lo = node.obs_hi = None
        self.n_nodes += 2
        if h > self.height:
            self._deepen(h)

    def _deepen(self, h: int) -> None:
        """Raise the height to ``h`` and extend the split counts to match."""
        self.height = h
        split_at = self._split_at
        while len(split_at) <= h:
            k, r = divmod(len(split_at), self.d)
            split_at.append(1.0 / (r * 4.0 ** -(k + 1) + (self.d - r) * 4.0 ** -k))

    def trace(self) -> dict:
        """Log columns of the last step: its point, its leaf, the tree's size."""
        leaf, x, _ = self._last
        return {"x": self._x_format % x, "leaf_h": leaf.h,
                "leaf_i": leaf.i, "n_nodes": self.n_nodes, "height": self.height}

    # -- inspection ------------------------------------------------------

    def walk(self):
        """Depth-first iteration over the nodes, left child before right."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack += (node.right, node.left)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        for node in self.walk():
            entry = {
                "h": node.h,
                "i": node.i,
                "count": node.count,
                "eg": {"t": node.count, "G": node.G, "M": self.M},
            }
            if self.effective_range and node.obs_lo is not None:
                entry["obs_range"] = {"lo": list(node.obs_lo), "hi": list(node.obs_hi)}
            nodes.append(entry)
        return {
            "d": self.d,
            "loss": self.loss.to_dict(),
            "effective_range": self.effective_range,
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionTree":
        tree = cls(
            d=int(data["d"]),
            loss=LossSpec.from_dict(data["loss"]),
            effective_range=bool(data.get("effective_range", False)),
        )
        M = tree.M
        by_key = {}
        for entry in data["nodes"]:
            node = TreeNode(int(entry["h"]), int(entry["i"]))
            key = (node.h, node.i)
            if key in by_key:
                raise RejectedInputError(f"node {key} appears twice")
            node.count = int(entry["count"])
            e = entry["eg"]
            node.G = float(e["G"])
            if node.count < 0 or int(e["t"]) != node.count:
                raise RejectedInputError(
                    f"node {key}: count {node.count} must be >= 0 and equal eg.t {e['t']}")
            if not math.isfinite(node.G):
                raise RejectedInputError(f"node {key}: eg.G {node.G!r} is not finite")
            if float(e["M"]) != M:
                raise RejectedInputError(
                    f"node {key}: eg.M {e['M']!r} does not match the loss's M = {M!r}")
            rng = entry.get("obs_range")
            if rng is not None:
                node.obs_lo = [float(v) for v in rng["lo"]]
                node.obs_hi = [float(v) for v in rng["hi"]]
                if len(node.obs_lo) != tree.d or len(node.obs_hi) != tree.d:
                    raise RejectedInputError(f"node {key}: obs_range must hold {tree.d} values")
            by_key[key] = node
        if (0, 1) not in by_key:
            raise RejectedInputError("serialized tree has no root node")
        tree.root = by_key[(0, 1)]
        reached = 0
        # link the nodes reachable from the root and set each inner node's
        # cut from the lower corner of its box; a right child's corner
        # moves to the cut
        stack = [(tree.root, (0.0,) * tree.d)]
        while stack:
            node, lo = stack.pop()
            reached += 1
            h, i = node.h, node.i
            left, right = by_key.get((h + 1, 2 * i - 1)), by_key.get((h + 1, 2 * i))
            if (left is None) != (right is None):
                raise RejectedInputError(f"node ({h},{i}) has exactly one child")
            if left is not None:
                node.left, node.right = left, right
                node.c, node.mid = tree._cut(h, lo)
                right_lo = list(lo)
                right_lo[node.c] = node.mid
                stack += ((right, tuple(right_lo)), (left, lo))
        if reached != len(by_key):
            raise RejectedInputError(
                f"{len(by_key) - reached} serialized nodes cannot be reached from the root")
        tree.n_nodes = reached
        tree._deepen(max(h for h, _ in by_key))
        return tree


def node_count_bound(d: int, t):
    """Growth cap on the node count after t (or an array of t) steps: 1 + 8*(d*t)^(d/(d+2))."""
    return 1.0 + 8.0 * (d * t) ** (d / (d + 2.0))


def height_bound(d: int, t):
    """Growth cap on the tree height after t (or an array of t) steps: 1 + (d/2)*log2(4*d*t)."""
    return 1.0 + 0.5 * d * np.log2(4.0 * d * t)
