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
``d - r`` have side ``2^-k``, hence ``diam <= sqrt(2d) * 2^(-h/d)``.
Boxes are therefore never stored per node.  A node that splits keeps only
its cut, the coordinate ``c = h mod d`` and the midpoint of its box along
it, so routing costs one comparison per level; the boxes themselves are
reconstructed from the root when they are inspected.  Between ``predict``
and ``update`` the tree itself remembers the leaf and the checked point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import eg
from .errors import ContractViolationError, RejectedInputError
from .losses import LossSpec


@dataclass(frozen=True, slots=True)
class Bin:
    """Axis-aligned box; upper faces are open except where they touch 1."""

    lo: tuple
    hi: tuple

    def contains(self, x) -> bool:
        for lo_j, hi_j, x_j in zip(self.lo, self.hi, x):
            if x_j < lo_j:
                return False
            if x_j >= hi_j and not (hi_j == 1.0 and x_j == 1.0):
                return False
        return True

    def side_lengths(self) -> tuple:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def diameter(self) -> float:
        return math.sqrt(sum((h - l) ** 2 for l, h in zip(self.lo, self.hi)))


class TreeNode:
    """One tree node: depth/index pair, visit count, local forecaster.

    The forecaster state is kept unboxed: ``count`` is also its step count
    ``t`` and ``G`` its subgradient sum.  An inner node keeps its cut: it
    sends ``x`` left when ``x[c] < mid``.
    """

    __slots__ = ("h", "i", "count", "G", "M", "left", "right", "c", "mid",
                 "obs_lo", "obs_hi")

    def __init__(self, h: int, i: int, M: float):
        self.h = h
        self.i = i
        self.count = 0
        self.G = 0.0
        self.M = M
        self.left = None
        self.right = None
        self.c = None
        self.mid = None
        self.obs_lo = None  # per-coordinate min of observed covariates
        self.obs_hi = None  # per-coordinate max, effective-range mode only

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def eg(self) -> eg.EgState:
        """The node's forecaster state, as a read-only snapshot."""
        return eg.EgState(self.count, self.G, self.M)


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
        self.effective_range = effective_range
        self.root = TreeNode(0, 1, loss.M)
        self.n_nodes = 1
        self.height = 0
        self.total_steps = 0
        self._split_at = [1.0 / d]  # count + 1 that splits a depth-h box
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
        pred = eg.prediction(leaf.count, leaf.G, leaf.M)
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
        self.total_steps += 1

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
        node.left = TreeNode(h, 2 * node.i - 1, node.M)
        node.right = TreeNode(h, 2 * node.i, node.M)
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
        return {"x": ";".join([format(v, ".17g") for v in x]), "leaf_h": leaf.h,
                "leaf_i": leaf.i, "n_nodes": self.n_nodes, "height": self.height}

    # -- inspection ------------------------------------------------------

    def walk(self):
        """Depth-first iteration over ``(node, bin)`` pairs."""
        lo = [0.0] * self.d
        hi = [1.0] * self.d

        def visit(node):
            yield node, Bin(tuple(lo), tuple(hi))
            if node.left is None:
                return
            c = node.h % self.d
            mid = (lo[c] + hi[c]) / 2.0
            old_lo, old_hi = lo[c], hi[c]
            hi[c] = mid
            yield from visit(node.left)
            hi[c] = old_hi
            lo[c] = mid
            yield from visit(node.right)
            lo[c] = old_lo

        yield from visit(self.root)

    def node_bin(self, node: TreeNode) -> Bin:
        """Reconstruct the box of a node from its (depth, index) pair."""
        lo = [0.0] * self.d
        hi = [1.0] * self.d
        # bits of i-1, most significant first, encode the root-to-node path
        for level in range(node.h):
            right = (node.i - 1 >> (node.h - 1 - level)) & 1
            c = level % self.d
            mid = (lo[c] + hi[c]) / 2.0
            if right:
                lo[c] = mid
            else:
                hi[c] = mid
        return Bin(tuple(lo), tuple(hi))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        for node, box in self.walk():
            entry = {
                "h": node.h,
                "i": node.i,
                "count": node.count,
                "eg": {"t": node.count, "G": node.G, "M": node.M},
                "bin": {"lo": list(box.lo), "hi": list(box.hi)},
            }
            if self.effective_range and node.obs_lo is not None:
                entry["obs_range"] = {"lo": list(node.obs_lo), "hi": list(node.obs_hi)}
            nodes.append(entry)
        return {
            "d": self.d,
            "loss": self.loss.to_dict(),
            "effective_range": self.effective_range,
            "total_steps": self.total_steps,
            "nodes": nodes,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionTree":
        tree = cls(
            d=int(data["d"]),
            loss=LossSpec.from_dict(data["loss"]),
            effective_range=bool(data.get("effective_range", False)),
        )
        M = tree.loss.M
        by_key = {}
        for entry in data["nodes"]:
            node = TreeNode(int(entry["h"]), int(entry["i"]), M)
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
        for (h, i), node in by_key.items():
            left = by_key.get((h + 1, 2 * i - 1))
            right = by_key.get((h + 1, 2 * i))
            if (left is None) != (right is None):
                raise RejectedInputError(f"node ({h},{i}) has exactly one child")
            node.left, node.right = left, right
        tree.root = by_key[(0, 1)]
        reached = 0
        for node, box in tree.walk():
            reached += 1
            if node.left is not None:
                node.c, node.mid = tree._cut(node.h, box.lo)
        if reached != len(by_key):
            raise RejectedInputError(
                f"{len(by_key) - reached} serialized nodes cannot be reached from the root")
        tree.n_nodes = reached
        tree._deepen(max(h for h, _ in by_key))
        tree.total_steps = int(data.get("total_steps", sum(n.count for n in by_key.values())))
        return tree

    @classmethod
    def from_json(cls, text: str) -> "PartitionTree":
        return cls.from_dict(json.loads(text))


def node_count_bound(d: int, t):
    """Growth cap on the node count after t (or an array of t) steps: 1 + 8*(d*t)^(d/(d+2))."""
    return 1.0 + 8.0 * (d * t) ** (d / (d + 2.0))


def height_bound(d: int, t):
    """Growth cap on the tree height after t (or an array of t) steps: 1 + (d/2)*log2(4*d*t)."""
    return 1.0 + 0.5 * d * np.log2(4.0 * d * t)


def diameter_bound(d: int, h: int) -> float:
    """Box-diameter cap at depth h: sqrt(2d) * 2^(-h/d)."""
    return math.sqrt(2.0 * d) * 2.0 ** (-h / d)
