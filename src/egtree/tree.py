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

A split only records the cut.  Each child is built the first time a point
reaches it; until then it is a fresh leaf (no steps, ``G = 0``) that
exists only in ``n_nodes`` and in :meth:`PartitionTree.walk`, which yields
a stand-in for it.  At most one side of most splits is ever reached, so
about half of the counted nodes are never built.

The public ``predict`` and ``route`` check their point; ``predict`` then
hands it to the private ``_predict``, the only prediction code.  A caller
that has already checked its point, a lag-window member of
:class:`~egtree.autoregressive.MetaForecaster`, calls ``_predict`` directly.
"""

from __future__ import annotations

import math

import numpy as np

from . import eg
from .errors import ContractViolationError, RejectedInputError, json_field
from .losses import LossSpec


class TreeNode:
    """One tree node: depth/index pair, visit count, local forecaster.

    The forecaster state is kept unboxed: ``count`` is also its step count
    ``t`` and ``G`` its subgradient sum, the ``(t, G)`` that
    :func:`egtree.eg.predict` and :func:`egtree.eg.update` take; its ``M``
    is the tree's.  An inner node keeps its cut: it sends ``x`` left when
    ``x[c] < mid``.  Its ``left`` and ``right`` stay ``None`` until a point
    first reaches that side; the tree's ``n_nodes`` counts them either way.
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
        return self.c is None


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
        self._cuts = [(0, 1.0)]     # (c, 2^k) of a depth-h box, k = h // d
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
        while node.c is not None:
            # midpoint ties fall in the right box
            if x[node.c] < node.mid:
                child = node.left
                if child is None:
                    child = node.left = TreeNode(node.h + 1, 2 * node.i - 1)
            else:
                child = node.right
                if child is None:
                    child = node.right = TreeNode(node.h + 1, 2 * node.i)
            node = child
        return node

    def route(self, x) -> TreeNode:
        """Leaf whose box contains ``x``, built if no point reached it before."""
        return self._descend(self._check_point(x))

    def predict(self, x) -> float:
        """Prediction of the leaf whose box contains ``x``."""
        return self._predict(self._check_point(x))

    def _predict(self, x: tuple) -> float:
        """:meth:`predict` for a point already checked: a tuple of d floats in [0, 1]."""
        leaf = self._descend(x)
        pred = eg.predict(leaf.count, leaf.G, self.M)
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
        leaf.count, leaf.G = eg.update(leaf.count, leaf.G, pred, outcome, self.loss)
        self._last, self._pending = self._pending, None

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
            diam_sq = 0.0
            for a, b in zip(leaf.obs_lo, leaf.obs_hi):
                diam_sq += (b - a) ** 2  # left to right: sum() rounds differently from 3.12
            if diam_sq <= 0.0:
                return  # zero observed range: the split threshold is infinite
            if leaf.count + 1 >= 1.0 / diam_sq:
                self._split(leaf, x)
        elif leaf.count + 1 >= self._split_at[leaf.h]:
            self._split(leaf, x)

    def _cut(self, h: int, x) -> tuple:
        """Cut ``(c, mid)`` of the depth-``h`` box that contains ``x``.

        After ``k = h // d`` earlier cuts on coordinate ``c`` the box spans
        ``[j, j + 1] / s`` there, with ``s = 2^k`` read from a per-depth
        table and ``j = floor(x_c s)`` (``s - 1`` at ``x_c = 1``).  Scaling
        by a power of two is exact, so both ends and the midpoint are exact
        doubles while ``k <= 52``; a box that deep needs about ``4^52`` visits
        before it splits.
        """
        c, s = self._cuts[h]
        j = int(x[c] * s)
        if j == s:
            j -= 1
        return c, (j + 0.5) / s

    def _split(self, node: TreeNode, x) -> None:
        """Cut the leaf's box; its children are built on their first visit."""
        node.c, node.mid = self._cut(node.h, x)
        node.obs_lo = node.obs_hi = None
        self.n_nodes += 2
        if node.h >= self.height:
            self._deepen(node.h + 1)

    def _deepen(self, h: int) -> None:
        """Raise the height to ``h`` and extend the per-depth tables to match."""
        self.height = h
        split_at, cuts = self._split_at, self._cuts
        while len(split_at) <= h:
            k, r = divmod(len(split_at), self.d)
            split_at.append(1.0 / (r * 4.0 ** -(k + 1) + (self.d - r) * 4.0 ** -k))
            cuts.append((r, math.ldexp(1.0, k)))

    def trace(self) -> dict:
        """Log columns of the last step: its point, its leaf, the tree's size."""
        leaf, x, _ = self._last
        return {"x": self._x_format % x, "leaf_h": leaf.h,
                "leaf_i": leaf.i, "n_nodes": self.n_nodes, "height": self.height}

    # -- inspection ------------------------------------------------------

    def walk(self):
        """Depth-first iteration over the nodes, left child before right.

        A child that was never built is yielded as a fresh stand-in leaf,
        so every one of the ``n_nodes`` nodes appears.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.c is not None:
                h, i = node.h + 1, 2 * node.i
                right = node.right if node.right is not None else TreeNode(h, i)
                left = node.left if node.left is not None else TreeNode(h, i - 1)
                stack += (right, left)

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
        """Load :meth:`to_dict` output; any other input is a :class:`RejectedInputError`."""
        tree = cls(
            d=json_field(data, "d", int, "tree"),
            loss=LossSpec.from_dict(json_field(data, "loss", dict, "tree")),
            effective_range=json_field(data, "effective_range", bool, "tree", default=False),
        )
        M = tree.M
        by_key = {}
        for entry in json_field(data, "nodes", list, "tree"):
            node = TreeNode(json_field(entry, "h", int, "node"),
                            json_field(entry, "i", int, "node"))
            key = (node.h, node.i)
            where = f"node {key}"
            if key in by_key:
                raise RejectedInputError(f"{where} appears twice")
            node.count = json_field(entry, "count", int, where)
            e = json_field(entry, "eg", dict, where)
            t, node.G = json_field(e, "t", int, where), float(json_field(e, "G", float, where))
            if node.count < 0 or t != node.count:
                raise RejectedInputError(
                    f"{where}: count {node.count} must be >= 0 and equal eg.t {t}")
            if not math.isfinite(node.G):
                raise RejectedInputError(f"{where}: eg.G {node.G!r} is not finite")
            if json_field(e, "M", float, where) != M:
                raise RejectedInputError(
                    f"{where}: eg.M {e['M']!r} does not match the loss's M = {M!r}")
            rng = json_field(entry, "obs_range", dict, where, default=None)
            if rng is not None:
                lo, hi = json_field(rng, "lo", list, where), json_field(rng, "hi", list, where)
                if not (len(lo) == len(hi) == tree.d and all(
                        type(a) in (int, float) and type(b) in (int, float) and 0 <= a <= b <= 1
                        for a, b in zip(lo, hi))):
                    raise RejectedInputError(f"{where}: obs_range must hold {tree.d} numbers "
                                             f"per end, with 0 <= lo <= hi <= 1")
                node.obs_lo, node.obs_hi = list(map(float, lo)), list(map(float, hi))
            by_key[key] = node
        if (0, 1) not in by_key:
            raise RejectedInputError("serialized tree has no root node")
        tree.root = by_key[(0, 1)]
        reached = 0
        # link the nodes reachable from the root and set each inner node's
        # cut from the lower corner of its box; a right child's corner
        # moves to the cut.  The per-depth tables grow with the depth
        # reached, never past a depth whose nodes all exist.
        stack = [(tree.root, (0.0,) * tree.d)]
        while stack:
            node, lo = stack.pop()
            reached += 1
            h, i = node.h, node.i
            if h > tree.height:
                tree._deepen(h)
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
        return tree


def node_count_bound(d: int, t):
    """Growth cap on the node count after t (or an array of t) steps: 1 + 8*(d*t)^(d/(d+2))."""
    return 1.0 + 8.0 * (d * t) ** (d / (d + 2.0))


def height_bound(d: int, t):
    """Growth cap on the tree height after t (or an array of t) steps: 1 + (d/2)*log2(4*d*t)."""
    return 1.0 + 0.5 * d * np.log2(4.0 * d * t)
