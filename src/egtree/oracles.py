"""Offline comparators: the right-hand sides of the regret guarantees.

Everything here is computed exactly, independently of the online
forecasters, so the regret checks compare two genuinely separate routes:

* :func:`best_constants`     closed-form best single value in [0,1] of
  every group of outcomes that share their keys, after one stable sort
* :func:`best_constant`      its one-group case
* :func:`best_histogram`     best constant per box of an equal partition
  (one group per box)
* :func:`best_lipschitz_1d`  best slope-bounded function on a line, by an
  exact DP over the sorted distinct covariates: two plain heaps for
  absolute loss, weighted heaps (:class:`_Side`) for pinball loss and a
  knot walk for square loss

The histogram and Lipschitz comparators consume (covariate, outcome)
pairs; the constant comparators consume outcomes (and group keys) only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import RejectedInputError, positive_int
from .losses import LossSpec, left_sum


@dataclass(frozen=True)
class Comparator:
    """Optimal cumulative loss of a comparator class on a fixed dataset."""

    kind: str
    value: float
    argmin: object = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": self.params, "loss": self.value}
        if self.kind == "lipschitz":  # the fit f at each distinct covariate u
            u, f = self.argmin
            out["argmin"] = {"x": u.tolist(), "f": f.tolist()}
        elif self.argmin is not None:
            out["argmin"] = self.argmin
        return out


class ConstantFits(NamedTuple):
    """The best constant of each group of :func:`best_constants`, in key order."""

    value: np.ndarray   # the group's optimal cumulative loss
    argmin: np.ndarray  # its best constant
    count: np.ndarray   # its number of outcomes
    first: np.ndarray   # the input index of its first outcome


def best_constants(outcomes, keys, loss: LossSpec, weights=None) -> ConstantFits:
    """Minimize ``sum_t w_t loss(y, y_t)`` over y in [0,1], per group, in closed form.

    A group is the outcomes whose ``keys`` (a sequence of arrays shaped
    like ``outcomes``; none makes one group) are all equal.  One stable
    ``np.lexsort`` orders the outcomes by keys, then value, so every group
    is one sorted run, its outcomes in the order a stable sort of the group
    alone gives.  Square loss is minimized by the weighted mean.  Absolute
    and pinball loss are minimized by the smallest outcome whose cumulative
    weight, in sorted order, reaches ``alpha`` of the total (alpha = 1/2 for
    absolute loss: the lower weighted median); with unit weights that is
    the outcome at index ``ceil(alpha n) - 1`` of a group of n.
    ``weights`` default to 1 (they turn the sum into an expected loss when
    given); a weight that is negative or not finite, or a group whose
    weights are all 0, is rejected.  Over its sorted run, a group's mean is
    the ``left_sum`` of ``w * outcomes`` over that of ``w``, and its value
    the ``left_sum`` of ``w * loss``: the same sums of the same floats
    whatever the grouping.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim != 1 or outcomes.size == 0:
        raise RejectedInputError("the best constant needs a nonempty sequence of outcomes")
    if not (outcomes.min() >= 0.0 and outcomes.max() <= 1.0):  # NaN fails both
        raise RejectedInputError("outcomes must lie in [0, 1]")
    n = outcomes.size
    keys = [np.asarray(key) for key in keys]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if any(column.shape != outcomes.shape for column in (w, *keys)):
        raise RejectedInputError(f"every weight and group key needs one value per outcome ({n})")
    if not (np.isfinite(w).all() and w.min() >= 0.0):
        raise RejectedInputError("weights must be finite and >= 0")
    # the last key of lexsort is its primary one
    order = np.lexsort((outcomes, *reversed(keys)))
    ys, w = outcomes[order], w[order]
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    if not np.all(np.maximum.reduceat(w, starts) > 0.0):
        raise RejectedInputError("every group needs a positive total weight")
    count = np.diff(starts, append=n)
    runs = list(zip(starts.tolist(), (starts + count).tolist()))
    if loss.kind == "square":
        moment, weight = (ys * w).tolist(), w.tolist()
        argmin = np.array([min(max(left_sum(moment[s:e]) / left_sum(weight[s:e]), 0.0), 1.0)
                           for s, e in runs])
    else:
        alpha = 0.5 if loss.kind == "absolute" else loss.alpha
        if weights is None:  # searchsorted(cumsum(ones(n)), alpha * n), in closed form
            k = np.minimum(np.ceil(alpha * count).astype(np.int64) - 1, count - 1)
        else:
            k = []
            for s, e in runs:
                cum = np.cumsum(w[s:e])
                k.append(min(int(np.searchsorted(cum, alpha * cum[-1])), e - s - 1))
        argmin = ys[starts + k]
    losses = (loss.value_array(np.repeat(argmin, count), ys) * w).tolist()
    value = np.array([left_sum(losses[s:e]) for s, e in runs])
    return ConstantFits(value, argmin, count, np.minimum.reduceat(order, starts))


def best_constant(outcomes, loss: LossSpec, weights=None) -> Comparator:
    """The best constant of all ``outcomes``: :func:`best_constants` with one group."""
    fit = best_constants(outcomes, (), loss, weights)
    return Comparator("constant", float(fit.value[0]), argmin=float(fit.argmin[0]))


def best_histogram(xs, ys, n_boxes: int, d: int, loss: LossSpec) -> Comparator:
    """Best piecewise-constant predictor on an equal partition of [0,1]^d.

    ``n_boxes`` must be a d-th power, giving the same number of cells per
    axis; outcomes falling in each box get that box's best constant
    (:func:`best_constants`, one group per box), empty boxes contribute
    nothing.  Covariates must lie in [0,1]; the face x = 1 belongs to the
    last cell of its axis.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape[1] != d:
        raise RejectedInputError(f"covariates have dimension {xs.shape[1]}, expected {d}")
    positive_int(n_boxes, "need at least one box: n_boxes")
    per_axis = round(n_boxes ** (1.0 / d))
    if per_axis ** d != n_boxes:
        raise RejectedInputError(f"{n_boxes} boxes cannot tile [0,1]^{d} evenly")
    if not ((xs >= 0.0) & (xs <= 1.0)).all():  # NaN fails both
        raise RejectedInputError("covariates must lie in [0, 1]")
    if ys.shape != xs.shape[:1]:
        raise RejectedInputError(f"{ys.size} outcomes for {len(xs)} covariate rows")
    idx = np.minimum((xs * per_axis).astype(int), per_axis - 1)
    flat = np.zeros(len(xs), dtype=int)
    for j in range(d):
        flat = flat * per_axis + idx[:, j]
    fits = best_constants(ys, (flat,), loss)
    return Comparator("histogram", left_sum(fits.value),  # boxes in sorted order
                      argmin=dict(zip(flat[fits.first].tolist(), fits.argmin.tolist())),
                      params={"n_boxes": n_boxes, "d": d})


# -- slope-bounded regression on a line ---------------------------------


def _group_by_x(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 2:
        if xs.shape[1] != 1:
            raise RejectedInputError("the slope-bounded comparator supports d=1 only")
        xs = xs[:, 0]
    if xs.size == 0:
        raise RejectedInputError("need at least one data point")
    if ys.shape != xs.shape:
        raise RejectedInputError(f"{ys.size} outcomes for {xs.size} covariates")
    if not (ys.min() >= 0.0 and ys.max() <= 1.0):  # NaN fails both
        raise RejectedInputError("outcomes must lie in [0, 1]")
    if not np.isfinite(xs).all():
        raise RejectedInputError("covariates must be finite")
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    u, gidx = np.unique(xs, return_inverse=True)
    starts = np.searchsorted(gidx, np.arange(len(u)))
    return u, ys, gidx, starts


class _Side:
    """Breakpoints on one side of the minimum of a convex piecewise function.

    Serves the pinball and square-loss DPs, whose breakpoints carry
    unequal weights (a jump in slope or curvature; absolute loss needs none,
    see :func:`_absolute_minimizers`); equal positions share one entry.
    Positions sit in a heap behind a lazy ``shift``, with ``sign`` -1 for
    the left side (nearest first means largest first) and +1 for the right
    side.  Keys and weights are plain
    floats, so the DP allocates no per-breakpoint objects that the garbage
    collector tracks (tuple entries would be, and the collections they
    trigger land in whatever runs next in the same process).
    """

    def __init__(self, sign: float):
        self.sign = sign
        self.shift = 0.0
        self.keys: list = []
        self.weight: dict = {}

    def top(self) -> float:
        """Position of the breakpoint nearest the minimum."""
        return self.sign * self.keys[0] + self.shift

    def add(self, pos: float, w: float) -> None:
        key = self.sign * (pos - self.shift)
        if key in self.weight:
            self.weight[key] += w
        else:
            self.weight[key] = w
            heapq.heappush(self.keys, key)

    def pop(self) -> float:
        """Remove the nearest breakpoint; returns its weight."""
        return self.weight.pop(heapq.heappop(self.keys))


def _move_weight(src: _Side, dst: _Side, w: float) -> None:
    """Move weight ``w`` from the nearest breakpoints of ``src`` to ``dst``, splitting the last."""
    while w > 1e-12 and src.keys:
        pos, wk = src.top(), src.weight[src.keys[0]]
        if wk <= w + 1e-12:
            src.pop()
            w -= wk
        else:
            src.weight[src.keys[0]] = wk - w
            wk, w = w, 0.0
        dst.add(pos, wk)


def _absolute_minimizers(ys: list, starts: list, ends: list, caps: list) -> list:
    """Per-stage minimizers of the chain DP for absolute loss.

    The slope trick of :func:`_pinball_minimizers` at alpha = 1/2, where
    every breakpoint has the same weight: each side is a plain heap with
    one key per breakpoint, and a point moves exactly one breakpoint each
    way, by one ``heappushpop`` into a side and one ``heappush`` of the
    popped top into the other.  Keys and positions are computed as in
    :class:`_Side` (``-(y - shift)`` is its ``-1.0 * (y - shift)``), so
    the minimizers equal the weighted DP's at alpha = 1/2 bit for bit.
    """
    lo: list = []  # keys -(pos - lo_shift): largest position first
    hi: list = []  # keys pos - hi_shift: smallest position first
    lo_shift = hi_shift = 0.0
    push, pushpop = heapq.heappush, heapq.heappushpop
    mins = [0.0] * len(starts)
    for i in range(len(starts)):
        if i:
            lo_shift -= caps[i - 1]
            hi_shift += caps[i - 1]
        for t in range(starts[i], ends[i]):
            y = ys[t]
            pos = -pushpop(lo, -(y - lo_shift)) + lo_shift
            push(hi, pos - hi_shift)
            pos = pushpop(hi, y - hi_shift) + hi_shift
            push(lo, -(pos - lo_shift))
        mins[i] = 0.5 * ((-lo[0] + lo_shift) + (hi[0] + hi_shift))
    return mins


def _pinball_minimizers(ys: list, starts: list, ends: list, caps: list, alpha: float) -> list:
    """Per-stage minimizers of the chain DP for ``alpha``-weighted check loss.

    Weighted slope trick: the value function is convex piecewise linear,
    held as its breakpoints with their slope weights, split into those left
    and right of the minimum.  A point y adds slope weight ``1 - alpha``
    right of y and ``alpha`` left of it; the box min-convolution with
    ``|f' - f| <= c`` shifts the left side by -c and the right side by +c.
    Absolute loss is the case alpha = 1/2 scaled by 2, which
    :func:`_absolute_minimizers` solves without weights.
    """
    lo, hi = _Side(-1.0), _Side(1.0)
    mins = [0.0] * len(starts)
    for i in range(len(starts)):
        if i:
            lo.shift -= caps[i - 1]
            hi.shift += caps[i - 1]
        for t in range(starts[i], ends[i]):
            lo.add(ys[t], 1.0 - alpha)
            _move_weight(lo, hi, 1.0 - alpha)
            hi.add(ys[t], alpha)
            _move_weight(hi, lo, alpha)
        mins[i] = 0.5 * (lo.top() + hi.top())
    return mins


def _square_minimizers(sums: list, counts: list, caps: list) -> list:
    """Per-stage minimizers of the chain DP for square loss.

    The value function V is strictly convex piecewise quadratic, so V' is
    piecewise linear.  Its knots, with the jump of V'' at each, are split
    into those left and right of the minimizer m; ``curv`` is V'' on the
    piece that holds m.  The box min-convolution moves the two sides apart
    by c each and puts a flat piece of V' = 0 in between; a group of k
    points then adds ``2k(f - mean)`` to V', and the new zero is found by
    walking out from the centre of that flat piece across as many knots as
    it takes.
    """
    lo, hi = _Side(-1.0), _Side(1.0)
    mins = [0.0] * len(sums)
    m = sums[0] / counts[0]
    curv = 2.0 * counts[0]
    mins[0] = m
    for i in range(1, len(sums)):
        c = caps[i - 1]
        lo.shift -= c
        hi.shift += c
        lo.add(m - c, -curv)
        hi.add(m + c, curv)
        curv = 2.0 * counts[i]
        x = m
        s = curv * (m - sums[i] / counts[i])  # V' at x
        while s > 0.0 and lo.keys and s - curv * (x - lo.top()) > 0.0:
            q = lo.top()
            s -= curv * (x - q)
            x = q
            jump = lo.pop()
            hi.add(q, jump)
            curv -= jump
        while s < 0.0 and hi.keys and s + curv * (hi.top() - x) < 0.0:
            q = hi.top()
            s += curv * (q - x)
            x = q
            jump = hi.pop()
            lo.add(q, jump)
            curv += jump
        m = x - s / curv
        mins[i] = m
    return mins


def best_lipschitz_1d(xs, ys, L: float, loss: LossSpec) -> Comparator:
    """Best L-slope-bounded predictor of y from a scalar covariate, exactly.

    Minimizes ``sum_t loss(f(x_t), y_t)`` over functions f: [0,1] -> [0,1]
    with ``|f(x) - f(x')| <= L |x - x'|``.  On a line only the constraints
    between consecutive distinct covariates bind, so this is a chain of
    convex stage costs with ``|f[i+1] - f[i]| <= L (u[i+1] - u[i])``, solved
    by an exact dynamic program over the sorted distinct x (the fused-lasso
    DP of N. Johnson, JCGS 2013, with a box min-convolution in place of the
    fusion penalty).  Each loss takes its own DP, all O(n log n) in the
    number n of outcomes except the last:

    * absolute: the slope trick on two plain heaps (one push-pop and one
      push per side and point, :func:`_absolute_minimizers`);
    * pinball: the weighted slope trick (:func:`_pinball_minimizers`);
    * square: its piecewise-quadratic analogue, whose walk between
      consecutive minimizers can cross many knots, so it grows faster than
      n log n on long inputs (:func:`_square_minimizers`).

    The argmin backtracks through one stored minimizer per stage and is
    then clipped to [0,1]; clipping keeps every slope constraint and never
    moves a value away from outcomes in [0,1], so the box costs nothing.
    For the same reason each link is capped at ``min(L * du, 1)``: values
    in [0,1] never differ by more than 1, so the cap removes no point of
    the box and leaves the optimum unchanged.  It keeps the DP's lazy shift
    below the number of distinct x, which an uncapped large L would push to
    ``L * (u_max - u_min)`` and wash out the bits of every outcome.  What
    rounding remains moves breakpoint positions by about (number of
    distinct x) * 2**-52.  The returned value is the loss recomputed at the
    argmin, added left to right (``left_sum``) in the order of the sorted x.
    """
    if not 0.0 <= L < math.inf:
        raise RejectedInputError("the slope bound L must be finite and >= 0")
    u, ys1, gidx, starts = _group_by_x(xs, ys)
    n = len(u)
    if L == 0.0 or n == 1:
        fit = best_constant(ys1, loss)
        return Comparator("lipschitz", fit.value, argmin=(u, np.full(n, fit.argmin)),
                          params={"L": L})
    caps = np.minimum(L * np.diff(u), 1.0).tolist()
    ends = np.append(starts[1:], len(ys1))
    if loss.kind == "square":
        f = _square_minimizers(np.add.reduceat(ys1, starts).tolist(),
                               (ends - starts).tolist(), caps)
    elif loss.kind == "absolute":
        f = _absolute_minimizers(ys1.tolist(), starts.tolist(), ends.tolist(), caps)
    else:
        f = _pinball_minimizers(ys1.tolist(), starts.tolist(), ends.tolist(), caps, loss.alpha)
    # backtrack: the best value at stage i given the value chosen at i + 1
    for i in range(n - 2, -1, -1):
        f[i] = min(max(f[i], f[i + 1] - caps[i]), f[i + 1] + caps[i])
    f = np.clip(f, 0.0, 1.0)
    value = left_sum(loss.value_array(f[gidx], ys1))
    return Comparator("lipschitz", value, argmin=(u, f), params={"L": L})


# -- bound formulas -------------------------------------------------------


def lipschitz_regret_bound(M: float, L: float, d: int, T: int) -> float:
    """Tree regret cap versus the L-Lipschitz class in dimension d."""
    return M * (3.0 + L) * (
        math.sqrt(T) + 2.0 * (3.0 * d) ** (d / (2.0 * (d + 2.0))) * T ** ((d + 1.0) / (d + 2.0))
    )
