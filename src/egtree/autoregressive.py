"""Self-forecasting a series by aggregating lag-window tree forecasters.

A :class:`MetaForecaster` maintains the growing pool of lag-window trees
prescribed by a schedule of entry steps ``t_1 = 2 < t_2 < t_3 < ...``: the
member of order ``d`` is a ``d``-dimensional
:class:`~egtree.tree.PartitionTree`, admitted at step ``t_d`` and fed the
window of the last ``d`` observations (oldest first) as its covariate.  The
mixture combines the members' predictions with exponential weights.  With
``D_t`` active members, learning rates ``eta_t = 2/sqrt(t)`` and per-step
losses ``l_d = loss(f_d, y_t)``, the weights evolve as

    p'_d  propto  p_d^(eta_{t+1}/eta_t) * exp(-eta_{t+1} * l_d)

renormalized to sum to ``D_t / D_{t+1}``, while a member entering at step
``t+1`` receives weight ``1 / D_{t+1}``.  Weights are kept in the log
domain; the power-and-normalize update underflows otherwise.  The mixture
forecasts from its own history and ignores the ``x`` of ``predict(x)``.

``MetaForecaster.update`` range-checks each outcome before it enters the
history, so every lag window already holds checked floats: the mixture
hands its members the window as is, through ``PartitionTree._predict``,
and never re-checks it.
"""

from __future__ import annotations

import math

from .errors import ContractViolationError, RejectedInputError, positive_int
from .losses import LossSpec
from .oracles import lipschitz_regret_bound
from .tree import PartitionTree

POWERS_OF_TWO = "powers_of_two"
QUADRATIC = "quadratic"


def entry_step(kind: str, d: int) -> int:
    """Entry step of the order-d forecaster under the named schedule."""
    if kind == POWERS_OF_TWO:
        return 2 ** d
    if kind == QUADRATIC:
        return 2 if d == 1 else d * d + 1
    raise RejectedInputError(f"unknown schedule {kind!r}")


def reweight(logw: list[float], losses: list[float], eta_t: float, eta_next: float) -> list[float]:
    """One exponential-weights step in the log domain, normalized to sum 1.

    Applies ``p' propto p^(eta_next/eta_t) * exp(-eta_next * loss)`` and
    returns log-weights whose exponentials sum to one; the caller rescales
    when the pool grows.
    """
    ratio = eta_next / eta_t
    out = [ratio * lw - eta_next * l for lw, l in zip(logw, losses)]
    m = max(out)
    total = 0.0
    for lw in out:
        total += math.exp(lw - m)  # left to right: sum() rounds differently from 3.12
    lse = m + math.log(total)
    return [lw - lse for lw in out]


class LaggedForecaster:
    """Standalone order-d wrapper that feeds a tree the lag window ``y[t-d] ... y[t-1]``.

    Its window goes through the checking ``PartitionTree.predict``.  The
    mixture no longer uses it; it stays because the benchmark's tracer
    (``perfbench/tracing.py``) patches its methods by name.
    """

    def __init__(self, d: int, start: int, loss: LossSpec, effective_range: bool = False):
        if start < d + 1:
            raise RejectedInputError(f"entry step {start} < d+1 = {d + 1}")
        self.d = d
        self.start = start
        self.tree = PartitionTree(d, loss, effective_range=effective_range)

    def predict(self, history: list) -> float:
        """Prediction from the last ``d`` entries of ``history``."""
        if len(history) < self.d:
            raise ContractViolationError(
                f"order-{self.d} forecaster asked to predict from {len(history)} observations"
            )
        return self.tree.predict(history[-self.d:])

    def update(self, outcome: float) -> None:
        self.tree.update(outcome)

    def trace(self) -> tuple:
        return self.tree.trace()


class MetaForecaster:
    """Exponentially weighted mixture over a growing pool of lag orders."""

    TRACED = ("n_nodes", "height", "experts", "weights")  # step-log columns, in order

    def __init__(
        self,
        loss: LossSpec,
        schedule: str = POWERS_OF_TWO,
        effective_range: bool = False,
        max_d: int | None = None,
    ):
        entry_step(schedule, 1)  # rejects an unknown schedule
        self.loss = loss
        self.schedule = schedule
        self.effective_range = effective_range
        self.max_d = max_d if max_d is None else positive_int(max_d, "max_d")
        self.history: list = []
        self.experts: list[PartitionTree] = []  # the order-d member is experts[d - 1]
        self._logw: list[float] = []
        self._next_entry = entry_step(schedule, 1)  # None once max_d is reached
        self._pending = None  # (member predictions, weights) awaiting the outcome
        self._last = None     # the same pair for the last completed step

    @property
    def n_active(self) -> int:
        return len(self.experts)

    @property
    def weights(self) -> list[float]:
        """Current mixture weights, one per active forecaster."""
        return [math.exp(lw) for lw in self._logw]

    def predict(self, x=None) -> float:
        """Mixture prediction for the current step (1/2 before any entry)."""
        if not self.experts:
            self._pending = ((), ())
            return 0.5
        history = self.history  # checked outcomes only: see update()
        preds = tuple([tree._predict(tuple(history[-tree.d:])) for tree in self.experts])
        weights = tuple(map(math.exp, self._logw))
        y = 0.0
        for w, f in zip(weights, preds):
            y += w * f
        self._pending = (preds, weights)
        return min(max(y, 0.0), 1.0)

    def update(self, outcome: float) -> None:
        """Observe the step's outcome: feed members, reweight, admit entrants."""
        if self._pending is None:
            raise ContractViolationError("update must follow predict")
        if not 0.0 <= outcome <= 1.0:
            raise RejectedInputError(f"outcome must lie in [0, 1], got {outcome!r}")
        preds, _ = self._pending
        self._last, self._pending = self._pending, None
        t = len(self.history) + 1  # the step whose outcome this is

        if self.experts:
            for tree in self.experts:
                tree.update(outcome)
            value = self.loss.value
            self._logw = reweight(
                self._logw,
                [value(f, outcome) for f in preds],
                2.0 / math.sqrt(t),
                2.0 / math.sqrt(t + 1.0),
            )

        self.history.append(float(outcome))
        if t + 1 == self._next_entry:
            self._admit()

    def trace(self) -> tuple:
        """The last step's log fields in ``TRACED`` order; the log's ``y`` has its lag windows."""
        preds, weights = self._last
        return (sum([tree.n_nodes for tree in self.experts]) or 1,
                max([tree.height for tree in self.experts], default=0), preds, weights)

    def _admit(self) -> None:
        """Admit the member of the next order, whose entry step is now, and note the one after."""
        d_next = len(self.experts) + 1
        self.experts.append(PartitionTree(d_next, self.loss, self.effective_range))
        self._next_entry = (None if self.max_d is not None and d_next >= self.max_d
                            else entry_step(self.schedule, d_next + 1))
        incumbents = d_next - 1
        if incumbents:
            shift = math.log(incumbents / d_next)
            self._logw = [lw + shift for lw in self._logw]
        self._logw.append(-math.log(d_next))


def mixture_regret_bound(T: int, n_active: int) -> float:
    """Gap cap versus any active member: sqrt(T+1) * log(pool size).

    For a single-member pool the cap degenerates to 0; callers should then
    use :func:`mixture_regret_bound_raw`, whose Hoeffding term is positive.
    """
    return math.sqrt(T + 1.0) * math.log(n_active)


def mixture_regret_bound_raw(T: int, n_active: int, start: int) -> float:
    """Pre-simplification cap: log(D)/eta_{T+1} + (1/8) * sum eta_t."""
    tail = sum(2.0 / math.sqrt(t) for t in range(start, T + 1))
    return math.log(n_active) * math.sqrt(T + 1.0) / 2.0 + tail / 8.0


def combined_regret_bound(M: float, L: float, d: int, T: int, start: int, n_active: int) -> float:
    """End-to-end cap versus the order-d Lipschitz comparator."""
    return start + mixture_regret_bound(T, n_active) + lipschitz_regret_bound(M, L, d, T)
