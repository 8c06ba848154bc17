"""Self-forecasting a series by aggregating lag-window tree forecasters.

A :class:`LaggedForecaster` of order ``d`` feeds the window of the last
``d`` observations (oldest first) as the covariate of a ``d``-dimensional
:class:`~egtree.tree.PartitionTree`, starting at its scheduled entry step.

A :class:`MetaForecaster` maintains the growing pool of lagged forecasters
prescribed by a schedule of entry steps ``t_1 = 2 < t_2 < t_3 < ...`` and
mixes their predictions with exponential weights.  With ``D_t`` active
members, learning rates ``eta_t = 2/sqrt(t)`` and per-step losses
``l_d = loss(f_d, y_t)``, the weights evolve as

    p'_d  propto  p_d^(eta_{t+1}/eta_t) * exp(-eta_{t+1} * l_d)

renormalized to sum to ``D_t / D_{t+1}``, while a member entering at step
``t+1`` receives weight ``1 / D_{t+1}``.  Weights are kept in the log
domain; the power-and-normalize update underflows otherwise.  The mixture
forecasts from its own history and ignores the ``x`` of ``predict(x)``.

``MetaForecaster.update`` range-checks each outcome before it enters the
history, so every lag window already holds checked floats: the mixture
hands its members' trees the window as is, through
``PartitionTree._predict``, and never re-checks it.  ``LaggedForecaster``
on its own is driven through the checking ``PartitionTree.predict``.
"""

from __future__ import annotations

import hashlib
import math

from .errors import ContractViolationError, RejectedInputError
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
    """Order-d autoregressive wrapper around a partition tree.

    Inactive before ``start``; from then on each step consumes the lag
    window ``y[t-d] ... y[t-1]`` as covariate; the tree keeps the pending step.
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

    def trace(self) -> dict:
        return self.tree.trace()


class MetaForecaster:
    """Exponentially weighted mixture over a growing pool of lag orders."""

    def __init__(
        self,
        loss: LossSpec,
        schedule: str = POWERS_OF_TWO,
        effective_range: bool = False,
        max_d: int | None = None,
    ):
        entry_step(schedule, 1)  # rejects an unknown schedule
        if max_d is not None and max_d < 1:
            raise RejectedInputError("max_d must be >= 1")
        self.loss = loss
        self.schedule = schedule
        self.effective_range = effective_range
        self.max_d = max_d
        self.history: list = []
        self.experts: list[LaggedForecaster] = []
        # flat views of the members, in the order of ``experts``, for the step loop
        self._members: list = []  # (tree._predict, d)
        self._updates: list = []  # tree.update
        self._trees: list[PartitionTree] = []
        self._logw: list[float] = []
        self._next_entry = entry_step(schedule, 1)  # None once max_d is reached
        self._pending = None  # (member predictions, weights) awaiting the outcome
        self._last = None     # the same pair for the last completed step
        self._history_text: list = []  # .17g text of history, filled by trace()

    @property
    def n_active(self) -> int:
        return len(self.experts)

    @property
    def weights(self) -> list[float]:
        """Current mixture weights, one per active forecaster."""
        return [math.exp(lw) for lw in self._logw]

    def predict(self, x=None) -> float:
        """Mixture prediction for the current step (1/2 before any entry)."""
        if not self._members:
            self._pending = ((), ())
            return 0.5
        history = self.history  # checked outcomes only: see update()
        preds = tuple([predict(tuple(history[-d:])) for predict, d in self._members])
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

        if self._updates:
            for update in self._updates:
                update(outcome)
            value = self.loss.value
            self._logw = reweight(
                self._logw,
                [value(f, outcome) for f in preds],
                2.0 / math.sqrt(t),
                2.0 / math.sqrt(t + 1.0),
            )

        self.history.append(float(outcome))
        if t + 1 == self._next_entry:
            self._admit(t + 1)

    def trace(self) -> dict:
        """Log columns of the last step; ``x`` digests the lag window it mixed."""
        preds, weights = self._last
        text = self._history_text
        text.extend([format(v, ".17g") for v in self.history[len(text):]])
        # the window the members saw: the observations before the step's outcome
        window = text[-len(preds) - 1:-1] if preds else []
        trees = self._trees
        return {"x": hashlib.sha256(",".join(window).encode()).hexdigest()[:12],
                "n_nodes": sum([tree.n_nodes for tree in trees]) or 1,
                "height": max([tree.height for tree in trees], default=0),
                "experts": preds, "weights": weights}

    def _admit(self, next_t: int) -> None:
        """Admit the next member, whose entry step is ``next_t``, and note the one after."""
        d_next = len(self.experts) + 1
        member = LaggedForecaster(d_next, next_t, self.loss, self.effective_range)
        self.experts.append(member)
        self._members.append((member.tree._predict, d_next))
        self._updates.append(member.tree.update)
        self._trees.append(member.tree)
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
