"""Gradient-based exponentially weighted forecaster over the constants 0 and 1.

The forecaster tracks the best constant prediction in [0,1] for a convex
M-Lipschitz loss.  Its whole state is ``(t, G)``: the number of observed
steps and the running sum of loss subgradients.  The next prediction is

    eta = sqrt(log(2) / (t+1)) / M
    pred = exp(-eta * G) / (1 + exp(-eta * G))

and its cumulative loss over any T outcomes exceeds the best constant's by
at most ``2 * M * sqrt(T * log 2)``.  :func:`predict` and :func:`update`
are the only implementation of this rule: the ``eg`` forecaster
(:class:`EgTracker`) and every leaf of a partition tree call them.
"""

from __future__ import annotations

import math

from .errors import ContractViolationError
from .losses import LossSpec

_LOG2 = math.log(2.0)
# exp() overflows/underflows past ~709; clamping keeps predictions in (0,1).
_ZMAX = 700.0
_SUP = math.nextafter(1.0, 0.0)  # largest double strictly below 1


def predict(t: int, G: float, M: float) -> float:
    """Prediction after ``t`` steps with subgradient sum ``G``; strictly inside (0,1).

    When ``G`` is 0 it is exactly 1/2 for every ``t``, and it returns at once;
    every fresh tree leaf predicts through this case.
    """
    if G == 0.0:
        return 0.5
    eta = math.sqrt(_LOG2 / (t + 1)) / M
    z = -eta * G
    if z > _ZMAX:
        z = _ZMAX
    elif z < -_ZMAX:
        z = -_ZMAX
    if z >= 0.0:
        # 1/(1 + tiny) rounds to 1.0 for z beyond ~37; stay strictly below
        return min(1.0 / (1.0 + math.exp(-z)), _SUP)
    e = math.exp(z)
    return e / (1.0 + e)


def update(t: int, G: float, pred: float, outcome: float, loss: LossSpec) -> tuple:
    """Absorb one (prediction, outcome) pair; returns the successor ``(t, G)``.

    ``loss.subgradient`` rejects an outcome outside [0, 1].
    """
    return t + 1, G + loss.subgradient(pred, outcome)


class EgTracker:
    """:func:`predict` and :func:`update` behind the forecaster protocol; ``x`` is ignored."""

    TRACED = ()  # no covariate, leaf or members to log

    def __init__(self, loss: LossSpec):
        self.loss = loss
        self.t, self.G = 0, 0.0
        self._pending = None  # prediction awaiting its outcome

    def predict(self, x=None) -> float:
        self._pending = predict(self.t, self.G, self.loss.M)
        return self._pending

    def update(self, outcome: float) -> None:
        if self._pending is None:
            raise ContractViolationError("update must follow predict")
        self.t, self.G = update(self.t, self.G, self._pending, outcome, self.loss)
        self._pending = None

    def trace(self) -> tuple:
        """The last step's log fields in ``TRACED`` order: none."""
        return ()


def regret_bound(M: float, T: int) -> float:
    """Worst-case gap to the best constant after T steps: 2*M*sqrt(T*log 2)."""
    return 2.0 * M * math.sqrt(T * _LOG2)
