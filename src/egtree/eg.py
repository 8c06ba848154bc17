"""Gradient-based exponentially weighted forecaster over the constants 0 and 1.

The forecaster tracks the best constant prediction in [0,1] for a convex
M-Lipschitz loss.  With ``G`` the running sum of loss subgradients after
``t`` observed steps, the next prediction is

    eta = sqrt(log(2) / (t+1)) / M
    pred = exp(-eta * G) / (1 + exp(-eta * G))

and its cumulative loss over any T outcomes exceeds the best constant's by
at most ``2 * M * sqrt(T * log 2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError
from .losses import LossSpec

_LOG2 = math.log(2.0)
# exp() overflows/underflows past ~709; clamping keeps predictions in (0,1).
_ZMAX = 700.0
_SUP = math.nextafter(1.0, 0.0)  # largest double strictly below 1


@dataclass(frozen=True, slots=True)
class EgState:
    """Immutable forecaster state: steps seen, subgradient sum, constant M."""

    t: int = 0
    G: float = 0.0
    M: float = 1.0


def predict(state: EgState) -> float:
    """Prediction for the upcoming step; always strictly inside (0,1)."""
    return prediction(state.t, state.G, state.M)


def prediction(t: int, G: float, M: float) -> float:
    """Scalar core of :func:`predict`, for callers that keep ``t``, ``G`` unboxed."""
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


def update(state: EgState, pred: float, outcome: float, loss: LossSpec) -> EgState:
    """Absorb one (prediction, outcome) pair; returns the successor state.

    ``loss.subgradient`` rejects an outcome outside [0, 1].
    """
    return EgState(state.t + 1, state.G + loss.subgradient(pred, outcome), state.M)


class EgTracker:
    """:func:`predict` and :func:`update` behind the forecaster protocol; ``x`` is ignored."""

    def __init__(self, loss: LossSpec):
        self.loss, self.state = loss, EgState(M=loss.M)
        self._pending = None  # prediction awaiting its outcome

    def predict(self, x=None) -> float:
        self._pending = predict(self.state)
        return self._pending

    def update(self, outcome: float) -> None:
        if self._pending is None:
            raise ContractViolationError("update must follow predict")
        self.state = update(self.state, self._pending, outcome, self.loss)
        self._pending = None

    def trace(self) -> dict:
        return {}  # no covariate, leaf or members to log


def regret_bound(M: float, T: int) -> float:
    """Worst-case gap to the best constant after T steps: 2*M*sqrt(T*log 2)."""
    return 2.0 * M * math.sqrt(T * _LOG2)
