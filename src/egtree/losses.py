"""Convex, bounded, Lipschitz loss functions on the unit square.

Three families are supported, all mapping [0,1] x [0,1] to [0,1]:

* ``absolute``        |pred - outcome|
* ``square``          (pred - outcome)^2
* ``pinball``(alpha)  alpha*u if u >= 0 else (alpha-1)*u,  u = outcome - pred

``M`` is the Lipschitz constant of the loss in its prediction argument;
all subgradients returned here have magnitude at most ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError

ABSOLUTE = "absolute"
SQUARE = "square"
PINBALL = "pinball"

_KINDS = (ABSOLUTE, SQUARE, PINBALL)


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise RejectedInputError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True)
class LossSpec:
    """A loss family together with its prediction-side Lipschitz constant."""

    kind: str = ABSOLUTE
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise RejectedInputError(f"unknown loss kind {self.kind!r}")
        if self.kind == PINBALL:
            if not isinstance(self.alpha, float) or not 0.0 < self.alpha < 1.0:
                raise RejectedInputError("pinball loss requires alpha in (0, 1)")
        elif self.alpha is not None:
            raise RejectedInputError(f"alpha is only meaningful for {PINBALL!r}")

    @property
    def M(self) -> float:
        """Lipschitz constant of the loss in its first argument on [0,1]."""
        if self.kind == ABSOLUTE:
            return 1.0
        if self.kind == SQUARE:
            return 2.0
        return max(self.alpha, 1.0 - self.alpha)

    def value(self, pred: float, outcome: float) -> float:
        """Loss of predicting ``pred`` against ``outcome``; both in [0,1]."""
        _check_unit(pred, "pred")
        _check_unit(outcome, "outcome")
        if self.kind == ABSOLUTE:
            return abs(pred - outcome)
        if self.kind == SQUARE:
            d = pred - outcome
            return d * d
        u = outcome - pred
        return self.alpha * u if u >= 0.0 else (self.alpha - 1.0) * u

    def subgradient(self, pred: float, outcome: float) -> float:
        """An element of the subdifferential of ``value(., outcome)`` at ``pred``.

        At kinks (absolute and pinball ties) 0 is returned, which is a valid
        subgradient and leaves gradient-based forecasters stationary at the
        optimum.
        """
        _check_unit(pred, "pred")
        _check_unit(outcome, "outcome")
        if self.kind == ABSOLUTE:
            if pred > outcome:
                return 1.0
            if pred < outcome:
                return -1.0
            return 0.0
        if self.kind == SQUARE:
            return 2.0 * (pred - outcome)
        if pred > outcome:
            return 1.0 - self.alpha
        if pred < outcome:
            return -self.alpha
        return 0.0

    # Vectorized twins, used by the offline oracles and property tests.

    def value_array(self, pred, outcome) -> np.ndarray:
        pred = np.asarray(pred, dtype=float)
        outcome = np.asarray(outcome, dtype=float)
        if self.kind == ABSOLUTE:
            return np.abs(pred - outcome)
        if self.kind == SQUARE:
            return (pred - outcome) ** 2
        u = outcome - pred
        return np.where(u >= 0.0, self.alpha * u, (self.alpha - 1.0) * u)

    def subgradient_array(self, pred, outcome) -> np.ndarray:
        pred = np.asarray(pred, dtype=float)
        outcome = np.asarray(outcome, dtype=float)
        if self.kind == ABSOLUTE:
            return np.sign(pred - outcome)
        if self.kind == SQUARE:
            return 2.0 * (pred - outcome)
        return np.where(
            pred > outcome, 1.0 - self.alpha, np.where(pred < outcome, -self.alpha, 0.0)
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == PINBALL:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LossSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise RejectedInputError(f"a loss must be an object with a 'kind', got {data!r}")
        return cls(kind=data["kind"], alpha=data.get("alpha"))
