"""Seeded generators of bounded stationary ergodic series.

Three process families are available, all emitting values in [0,1]:

* ``iid``     independent draws from a finite support distribution
* ``markov``  an ergodic finite chain started from its stationary law,
  each state emitting a fixed value
* ``ar1``     a mean-reverting Gaussian recursion around 1/2, clipped to
  the unit interval (the clipping rate is reported alongside the draw)

For ``iid``, and for ``markov`` chains whose states emit distinct values,
:func:`minimal_expected_loss` gives the smallest expected per-step loss of
any predictor that sees the full past: the last observation names the
state, which holds all that the past tells, so the floor is the stationary
average of the per-state best-constant losses.  With a repeated emission
the state is hidden and that average understates the floor; it is rejected.

All draws use numpy's PCG64 generator; the algorithm identifier is
reported so that archived series can be regenerated bit-identically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError, json_field, json_keys
from .losses import LossSpec, left_sum
from .oracles import best_constant

RNG_ALGORITHM = "pcg64"

IID = "iid"
MARKOV = "markov"
AR1 = "ar1"
_PARAMS = {IID: ("support", "probs"), MARKOV: ("emissions", "transition"), AR1: ("a", "sigma")}


@dataclass(frozen=True)
class ProcessSpec:
    kind: str
    seed: int = 0
    support: tuple = ()        # iid: emission values
    probs: tuple = ()          # iid: their probabilities
    emissions: tuple = ()      # markov: one value per state
    transition: tuple = ()     # markov: row-stochastic matrix, tuple of rows
    a: float = 0.0             # ar1: persistence in [0,1)
    sigma: float = 0.0         # ar1: innovation scale

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise RejectedInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.kind == IID:
            support = _finite_array(self.support, "iid support")
            probs = _finite_array(self.probs, "iid probs")
            if support.ndim != 1 or support.size == 0 or support.shape != probs.shape:
                raise RejectedInputError("iid spec needs matching support and probs")
            if support.min() < 0.0 or support.max() > 1.0:
                raise RejectedInputError("iid support must lie in [0, 1]")
            if probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-12:
                raise RejectedInputError("iid probs must be a distribution (sum 1 within 1e-12)")
        elif self.kind == MARKOV:
            em = _finite_array(self.emissions, "markov emissions")
            P = _finite_array(self.transition, "markov transition")
            if em.ndim != 1 or em.size == 0 or P.shape != (em.size, em.size):
                raise RejectedInputError("markov spec needs a square transition matrix")
            if em.min() < 0.0 or em.max() > 1.0:
                raise RejectedInputError("markov emissions must lie in [0, 1]")
            if P.min() < 0.0 or np.abs(P.sum(axis=1) - 1.0).max() > 1e-12:
                raise RejectedInputError("transition rows must sum to 1 within 1e-12")
            if not _is_ergodic(P):
                raise RejectedInputError("transition matrix is not ergodic (reducible or periodic)")
        elif self.kind == AR1:
            a, sigma = _finite_array((self.a, self.sigma), "ar1 a and sigma")
            if not 0.0 <= a < 1.0:
                raise RejectedInputError("ar1 persistence must lie in [0, 1)")
            if sigma < 0.0:
                raise RejectedInputError("ar1 sigma must be >= 0")
        else:
            raise RejectedInputError(f"unknown process kind {self.kind!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.kind == IID:
            out["support"] = list(self.support)
            out["probs"] = list(self.probs)
        elif self.kind == MARKOV:
            out["emissions"] = list(self.emissions)
            out["transition"] = [list(row) for row in self.transition]
        else:
            out["a"] = self.a
            out["sigma"] = self.sigma
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessSpec":
        kind = json_field(data, "kind", str, "process spec")
        if kind not in _PARAMS:
            raise RejectedInputError(f"unknown process kind {kind!r}")
        where = f"{kind} spec"
        json_keys(data, ("kind", "seed") + _PARAMS[kind], where)
        seed = json_field(data, "seed", int, "process spec", default=0)
        if kind == IID:
            return cls(kind, seed, support=tuple(json_field(data, "support", list, where)),
                       probs=tuple(json_field(data, "probs", list, where)))
        if kind == MARKOV:
            rows = json_field(data, "transition", list, where)
            if not all(type(row) is list for row in rows):
                raise RejectedInputError(f"{where}: 'transition' must be a list of rows")
            return cls(kind, seed, emissions=tuple(json_field(data, "emissions", list, where)),
                       transition=tuple(map(tuple, rows)))
        return cls(kind, seed, a=float(json_field(data, "a", float, where, default=0.0)),
                   sigma=float(json_field(data, "sigma", float, where, default=0.0)))


def _finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; anything but finite numbers is rejected."""
    try:
        out = np.asarray(values)
        numeric = out.dtype.kind in "iuf"  # not strings, booleans or objects
    except ValueError:  # ragged rows
        numeric = False
    if not numeric:
        raise RejectedInputError(f"{what} must be numbers, got {values!r:.80}")
    out = out.astype(float)
    if not np.isfinite(out).all():
        raise RejectedInputError(f"{what} must be finite, got {values!r:.80}")
    return out


def _is_ergodic(P: np.ndarray) -> bool:
    """Primitivity test: some power of the adjacency pattern is all-positive."""
    n = P.shape[0]
    B = P > 0.0
    C = B.copy()
    for _ in range((n - 1) ** 2 + 1):  # Wielandt exponent caps the search
        if C.all():
            return True
        C = (C.astype(np.int64) @ B.astype(np.int64)) > 0
    return bool(C.all())


def stationary_distribution(P) -> np.ndarray:
    """Stationary row vector of an ergodic chain, by one linear solve.

    The last equation of ``(P^T - I) pi = 0``, implied by the others as the
    rows of P sum to 1, becomes ``sum(pi) = 1``; ergodicity makes the system
    nonsingular.  Rounding below 0 is clipped, and pi renormalised.
    """
    A = np.asarray(P, dtype=float).T - np.eye(len(P))
    A[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, np.eye(len(A))[-1]), 0.0, None)
    return pi / pi.sum()


def generate_with_info(spec: ProcessSpec, T: int) -> tuple[np.ndarray, dict]:
    """Draw T observations; returns the series and reproducibility metadata."""
    if T < 1:
        raise RejectedInputError("T must be >= 1")
    rng = np.random.default_rng(spec.seed)
    info = {"rng": RNG_ALGORITHM, "seed": spec.seed, "kind": spec.kind}
    if spec.kind == IID:
        support = np.asarray(spec.support, dtype=float)
        probs = np.asarray(spec.probs, dtype=float)
        y = support[rng.choice(support.size, size=T, p=probs)]
        return y, info
    if spec.kind == MARKOV:
        P = np.asarray(spec.transition, dtype=float)
        em = np.asarray(spec.emissions, dtype=float)
        pi = stationary_distribution(P)
        # a row's cumsum can end at or below the largest draw, 1 - 2^-53,
        # where bisect_right passes the last state: clamp to it
        cum = np.cumsum(P, axis=1).tolist()
        last = P.shape[0] - 1
        u = rng.random(T)
        state = int(rng.choice(P.shape[0], p=pi))
        states = []
        for v in u.tolist():
            state = min(bisect_right(cum[state], v), last)
            states.append(state)
        info["stationary"] = pi.tolist()
        return em[states], info
    scale = spec.sigma / np.sqrt(1.0 - spec.a ** 2) if spec.sigma > 0 else 0.0
    eps = rng.standard_normal(T)
    prev = float(0.5 + scale * rng.standard_normal())
    a, sigma = spec.a, spec.sigma
    # the recursion on Python floats: the same double operations as on
    # numpy scalars, without indexing an array at every step
    y, clipped = [], 0
    for e in eps.tolist():
        raw = 0.5 + a * (prev - 0.5) + sigma * e
        prev = min(max(raw, 0.0), 1.0)
        clipped += prev != raw
        y.append(prev)
    info["clip_rate"] = clipped / T
    return np.array(y), info


def generate(spec: ProcessSpec, T: int) -> np.ndarray:
    """Draw T observations in [0,1]; deterministic in ``spec.seed``."""
    return generate_with_info(spec, T)[0]


def minimal_expected_loss(spec: ProcessSpec, loss: LossSpec) -> float:
    """Expected per-step loss of the best predictor given the infinite past.

    Supported for ``iid`` (best constant under the marginal) and for
    ``markov`` with distinct emissions (stationary average of each state's
    best constant for the next emission); ``ar1`` has no closed form here.
    """
    if spec.kind == IID:
        return best_constant(spec.support, loss, weights=spec.probs).value
    if spec.kind == MARKOV:
        P = np.asarray(spec.transition, dtype=float)
        em = np.asarray(spec.emissions, dtype=float)
        if np.unique(em).size != em.size:
            raise RejectedInputError("markov emissions repeat a value, so the state is "
                                     "hidden and no exact loss floor is known")
        return left_sum(p * best_constant(em, loss, weights=row).value
                        for p, row in zip(stationary_distribution(P).tolist(), P))
    raise RejectedInputError(f"no closed-form loss floor for kind {spec.kind!r}")
