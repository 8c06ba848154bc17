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

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
from .losses import LossSpec
from .oracles import best_constant

RNG_ALGORITHM = "pcg64"

IID = "iid"
MARKOV = "markov"
AR1 = "ar1"


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
        if self.kind == IID:
            support = np.asarray(self.support, dtype=float)
            probs = np.asarray(self.probs, dtype=float)
            if support.size == 0 or support.size != probs.size:
                raise RejectedInputError("iid spec needs matching support and probs")
            if support.min() < 0.0 or support.max() > 1.0:
                raise RejectedInputError("iid support must lie in [0, 1]")
            if probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-12:
                raise RejectedInputError("iid probs must be a distribution (sum 1 within 1e-12)")
        elif self.kind == MARKOV:
            em = np.asarray(self.emissions, dtype=float)
            P = np.asarray(self.transition, dtype=float)
            if em.size == 0 or P.shape != (em.size, em.size):
                raise RejectedInputError("markov spec needs a square transition matrix")
            if em.min() < 0.0 or em.max() > 1.0:
                raise RejectedInputError("markov emissions must lie in [0, 1]")
            if P.min() < 0.0 or np.abs(P.sum(axis=1) - 1.0).max() > 1e-12:
                raise RejectedInputError("transition rows must sum to 1 within 1e-12")
            if not _is_ergodic(P):
                raise RejectedInputError("transition matrix is not ergodic (reducible or periodic)")
        elif self.kind == AR1:
            if not 0.0 <= self.a < 1.0:
                raise RejectedInputError("ar1 persistence must lie in [0, 1)")
            if self.sigma < 0.0:
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
        kind = data["kind"]
        seed = int(data.get("seed", 0))
        if kind == IID:
            return cls(kind, seed, support=tuple(data["support"]), probs=tuple(data["probs"]))
        if kind == MARKOV:
            return cls(kind, seed,
                       emissions=tuple(data["emissions"]),
                       transition=tuple(tuple(row) for row in data["transition"]))
        return cls(kind, seed, a=float(data.get("a", 0.0)), sigma=float(data.get("sigma", 0.0)))


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
    """Stationary row vector of an ergodic chain, refined to 1e-12."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    for _ in range(10000):
        nxt = pi @ P
        if np.abs(nxt - pi).max() <= 1e-13:
            pi = nxt
            break
        pi = nxt
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
        cum = np.cumsum(P, axis=1)
        u = rng.random(T)
        state = int(rng.choice(P.shape[0], p=pi))
        states = np.empty(T, dtype=np.int64)
        for t in range(T):
            state = int(np.searchsorted(cum[state], u[t], side="right"))
            states[t] = state
        info["stationary"] = pi.tolist()
        return em[states], info
    scale = spec.sigma / np.sqrt(1.0 - spec.a ** 2) if spec.sigma > 0 else 0.0
    eps = rng.standard_normal(T)
    y = np.empty(T)
    prev = 0.5 + scale * rng.standard_normal()
    clipped = 0
    for t in range(T):
        raw = 0.5 + spec.a * (prev - 0.5) + spec.sigma * eps[t]
        v = min(max(raw, 0.0), 1.0)
        clipped += v != raw
        y[t] = v
        prev = v
    info["clip_rate"] = clipped / T
    return y, info


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
        pi = stationary_distribution(P)
        total = 0.0
        for s in range(P.shape[0]):
            total += pi[s] * best_constant(em, loss, weights=P[s]).value
        return float(total)
    raise RejectedInputError(f"no closed-form loss floor for kind {spec.kind!r}")
