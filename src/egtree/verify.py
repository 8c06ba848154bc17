"""Offline verification: the checks of a finished run's guarantees against its log.

:func:`verify_bounds` (``egtree verify-bounds``) takes a read
:class:`~egtree.harness.RunLog` and runs one function per family of checks:
:func:`_loss_checks` (every run's), :func:`_tree_checks`,
:func:`_mixture_checks` and :func:`_lipschitz_check`.  The comparators are
called through the :mod:`~egtree.oracles` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eg, oracles
from .autoregressive import combined_regret_bound, entry_step, mixture_regret_bound
from .errors import RejectedInputError, positive_int
from .losses import LossSpec, left_sum
from .tree import height_bound, node_count_bound


@dataclass(frozen=True)
class BoundCheck:
    """One checked guarantee: it passes if and only if ``achieved <= bound``, so a
    failed check has negative slack and a NaN fails.  A yes/no property of the
    log counts its violating steps as ``achieved``, against a ``bound`` of 0."""

    name: str
    bound: float
    achieved: float
    note: str = ""

    def __post_init__(self):
        # Checks compute with numpy scalars; store plain Python floats so
        # to_dict() is JSON-safe whatever a check computes.
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "achieved", float(self.achieved))

    @property
    def passed(self) -> bool:
        return self.achieved <= self.bound

    @property
    def slack(self) -> float:
        return self.bound - self.achieved

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "achieved": self.achieved,
                "slack": self.slack, "passed": self.passed, "note": self.note}


def _check_loss_args(loss: LossSpec, preds: np.ndarray, ys: np.ndarray) -> None:
    """Reject the first step whose prediction or outcome lies outside [0, 1], NaN included.

    ``loss.value_array`` checks nothing; the message is the scalar ``loss.value``'s.
    """
    bad = np.flatnonzero(~((preds >= 0.0) & (preds <= 1.0) & (ys >= 0.0) & (ys <= 1.0)))
    if bad.size:
        k = bad[0]
        loss.value(preds[k].item(), ys[k].item())  # raises the scalar check's message


def _order_regret(log, loss: LossSpec, d: int, losses: np.ndarray) -> float:
    """:func:`expert_regret` of order ``d`` >= 1, given the mixture's checked
    loss at every step."""
    steps = np.flatnonzero(log.pool >= d)
    if not steps.size:
        raise RejectedInputError(f"order-{d} member was never active in this run")
    starts = np.cumsum(log.pool) - log.pool  # of each step's members in the flat column
    member = log.expert_preds[starts[steps] + d - 1]
    ys = log.ys[steps]
    _check_loss_args(loss, member, ys)
    return left_sum((losses[steps] - loss.value_array(member, ys)).tolist())


def expert_regret(log, d: int) -> float:
    """Cumulative loss gap of the mixture versus its order-d member."""
    positive_int(d, "d")
    loss = log.config.loss
    _check_loss_args(loss, log.preds, log.ys)
    return _order_regret(log, loss, d, loss.value_array(log.preds, log.ys))


def verify_bounds(log, lipschitz_L: float | None = None) -> list[BoundCheck]:
    """Check every guarantee the logged run is supposed to satisfy.

    Every check is a :class:`BoundCheck`: it passes if and only if achieved
    <= bound, and a yes/no check counts the violating steps, against 0.  The
    log holds no loss: every step's loss is recomputed once from its logged
    prediction and outcome (``LossSpec.value_array``, after a check that both
    lie in [0, 1]); ``cumulative-loss-resummation`` adds them left to right,
    as the run did, and takes their gap to the summary's ``cumulative_loss``.
    Each lemma's bound is written once and read from the log:
    ``per-leaf-decomposition`` adds :func:`eg.regret_bound` over the logged
    leaves, grouped by one sort (:func:`oracles.best_constants`) in the order
    of first visits; the mixture checks take D, the largest pool the step log
    holds.  ``lipschitz_L`` adds the regret check against the best L-Lipschitz
    predictor (tree runs with d = 1, meta runs with a member), or is rejected.
    """
    if len(log) == 0:
        raise RejectedInputError("cannot verify an empty log")
    config = log.config
    _check_loss_args(config.loss, log.preds, log.ys)
    losses = config.loss.value_array(log.preds, log.ys)
    resummed = left_sum(losses.tolist())
    checks = _loss_checks(log, config, resummed)
    if config.forecaster == "tree":
        checks += _tree_checks(log, config, resummed)
    D = int(log.pool.max(initial=0))  # the largest pool the log holds: 0 outside a mixture
    if config.forecaster == "meta":
        checks += _mixture_checks(log, config, losses, D)
    # the Lipschitz comparator comes last, after the checks of the run's kind
    if lipschitz_L is not None:
        checks.append(_lipschitz_check(log, config, lipschitz_L, resummed, D))
    return checks


def _loss_checks(log, config, resummed: float) -> list[BoundCheck]:
    """Every run's checks (its losses resummed, its logged tree size never
    shrinking), and an eg run's regret against the best constant."""
    checks = [BoundCheck("cumulative-loss-resummation", 0.0,
                         abs(resummed - log.summary["cumulative_loss"]),
                         "|step losses added left to right - cumulative_loss|")]
    shrinks = (np.diff(log.n_nodes) < 0) | (np.diff(log.height) < 0)
    checks.append(BoundCheck("tree-size-monotone", 0.0, np.count_nonzero(shrinks),
                             "steps where N_t or H_t shrinks"))
    if config.forecaster == "eg":
        regret = resummed - oracles.best_constant(log.ys, config.loss).value
        checks.append(BoundCheck("constant-regret", eg.regret_bound(config.loss.M, len(log)),
                                 regret))
    return checks


def _tree_checks(log, config, resummed: float) -> list[BoundCheck]:
    """A tree run's growth caps, and its regret against the best constant of every leaf."""
    d, M, T = config.d, config.loss.M, len(log)
    checks = [
        BoundCheck("node-count-growth", 0.0,
                   np.count_nonzero(log.n_nodes > node_count_bound(d, log.t)),
                   "steps where N_t > 1 + 8 (d t)^(d/(d+2))"),
        BoundCheck("height-growth", 0.0, np.count_nonzero(log.height > height_bound(d, log.t)),
                   "steps where H_t > 1 + (d/2) log2(4 d t)"),
        BoundCheck("leaf-within-height", 0.0, np.count_nonzero(log.leaf_h > log.height),
                   "steps whose leaf lies deeper than the tree: h_t > H_t"),
    ]
    # every visited leaf, in the order of first visits
    fits = oracles.best_constants(log.ys, (log.leaf_h, log.leaf_i), config.loss)
    visits = np.argsort(fits.first)
    counts = fits.count[visits].tolist()
    checks.append(BoundCheck("per-leaf-decomposition",
                             left_sum(eg.regret_bound(M, n) for n in counts),
                             resummed - left_sum(fits.value[visits].tolist()),
                             "vs the best constant of every visited node"))
    checks.append(BoundCheck("visit-concentration", math.sqrt(float(log.n_nodes[-1]) * T),
                             left_sum(map(math.sqrt, counts)),
                             "sum sqrt(T_node) <= sqrt(N_T T)"))
    return checks


def _mixture_checks(log, config, losses: np.ndarray, D: int) -> list[BoundCheck]:
    """A mixture's weight accounting and its regret against each member.

    ``losses`` are the mixture's checked losses, found once for every order,
    and ``D`` is the largest pool the log holds.
    """
    weights, ends = log.expert_weights.tolist(), np.cumsum(log.pool).tolist()
    try:  # one fsum per step that logs members, over its slice of the weights
        deviations = [abs(math.fsum(weights[a:b]) - 1.0)
                      for a, b in zip([0, *ends], ends) if b > a]
    except ValueError:  # fsum of inf and -inf: the weights have no sum
        deviations = [math.nan]
    # np.max, not max(): a NaN weight must make the check fail
    checks = [BoundCheck("weight-simplex", 1e-12, np.max(deviations or [0.0]),
                         "mixture weights sum to 1 at every step")]
    entrants = np.diff(log.pool)
    checks.append(BoundCheck("one-entrant-per-step", 0.0,
                             np.count_nonzero((entrants < 0) | (entrants > 1)),
                             "steps where the pool loses a member or gains more than one"))
    if D:  # no member is active before step start_1
        bound = mixture_regret_bound(len(log), D, entry_step(config.schedule, 1))
        checks.extend(BoundCheck(f"mixture-regret(d={d})", bound,
                                 _order_regret(log, config.loss, d, losses),
                                 f"D = {D} members: the largest pool in the log")
                      for d in range(1, D + 1))
    return checks


def _lipschitz_check(log, config, L: float, resummed: float, D: int) -> BoundCheck:
    """The regret against the best L-Lipschitz predictor: of a tree run with
    d = 1, or, on top of the mixture bound, of a meta run whose largest pool
    holds ``D`` >= 1 members; any other run is rejected."""
    M, T = config.loss.M, len(log)
    if config.forecaster == "tree" and config.d == 1:
        xs, ys = log.x[:, 0], log.ys
        name, bound = f"lipschitz-regret(L={L})", oracles.lipschitz_regret_bound(M, L, 1, T)
        note = ""
    elif config.forecaster == "meta" and D:
        xs, ys = log.ys[:-1], log.ys[1:]
        name = f"combined-regret(d=1,L={L})"
        bound = combined_regret_bound(M, L, 1, T, entry_step(config.schedule, 1), D)
        note = f"t_1 + the mixture bound (D = {D}) + the order-1 Lipschitz bound"
    else:
        raise RejectedInputError(f"no Lipschitz-comparator check exists for this "
                                 f"{config.forecaster} run (tree d = 1, meta with a member)")
    regret = resummed - oracles.best_lipschitz_1d(xs, ys, L, config.loss).value
    return BoundCheck(name, bound, regret, note)
