"""Offline verification: the checks of a finished run's guarantees against its log.

:func:`verify_bounds` (``egtree verify-bounds``) takes a read
:class:`~egtree.harness.RunLog` and runs one function per family of checks:
:func:`_loss_checks` (every run's), :func:`_tree_checks`,
:func:`_mixture_checks` and :func:`_lipschitz_check`.  The comparators are
called through the :mod:`~egtree.oracles` module.

A check of an algorithm's rule does not call the code it checks: the rule
is stated here in this module's own words.  :func:`mixture_weights` derives
a mixture's weights from its logged member predictions and outcomes by the
closed form of exponential weights, without the forecaster or its
reweighting, and ``mixture-rule`` holds every logged prediction to them;
the step log holds no weights.  Shared *bound* formulas may stay shared.
Each ``mixture-regret(d)`` is :func:`expert_regret`, the one regret to a
member order; :func:`mixture_weights` alone takes every member's loss.
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


def expert_regret(log, d: int) -> float:
    """Cumulative loss gap of the mixture versus its order-d member: ``mixture-regret(d)``.
    Only the steps it reads are checked to lie in [0, 1]; :func:`verify_bounds` checks all."""
    positive_int(d, "d")
    loss = log.config.loss
    steps = np.flatnonzero(log.pool >= d)
    if not steps.size:
        raise RejectedInputError(f"order-{d} member was never active in this run")
    starts = np.cumsum(log.pool) - log.pool  # of each step's members in the flat column
    member = log.expert_preds[starts[steps] + d - 1]
    preds, ys = log.preds[steps], log.ys[steps]
    _check_loss_args(loss, preds, ys)
    _check_loss_args(loss, member, ys)
    return left_sum(loss.value_array(preds, ys) - loss.value_array(member, ys))


def mixture_weights(log) -> np.ndarray:
    """A mixture's member weights at every step, derived from its log: one value
    per member prediction, aligned with the flat ``log.expert_preds``.

    Members 1..``pool[s]`` are active at step s, and member d enters at the
    first step s_d whose pool holds it.  L_d(s) is its loss from s_d to
    s - 1, added in step order.  With eta_s = 2/sqrt(s), the weights at step
    s are the softmax over the active members of eta_s (a_d - L_d(s)), where
    a_1 = 0 and an entrant D >= 2 gets a_D = (logsumexp_{d<D} eta_s (a_d -
    L_d(s)) - ln(D - 1)) / eta_s at s = s_D: it takes 1/D of the weight and
    the incumbents keep their proportions.  The members' losses are taken
    here, once, after a check that predictions and outcomes lie in [0, 1].
    One Python loop runs per member; the rest is numpy over the flat values.
    """
    pool, values = log.pool, log.expert_preds
    if not values.size:
        return np.empty(0)
    starts = np.cumsum(pool) - pool  # of each step's members in the flat column
    eta = 2.0 / np.sqrt(np.arange(1.0, len(pool) + 1.0))  # eta_s of each step s
    ys, loss = np.repeat(log.ys, pool), log.config.loss
    _check_loss_args(loss, values, ys)
    losses = loss.value_array(values, ys)  # of every member prediction
    del ys
    before, a = np.zeros(len(values)), np.zeros(int(pool.max()))
    for d in range(len(a)):
        active = pool > d
        at = starts[active] + d  # member d + 1's values, in step order
        before[at[1:]] = np.cumsum(losses[at[:-1]])  # L_d(s); 0 at its entry
        if d:  # the entrant's a, from its d incumbents at its entry step s
            s = active.argmax()
            z = eta[s] * (a[:d] - before[starts[s]:starts[s] + d])
            top = z.max()
            a[d] = (top + math.log(left_sum(np.exp(z - top))) - math.log(d)) / eta[s]
    del losses
    # the softmax over each step's members of eta_s (a_d - L_d(s)), in place
    w = a[np.arange(len(values)) - np.repeat(starts, pool)]  # each value's a_d
    w -= before
    del before
    w *= np.repeat(eta, pool)
    heads, size = starts[pool > 0], pool[pool > 0]  # the steps with members
    w -= np.repeat(np.maximum.reduceat(w, heads), size)
    np.exp(w, out=w)
    w /= np.repeat(np.add.reduceat(w, heads), size)
    return w


def verify_bounds(log, lipschitz_L: float | None = None) -> list[BoundCheck]:
    """Check every guarantee the logged run is supposed to satisfy.

    Every check is a :class:`BoundCheck`: it passes if and only if achieved
    <= bound, and a yes/no check counts the violating steps, against 0.  The
    log holds no loss: every step's loss is recomputed from its logged
    prediction and outcome (``LossSpec.value_array``, after a check that both
    lie in [0, 1]); ``cumulative-loss-resummation`` adds them left to right,
    as the run did, and takes their gap to the summary's ``cumulative_loss``.
    Each lemma's bound is written once and read from the log:
    ``per-leaf-decomposition`` adds :func:`eg.regret_bound` over the logged
    leaves, grouped by one sort (:func:`oracles.best_constants`) in the order
    of first visits; the mixture checks take D, the largest pool the step log
    holds.  ``mixture-rule`` holds a mixture's every prediction to the
    weights that :func:`mixture_weights` derives, in this module's own words,
    from the logged member predictions and outcomes.  ``lipschitz_L`` adds the
    regret check against the best L-Lipschitz predictor (tree runs with d = 1,
    meta runs with a member), or is rejected.
    """
    if len(log) == 0:
        raise RejectedInputError("cannot verify an empty log")
    config = log.config
    _check_loss_args(config.loss, log.preds, log.ys)
    resummed = left_sum(config.loss.value_array(log.preds, log.ys))
    checks = _loss_checks(log, config, resummed)
    if config.forecaster == "tree":
        checks += _tree_checks(log, config, resummed)
    D = int(log.pool.max(initial=0))  # the largest pool the log holds: 0 outside a mixture
    if config.forecaster == "meta":
        checks += _mixture_checks(log, config, D)
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
    counts = fits.count[visits]
    checks.append(BoundCheck("per-leaf-decomposition", left_sum(eg.regret_bound(M, counts)),
                             resummed - left_sum(fits.value[visits]),
                             "vs the best constant of every visited node"))
    checks.append(BoundCheck("visit-concentration", math.sqrt(float(log.n_nodes[-1]) * T),
                             left_sum(np.sqrt(counts)),
                             "sum sqrt(T_node) <= sqrt(N_T T)"))
    return checks


def _mixture_checks(log, config, D: int) -> list[BoundCheck]:
    """A mixture's rule, its pool's growth and its regret against each member.

    ``mixture-rule`` takes every step's prediction to be clip(sum_d w_d f_d)
    with the weights of :func:`mixture_weights`, and 1/2 before the first
    member.  Its tolerance, 1e-9, was fixed before any run was checked: the
    closed form and the run's recursive update reach the same weights by
    different roundings, whose gap grows about as T * 2^-52 (2e-11 at
    T = 10^5), while a changed rule moves predictions by far more.  ``D`` is
    the largest pool the log holds, and each ``mixture-regret(d)`` is
    :func:`expert_regret` of order d.
    """
    pool, mixed = log.pool, log.pool > 0  # the steps with members
    rule = np.full(len(log), 0.5)
    if mixed.any():
        shares = mixture_weights(log)
        shares *= log.expert_preds  # each member's w_d f_d
        rule[mixed] = np.add.reduceat(shares, (np.cumsum(pool) - pool)[mixed])
        del shares
    gaps = np.abs(log.preds - np.clip(rule, 0.0, 1.0))
    # np.max, not max(): a NaN must make the check fail
    checks = [BoundCheck("mixture-rule", 1e-9, np.max(gaps),
                         "|pred - clip(sum_d w_d f_d)|, w in closed form; 1/2 before any member")]
    entrants = np.diff(pool)
    checks.append(BoundCheck("one-entrant-per-step", 0.0,
                             np.count_nonzero((entrants < 0) | (entrants > 1)),
                             "steps where the pool loses a member or gains more than one"))
    if D:  # no member is active before step start_1
        bound = mixture_regret_bound(len(log), D, entry_step(config.schedule, 1))
        checks += [BoundCheck(f"mixture-regret(d={d})", bound, expert_regret(log, d),
                              f"D = {D} members: the largest pool in the log")
                   for d in range(1, D + 1)]
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
