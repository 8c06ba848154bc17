"""The mutant gate: a broken forecaster must fail a check of its own log.

Each mutant below changes one rule of the algorithm and is monkeypatched in
for one run; ``verify_bounds`` must then fail at least one check of the
run's log, and the unmutated run must pass every check.  The input and T
were fixed before any outcome was looked at.  A mutant joins the gate in
the change whose check first kills it, so no case here is skipped or
expected to fail.

The mixture mutants run ``meta`` on the sticky chain: a 3-state chain with
emissions 0.1/0.5/0.9, 0.8 on the diagonal and 0.1 off it, seed 7, at
T = 6000.
"""

import math

import pytest

from egtree import autoregressive
from egtree.harness import RunConfig
from egtree.processes import ProcessSpec, generate
from egtree.verify import verify_bounds

STICKY = ProcessSpec("markov", seed=7, emissions=(0.1, 0.5, 0.9),
                     transition=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)))
T = 6000

reweight = autoregressive.reweight
admit = autoregressive.MetaForecaster._admit


def no_eta_ratio_power(logw, losses, eta_t, eta_next):
    """p' propto p * exp(-eta_next * loss): the weights are not raised to eta_next/eta_t."""
    return reweight(logw, losses, eta_next, eta_next)


def eta_halved(logw, losses, eta_t, eta_next):
    return reweight(logw, losses, eta_t / 2.0, eta_next / 2.0)


def frozen_weights(logw, losses, eta_t, eta_next):
    return list(logw)


def eta_two_over_t(logw, losses, eta_t, eta_next):
    """eta_t = 2/t in place of 2/sqrt(t): eta_t**2 / 2 = 2/t."""
    return reweight(logw, losses, eta_t ** 2 / 2.0, eta_next ** 2 / 2.0)


def entrant_weight_halved(self):
    """An entrant D >= 2 takes 1/(2D) of the weight, not 1/D; the incumbents
    share the rest in their proportions, so the weights still sum to 1."""
    admit(self)
    D = len(self.experts)
    if D >= 2:
        shift = math.log((1.0 - 0.5 / D) / (1.0 - 1.0 / D))
        self._logw = [lw + shift for lw in self._logw[:-1]] + [-math.log(2.0 * D)]


MUTANTS = {
    "no-eta-ratio-power": ("reweight", no_eta_ratio_power),
    "eta-halved": ("reweight", eta_halved),
    "entrant-weight-halved": ("_admit", entrant_weight_halved),
    "frozen-weights": ("reweight", frozen_weights),
    "eta-two-over-t": ("reweight", eta_two_over_t),
}


def failed_checks(run_log, monkeypatch, mutant=None) -> list:
    if mutant is not None:
        name, patch = MUTANTS[mutant]
        owner = autoregressive.MetaForecaster if name == "_admit" else autoregressive
        monkeypatch.setattr(owner, name, patch)
    log = run_log(RunConfig("meta"), generate(STICKY, T))
    monkeypatch.undo()
    return [c.name for c in verify_bounds(log, lipschitz_L=1.0) if not c.passed]


def test_the_unmutated_mixture_passes_every_check(run_log, monkeypatch):
    assert failed_checks(run_log, monkeypatch) == []


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_mixture_mutant_fails_the_mixture_rule(run_log, monkeypatch, mutant):
    assert "mixture-rule" in failed_checks(run_log, monkeypatch, mutant)
