"""The predict(x) / update(y) / trace() protocol that every forecaster follows."""

import numpy as np
import pytest

from egtree import eg
from egtree.autoregressive import LaggedForecaster, MetaForecaster
from egtree.eg import EgTracker
from egtree.errors import ContractViolationError, RejectedInputError
from egtree.harness import RunConfig, run
from egtree.losses import LossSpec
from egtree.tree import PartitionTree

ABS = LossSpec("absolute")

# factory and the x each predict() receives
FORECASTERS = {
    "eg": (lambda: EgTracker(ABS), None),
    "tree": (lambda: PartitionTree(2, ABS, effective_range=True), [0.3, 0.8]),
    "lagged": (lambda: LaggedForecaster(d=2, start=3, loss=ABS), [0.1, 0.6, 0.9]),
    "meta": (lambda: MetaForecaster(ABS), None),
}


@pytest.mark.parametrize("kind", sorted(FORECASTERS))
def test_protocol(kind):
    make, x = FORECASTERS[kind]
    forecaster, twin = make(), make()
    with pytest.raises(ContractViolationError):
        forecaster.update(0.5)  # nothing predicted yet

    # warm up past the meta pool's first admissions
    for y in (0.2, 0.9, 0.4, 0.7, 0.1):
        for f in (forecaster, twin):
            f.predict(x)
            f.update(y)
    assert forecaster.predict(x) == twin.predict(x)
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(RejectedInputError):
            forecaster.update(bad)
    # the rejected outcomes changed nothing: the retry matches the twin
    for y in (0.6, 0.3, 0.8):
        forecaster.update(y)
        twin.update(y)
        assert forecaster.trace() == twin.trace()
        assert forecaster.predict(x) == twin.predict(x)
    forecaster.update(0.5)
    with pytest.raises(ContractViolationError):
        forecaster.update(0.5)  # one update per predict


@pytest.mark.parametrize("kind", ["eg", "tree", "meta"])
def test_one_eg_path(kind, monkeypatch):
    # the eg forecaster and every tree leaf run eg.predict and eg.update,
    # once per leaf step each, and have no EG arithmetic of their own
    from egtree import eg
    from egtree.harness import RunConfig, run

    calls = {"predict": 0, "update": 0}

    def counted(name):
        inner = getattr(eg, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(eg, "predict", counted("predict"))
    monkeypatch.setattr(eg, "update", counted("update"))
    rng = np.random.default_rng(4)
    T = 300
    xs = rng.random((T, 2)) if kind == "tree" else None
    log = run(RunConfig(kind, ABS, d=2), rng.random(T), xs)
    leaf_steps = T
    if kind == "meta":
        leaf_steps = sum(map(len, log.expert_preds))
        assert leaf_steps > T  # several members per step
    assert calls == {"predict": leaf_steps, "update": leaf_steps}
