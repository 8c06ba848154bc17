"""The predict(x) / update(y) / trace() protocol that every forecaster follows."""

import pytest

from egtree.autoregressive import LaggedForecaster, MetaForecaster
from egtree.eg import EgTracker
from egtree.errors import ContractViolationError, RejectedInputError
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
