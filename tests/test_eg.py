import math

import numpy as np
import pytest

from egtree import eg
from egtree.errors import RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import best_constant

ABS = LossSpec("absolute")
SQ = LossSpec("square")

# logistic(-sqrt(log(2)/2)), evaluated independently of eg.predict
PRED_AFTER_ONE_UNIT_GRADIENT = 0.3569320399887234


class TestPredict:
    def test_fresh_state_is_half(self):
        assert eg.predict(0, 0.0, 1.0) == 0.5

    def test_zero_gradient_sum_is_half(self):
        assert eg.predict(3, 0.0, 1.0) == 0.5
        assert eg.predict(3, 0.0, 7.5) == 0.5

    def test_one_unit_gradient(self):
        got = eg.predict(1, 1.0, 1.0)
        assert got == pytest.approx(PRED_AFTER_ONE_UNIT_GRADIENT, abs=1e-15)
        # and the symmetric case
        assert eg.predict(1, -1.0, 1.0) == pytest.approx(
            1.0 - PRED_AFTER_ONE_UNIT_GRADIENT, abs=1e-15)

    def test_always_strictly_inside_unit_interval(self):
        for t, G in [(1, 1e3), (10**5, -(10**5)), (10**8, 10**8), (1, 1e300), (1, -1e300)]:
            p = eg.predict(t, float(G), 1.0)
            assert 0.0 < p < 1.0


class TestUpdate:
    def test_tie_leaves_gradient_sum(self):
        assert eg.update(0, 0.0, 0.5, 0.5, ABS) == (1, 0.0)

    def test_positive_residual(self):
        assert eg.update(0, 0.0, 0.5, 0.0, ABS) == (1, 1.0)

    def test_square_accumulation(self):
        t, G = eg.update(2, -1.0, 0.3, 1.0, SQ)
        assert t == 3
        assert G == -1.0 + 2.0 * (0.3 - 1.0)
        assert G == pytest.approx(-2.4, abs=1e-12)

    def test_step_count_increments_by_one(self):
        t, G = 0, 0.0
        for k in range(5):
            assert t == k
            t, G = eg.update(t, G, eg.predict(t, G, 1.0), 0.7, ABS)

    def test_outcome_domain(self):
        with pytest.raises(RejectedInputError):
            eg.update(0, 0.0, 0.5, 1.5, ABS)

    def test_gradient_sum_bounded_by_Mt(self):
        rng = np.random.default_rng(2)
        for spec in (ABS, SQ, LossSpec("pinball", alpha=0.25)):
            t, G = 0, 0.0
            for y in rng.random(500):
                t, G = eg.update(t, G, eg.predict(t, G, spec.M), float(y), spec)
                assert abs(G) <= spec.M * t + 1e-12


def drive(outcomes, spec):
    tracker = eg.EgTracker(spec)
    losses = []
    for y in outcomes:
        p = tracker.predict()
        losses.append(spec.value(p, y))
        tracker.update(y)
    return (tracker.t, tracker.G), sum(losses)


def adversarial(spec, T, seed=None):
    """Outcome stream that always lands on the prediction's far side."""
    t, G = 0, 0.0
    ys = []
    for _ in range(T):
        p = eg.predict(t, G, spec.M)
        y = 1.0 if p <= 0.5 else 0.0
        ys.append(y)
        t, G = eg.update(t, G, p, y, spec)
    return ys


class TestRegret:
    @pytest.mark.parametrize("spec", [ABS, SQ, LossSpec("pinball", alpha=0.3)])
    @pytest.mark.parametrize("stream", ["iid", "blocky", "adversarial"])
    def test_beats_best_constant_up_to_bound(self, spec, stream):
        T = 3000
        rng = np.random.default_rng(hash((spec.kind, stream)) % 2**32)
        if stream == "iid":
            ys = rng.random(T).tolist()
        elif stream == "blocky":
            ys = np.where(rng.random(T) < 0.8, 0.9, 0.05).tolist()
        else:
            ys = adversarial(spec, T)
        _, cum = drive(ys, spec)
        best = best_constant(ys, spec).value
        assert cum - best < eg.regret_bound(spec.M, T)

    def test_square_forced_constant_gradient_identity(self):
        rng = np.random.default_rng(5)
        ys = rng.random(400)
        p = 0.37
        t, G = 0, 0.0
        expected = 0.0
        for y in ys:
            t, G = eg.update(t, G, p, float(y), SQ)
            expected += 2.0 * (p - float(y))
        assert G == expected


@pytest.mark.parametrize("M", [1.0, 2.0, 0.7])
def test_regret_bound_of_an_array_is_the_scalar_bound_of_each(M):
    counts = np.array([1, 2, 3, 7, 100, 12345, 2**31 + 1, 2**40], dtype=np.int64)
    bounds = eg.regret_bound(M, counts)
    assert bounds.dtype == np.float64
    scalar = [eg.regret_bound(M, n) for n in counts.tolist()]
    assert bounds.tolist() == scalar == [2.0 * M * math.sqrt(n * math.log(2.0))
                                         for n in counts.tolist()]
