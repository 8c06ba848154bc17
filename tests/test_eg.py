import numpy as np
import pytest

from egtree import eg
from egtree.eg import EgState
from egtree.errors import RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import best_constant

ABS = LossSpec("absolute")
SQ = LossSpec("square")

# logistic(-sqrt(log(2)/2)), evaluated independently of eg.predict
PRED_AFTER_ONE_UNIT_GRADIENT = 0.3569320399887234


class TestPredict:
    def test_fresh_state_is_half(self):
        assert eg.predict(EgState(M=1.0)) == 0.5

    def test_zero_gradient_sum_is_half(self):
        assert eg.predict(EgState(t=3, G=0.0, M=1.0)) == 0.5
        assert eg.predict(EgState(t=3, G=0.0, M=7.5)) == 0.5

    def test_one_unit_gradient(self):
        got = eg.predict(EgState(t=1, G=1.0, M=1.0))
        assert got == pytest.approx(PRED_AFTER_ONE_UNIT_GRADIENT, abs=1e-15)
        # and the symmetric case
        assert eg.predict(EgState(t=1, G=-1.0, M=1.0)) == pytest.approx(
            1.0 - PRED_AFTER_ONE_UNIT_GRADIENT, abs=1e-15)

    def test_always_strictly_inside_unit_interval(self):
        for t, G in [(1, 1e3), (10**5, -(10**5)), (10**8, 10**8), (1, 1e300), (1, -1e300)]:
            p = eg.predict(EgState(t=t, G=float(G), M=1.0))
            assert 0.0 < p < 1.0


class TestUpdate:
    def test_tie_leaves_gradient_sum(self):
        s = eg.update(EgState(M=1.0), 0.5, 0.5, ABS)
        assert (s.t, s.G) == (1, 0.0)

    def test_positive_residual(self):
        s = eg.update(EgState(M=1.0), 0.5, 0.0, ABS)
        assert (s.t, s.G) == (1, 1.0)

    def test_square_accumulation(self):
        s = eg.update(EgState(t=2, G=-1.0, M=2.0), 0.3, 1.0, SQ)
        assert s.t == 3
        assert s.G == -1.0 + 2.0 * (0.3 - 1.0)
        assert s.G == pytest.approx(-2.4, abs=1e-12)

    def test_step_count_increments_by_one(self):
        s = EgState(M=1.0)
        for k in range(5):
            assert s.t == k
            s = eg.update(s, eg.predict(s), 0.7, ABS)

    def test_outcome_domain(self):
        with pytest.raises(RejectedInputError):
            eg.update(EgState(M=1.0), 0.5, 1.5, ABS)

    def test_gradient_sum_bounded_by_Mt(self):
        rng = np.random.default_rng(2)
        for spec in (ABS, SQ, LossSpec("pinball", alpha=0.25)):
            s = EgState(M=spec.M)
            for y in rng.random(500):
                s = eg.update(s, eg.predict(s), float(y), spec)
                assert abs(s.G) <= spec.M * s.t + 1e-12


def drive(outcomes, spec):
    s = EgState(M=spec.M)
    losses = []
    for y in outcomes:
        p = eg.predict(s)
        losses.append(spec.value(p, y))
        s = eg.update(s, p, y, spec)
    return s, sum(losses)


def adversarial(spec, T, seed=None):
    """Outcome stream that always lands on the prediction's far side."""
    s = EgState(M=spec.M)
    ys = []
    for _ in range(T):
        p = eg.predict(s)
        y = 1.0 if p <= 0.5 else 0.0
        ys.append(y)
        s = eg.update(s, p, y, spec)
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
        s = EgState(M=SQ.M)
        expected = 0.0
        for y in ys:
            s = eg.update(s, p, float(y), SQ)
            expected += 2.0 * (p - float(y))
        assert s.G == expected
