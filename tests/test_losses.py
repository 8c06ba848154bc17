import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtree.errors import RejectedInputError
from egtree.losses import LossSpec, left_sum

ABS = LossSpec("absolute")
SQ = LossSpec("square")


def pin(alpha):
    return LossSpec("pinball", alpha=alpha)


ALL_SPECS = [ABS, SQ, pin(0.3), pin(0.5), pin(0.9)]


def subgradients(spec, pred, outcome):
    """``spec.subgradient``, the scalar the forecasters run, at every pair of cells."""
    return np.frompyfunc(spec.subgradient, 2, 1)(pred, outcome).astype(float)


class TestValues:
    def test_absolute(self):
        assert ABS.value(0.3, 0.8) == pytest.approx(0.5, abs=1e-15)

    def test_square_boundary(self):
        assert SQ.value(1.0, 0.0) == 1.0

    def test_pinball_median(self):
        # 0.5 * (0.6 - 0.2), classic check-loss arithmetic
        assert pin(0.5).value(0.2, 0.6) == pytest.approx(0.2, abs=1e-15)

    def test_pinball_above(self):
        assert pin(0.3).value(0.8, 0.2) == pytest.approx(0.7 * 0.6, abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_bounded_on_unit_square(self, spec):
        grid = np.linspace(0.0, 1.0, 101)
        vals = spec.value_array(grid[:, None], grid[None, :])
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_convexity_in_prediction(self, spec):
        rng = np.random.default_rng(7)
        p1, p2, y = rng.random((3, 2000))
        lam = rng.random(2000)
        mix = lam * p1 + (1 - lam) * p2
        lhs = spec.value_array(mix, y)
        rhs = lam * spec.value_array(p1, y) + (1 - lam) * spec.value_array(p2, y)
        assert np.all(lhs <= rhs + 1e-12)

    def test_domain_rejected(self):
        with pytest.raises(RejectedInputError):
            ABS.value(1.2, 0.5)
        with pytest.raises(RejectedInputError):
            ABS.value(0.5, -0.1)
        with pytest.raises(RejectedInputError):
            ABS.subgradient(-0.5, 0.5)

    @pytest.mark.parametrize("spec", [ABS, SQ, pin(0.3)])
    @pytest.mark.parametrize("method", ["value", "subgradient"])
    @pytest.mark.parametrize("pred, outcome, named", [
        (1.5, -0.1, "pred"),
        (float("nan"), float("nan"), "pred"),
        (float("nan"), 0.5, "pred"),
        (-0.1, float("inf"), "pred"),
        (0.5, float("nan"), "outcome"),
        (0.5, 1.0001, "outcome"),
    ])
    def test_first_bad_argument_is_named(self, spec, method, pred, outcome, named):
        bad = pred if named == "pred" else outcome
        message = rf"^{named} must lie in \[0, 1\], got {re.escape(repr(bad))}$"
        with pytest.raises(RejectedInputError, match=message):
            getattr(spec, method)(pred, outcome)


class TestSubgradients:
    def test_absolute_tie_is_zero(self):
        assert ABS.subgradient(0.5, 0.5) == 0.0

    def test_square_slope(self):
        assert SQ.subgradient(0.75, 0.25) == 1.0

    def test_absolute_sign(self):
        assert ABS.subgradient(0.9, 0.1) == 1.0
        assert ABS.subgradient(0.1, 0.9) == -1.0

    def test_pinball_branches(self):
        spec = pin(0.3)
        assert spec.subgradient(0.8, 0.2) == pytest.approx(0.7)
        assert spec.subgradient(0.2, 0.8) == pytest.approx(-0.3)
        assert spec.subgradient(0.4, 0.4) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_magnitude_below_lipschitz_constant(self, spec):
        rng = np.random.default_rng(11)
        pred, outcome = rng.random((2, 1_000_000))
        sg = subgradients(spec, pred, outcome)
        assert np.abs(sg).max() <= spec.M + 1e-15

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_subgradient_inequality_on_grid(self, spec):
        # loss(z, y) >= loss(p, y) + sg(p, y) * (z - p) everywhere
        g = np.linspace(0.0, 1.0, 41)
        z, p, y = np.meshgrid(g, g, g, indexing="ij")
        lhs = spec.value_array(z, y)
        rhs = spec.value_array(p, y) + subgradients(spec, p, y) * (z - p)
        assert np.all(lhs >= rhs - 1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_finite_differences_off_kinks(self, spec):
        rng = np.random.default_rng(13)
        pred = 1e-3 + (1 - 2e-3) * rng.random(20000)
        outcome = rng.random(20000)
        keep = np.abs(pred - outcome) >= 1e-5
        pred, outcome = pred[keep], outcome[keep]
        h = 1e-7
        fd = (spec.value_array(pred + h, outcome) - spec.value_array(pred - h, outcome)) / (2 * h)
        sg = subgradients(spec, pred, outcome)
        assert np.abs(fd - sg).max() <= 1e-6


class TestLipschitzConstants:
    def test_named_constants(self):
        assert ABS.M == 1.0
        assert SQ.M == 2.0
        assert pin(0.9).M == pytest.approx(0.9)
        assert pin(0.3).M == pytest.approx(0.7)


class TestSpecPlumbing:
    def test_bad_kind(self):
        with pytest.raises(RejectedInputError):
            LossSpec("huber")

    def test_pinball_needs_alpha(self):
        with pytest.raises(RejectedInputError):
            LossSpec("pinball")
        with pytest.raises(RejectedInputError):
            LossSpec("pinball", alpha=1.0)

    def test_alpha_only_for_pinball(self):
        with pytest.raises(RejectedInputError):
            LossSpec("absolute", alpha=0.5)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_dict_round_trip(self, spec):
        assert LossSpec.from_dict(spec.to_dict()) == spec


def _bits(x: float) -> bytes:
    """The float64 bytes of ``x``: tells -0.0 from 0.0 and one NaN from another."""
    return struct.pack("<d", x)


def _loop_sum(values, total: float) -> float:
    for v in values:
        total += v
    return total


# summands that round differently in another order: +-1e16 cancel, and a
# small value added to one is lost (1e16 + 1 ties to the even 1e16)
_SUMMANDS = st.one_of(
    st.sampled_from([1e16, -1e16, 1e16 + 2.0, -1e16 - 2.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-4.0, 4.0),
    st.floats(),  # every float64: subnormals, +-0.0, +-inf and NaN among them
)


class TestLeftSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SUMMANDS, max_size=40), st.one_of(st.just(0.0), _SUMMANDS))
    @example([], 0.0)
    @example([], -2.5)
    @example([-0.0], -0.0)
    @example([-0.0, 0.0], -0.0)
    @example([1e16] + [1.0] * 16, 0.0)  # one at a time, each 1.0 is lost
    @example([1.0] * 16 + [-1e16], 1e16)
    @example([5e-324, -5e-324, 2.0**-1030, float("inf")], 1.0)
    @example([float("inf"), float("-inf"), 1.0], 0.0)
    @example([float("nan"), 1.0, -0.0], 3.0)
    def test_an_array_adds_as_the_loop_does(self, values, total):
        got = left_sum(np.array(values, dtype=float), total)
        assert type(got) is float
        assert _bits(got) == _bits(_loop_sum(values, total))
        assert _bits(left_sum(values, total)) == _bits(_loop_sum(values, total))
