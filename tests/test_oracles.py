import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egtree.errors import RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import (
    _absolute_minimizers,
    _group_by_x,
    _pinball_minimizers,
    best_constant,
    best_constants,
    best_histogram,
    best_lipschitz_1d,
)
from egtree.processes import ProcessSpec, generate
from reference import (
    best_constant_grid,
    best_constant_sorted,
    best_histogram_by_box,
    constant_gap_bound,
    lipschitz_grid_1d,
)

ABS = LossSpec("absolute")
SQ = LossSpec("square")
PIN = LossSpec("pinball", alpha=0.35)


class TestBestConstant:
    @pytest.mark.parametrize("loss", [ABS, SQ, PIN])
    def test_constant_sequence_is_fit_exactly(self, loss):
        fit = best_constant([0.37] * 25, loss)
        assert fit.value == pytest.approx(0.0, abs=1e-12)
        assert fit.argmin == pytest.approx(0.37, abs=1e-6)

    def test_alternating_extremes_cost_half_per_step(self):
        ys = [0.0, 1.0] * 30
        fit = best_constant(ys, ABS)
        assert fit.value == pytest.approx(len(ys) / 2, abs=1e-9)

    def test_square_loss_mean_minimizer(self):
        fit = best_constant([0.2, 0.4, 0.9], SQ)
        assert fit.argmin == pytest.approx(0.5, abs=1e-7)
        assert fit.value == pytest.approx(0.26, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(RejectedInputError):
            best_constant([], ABS)
        with pytest.raises(RejectedInputError):
            best_constant([1.3], ABS)
        with pytest.raises(RejectedInputError):
            best_constant([0.5, math.nan], ABS)

    @pytest.mark.parametrize("loss", [ABS, SQ, PIN])
    def test_search_matches_grid_scan(self, loss):
        rng = np.random.default_rng(21)
        for _ in range(100):
            ys = rng.random(rng.integers(2, 40))
            a = best_constant(ys, loss).value
            b = best_constant_grid(ys, loss).value
            assert abs(a - b) <= 1e-4
            assert a <= b + 1e-12  # the search can only be at least as good

    def test_search_matches_closed_forms(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            ys = rng.random(rng.integers(3, 60))
            med = float(np.median(ys))
            assert best_constant(ys, ABS).value == pytest.approx(
                float(np.abs(ys - med).sum()), abs=1e-9)
            mean = float(ys.mean())
            assert best_constant(ys, SQ).value == pytest.approx(
                float(((ys - mean) ** 2).sum()), abs=1e-9)
            # the check loss is minimized by an order statistic
            q = float(np.quantile(ys, PIN.alpha, method="inverted_cdf"))
            assert best_constant(ys, PIN).value == pytest.approx(
                float(PIN.value_array(q, ys).sum()), abs=1e-9)

    def test_weighted_minimum(self):
        fit = best_constant([0.25, 0.75], ABS, weights=[0.9, 0.1])
        assert fit.argmin == pytest.approx(0.25, abs=1e-6)
        assert fit.value == pytest.approx(0.05, abs=1e-9)


def bits(value) -> bytes:
    """A float's bytes: tells -0.0 from 0.0, where ``==`` does not."""
    return np.float64(value).tobytes()


# outcomes that tie: exact dyadic values, two-digit values, and any float
dyadic = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
outcome_values = st.one_of(dyadic, st.integers(0, 100).map(lambda k: k / 100),
                           st.floats(0.0, 1.0))
losses = st.one_of(st.sampled_from([ABS, SQ, PIN]),
                   st.floats(0.01, 0.99).map(lambda a: LossSpec("pinball", a)))


@st.composite
def grouped_outcomes(draw):
    """Outcomes, zero to two key columns (few groups, singletons, or leaf-like
    (depth, index) pairs with indices near 2**62) and maybe weights."""
    n = draw(st.integers(1, 60))
    ys = draw(st.lists(st.one_of(outcome_values, st.just(draw(outcome_values))),
                       min_size=n, max_size=n))
    key_values = st.one_of(st.integers(0, 3), st.integers(0, n), st.integers(2**62 - 4, 2**62))
    keys = [np.array(draw(st.lists(key_values, min_size=n, max_size=n)), dtype=np.int64)
            for _ in range(draw(st.integers(0, 2)))]
    weights = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.floats(1e-3, 10.0), dyadic.filter(bool)), min_size=n, max_size=n)))
    return np.array(ys), keys, weights


class TestBestConstants:
    @settings(max_examples=400, deadline=None)
    @given(grouped_outcomes(), losses)
    def test_each_group_is_its_own_best_constant_bit_for_bit(self, case, loss):
        ys, keys, weights = case
        fits = best_constants(ys, keys, loss, weights)
        groups: dict = {}
        for k in range(len(ys)):
            groups.setdefault(tuple(key[k] for key in keys), []).append(k)
        assert sorted(groups) == [tuple(key[k] for key in keys) for k in fits.first.tolist()]
        assert fits.count.sum() == len(ys)
        for value, argmin, count, first in zip(*fits):
            idx = groups[tuple(key[first] for key in keys)]
            assert (first, count) == (idx[0], len(idx))
            w = None if weights is None else np.array(weights)[idx]
            for fit in (best_constant(ys[idx], loss, w), best_constant_sorted(ys[idx], loss, w)):
                assert bits(value) == bits(fit.value) and bits(argmin) == bits(fit.argmin)

    def test_signed_zeros_keep_their_input_order(self):
        ys = np.array([0.0, -0.0, -0.0, 0.0, 0.5, -0.0])
        keys = [np.array([1, 1, 2, 2, 2, 1])]
        fits = best_constants(ys, keys, ABS)
        for argmin, group in zip(fits.argmin, ([0, 1, 5], [2, 3, 4])):
            assert bits(argmin) == bits(best_constant_sorted(ys[group], ABS).argmin)

    def test_rejects_bad_shapes(self):
        with pytest.raises(RejectedInputError):
            best_constants([0.1, 0.2], [np.array([1, 2, 3])], ABS)
        with pytest.raises(RejectedInputError):
            best_constants([0.1, 0.2], [], ABS, weights=[1.0])
        with pytest.raises(RejectedInputError):
            best_constants(np.zeros((2, 2)), [], ABS)


class TestBestHistogram:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), losses)
    def test_matches_one_mask_per_box(self, data, loss):
        d = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(1, 40))
        xs = np.array(data.draw(st.lists(outcome_values, min_size=n * d, max_size=n * d)))
        ys = np.array(data.draw(st.lists(outcome_values, min_size=n, max_size=n)))
        n_boxes = data.draw(st.sampled_from([1, 2, 4, 16, 64])) ** d
        fit = best_histogram(xs.reshape(n, d), ys, n_boxes, d, loss)
        ref = best_histogram_by_box(xs, ys, n_boxes, d, loss)
        assert bits(fit.value) == bits(ref.value)
        assert list(fit.argmin) == list(ref.argmin)
        assert [bits(v) for v in fit.argmin.values()] == [bits(v) for v in ref.argmin.values()]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -0.5, 1.5])
    def test_covariates_outside_the_unit_cube_rejected(self, x):
        with pytest.raises(RejectedInputError, match="covariates must lie in"):
            best_histogram([[x], [0.2]], [0.1, 0.9], 4, 1, ABS)
        with pytest.raises(RejectedInputError, match="covariates must lie in"):
            best_histogram([[0.2, 0.3], [0.4, x]], [0.1, 0.9], 4, 2, ABS)

    @pytest.mark.parametrize("n_boxes", [2.0, True, 0, -4, "4"])
    def test_box_count_must_be_a_positive_integer(self, n_boxes):
        with pytest.raises(RejectedInputError, match="need at least one box"):
            best_histogram([[0.5], [0.2]], [0.1, 0.9], n_boxes, 1, ABS)

    def test_outcome_count_must_match(self):
        with pytest.raises(RejectedInputError, match="2 outcomes for 3 covariate rows"):
            best_histogram([0.1, 0.5, 0.9], [0.1, 0.9], 4, 1, ABS)

    def test_single_box_equals_best_constant(self):
        rng = np.random.default_rng(23)
        xs, ys = rng.random(50), rng.random(50)
        assert best_histogram(xs, ys, 1, 1, ABS).value == pytest.approx(
            best_constant(ys, ABS).value, abs=1e-12)

    def test_separable_data_fits_perfectly(self):
        xs = [0.1, 0.2, 0.8, 0.9]
        ys = [0.0, 0.0, 1.0, 1.0]
        assert best_histogram(xs, ys, 2, 1, ABS).value == pytest.approx(0.0, abs=1e-9)

    def test_per_box_constant_outcomes(self):
        rng = np.random.default_rng(24)
        xs = rng.random((200, 2))
        levels = np.array([0.1, 0.4, 0.6, 0.9])
        box = (xs[:, 0] >= 0.5).astype(int) * 2 + (xs[:, 1] >= 0.5).astype(int)
        ys = levels[box]
        assert best_histogram(xs, ys, 4, 2, ABS).value == pytest.approx(0.0, abs=1e-9)

    def test_invalid_box_count(self):
        with pytest.raises(RejectedInputError):
            best_histogram([[0.5, 0.5]], [0.5], 2, 2, ABS)

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(25)
        xs, ys = rng.random(300), rng.random(300)
        vals = [best_histogram(xs, ys, n, 1, SQ).value for n in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_boundary_point_lands_in_top_box(self):
        assert best_histogram([1.0], [0.5], 4, 1, ABS).value == pytest.approx(0.0)


class TestBestLipschitz1d:
    def test_zero_slope_collapses_to_constant(self):
        rng = np.random.default_rng(26)
        xs, ys = rng.random(40), rng.random(40)
        fit = best_lipschitz_1d(xs, ys, 0.0, ABS)
        assert fit.value == best_constant(ys, ABS).value

    def test_huge_slope_interpolates(self):
        rng = np.random.default_rng(27)
        xs = np.linspace(0.05, 0.95, 12)
        ys = rng.random(12)
        fit = best_lipschitz_1d(xs, ys, 1000.0, ABS)
        assert fit.value == pytest.approx(0.0, abs=1e-9)

    def test_three_point_instance(self):
        # grid-verified optimum 0.5: f(0)=0 costs the middle point half
        fit = best_lipschitz_1d([0.0, 1.0, 0.5], [0.0, 1.0, 1.0], 1.0, ABS)
        assert fit.value == pytest.approx(0.5, abs=1e-9)
        grid = lipschitz_grid_1d([0.0, 1.0, 0.5], [0.0, 1.0, 1.0], 1.0, ABS)
        assert abs(fit.value - grid.value) <= 2e-2

    def test_duplicate_covariates_share_a_value(self):
        fit = best_lipschitz_1d([0.5, 0.5, 0.5], [0.0, 1.0, 1.0], 5.0, ABS)
        u, f = fit.argmin
        assert len(u) == 1
        assert fit.value == pytest.approx(1.0, abs=1e-9)  # median fit

    def test_multidimensional_rejected(self):
        with pytest.raises(RejectedInputError):
            best_lipschitz_1d(np.zeros((4, 2)), [0.1] * 4, 1.0, ABS)

    def test_negative_slope_bound_rejected(self):
        with pytest.raises(RejectedInputError):
            best_lipschitz_1d([0.1], [0.1], -1.0, ABS)
        for L in (math.inf, math.nan):
            with pytest.raises(RejectedInputError):
                best_lipschitz_1d([0.1, 0.5], [0.1, 0.9], L, ABS)

    @pytest.mark.parametrize("oracle", [best_lipschitz_1d, lipschitz_grid_1d])
    def test_mismatched_or_out_of_range_outcomes_rejected(self, oracle):
        with pytest.raises(RejectedInputError):
            oracle([0.1, 0.5, 0.9], [0.2, 0.4, 0.6, 0.9, 0.9], 1.0, ABS)
        with pytest.raises(RejectedInputError):
            oracle([0.1, 0.5], [1.5, 2.0], 1.0, ABS)
        with pytest.raises(RejectedInputError):
            oracle([0.1, 0.5], [0.5, math.nan], 1.0, ABS)
        for bad in (math.nan, math.inf, -math.inf):  # a covariate, not an outcome
            with pytest.raises(RejectedInputError, match="covariates must be finite"):
                oracle([0.1, bad, 0.5], [0.2, 0.9, 0.3], 1.0, ABS)

    @pytest.mark.parametrize("loss", [ABS, SQ, PIN])
    def test_value_nonincreasing_in_slope_bound(self, loss):
        rng = np.random.default_rng(28)
        xs = rng.integers(0, 11, size=30) / 10.0
        ys = np.round(rng.random(30), 2)
        vals = [best_lipschitz_1d(xs, ys, L, loss).value
                for L in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_comparator_chain(self):
        rng = np.random.default_rng(29)
        xs = rng.integers(0, 21, size=60) / 20.0
        ys = rng.random(60)
        c = best_constant(ys, ABS).value
        h = best_histogram(xs, ys, 4, 1, ABS).value
        assert c >= h - 1e-9
        lip = best_lipschitz_1d(xs, ys, 10_000.0, ABS).value
        assert h >= lip - 1e-9

    def test_constant_gap_inequality(self):
        # on a region of diameter delta the constant fit trails the best
        # slope-bounded fit by at most M * L * count * delta
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            delta = float(rng.uniform(0.05, 0.4))
            left = float(rng.uniform(0.0, 1.0 - delta))
            xs = left + delta * rng.random(n)
            ys = np.clip(xs + 0.1 * rng.standard_normal(n), 0.0, 1.0)
            for L in (0.5, 2.0):
                gap = best_constant(ys, ABS).value - best_lipschitz_1d(xs, ys, L, ABS).value
                assert gap <= constant_gap_bound(ABS.M, L, n, delta) + 1e-9

    def test_three_point_instance_matches_brute_force(self):
        # one slope constraint binds: 0.8 - 0.2 exceeds the cap 0.5 by 0.1
        xs, ys, L = [0.0, 0.5, 1.0], [0.2, 0.8, 0.3], 1.0
        grid = np.linspace(0.0, 1.0, 21)
        brute = min(
            abs(f1 - 0.2) + abs(f2 - 0.8) + abs(f3 - 0.3)
            for f1, f2, f3 in itertools.product(grid, repeat=3)
            if abs(f2 - f1) <= 0.5 + 1e-12 and abs(f3 - f2) <= 0.5 + 1e-12)
        fit = best_lipschitz_1d(xs, ys, L, ABS)
        assert brute == pytest.approx(0.1, abs=1e-12)
        assert fit.value == pytest.approx(brute, abs=1e-12)


class TestGridTwin:
    def test_grid_chain_matches_brute_enumeration(self):
        # the chain decomposition must equal a literal scan of all grid
        # assignments; check on an instance small enough to enumerate
        xs = np.array([0.0, 0.4, 1.0])
        ys = np.array([0.1, 0.9, 0.35])
        L, step = 0.8, 0.1
        grid = np.linspace(0.0, 1.0, 11)
        best = math.inf
        for f1 in grid:
            for f2 in grid:
                if abs(f2 - f1) > L * 0.4 + 1e-12:
                    continue
                for f3 in grid:
                    if abs(f3 - f2) > L * 0.6 + 1e-12:
                        continue
                    best = min(best, abs(f1 - 0.1) + abs(f2 - 0.9) + abs(f3 - 0.35))
        dp = lipschitz_grid_1d(xs, ys, L, ABS, step=step)
        assert dp.value == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("loss", [ABS, SQ, PIN])
    def test_descent_agrees_with_grid_on_small_instances(self, loss):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            xs = rng.choice(np.linspace(0.0, 1.0, 11), size=n, replace=False)
            ys = rng.integers(0, 51, size=n) / 50.0
            L = float(rng.choice([0.2, 0.6, 1.0, 5.0]))
            fit = best_lipschitz_1d(xs, ys, L, loss)
            grid = lipschitz_grid_1d(xs, ys, L, loss)
            assert abs(fit.value - grid.value) <= 2e-2


# -- exactness of the slope-bounded DP ------------------------------------

PIN_HIGH = LossSpec("pinball", alpha=0.9)
SLOPES = (0.0, 0.3, 1.0, 5.0)


def _values_at(fit, xs):
    u, f = fit.argmin
    return f[np.searchsorted(u, np.asarray(xs, dtype=float))]


@st.composite
def chain_instances(draw):
    n = draw(st.integers(1, 8))
    xs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))  # duplicates likely
    ys = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return np.array(xs) / 6.0, np.array(ys)


class TestLipschitzExactness:
    @settings(max_examples=150, deadline=None)
    @given(chain_instances(), st.sampled_from([ABS, SQ, PIN, PIN_HIGH]))
    def test_properties(self, instance, loss):
        xs, ys = instance
        values = []
        for L in SLOPES:
            fit = best_lipschitz_1d(xs, ys, L, loss)
            assert fit.value <= lipschitz_grid_1d(xs, ys, L, loss).value + 1e-12
            u, f = fit.argmin
            assert np.all((0.0 <= f) & (f <= 1.0))
            assert np.all(np.abs(np.diff(f)) <= L * np.diff(u) + 1e-12)
            recomputed = float(loss.value_array(_values_at(fit, xs), ys).sum())
            assert recomputed == pytest.approx(fit.value, abs=1e-9)
            values.append(fit.value)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @staticmethod
    def _lp_value(xs, ys, L, loss):
        """The same program as an LP: f, then the parts p, q of y - f = p - q."""
        sparse = pytest.importorskip("scipy.sparse")
        optimize = pytest.importorskip("scipy.optimize")
        u, gidx = np.unique(np.asarray(xs, dtype=float), return_inverse=True)
        n, T = len(u), len(ys)
        a = 1.0 if loss.kind == "absolute" else loss.alpha
        b = 1.0 if loss.kind == "absolute" else 1.0 - loss.alpha
        cost = np.concatenate([np.zeros(n), np.full(T, a), np.full(T, b)])
        eye = sparse.identity(T, format="csr")
        pick = sparse.csr_matrix((np.ones(T), (np.arange(T), gidx)), shape=(T, n))
        a_eq = sparse.hstack([pick, eye, -eye])
        diff = sparse.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
        zeros = sparse.csr_matrix((n - 1, 2 * T))
        a_ub = sparse.vstack([sparse.hstack([diff, zeros]), sparse.hstack([-diff, zeros])])
        caps = L * np.diff(u)
        res = optimize.linprog(cost, A_ub=a_ub, b_ub=np.concatenate([caps, caps]),
                               A_eq=a_eq, b_eq=ys,
                               bounds=[(0.0, 1.0)] * n + [(0.0, None)] * (2 * T),
                               method="highs")
        assert res.status == 0
        return res.fun

    @pytest.mark.parametrize("loss", [ABS, PIN, PIN_HIGH])
    def test_piecewise_linear_losses_match_lp(self, loss):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            xs = rng.integers(0, 9, size=n) / 8.0
            ys = rng.random(n)
            L = float(rng.choice([0.3, 1.0, 5.0]))
            fit = best_lipschitz_1d(xs, ys, L, loss)
            assert fit.value == pytest.approx(self._lp_value(xs, ys, L, loss), abs=1e-9)

    @pytest.mark.parametrize("loss", [ABS, PIN])
    def test_piecewise_linear_losses_match_lp_at_n_2000(self, loss):
        rng = np.random.default_rng(33)
        xs = rng.random(2000)
        ys = np.clip(0.5 + 0.6 * (xs - 0.5) + 0.15 * rng.standard_normal(2000), 0.0, 1.0)
        fit = best_lipschitz_1d(xs, ys, 1.0, loss)
        lp = self._lp_value(xs, ys, 1.0, loss)
        assert fit.value == pytest.approx(lp, rel=1e-9, abs=1e-9)

    @staticmethod
    def _enumerated_square_value(xs, ys, L):
        """Minimum over every slack / tight-up / tight-down pattern of the chain.

        Each pattern fixes the differences across its tight links, so every
        block of linked values has a closed-form best level (a mean); the
        feasible pattern solutions include the optimum.  The box [0,1] is
        left out: clipping an optimum into it keeps it feasible and lowers
        no loss term, so the optimal value is the same.
        """
        u, gidx = np.unique(np.asarray(xs, dtype=float), return_inverse=True)
        n = len(u)
        caps = L * np.diff(u)
        best = math.inf
        for pattern in itertools.product((0, 1, -1), repeat=n - 1):
            offset = np.concatenate(([0.0], np.cumsum(np.array(pattern) * caps)))
            block = np.concatenate(([0], np.cumsum(np.array(pattern) == 0)))
            f = np.empty(n)
            for k in np.unique(block):
                members = block[gidx] == k
                level = float(np.mean(ys[members] - offset[gidx[members]]))
                f[block == k] = level + offset[block == k]
            if np.all(np.abs(np.diff(f)) <= caps + 1e-12):
                best = min(best, float(((f[gidx] - ys) ** 2).sum()))
        return best

    def test_square_loss_matches_active_set_enumeration(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            T = int(rng.integers(1, 12))
            xs = rng.integers(0, 7, size=T) / 6.0  # at most 7 distinct values
            ys = rng.random(T)
            L = float(rng.choice(SLOPES))
            fit = best_lipschitz_1d(xs, ys, L, SQ)
            assert fit.value == pytest.approx(
                self._enumerated_square_value(xs, ys, L), abs=1e-12)


# -- the unweighted absolute-loss DP and large slope bounds ---------------

HUGE_SLOPES = (0.0, 1.0, 1e2, 1e6, 1e10, 1e14, 1e20)


def _ar1_pairs(n, seed=5):
    """Lag-1 pairs of an AR(1) series (a=0.8, sigma=0.1)."""
    y = generate(ProcessSpec("ar1", seed=seed, a=0.8, sigma=0.1), n + 1)
    return y[:-1], y[1:]


def _stages(xs, ys):
    """The distinct covariates, then the DP's sorted outcomes and stage bounds."""
    u, ys1, _, starts = _group_by_x(xs, ys)
    return u, ys1.tolist(), starts.tolist(), np.append(starts[1:], len(ys1)).tolist()


@st.composite
def grid_chains(draw):
    """Coarse grids for x and y, so that duplicate covariates and tied outcomes are likely."""
    n = draw(st.integers(1, 30))
    xs = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8.0
    ys = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) / 6.0
    u, *stages = _stages(xs, ys)
    caps = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.125, 1.0]), st.floats(0.0, 1.0)),
                         min_size=len(u) - 1, max_size=len(u) - 1))
    return (*stages, caps)


class TestAbsoluteDP:
    @staticmethod
    def _bits(values):
        return [v.hex() for v in values]  # tells -0.0 from 0.0

    @settings(max_examples=300, deadline=None)
    @given(grid_chains())
    def test_bit_identical_to_weighted_dp(self, chain):
        assert (self._bits(_absolute_minimizers(*chain))
                == self._bits(_pinball_minimizers(*chain, 0.5)))

    def test_bit_identical_to_weighted_dp_on_ar1_pairs(self):
        u, *stages = _stages(*_ar1_pairs(20_000))
        chain = (*stages, np.minimum(np.diff(u), 1.0).tolist())
        assert (self._bits(_absolute_minimizers(*chain))
                == self._bits(_pinball_minimizers(*chain, 0.5)))

    @pytest.mark.parametrize("loss, pinned", [
        (ABS, "0x1.33d65c7b0218ep+7"),
        (PIN, "0x1.1fec488bf681ap+6"),
        (SQ, "0x1.2dd29ecb290dep+4"),
    ])
    def test_value_bits_are_pinned(self, loss, pinned):
        # recorded before the unweighted DP and the link cap were added
        assert best_lipschitz_1d(*_ar1_pairs(2000), 1.0, loss).value.hex() == pinned

    @settings(max_examples=100, deadline=None)
    @given(chain_instances(), st.sampled_from([ABS, SQ, PIN, PIN_HIGH]))
    def test_value_nonincreasing_up_to_huge_slope_bounds(self, instance, loss):
        # the comparator class grows with L, so its best loss cannot rise
        values = [best_lipschitz_1d(*instance, L, loss).value for L in HUGE_SLOPES]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), values

    @pytest.mark.parametrize("loss", [ABS, PIN])
    def test_huge_slope_bound_keeps_the_outcome_bits(self, loss):
        # an uncapped link let the lazy shift reach L * (u_max - u_min), and
        # the loss rose from 4e-4 at L=1e10 to 985.5 at L=1e20
        rng = np.random.default_rng(1)
        xs, ys = rng.random(2000), rng.random(2000)
        values = [best_lipschitz_1d(xs, ys, L, loss).value for L in (1e10, 1e12, 1e14, 1e20)]
        assert all(a >= b for a, b in zip(values, values[1:])), values
        assert max(values) < 1e-9
