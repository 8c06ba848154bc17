import math

import numpy as np
import pytest

from egtree.autoregressive import (
    LaggedForecaster,
    MetaForecaster,
    entry_step,
    mixture_regret_bound,
    reweight,
)
from egtree.errors import ContractViolationError, RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import best_lipschitz_1d, lipschitz_regret_bound
from egtree.processes import ProcessSpec, generate
from egtree.tree import PartitionTree
from reference import built_nodes, mixture_bound

ABS = LossSpec("absolute")


def traced(forecaster) -> dict:
    """The fields of the forecaster's last step, by name."""
    return dict(zip(forecaster.TRACED, forecaster.trace()))


class TestSchedules:
    def test_powers_of_two_prefix(self):
        assert [entry_step("powers_of_two", d) for d in range(1, 5)] == [2, 4, 8, 16]

    def test_quadratic_prefix(self):
        assert [entry_step("quadratic", d) for d in range(1, 5)] == [2, 5, 10, 17]

    @pytest.mark.parametrize("kind", ["powers_of_two", "quadratic"])
    def test_entry_steps_valid_for_lag_window(self, kind):
        steps = [entry_step(kind, d) for d in range(1, 65)]
        assert steps[0] == 2
        # the order-d member reads the d observations before its entry step
        assert all(t >= d + 1 for d, t in enumerate(steps, start=1))
        assert all(a < b for a, b in zip(steps, steps[1:]))

    def test_unknown_schedule(self):
        with pytest.raises(RejectedInputError):
            entry_step("linear", 1)


class TestReweight:
    def test_singleton_stays_one(self):
        out = reweight([0.0], [0.42], eta_t=1.0, eta_next=0.5)
        assert math.exp(out[0]) == pytest.approx(1.0, abs=1e-15)

    def test_equal_rates_loss_gap_sets_ratio(self):
        # equal weights, losses (0, 1), constant rate: ratio becomes e^eta
        eta = 0.8
        out = reweight([math.log(0.5)] * 2, [0.0, 1.0], eta_t=eta, eta_next=eta)
        assert math.exp(out[0] - out[1]) == pytest.approx(math.exp(eta), rel=1e-12)

    def test_normalizes(self):
        out = reweight([math.log(0.2), math.log(0.3), math.log(0.5)],
                       [0.9, 0.1, 0.4], eta_t=2.0, eta_next=1.5)
        assert sum(map(math.exp, out)) == pytest.approx(1.0, abs=1e-14)

    def test_sums_left_to_right(self):
        # exponentials 1, 1e-16, 1e-16: added left to right the tail rounds
        # away, while a compensated sum (sum() of floats from Python 3.12)
        # gives the next double above 1; the logged weights must not depend
        # on the interpreter
        logw = [0.0, math.log(1e-16), math.log(1e-16)]
        exps = [math.exp(lw) for lw in logw]
        assert (exps[0] + exps[1]) + exps[2] == 1.0 < math.fsum(exps)
        assert reweight(logw, [0.0] * 3, eta_t=1.0, eta_next=1.0) == logw


def drive(meta, ys):
    records = []
    for y in ys:
        p = meta.predict()
        meta.update(float(y))
        records.append((p, traced(meta)["experts"]))
    return records


class TestMetaProtocol:
    def test_first_step_predicts_half(self):
        meta = MetaForecaster(ABS)
        assert meta.predict() == 0.5
        assert meta.n_active == 0

    def test_first_member_enters_at_two_with_full_weight(self):
        meta = MetaForecaster(ABS)
        meta.predict()
        meta.update(0.3)
        assert len(meta.history) == 1 and meta.n_active == 1
        assert meta.weights == [1.0]

    def test_single_member_prediction_passes_through(self):
        meta = MetaForecaster(ABS, max_d=1)
        rng = np.random.default_rng(0)
        for y in rng.random(50):
            active = meta.n_active
            p = meta.predict()
            meta.update(float(y))
            if active == 1:
                assert p == traced(meta)["experts"][0]

    def test_mixture_is_the_logged_dot_product(self):
        meta = MetaForecaster(ABS)
        rng = np.random.default_rng(1)
        for y in rng.random(200):
            p = meta.predict()
            weights = meta.weights  # those the prediction was made with
            meta.update(float(y))
            preds = traced(meta)["experts"]
            if preds:
                acc = 0.0
                for w, f in zip(weights, preds):
                    acc += w * f
                assert p == min(max(acc, 0.0), 1.0)
            else:
                assert p == 0.5  # nothing active yet

    def test_entrant_weight_splits_evenly_from_single_incumbent(self):
        meta = MetaForecaster(ABS)
        rng = np.random.default_rng(2)
        for _ in range(3):  # steps 1..3; member 2 enters at t=4
            meta.predict()
            meta.update(float(rng.random()))
        assert len(meta.history) == 3 and meta.n_active == 2
        w = meta.weights
        assert w[0] == pytest.approx(0.5, abs=1e-15)
        assert w[1] == pytest.approx(0.5, abs=1e-15)

    def test_pool_grows_exactly_on_schedule(self):
        meta = MetaForecaster(ABS)
        rng = np.random.default_rng(3)
        for t in range(1, 70):
            assert len(meta.history) == t - 1
            expected = max((d for d in range(1, 8) if entry_step("powers_of_two", d) <= t),
                           default=0)
            assert meta.n_active == expected
            meta.predict()
            meta.update(float(rng.random()))

    def test_max_d_caps_the_pool(self):
        meta = MetaForecaster(ABS, max_d=2)
        rng = np.random.default_rng(4)
        for _ in range(40):
            meta.predict()
            meta.update(float(rng.random()))
        assert meta.n_active == 2

    def test_members_build_only_the_children_they_visit(self):
        sticky = ProcessSpec("markov", seed=7, emissions=(0.1, 0.5, 0.9),
                             transition=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)))
        meta = MetaForecaster(ABS)
        for y in generate(sticky, 2000).tolist():
            meta.predict()
            meta.update(y)
        trees = meta.experts
        for tree in trees:
            assert built_nodes(tree) <= tree.n_nodes == len(list(tree.walk()))
        assert sum(map(built_nodes, trees)) < sum(tree.n_nodes for tree in trees)

    def test_weight_simplex_every_step(self):
        meta = MetaForecaster(ABS, schedule="quadratic")
        rng = np.random.default_rng(5)
        for _ in range(600):
            meta.predict()
            if meta.n_active:
                assert abs(math.fsum(meta.weights) - 1.0) <= 1e-12
                assert min(meta.weights) >= 0.0
            meta.update(float(rng.random()))

    def test_update_without_predict_rejected(self):
        meta = MetaForecaster(ABS)
        meta.predict()
        meta.update(0.5)
        with pytest.raises(ContractViolationError):
            meta.update(0.5)

    def test_history_holds_python_floats(self):
        meta = MetaForecaster(ABS)
        for y in np.random.default_rng(8).random(20):
            meta.predict()
            meta.update(y)  # a numpy scalar
        assert all(type(v) is float for v in meta.history)

    def test_members_are_the_trees_of_each_order(self):
        meta = MetaForecaster(ABS, schedule="quadratic", effective_range=True)
        for y in np.random.default_rng(9).random(30).tolist():
            meta.predict()
            meta.update(y)
        assert [tree.d for tree in meta.experts] == [1, 2, 3, 4, 5]  # entries 2, 5, 10, 17, 26
        assert all(type(tree) is PartitionTree and tree.effective_range for tree in meta.experts)

    @pytest.mark.parametrize("max_d", [0, -1, 1.0, 2.5, True, "2"])
    def test_max_d_must_be_a_positive_integer(self, max_d):
        with pytest.raises(RejectedInputError, match="max_d must be an integer >= 1"):
            MetaForecaster(ABS, max_d=max_d)

    def test_outcome_domain(self):
        meta = MetaForecaster(ABS)
        meta.predict()
        with pytest.raises(RejectedInputError):
            meta.update(1.0001)


class TestLaggedForecaster:
    def test_entry_before_window_available_rejected(self):
        with pytest.raises(RejectedInputError):
            LaggedForecaster(d=3, start=3, loss=ABS)

    def test_window_is_the_most_recent_lags_oldest_first(self):
        # an effective-range leaf records the points it observed, in order
        ex = LaggedForecaster(d=2, start=3, loss=ABS, effective_range=True)
        history = [0.1, 0.9, 0.3]
        ex.predict(history)
        leaf = ex.tree.route((0.9, 0.3))
        ex.update(0.5)
        assert ex.trace() == ex.tree.trace()
        step = traced(ex.tree)
        assert (step["leaf_h"], step["leaf_i"]) == (leaf.h, leaf.i)
        assert leaf.obs_lo == leaf.obs_hi == [0.9, 0.3]

    def test_short_history_rejected(self):
        ex = LaggedForecaster(d=4, start=5, loss=ABS)
        with pytest.raises(ContractViolationError):
            ex.predict([0.1, 0.2])


def meta_regrets(loss, ys, schedule="powers_of_two", max_d=None):
    meta = MetaForecaster(loss, schedule=schedule, max_d=max_d)
    records = drive(meta, ys)
    T = len(ys)
    regrets = {}
    for d in range(1, meta.n_active + 1):
        total = 0.0
        for (p, preds), y in zip(records, ys):
            if len(preds) >= d:
                total += loss.value(p, float(y)) - loss.value(preds[d - 1], float(y))
        regrets[d] = total
    return meta, records, regrets


class TestRegretGuarantees:
    @pytest.mark.parametrize("loss", [ABS, LossSpec("square"), LossSpec("pinball", alpha=0.7)])
    def test_mixture_tracks_every_member(self, loss):
        rng = np.random.default_rng(11)
        ys = np.where(rng.random(3000) < 0.6, 0.85, 0.1)
        meta, records, regrets = meta_regrets(loss, ys)
        D = max(len(preds) for _, preds in records)
        assert D >= 3
        bound = mixture_regret_bound(len(ys), D, 2)
        for d, r in regrets.items():
            assert r <= bound

    @pytest.mark.parametrize("T", [17, 300, 6000])
    def test_mixture_bound_is_the_derived_form_for_every_pool_size(self, T):
        for D in range(1, 31):
            assert mixture_regret_bound(T, D, 2) == mixture_bound(T, D, 2)
        # the short form sqrt(T+1) log D lies below it for two members from T = 17 on
        assert math.sqrt(T + 1.0) * math.log(2) < mixture_regret_bound(T, 2, 2)

    def test_single_member_pool_has_zero_gap(self):
        rng = np.random.default_rng(12)
        ys = rng.random(400)
        meta, _, regrets = meta_regrets(ABS, ys, max_d=1)
        assert regrets[1] == 0.0
        assert 0.0 < mixture_regret_bound(len(ys), 1, 2) == mixture_bound(len(ys), 1, 2)

    def test_member_regret_vs_lipschitz_comparator(self):
        # order-1 member alone: its gap to the best slope-bounded map of
        # the previous observation obeys the tree guarantee
        rng = np.random.default_rng(13)
        ys = np.where(rng.random(2500) < 0.5, 0.2, 0.8)
        meta, records, _ = meta_regrets(ABS, ys, max_d=1)
        assert meta.experts[0].d == 1
        start = entry_step("powers_of_two", 1)
        member_losses = [
            ABS.value(preds[0], float(y))
            for (p, preds), y in zip(records, ys) if preds
        ]
        xs = ys[start - 2:-1]  # y_{t-1} for t = start..T
        fit = best_lipschitz_1d(xs, ys[start - 1:], 1.0, ABS)
        L = 1.0
        assert sum(member_losses) - fit.value <= lipschitz_regret_bound(ABS.M, L, 1, len(ys))

    def test_average_combined_regret_shrinks_with_horizon(self):
        rng = np.random.default_rng(14)
        ys = np.where(rng.random(10_000) < 0.5, 0.25, 0.75)
        per_T = []
        for T in (1000, 10_000):
            meta, records, _ = meta_regrets(ABS, ys[:T])
            cum = sum(ABS.value(p, float(y)) for (p, _), y in zip(records, ys[:T]))
            fit = best_lipschitz_1d(ys[:T - 1], ys[1:T], 1.0, ABS)
            per_T.append((cum - fit.value) / T)
        assert per_T[1] < per_T[0]
