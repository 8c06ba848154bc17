import hashlib
import math

import numpy as np
import pytest

from egtree import eg, processes
from egtree.errors import RejectedInputError
from egtree.losses import LossSpec
from egtree.processes import (
    ProcessSpec,
    generate,
    generate_with_info,
    minimal_expected_loss,
    stationary_distribution,
)

ABS = LossSpec("absolute")

STICKY = ProcessSpec("markov", seed=7, emissions=(0.25, 0.75),
                     transition=((0.9, 0.1), (0.1, 0.9)))
# the chain of perfbench's meta-markov workload; the cumsum of its first
# row is 1 - 2^-53, the largest draw
BENCH_CHAIN = {"emissions": (0.1, 0.5, 0.9),
               "transition": ((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.1, 0.3, 0.6))}


class TestSpecValidation:
    def test_iid_needs_distribution(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("iid", support=(0.2, 0.8), probs=(0.5, 0.6))
        with pytest.raises(RejectedInputError):
            ProcessSpec("iid", support=(0.2, 1.8), probs=(0.5, 0.5))

    def test_markov_needs_stochastic_rows(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("markov", emissions=(0.1, 0.9),
                        transition=((0.5, 0.4), (0.5, 0.5)))

    def test_markov_rejects_reducible_chain(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("markov", emissions=(0.1, 0.9),
                        transition=((1.0, 0.0), (0.0, 1.0)))

    def test_markov_rejects_periodic_chain(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("markov", emissions=(0.1, 0.9),
                        transition=((0.0, 1.0), (1.0, 0.0)))

    def test_ar1_domain(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("ar1", a=1.0, sigma=0.1)
        with pytest.raises(RejectedInputError):
            ProcessSpec("ar1", a=0.5, sigma=-0.1)

    def test_unknown_kind(self):
        with pytest.raises(RejectedInputError):
            ProcessSpec("garch")

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "ar1", "a": 0.5, "sigma": float("nan")}, "must be finite"),
        ({"kind": "ar1", "a": 0.5, "sigma": float("inf")}, "must be finite"),
        ({"kind": "ar1", "a": float("nan"), "sigma": 0.1}, "must be finite"),
        ({"kind": "iid", "support": [0.2, float("nan")], "probs": [0.5, 0.5]}, "must be finite"),
        ({"kind": "iid", "support": [0.2, 0.8], "probs": [float("nan"), 0.5]}, "must be finite"),
        ({"kind": "markov", "emissions": [0.1, 0.9],
          "transition": [[0.5, 0.5], [float("nan"), 0.5]]}, "must be finite"),
        ({"kind": "markov", "emissions": [0.1, float("inf")],
          "transition": [[0.5, 0.5], [0.5, 0.5]]}, "must be finite"),
        ({"a": 0.5, "sigma": 0.1}, "has no 'kind'"),
        ({"kind": "markov", "emissions": [0.1, 0.9]}, "has no 'transition'"),
        ({"kind": "markov", "emissions": [0.1, 0.9], "transition": [[0.5, 0.5], 1.0]},
         "list of rows"),
        ({"kind": "markov", "emissions": [0.1, 0.9], "transition": [[0.5, 0.5], [1.0]]},
         "must be numbers"),
        ({"kind": "iid", "support": "ab", "probs": [0.5, 0.5]}, "'support' must be a list"),
        ({"kind": "iid", "support": [[0.2], [0.8]], "probs": [0.5, 0.5]},
         "matching support and probs"),
        ({"kind": "iid", "support": ["0.25", "0.75"], "probs": [0.5, 0.5]}, "must be numbers"),
        ({"kind": "iid", "support": [0.25, 0.75], "probs": [True, False]}, "must be numbers"),
        ({"kind": "ar1", "a": "x", "sigma": 0.1}, "'a' must be a number"),
        ({"kind": "ar1", "a": 0.5, "sigma": 0.1, "seed": "5"}, "'seed' must be an integer"),
        ({"kind": "ar1", "a": 0.5, "sigma": 0.1, "seed": -1}, "seed must be an integer >= 0"),
        ([{"kind": "ar1"}], "process spec must be an object"),
    ])
    def test_from_dict_rejects(self, spec, message):
        with pytest.raises(RejectedInputError, match=message):
            ProcessSpec.from_dict(spec)

    def test_dict_round_trip(self):
        for spec in (STICKY,
                     ProcessSpec("iid", seed=3, support=(0.0, 0.5, 1.0),
                                 probs=(0.25, 0.5, 0.25)),
                     ProcessSpec("ar1", seed=4, a=0.6, sigma=0.1)):
            assert ProcessSpec.from_dict(spec.to_dict()) == spec


class TestGeneration:
    def test_point_mass_is_constant(self):
        spec = ProcessSpec("iid", seed=1, support=(0.5,), probs=(1.0,))
        assert np.all(generate(spec, 50) == 0.5)

    def test_seed_determinism(self):
        for spec in (STICKY, ProcessSpec("ar1", seed=9, a=0.7, sigma=0.15)):
            assert np.array_equal(generate(spec, 300), generate(spec, 300))

    def test_different_seeds_differ(self):
        a = generate(ProcessSpec("ar1", seed=1, a=0.5, sigma=0.2), 100)
        b = generate(ProcessSpec("ar1", seed=2, a=0.5, sigma=0.2), 100)
        assert not np.array_equal(a, b)

    def test_values_stay_in_unit_interval(self):
        y, info = generate_with_info(ProcessSpec("ar1", seed=5, a=0.9, sigma=0.4), 2000)
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert info["clip_rate"] > 0.0

    def test_quiet_ar1_is_constant_half(self):
        y, info = generate_with_info(ProcessSpec("ar1", seed=5, a=0.3, sigma=0.0), 20)
        assert np.all(y == 0.5)
        assert info["clip_rate"] == 0.0

    def test_rng_identifier_reported(self):
        _, info = generate_with_info(STICKY, 10)
        assert info["rng"] == "pcg64"

    def test_bad_horizon(self):
        with pytest.raises(RejectedInputError):
            generate(STICKY, 0)

    def test_markov_emits_only_declared_values(self):
        y = generate(STICKY, 500)
        assert set(np.unique(y)) <= {0.25, 0.75}

    def test_markov_survives_the_largest_draw(self, monkeypatch):
        top = math.nextafter(1.0, 0.0)  # the largest value rng.random() returns
        assert np.cumsum(BENCH_CHAIN["transition"][0])[-1] <= top  # no state left above

        class PinnedRng:
            def random(self, size):
                return np.full(size, top)

            def choice(self, n, p):
                return 0

        monkeypatch.setattr(processes.np.random, "default_rng", lambda seed: PinnedRng())
        y = generate(ProcessSpec("markov", seed=3, **BENCH_CHAIN), 5)
        assert y.tolist() == [0.9] * 5  # the last state, from every state

    @pytest.mark.parametrize("seed, digest", [
        (1, "eef4057caf68ee5d7f251721d8d6764ddd0a86098f387d26326fde364e50629e"),
        (801, "ade3ab6b45a33004004343975b8d8402d1609b4117d869273f0fac2217de8968"),
    ])
    def test_markov_series_bytes_are_pinned(self, seed, digest):
        # taken from np.searchsorted draws: bisect must walk the same states
        y = generate(ProcessSpec("markov", seed=seed, **BENCH_CHAIN), 6000)
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest


class TestStationary:
    def test_symmetric_chain_is_half_half(self):
        pi = stationary_distribution(((0.9, 0.1), (0.1, 0.9)))
        assert np.abs(pi - 0.5).max() <= 1e-12

    def test_fixed_point_property(self):
        P = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.25, 0.25, 0.5]])
        pi = stationary_distribution(P)
        assert np.abs(pi @ P - pi).max() <= 1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empirical_frequencies_converge(self):
        # mixing chain: binomial three-sigma bands hold at T = 1e5
        spec = ProcessSpec("markov", seed=11, emissions=(0.2, 0.8),
                           transition=((0.6, 0.4), (0.4, 0.6)))
        T = 100_000
        y = generate(spec, T)
        for value, target in ((0.2, 0.5), (0.8, 0.5)):
            freq = float(np.mean(y == value))
            band = 3.0 * math.sqrt(target * (1 - target) / T)
            assert abs(freq - target) <= band


class TestLossFloor:
    def test_point_mass_floor_is_zero(self):
        spec = ProcessSpec("iid", seed=1, support=(0.5,), probs=(1.0,))
        assert minimal_expected_loss(spec, ABS) == pytest.approx(0.0, abs=1e-9)

    def test_sticky_chain_floor(self):
        # verified against a numeric scan: per-state best constant sits on
        # the likelier emission and pays 0.5 * 0.1 on the other branch
        assert minimal_expected_loss(STICKY, ABS) == pytest.approx(0.05, abs=1e-9)

    def test_sticky_chain_floor_matches_grid_scan(self):
        P = np.array(STICKY.transition)
        em = np.array(STICKY.emissions)
        grid = np.linspace(0.0, 1.0, 20001)
        total = 0.0
        for s in range(2):
            exp_loss = sum(P[s, k] * np.abs(grid - em[k]) for k in range(2))
            total += 0.5 * exp_loss.min()
        assert minimal_expected_loss(STICKY, ABS) == pytest.approx(total, abs=1e-8)

    def test_coin_flip_floor_is_half(self):
        spec = ProcessSpec("iid", seed=1, support=(0.0, 1.0), probs=(0.5, 0.5))
        assert minimal_expected_loss(spec, ABS) == pytest.approx(0.5, abs=1e-9)

    def test_repeated_emissions_rejected(self):
        # two states emit 0, so one observation no longer reveals the state:
        # the per-state formula would claim the floor of emissions (0, 0.5, 1)
        spec = ProcessSpec("markov", seed=1, emissions=(0.0, 0.0, 1.0),
                           transition=((0.1, 0.9, 0.0), (0.0, 0.1, 0.9), (0.9, 0.0, 0.1)))
        with pytest.raises(RejectedInputError, match="repeat"):
            minimal_expected_loss(spec, ABS)
        assert len(generate(spec, 50)) == 50  # such a chain still generates

    def test_ar1_unsupported(self):
        with pytest.raises(RejectedInputError):
            minimal_expected_loss(ProcessSpec("ar1", a=0.5, sigma=0.1), ABS)

    def test_floor_lower_bounds_online_forecasters(self):
        # no strategy can average below the floor (up to sampling noise)
        T = 100_000
        y = generate(STICKY, T)
        floor = minimal_expected_loss(STICKY, ABS)
        tracker = eg.EgTracker(ABS)
        cum_eg = 0.0
        for v in y:
            p = tracker.predict()
            cum_eg += ABS.value(p, float(v))
            tracker.update(float(v))
        cum_const = float(np.abs(y - 0.5).sum())
        assert cum_eg / T >= floor - 0.02
        assert cum_const / T >= floor - 0.02
