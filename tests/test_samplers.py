"""Unit tests for the alpha-hat samplers."""

import numpy as np
import pytest

from repro.problems import BetaAlpha, DiscreteAlpha, FixedAlpha, UniformAlpha


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestUniformAlpha:
    def test_support_bounds(self, rng):
        s = UniformAlpha(0.1, 0.4)
        draws = s.sample_many(rng, 5000)
        assert draws.min() >= 0.1
        assert draws.max() <= 0.4
        assert s.alpha == 0.1 and s.beta == 0.4

    def test_mean_near_midpoint(self, rng):
        draws = UniformAlpha(0.2, 0.4).sample_many(rng, 20000)
        assert draws.mean() == pytest.approx(0.3, abs=0.005)

    def test_single_draw_in_range(self, rng):
        s = UniformAlpha(0.05, 0.5)
        for _ in range(100):
            assert 0.05 <= s.sample(rng) <= 0.5

    def test_degenerate_interval(self, rng):
        s = UniformAlpha(0.3, 0.3)
        assert s.sample(rng) == pytest.approx(0.3)

    def test_describe(self):
        assert UniformAlpha(0.1, 0.5).describe() == "U[0.1,0.5]"

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.5), (0.1, 0.6), (0.4, 0.2), (-0.1, 0.3)])
    def test_invalid_intervals(self, lo, hi):
        with pytest.raises(ValueError):
            UniformAlpha(lo, hi)

    def test_hashable_and_equal(self):
        assert UniformAlpha(0.1, 0.5) == UniformAlpha(0.1, 0.5)
        assert hash(UniformAlpha(0.1, 0.5)) == hash(UniformAlpha(0.1, 0.5))


class TestFixedAlpha:
    def test_always_same_value(self, rng):
        s = FixedAlpha(0.25)
        assert s.sample(rng) == 0.25
        assert (s.sample_many(rng, 100) == 0.25).all()
        assert s.alpha == s.beta == 0.25

    def test_describe(self):
        assert "0.25" in FixedAlpha(0.25).describe()

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            FixedAlpha(0.75)


class TestBetaAlpha:
    def test_support_bounds(self, rng):
        s = BetaAlpha(2.0, 5.0, low=0.1, high=0.4)
        draws = s.sample_many(rng, 5000)
        assert draws.min() >= 0.1
        assert draws.max() <= 0.4

    def test_skew_direction(self, rng):
        # a<b skews towards low end
        left = BetaAlpha(1.0, 4.0, low=0.1, high=0.5).sample_many(rng, 10000)
        right = BetaAlpha(4.0, 1.0, low=0.1, high=0.5).sample_many(rng, 10000)
        assert left.mean() < right.mean()

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            BetaAlpha(0.0, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            BetaAlpha(1.0, 1.0, low=0.4, high=0.2)


class TestDiscreteAlpha:
    def test_uniform_default_probabilities(self, rng):
        s = DiscreteAlpha(values=(0.1, 0.3, 0.5))
        draws = s.sample_many(rng, 3000)
        assert set(np.unique(draws)).issubset({0.1, 0.3, 0.5})
        assert s.alpha == 0.1 and s.beta == 0.5

    def test_explicit_probabilities(self, rng):
        s = DiscreteAlpha(values=(0.2, 0.4), probabilities=(0.9, 0.1))
        draws = s.sample_many(rng, 5000)
        assert (draws == 0.2).mean() > 0.8

    def test_zero_probability_excluded_from_support(self):
        s = DiscreteAlpha(values=(0.1, 0.3), probabilities=(0.0, 1.0))
        assert s.alpha == 0.3
        assert s.beta == 0.3

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DiscreteAlpha(values=(0.1, 0.2), probabilities=(0.5, 0.6))
        with pytest.raises(ValueError):
            DiscreteAlpha(values=(0.1, 0.2), probabilities=(1.0,))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            DiscreteAlpha(values=())

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            DiscreteAlpha(values=(0.7,))


class TestBatchedSamplerApi:
    SAMPLERS = [
        UniformAlpha(0.01, 0.5),
        FixedAlpha(0.3),
        BetaAlpha(2.0, 5.0),
        DiscreteAlpha((0.2, 0.35, 0.5)),
    ]

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.describe())
    def test_trial_matrix_rows_match_per_trial_streams(self, sampler):
        rngs = [np.random.default_rng(seed) for seed in (5, 6, 7)]
        matrix = sampler.sample_trial_matrix(rngs, 9)
        assert matrix.shape == (3, 9) and matrix.dtype == np.float64
        for row, seed in zip(matrix, (5, 6, 7)):
            expected = sampler.sample_many(np.random.default_rng(seed), 9)
            np.testing.assert_array_equal(row, expected)

    def test_trial_matrix_zero_draws(self):
        matrix = UniformAlpha(0.1, 0.5).sample_trial_matrix(
            [np.random.default_rng(0)], 0
        )
        assert matrix.shape == (1, 0)

    def test_trial_matrix_rejects_bad_args(self):
        sampler = UniformAlpha(0.1, 0.5)
        with pytest.raises(ValueError):
            sampler.sample_trial_matrix([], 4)
        with pytest.raises(ValueError):
            sampler.sample_trial_matrix([np.random.default_rng(0)], -1)
