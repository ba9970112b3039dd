"""Unit tests for the Monte-Carlo trial machinery and the row oracles."""

import numpy as np
import pytest

from repro.core import (
    ba_final_weights,
    bahf_final_weights,
    bound_for,
    hf_final_weights,
    run_ba,
    run_bahf,
    run_hf,
)
from repro.core.problem import normalize_algorithm
from repro.experiments.stochastic import draw_rows, sample_ratios, trial_ratios
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha


def _row(algorithm, n, sampler, seed):
    """Trial 0's draw row, as every sweep builds it."""
    rows = draw_rows(
        algorithm, n, sampler, seed=seed, start=0, stop=1, n_draws=max(0, n - 1)
    )
    return rows[0]


def _oracle(algorithm, n, row, *, alpha, lam=1.0):
    """The scalar row oracle for ``algorithm`` (PHF is HF, Theorem 3)."""
    key = normalize_algorithm(algorithm)
    if key in ("hf", "phf"):
        return hf_final_weights(1.0, n, row)
    if key == "ba":
        return ba_final_weights(1.0, n, row)
    return bahf_final_weights(1.0, n, row, alpha=alpha, lam=lam)


def _trial_ratio(algorithm, n, sampler, seed, *, lam=1.0):
    """One trial's ratio: the row oracle on its ``draw_rows`` row."""
    row = _row(algorithm, n, sampler, seed)
    weights = _oracle(algorithm, n, row, alpha=sampler.alpha, lam=lam)
    return float(weights.max() * n)


ORACLES = ("hf", "ba", "bahf")


class TestRowOracles:
    @pytest.mark.parametrize("algorithm", ORACLES)
    def test_accepts_ndarray_row(self, algorithm):
        row = np.random.default_rng(1).uniform(0.1, 0.5, size=30)
        weights = _oracle(algorithm, 31, row, alpha=0.1)
        assert weights.shape == (31,)
        assert weights.sum() == pytest.approx(1.0)
        # a list of the same values gives the same weights
        assert np.array_equal(
            weights, _oracle(algorithm, 31, row.tolist(), alpha=0.1)
        )

    @pytest.mark.parametrize("algorithm", ORACLES)
    def test_short_row_rejected(self, algorithm):
        with pytest.raises(ValueError, match="need 15 alpha draws, got 14"):
            _oracle(algorithm, 16, np.full(14, 0.3), alpha=0.3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("column", [0, 7, 14])
    @pytest.mark.parametrize("algorithm", ORACLES)
    def test_nonfinite_used_draw_rejected(self, algorithm, column, bad):
        row = np.full(15, 0.3)
        row[column] = bad
        with pytest.raises(ValueError, match="alpha draws must be finite"):
            _oracle(algorithm, 16, row, alpha=0.3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("algorithm", ORACLES)
    def test_nonfinite_past_used_columns_ignored(self, algorithm, bad):
        row = np.random.default_rng(2).uniform(0.1, 0.5, size=20)
        padded = row.copy()
        padded[15:] = bad
        expected = _oracle(algorithm, 16, row[:15], alpha=0.1)
        assert np.array_equal(_oracle(algorithm, 16, padded, alpha=0.1), expected)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_bahf_reads_hf_jobs_at_dfs_offsets(self, lam):
        # with a threshold above N the whole row is one HF job; with
        # threshold 2 (tiny lambda) BA-HF is BA on the same row
        row = np.random.default_rng(3).uniform(0.25, 0.5, size=40)
        assert np.array_equal(
            bahf_final_weights(1.0, 41, row, alpha=0.25, lam=100.0 * lam),
            hf_final_weights(1.0, 41, row),
        )
        assert np.array_equal(
            bahf_final_weights(1.0, 41, row, alpha=0.5, lam=0.01 * lam),
            ba_final_weights(1.0, 41, row),
        )


class TestTrialRatio:
    @pytest.mark.parametrize("algorithm", ["hf", "phf", "ba", "bahf"])
    def test_ratio_at_least_one(self, algorithm):
        r = _trial_ratio(algorithm, 64, UniformAlpha(0.1, 0.5), seed=0)
        assert r >= 1.0 - 1e-12

    @pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf"])
    def test_ratio_within_worst_case(self, algorithm):
        sampler = UniformAlpha(0.05, 0.5)
        for seed in range(10):
            r = _trial_ratio(algorithm, 128, sampler, seed=seed)
            assert r <= bound_for(algorithm, sampler.alpha, 128) + 1e-9

    def test_phf_aliases_hf(self):
        # a PHF trial is HF on PHF's own row
        sampler = UniformAlpha(0.1, 0.5)
        row = _row("phf", 64, sampler, seed=3)
        ratio = trial_ratios("phf", 64, sampler, n_trials=1, seed=3)[0]
        assert ratio == pytest.approx(hf_final_weights(1.0, 64, row).max() * 64)

    def test_perfect_balance_power_of_two(self):
        for algo in ("hf", "ba", "bahf"):
            r = _trial_ratio(algo, 64, FixedAlpha(0.5), seed=0)
            assert r == pytest.approx(1.0)

    def test_hf_exact_small_case(self):
        # fixed 0.5 splits, N=3: pieces 1/2, 1/4, 1/4 -> ratio 1.5
        r = _trial_ratio("hf", 3, FixedAlpha(0.5), seed=0)
        assert r == pytest.approx(1.5)

    def test_matches_object_api_fixed_alpha(self):
        # the row oracles and the object API agree on deterministic classes
        n, a = 41, 0.3
        fast = _trial_ratio("hf", n, FixedAlpha(a), seed=0)
        obj = run_hf(SyntheticProblem(1.0, FixedAlpha(a), seed=0), n).ratio
        assert fast == pytest.approx(obj)
        fast_ba = _trial_ratio("ba", n, FixedAlpha(a), seed=0)
        obj_ba = run_ba(SyntheticProblem(1.0, FixedAlpha(a), seed=0), n).ratio
        assert fast_ba == pytest.approx(obj_ba)
        fast_bahf = _trial_ratio("bahf", n, FixedAlpha(a), seed=0, lam=1.0)
        obj_bahf = run_bahf(
            SyntheticProblem(1.0, FixedAlpha(a), seed=0), n, lam=1.0
        ).ratio
        assert fast_bahf == pytest.approx(obj_bahf)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            trial_ratios("lpt", 8, UniformAlpha(0.1, 0.5), n_trials=1, seed=0)

    def test_single_processor_ratio_one(self):
        r = _trial_ratio("hf", 1, UniformAlpha(0.1, 0.5), seed=0)
        assert r == pytest.approx(1.0)


class TestTrialRatios:
    def test_reproducible(self):
        kw = dict(n_trials=20, seed=42)
        a = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), **kw)
        b = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), **kw)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), n_trials=10, seed=1)
        b = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), n_trials=10, seed=2)
        assert not np.array_equal(a, b)

    def test_cells_use_independent_streams(self):
        # different (algorithm, n) cells with the same seed must not share
        # trial streams
        a = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), n_trials=10, seed=1)
        b = trial_ratios("hf", 128, UniformAlpha(0.1, 0.5), n_trials=10, seed=1)
        assert not np.array_equal(a, b)

    def test_shape(self):
        out = trial_ratios("ba", 32, UniformAlpha(0.1, 0.5), n_trials=13, seed=0)
        assert out.shape == (13,)
        assert (out >= 1.0 - 1e-12).all()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            trial_ratios("hf", 8, UniformAlpha(0.1, 0.5), n_trials=0, seed=0)


class TestSampleRatios:
    def test_summary_consistent_with_trials(self):
        kw = dict(n_trials=50, seed=9)
        raw = trial_ratios("hf", 64, UniformAlpha(0.1, 0.5), **kw)
        summary = sample_ratios("hf", 64, UniformAlpha(0.1, 0.5), **kw)
        assert summary.mean == pytest.approx(raw.mean())
        assert summary.minimum == pytest.approx(raw.min())
        assert summary.maximum == pytest.approx(raw.max())
        assert summary.n_trials == 50
