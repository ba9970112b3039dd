"""Unit tests for Algorithm BA-HF (Figure 4, Theorem 8)."""

import numpy as np
import pytest

from repro.core import (
    bahf_bound,
    bahf_final_weights,
    bahf_final_weights_batch,
    bahf_threshold,
    run_ba,
    run_bahf,
    run_hf,
)
from repro.experiments import StochasticConfig
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha
from repro.simulator import fastpath_counters, simulate_bahf

from conftest import assert_valid_partition


class TestThreshold:
    def test_formula(self):
        assert bahf_threshold(0.1, 1.0) == pytest.approx(11.0)
        assert bahf_threshold(0.5, 2.0) == pytest.approx(5.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            bahf_threshold(0.1, 0.0)

    @pytest.mark.parametrize(
        "entry",
        ["run_bahf", "simulate_bahf", "frontier", "native", "fastpath", "config"],
    )
    def test_nan_lambda_rejected_by_every_entry_point(self, entry):
        nan = float("nan")
        draws = np.full((2, 7), 0.3)

        def problem():
            return SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=0)

        calls = {
            "run_bahf": lambda: run_bahf(problem(), 8, lam=nan),
            "simulate_bahf": lambda: simulate_bahf(problem(), 8, lam=nan),
            "frontier": lambda: bahf_final_weights_batch(
                1.0, 8, draws, alpha=0.1, lam=nan, method="frontier"
            ),
            "native": lambda: bahf_final_weights_batch(
                1.0, 8, draws, alpha=0.1, lam=nan, method="native"
            ),
            "fastpath": lambda: fastpath_counters(
                "bahf", 8, draws, alpha=0.1, lam=nan
            ),
            "config": lambda: StochasticConfig(lam=nan),
        }
        with pytest.raises(ValueError, match="must be positive, got nan"):
            calls[entry]()

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            bahf_threshold(0.0, 1.0)


class TestRunBAHF:
    def test_piece_count(self, synthetic_problem):
        for n in (1, 2, 7, 32, 100):
            p = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=n)
            part = run_bahf(p, n, lam=1.0)
            assert len(part.pieces) == n
            assert part.num_bisections == n - 1

    def test_equals_hf_when_threshold_huge(self, uniform_sampler):
        # N < lambda/alpha + 1 at the root => pure HF
        p1 = SyntheticProblem(1.0, uniform_sampler, seed=9)
        p2 = SyntheticProblem(1.0, uniform_sampler, seed=9)
        bahf = run_bahf(p1, 32, lam=1e6)
        hf = run_hf(p2, 32)
        assert bahf.same_pieces_as(hf)
        assert bahf.meta["ba_bisections"] == 0

    def test_equals_ba_when_lambda_below_alpha(self, uniform_sampler):
        # threshold = lam/alpha + 1 <= 2 means every n >= 2 takes a BA step
        alpha = uniform_sampler.alpha
        p1 = SyntheticProblem(1.0, uniform_sampler, seed=10)
        p2 = SyntheticProblem(1.0, uniform_sampler, seed=10)
        bahf = run_bahf(p1, 32, lam=alpha / 2)
        ba = run_ba(p2, 32)
        assert bahf.same_pieces_as(ba)
        assert bahf.meta["hf_bisections"] == 0

    def test_phases_partition_bisections(self, synthetic_problem):
        part = run_bahf(synthetic_problem, 64, lam=1.0)
        assert (
            part.meta["ba_bisections"] + part.meta["hf_bisections"]
            == part.num_bisections
        )
        assert part.meta["ba_bisections"] > 0
        assert part.meta["hf_bisections"] > 0

    def test_ratio_within_theorem8_bound(self, wide_sampler):
        for lam in (0.5, 1.0, 2.0):
            p = SyntheticProblem(1.0, wide_sampler, seed=11)
            part = run_bahf(p, 128, lam=lam)
            assert part.ratio <= bahf_bound(wide_sampler.alpha, 128, lam) + 1e-9

    def test_explicit_alpha_overrides(self, uniform_sampler):
        p = SyntheticProblem(1.0, uniform_sampler, seed=12)
        part = run_bahf(p, 16, alpha=0.2, lam=1.0)
        assert part.meta["alpha"] == pytest.approx(0.2)

    def test_requires_alpha(self):
        from repro.problems import ListProblem

        lp = ListProblem.uniform(64, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            run_bahf(lp, 8)

    def test_accepts_alpha_for_alpha_free_problem(self):
        from repro.problems import ListProblem

        lp = ListProblem.uniform(128, seed=0)
        part = run_bahf(lp, 8, alpha=0.1)
        assert_valid_partition(part, 8)

    def test_tree_recording(self, synthetic_problem):
        part = run_bahf(synthetic_problem, 32, record_tree=True)
        part.validate()
        assert part.tree.num_leaves == 32
        assert sorted(part.tree.leaf_weights()) == pytest.approx(
            sorted(part.weights)
        )

    def test_ba_leaf_ranges_cover_processors(self, synthetic_problem):
        part = run_bahf(synthetic_problem, 40, lam=1.0)
        covered = []
        for i, j in part.meta["ba_leaf_ranges"]:
            covered.extend(range(i, j + 1))
        assert sorted(covered) == list(range(1, 41))

    def test_lambda_improves_balance_on_average(self):
        # the paper's E1 claim, in miniature: larger lambda -> better ratio
        sampler = UniformAlpha(0.1, 0.5)
        means = []
        for lam in (1.0, 3.0):
            ratios = [
                run_bahf(
                    SyntheticProblem(1.0, sampler, seed=100 + s), 128, lam=lam
                ).ratio
                for s in range(30)
            ]
            means.append(np.mean(ratios))
        assert means[1] < means[0]


class TestBAHFFinalWeights:
    def test_matches_object_api_fixed_alpha(self):
        n, a = 29, 0.3
        p = SyntheticProblem(1.0, FixedAlpha(a), seed=0)
        obj = sorted(run_bahf(p, n, lam=1.0).weights)
        fast = sorted(
            bahf_final_weights(1.0, n, np.full(n - 1, a), alpha=a, lam=1.0)
        )
        assert fast == pytest.approx(obj)

    def test_weight_conservation(self):
        rng = np.random.default_rng(6)
        w = bahf_final_weights(
            3.0, 70, rng.uniform(0.1, 0.5, size=69), alpha=0.1, lam=1.0
        )
        assert w.sum() == pytest.approx(3.0)
        assert len(w) == 70

    def test_rejects_bad_inputs(self):
        row = np.full(3, 0.3)
        with pytest.raises(ValueError):
            bahf_final_weights(0.0, 4, row, alpha=0.3)
        with pytest.raises(ValueError):
            bahf_final_weights(1.0, 0, row, alpha=0.3)
        with pytest.raises(ValueError):
            bahf_final_weights(1.0, 4, row, alpha=0.9)
