"""Unit tests for Algorithm PHF (Figure 2, Theorem 3).

The headline property -- PHF produces *exactly* the partition of
sequential HF -- is tested here for the logical implementation and in
``test_simulated_algorithms.py`` for the machine simulation.
"""

import pytest

from repro.core import (
    phf_phase1_max_depth,
    phf_phase2_max_iterations,
    phf_threshold,
    r_alpha,
    run_hf,
    run_phf,
)
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha


class TestThreshold:
    def test_formula(self):
        assert phf_threshold(2.0, 0.1, 10) == pytest.approx(2.0 * r_alpha(0.1) / 10)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            phf_threshold(0.0, 0.1, 10)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            phf_threshold(1.0, 0.1, 0)


class TestPHFEqualsHF:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 200, 256])
    def test_same_partition_synthetic(self, n):
        sampler = UniformAlpha(0.1, 0.5)
        p1 = SyntheticProblem(1.0, sampler, seed=1000 + n)
        p2 = SyntheticProblem(1.0, sampler, seed=1000 + n)
        assert run_phf(p1, n).same_pieces_as(run_hf(p2, n))

    @pytest.mark.parametrize("seed", range(8))
    def test_same_partition_wide_interval(self, seed):
        sampler = UniformAlpha(0.01, 0.5)
        p1 = SyntheticProblem(1.0, sampler, seed=seed)
        p2 = SyntheticProblem(1.0, sampler, seed=seed)
        assert run_phf(p1, 100).same_pieces_as(run_hf(p2, 100))

    def test_same_partition_fixed_alpha(self):
        p1 = SyntheticProblem(1.0, FixedAlpha(0.25), seed=0)
        p2 = SyntheticProblem(1.0, FixedAlpha(0.25), seed=0)
        assert run_phf(p1, 48).same_pieces_as(run_hf(p2, 48))

    def test_same_partition_list_problem(self):
        from repro.problems import ListProblem

        # random-pivot lists: alpha guarantee derived from element count
        p1 = ListProblem.uniform(4096, seed=5)
        p2 = ListProblem.uniform(4096, seed=5)
        phf = run_phf(p1, 16, alpha=1 / 4096)
        hf = run_hf(p2, 16)
        assert phf.same_pieces_as(hf)


class TestPHFStructure:
    def test_total_bisections(self, synthetic_problem):
        part = run_phf(synthetic_problem, 64)
        assert part.num_bisections == 63
        assert (
            part.meta["phase1_bisections"] + part.meta["phase2_bisections"] == 63
        )

    def test_phase1_leaves_below_threshold(self, uniform_sampler):
        p = SyntheticProblem(1.0, uniform_sampler, seed=2)
        part = run_phf(p, 64)
        threshold = part.meta["threshold"]
        # final pieces are all at most the phase-1 threshold (Theorem 2)
        assert max(part.weights) <= threshold + 1e-12

    def test_round_counts_within_paper_bounds(self):
        sampler = UniformAlpha(0.1, 0.5)
        alpha = sampler.alpha
        for n in (32, 128, 512):
            p = SyntheticProblem(1.0, sampler, seed=n)
            part = run_phf(p, n)
            assert part.meta["phase1_rounds"] <= phf_phase1_max_depth(alpha, n)
            assert part.meta["phase2_rounds"] <= phf_phase2_max_iterations(alpha)

    def test_band_sizes_recorded(self, synthetic_problem):
        part = run_phf(synthetic_problem, 64)
        assert len(part.meta["band_sizes"]) == part.meta["phase2_rounds"]
        assert all(h >= 1 for h in part.meta["band_sizes"])

    def test_single_processor(self, synthetic_problem):
        part = run_phf(synthetic_problem, 1)
        assert len(part.pieces) == 1
        assert part.meta["phase1_rounds"] == 0
        assert part.meta["phase2_rounds"] == 0

    def test_two_processors(self, uniform_sampler):
        p = SyntheticProblem(1.0, uniform_sampler, seed=3)
        part = run_phf(p, 2)
        assert len(part.pieces) == 2

    def test_tree_recording(self, synthetic_problem):
        part = run_phf(synthetic_problem, 32, record_tree=True)
        part.validate()
        assert part.tree.num_leaves == 32


class TestPHFErrors:
    def test_requires_alpha(self):
        from repro.problems import ListProblem

        lp = ListProblem.uniform(64, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            run_phf(lp, 8)

    def test_invalid_alpha_guarantee_detected(self):
        # claim alpha = 0.4 for a class that actually produces 0.1-splits:
        # the checked bisection must raise, not silently mis-balance
        p = SyntheticProblem(1.0, FixedAlpha(0.1), seed=0)
        with pytest.raises(ValueError, match="guarantee|processors"):
            run_phf(p, 64, alpha=0.4)

    def test_rejects_zero_processors(self, synthetic_problem):
        with pytest.raises(ValueError):
            run_phf(synthetic_problem, 0)
