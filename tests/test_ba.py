"""Unit tests for Algorithm BA and BA' (Figure 3, Lemmas 4-6, Theorem 7)."""

import numpy as np
import pytest

from repro.core import (
    ba_bound,
    ba_final_weights,
    ba_split,
    ba_step_bound,
    run_ba,
    run_ba_prime,
)
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha

from conftest import assert_valid_partition


def brute_force_split(w1, w2, n):
    """Optimal n1 over ALL admissible values (not just floor/ceil)."""
    best, best_cost = None, float("inf")
    for n1 in range(1, n):
        cost = max(w1 / n1, w2 / (n - n1))
        if cost < best_cost - 1e-15:
            best, best_cost = n1, cost
    return best_cost


class TestBASplit:
    def test_sum_and_positivity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w2 = rng.uniform(0.01, 0.5)
            w1 = 1.0 - w2
            n = int(rng.integers(2, 50))
            n1, n2 = ba_split(w1, w2, n)
            assert n1 + n2 == n
            assert n1 >= 1 and n2 >= 1

    def test_optimal_among_all_splits(self):
        # Lemma 4's proof relies on floor/ceil of eta being globally optimal
        # for the max(w1/n1, w2/n2) objective; verify against brute force.
        rng = np.random.default_rng(1)
        for _ in range(300):
            w2 = rng.uniform(0.001, 0.5)
            w1 = 1.0 - w2
            n = int(rng.integers(2, 40))
            n1, n2 = ba_split(w1, w2, n)
            cost = max(w1 / n1, w2 / n2)
            assert cost == pytest.approx(brute_force_split(w1, w2, n))

    def test_even_split(self):
        assert ba_split(0.5, 0.5, 10) == (5, 5)

    def test_n_two_always_one_one(self):
        assert ba_split(0.99, 0.01, 2) == (1, 1)

    def test_heavy_side_gets_more(self):
        n1, n2 = ba_split(0.9, 0.1, 10)
        assert n1 > n2

    def test_lemma4_step_bound_holds(self):
        # max(w1/n1, w2/n2) <= w/(n-1)
        rng = np.random.default_rng(2)
        for _ in range(300):
            w2 = rng.uniform(0.001, 0.5)
            w1 = 1.0 - w2
            n = int(rng.integers(2, 60))
            n1, n2 = ba_split(w1, w2, n)
            assert max(w1 / n1, w2 / n2) <= ba_step_bound(1.0, n) + 1e-12

    def test_rejects_reversed_weights(self):
        with pytest.raises(ValueError):
            ba_split(0.1, 0.9, 4)

    def test_rejects_single_processor(self):
        with pytest.raises(ValueError):
            ba_split(0.6, 0.4, 1)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ba_split(0.6, 0.0, 4)


class TestRunBA:
    def test_single_processor(self, synthetic_problem):
        part = run_ba(synthetic_problem, 1)
        assert len(part.pieces) == 1
        assert part.num_bisections == 0

    def test_piece_count_and_bisections(self, synthetic_problem):
        for n in (2, 3, 9, 33, 64):
            p = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=n)
            part = run_ba(p, n)
            assert len(part.pieces) == n
            assert part.num_bisections == n - 1

    def test_ranges_partition_processors(self, synthetic_problem):
        part = run_ba(synthetic_problem, 25)
        ranges = part.meta["ranges"]
        covered = []
        for i, j in ranges:
            assert i <= j
            covered.extend(range(i, j + 1))
        assert sorted(covered) == list(range(1, 26))
        # plain BA assigns exactly one processor per piece
        assert all(i == j for i, j in ranges)

    def test_ratio_within_theorem7_bound(self, wide_sampler):
        for seed in range(5):
            p = SyntheticProblem(1.0, wide_sampler, seed=seed)
            part = run_ba(p, 128)
            assert part.ratio <= ba_bound(wide_sampler.alpha, 128) + 1e-9

    def test_perfect_balance_with_half_splits(self):
        p = SyntheticProblem(1.0, FixedAlpha(0.5), seed=0)
        part = run_ba(p, 64)
        assert part.ratio == pytest.approx(1.0)

    def test_tree_depth_logarithmic(self):
        # Section 3.2: depth <= log_{1/(1-alpha/2)} N; for alpha-hat >= 0.1
        # and N = 256 that is ~108, but typical depth is near log2 N.
        p = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=0)
        part = run_ba(p, 256, record_tree=True)
        assert part.meta["depth"] == part.tree.height
        assert part.tree.height < 108

    def test_does_not_need_alpha(self):
        # BA must work on problems that do not declare alpha (the paper
        # notes BA needs no knowledge of alpha).
        from conftest import assert_valid_partition as avp
        from repro.problems import ListProblem

        lp = ListProblem.uniform(256, seed=1)
        assert lp.alpha is None
        avp(run_ba(lp, 16), 16)

    def test_partition_is_valid(self, synthetic_problem):
        assert_valid_partition(run_ba(synthetic_problem, 20), 20, total=1.0)

    def test_deterministic(self, uniform_sampler):
        w1 = run_ba(SyntheticProblem(1.0, uniform_sampler, seed=3), 30).weights
        w2 = run_ba(SyntheticProblem(1.0, uniform_sampler, seed=3), 30).weights
        assert w1 == pytest.approx(w2)


class TestRunBAPrime:
    def test_skips_below_threshold(self, synthetic_problem):
        part = run_ba_prime(synthetic_problem, 64, skip_threshold=0.1)
        # no piece above threshold unless it owns a single processor
        for piece, (i, j) in zip(part.pieces, part.meta["ranges"]):
            if j - i + 1 > 1:
                assert piece.weight <= 0.1 + 1e-12

    def test_huge_threshold_means_no_bisection(self, synthetic_problem):
        part = run_ba_prime(synthetic_problem, 16, skip_threshold=10.0)
        assert len(part.pieces) == 1
        assert part.num_bisections == 0
        assert part.meta["free_processors"] == list(range(2, 17))

    def test_tiny_threshold_equals_ba(self):
        p1 = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=4)
        p2 = SyntheticProblem(1.0, UniformAlpha(0.1, 0.5), seed=4)
        ba = run_ba(p1, 32)
        bap = run_ba_prime(p2, 32, skip_threshold=1e-12)
        assert sorted(bap.weights) == pytest.approx(sorted(ba.weights))

    def test_free_processors_consistent(self, synthetic_problem):
        part = run_ba_prime(synthetic_problem, 64, skip_threshold=0.05)
        busy = {i for i, _ in part.meta["ranges"]}
        free = set(part.meta["free_processors"])
        assert busy.isdisjoint(free)
        assert busy | free == set(range(1, 65))

    def test_rejects_bad_threshold(self, synthetic_problem):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="skip_threshold"):
                run_ba_prime(synthetic_problem, 8, skip_threshold=bad)


class TestBAFinalWeights:
    def test_matches_object_api_fixed_alpha(self):
        n = 23
        p = SyntheticProblem(1.0, FixedAlpha(0.35), seed=0)
        obj = sorted(run_ba(p, n).weights)
        fast = sorted(ba_final_weights(1.0, n, np.full(n - 1, 0.35)))
        assert fast == pytest.approx(obj)

    def test_weight_conservation(self):
        rng = np.random.default_rng(5)
        w = ba_final_weights(4.0, 50, rng.uniform(0.1, 0.5, size=49))
        assert w.sum() == pytest.approx(4.0)
        assert len(w) == 50

    def test_draws_above_half_normalised(self):
        # a sloppy row holding shares > 1/2 must not break the
        # heavier-first invariant
        w = ba_final_weights(1.0, 8, np.full(7, 0.7))
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()
