"""Tests for the simulated algorithm executions (hf/ba/bahf/phf on the machine).

The central claims, per the paper:

* every simulated run produces the same partition as the logical algorithm,
* HF's makespan is Θ(N); BA/BA-HF/PHF makespans are O(log N),
* BA uses exactly N-1 subproblem messages and zero collectives,
* PHF produces *HF's* partition (Theorem 3) under every phase-1 strategy
  and keep-child policy, paying O(log N) collectives per phase-2 round.
"""

import math

import pytest

from repro.core import run_ba, run_bahf, run_hf
from repro.problems import FixedAlpha, SyntheticProblem, UniformAlpha
from repro.simulator import (
    MachineConfig,
    SimulationError,
    simulate_ba,
    simulate_ba_prime,
    simulate_bahf,
    simulate_hf,
    simulate_phf,
)


def problem(seed=1, a=0.1, b=0.5):
    return SyntheticProblem(1.0, UniformAlpha(a, b), seed=seed)


class TestSimulateHF:
    def test_makespan_formula(self):
        # (N-1) bisections + (N-1) sends, all on P1
        res = simulate_hf(problem(), 16)
        assert res.parallel_time == pytest.approx(2 * 15)
        assert res.n_messages == 15
        assert res.n_collectives == 0

    def test_partition_matches_logical(self):
        res = simulate_hf(problem(2), 32)
        assert res.partition.same_pieces_as(run_hf(problem(2), 32))

    def test_single_processor(self):
        res = simulate_hf(problem(), 1)
        assert res.parallel_time == 0.0
        assert res.n_messages == 0

    def test_custom_costs(self):
        cfg = MachineConfig(t_bisect=2.0, t_send=3.0)
        res = simulate_hf(problem(), 8, config=cfg)
        assert res.parallel_time == pytest.approx(7 * 2 + 7 * 3)

    def test_phases_reported(self):
        res = simulate_hf(problem(), 8)
        assert res.phases["bisect"] == pytest.approx(7.0)
        assert res.phases["distribute"] == pytest.approx(7.0)


class TestSimulateBA:
    def test_partition_matches_logical(self):
        for n in (2, 9, 64):
            res = simulate_ba(problem(3), n)
            assert res.partition.same_pieces_as(run_ba(problem(3), n))

    def test_message_count_is_n_minus_one(self):
        for n in (2, 17, 128):
            assert simulate_ba(problem(4), n).n_messages == n - 1

    def test_no_collectives(self):
        assert simulate_ba(problem(5), 64).n_collectives == 0

    def test_makespan_logarithmic(self):
        # time(1024) should be far below linear growth from time(16)
        t16 = simulate_ba(problem(6), 16).parallel_time
        t1024 = simulate_ba(problem(6), 1024).parallel_time
        assert t1024 < t16 * (1024 / 16) / 4

    def test_makespan_at_least_log(self):
        res = simulate_ba(problem(7), 64)
        assert res.parallel_time >= math.log2(64)

    def test_single_processor(self):
        res = simulate_ba(problem(), 1)
        assert res.parallel_time == 0.0

    def test_ba_prime_threshold_respected(self):
        res = simulate_ba_prime(problem(8), 64, 0.08)
        for piece, (i, j) in zip(
            res.partition.pieces, res.partition.meta["ranges"]
        ):
            if j - i + 1 > 1:
                assert piece.weight <= 0.08 + 1e-12

    def test_ba_prime_rejects_bad_threshold(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="skip_threshold"):
                simulate_ba_prime(problem(), 8, bad)


class TestSimulateBAHF:
    def test_partition_matches_logical(self):
        for n in (2, 10, 100):
            res = simulate_bahf(problem(9), n, lam=1.0)
            assert res.partition.same_pieces_as(run_bahf(problem(9), n, lam=1.0))

    def test_message_count_is_n_minus_one(self):
        # every piece but the first travels exactly once
        assert simulate_bahf(problem(10), 64, lam=1.0).n_messages == 63

    def test_phases_sum_to_makespan(self):
        res = simulate_bahf(problem(11), 64, lam=1.0)
        assert res.phases["ba_phase"] + res.phases["hf_phase"] == pytest.approx(
            res.parallel_time
        )

    def test_makespan_logarithmic(self):
        t16 = simulate_bahf(problem(12), 16, lam=1.0).parallel_time
        t1024 = simulate_bahf(problem(12), 1024, lam=1.0).parallel_time
        assert t1024 < t16 * (1024 / 16) / 4

    def test_needs_alpha(self):
        from repro.problems import ListProblem

        with pytest.raises(ValueError, match="alpha"):
            simulate_bahf(ListProblem.uniform(64, seed=0), 8)

    def test_larger_lambda_longer_hf_tail(self):
        short = simulate_bahf(problem(13), 256, lam=0.5)
        long = simulate_bahf(problem(13), 256, lam=4.0)
        assert long.phases["hf_phase"] >= short.phases["hf_phase"]


class TestSimulatePHF:
    @pytest.mark.parametrize("phase1", ["central", "ba_prime"])
    @pytest.mark.parametrize("keep", ["heavy", "light"])
    def test_theorem3_partition_equals_hf(self, phase1, keep):
        for n in (2, 16, 100):
            res = simulate_phf(problem(14), n, phase1=phase1, keep=keep)
            assert res.partition.same_pieces_as(run_hf(problem(14), n)), (
                phase1,
                keep,
                n,
            )

    def test_collectives_charged(self):
        res = simulate_phf(problem(15), 64)
        assert res.n_collectives >= 2  # barrier + numbering at minimum
        assert res.collective_time > 0.0

    def test_control_messages_match_phase2_bisections(self):
        res = simulate_phf(problem(16), 64, phase1="central")
        n_phase2 = res.n_control_messages
        # control requests happen once per phase-2 bisection
        assert 0 < n_phase2 < 64

    def test_phases_sum_to_makespan(self):
        res = simulate_phf(problem(17), 64)
        assert res.phases["phase1"] + res.phases["phase2"] == pytest.approx(
            res.parallel_time
        )

    def test_makespan_sublinear(self):
        t64 = simulate_phf(problem(18), 64).parallel_time
        t1024 = simulate_phf(problem(18), 1024).parallel_time
        assert t1024 < t64 * (1024 / 64) / 2

    def test_single_processor(self):
        res = simulate_phf(problem(), 1)
        assert len(res.partition.pieces) == 1

    def test_invalid_phase1_rejected(self):
        with pytest.raises(ValueError):
            simulate_phf(problem(), 8, phase1="magic")

    def test_invalid_keep_rejected(self):
        with pytest.raises(ValueError):
            simulate_phf(problem(), 8, keep="both")

    def test_invalid_alpha_guarantee_raises(self):
        p = SyntheticProblem(1.0, FixedAlpha(0.05), seed=0)
        with pytest.raises((SimulationError, ValueError)):
            simulate_phf(p, 64, alpha=0.45)

    def test_ba_prime_mode_meta(self):
        res = simulate_phf(problem(19), 128, phase1="ba_prime")
        assert res.partition.meta["phase1_mode"] == "ba_prime"
        assert res.partition.meta["phase1_extra_rounds"] >= 0

    def test_summary_mentions_algorithm(self):
        res = simulate_phf(problem(20), 16)
        assert "phf" in res.summary()
