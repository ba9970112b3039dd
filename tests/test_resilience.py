"""Tests for the fault-injection + recovery layer (``repro.resilience``).

The two load-bearing invariants:

* **Inert when empty** -- an empty :class:`FaultPlan` leaves every
  fault-aware simulation bit-identical to the fault-free baseline, so
  the resilience layer cannot perturb the paper's headline numbers.
* **Deterministic faults** -- plans are pure functions of
  ``(config, n, seed, trial)`` and the fault study's metrics do not
  depend on ``n_jobs``, so degradation curves are reproducible.
"""

import math

import pytest

from repro.resilience import (
    FaultConfig,
    FaultPlan,
    RecoveryPolicy,
    RecoveryTracker,
    fault_plan_for,
    simulate_with_faults,
)
from repro.simulator import simulate, simulate_ba
from repro.problems.synthetic import SyntheticProblem

ALGORITHMS = ("ba", "bahf", "hf", "phf")


def problem(seed=42, weight=1000.0):
    return SyntheticProblem(weight, seed=seed)


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultConfig(crash_rate=-0.1)
        with pytest.raises(ValueError, match="msg_loss_rate"):
            FaultConfig(msg_loss_rate=1.5)
        with pytest.raises(ValueError, match="straggler_rate"):
            FaultConfig(straggler_rate=float("nan"))

    def test_one_message_per_validator(self):
        for bad in (float("inf"), "0.1", True):
            with pytest.raises(
                ValueError, match=r"^crash_rate must be a probability in \[0, 1\], got "
            ):
                FaultConfig(crash_rate=bad)
            with pytest.raises(
                ValueError, match="^msg_delay must be finite and non-negative, got "
            ):
                FaultConfig(msg_delay=bad)

    def test_straggler_factor_is_a_slowdown(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            FaultConfig(straggler_factor=0.5)

    def test_null_config(self):
        assert FaultConfig().is_null
        assert not FaultConfig(crash_rate=0.1).is_null


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        plan = FaultPlan.empty(8)
        assert plan.is_empty
        assert plan.alive(3, 1e12)
        assert plan.crashed_by(1e12) == 0
        assert plan.scale_work(1, 7.0) == 7.0
        assert plan.scale_comm(1, 7.0) == 7.0
        assert not plan.send_lost(0)
        assert plan.send_delay(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_processors"):
            FaultPlan(n_processors=0, crash_time=(), slowdown=())
        with pytest.raises(ValueError, match="crash_time"):
            FaultPlan(n_processors=2, crash_time=(1.0,), slowdown=(1.0, 1.0))
        with pytest.raises(ValueError, match="slowdown"):
            FaultPlan(
                n_processors=1, crash_time=(math.inf,), slowdown=(0.5,)
            )
        with pytest.raises(ValueError, match="crash times"):
            FaultPlan(n_processors=1, crash_time=(-1.0,), slowdown=(1.0,))

    def test_plan_is_deterministic(self):
        cfg = FaultConfig(crash_rate=0.5, straggler_rate=0.5, msg_loss_rate=0.3)
        a = fault_plan_for(cfg, 16, seed=123, trial=7)
        b = fault_plan_for(cfg, 16, seed=123, trial=7)
        assert a == b
        assert a.send_lost(11) == b.send_lost(11)
        assert a.send_delay(11) == b.send_delay(11)

    def test_trials_get_distinct_plans(self):
        cfg = FaultConfig(crash_rate=0.5)
        plans = {
            fault_plan_for(cfg, 16, seed=123, trial=t).crash_time
            for t in range(8)
        }
        assert len(plans) > 1

    def test_null_config_draws_empty_plan(self):
        plan = fault_plan_for(FaultConfig(), 8, seed=1, trial=0)
        assert plan.is_empty

    def test_origin_protected(self):
        cfg = FaultConfig(crash_rate=1.0, crash_window=8.0)
        plan = fault_plan_for(cfg, 16, seed=5, trial=0)
        assert math.isinf(plan.crash_time[0])
        assert plan.crashed_by(8.0) == 15

    def test_bad_trial_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            fault_plan_for(FaultConfig(), 4, seed=1, trial=-1)


class TestEmptyPlanBitIdentity:
    """An empty plan must be *bit-identical* to the fault-free run."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matches_baseline(self, algorithm, n):
        base = simulate(algorithm, problem(), n)  # plan=None
        assert base.fault_summary == {}
        res = simulate_with_faults(
            algorithm, problem(), n, plan=FaultPlan.empty(n)
        )
        assert res.parallel_time == base.parallel_time
        assert res.n_messages == base.n_messages
        assert res.n_collectives == base.n_collectives
        assert res.collective_time == base.collective_time
        assert res.n_bisections == base.n_bisections
        assert res.n_control_messages == base.n_control_messages
        assert res.utilization == base.utilization
        assert res.phases == base.phases
        assert res.partition.weights == base.partition.weights
        assert res.ratio == base.ratio

    def test_fault_summary_reports_full_survival(self):
        res = simulate_with_faults(
            "ba", problem(), 8, plan=FaultPlan.empty(8)
        )
        assert res.fault_summary["n_alive"] == 8.0
        assert res.fault_summary["n_crashed"] == 0.0
        assert res.fault_summary["degraded"] == 0.0
        assert not res.degraded


class TestRecoveryPolicy:
    def test_backoff_is_exponential(self):
        pol = RecoveryPolicy(detect_timeout=2.0, backoff=3.0)
        assert pol.retry_wait(0) == 2.0
        assert pol.retry_wait(1) == 6.0
        assert pol.retry_wait(2) == 18.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(detect_timeout=-1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)


class TestFaultyRuns:
    def test_crash_triggers_recovery(self):
        # Half the machine fail-stops early: PHF must re-acquire targets
        # from the survivor pool and report the recovery work it paid.
        n = 16
        crash = [math.inf if i % 2 == 0 else 0.5 for i in range(n)]
        plan = FaultPlan(
            n_processors=n, crash_time=tuple(crash), slowdown=(1.0,) * n
        )
        res = simulate_with_faults("phf", problem(), n, plan=plan)
        res.partition.validate()
        assert res.fault_summary["n_crashed"] == 8.0
        assert res.fault_summary["n_recoveries"] > 0
        assert res.fault_summary["recovery_wait"] > 0.0
        # Survivors hold all the work: ratio over survivors is finite.
        assert res.fault_summary["ratio_after_recovery"] >= 1.0

    def test_ba_adopts_when_range_dies(self):
        # BA's hand-off target range can be entirely dead; the sender
        # then keeps the piece (adoption) rather than erroring out.
        n = 16
        crash = [math.inf if i % 2 == 0 else 0.5 for i in range(n)]
        plan = FaultPlan(
            n_processors=n, crash_time=tuple(crash), slowdown=(1.0,) * n
        )
        res = simulate_with_faults("ba", problem(), n, plan=plan)
        res.partition.validate()
        assert res.degraded
        assert res.fault_summary["n_adopted"] > 0
        assert res.fault_summary["ratio_after_recovery"] >= 1.0

    def test_straggler_stretches_makespan(self):
        n = 8
        plan = FaultPlan(
            n_processors=n,
            crash_time=(math.inf,) * n,
            slowdown=(1.0,) + (8.0,) * (n - 1),
        )
        base = simulate_ba(problem(), n)
        res = simulate_with_faults("ba", problem(), n, plan=plan)
        assert res.parallel_time > base.parallel_time
        assert res.partition.weights == base.partition.weights

    def test_total_loss_degrades_not_raises(self):
        # Every message lost: senders exhaust retries and adopt their
        # pieces -- the run degrades but still terminates validly.
        n = 8
        plan = FaultPlan(
            n_processors=n,
            crash_time=(math.inf,) * n,
            slowdown=(1.0,) * n,
            msg_loss_rate=1.0,
            channel_seed=99,
        )
        res = simulate_with_faults("ba", problem(), n, plan=plan)
        res.partition.validate()
        assert res.degraded
        assert res.fault_summary["n_adopted"] > 0

    def test_message_delay_slows_but_preserves_pieces(self):
        n = 8
        plan = FaultPlan(
            n_processors=n,
            crash_time=(math.inf,) * n,
            slowdown=(1.0,) * n,
            msg_delay_rate=1.0,
            msg_delay=5.0,
            channel_seed=3,
        )
        base = simulate_ba(problem(), n)
        res = simulate_with_faults("ba", problem(), n, plan=plan)
        assert res.parallel_time > base.parallel_time
        assert res.partition.weights == base.partition.weights
        assert not res.degraded

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_survive_crashes(self, algorithm):
        cfg = FaultConfig(crash_rate=0.3, crash_window=16.0)
        plan = fault_plan_for(cfg, 16, seed=2026, trial=3)
        res = simulate_with_faults(algorithm, problem(), 16, plan=plan)
        res.partition.validate()
        assert res.fault_summary["n_alive"] >= 1.0

    def test_phf_pays_collective_stalls(self):
        # A dead processor makes PHF's global rounds time out; BA has no
        # collectives to stall.  This is the paper's architectural claim.
        n = 16
        crash = [math.inf] * n
        for i in (3, 7, 11):
            crash[i] = 2.0
        plan = FaultPlan(
            n_processors=n, crash_time=tuple(crash), slowdown=(1.0,) * n
        )
        phf = simulate_with_faults("phf", problem(), n, plan=plan)
        ba = simulate_with_faults("ba", problem(), n, plan=plan)
        assert phf.fault_summary["n_collective_stalls"] > 0
        assert ba.fault_summary["n_collective_stalls"] == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            simulate_with_faults(
                "qsort", problem(), 4, plan=FaultPlan.empty(4)
            )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_keep_rejected_for_every_algorithm(self, algorithm):
        with pytest.raises(ValueError, match="keep"):
            simulate_with_faults(
                algorithm, problem(), 4, plan=FaultPlan.empty(4), keep="bogus"
            )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_phase1_rejected_for_every_algorithm(self, algorithm):
        with pytest.raises(ValueError, match="phase1"):
            simulate(algorithm, problem(), 4, alpha=0.1, phase1="magic")

    @pytest.mark.parametrize("phase1", ["steal", "ba_prime"])
    def test_non_central_phase1_needs_an_empty_plan(self, phase1):
        n = 8
        crash = (math.inf,) * (n - 1) + (0.5,)
        faulty = FaultPlan(n_processors=n, crash_time=crash, slowdown=(1.0,) * n)
        recovery = dict(policy=RecoveryPolicy(), tracker=RecoveryTracker())
        with pytest.raises(ValueError, match="out of scope"):
            simulate("phf", problem(), n, plan=faulty, phase1=phase1, **recovery)
        # an empty plan perturbs nothing, so it stays in scope
        res = simulate(
            "phf", problem(), n, plan=FaultPlan.empty(n), phase1=phase1,
            **recovery,
        )
        base = simulate("phf", problem(), n, phase1=phase1)
        assert res.parallel_time == base.parallel_time
        assert res.partition.weights == base.partition.weights

    def test_skip_threshold_is_ba_only(self):
        with pytest.raises(ValueError, match="skip_threshold"):
            simulate("hf", problem(), 4, skip_threshold=0.5)

    def test_plan_needs_policy_and_tracker(self):
        with pytest.raises(ValueError, match="policy"):
            simulate("ba", problem(), 4, plan=FaultPlan.empty(4))

    def test_plan_size_must_match(self):
        with pytest.raises(ValueError):
            simulate_with_faults(
                "ba", problem(), 8, plan=FaultPlan.empty(4)
            )


class TestFaultStudyDeterminism:
    def test_metrics_independent_of_n_jobs(self):
        from repro.experiments.fault_study import run_fault_study

        kw = dict(
            algorithms=("ba", "phf"),
            n_values=(8,),
            fault_rates=(0.0, 0.2),
            n_trials=8,
            seed=31,
            chunk_size=3,
        )
        serial = run_fault_study(n_jobs=1, **kw)
        parallel = run_fault_study(n_jobs=4, **kw)
        assert [r.as_dict() for r in serial.records] == [
            r.as_dict() for r in parallel.records
        ]

    def test_rate_zero_column_matches_fault_free_des(self):
        from repro.experiments.fault_study import run_fault_study

        result = run_fault_study(
            algorithms=("hf",),
            n_values=(8,),
            fault_rates=(0.0,),
            n_trials=4,
            seed=5,
        )
        (rec,) = result.records
        assert rec.recovery_wait == 0.0
        assert rec.work_redone == 0.0
        assert rec.degraded_fraction == 0.0
        assert rec.mean_alive == 8.0

    def test_monotone_crash_exposure(self):
        # Common-random-numbers design: the same trial's crash set only
        # grows with the rate, so mean survivors fall monotonically.
        from repro.experiments.fault_study import run_fault_study

        result = run_fault_study(
            algorithms=("ba",),
            n_values=(16,),
            fault_rates=(0.0, 0.1, 0.3, 0.6),
            n_trials=6,
            seed=17,
        )
        alive = [
            result.get("ba", 16, rate).mean_alive
            for rate in (0.0, 0.1, 0.3, 0.6)
        ]
        assert alive == sorted(alive, reverse=True)
