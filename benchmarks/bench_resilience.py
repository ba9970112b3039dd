"""Bench E10 -- fault injection and recovery (robustness layer).

The paper's architectural claim (Sections 3.2/3.4): BA and BA-HF need no
global communication, so they should degrade gracefully under processor
failure, while every PHF phase-2 round is a synchronisation point that a
dead processor stalls.  This bench measures two things:

* **overhead** -- the one DES run with an *empty* plan must track its
  fault-free run (``plan=None``) closely (it is bit-identical in output;
  the bench records the wall-clock cost of the recovery bookkeeping);
* **degradation** -- the fault study's headline numbers: at a moderate
  crash rate PHF pays collective stalls BA never pays, and HF's
  fixed-home pieces make its post-recovery balance collapse first.
"""

from repro.experiments.fault_study import (
    render_fault_study,
    run_fault_study,
)
from repro.problems import SyntheticProblem
from repro.resilience import FaultPlan, simulate_with_faults
from repro.simulator import simulate

from _common import full_scale, run_once, write_artifact


def test_fault_study_degradation(benchmark):
    n_trials = 200 if full_scale() else 30
    rates = (0.0, 0.05, 0.2)
    result = run_once(
        benchmark,
        lambda: run_fault_study(
            n_values=(32,),
            fault_rates=rates,
            n_trials=n_trials,
            seed=20260706,
        ),
    )
    write_artifact("fault_study", render_fault_study(result))

    # fault-free column: the resilience layer is inert
    for algo in result.algorithms():
        clean = result.get(algo, 32, 0.0)
        assert clean.recovery_wait == 0.0, algo
        assert clean.degraded_fraction == 0.0, algo

    hot = max(rates)
    phf, ba = result.get("phf", 32, hot), result.get("ba", 32, hot)
    # the claim under test: PHF's recovery cost is dominated by stalled
    # collectives, a cost BA structurally cannot pay
    assert phf.collective_stalls > 0.0
    assert ba.collective_stalls == 0.0
    assert phf.recovery_wait > ba.recovery_wait

    benchmark.extra_info["phf_recovery_wait"] = phf.recovery_wait
    benchmark.extra_info["ba_recovery_wait"] = ba.recovery_wait
    benchmark.extra_info["phf_collective_stalls"] = phf.collective_stalls


def test_faulty_sim_overhead(benchmark):
    """Empty plan vs ``plan=None`` on the same DES: output-identical,
    and the bookkeeping overhead stays within a small constant factor."""
    import time

    n = 256 if full_scale() else 64
    reps = 20

    def run():
        t0 = time.perf_counter()
        for _ in range(reps):
            base = simulate("ba", SyntheticProblem(1.0, seed=9), n)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            faulty = simulate_with_faults(
                "ba", SyntheticProblem(1.0, seed=9), n, plan=FaultPlan.empty(n)
            )
        t_faulty = time.perf_counter() - t0
        return base, faulty, t_plain, t_faulty

    base, faulty, t_plain, t_faulty = run_once(benchmark, run)

    assert faulty.parallel_time == base.parallel_time
    assert faulty.partition.weights == base.partition.weights

    overhead = t_faulty / t_plain if t_plain > 0 else float("inf")
    benchmark.extra_info["faulty_over_plain"] = overhead
    # generous bound: an empty plan adds survivor-pool and channel checks
    # to every hand-off; it must stay the same order of magnitude
    assert overhead < 25.0

    write_artifact(
        "resilience_overhead",
        (
            f"empty plan vs plan=None on the one DES (ba, N={n}, "
            f"{reps} reps)\n"
            f"  plan=None : {t_plain:.4f}s\n"
            f"  empty plan: {t_faulty:.4f}s  ({overhead:.2f}x)"
        ),
    )
