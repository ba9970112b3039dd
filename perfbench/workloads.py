"""The three batch workloads: one job each, its set-up probe and its checks.

A *job* is one call of the workload's entry point with a fresh seed, as a
user's script would make it.  Every callable is looked up on its module at
call time, so the traced run's wrappers see the calls.  Job sizes are
fixed constants: a run only changes how many jobs fit in its seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: sweep_n65536: Figure 5's sampler (U[0.1,0.5], lambda=1) at N=2^16.
SWEEP_N = 65536
SWEEP_TRIALS = 64
SWEEP_CHUNK = 16
#: table1_journal: Table 1's sampler (U[0.01,0.5]) on the reduced grid.
TABLE1_N = tuple(2 ** k for k in range(5, 13))
TABLE1_TRIALS = 32
#: runtime_fastpath: the E5 machine-model study on the closed-form engine.
FAST_N = (4096, 16384)
FAST_ALGORITHMS = ("hf", "phf", "ba", "bahf")
FAST_REPEATS = 16
N_JOBS = 2


def job_seed(seed: int, j: int) -> int:
    """Seed of job ``j`` of a run started with ``--seed seed``."""
    return (seed * 1_000_003 + j) & 0x7FFFFFFF


@dataclass(frozen=True)
class BatchWorkload:
    trials_per_job: int
    #: ``run_job(seed, work_dir, j)`` -> the entry point's result
    run_job: Callable[[int, Path, int], Any]
    probe_job: Callable[[Path], Any]
    #: ``check([(seed, result), ...], work_dir)`` -> failure messages
    check: Callable[[List[Tuple[int, Any]], Path], List[str]]


# -- sweep_n65536 --------------------------------------------------------


def _sweep_config(seed: int, **overrides: Any):
    from repro.experiments.config import StochasticConfig

    params = dict(n_values=(SWEEP_N,), n_trials=SWEEP_TRIALS, seed=seed,
                  n_jobs=N_JOBS, chunk_size=SWEEP_CHUNK)
    params.update(overrides)
    return StochasticConfig.paper_figure5(**params)


def sweep_job(seed: int, work: Path, j: int):
    from repro.experiments import runner

    return runner.run_sweep(_sweep_config(seed), backend="processes")


def sweep_probe(work: Path):
    from repro.experiments import runner

    return runner.run_sweep(
        _sweep_config(1, n_values=(8,), n_trials=2, chunk_size=1))


def _check_bounds(jobs: List[Tuple[int, Any]]) -> List[str]:
    from repro.core.bounds import bound_for

    bad = []
    for _, res in jobs:
        alpha, lam = res.config.sampler.alpha, res.config.lam
        for rec in res.records:
            bound = bound_for(rec.algorithm, alpha, rec.n_processors, lam)
            if not rec.sample.maximum <= bound:
                bad.append(f"{rec.algorithm} N={rec.n_processors}: max "
                           f"{rec.sample.maximum} exceeds bound {bound}")
    return bad


def sweep_check(jobs: List[Tuple[int, Any]], work: Path) -> List[str]:
    """Job 0 against an in-process recompute; sampled rows on NumPy kernels."""
    from repro.core import batch
    from repro.core.metrics import RatioAccumulator
    from repro.experiments import shm, stochastic
    from repro.experiments.runner import chunk_bounds

    failures = _check_bounds(jobs)
    first = jobs[0][1]
    cfg = first.config
    need = len(cfg.algorithms) * cfg.n_trials * (SWEEP_N - 1) * 8
    if shm.max_bytes() < need:
        failures.append(f"shm budget {shm.max_bytes()} < {need} bytes: "
                        "the draw transport would not engage")
    cols = SWEEP_N - 1
    for algo in cfg.algorithms:
        acc = RatioAccumulator()
        for start, stop in chunk_bounds(cfg.n_trials, cfg.effective_chunk_size):
            acc.merge(RatioAccumulator().update(stochastic.trial_ratios(
                algo, SWEEP_N, cfg.sampler, n_trials=stop - start,
                seed=cfg.seed, lam=cfg.lam, start=start)))
        if acc.finalize() != first.get(algo, SWEEP_N).sample:
            failures.append(f"{algo}: pooled record differs from serial recompute")
        # sampled rows: the NumPy kernels (no native code) bit for bit
        rows = (0,) if algo == "hf" else (0, cfg.n_trials - 1)
        factory = stochastic._trial_factory(algo, SWEEP_N, cfg.seed)
        draws = cfg.sampler.sample_trial_matrix(
            [factory.generator_for(t) for t in rows], cols)
        native = np.concatenate([stochastic.trial_ratios(
            algo, SWEEP_N, cfg.sampler, n_trials=1, seed=cfg.seed,
            lam=cfg.lam, start=t) for t in rows])
        if algo == "hf":
            w = batch.hf_final_weights_batch(1.0, SWEEP_N, draws, method="heap")
        elif algo == "ba":
            w = batch.ba_final_weights_batch(1.0, SWEEP_N, draws, method="frontier")
        else:
            w = batch.bahf_final_weights_batch(
                1.0, SWEEP_N, draws, alpha=cfg.sampler.alpha, lam=cfg.lam,
                method="frontier")
        if not np.array_equal(w.max(axis=1) * SWEEP_N, native):
            failures.append(f"{algo}: NumPy kernel rows differ from the native run")
    return failures


# -- table1_journal ------------------------------------------------------


def journal_path(work: Path, j: int) -> Path:
    # job 0's journal is kept for the resume check; later jobs share one
    return work / f"table1-{min(j, 1)}.jsonl"


def table1_run(seed: int, work: Path, j: int, *, resume: bool = False):
    from repro.experiments import table1

    return table1.run_table1(
        n_trials=TABLE1_TRIALS, n_values=TABLE1_N, seed=seed, n_jobs=N_JOBS,
        journal_path=journal_path(work, j), resume=resume)


def table1_probe(work: Path):
    from repro.experiments import table1

    return table1.run_table1(n_trials=2, n_values=(4, 8), seed=1, n_jobs=N_JOBS,
                             journal_path=work / "probe.jsonl")


def table1_check(jobs: List[Tuple[int, Any]], work: Path) -> List[str]:
    """Resuming job 0's journal reproduces its records exactly."""
    failures = _check_bounds(jobs)
    seed, first = jobs[0]
    lines = journal_path(work, 0).read_text(encoding="utf-8").splitlines()
    cells = len(TABLE1_N) * len(first.config.algorithms)
    if len(lines) != 1 + cells:
        failures.append(f"journal has {len(lines) - 1} records, want {cells}")
    again = table1_run(seed, work, 0, resume=True)
    if again.records != first.records:
        failures.append("resumed journal does not reproduce the records")
    return failures


# -- runtime_fastpath ----------------------------------------------------


def fast_job(seed: int, work: Path, j: int):
    from repro.experiments import runtime_study

    return runtime_study.run_runtime_study(
        n_values=FAST_N, algorithms=FAST_ALGORITHMS, n_repeats=FAST_REPEATS,
        seed=seed, engine="fastpath", n_jobs=N_JOBS)


def fast_probe(work: Path):
    from repro.experiments import runtime_study

    return runtime_study.run_runtime_study(
        n_values=(4,), algorithms=("hf", "ba"), n_repeats=2, seed=1,
        engine="fastpath", n_jobs=N_JOBS, chunk_size=1)


def fast_check(jobs: List[Tuple[int, Any]], work: Path) -> List[str]:
    """Job 0: sampled trials equal the DES; means equal a serial recompute."""
    from repro.experiments import runtime_study
    from repro.problems.samplers import UniformAlpha

    failures = []
    sampler = UniformAlpha(0.1, 0.5)
    seed, first = jobs[0]
    for algo in FAST_ALGORITHMS:
        args = dict(n_trials=2, seed=seed, start=0)
        fast = runtime_study.study_trial_metrics(
            algo, FAST_N[0], sampler, engine="fastpath", **args)
        des = runtime_study.study_trial_metrics(
            algo, FAST_N[0], sampler, engine="des", **args)
        if not np.array_equal(fast, des):
            failures.append(f"{algo} N={FAST_N[0]}: fastpath trials differ from the DES")
    for rec in first.records:
        m = runtime_study.study_trial_metrics(
            rec.algorithm, rec.n_processors, sampler, n_trials=FAST_REPEATS,
            seed=seed, engine="fastpath")
        mean = m.sum(axis=0) / FAST_REPEATS
        if (float(mean[0]), int(round(mean[1])), float(mean[-1])) != (
                rec.parallel_time, rec.n_messages, rec.ratio):
            failures.append(f"{rec.algorithm} N={rec.n_processors}: pooled study "
                            "differs from the serial recompute")
    return failures


BATCH: Dict[str, BatchWorkload] = {
    "sweep_n65536": BatchWorkload(
        SWEEP_TRIALS * 3, sweep_job, sweep_probe, sweep_check),
    "table1_journal": BatchWorkload(
        TABLE1_TRIALS * 3 * len(TABLE1_N), table1_run, table1_probe, table1_check),
    "runtime_fastpath": BatchWorkload(
        FAST_REPEATS * len(FAST_N) * len(FAST_ALGORITHMS),
        fast_job, fast_probe, fast_check),
}


def outputs_equal(a: Any, b: Any) -> bool:
    """Job outputs compared field by field (records are frozen dataclasses)."""
    return a.records == b.records

