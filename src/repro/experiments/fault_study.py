"""Fault study: degradation curves of the four algorithms under faults.

The paper's analysis assumes a reliable machine.  This experiment asks
how the algorithms degrade when the machine is not: for a grid of fault
rates ``r`` it injects processor crashes, stragglers and message loss
(all three channels at rate ``r``, see
:class:`~repro.resilience.faults.FaultConfig`) into the DES runs of HF,
PHF, BA and BA-HF, recovers with the standard policy
(:class:`~repro.resilience.recovery.RecoveryPolicy`), and reports per
``(algorithm, N, rate)`` cell the mean makespan, achieved ratio over the
*surviving* processors, simulated time lost to timeouts, work re-done
and the fraction of degraded trials.

The qualitative expectation (validated in ``tests/test_resilience.py``):
**BA survives where PHF stalls**.  BA's recovery is a local re-target of
one hand-off -- its free-processor ranges give every subproblem a pool
of alternates and no global operation ever waits.  PHF's collective
rounds, by contrast, stall for the full collective-timeout backoff
whenever any participant died, so its recovery cost grows with the
number of rounds.  Sequential HF is fragile in a third way: a piece
whose fixed home died has nowhere else to go and is adopted by ``P_1``.

Design notes for determinism and comparability:

* trial ``t`` of cell ``(algo, N, rate)`` uses the *same* problem
  instance for every rate (seeded from ``(seed, algo, N, t)``) and the
  same fault schedule for every algorithm (seeded from ``(seed, t, N)``
  via :func:`~repro.resilience.faults.fault_plan_for`) -- common random
  numbers, so curves differ only through the injected faults;
* crash sets are nested as the rate grows (a processor crashed at rate
  ``r`` is also crashed at every ``r' > r``), making the curves monotone
  in distribution;
* the cells run through the chunked-cell pipeline
  :func:`~repro.experiments.runner.run_cells`, whose chunk layout and
  merge order are functions of the parameters alone, so results are
  bit-identical for any ``n_jobs`` and a journaled run resumes exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import (
    decode_matrix_chunk,
    encode_matrix_chunk,
    run_cells,
)
from repro.experiments.stochastic import _trial_factory, normalize_algorithm
from repro.problems.samplers import AlphaSampler, UniformAlpha
from repro.problems.synthetic import SyntheticProblem
from repro.resilience import (
    FaultConfig,
    RecoveryPolicy,
    fault_plan_for,
    simulate_with_faults,
)

__all__ = [
    "FAULT_COLUMNS",
    "DEFAULT_FAULT_RATES",
    "FaultStudyRecord",
    "FaultStudyResult",
    "fault_trial_metrics",
    "run_fault_study",
    "render_fault_study",
]

#: Column layout of the per-trial metric matrices.
FAULT_COLUMNS: Tuple[str, ...] = (
    "parallel_time",
    "ratio",
    "ratio_after_recovery",
    "recovery_wait",
    "work_redone",
    "n_recoveries",
    "n_adopted",
    "n_collective_stalls",
    "degraded",
    "n_alive",
)

#: Default fault-rate grid: fault-free anchor plus a geometric ramp.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Default trial-chunk size (fault trials are full DES runs, keep small).
DEFAULT_FAULT_CHUNK_SIZE = 32


@dataclass(frozen=True)
class FaultStudyRecord:
    """Mean metrics of one ``(algorithm, N, fault_rate)`` cell."""

    algorithm: str
    n_processors: int
    fault_rate: float
    parallel_time: float
    ratio: float
    ratio_after_recovery: float
    recovery_wait: float
    work_redone: float
    degraded_fraction: float
    mean_alive: float
    collective_stalls: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "n": self.n_processors,
            "fault_rate": self.fault_rate,
            "parallel_time": self.parallel_time,
            "ratio": self.ratio,
            "ratio_after_recovery": self.ratio_after_recovery,
            "recovery_wait": self.recovery_wait,
            "work_redone": self.work_redone,
            "degraded_fraction": self.degraded_fraction,
            "mean_alive": self.mean_alive,
            "collective_stalls": self.collective_stalls,
        }


@dataclass(frozen=True)
class FaultStudyResult:
    records: Tuple[FaultStudyRecord, ...]
    n_trials: int
    seed: int

    def get(self, algorithm: str, n: int, rate: float) -> FaultStudyRecord:
        for rec in self.records:
            if (
                rec.algorithm == algorithm
                and rec.n_processors == n
                and rec.fault_rate == rate
            ):
                return rec
        raise KeyError(f"no record for ({algorithm!r}, {n}, {rate})")

    def series(
        self, algorithm: str, n: int, field: str
    ) -> List[Tuple[float, float]]:
        """``(rate, value)`` pairs for one ``(algorithm, N)``, ascending rate."""
        out = [
            (rec.fault_rate, getattr(rec, field))
            for rec in self.records
            if rec.algorithm == algorithm and rec.n_processors == n
        ]
        return sorted(out)

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen


def fault_trial_metrics(
    algorithm: str,
    n_processors: int,
    fault_rate: float,
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    start: int = 0,
    lam: float = 1.0,
    policy: Optional[RecoveryPolicy] = None,
) -> np.ndarray:
    """Per-trial fault metrics for trials ``start .. start+n_trials-1``.

    Returns an ``(n_trials, len(FAULT_COLUMNS))`` float64 matrix.  The
    problem instance of trial ``t`` depends on ``(seed, algorithm, N,
    t)`` only (not the rate) and the fault schedule on ``(seed, t, N)``
    only (not the algorithm), so curves share randomness wherever that
    sharpens the comparison.
    """
    key = normalize_algorithm(algorithm)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    policy = policy or RecoveryPolicy()
    cfg = FaultConfig(
        crash_rate=fault_rate,
        straggler_rate=fault_rate,
        msg_loss_rate=fault_rate,
    )
    fac = _trial_factory(key, n_processors, seed)
    alpha = sampler.alpha
    out = np.empty((n_trials, len(FAULT_COLUMNS)), dtype=np.float64)
    for i in range(n_trials):
        t = start + i
        plan = fault_plan_for(cfg, n_processors, seed=seed, trial=t)
        problem = SyntheticProblem(1.0, sampler, seed=fac.seed_for(t))
        res = simulate_with_faults(
            key,
            problem,
            n_processors,
            plan=plan,
            policy=policy,
            alpha=alpha,
            lam=lam,
        )
        fs = res.fault_summary
        out[i] = [
            res.parallel_time,
            res.ratio,
            fs["ratio_after_recovery"],
            fs["recovery_wait"],
            fs["work_redone"],
            fs["n_recoveries"],
            fs["n_adopted"],
            fs["n_collective_stalls"],
            fs["degraded"],
            fs["n_alive"],
        ]
    return out


def _fault_chunk(args) -> Tuple[int, np.ndarray]:
    """Worker: one trial chunk of one fault-study cell (picklable)."""
    _cell_key, algo, n, rate, sampler, start, stop, seed, lam, policy = args
    matrix = fault_trial_metrics(
        algo,
        n,
        rate,
        sampler,
        n_trials=stop - start,
        seed=seed,
        start=start,
        lam=lam,
        policy=policy,
    )
    return start, matrix


def _fault_fingerprint(
    cells: Sequence[Tuple[Hashable, str, int, float]],
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    lam: float,
    policy: RecoveryPolicy,
    chunk_size: int,
) -> Dict[str, Any]:
    return {
        "kind": "fault_study",
        "cells": [[repr(k), a, n, r] for k, a, n, r in cells],
        "sampler": sampler.describe(),
        "n_trials": n_trials,
        "seed": seed,
        "lam": lam,
        "policy": repr(policy),
        "chunk_size": chunk_size,
    }


def run_fault_study(
    *,
    algorithms: Sequence[str] = ("hf", "phf", "ba", "bahf"),
    n_values: Sequence[int] = (32, 64),
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    sampler: Optional[AlphaSampler] = None,
    n_trials: int = 50,
    seed: int = 20260706,
    lam: float = 1.0,
    policy: Optional[RecoveryPolicy] = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    journal_path: Optional["str | os.PathLike[str]"] = None,
    resume: bool = False,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
) -> FaultStudyResult:
    """Degradation curves over a fault-rate grid (trial-chunked).

    Results are bit-identical for any ``n_jobs``; ``journal_path`` /
    ``resume`` enable the crash-safe execution mode (completed chunks
    are replayed exactly, see :mod:`repro.experiments.checkpoint`).  A
    cell that appears twice after algorithm normalisation (``n_values``
    ``(8, 8)``, or ``algorithms`` ``("hf", "HF")``) raises
    :class:`ValueError`.
    """
    for rate in fault_rates:
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"fault rates must be in [0, 1], got {rate}")
    sampler = sampler or UniformAlpha(0.1, 0.5)
    policy = policy or RecoveryPolicy()
    algorithms = tuple(normalize_algorithm(a) for a in algorithms)
    size = chunk_size if chunk_size is not None else DEFAULT_FAULT_CHUNK_SIZE
    cells: List[Tuple[Hashable, str, int, float]] = [
        ((algo, n, rate), algo, n, float(rate))
        for algo in algorithms
        for n in n_values
        for rate in fault_rates
    ]
    parts = run_cells(
        [repr(cell_key) for cell_key, _, _, _ in cells],
        lambda i, start, stop: (
            *cells[i], sampler, start, stop, seed, lam, policy
        ),
        _fault_chunk,
        n_trials=n_trials,
        chunk_size=size,
        n_jobs=n_jobs,
        fingerprint=_fault_fingerprint(
            cells,
            sampler,
            n_trials=n_trials,
            seed=seed,
            lam=lam,
            policy=policy,
            chunk_size=size,
        ),
        encode=encode_matrix_chunk,
        decode=decode_matrix_chunk,
        journal_path=journal_path,
        resume=resume,
        chunk_timeout=chunk_timeout,
        chunk_retries=chunk_retries,
    )

    col = {name: j for j, name in enumerate(FAULT_COLUMNS)}
    records: List[FaultStudyRecord] = []
    for (_, algo, n, rate), chunk_results in zip(cells, parts):
        matrix = np.concatenate([m for _, m in chunk_results], axis=0)
        mean = matrix.sum(axis=0) / n_trials
        records.append(
            FaultStudyRecord(
                algorithm=algo,
                n_processors=n,
                fault_rate=rate,
                parallel_time=float(mean[col["parallel_time"]]),
                ratio=float(mean[col["ratio"]]),
                ratio_after_recovery=float(mean[col["ratio_after_recovery"]]),
                recovery_wait=float(mean[col["recovery_wait"]]),
                work_redone=float(mean[col["work_redone"]]),
                degraded_fraction=float(mean[col["degraded"]]),
                mean_alive=float(mean[col["n_alive"]]),
                collective_stalls=float(mean[col["n_collective_stalls"]]),
            )
        )
    return FaultStudyResult(records=tuple(records), n_trials=n_trials, seed=seed)


def render_fault_study(result: FaultStudyResult) -> str:
    """ASCII degradation table: one block per N, one row per rate."""
    lines = [
        f"Fault study -- mean of {result.n_trials} trials per cell "
        "(T = makespan, r* = ratio over survivors, W = recovery wait, "
        "D% = degraded trials)",
    ]
    algos = result.algorithms()
    ns = sorted({rec.n_processors for rec in result.records})
    rates = sorted({rec.fault_rate for rec in result.records})
    header = " | ".join(
        ["   rate"] + [f"{a}: T / r* / W / D%".rjust(26) for a in algos]
    )
    for n in ns:
        lines.append(f"\nN = {n}")
        lines.append(header)
        lines.append("-" * len(header))
        for rate in rates:
            row = [f"{rate:7.3f}"]
            for algo in algos:
                rec = result.get(algo, n, rate)
                row.append(
                    f"{rec.parallel_time:7.1f} /{rec.ratio_after_recovery:5.2f} "
                    f"/{rec.recovery_wait:6.1f} /{100.0 * rec.degraded_fraction:3.0f}%"
                )
            lines.append(" | ".join(row))
    return "\n".join(lines)
