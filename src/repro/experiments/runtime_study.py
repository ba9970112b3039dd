"""Experiment E5 -- simulated parallel running time and communication.

Paper, Sections 3 and 5: sequential HF needs Θ(N) time to distribute a
problem onto N processors, while PHF, BA and BA-HF need only O(log N)
under the machine model (unit-cost bisection/send, log-cost collectives).
PHF pays per-iteration global communication; BA needs none at all.

The study evaluates the machine model over a range of N and reports
makespan, message count, control messages and collective count per
algorithm -- reproducing the qualitative separation the paper argues
analytically, plus the PHF-vs-BA communication trade-off the conclusion
discusses.

Two engines compute the per-trial metrics (``engine=`` knob):

* ``"fastpath"`` (default) -- the closed-form batched kernels of
  :mod:`repro.simulator.fastpath` (compiled C where a system compiler
  exists, pure NumPy otherwise), bit-identical to the DES (enforced by
  tests/test_fastpath.py) and orders of magnitude faster at large N.
  All four algorithms run closed-form on all topologies; the one cell
  shape the kernels cannot express (non-central PHF phase 1) falls back
  to the DES transparently.
* ``"des"`` -- the discrete-event simulator everywhere (the oracle).

Trial ``t`` of cell ``(algorithm, N)`` derives its generator from
``(seed, algorithm, N, t)`` exactly like the ratio sweeps
(:func:`repro.experiments.stochastic.trial_ratios`).  On the fastpath
over the complete network, for exactly :class:`UniformAlpha` or
:class:`~repro.problems.samplers.FixedAlpha`, the C kernels sample those
rows themselves (:func:`~repro.experiments.stochastic.seeded_rows`);
every other cell builds them with
:func:`~repro.experiments.stochastic.draw_rows`.  :func:`run_study_cells`
runs the cells through the chunked-cell pipeline
:func:`~repro.experiments.runner.run_cells` (chunking, journal,
supervised execution).  Results are bit-identical for any ``n_jobs``,
pooled or serial, and identical between the two engines wherever the
fastpath applies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.checkpoint import execute_chunks  # noqa: F401 - perfbench/spans.py patches it here
from repro.experiments.config import (
    DEFAULT_STUDY_CHUNK_SIZE,
    normalize_engine,
)
from repro.experiments.runner import (
    decode_matrix_chunk,
    encode_matrix_chunk,
    run_cells,
)
from repro.experiments.stochastic import (
    _trial_factory,
    draw_rows,
    normalize_algorithm,
    seeded_rows,
)
from repro.problems.prescribed import prescribed_problem
from repro.problems.samplers import AlphaSampler, UniformAlpha
from repro.problems.synthetic import SyntheticProblem
from repro.simulator.des import simulate
from repro.simulator.fastpath import fastpath_counters, fastpath_supported
from repro.simulator.machine import MachineConfig
from repro.simulator.trace import SimulationResult

__all__ = [
    "METRIC_COLUMNS",
    "RuntimeRecord",
    "RuntimeStudyResult",
    "study_trial_metrics",
    "run_runtime_study",
    "render_runtime_study",
]

#: Column layout of the per-trial metric matrices returned by
#: :func:`study_trial_metrics` (counts stored as exact float64 integers).
METRIC_COLUMNS: Tuple[str, ...] = (
    "parallel_time",
    "n_messages",
    "n_control_messages",
    "n_collectives",
    "collective_time",
    "n_bisections",
    "total_hops",
    "utilization",
    "ratio",
)


@dataclass(frozen=True)
class RuntimeRecord:
    algorithm: str
    n_processors: int
    parallel_time: float
    n_messages: int
    n_control_messages: int
    n_collectives: int
    collective_time: float
    utilization: float
    ratio: float


@dataclass(frozen=True)
class RuntimeStudyResult:
    records: Tuple[RuntimeRecord, ...]
    n_repeats: int
    engine: str = "des"

    def series(self, algorithm: str, field: str) -> List[Tuple[int, float]]:
        out = []
        for rec in sorted(self.records, key=lambda r: r.n_processors):
            if rec.algorithm == algorithm:
                out.append((rec.n_processors, getattr(rec, field)))
        return out

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen


# ----------------------------------------------------------------------
# Per-trial metric matrices
# ----------------------------------------------------------------------


def _result_row(res: SimulationResult) -> List[float]:
    return [
        res.parallel_time,
        float(res.n_messages),
        float(res.n_control_messages),
        float(res.n_collectives),
        res.collective_time,
        float(res.n_bisections),
        float(res.total_hops),
        res.utilization,
        res.ratio,
    ]


def study_trial_metrics(
    algorithm: str,
    n_processors: int,
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    start: int = 0,
    lam: float = 1.0,
    phf_phase1: str = "central",
    config: Optional[MachineConfig] = None,
    engine: str = "fastpath",
    draws: Optional[np.ndarray] = None,
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Machine metrics for trials ``start .. start + n_trials - 1``.

    Returns a ``(n_trials, len(METRIC_COLUMNS))`` float64 matrix.  Trial
    ``t`` uses a generator derived from ``(seed, algorithm,
    n_processors, t)``, so any chunking of the trial range reproduces
    the serial values exactly, and the two engines agree bit for bit on
    every cell the fastpath supports.

    Rows: on the fastpath over the complete network, where
    :func:`~repro.experiments.stochastic.seeded_rows` engages (exactly
    ``UniformAlpha``/``FixedAlpha``, native kernels self-checked), the
    kernels sample each trial's row from its seed and no row is built in
    Python; otherwise
    :func:`~repro.experiments.stochastic.draw_rows` builds them.  Both
    give the same matrix bit for bit.

    ``draws`` optionally supplies the trials' draw matrix; it must equal
    what :func:`~repro.experiments.stochastic.draw_rows` samples for the
    same range.  No runner passes it (chunks sample their own rows); it
    stays as a determinism anchor for callers holding explicit rows.
    Non-central PHF phase 1 samples lazily and cannot take a
    prescription matrix.

    ``n_threads`` is forwarded to the fastpath's native kernels
    (in-kernel trial-block threading; bit-identical for every count).
    The DES engine ignores it.
    """
    key = normalize_algorithm(algorithm)
    engine = normalize_engine(engine)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    config = config or MachineConfig()
    n = n_processors
    alpha = sampler.alpha
    fac = _trial_factory(key, n, seed)
    # The draw prescription replays the central chronology only; other
    # PHF phase-1 strategies consume draws in a machine- or
    # randomness-dependent order, so they sample lazily and read no rows.
    lazy = key == "phf" and phf_phase1 != "central"
    if lazy and draws is not None:
        raise ValueError(
            "draws= requires a central PHF phase 1 (other strategies "
            "consume draws in a machine-dependent order)"
        )
    if draws is not None and draws.shape[0] != n_trials:
        raise ValueError(f"draws has {draws.shape[0]} rows for {n_trials} trials")
    fast = engine == "fastpath" and fastpath_supported(key, config, phase1=phf_phase1)
    # The complete-network kernels sample their own rows (seeded_rows'
    # rule); topologies, the DES and every other case read draw_rows.
    rows = None
    if fast and config.topology is None:
        rows = seeded_rows(key, n, sampler, seed=seed, start=start,
                           n_trials=n_trials, draws=draws)
    if rows is not None:
        draws = rows
    elif draws is None and not lazy:
        draws = draw_rows(
            key, n, sampler, seed=seed, start=start,
            stop=start + n_trials, n_draws=max(1, n - 1),
        )

    if fast:
        fp = fastpath_counters(
            key, n, draws, alpha=alpha, lam=lam, phase1=phf_phase1,
            config=config, n_threads=n_threads,
        )
        return np.column_stack(
            [
                fp.parallel_time,
                fp.n_messages.astype(np.float64),
                fp.n_control_messages.astype(np.float64),
                fp.n_collectives.astype(np.float64),
                fp.collective_time,
                fp.n_bisections.astype(np.float64),
                fp.total_hops.astype(np.float64),
                fp.utilization,
                fp.ratio,
            ]
        )

    out = np.empty((n_trials, len(METRIC_COLUMNS)), dtype=np.float64)
    for i in range(n_trials):
        if lazy:
            problem: object = SyntheticProblem(
                1.0, sampler, seed=fac.seed_for(start + i)
            )
        else:
            problem = prescribed_problem(key, n, draws[i], alpha=alpha, lam=lam)
        res = simulate(
            key, problem, n, alpha=alpha, lam=lam, phase1=phf_phase1, config=config
        )
        out[i] = _result_row(res)
    return out


def _study_chunk(args) -> Tuple[int, np.ndarray]:
    """Worker: one trial chunk of one study cell (picklable).

    ``n_threads`` caps the native kernels' in-kernel threading (pool
    runs pin it to 1).
    """
    # Slot 11 (the retired draw block) is always None: perfbench keys on the layout.
    (
        _cell_key,
        algorithm,
        n,
        sampler,
        start,
        stop,
        seed,
        lam,
        phf_phase1,
        config,
        engine,
        _,
        n_threads,
    ) = args
    matrix = study_trial_metrics(
        algorithm,
        n,
        sampler,
        n_trials=stop - start,
        seed=seed,
        start=start,
        lam=lam,
        phf_phase1=phf_phase1,
        config=config,
        engine=engine,
        n_threads=n_threads,
    )
    return start, matrix


def study_fingerprint(
    cells: Sequence[Tuple[Hashable, str, int, Optional[MachineConfig]]],
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    lam: float,
    phf_phase1: str,
    engine: str,
    chunk_size: int,
) -> Dict[str, Any]:
    """Journal fingerprint for a study run (``n_jobs`` excluded by design).

    Cells are identified by ``repr`` -- cell keys are tuples of
    primitives and :class:`MachineConfig` is a dataclass of primitives,
    so the representations are stable across processes.
    """
    return {
        "kind": "study",
        "cells": [
            [repr(cell_key), algo, n, repr(config)]
            for cell_key, algo, n, config in cells
        ],
        "sampler": sampler.describe(),
        "n_trials": n_trials,
        "seed": seed,
        "lam": lam,
        "phf_phase1": phf_phase1,
        "engine": engine,
        "chunk_size": chunk_size,
    }


def run_study_cells(
    cells: Sequence[Tuple[Hashable, str, int, Optional[MachineConfig]]],
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    lam: float = 1.0,
    phf_phase1: str = "central",
    engine: str = "fastpath",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
    journal_path: Optional["str | os.PathLike[str]"] = None,
    resume: bool = False,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
) -> Dict[Hashable, np.ndarray]:
    """Trial-chunked evaluation of many study cells.

    ``cells`` holds ``(cell_key, algorithm, n_processors, config)``
    tuples with distinct cell keys (a repeated key raises
    :class:`ValueError`).  They run through
    :func:`~repro.experiments.runner.run_cells` in ``chunk_size``-trial
    chunks, over a process pool when ``n_jobs > 1`` and serially in the
    parent otherwise.  Each cell's chunk matrices are concatenated in
    chunk-start order, so the returned ``(n_trials,
    len(METRIC_COLUMNS))`` matrices are bit-identical for any worker
    count.

    ``journal_path``/``resume``/``chunk_timeout``/``chunk_retries``
    enable the crash-safe execution mode of
    :mod:`repro.experiments.checkpoint`: completed chunks are durably
    journaled and a resumed run replays them bit-identically -- the
    fingerprint does not cover ``n_jobs``, so a journal written pooled
    resumes serially and vice versa.
    """
    engine = normalize_engine(engine)
    size = chunk_size if chunk_size is not None else DEFAULT_STUDY_CHUNK_SIZE
    # Pool runs pin the kernels to one thread per chunk worker;
    # serial runs let them thread internally (REPRO_NATIVE_THREADS).
    threads = 1 if n_jobs > 1 else None

    def task(i: int, start: int, stop: int) -> tuple:
        cell_key, algo, n, config = cells[i]
        return (cell_key, algo, n, sampler, start, stop, seed, lam,
                phf_phase1, config, engine, None, threads)

    parts = run_cells(
        [repr(cell_key) for cell_key, _, _, _ in cells],
        task,
        _study_chunk,
        n_trials=n_trials,
        chunk_size=size,
        n_jobs=n_jobs,
        fingerprint=study_fingerprint(
            cells,
            sampler,
            n_trials=n_trials,
            seed=seed,
            lam=lam,
            phf_phase1=phf_phase1,
            engine=engine,
            chunk_size=size,
        ),
        encode=encode_matrix_chunk,
        decode=decode_matrix_chunk,
        journal_path=journal_path,
        resume=resume,
        chunk_timeout=chunk_timeout,
        chunk_retries=chunk_retries,
    )
    return {
        cell[0]: np.concatenate([m for _, m in chunk_results], axis=0)
        for cell, chunk_results in zip(cells, parts)
    }


# ----------------------------------------------------------------------
# The runtime study
# ----------------------------------------------------------------------


def run_runtime_study(
    *,
    n_values: Sequence[int] = tuple(2**k for k in range(2, 11)),
    sampler: Optional[AlphaSampler] = None,
    algorithms: Sequence[str] = ("hf", "phf", "ba", "bahf"),
    lam: float = 1.0,
    phf_phase1: str = "central",
    config: Optional[MachineConfig] = None,
    n_repeats: int = 5,
    seed: int = 20260706,
    engine: str = "fastpath",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> RuntimeStudyResult:
    """Evaluate each algorithm on ``n_repeats`` random instances per N.

    Reported values are means over the repeats (the machine is
    deterministic; only the problem instance varies).  ``engine``,
    ``n_jobs`` and ``chunk_size`` select the evaluation
    engine and the trial-chunked parallel schedule; none of them changes
    the numbers (the fastpath is bit-identical to the DES, and the chunk
    merge order is fixed).
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    engine = normalize_engine(engine)
    sampler = sampler or UniformAlpha(0.1, 0.5)
    cells = [
        ((algo, n), algo, n, config) for n in n_values for algo in algorithms
    ]
    matrices = run_study_cells(
        cells,
        sampler,
        n_trials=n_repeats,
        seed=seed,
        lam=lam,
        phf_phase1=phf_phase1,
        engine=engine,
        n_jobs=n_jobs,
        chunk_size=chunk_size,
    )
    records: List[RuntimeRecord] = []
    for n in n_values:
        for algo in algorithms:
            m = matrices[(algo, n)]
            mean = m.sum(axis=0) / n_repeats
            col = {name: mean[j] for j, name in enumerate(METRIC_COLUMNS)}
            records.append(
                RuntimeRecord(
                    algorithm=algo,
                    n_processors=n,
                    parallel_time=float(col["parallel_time"]),
                    n_messages=int(round(col["n_messages"])),
                    n_control_messages=int(round(col["n_control_messages"])),
                    n_collectives=int(round(col["n_collectives"])),
                    collective_time=float(col["collective_time"]),
                    utilization=float(col["utilization"]),
                    ratio=float(col["ratio"]),
                )
            )
    return RuntimeStudyResult(
        records=tuple(records), n_repeats=n_repeats, engine=engine
    )


def render_runtime_study(result: RuntimeStudyResult) -> str:
    lines = [
        f"Runtime study -- simulated machine, mean of {result.n_repeats} instances",
        " | ".join(
            ["     N".rjust(7)]
            + [
                f"{algo}:T / msg / coll".rjust(22)
                for algo in result.algorithms()
            ]
        ),
        "-" * (7 + 25 * len(result.algorithms())),
    ]
    ns = sorted({rec.n_processors for rec in result.records})
    by_key: Dict[Tuple[str, int], RuntimeRecord] = {
        (rec.algorithm, rec.n_processors): rec for rec in result.records
    }
    for n in ns:
        row = [f"{n}".rjust(7)]
        for algo in result.algorithms():
            rec = by_key[(algo, n)]
            row.append(
                f"{rec.parallel_time:8.1f} /{rec.n_messages:6d} /{rec.n_collectives:4d}"
            )
        lines.append(" | ".join(row))
    return "\n".join(lines)
