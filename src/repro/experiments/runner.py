"""Sweep runner and the one chunked-cell pipeline behind every grid study.

A *sweep* evaluates a :class:`~repro.experiments.config.StochasticConfig`
and produces one :class:`SweepRecord` per (algorithm, N) cell: observed
min/avg/max/variance plus the worst-case upper bound computed from the
theorems at the sampler's guaranteed α -- exactly the rows of the paper's
Table 1.

:func:`run_cells` is the pipeline shared by :func:`run_sweep`,
:func:`~repro.experiments.runtime_study.run_study_cells` and
:func:`~repro.experiments.fault_study.run_fault_study`.  Each cell's
trials are split into fixed-size chunks (:func:`chunk_bounds`), and each
chunk is one work unit for the supervised executor
(:func:`~repro.experiments.checkpoint.execute_chunks`), so one heavy
cell cannot straggle a parallel run.  Trial ``t`` derives its generator
from ``(seed, algorithm, N, t)``, so a chunk computes exactly the values
a serial pass would.  The chunk layout and the merge order depend on the
cells and the chunk size alone, never on ``n_jobs``, so results are
bit-identical for any worker count, pooled or serial, and a journal
written in one mode resumes in the other.

Draw transport.  There is none: each chunk samples its own rows
(:func:`~repro.experiments.stochastic.draw_rows`) in the worker that
runs it, so a cell's chunks sample each row exactly once between them
and the parent samples and copies nothing.

Sweep workers reduce their chunk to a
:class:`~repro.core.metrics.RatioAccumulator` (a few floats) instead of
shipping per-trial ratio arrays, so paper-scale sweeps never materialise
every ratio array in the parent.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import bound_for
from repro.core.metrics import RatioAccumulator, RatioSample, summarize_ratios
from repro.experiments.checkpoint import ChunkJournal, execute_chunks
from repro.experiments.config import DEFAULT_CHUNK_RETRIES, StochasticConfig
from repro.experiments.stochastic import trial_ratios
from repro.problems.samplers import AlphaSampler

__all__ = [
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "run_cells",
    "chunk_bounds",
    "encode_matrix_chunk",
    "decode_matrix_chunk",
    "sweep_fingerprint",
]


@dataclass(frozen=True)
class SweepRecord:
    """One (algorithm, N) cell of a sweep."""

    algorithm: str
    n_processors: int
    sampler_label: str
    lam: float
    sample: RatioSample
    upper_bound: float

    def as_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "n": self.n_processors,
            "sampler": self.sampler_label,
            "lambda": self.lam,
            "ub": self.upper_bound,
        }
        d.update(self.sample.as_dict())
        return d


@dataclass(frozen=True)
class SweepResult:
    """All records of a sweep plus the config that produced them."""

    config: StochasticConfig
    records: Tuple[SweepRecord, ...]

    def __post_init__(self) -> None:
        # O(1) cell lookup; built once (frozen dataclass, so via
        # object.__setattr__).  Not a field: equality/repr ignore it.
        index = {(rec.algorithm, rec.n_processors): rec for rec in self.records}
        object.__setattr__(self, "_index", index)

    def get(self, algorithm: str, n: int) -> SweepRecord:
        try:
            return self._index[(algorithm, n)]
        except KeyError:
            cells = ", ".join(
                f"({rec.algorithm}, {rec.n_processors})" for rec in self.records
            )
            raise KeyError(
                f"no record for ({algorithm!r}, {n}); available cells: {cells or 'none'}"
            ) from None

    def series(self, algorithm: str, field: str = "mean") -> List[Tuple[int, float]]:
        """``(N, value)`` pairs for one algorithm, ascending N.

        ``field`` is an attribute of :class:`RatioSample` ("mean",
        "minimum", "maximum", "variance", "std") or "upper_bound".
        """
        out = []
        for rec in sorted(self.records, key=lambda r: r.n_processors):
            if rec.algorithm != algorithm:
                continue
            if field == "upper_bound":
                out.append((rec.n_processors, rec.upper_bound))
            else:
                out.append((rec.n_processors, getattr(rec.sample, field)))
        return out

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen


def chunk_bounds(n_trials: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Half-open trial ranges covering ``range(n_trials)`` in order."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n_trials))
        for start in range(0, n_trials, chunk_size)
    ]


def _run_chunk(
    args: Tuple[
        str, int, AlphaSampler, int, int, int, float, None, Optional[int]
    ]
) -> Tuple[str, int, int, RatioAccumulator]:
    """Worker: one trial chunk of one (algorithm, N) cell (picklable).

    ``n_threads`` caps the native kernels' in-kernel threading (pool
    runs pin it to 1 so worker-level and kernel-level parallelism don't
    multiply).  Returns the chunk's summary accumulator, not its ratio
    array, so the parent's memory stays O(cells x chunks) regardless of
    n_trials.
    """
    # Slot 7 (the retired draw block) is always None: perfbench keys on the layout.
    algorithm, n, sampler, start, stop, seed, lam, _, n_threads = args
    ratios = trial_ratios(
        algorithm,
        n,
        sampler,
        n_trials=stop - start,
        seed=seed,
        lam=lam,
        start=start,
        n_threads=n_threads,
    )
    return algorithm, n, start, RatioAccumulator().update(ratios)


def run_cells(
    cells: Sequence[str],
    task: Callable[[int, int, int], Any],
    worker: Callable[[Any], Any],
    *,
    n_trials: int,
    chunk_size: int,
    n_jobs: int,
    fingerprint: Dict[str, Any],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
    journal_path: Optional["str | os.PathLike[str]"] = None,
    resume: bool = False,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
    **supervise: Any,
) -> List[List[Any]]:
    """Run every trial chunk of every cell; each cell's results in chunk order.

    ``cells`` are the cells' labels: chunk ``[start, stop)`` of a cell
    is journaled under the key ``f"{label}:{start}"``.  ``task(i, start,
    stop)`` builds the picklable task of that chunk of ``cells[i]`` for
    ``worker``, which samples its own draws.  ``encode`` turns a chunk
    result into its journal payload and ``decode`` turns a replayed
    payload back into a result.  ``fingerprint`` binds the journal at
    ``journal_path`` to the run's configuration.  The remaining keywords
    go to :func:`~repro.experiments.checkpoint.execute_chunks`
    (``chaos``, ``report``, ``strict``, ``rebuild_budget``,
    ``run_deadline``, ``cancel_on_sigterm``).

    Returns one list per cell, in cell order, holding its chunk results
    in chunk-start order; a chunk quarantined under ``strict=False`` is
    absent.  Two cells with one label would share journal keys and add
    up each other's trials, so they raise :class:`ValueError` before any
    chunk runs.
    """
    repeated = sorted(label for label, count in Counter(cells).items() if count > 1)
    if repeated:
        raise ValueError(f"duplicate cells: {', '.join(repeated)}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    chunks = chunk_bounds(n_trials, chunk_size)
    keys = [f"{label}:{start}" for label in cells for start, _ in chunks]
    tasks = [task(i, start, stop) for i in range(len(cells)) for start, stop in chunks]
    journal = (
        ChunkJournal.open(journal_path, fingerprint=fingerprint, resume=resume)
        if journal_path is not None
        else None
    )
    try:
        raw = execute_chunks(
            tasks,
            worker,
            keys=keys,
            n_jobs=n_jobs,
            journal=journal,
            encode=encode,
            decode=decode,
            timeout=chunk_timeout,
            retries=DEFAULT_CHUNK_RETRIES if chunk_retries is None else chunk_retries,
            **supervise,
        )
    finally:
        if journal is not None:
            journal.close()
    # Task order is cell-major and chunk-start ordered, so each cell's
    # slice is already its merge order: a function of the cells alone.
    per = len(chunks)
    return [
        [result for result in raw[i * per:(i + 1) * per] if result is not None]
        for i in range(len(cells))
    ]


def sweep_fingerprint(config: StochasticConfig) -> Dict[str, Any]:
    """Journal fingerprint: every config field that shapes chunk contents.

    ``n_jobs`` is deliberately absent -- the chunk layout and merge order
    never depend on it, so resuming a journal on a different worker
    count is legal and bit-exact.
    """
    return {
        "kind": "sweep",
        "sampler": config.sampler.describe(),
        "n_values": list(config.n_values),
        "algorithms": list(config.algorithms),
        "lam": config.lam,
        "n_trials": config.n_trials,
        "seed": config.seed,
        "chunk_size": config.effective_chunk_size,
    }


def _encode_sweep_chunk(result: Tuple[str, int, int, RatioAccumulator]) -> Dict[str, Any]:
    algorithm, n, start, acc = result
    return {
        "algorithm": algorithm,
        "n": n,
        "start": start,
        "count": acc.count,
        "mean": acc.mean,
        "m2": acc.m2,
        "minimum": acc.minimum,
        "maximum": acc.maximum,
    }


def _decode_sweep_chunk(payload: Dict[str, Any]) -> Tuple[str, int, int, RatioAccumulator]:
    acc = RatioAccumulator(
        count=int(payload["count"]),
        mean=float(payload["mean"]),
        m2=float(payload["m2"]),
        minimum=float(payload["minimum"]),
        maximum=float(payload["maximum"]),
    )
    return payload["algorithm"], int(payload["n"]), int(payload["start"]), acc


def encode_matrix_chunk(result: Tuple[int, np.ndarray]) -> Dict[str, Any]:
    """Journal payload of a ``(start, matrix)`` chunk result.

    JSON float repr round-trips exactly, so the payload is a bit-exact
    serialisation of the per-trial metric matrix.
    """
    start, matrix = result
    return {"start": start, "matrix": matrix.tolist()}


def decode_matrix_chunk(payload: Dict[str, Any]) -> Tuple[int, np.ndarray]:
    """Inverse of :func:`encode_matrix_chunk`."""
    return int(payload["start"]), np.asarray(payload["matrix"], dtype=np.float64)


def run_sweep(
    config: StochasticConfig,
    *,
    backend: str = "processes",
    journal_path: Optional["str | os.PathLike[str]"] = None,
    resume: bool = False,
    chunk_timeout: Optional[float] = None,
    chunk_retries: Optional[int] = None,
    chaos: Optional[Any] = None,
    report: Optional[Any] = None,
    strict: bool = True,
    rebuild_budget: Optional[int] = None,
    run_deadline: Optional[float] = None,
    cancel_on_sigterm: bool = False,
) -> SweepResult:
    """Evaluate every (algorithm, N) cell of ``config``.

    Chunks run on a process pool when ``config.n_jobs > 1`` and
    serially in the parent otherwise; either way each chunk samples its
    own draws where it runs.  Records are bit-identical across worker
    counts.  ``backend`` accepts only ``"processes"``.

    ``journal_path`` enables crash-safe execution: each completed trial
    chunk is durably appended to a JSONL journal, and ``resume=True``
    replays completed chunks from an existing journal instead of
    recomputing them -- bit-identically, for any ``n_jobs``, pooled or
    serial (the fingerprint does not cover it -- see
    :mod:`repro.experiments.checkpoint`).  ``chunk_timeout`` bounds one
    chunk's *runtime*, measured from the chunk's observed start; a
    timed-out, crashed, or raising chunk is retried -- with exponential
    backoff and a bounded pool-rebuild budget -- up to ``chunk_retries``
    times (default
    :data:`~repro.experiments.config.DEFAULT_CHUNK_RETRIES`), then
    quarantined.  With ``strict=True`` (default) quarantined chunks
    raise :class:`~repro.experiments.checkpoint.ChunkQuarantinedError`
    after everything else completed; with ``strict=False`` the sweep's
    records simply omit their trials.

    ``chaos`` (a :class:`~repro.chaos.ChaosSpec` or materialised
    :class:`~repro.chaos.ChaosPlan`) injects a deterministic fault
    schedule; ``report`` (a caller-supplied
    :class:`~repro.chaos.RunReport`) receives per-run accounting;
    ``run_deadline`` / ``cancel_on_sigterm`` cancel gracefully after
    flushing completed chunks to the journal (see
    :func:`~repro.experiments.checkpoint.execute_chunks`).
    """
    # perfbench/workloads.py still passes backend="processes"; ROADMAP
    # item 1 step 2 drops the keyword.
    if backend != "processes":
        raise ValueError(
            f"unknown backend {backend!r}: chunks run only on a process pool"
            " ('processes')"
        )
    cells = [(algo, n) for algo in config.algorithms for n in config.n_values]
    # Pool runs pin the kernels to one thread per chunk worker (worker- and
    # kernel-level parallelism must not multiply); serial runs let the
    # kernels thread internally (REPRO_NATIVE_THREADS / auto).
    threads = 1 if config.n_jobs > 1 else None
    parts = run_cells(
        [f"{algo}:{n}" for algo, n in cells],
        lambda i, start, stop: (
            *cells[i], config.sampler, start, stop, config.seed, config.lam,
            None, threads,
        ),
        _run_chunk,
        n_trials=config.n_trials,
        chunk_size=config.effective_chunk_size,
        n_jobs=config.n_jobs,
        fingerprint=sweep_fingerprint(config),
        encode=_encode_sweep_chunk,
        decode=_decode_sweep_chunk,
        journal_path=journal_path,
        resume=resume,
        chunk_timeout=chunk_timeout,
        chunk_retries=chunk_retries,
        chaos=chaos,
        report=report,
        strict=strict,
        rebuild_budget=rebuild_budget,
        run_deadline=run_deadline,
        cancel_on_sigterm=cancel_on_sigterm,
    )
    alpha = config.sampler.alpha
    records = []
    for (algorithm, n), chunk_results in zip(cells, parts):
        acc = RatioAccumulator()
        for _, _, _, chunk_acc in chunk_results:
            acc.merge(chunk_acc)
        records.append(
            SweepRecord(
                algorithm=algorithm,
                n_processors=n,
                sampler_label=config.sampler.describe(),
                lam=config.lam,
                sample=acc.finalize(),
                upper_bound=bound_for(algorithm, alpha, n, config.lam),
            )
        )
    return SweepResult(config=config, records=tuple(records))
