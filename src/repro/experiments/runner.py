"""Sweep runner: algorithms × processor counts → summary records.

A *sweep* evaluates a :class:`~repro.experiments.config.StochasticConfig`
and produces one :class:`SweepRecord` per (algorithm, N) cell: observed
min/avg/max/variance plus the worst-case upper bound computed from the
theorems at the sampler's guaranteed α -- exactly the rows of the paper's
Table 1.

Scheduling is *trial-chunked*: every cell's ``n_trials`` are split into
``config.effective_chunk_size``-sized chunks and each chunk is one work
unit for the ``concurrent.futures.ProcessPoolExecutor``.  Whole-cell
granularity (the previous design) let a single heavy N = 2^16 cell
straggle an entire sweep -- an ironic load imbalance for a load-balancing
repo; chunking bounds the largest work unit.  Because trial ``t`` derives
its generator from ``(seed, algorithm, N, t)``, a chunk computes exactly
the values the serial pass would, and because the chunk layout and the
merge order are functions of the config alone (never of ``n_jobs``), the
resulting records are bit-identical for any worker count.

Workers reduce their chunk to a :class:`~repro.core.metrics.RatioAccumulator`
(a few floats) instead of shipping per-trial ratio arrays, so paper-scale
sweeps never materialise every ratio array in the parent.

With ``n_jobs > 1`` the parent also samples each cell's draw matrix
*once* into a shared-memory block (:mod:`repro.experiments.shm`) and
workers map their chunk's row-slice out of it, killing the ``O(chunks)``
re-sampling the chunked design otherwise pays.  The block is pure
transport: rows equal what each chunk would have sampled for itself, so
results are bit-identical with or without it (budget exhaustion, platform
refusal and ``n_jobs == 1`` all fall back to per-chunk sampling).

``backend="threads"`` swaps the process pool for an in-process thread
pool: chunk workers call the native kernels through ctypes (which
releases the GIL), so no pickling or shared-memory publish is needed --
each cell's matrix is sampled once in the parent and sliced by
reference.  The chunk layout, seeds, and merge order are identical, so
the records are bit-identical to ``backend="processes"`` and to serial,
and journals are interchangeable between backends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import bound_for
from repro.core.metrics import RatioAccumulator, RatioSample, summarize_ratios
from repro.experiments import shm
from repro.experiments.checkpoint import ChunkJournal, execute_chunks
from repro.experiments.config import (
    DEFAULT_CHUNK_RETRIES,
    StochasticConfig,
    normalize_backend,
)
from repro.experiments.stochastic import draw_rows, trial_ratios
from repro.problems.samplers import AlphaSampler

__all__ = [
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "chunk_bounds",
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
        str, int, AlphaSampler, int, int, int, float, Any, Optional[int]
    ]
) -> Tuple[str, int, int, RatioAccumulator]:
    """Worker: one trial chunk of one (algorithm, N) cell (picklable).

    ``spec`` optionally carries the cell's draw block: a
    :class:`~repro.experiments.shm.DrawSpec` naming a shared-memory
    block (process backend; mapped zero-copy) or the cell's ndarray
    itself (threads backend; sliced by reference).  Either way the
    worker takes its ``[start:stop)`` row-slice and falls back to
    sampling its own rows when no block is usable -- results are
    bit-identical in all three cases.  ``n_threads`` caps the native
    kernels' in-kernel threading (pool runs pin it to 1 so worker-level
    and kernel-level parallelism don't multiply).  Returns the chunk's
    summary accumulator, not its ratio array, so the parent's memory
    stays O(cells x chunks) regardless of n_trials.
    """
    algorithm, n, sampler, start, stop, seed, lam, spec, n_threads = args
    draws = None
    if isinstance(spec, np.ndarray):
        draws = spec[start:stop]
    elif spec is not None:
        cell = shm.attached_draws(spec)
        if cell is not None:
            draws = cell[start:stop]
    ratios = trial_ratios(
        algorithm,
        n,
        sampler,
        n_trials=stop - start,
        seed=seed,
        lam=lam,
        start=start,
        draws=draws,
        n_threads=n_threads,
    )
    return algorithm, n, start, RatioAccumulator().update(ratios)


def _publish_cell_draws(
    cells: Sequence[Tuple[str, int]],
    chunks: Sequence[Tuple[int, int]],
    config: StochasticConfig,
    completed: Dict[str, Any],
    *,
    inline: bool = False,
) -> Dict[Tuple[str, int], Tuple[Any, Any]]:
    """Sample one draw block per cell that still has work.

    Only worth doing when ``n_jobs > 1``; cells whose chunks are all
    journaled, whose matrices are empty (N = 1), or that would blow the
    :func:`repro.experiments.shm.max_bytes` budget simply get no block
    (their chunks sample for themselves).  With ``inline=False``
    (process backend) each matrix is published to shared memory and the
    value is ``(block, DrawSpec)``; with ``inline=True`` (threads
    backend -- workers share this address space) the matrix is kept
    as-is and the value is ``(None, ndarray)``.  Same budget, same rows,
    so results are bit-identical across transports.
    """
    blocks: Dict[Tuple[str, int], Tuple[Any, Any]] = {}
    budget = shm.max_bytes()
    used = 0
    for algo, n in cells:
        cols = max(0, n - 1)
        if cols == 0:
            continue
        if all(
            f"{algo}:{n}:{start}" in completed for start, _ in chunks
        ):
            continue
        nbytes = config.n_trials * cols * 8
        if used + nbytes > budget:
            continue
        draws = draw_rows(
            algo, n, config.sampler, seed=config.seed,
            start=0, stop=config.n_trials, n_draws=cols,
        )
        if inline:
            blocks[(algo, n)] = (None, draws)
            used += nbytes
            continue
        published = shm.publish_draws(draws)
        if published is None:
            continue
        blocks[(algo, n)] = published
        used += nbytes
    return blocks


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

    ``backend`` selects how parallel chunks execute when
    ``config.n_jobs > 1``: ``"processes"`` (the default process pool
    with shared-memory draw blocks) or ``"threads"`` (a GIL-free thread
    pool over the native kernels -- no pickling, no shm; see
    :data:`~repro.experiments.config.BACKENDS`).  Records are
    bit-identical across backends and worker counts.

    ``journal_path`` enables crash-safe execution: each completed trial
    chunk is durably appended to a JSONL journal, and ``resume=True``
    replays completed chunks from an existing journal instead of
    recomputing them -- bit-identically, for any ``n_jobs`` *and either
    backend* (the fingerprint covers neither -- see
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
    backend = normalize_backend(backend)
    chunks = chunk_bounds(config.n_trials, config.effective_chunk_size)
    cells = [
        (algo, n) for algo in config.algorithms for n in config.n_values
    ]
    keys = [
        f"{algo}:{n}:{start}"
        for algo, n in cells
        for start, _ in chunks
    ]
    retries = DEFAULT_CHUNK_RETRIES if chunk_retries is None else chunk_retries
    journal = (
        ChunkJournal.open(
            journal_path, fingerprint=sweep_fingerprint(config), resume=resume
        )
        if journal_path is not None
        else None
    )
    # Pool runs pin the kernels to one thread per chunk worker (worker- and
    # kernel-level parallelism must not multiply); serial runs let the
    # kernels thread internally (REPRO_NATIVE_THREADS / auto).
    task_threads = 1 if config.n_jobs > 1 else None
    blocks: Dict[Tuple[str, int], Tuple[Any, Any]] = {}
    try:
        if config.n_jobs > 1:
            blocks = _publish_cell_draws(
                cells,
                chunks,
                config,
                journal.completed if journal is not None else {},
                inline=backend == "threads",
            )
        tasks = [
            (
                algo,
                n,
                config.sampler,
                start,
                stop,
                config.seed,
                config.lam,
                blocks[(algo, n)][1] if (algo, n) in blocks else None,
                task_threads,
            )
            for algo, n in cells
            for start, stop in chunks
        ]
        raw = execute_chunks(
            tasks,
            _run_chunk,
            keys=keys,
            n_jobs=config.n_jobs,
            journal=journal,
            encode=_encode_sweep_chunk,
            decode=_decode_sweep_chunk,
            timeout=chunk_timeout,
            retries=retries,
            backend=backend,
            chaos=chaos,
            report=report,
            strict=strict,
            rebuild_budget=rebuild_budget,
            run_deadline=run_deadline,
            cancel_on_sigterm=cancel_on_sigterm,
        )
    finally:
        for block, _ in blocks.values():
            if block is not None:
                shm.release_draws(block)
        if journal is not None:
            journal.close()

    # Reduce chunk accumulators per cell, always in chunk-start order:
    # the merge tree is a function of the config alone, so statistics are
    # bit-identical no matter how many workers computed the chunks.
    per_cell: Dict[Tuple[str, int], List[Tuple[int, RatioAccumulator]]] = {
        cell: [] for cell in cells
    }
    for chunk_result in raw:
        if chunk_result is None:
            # quarantined chunk under strict=False: its trials are absent
            # from the cell's statistics (the report names the keys)
            continue
        algorithm, n, start, acc = chunk_result
        per_cell[(algorithm, n)].append((start, acc))

    alpha = config.sampler.alpha
    records = []
    for algorithm, n in cells:
        acc = RatioAccumulator()
        for _, chunk_acc in sorted(per_cell[(algorithm, n)], key=lambda item: item[0]):
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
