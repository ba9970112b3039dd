"""Experiment configuration objects.

All Section-4 experiments share one shape: a set of algorithms × a set of
processor counts × an α̂ distribution, ``n_trials`` independent trials
each, reporting min/avg/max (and variance) of the achieved ratio.  The
paper's full grid (1000 trials, N = 2^5..2^20) takes hours in pure Python,
so configurations carry an explicit scale and the benchmarks default to a
reduced grid unless ``REPRO_FULL=1`` is set (see DESIGN.md §3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.problems.samplers import AlphaSampler, UniformAlpha

__all__ = [
    "PAPER_N_VALUES",
    "DEFAULT_N_VALUES",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CHUNK_RETRIES",
    "DEFAULT_STUDY_CHUNK_SIZE",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_POOL_REBUILDS",
    "BACKENDS",
    "ENGINES",
    "StochasticConfig",
    "default_backoff_base",
    "default_backoff_cap",
    "default_pool_rebuilds",
    "full_scale_requested",
    "normalize_backend",
    "normalize_engine",
]

#: Default trial-chunk size for the sweep runner.  Chunking is part of
#: the result-reduction layout (chunk summaries merge in chunk order),
#: so it is a config property -- NOT derived from ``n_jobs`` -- which
#: makes sweep statistics bit-identical for any worker count.
DEFAULT_CHUNK_SIZE = 256

#: Default trial-chunk size for the machine-model studies (runtime /
#: topology).  Smaller than the sweep default: one study trial can cost a
#: whole DES run when a cell falls back to ``engine="des"``.
DEFAULT_STUDY_CHUNK_SIZE = 64

#: Default bounded-retry count for chunks whose worker times out, dies
#: with the pool, or raises: the chunk is recomputed in the parent
#: process up to this many additional times (workers are pure functions
#: of their task tuple, so re-running one is bit-safe).
DEFAULT_CHUNK_RETRIES = 2

#: First-retry backoff (seconds) for a failed chunk attempt.  Retries
#: wait ``min(cap, base * 2**(attempt-1))`` scaled by a deterministic
#: per-key jitter in [0.5, 1.0), so chunks re-queued after one pool
#: crash de-synchronise instead of stampeding the rebuilt pool.
DEFAULT_BACKOFF_BASE = 0.1

#: Ceiling (seconds) on any single retry backoff.
DEFAULT_BACKOFF_CAP = 2.0

#: How many times the supervised executor rebuilds a broken worker pool
#: before degrading the rest of the run to in-parent execution.
DEFAULT_POOL_REBUILDS = 2


def _env_nonneg_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if not (value >= 0.0):  # also rejects NaN
        raise ValueError(f"{name} must be non-negative, got {raw!r}")
    return value


def _env_nonneg_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {raw!r}")
    return value


def default_backoff_base() -> float:
    """First-retry backoff: ``REPRO_BACKOFF_BASE`` or the baked-in default.

    The environment knobs exist because one executor serves two very
    different callers: batch sweeps tolerate (and want) the forgiving
    defaults, while the serving layer (:mod:`repro.serve`) and CI runs
    need much tighter retry timing.  Read at call time so a long-lived
    process picks up changes; invalid values raise :class:`ValueError`
    rather than being silently ignored (see docs/resilience.md).
    """
    return _env_nonneg_float("REPRO_BACKOFF_BASE", DEFAULT_BACKOFF_BASE)


def default_backoff_cap() -> float:
    """Backoff ceiling: ``REPRO_BACKOFF_CAP`` or the baked-in default."""
    return _env_nonneg_float("REPRO_BACKOFF_CAP", DEFAULT_BACKOFF_CAP)


def default_pool_rebuilds() -> int:
    """Pool-rebuild budget: ``REPRO_POOL_REBUILDS`` or the default."""
    return _env_nonneg_int("REPRO_POOL_REBUILDS", DEFAULT_POOL_REBUILDS)

#: Evaluation engines for the machine-model studies.  ``"fastpath"``
#: uses the closed-form batched kernels of
#: :mod:`repro.simulator.fastpath` wherever they exist and falls back to
#: the DES per cell (the two are bit-identical -- see
#: tests/test_fastpath.py); ``"des"`` forces the discrete-event
#: simulator everywhere.
ENGINES: Tuple[str, ...] = ("des", "fastpath")


def normalize_engine(engine: str) -> str:
    """Canonical engine key; raises on unknown names."""
    key = engine.lower()
    if key not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (known: {list(ENGINES)})")
    return key


#: Parallel execution backends for the chunked runners.  ``"processes"``
#: fans chunks out over a ProcessPoolExecutor (pickled task tuples,
#: shared-memory draw blocks); ``"threads"`` runs chunks on a thread
#: pool in-process -- the hot loops are ctypes calls into the native
#: kernels, which release the GIL, so threads scale without pickling or
#: shm plumbing.  Chunk layout and merge order depend only on the
#: config, so both backends (and serial) produce bit-identical results
#: and share journal fingerprints (a journal written under one backend
#: resumes under the other).
BACKENDS: Tuple[str, ...] = ("processes", "threads")


def normalize_backend(backend: str) -> str:
    """Canonical backend key; raises on unknown names."""
    key = backend.lower()
    if key not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (known: {list(BACKENDS)})")
    return key

#: The paper's processor counts: N = 2^k for k = 5..20.
PAPER_N_VALUES: Tuple[int, ...] = tuple(2**k for k in range(5, 21))

#: Reduced default grid used by tests/benchmarks (k = 5..12).
DEFAULT_N_VALUES: Tuple[int, ...] = tuple(2**k for k in range(5, 13))


def full_scale_requested() -> bool:
    """True when the environment asks for the paper-scale grid."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false", "no")


@dataclass(frozen=True)
class StochasticConfig:
    """One Monte-Carlo sweep configuration.

    The paper's Table 1 setup is ``StochasticConfig.paper_table1()``;
    Figure 5's is ``StochasticConfig.paper_figure5()``.
    """

    sampler: AlphaSampler = field(default_factory=lambda: UniformAlpha(0.01, 0.5))
    n_values: Tuple[int, ...] = DEFAULT_N_VALUES
    algorithms: Tuple[str, ...] = ("hf", "bahf", "ba")
    lam: float = 1.0
    n_trials: int = 1000
    seed: int = 20260706
    #: worker processes for trial-level parallelism (1 = serial)
    n_jobs: int = 1
    #: trials per scheduled work unit (None = DEFAULT_CHUNK_SIZE); one
    #: (algorithm, N) cell is split into ceil(n_trials / chunk_size)
    #: independently seeded chunks so a single heavy cell no longer
    #: straggles a parallel sweep
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not self.lam > 0:  # also rejects NaN
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        for n in self.n_values:
            if n < 1:
                raise ValueError(f"processor counts must be >= 1, got {n}")
        known = {"hf", "phf", "ba", "bahf"}
        for algo in self.algorithms:
            if algo not in known:
                raise ValueError(f"unknown algorithm {algo!r} (known: {sorted(known)})")

    @property
    def effective_chunk_size(self) -> int:
        """The trial-chunk size actually used by the sweep runner."""
        return self.chunk_size if self.chunk_size is not None else DEFAULT_CHUNK_SIZE

    def scaled(
        self,
        *,
        max_n: Optional[int] = None,
        n_trials: Optional[int] = None,
    ) -> "StochasticConfig":
        """A copy restricted to ``N ≤ max_n`` and/or fewer trials."""
        cfg = self
        if max_n is not None:
            values = tuple(n for n in cfg.n_values if n <= max_n)
            if not values:
                raise ValueError(f"max_n={max_n} removes every N value")
            cfg = replace(cfg, n_values=values)
        if n_trials is not None:
            cfg = replace(cfg, n_trials=n_trials)
        return cfg

    # ------------------------------------------------------------------
    # Paper presets
    # ------------------------------------------------------------------

    @classmethod
    def paper_table1(cls, **overrides) -> "StochasticConfig":
        """Table 1: α̂ ~ U[0.01, 0.5], λ = 1.0, 1000 trials, N = 2^5..2^20."""
        base = cls(
            sampler=UniformAlpha(0.01, 0.5),
            n_values=PAPER_N_VALUES,
            algorithms=("hf", "bahf", "ba"),
            lam=1.0,
            n_trials=1000,
        )
        return replace(base, **overrides)

    @classmethod
    def paper_figure5(cls, **overrides) -> "StochasticConfig":
        """Figure 5: α̂ ~ U[0.1, 0.5], λ = 1.0, average ratio vs log N."""
        base = cls(
            sampler=UniformAlpha(0.1, 0.5),
            n_values=PAPER_N_VALUES,
            algorithms=("hf", "bahf", "ba"),
            lam=1.0,
            n_trials=1000,
        )
        return replace(base, **overrides)
