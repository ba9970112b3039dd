"""Monte-Carlo trials of the paper's stochastic bisection model.

One *trial* partitions a unit-weight problem whose bisections draw α̂
i.i.d. from a sampler, for one algorithm and one processor count, and
records the achieved ratio ``max_i w(p_i) / (1/N)``.  The paper runs 1000
trials per configuration and reports min/avg/max.

Trial ``t``'s draws are one row: the first ``N - 1`` values of its own
generator, built by :func:`draw_rows` (the one place rows come from).
:func:`trial_ratios` runs the batched kernels of :mod:`repro.core.batch`
on those rows; for the i.i.d. model only the weight multiset matters, so
no problem objects, trees or bisection caching are needed.  The scalar
row oracles (:func:`~repro.core.hf.hf_final_weights`,
:func:`~repro.core.ba.ba_final_weights`,
:func:`~repro.core.bahf.bahf_final_weights`) read the same rows and are
the tests' reference (``tests/test_batch.py``, ``tests/test_stochastic.py``).
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.core.metrics import RatioSample, summarize_ratios
from repro.core.problem import normalize_algorithm
from repro.problems.samplers import AlphaSampler, FixedAlpha
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "draw_rows",
    "normalize_algorithm",
    "trial_ratios",
    "sample_ratios",
]


def _trial_factory(algorithm: str, n_processors: int, seed: int) -> SeedSequenceFactory:
    """Per-(algorithm, N) seed factory; trial ``t`` -> its own generator.

    zlib.crc32 is stable across processes, unlike built-in str hashing,
    so workers re-derive identical streams.
    """
    tag = zlib.crc32(f"{algorithm}:{n_processors}".encode())
    return SeedSequenceFactory((seed ^ tag) & 0xFFFFFFFFFFFFFFFF)


def draw_rows(
    algorithm: str, n_processors: int, sampler: AlphaSampler, *,
    seed: int, start: int, stop: int, n_draws: int,
) -> np.ndarray:
    """The ``(stop - start, n_draws)`` draw matrix of trials ``start .. stop - 1``.

    Row ``i`` holds the first ``n_draws`` draws of trial ``start + i``'s
    generator from ``_trial_factory(algorithm, n_processors, seed)`` --
    the one place every batched caller (sweeps, the runtime study, the
    service) gets its rows from.  A :class:`FixedAlpha` never reads its
    generator, so its rows are a constant fill and no generator is built.
    """
    if stop <= start:
        raise ValueError(f"need at least one trial, got [{start}, {stop})")
    if isinstance(sampler, FixedAlpha):
        return np.full((stop - start, n_draws), sampler.value, dtype=np.float64)
    factory = _trial_factory(algorithm, n_processors, seed)
    rngs = [factory.generator_for(t) for t in range(start, stop)]
    return sampler.sample_trial_matrix(rngs, n_draws)


def trial_ratios(
    algorithm: str,
    n_processors: int,
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    lam: float = 1.0,
    start: int = 0,
    draws: Optional[np.ndarray] = None,
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Trial ratios for trials ``start .. start + n_trials - 1``.

    Trial ``t`` uses a generator derived from ``(seed, algorithm,
    n_processors, t)`` so that adding algorithms or N values to a sweep
    never perturbs existing results -- and so that any chunking of the
    trial range across workers (``start`` offsets) reproduces the exact
    same values as one serial pass.

    All trials of the call run through the vectorized kernels of
    :mod:`repro.core.batch`, whose weight multisets equal the scalar row
    oracles' on the same rows bit for bit.

    ``draws`` optionally supplies the ``(n_trials, >= N-1)`` draw matrix
    for exactly these trials; it must equal what :func:`draw_rows`
    samples for the same trial range.  No runner passes it (chunks
    sample their own rows); it stays as a determinism anchor for callers
    holding explicit rows.

    ``n_threads`` is forwarded to the native kernels' in-kernel trial
    sharding (:func:`repro.core._native.resolve_n_threads`); ratios are
    bit-identical for every count, and the NumPy path ignores it.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    key = normalize_algorithm(algorithm)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")

    if draws is None:
        draws = draw_rows(
            algorithm, n_processors, sampler, seed=seed, start=start,
            stop=start + n_trials, n_draws=max(0, n_processors - 1),
        )
    elif draws.shape[0] != n_trials:
        raise ValueError(
            f"draws has {draws.shape[0]} rows for {n_trials} trials"
        )
    if key in ("hf", "phf"):
        weights = hf_final_weights_batch(
            1.0, n_processors, draws, n_threads=n_threads
        )
    elif key == "ba":
        weights = ba_final_weights_batch(
            1.0, n_processors, draws, n_threads=n_threads
        )
    else:
        weights = bahf_final_weights_batch(
            1.0, n_processors, draws,
            alpha=sampler.alpha, lam=lam, n_threads=n_threads,
        )
    return weights.max(axis=1) * n_processors


def sample_ratios(
    algorithm: str,
    n_processors: int,
    sampler: AlphaSampler,
    *,
    n_trials: int,
    seed: int,
    lam: float = 1.0,
) -> RatioSample:
    """Run trials and summarise (the paper's min/avg/max/variance row)."""
    return summarize_ratios(
        trial_ratios(
            algorithm,
            n_processors,
            sampler,
            n_trials=n_trials,
            seed=seed,
            lam=lam,
        )
    )
