"""Monte-Carlo trials of the paper's stochastic bisection model.

One *trial* partitions a unit-weight problem whose bisections draw α̂
i.i.d. from a sampler, for one algorithm and one processor count, and
records the achieved ratio ``max_i w(p_i) / (1/N)``.  The paper runs 1000
trials per configuration and reports min/avg/max.

The trial functions use the algorithms' float-only fast paths
(:func:`~repro.core.hf.hf_final_weights` etc.): for the i.i.d. model only
the weight multiset matters, so no problem objects, trees or bisection
caching are needed.  Equivalence with the object API is covered by tests
(``tests/test_stochastic.py``).
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.core.ba import ba_final_weights
from repro.core.bahf import bahf_final_weights
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.core.hf import hf_final_weights
from repro.core.metrics import RatioSample, summarize_ratios
from repro.core.problem import normalize_algorithm
from repro.problems.samplers import AlphaSampler, FixedAlpha
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "DrawStream",
    "draw_rows",
    "normalize_algorithm",
    "trial_ratio",
    "trial_ratios",
    "sample_ratios",
]


class DrawStream:
    """Amortised per-call sampling: pre-draws blocks of α̂ values.

    The BA/BA-HF fast paths consume one draw per bisection in recursion
    order; calling ``Generator.uniform`` per draw would dominate the run
    time (the guides' first rule: vectorise the hot loop).  This stream
    draws blocks of ``block`` values at once and hands them out one by one.
    """

    def __init__(
        self,
        sampler: AlphaSampler,
        rng: np.random.Generator,
        *,
        block: int = 4096,
    ) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._sampler = sampler
        self._rng = rng
        self._block = block
        self._buf = np.empty(0)
        self._pos = 0
        self.n_draws = 0

    def __call__(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = self._sampler.sample_many(self._rng, self._block)
            self._pos = 0
        value = float(self._buf[self._pos])
        self._pos += 1
        self.n_draws += 1
        return value

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` draws of the stream as one array (no boxing).

        Serves buffered values first, then refills in bulk (at least a
        block, or the whole remainder if larger), so consuming a stream
        via any mix of ``take`` and ``__call__`` yields the same value
        sequence as calling ``sampler.sample_many`` once.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        out = np.empty(k, dtype=np.float64)
        filled = 0
        while filled < k:
            if self._pos >= self._buf.size:
                self._buf = self._sampler.sample_many(
                    self._rng, max(self._block, k - filled)
                )
                self._pos = 0
            m = min(k - filled, self._buf.size - self._pos)
            out[filled : filled + m] = self._buf[self._pos : self._pos + m]
            self._pos += m
            filled += m
        self.n_draws += k
        return out


def trial_ratio(
    algorithm: str,
    n_processors: int,
    sampler: AlphaSampler,
    rng: np.random.Generator,
    *,
    lam: float = 1.0,
) -> float:
    """One trial: the achieved ratio for ``algorithm`` on ``n_processors``.

    ``algorithm`` ∈ {"hf", "phf", "ba", "bahf"}; "phf" is an alias for
    "hf" (Theorem 3: identical partitions), kept so experiment configs can
    speak the paper's names.
    """
    key = normalize_algorithm(algorithm)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    if key in ("hf", "phf"):
        draws = sampler.sample_many(rng, max(0, n_processors - 1))
        weights = hf_final_weights(1.0, n_processors, draws)
    elif key == "ba":
        weights = ba_final_weights(1.0, n_processors, DrawStream(sampler, rng))
    else:
        weights = bahf_final_weights(
            1.0,
            n_processors,
            DrawStream(sampler, rng),
            alpha=sampler.alpha,
            lam=lam,
        )
    return float(weights.max() * n_processors)


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
    use_batch: bool = True,
    draws: Optional[np.ndarray] = None,
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Trial ratios for trials ``start .. start + n_trials - 1``.

    Trial ``t`` uses a generator derived from ``(seed, algorithm,
    n_processors, t)`` so that adding algorithms or N values to a sweep
    never perturbs existing results -- and so that any chunking of the
    trial range across workers (``start`` offsets) reproduces the exact
    same values as one serial pass.

    ``use_batch=True`` routes all trials of the call through the
    vectorized kernels of :mod:`repro.core.batch` (bit-identical weight
    multisets, orders of magnitude faster at paper scale);
    ``use_batch=False`` keeps the scalar per-trial path, retained as the
    reference implementation for equivalence tests.

    ``draws`` optionally supplies the ``(n_trials, >= N-1)`` draw matrix
    for exactly these trials (e.g. a chunk's row-slice of a cell-wide
    shared-memory block, :mod:`repro.experiments.shm`); it must equal
    what ``sampler.sample_trial_matrix`` would produce for the same
    trial range, which holds whenever it was derived from the same
    ``(seed, algorithm, n_processors)`` factory.  Batch-only.

    ``n_threads`` is forwarded to the native kernels' in-kernel trial
    sharding (:func:`repro.core._native.resolve_n_threads`); ratios are
    bit-identical for every count, and the scalar/NumPy paths ignore it.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    key = normalize_algorithm(algorithm)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    if draws is not None and not use_batch:
        raise ValueError("draws= requires use_batch=True (the scalar path samples lazily)")
    if not use_batch:
        factory = _trial_factory(algorithm, n_processors, seed)
        out = np.empty(n_trials, dtype=np.float64)
        for i, t in enumerate(range(start, start + n_trials)):
            rng = factory.generator_for(t)
            out[i] = trial_ratio(algorithm, n_processors, sampler, rng, lam=lam)
        return out

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
