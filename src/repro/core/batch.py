"""Batched (many-trials-at-once) Monte-Carlo kernels -- Section 4 at scale.

The scalar fast paths (:func:`repro.core.hf.hf_final_weights`,
:func:`repro.core.ba.ba_final_weights`,
:func:`repro.core.bahf.bahf_final_weights`) spend almost all of their time
in per-bisection Python bookkeeping: a ``heapq`` op or an explicit-stack
push costs microseconds of interpreter overhead for nanoseconds of float
arithmetic.  The paper's simulation study needs 1000 trials per
(algorithm, N) cell up to N = 2^16, so this module re-formulates all
three kernels to advance *every trial of a batch* by one bisection (or
one recursion level) per vectorized NumPy step:

* :func:`hf_final_weights_batch` -- HF over a ``(n_trials, N)`` weight
  table.  Without a compiler it runs one of two formulations, picked per
  batch by the measured rule :func:`numpy_hf_method`: an **argmax
  frontier** (one row-wise ``argmax`` per bisection across all trials;
  O(N) elements scanned per trial per step, the winner for small N and
  many trials) or the scalar ``heapq`` oracle
  :func:`~repro.core.hf.hf_final_weights` once per trial (O(log N) per
  bisection, the winner at large N or few trials).  Both produce the
  same final-weight multiset -- equal-weight ties may pop in a different
  order, but swapping the pop order of equal weights provably leaves the
  resulting weight multiset unchanged.

* :func:`ba_final_weights_batch` / :func:`bahf_final_weights_batch` --
  one level-order frontier vectorization of the BA recursion (plain BA
  is BA-HF without an HF phase): each step splits *all* active
  ``(weight, n)`` nodes of all trials at once.  The scalar paths
  consume one α̂ draw per bisection in DFS pre-order; a node that owns
  ``n`` processors consumes exactly ``n - 1`` draws in its subtree, so
  the DFS draw index of every node can be computed
  *analytically* during the level-order sweep (root at offset ``o`` uses
  draw ``o``; its heavier child starts at ``o + 1``, the lighter one at
  ``o + n1``).  Every leaf weight is therefore bit-identical to the
  scalar recursion fed by the same draw stream, and lands in its
  processor's column (the heavier child keeps the parent's first
  processor, the lighter one moves ``n1`` places on).  The same walk,
  given an optional machine clock, also returns each trial's makespan
  and hop count: it is the no-compiler and topology fallback of
  :mod:`repro.simulator.fastpath`'s BA / BA-HF metrics.

All kernels take the draws as an explicit ``(n_trials, >= N-1)`` matrix
(see :meth:`repro.problems.samplers.AlphaSampler.sample_trial_matrix`),
which keeps the per-trial RNG derivation -- and hence reproducibility
across chunked/parallel schedules -- outside the kernel.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core import _native
from repro.core.bahf import bahf_threshold
from repro.core.hf import _hf_negated_heap, check_finite_draws
from repro.core.problem import check_initial_weight

__all__ = [
    "hf_final_weights_batch",
    "ba_final_weights_batch",
    "bahf_final_weights_batch",
]

#: The no-compiler HF rule.  Per trial, the argmax frontier pays its
#: fixed NumPy overhead per bisection divided by the T trials, plus a
#: prefix scan that grows with N; the ``heapq`` oracle pays about the same
#: per bisection at any N.  Their time ratio is then about
#: ``FRONTIER_MIN_TRIALS / T + N / FRONTIER_MAX_N``: the frontier needs
#: at least ``FRONTIER_MIN_TRIALS`` trials, more as N nears
#: ``FRONTIER_MAX_N``, and never wins from there on.  Fitted on the N × T
#: grid of ``benchmarks/results/BENCH_hf_fallback.json`` (written by
#: ``benchmarks/bench_hf_fallback.py``).
FRONTIER_MAX_N = 1152
FRONTIER_MIN_TRIALS = 32


def numpy_hf_method(n_processors: int, n_trials: int) -> str:
    """The faster no-compiler HF kernel for a ``(n_trials, N)`` batch.

    ``"frontier"`` when ``N / FRONTIER_MAX_N + FRONTIER_MIN_TRIALS / T <
    1``, else ``"heap"`` (the ``heapq`` oracle once per trial).  Both give
    the same final-weight multisets, so the choice never changes a result.
    """
    margin = n_trials * (FRONTIER_MAX_N - n_processors)
    if margin > FRONTIER_MIN_TRIALS * FRONTIER_MAX_N:
        return "frontier"
    return "heap"


# ----------------------------------------------------------------------
# Input validation helpers
# ----------------------------------------------------------------------


def _as_draw_matrix(alpha_draws, n_needed: int) -> np.ndarray:
    draws = np.asarray(alpha_draws, dtype=np.float64)
    if draws.ndim != 2:
        raise ValueError(
            f"alpha_draws must be 2-D (n_trials, n_draws), got shape {draws.shape}"
        )
    if draws.shape[1] < n_needed:
        raise ValueError(
            f"need {n_needed} alpha draws per trial, got {draws.shape[1]}"
        )
    check_finite_draws(draws[:, :n_needed])
    return draws


def _as_initial_weights(initial_weight, n_trials: int) -> np.ndarray:
    w0 = np.asarray(initial_weight, dtype=np.float64)
    if w0.ndim == 0:
        w0 = np.full(n_trials, float(w0))
    if w0.shape != (n_trials,):
        raise ValueError(
            f"initial_weight must be scalar or shape ({n_trials},), got {w0.shape}"
        )
    ok = (w0 > 0) & (w0 < np.inf)
    if not ok.all():
        check_initial_weight(w0[~ok][0])  # raises, with the scalar message
    return w0


# ----------------------------------------------------------------------
# HF without a compiler: argmax frontier or the heapq oracle
# ----------------------------------------------------------------------


#: The frontier runs its trials in blocks of at most this many weight
#: cells (1 MiB of float64), so the table every bisection scans stays in
#: a core's L2 cache.  Unblocked, N = 256..1024 with T·N = 2^18..2^21
#: cells ran 1.4-1.7x slower (Xeon with 2 MiB of L2 per core).
FRONTIER_BLOCK_CELLS = 1 << 17


def _hf_frontier(w0: np.ndarray, n: int, draws: np.ndarray) -> np.ndarray:
    """One row-wise argmax per bisection over the active weight prefix."""
    n_trials = w0.shape[0]
    weights = np.empty((n_trials, n), dtype=np.float64)
    step = max(1, FRONTIER_BLOCK_CELLS // n)
    for lo in range(0, n_trials, step):
        block = weights[lo : lo + step]  # a view: writes land in weights
        block_draws = draws[lo : lo + step]
        block[:, 0] = w0[lo : lo + step]
        rows = np.arange(block.shape[0])
        for k in range(n - 1):
            heaviest = np.argmax(block[:, : k + 1], axis=1)
            w = block[rows, heaviest]
            a = block_draws[:, k]
            block[rows, heaviest] = a * w
            block[:, k + 1] = (1.0 - a) * w
    return weights


def _hf_heapq(w0: np.ndarray, n: int, draws: np.ndarray) -> np.ndarray:
    """The ``heapq`` loop of :func:`~repro.core.hf.hf_final_weights`, per row.

    The inputs were checked once for the whole batch, so each row goes
    straight to the loop.
    """
    out = np.empty((w0.shape[0], n), dtype=np.float64)
    rows = draws[:, : n - 1].tolist()
    for t, (w, row) in enumerate(zip(w0.tolist(), rows)):
        out[t] = _hf_negated_heap(w, row)
    return np.negative(out, out=out)


def hf_final_weights_batch(
    initial_weight: Union[float, np.ndarray],
    n_processors: int,
    alpha_draws,
    *,
    method: str = "auto",
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Batched :func:`~repro.core.hf.hf_final_weights`.

    ``alpha_draws`` is a ``(n_trials, >= n_processors - 1)`` matrix; row
    ``t`` supplies trial ``t``'s i.i.d. draws in the order HF consumes
    them.  ``initial_weight`` may be a scalar (shared) or a per-trial
    vector.  Returns the ``(n_trials, n_processors)`` final weights
    (per-row order unspecified; the multiset per row matches the scalar
    path for the same draws).

    ``method`` is ``"frontier"``, ``"heap"``, ``"native"`` or ``"auto"``.
    ``"heap"`` is the scalar ``heapq`` oracle run once per trial row.
    ``"auto"`` uses the compiled C heap, falling back to the kernel
    :func:`numpy_hf_method` picks when no system compiler is available
    (see :mod:`repro.core._native`); asking for ``"native"`` explicitly
    raises if the compiled kernel is unavailable.  Non-finite draws or
    initial weights raise ``ValueError``.
    ``n_threads`` shards the native kernel's trials across in-kernel
    threads (``None`` defers to ``REPRO_NATIVE_THREADS`` / auto); results
    are bit-identical for every count, and the NumPy paths ignore it.
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    draws = _as_draw_matrix(alpha_draws, n_processors - 1)
    w0 = _as_initial_weights(initial_weight, draws.shape[0])
    if n_processors == 1:
        return w0[:, None].copy()
    if method == "auto":
        out = _native.hf_batch_native(w0, n_processors, draws, n_threads)
        if out is not None:
            return out
        method = numpy_hf_method(n_processors, draws.shape[0])
    if method == "frontier":
        return _hf_frontier(w0, n_processors, draws)
    if method == "heap":
        return _hf_heapq(w0, n_processors, draws)
    if method == "native":
        out = _native.hf_batch_native(w0, n_processors, draws, n_threads)
        if out is None:
            raise RuntimeError(
                "compiled HF kernel unavailable (no system C compiler, the "
                "build failed, or REPRO_NO_NATIVE is set)"
            )
        return out
    raise ValueError(
        f"unknown method {method!r} (use 'auto', 'frontier', 'heap' or 'native')"
    )


# ----------------------------------------------------------------------
# BA / BA-HF: level-order frontier
# ----------------------------------------------------------------------


def _ba_split_vec(
    w1: np.ndarray, w2: np.ndarray, n: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.ba.ba_split` (same float ops)."""
    eta = n * w1 / (w1 + w2)
    lo = np.clip(np.floor(eta), 1, n - 1).astype(np.int64)
    hi = np.clip(np.ceil(eta), 1, n - 1).astype(np.int64)
    cost_lo = np.maximum(w1 / lo, w2 / (n - lo))
    cost_hi = np.maximum(w1 / hi, w2 / (n - hi))
    n1 = np.where(cost_lo <= cost_hi, lo, hi)
    return n1, n - n1


def _level_order(
    w0: np.ndarray,
    n_processors: int,
    draws: np.ndarray,
    threshold: float,
    clock: Optional[Tuple[float, Callable]] = None,
):
    """NumPy BA / BA-HF: level-order splits, HF sub-jobs below ``threshold``.

    Each node owns the processors ``start .. start + n - 1``: the heavy
    child keeps ``start``, the light child moves to ``start + n1``.
    Nodes with ``n < threshold`` stop splitting: single processors are
    leaves, larger nodes become HF sub-jobs grouped by processor count
    and finished with the HF kernel :func:`numpy_hf_method` picks,
    on their draw slices (``draws[t, off : off + n - 1]``, the scalar DFS
    consumption order).  Every final weight lands in its processor's
    column, so row ``t`` of the result is trial ``t``'s partition in
    processor order.

    ``clock=(t_bisect, edge)`` also times the run on the machine model,
    with ``edge(src, dst) -> (cost, hops)`` giving the per-send costs of
    1-based processor arrays: both children of a node starting at ``s``
    start at ``(s + t_bisect) + cost``, and an HF sub-job runs ``n - 1``
    bisections then ``n - 1`` sends to ``start + 1 ..``, in the DES's
    accumulation order.  The result is then ``(weights, makespan,
    total_hops)``, the last two per trial; without a clock it is the
    weights alone.
    """
    n_trials, n_draws = draws.shape
    flat_draws = np.ascontiguousarray(draws).ravel()
    out = np.empty(n_trials * n_processors, dtype=np.float64)
    timed = clock is not None
    if timed:
        t_bisect, edge = clock
        makespan = np.zeros(n_trials)
        total_hops = np.zeros(n_trials, dtype=np.int64)
    jobs: List[Tuple[np.ndarray, ...]] = []
    job_starts: List[np.ndarray] = []

    # Per node: weight, processor count, flat index of its draw and flat
    # index of its first processor's output cell (trial-major), and --
    # with a clock -- its start time.
    w = w0.copy()
    n = np.full(n_trials, n_processors, dtype=np.int64)
    at_draw = np.arange(n_trials, dtype=np.int64) * n_draws
    at_out = np.arange(n_trials, dtype=np.int64) * n_processors
    s = np.zeros(n_trials)  # kept up to date only with a clock
    while w.size:
        below = n < threshold
        if below.any():
            single = below & (n == 1)
            if single.any():
                out[at_out[single]] = w[single]
                if timed:
                    trial = at_out[single] // n_processors
                    np.maximum.at(makespan, trial, s[single])
            multi = below & (n > 1)
            if multi.any():
                jobs.append((w[multi], n[multi], at_draw[multi], at_out[multi]))
                if timed:
                    job_starts.append(s[multi])
            active = ~below
            w, n = w[active], n[active]
            at_draw, at_out = at_draw[active], at_out[active]
            if timed:
                s = s[active]
            if w.size == 0:
                break
        # Conserving split, heavier child first (ba_final_weights' float
        # ops).  The heavier child keeps the first processor and the next
        # draw; the lighter one moves n1 processors on and starts its
        # draws after the heavier subtree's n1 - 1.
        w2 = flat_draws[at_draw] * w
        w1 = w - w2
        flipped = w1 < w2
        if flipped.any():
            w1, w2 = np.where(flipped, w2, w1), np.where(flipped, w1, w2)
        n1, n2 = _ba_split_vec(w1, w2, n)
        if timed:
            trial, col = np.divmod(at_out, n_processors)
            cost, hops = edge(col + 1, col + 1 + n1)
            np.add.at(total_hops, trial, hops)
            child_s = (s + t_bisect) + cost
            s = np.concatenate([child_s, child_s])
        w = np.concatenate([w1, w2])
        n = np.concatenate([n1, n2])
        at_draw = np.concatenate([at_draw + 1, at_draw + n1])
        at_out = np.concatenate([at_out, at_out + n1])

    if jobs:
        job_w, job_n, job_draw, job_out = (
            np.concatenate(col) for col in zip(*jobs)
        )
        job_s = np.concatenate(job_starts) if timed else None
        for sub_n in np.unique(job_n):
            k = int(sub_n)
            group = job_n == sub_n
            g_out = job_out[group]
            steps = np.arange(k)
            g_draws = flat_draws[job_draw[group][:, None] + steps[:-1]]
            out[g_out[:, None] + steps] = hf_final_weights_batch(
                job_w[group], k, g_draws, method=numpy_hf_method(k, g_out.size)
            )
            if timed:
                # (k-1) back-to-back bisections on the owning processor,
                # then (k-1) serial sends to start+1 .. start+k-1.
                g_trial, g_col = np.divmod(g_out, n_processors)
                t = job_s[group]
                for _ in range(k - 1):
                    t = t + t_bisect
                for step in range(1, k):
                    cost, hops = edge(g_col + 1, g_col + 1 + step)
                    t = t + cost
                    np.add.at(total_hops, g_trial, hops)
                np.maximum.at(makespan, g_trial, t)
    out = out.reshape(n_trials, n_processors)
    if timed:
        return out, makespan, total_hops
    return out


def _ba_entry(
    initial_weight: Union[float, np.ndarray],
    n_processors: int,
    alpha_draws,
    method: str,
    n_threads: Optional[int],
    alpha: Optional[float] = None,
    lam: float = 1.0,
) -> np.ndarray:
    """Shared BA / BA-HF entry; ``alpha=None`` is plain BA."""
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    if method not in ("auto", "frontier", "native"):
        raise ValueError(
            f"unknown method {method!r} (use 'auto', 'frontier' or 'native')"
        )
    threshold = None if alpha is None else bahf_threshold(alpha, lam)
    draws = _as_draw_matrix(alpha_draws, n_processors - 1)
    w0 = _as_initial_weights(initial_weight, draws.shape[0])
    if n_processors == 1:
        return w0[:, None].copy()
    if method in ("auto", "native"):
        if threshold is None:
            out = _native.ba_batch_native(w0, n_processors, draws, n_threads)
        else:
            out = _native.bahf_batch_native(
                w0, n_processors, draws, threshold, n_threads
            )
        if out is not None:
            return out
        if method == "native":
            name = "BA" if threshold is None else "BA-HF"
            raise RuntimeError(
                f"compiled {name} kernel unavailable (no system C compiler, "
                "the build failed, or REPRO_NO_NATIVE is set)"
            )
    # Plain BA is the BA-HF loop with no HF phase: threshold 2 stops
    # every node at one processor.
    return _level_order(
        w0, n_processors, draws, 2.0 if threshold is None else threshold
    )


def ba_final_weights_batch(
    initial_weight: Union[float, np.ndarray],
    n_processors: int,
    alpha_draws,
    *,
    method: str = "auto",
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Batched :func:`~repro.core.ba.ba_final_weights` (no skip threshold).

    Row ``t`` of ``alpha_draws`` supplies the draws the scalar recursion
    would consume in DFS pre-order; exactly ``n_processors - 1`` are used
    per trial, and every leaf weight is bit-identical to the scalar path.
    Returns the ``(n_trials, n_processors)`` final weights (per-row order
    unspecified; the NumPy walk gives processor order).

    ``method`` is ``"frontier"``, ``"native"`` or ``"auto"``.  ``"auto"``
    prefers the compiled C recursion (see :mod:`repro.core._native`) and
    falls back to the NumPy level-order frontier when no system compiler
    is available; asking for ``"native"`` explicitly raises if the
    compiled kernel is unavailable.  ``n_threads`` is the native kernel's
    in-kernel thread count (bit-identical for every value; ignored by the
    NumPy path).
    """
    return _ba_entry(initial_weight, n_processors, alpha_draws, method, n_threads)


def bahf_final_weights_batch(
    initial_weight: Union[float, np.ndarray],
    n_processors: int,
    alpha_draws,
    *,
    alpha: float,
    lam: float = 1.0,
    method: str = "auto",
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """Batched :func:`~repro.core.bahf.bahf_final_weights`.

    BA-phase nodes are expanded level by level exactly as in
    :func:`ba_final_weights_batch`; nodes that fall below the switch-over
    threshold ``λ/α + 1`` become HF sub-jobs (see :func:`_level_order`).

    ``method`` is ``"frontier"``, ``"native"`` or ``"auto"``.  ``"auto"``
    prefers the compiled C kernel (which runs both phases in one pass --
    see :mod:`repro.core._native`) and falls back to the NumPy frontier
    when no system compiler is available; asking for ``"native"``
    explicitly raises if the compiled kernel is unavailable.
    ``n_threads`` is the native kernel's in-kernel thread count
    (bit-identical for every value; ignored by the NumPy path).
    """
    return _ba_entry(
        initial_weight, n_processors, alpha_draws, method, n_threads,
        alpha=alpha, lam=lam,
    )
