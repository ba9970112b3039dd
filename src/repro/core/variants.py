"""Selection-strategy variants of the bisection loop (ablations).

Algorithm HF's defining choice is *which* piece to bisect: always the
heaviest.  These variants replace that choice while keeping everything
else identical, isolating how much of HF's quality comes from
heaviest-first selection:

* ``heaviest``  -- HF itself (Figure 1),
* ``random``    -- bisect a uniformly random piece,
* ``oldest``    -- bisect the longest-waiting piece (FIFO; yields the
  breadth-first / balanced-tree shape BA's recursion also produces when
  processor counts are powers of two),
* ``lightest``  -- adversarially wrong: always bisect the lightest piece.

Only ``heaviest`` enjoys Theorem 2's ``r_α`` guarantee; ``lightest``
degenerates completely (it keeps shaving the smallest piece and never
touches the heavy ones).  The ablation bench quantifies the gap under the
paper's stochastic model.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.hf import hf_final_weights
from repro.core.problem import check_initial_weight

__all__ = ["SELECTION_STRATEGIES", "selection_final_weights"]

SELECTION_STRATEGIES = ("heaviest", "random", "oldest", "lightest")


def selection_final_weights(
    strategy: str,
    initial_weight: float,
    n_processors: int,
    alpha_draws: Sequence[float] | np.ndarray,
    *,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run the bisection loop with the given selection strategy.

    Mirrors :func:`repro.core.hf.hf_final_weights` (same draw order, same
    conservation guarantees); ``rng`` is required for ``strategy="random"``.
    """
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {SELECTION_STRATEGIES}"
        )
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    check_initial_weight(initial_weight)
    draws = np.asarray(alpha_draws, dtype=np.float64)
    if draws.size < n_processors - 1:
        raise ValueError(f"need {n_processors - 1} alpha draws, got {draws.size}")

    if strategy == "heaviest":
        return hf_final_weights(initial_weight, n_processors, draws)

    if strategy == "lightest":
        heap = [float(initial_weight)]
        for k in range(n_processors - 1):
            w = heapq.heappop(heap)
            a = float(draws[k])
            heapq.heappush(heap, a * w)
            heapq.heappush(heap, (1.0 - a) * w)
        return np.asarray(heap, dtype=np.float64)

    if strategy == "oldest":
        queue = deque([float(initial_weight)])
        for k in range(n_processors - 1):
            w = queue.popleft()
            a = float(draws[k])
            queue.append(a * w)
            queue.append((1.0 - a) * w)
        return np.asarray(queue, dtype=np.float64)

    # random
    if rng is None:
        raise ValueError("strategy='random' needs an rng")
    pieces: List[float] = [float(initial_weight)]
    for k in range(n_processors - 1):
        idx = int(rng.integers(0, len(pieces)))
        w = pieces[idx]
        a = float(draws[k])
        pieces[idx] = a * w
        pieces.append((1.0 - a) * w)
    return np.asarray(pieces, dtype=np.float64)
