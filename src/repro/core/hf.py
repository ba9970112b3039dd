"""Algorithm HF ("Heaviest Problem First") -- Figure 1 of the paper.

    algorithm HF(p, N):
        P := {p}
        while |P| < N:
            q := a problem in P with maximum weight
            bisect q into q1 and q2
            P := (P ∪ {q1, q2}) \\ {q}
        return P

HF is the sequential reference algorithm: it uses exactly ``N - 1``
bisections and guarantees ``max_i w(p_i) ≤ (w(p)/N) · r_α`` (Theorem 2)
for any class with α-bisectors.  Its drawback, and the paper's motivation,
is its inherently sequential ``Θ(N)`` running time.

Two implementations are provided:

* :func:`run_hf` -- the full object API over
  :class:`~repro.core.problem.BisectableProblem`, optionally recording the
  bisection tree; ties between equal weights are broken FIFO
  (first-created first), which makes the algorithm deterministic.
* :func:`hf_final_weights` -- a float-only fast path for the Monte-Carlo
  harness of Section 4, where each bisection draws ``α̂`` i.i.d. and only
  the weight multiset matters.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import Partition
from repro.core.problem import BisectableProblem, check_initial_weight
from repro.core.tree import BisectionNode, BisectionTree

__all__ = ["run_hf", "hf_final_weights", "hf_trace", "check_finite_draws"]


def run_hf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    record_tree: bool = False,
) -> Partition:
    """Partition ``problem`` into ``n_processors`` pieces with Algorithm HF.

    Returns a :class:`~repro.core.partition.Partition`; ``meta`` carries the
    heap statistics (``bisections``).  Runs in ``O(N log N)`` time using a
    binary heap over the current pieces.
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    total = problem.weight
    if total <= 0:
        raise ValueError(f"problem weight must be positive, got {total}")

    root_node = BisectionNode(weight=total, payload=problem) if record_tree else None

    # Heap entries: (-weight, insertion_seq, problem, tree_node).  The
    # insertion sequence number makes ordering total and tie-breaking FIFO.
    heap: List[Tuple[float, int, BisectableProblem, Optional[BisectionNode]]] = [
        (-total, 0, problem, root_node)
    ]
    seq = 1
    bisections = 0
    while len(heap) < n_processors:
        neg_w, _, q, node = heapq.heappop(heap)
        q1, q2 = q.bisect()
        bisections += 1
        child_nodes: Tuple[Optional[BisectionNode], Optional[BisectionNode]]
        if node is not None:
            c1 = BisectionNode(weight=q1.weight, payload=q1)
            c2 = BisectionNode(weight=q2.weight, payload=q2)
            node.add_children(c1, c2)
            node.bisection_index = bisections - 1
            child_nodes = (c1, c2)
        else:
            child_nodes = (None, None)
        heapq.heappush(heap, (-q1.weight, seq, q1, child_nodes[0]))
        heapq.heappush(heap, (-q2.weight, seq + 1, q2, child_nodes[1]))
        seq += 2

    pieces = [entry[2] for entry in sorted(heap, key=lambda e: e[1])]
    return Partition(
        pieces=pieces,
        total_weight=total,
        n_processors=n_processors,
        algorithm="hf",
        num_bisections=bisections,
        tree=BisectionTree(root_node) if root_node is not None else None,
        meta={"bisections": bisections},
    )


def hf_final_weights(
    initial_weight: float,
    n_processors: int,
    alpha_draws: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Float-only HF for the stochastic model of Section 4.

    ``alpha_draws`` supplies the i.i.d. bisection parameters ``α̂`` in the
    order HF performs bisections (exactly ``n_processors - 1`` are used);
    the ``k``-th bisection splits the current heaviest ``w`` into
    ``α̂_k · w`` and ``(1 - α̂_k) · w``.

    Returns the ``n_processors`` final weights as an array (unsorted).
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    w0 = check_initial_weight(initial_weight)
    draws = np.asarray(alpha_draws, dtype=np.float64)
    if draws.size < n_processors - 1:
        raise ValueError(
            f"need {n_processors - 1} alpha draws, got {draws.size}"
        )
    draws = draws[: n_processors - 1]
    check_finite_draws(draws)
    return -np.asarray(_hf_negated_heap(w0, draws.tolist()), dtype=np.float64)


def _hf_negated_heap(w0: float, draws: List[float]) -> List[float]:
    """HF's bisection loop on checked inputs: the final weights, negated.

    The heap holds negated weights, so ``heap[0]`` is minus the heaviest
    piece, and scaling it by ``a`` and ``1 - a`` negates its children
    exactly.
    """
    heap = [-w0]
    replace, push = heapq.heapreplace, heapq.heappush
    for a in draws:
        w = heap[0]
        replace(heap, a * w)
        push(heap, (1.0 - a) * w)
    return heap


def check_finite_draws(draws: np.ndarray) -> None:
    """Reject NaN / infinite α̂ draws.

    HF's kernels would order such pieces differently and so disagree;
    every HF entry point checks with this one message.
    """
    finite = np.isfinite(draws)
    if not finite.all():
        raise ValueError(f"alpha draws must be finite, got {draws[~finite][0]}")


def hf_trace(
    problem: BisectableProblem,
    n_processors: int,
) -> List[float]:
    """Run HF and return the weights of the bisected problems, in order.

    Useful to check the defining invariant of HF: the sequence of bisected
    weights is non-increasing *per availability* (each bisected problem was
    the heaviest at its time).
    """
    partition = run_hf(problem, n_processors, record_tree=True)
    assert partition.tree is not None
    internal = [
        node
        for node in partition.tree.nodes()
        if node.bisection_index is not None
    ]
    internal.sort(key=lambda node: node.bisection_index)
    return [node.weight for node in internal]
