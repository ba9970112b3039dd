"""Algorithm BA-HF -- Figure 4: BA on top, HF below a threshold.

    algorithm BA-HF(p, N):
        if N ≥ λ/α + 1:
            bisect p; split processors as in BA; recurse on both halves
        else:
            return HF(p, N)        # (or PHF -- same partition)

While plenty of processors remain (``N ≥ λ/α + 1``) BA-HF behaves exactly
like BA -- fully parallel, range-based processor management.  Once a
subproblem's processor count drops below the threshold, the remaining
partitioning is done with HF, whose guarantee is stronger.  The threshold
parameter ``λ > 0`` trades parallelism against balance: Theorem 8 bounds
the ratio by ``e^((1-α)/λ) · r_α``, which approaches HF's ``r_α`` as λ
grows (``λ ≥ 1/ln(1+ε)`` suffices for a ``(1+ε)`` factor).

Unlike BA, BA-HF needs to *know* α (to evaluate the threshold).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.ba import ba_split
from repro.core.hf import hf_final_weights, run_hf
from repro.core.partition import Partition
from repro.core.problem import (
    BisectableProblem,
    check_alpha,
    check_initial_weight,
)
from repro.core.tree import BisectionNode, BisectionTree

__all__ = ["bahf_threshold", "run_bahf", "bahf_final_weights"]


def bahf_threshold(alpha: float, lam: float) -> float:
    """Switch-over point: HF takes over when ``N < λ/α + 1``."""
    check_alpha(alpha)
    if not lam > 0:  # also rejects NaN
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam / alpha + 1.0


def run_bahf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    record_tree: bool = False,
) -> Partition:
    """Partition ``problem`` with Algorithm BA-HF.

    ``alpha`` defaults to the problem's declared family guarantee
    (:attr:`~repro.core.problem.BisectableProblem.alpha`); it must be known.
    ``meta`` records the number of BA-phase and HF-phase bisections and the
    processor ranges of the BA phase leaves.
    """
    if alpha is None:
        alpha = problem.alpha
    if alpha is None:
        raise ValueError(
            "BA-HF needs the bisector parameter alpha; the problem does not "
            "declare one -- pass alpha= explicitly"
        )
    alpha = check_alpha(alpha)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    total = problem.weight
    threshold = bahf_threshold(alpha, lam)

    root_node = BisectionNode(weight=total, payload=problem) if record_tree else None

    # BA phase (explicit stack, as in run_ba).
    ba_leaves: List[Tuple[BisectableProblem, int, int, Optional[BisectionNode]]] = []
    stack: List[Tuple[BisectableProblem, int, int, Optional[BisectionNode]]] = [
        (problem, n_processors, 1, root_node)
    ]
    ba_bisections = 0
    while stack:
        q, n, start, node = stack.pop()
        if n < threshold:
            ba_leaves.append((q, n, start, node))
            continue
        q1, q2 = q.bisect()
        ba_bisections += 1
        n1, n2 = ba_split(q1.weight, q2.weight, n)
        c1 = c2 = None
        if node is not None:
            c1 = BisectionNode(weight=q1.weight, payload=q1)
            c2 = BisectionNode(weight=q2.weight, payload=q2)
            node.add_children(c1, c2)
        stack.append((q2, n2, start + n1, c2))
        stack.append((q1, n1, start, c1))

    # HF phase on every BA leaf that still owns more than one processor.
    ba_leaves.sort(key=lambda item: item[2])
    pieces: List[BisectableProblem] = []
    hf_bisections = 0
    ranges = [(start, start + n - 1) for (_, n, start, _) in ba_leaves]
    for q, n, start, node in ba_leaves:
        sub = run_hf(q, n, record_tree=record_tree)
        hf_bisections += sub.num_bisections
        pieces.extend(sub.pieces)
        if node is not None and sub.tree is not None:
            # Graft the HF subtree under the BA leaf node.
            node.children = sub.tree.root.children
            _reindex_depths(node)

    return Partition(
        pieces=pieces,
        total_weight=total,
        n_processors=n_processors,
        algorithm="bahf",
        num_bisections=ba_bisections + hf_bisections,
        tree=BisectionTree(root_node) if root_node is not None else None,
        meta={
            "lambda": lam,
            "alpha": alpha,
            "threshold": threshold,
            "ba_bisections": ba_bisections,
            "hf_bisections": hf_bisections,
            "ba_leaf_ranges": ranges,
        },
    )


def _reindex_depths(node: BisectionNode) -> None:
    """Fix child depths after grafting a subtree built with depth offset 0."""
    stack = [node]
    while stack:
        cur = stack.pop()
        for child in cur.children:
            child.depth = cur.depth + 1
            stack.append(child)


def bahf_final_weights(
    initial_weight: float,
    n_processors: int,
    draw_alpha: Callable[[], float],
    *,
    alpha: float,
    lam: float = 1.0,
) -> np.ndarray:
    """Float-only BA-HF for the stochastic model of Section 4.

    ``draw_alpha()`` supplies one i.i.d. ``α̂`` per bisection; ``alpha`` is
    the *guaranteed* lower bound used only for the switch-over threshold.
    Returns the ``n_processors`` final weights.
    """
    alpha = check_alpha(alpha)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    check_initial_weight(initial_weight)
    threshold = bahf_threshold(alpha, lam)
    # DrawStream-like callables expose a bulk ``take`` that avoids
    # per-draw float boxing; plain callables keep working.
    take = getattr(draw_alpha, "take", None)
    out: List[float] = []
    stack: List[Tuple[float, int]] = [(float(initial_weight), n_processors)]
    while stack:
        w, n = stack.pop()
        if n < threshold:
            if n == 1:
                out.append(w)
            else:
                if take is not None:
                    draws = take(n - 1)
                else:
                    draws = np.array([draw_alpha() for _ in range(n - 1)])
                out.extend(hf_final_weights(w, n, draws).tolist())
            continue
        a = draw_alpha()
        w2 = a * w
        w1 = w - w2
        if w1 < w2:
            w1, w2 = w2, w1
        n1, n2 = ba_split(w1, w2, n)
        stack.append((w2, n2))
        stack.append((w1, n1))
    return np.asarray(out, dtype=np.float64)
