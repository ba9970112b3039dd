"""Algorithm BA ("Best Approximation of ideal weight") -- Figure 3.

    algorithm BA(p, N):
        if N == 1: return {p}
        bisect p into p1 and p2           # w.l.o.g. w(p1) ≥ w(p2)
        choose N1 ∈ {⌊η̂⌋, ⌈η̂⌉},  η̂ = N · w(p1)/w(p),
            minimising max(w(p1)/N1, w(p2)/(N-N1));  N2 = N - N1
        return BA(p1, N1) ∪ BA(p2, N2)    # recursive calls run in parallel

BA is *inherently parallel*: the two recursive calls are independent, no
global communication is ever needed, and free-processor management is a
trivial range split (Section 3.4).  It does not need to know α.  Its
worst-case guarantee (Theorem 7) is weaker than HF's but still constant
for fixed α.

This module also implements **BA′** (Section 3.4): identical to BA except
that it never bisects subproblems with weight at most a given threshold
(``w(p)·r_α/N``); BA′ is the sub-routine PHF uses to seed its first phase
with only ``O(log N)`` time.

The recursion is materialised with an explicit stack: for small α̂ the BA
tree can be deeper than CPython's default recursion limit
(depth ≤ log_{1/(1-α/2)} N, Section 3.2).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.partition import Partition
from repro.core.problem import BisectableProblem, check_initial_weight
from repro.core.tree import BisectionNode, BisectionTree

__all__ = ["ba_split", "run_ba", "run_ba_prime", "ba_final_weights"]


def ba_split(w1: float, w2: float, n: int) -> Tuple[int, int]:
    """BA's processor split rule for children with ``w1 ≥ w2``, ``n ≥ 2``.

    Chooses ``n1 ∈ {⌊η̂⌋, ⌈η̂⌉}`` (η̂ = n·w1/(w1+w2)), clamped so both sides
    get at least one processor, minimising
    ``max(w1/n1, w2/(n-n1))``; ties prefer ``⌊η̂⌋`` (matching the paper's
    "if d ≤ ... then N1 := ⌊η̂⌋" tie-break).  Returns ``(n1, n2)``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to split processors, got {n}")
    if w1 < w2:
        raise ValueError(f"w1 must be >= w2, got {w1} < {w2}")
    if w2 <= 0:
        raise ValueError(f"weights must be positive, got w2={w2}")
    eta = n * w1 / (w1 + w2)
    lo = max(1, min(n - 1, int(np.floor(eta))))
    hi = max(1, min(n - 1, int(np.ceil(eta))))

    def cost(n1: int) -> float:
        return max(w1 / n1, w2 / (n - n1))

    n1 = lo if cost(lo) <= cost(hi) else hi
    return n1, n - n1


def run_ba(
    problem: BisectableProblem,
    n_processors: int,
    *,
    record_tree: bool = False,
) -> Partition:
    """Partition ``problem`` with Algorithm BA.

    ``meta["ranges"]`` records, for each output piece, the 1-based inclusive
    processor range ``[i, j]`` it was assigned (Section 3.4's range-based
    free-processor management); the piece itself resides on processor ``i``.
    ``meta["depth"]`` is the bisection-tree height (BA's parallel time is
    proportional to it).
    """
    return _run_ba_impl(
        problem, n_processors, record_tree=record_tree, skip_threshold=None
    )


def run_ba_prime(
    problem: BisectableProblem,
    n_processors: int,
    skip_threshold: float,
    *,
    record_tree: bool = False,
) -> Partition:
    """Algorithm BA′: BA that never bisects pieces with weight ≤ threshold.

    Used by PHF's phase 1 with ``skip_threshold = w(p) · r_α / N``.  The
    output may contain fewer than N pieces; a piece that still owns ``k > 1``
    processors leaves ``k - 1`` of them free (``meta["free_processors"]``
    lists their 1-based ids).
    """
    if not skip_threshold > 0:  # also rejects NaN
        raise ValueError(f"skip_threshold must be positive, got {skip_threshold}")
    return _run_ba_impl(
        problem,
        n_processors,
        record_tree=record_tree,
        skip_threshold=skip_threshold,
    )


def _run_ba_impl(
    problem: BisectableProblem,
    n_processors: int,
    *,
    record_tree: bool,
    skip_threshold: Optional[float],
) -> Partition:
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    total = problem.weight
    if total <= 0:
        raise ValueError(f"problem weight must be positive, got {total}")

    # Tree payloads carry the processor assignment so the Lemma 4/6
    # checkers in repro.core.analysis can audit every step.
    root_node = (
        BisectionNode(
            weight=total,
            payload={"problem": problem, "n": n_processors, "start": 1},
        )
        if record_tree
        else None
    )

    # Work items: (problem, n, first_processor_1based, tree_node, depth).
    # An explicit stack keeps left-to-right processor order if we emit
    # leaves as we find them and sort by range start at the end.
    leaves: List[Tuple[BisectableProblem, int, int]] = []  # (piece, start, n)
    stack: List[Tuple[BisectableProblem, int, int, Optional[BisectionNode], int]] = [
        (problem, n_processors, 1, root_node, 0)
    ]
    bisections = 0
    max_depth = 0
    while stack:
        q, n, start, node, depth = stack.pop()
        max_depth = max(max_depth, depth)
        stop = n == 1 or (
            skip_threshold is not None and q.weight <= skip_threshold
        )
        if stop:
            leaves.append((q, start, n))
            continue
        q1, q2 = q.bisect()  # w(q1) >= w(q2)
        bisections += 1
        n1, n2 = ba_split(q1.weight, q2.weight, n)
        c1 = c2 = None
        if node is not None:
            c1 = BisectionNode(
                weight=q1.weight,
                payload={"problem": q1, "n": n1, "start": start},
            )
            c2 = BisectionNode(
                weight=q2.weight,
                payload={"problem": q2, "n": n2, "start": start + n1},
            )
            node.add_children(c1, c2)
            node.bisection_index = bisections - 1
        # q1 stays on processor `start` with range [start, start+n1-1];
        # q2 is sent to processor start+n1 with range [start+n1, start+n-1].
        stack.append((q2, n2, start + n1, c2, depth + 1))
        stack.append((q1, n1, start, c1, depth + 1))

    leaves.sort(key=lambda item: item[1])
    pieces = [piece for piece, _, _ in leaves]
    ranges = [(start, start + n - 1) for _, start, n in leaves]
    free = [
        proc
        for (_, start, n) in leaves
        for proc in range(start + 1, start + n)
    ]
    return Partition(
        pieces=pieces,
        total_weight=total,
        n_processors=n_processors,
        algorithm="ba" if skip_threshold is None else "ba_prime",
        num_bisections=bisections,
        tree=BisectionTree(root_node) if root_node is not None else None,
        meta={
            "ranges": ranges,
            "depth": max_depth,
            "free_processors": free,
            "skip_threshold": skip_threshold,
        },
    )


def ba_final_weights(
    initial_weight: float,
    n_processors: int,
    draw_alpha: Callable[[], float],
    *,
    skip_threshold: Optional[float] = None,
) -> np.ndarray:
    """Float-only BA for the stochastic model of Section 4.

    ``draw_alpha()`` is called once per bisection (pre-order) and must
    return the lighter-child share ``α̂ ∈ (0, 1/2]``.  Returns the final
    weights (one per processor unless ``skip_threshold`` truncates).
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    check_initial_weight(initial_weight)
    out: List[float] = []
    stack: List[Tuple[float, int]] = [(float(initial_weight), n_processors)]
    while stack:
        w, n = stack.pop()
        if n == 1 or (skip_threshold is not None and w <= skip_threshold):
            out.append(w)
            continue
        a = draw_alpha()
        w2 = a * w
        w1 = w - w2
        if w1 < w2:  # draw > 1/2 would violate the convention; normalise
            w1, w2 = w2, w1
        n1, n2 = ba_split(w1, w2, n)
        stack.append((w2, n2))
        stack.append((w1, n1))
    return np.asarray(out, dtype=np.float64)
