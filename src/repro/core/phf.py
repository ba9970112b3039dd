"""Algorithm PHF ("Parallel HF") -- Figure 2, logical (round-level) form.

PHF parallelises HF while producing *exactly the same partition*
(Theorem 3).  It runs in two phases:

**Phase 1** -- every subproblem heavier than the threshold

    T = w(p) · r_α / N

is certainly bisected by sequential HF (Theorem 2 caps HF's final maximum
at T), so such subproblems may be bisected eagerly and concurrently; one of
the two children is shipped to a free processor.  Phase 1 ends when all
pieces weigh at most T; its duration is the depth of the phase-1 bisection
tree, at most ``log_{1/(1-α)} N``.

**Phase 2** -- let ``f`` be the number of still-free processors.  Repeat:
compute the maximum remaining weight ``m`` (a global reduction); let ``h``
be the number of pieces with weight ≥ ``m·(1-α)`` (the *band*).  If
``h ≤ f`` all band members are bisected concurrently; otherwise only the
``f`` heaviest (a global selection).  ``f -= min(h, f)``.  No bisection in
an iteration can create a piece heavier than ``m·(1-α)``, so every piece
bisected here is also bisected by sequential HF, in a compatible order.
At most ``(1/α)·ln(1/α)`` iterations are needed, each costing ``O(log N)``
for the collectives.

This module implements PHF at the *round* level: it performs the same
bisections in the same round structure and reports round/collective counts,
but does not model point-to-point message timing -- that is the job of
:mod:`repro.simulator.des`, which runs PHF on the discrete-event
machine.  Both produce the identical partition (tested).

:func:`phf_prescription` is the draw convention of PHF with the central
phase 1 on one row of α̂ draws: the flat bisection tree that both the
DES oracle (through :func:`repro.problems.prescribed.phf_draw_tree`)
and the fastpath's event replay evaluate.  An invalid α that exhausts
phase 1 raises :class:`SimulationError` with one message everywhere.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.bounds import r_alpha
from repro.core.partition import Partition
from repro.core.problem import BisectableProblem, check_alpha, check_initial_weight
from repro.core.tree import BisectionNode, BisectionTree

__all__ = [
    "run_phf",
    "phf_threshold",
    "phf_prescription",
    "SimulationError",
    "PHASE1_EXHAUSTED",
]


class SimulationError(RuntimeError):
    """Raised when a simulated execution violates model invariants."""


#: The one error message for an exhausted phase 1, on every engine.
PHASE1_EXHAUSTED = (
    "phase 1 ran out of free processors: the declared alpha is "
    "not a valid guarantee for this problem class"
)


def phf_threshold(total_weight: float, alpha: float, n_processors: int) -> float:
    """Phase-1 threshold ``T = w(p) · r_α / N`` (Theorem 2's final bound)."""
    if total_weight <= 0:
        raise ValueError(f"total weight must be positive, got {total_weight}")
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    return total_weight * r_alpha(alpha) / n_processors


def phf_prescription(
    n_processors: int,
    row,
    *,
    alpha: float,
    keep: str = "heavy",
    initial_weight: float = 1.0,
) -> Tuple[List[float], List[Optional[Tuple[int, int]]]]:
    """Central PHF's bisection tree on one draw row, as flat tables.

    Node ``0`` is the root; ``weight[i]`` is node ``i``'s weight and
    ``children[i]`` its ``(heavy, light)`` child ids, or ``None`` for a
    leaf; ``keep`` names the child a bisecting processor keeps
    (``"heavy"`` or ``"light"``).  The draw order is the chronology of the idealised central
    phase 1 (the paper's timing-analysis assumption):

    * phase 1 bisects over-threshold pieces generation by generation in
      breadth-first event order (each parent's shipped child is
      scheduled before its kept child), acquiring processors ``2, 3,
      ...`` in that same order;
    * phase 2 bisects, per round, the band of pieces within ``1 - α`` of
      the maximum, ordered by ``(-weight, processor)``, the destinations
      being the free processors in ascending order.

    Splits conserve weight (``w2 = a·w; w1 = w - w2``, heavier first,
    as in :func:`repro.core.ba.ba_final_weights`) and exactly
    ``n_processors - 1`` draws are consumed.  Phase 1 proceeds in
    generation lockstep for any non-negative machine costs, so its part
    of the tree is the same on every machine and topology.  Phase 2's is
    not always: its band order breaks weight ties by processor, and on a
    topology the DES numbers processors in event order, not in this
    idealised acquisition order.  When tied weights straddle a truncated
    round (more band pieces than free processors) the two can pick
    different pieces, and the DES then bisects a prescribed leaf and
    raises.  The complete network, where the two numberings agree, is
    never affected.  Raises
    :class:`SimulationError` if phase 1 runs out of processors (the
    draws violate the declared α).
    """
    n = n_processors
    w0 = check_initial_weight(initial_weight)
    threshold = phf_threshold(w0, alpha, n)
    keep_heavy = keep == "heavy"
    draws = np.asarray(row, dtype=np.float64)[: max(0, n - 1)].tolist()
    if len(draws) < n - 1:
        raise ValueError(f"need {n - 1} draws, got {len(draws)}")
    weight: List[float] = [w0]
    children: List[Optional[Tuple[int, int]]] = [None]

    def split(nid: int, a: float) -> Tuple[int, int]:
        """Bisect node ``nid``; returns the (kept, shipped) child ids."""
        wq = weight[nid]
        w2 = a * wq
        w1 = wq - w2
        if w1 < w2:
            w1, w2 = w2, w1
        hid = len(weight)
        weight.extend((w1, w2))
        children.extend((None, None))
        children[nid] = (hid, hid + 1)
        return (hid, hid + 1) if keep_heavy else (hid + 1, hid)

    idx = 0  # next draw (== acquisitions so far)
    pieces = {}  # processor -> node id
    frontier = [(0, 1)]
    while frontier:
        nxt = []
        for nid, proc in frontier:
            if weight[nid] <= threshold:
                pieces[proc] = nid
                continue
            if idx + 2 > n:
                raise SimulationError(PHASE1_EXHAUSTED)
            kept, shipped = split(nid, draws[idx])
            idx += 1
            nxt.append((shipped, idx + 1))  # k-th acquisition -> P_{k+1}
            nxt.append((kept, proc))
        frontier = nxt

    free = iter([p for p in range(1, n + 1) if p not in pieces])
    f = n - len(pieces)
    while f > 0:
        band_lo = max(weight[nid] for nid in pieces.values()) * (1.0 - alpha)
        band = sorted(
            (p for p, nid in pieces.items() if weight[nid] >= band_lo),
            key=lambda p: (-weight[pieces[p]], p),
        )[:f]
        for p in band:
            dst = next(free)
            kept, shipped = split(pieces[p], draws[idx])
            idx += 1
            pieces[p] = kept
            pieces[dst] = shipped
        f -= len(band)

    if idx != n - 1:  # pragma: no cover - internal invariant
        raise RuntimeError(f"phf prescription consumed {idx} draws, expected {n - 1}")
    return weight, children


def run_phf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    alpha: Optional[float] = None,
    record_tree: bool = False,
) -> Partition:
    """Partition ``problem`` with Algorithm PHF.

    ``alpha`` defaults to the problem's declared family guarantee and must
    be a *valid* guarantee: if any bisection performed turns out worse than
    α the algorithm raises ``ValueError`` (an invalid α voids Theorem 2's
    threshold argument and PHF could run out of processors).

    ``meta`` records ``phase1_rounds``, ``phase2_rounds``,
    ``phase1_bisections``, ``phase2_bisections`` and the per-round band
    sizes -- the quantities the O(log N) running-time argument is about.
    """
    if alpha is None:
        alpha = problem.alpha
    if alpha is None:
        raise ValueError(
            "PHF needs the bisector parameter alpha; the problem does not "
            "declare one -- pass alpha= explicitly"
        )
    alpha = check_alpha(alpha)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    total = problem.weight
    threshold = phf_threshold(total, alpha, n_processors)

    root_node = BisectionNode(weight=total, payload=problem) if record_tree else None

    # ------------------------------------------------------------------
    # Phase 1: round-synchronously bisect everything above the threshold.
    # ------------------------------------------------------------------
    # Pieces are (problem, tree_node) pairs.
    pieces: List[Tuple[BisectableProblem, Optional[BisectionNode]]] = [
        (problem, root_node)
    ]
    phase1_rounds = 0
    phase1_bisections = 0
    while True:
        heavy_idx = [i for i, (q, _) in enumerate(pieces) if q.weight > threshold]
        if not heavy_idx:
            break
        phase1_rounds += 1
        new_pieces: List[Tuple[BisectableProblem, Optional[BisectionNode]]] = []
        for i, (q, node) in enumerate(pieces):
            if q.weight <= threshold:
                new_pieces.append((q, node))
                continue
            q1, q2 = _bisect_checked(q, alpha)
            phase1_bisections += 1
            c1, c2 = _record(node, q1, q2)
            new_pieces.append((q1, c1))
            new_pieces.append((q2, c2))
        pieces = new_pieces
        if len(pieces) > n_processors:
            raise ValueError(
                "phase 1 produced more pieces than processors: the supplied "
                f"alpha={alpha} is not a valid guarantee for this problem "
                "class (Theorem 2 threshold violated)"
            )

    # ------------------------------------------------------------------
    # Phase 2: band-peeling rounds.
    # ------------------------------------------------------------------
    f = n_processors - len(pieces)
    phase2_rounds = 0
    phase2_bisections = 0
    band_sizes: List[int] = []
    while f > 0:
        phase2_rounds += 1
        m = max(q.weight for q, _ in pieces)  # collective max-reduction
        band = [i for i, (q, _) in enumerate(pieces) if q.weight >= m * (1.0 - alpha)]
        h = len(band)
        band_sizes.append(h)
        if h > f:
            # Select the f heaviest (collective selection); stable order for
            # determinism when weights tie.
            band.sort(key=lambda i: (-pieces[i][0].weight, i))
            band = band[:f]
        chosen = set(band)
        new_pieces = []
        for i, (q, node) in enumerate(pieces):
            if i not in chosen:
                new_pieces.append((q, node))
                continue
            q1, q2 = _bisect_checked(q, alpha)
            phase2_bisections += 1
            c1, c2 = _record(node, q1, q2)
            new_pieces.append((q1, c1))
            new_pieces.append((q2, c2))
        pieces = new_pieces
        f -= min(h, f)

    return Partition(
        pieces=[q for q, _ in pieces],
        total_weight=total,
        n_processors=n_processors,
        algorithm="phf",
        num_bisections=phase1_bisections + phase2_bisections,
        tree=BisectionTree(root_node) if root_node is not None else None,
        meta={
            "alpha": alpha,
            "threshold": threshold,
            "phase1_rounds": phase1_rounds,
            "phase1_bisections": phase1_bisections,
            "phase2_rounds": phase2_rounds,
            "phase2_bisections": phase2_bisections,
            "band_sizes": band_sizes,
        },
    )


def _bisect_checked(
    q: BisectableProblem, alpha: float
) -> Tuple[BisectableProblem, BisectableProblem]:
    """Bisect and verify the α-guarantee (PHF's correctness depends on it)."""
    q1, q2 = q.bisect()
    if q2.weight < alpha * q.weight * (1.0 - 1e-12):
        raise ValueError(
            f"bisection produced a child with share "
            f"{q2.weight / q.weight:.6g} < alpha={alpha}: the declared "
            "guarantee is invalid for this problem class"
        )
    return q1, q2


def _record(
    node: Optional[BisectionNode],
    q1: BisectableProblem,
    q2: BisectableProblem,
) -> Tuple[Optional[BisectionNode], Optional[BisectionNode]]:
    if node is None:
        return None, None
    c1 = BisectionNode(weight=q1.weight, payload=q1)
    c2 = BisectionNode(weight=q2.weight, payload=q2)
    node.add_children(c1, c2)
    return c1, c2
