"""Problems whose bisections are prescribed by a row of α̂ draws.

The fastpath equivalence harness (tests/test_fastpath.py) and the study
engines need the DES oracle and the closed-form kernels of
:mod:`repro.simulator.fastpath` to evaluate *the same problem instance*
for the same ``(trial, algorithm, N)`` cell: trial ``t``'s instance is
fully determined by row ``t`` of a ``sampler.sample_trial_matrix`` draw
matrix (the batched-sampler convention of :mod:`repro.core.batch`).

Two delivery mechanisms, chosen per algorithm:

* :class:`CursorProblem` hands out draws lazily from a shared cursor, in
  bisection-call order.  This is only sound when the algorithm's draw
  consumption order is independent of the machine configuration -- true
  for sequential HF (``run_hf`` is a pure heap loop) and for BA-HF's
  local HF jobs, and exactly the order the batched kernels assume.
* the ``*_draw_tree`` builders *pre-build* the bisection tree with the
  algorithm's analytic draw-index convention, so the DES (whose event
  chronology -- and hence on-line draw order -- depends on machine costs
  and topology) sees cached children everywhere and the instance stays
  machine-independent.  BA/BA-HF use the DFS pre-order offsets of
  :func:`repro.core.batch.ba_final_weights_batch` (heavy child at
  ``off + 1``, light child at ``off + n1``); PHF uses the phase-ordered
  convention of the central phase-1 strategy (breadth-first bisection
  order, then phase-2 band order round by round).

Split arithmetic mirrors the scalar kernels bit for bit: HF-style splits
use the *complement* rule ``(1 - a)·w`` / ``a·w`` (as in
``hf_final_weights``); BA/PHF-style splits use the *conserving* rule
``w2 = a·w; w1 = w - w2`` (as in ``ba_final_weights``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.ba import ba_split
from repro.core.bahf import bahf_threshold
from repro.core.phf import phf_prescription
from repro.core.problem import BisectableProblem, check_alpha, normalize_algorithm

__all__ = [
    "DrawCursor",
    "CursorProblem",
    "PrescribedNode",
    "hf_draw_problem",
    "ba_draw_tree",
    "bahf_draw_tree",
    "phf_draw_tree",
    "prescribed_problem",
]


class DrawCursor:
    """Sequential reader over a slice of one draw row."""

    __slots__ = ("_row", "_pos", "_stop")

    def __init__(self, row: np.ndarray, start: int = 0, stop: Optional[int] = None):
        self._row = np.asarray(row, dtype=np.float64)
        if stop is None:
            stop = self._row.shape[0]
        if not (0 <= start <= stop <= self._row.shape[0]):
            raise ValueError(
                f"invalid cursor window [{start}, {stop}) over {self._row.shape[0]} draws"
            )
        self._pos = start
        self._stop = stop

    def next(self) -> float:
        if self._pos >= self._stop:
            raise ValueError("draw cursor exhausted: row has too few draws")
        value = float(self._row[self._pos])
        self._pos += 1
        return value

    @property
    def position(self) -> int:
        return self._pos


class CursorProblem(BisectableProblem):
    """Bisectable problem fed by a shared :class:`DrawCursor`.

    ``split="complement"`` produces children ``((1 - a)·w, a·w)`` (the
    ``hf_final_weights`` arithmetic); ``split="conserve"`` produces
    ``w2 = a·w; w1 = w - w2`` (the ``ba_final_weights`` arithmetic).
    The base class normalises the returned pair heavier-first.
    """

    def __init__(
        self,
        weight: float,
        cursor: DrawCursor,
        *,
        split: str = "conserve",
        alpha: Optional[float] = None,
    ) -> None:
        super().__init__()
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if split not in ("complement", "conserve"):
            raise ValueError(f"split must be 'complement' or 'conserve', got {split!r}")
        self._weight = float(weight)
        self._cursor = cursor
        self._split = split
        self._alpha = None if alpha is None else check_alpha(alpha)

    @property
    def weight(self) -> float:
        return self._weight

    def _bisect_once(self) -> Tuple["CursorProblem", "CursorProblem"]:
        a = self._cursor.next()
        w = self._weight
        if self._split == "complement":
            w1 = (1.0 - a) * w
            w2 = a * w
        else:
            w2 = a * w
            w1 = w - w2
        make = lambda ww: CursorProblem(  # noqa: E731 - tiny local factory
            ww, self._cursor, split=self._split, alpha=self._alpha
        )
        return make(w1), make(w2)


class PrescribedNode(BisectableProblem):
    """Tree node with pre-built children (or a leaf of the prescription).

    ``bisect()`` on a node the builder did not expand raises: the
    algorithm consuming the tree asked for a bisection the prescription
    says it must never perform (a convention violation, not a valid run).
    """

    __slots__ = ("_weight",)

    def __init__(self, weight: float, *, alpha: Optional[float] = None) -> None:
        super().__init__()
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._weight = float(weight)
        if alpha is not None:
            self._alpha = check_alpha(alpha)

    @property
    def weight(self) -> float:
        return self._weight

    def set_children(self, c1: BisectableProblem, c2: BisectableProblem) -> None:
        if self._children is not None:
            raise ValueError("children already prescribed for this node")
        if c2.weight > c1.weight:
            c1, c2 = c2, c1
        self._children = (c1, c2)

    def _bisect_once(self) -> Tuple[BisectableProblem, BisectableProblem]:
        raise ValueError(
            "prescribed leaf bisected: the consuming algorithm deviated from "
            "the draw prescription"
        )


def _conserving_split(w: float, a: float) -> Tuple[float, float]:
    """``w2 = a·w; w1 = w - w2``, heavier first (ba_final_weights order)."""
    w2 = a * w
    w1 = w - w2
    if w1 < w2:
        w1, w2 = w2, w1
    return w1, w2


def hf_draw_problem(
    n_processors: int,
    row: np.ndarray,
    *,
    initial_weight: float = 1.0,
    alpha: Optional[float] = None,
) -> CursorProblem:
    """HF instance: lazy cursor, complement splits, heap-order consumption."""
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    row = np.asarray(row, dtype=np.float64)
    if row.shape[0] < n_processors - 1:
        raise ValueError(
            f"need {n_processors - 1} draws, got {row.shape[0]}"
        )
    cursor = DrawCursor(row, 0, n_processors - 1)
    return CursorProblem(initial_weight, cursor, split="complement", alpha=alpha)


def ba_draw_tree(
    n_processors: int,
    row: np.ndarray,
    *,
    initial_weight: float = 1.0,
    alpha: Optional[float] = None,
) -> PrescribedNode:
    """BA instance: pre-built tree with DFS pre-order draw offsets.

    Node at offset ``off`` owning ``k`` processors consumes ``row[off]``;
    its heavy child (kept on the same processor, ``n1`` processors) sits
    at ``off + 1`` and its light child (shipped) at ``off + n1`` --
    exactly :func:`repro.core.batch.ba_final_weights_batch`'s convention,
    which matches the scalar ``ba_final_weights`` DFS.
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    row = np.asarray(row, dtype=np.float64)
    if row.shape[0] < n_processors - 1:
        raise ValueError(f"need {n_processors - 1} draws, got {row.shape[0]}")
    root = PrescribedNode(initial_weight, alpha=alpha)
    stack: List[Tuple[PrescribedNode, int, int]] = [(root, n_processors, 0)]
    while stack:
        node, k, off = stack.pop()
        if k == 1:
            continue
        w1, w2 = _conserving_split(node.weight, float(row[off]))
        n1, n2 = ba_split(w1, w2, k)
        c1 = PrescribedNode(w1, alpha=alpha)
        c2 = PrescribedNode(w2, alpha=alpha)
        node.set_children(c1, c2)
        stack.append((c1, n1, off + 1))
        stack.append((c2, n2, off + n1))
    return root


def bahf_draw_tree(
    n_processors: int,
    row: np.ndarray,
    *,
    alpha: float,
    lam: float = 1.0,
    initial_weight: float = 1.0,
) -> BisectableProblem:
    """BA-HF instance: BA tree down to the λ/α threshold, HF jobs below.

    Sub-trees that BA-HF finishes with sequential HF (processor count
    ``k < λ/α + 1``) become :class:`CursorProblem` roots over the draw
    window ``[off, off + k - 1)`` with *complement* splits -- the local
    ``run_hf`` is a pure heap loop, so its consumption order is
    machine-independent and matches ``hf_final_weights`` draw for draw.
    """
    alpha = check_alpha(alpha)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    row = np.asarray(row, dtype=np.float64)
    if row.shape[0] < n_processors - 1:
        raise ValueError(f"need {n_processors - 1} draws, got {row.shape[0]}")
    threshold = bahf_threshold(alpha, lam)

    def build(weight: float, k: int, off: int) -> BisectableProblem:
        if k < threshold:
            cursor = DrawCursor(row, off, off + k - 1)
            return CursorProblem(weight, cursor, split="complement", alpha=alpha)
        node = PrescribedNode(weight, alpha=alpha)
        stack: List[Tuple[PrescribedNode, int, int]] = [(node, k, off)]
        while stack:
            parent, kk, o = stack.pop()
            w1, w2 = _conserving_split(parent.weight, float(row[o]))
            n1, n2 = ba_split(w1, w2, kk)
            if n1 < threshold:
                c1: BisectableProblem = CursorProblem(
                    w1, DrawCursor(row, o + 1, o + n1), split="complement", alpha=alpha
                )
            else:
                c1 = PrescribedNode(w1, alpha=alpha)
            if n2 < threshold:
                c2: BisectableProblem = CursorProblem(
                    w2,
                    DrawCursor(row, o + n1, o + n1 + n2 - 1),
                    split="complement",
                    alpha=alpha,
                )
            else:
                c2 = PrescribedNode(w2, alpha=alpha)
            parent.set_children(c1, c2)
            if isinstance(c1, PrescribedNode):
                stack.append((c1, n1, o + 1))
            if isinstance(c2, PrescribedNode):
                stack.append((c2, n2, o + n1))
        return node

    return build(float(initial_weight), n_processors, 0)


def phf_draw_tree(
    n_processors: int,
    row: np.ndarray,
    *,
    alpha: float,
    keep: str = "heavy",
    initial_weight: float = 1.0,
) -> PrescribedNode:
    """PHF instance: :func:`repro.core.phf.phf_prescription` as nodes.

    The prescription fixes the draw of every bisection-tree node in the
    chronology of the idealised central phase 1 (breadth-first phase-1
    generations, then phase-2 bands in ``(-weight, processor)`` order).
    That order is machine-cost independent, so the same tree is valid
    for every ``MachineConfig`` -- including topologies, where only the
    *timing* changes, never the draw-to-node assignment.  Raises
    :class:`~repro.core.phf.SimulationError` when the row exhausts
    phase 1's processors.
    """
    alpha = check_alpha(alpha)
    if keep not in ("heavy", "light"):
        raise ValueError(f"keep must be 'heavy' or 'light', got {keep!r}")
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    row = np.asarray(row, dtype=np.float64)
    if row.shape[0] < n_processors - 1:
        raise ValueError(f"need {n_processors - 1} draws, got {row.shape[0]}")

    weight, children = phf_prescription(
        n_processors, row, alpha=alpha, keep=keep, initial_weight=initial_weight
    )
    nodes = [PrescribedNode(w, alpha=alpha) for w in weight]
    for node, pair in zip(nodes, children):
        if pair is not None:
            node.set_children(nodes[pair[0]], nodes[pair[1]])
    return nodes[0]


def prescribed_problem(
    algorithm: str,
    n_processors: int,
    row: np.ndarray,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    initial_weight: float = 1.0,
) -> BisectableProblem:
    """The draw-prescribed instance for one ``(algorithm, N, trial)`` cell.

    ``algorithm`` is any spelling :func:`~repro.core.problem.normalize_algorithm`
    accepts (``hf``/``phf``/``ba``/``bahf``, ``"BA-HF"``, ...).
    ``alpha`` is required for ``phf`` and ``bahf`` (it shapes the
    prescription); for ``hf``/``ba`` it is only declared on the instance.
    """
    key = normalize_algorithm(algorithm)
    if key == "hf":
        return hf_draw_problem(
            n_processors, row, initial_weight=initial_weight, alpha=alpha
        )
    if key == "ba":
        return ba_draw_tree(
            n_processors, row, initial_weight=initial_weight, alpha=alpha
        )
    if key == "bahf":
        if alpha is None:
            raise ValueError("bahf prescription needs alpha")
        return bahf_draw_tree(
            n_processors, row, alpha=alpha, lam=lam, initial_weight=initial_weight
        )
    if alpha is None:
        raise ValueError("phf prescription needs alpha")
    return phf_draw_tree(
        n_processors, row, alpha=alpha, keep=keep, initial_weight=initial_weight
    )
