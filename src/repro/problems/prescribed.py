"""Problems whose bisections are prescribed by a row of α̂ draws.

The fastpath equivalence harness (tests/test_fastpath.py) and the study
engines need the DES oracle and the closed-form kernels of
:mod:`repro.simulator.fastpath` to evaluate *the same problem instance*
for the same ``(trial, algorithm, N)`` cell: trial ``t``'s instance is
fully determined by row ``t`` of a ``sampler.sample_trial_matrix`` draw
matrix (the batched-sampler convention of :mod:`repro.core.batch`).

Three draw conventions, each the one its batched kernel reads:

* **HF** consumes draws in bisection-call order.  Sequential HF is a
  pure heap loop, so that order does not depend on the machine: the
  instance is a :class:`CursorProblem` over ``row[0 : N - 1]``.
* **BA** reads the DFS pre-order offsets of
  :func:`repro.core.batch.ba_final_weights_batch`.  A node owning ``k``
  processors at offset ``off`` bisects with ``row[off]``; its heavy child
  (``n1 = ba_split(w1, w2, k)`` processors) sits at ``off + 1`` and its
  light child at ``off + n1``.  **BA-HF** (Figure 4) is the same walk
  while a piece owns at least ``λ/α + 1`` processors; a piece below that
  threshold is an HF job, a :class:`CursorProblem` over
  ``row[off : off + k - 1]``.  HF and BA are its two limits: threshold
  ``∞`` (the root is the HF job) and ``2`` (only one-processor leaves,
  which never bisect).  The offsets depend only on the tree's shape, so
  these nodes are made on demand in whatever order the DES asks for
  them -- its event chronology depends on machine costs and topology --
  and the instance stays machine-independent.
* **PHF** draws in the chronology of the idealised central phase 1
  (breadth-first bisection order, then phase-2 bands round by round),
  which depends on the phase: :func:`phf_draw_tree` pre-builds the tree
  from :func:`repro.core.phf.phf_prescription`'s tables.

Split arithmetic mirrors the scalar kernels bit for bit: HF-job splits
use the *complement* rule ``(1 - a)·w`` / ``a·w`` (as in
``hf_final_weights``); BA/PHF-style splits use the *conserving* rule
``w2 = a·w; w1 = w - w2`` (as in ``ba_final_weights``).  Bisecting past
the prescription raises ``ValueError``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.ba import ba_split
from repro.core.bahf import bahf_threshold
from repro.core.phf import phf_prescription
from repro.core.problem import (
    BisectableProblem,
    check_alpha,
    check_initial_weight,
    normalize_algorithm,
)

__all__ = [
    "DrawCursor",
    "CursorProblem",
    "PrescribedNode",
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
            raise ValueError("draw cursor exhausted: bisected past the draw prescription")
        value = float(self._row[self._pos])
        self._pos += 1
        return value

    @property
    def position(self) -> int:
        return self._pos


class CursorProblem(BisectableProblem):
    """An HF job: each bisection takes the next draw of a shared cursor.

    Sequential HF consumes draws in bisection-call order on every
    machine, so one :class:`DrawCursor` over the job's window serves all
    of the job's pieces.  Draw ``a`` splits weight ``w`` into
    ``((1 - a)·w, a·w)``, the ``hf_final_weights`` arithmetic; the base
    class normalises the pair heavier-first.
    """

    def __init__(
        self, weight: float, cursor: DrawCursor, *, alpha: Optional[float] = None
    ) -> None:
        super().__init__()
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._weight = float(weight)
        self._cursor = cursor
        self._alpha = None if alpha is None else check_alpha(alpha)

    @property
    def weight(self) -> float:
        return self._weight

    def _bisect_once(self) -> Tuple["CursorProblem", "CursorProblem"]:
        a = self._cursor.next()
        w = self._weight
        return (
            CursorProblem((1.0 - a) * w, self._cursor, alpha=self._alpha),
            CursorProblem(a * w, self._cursor, alpha=self._alpha),
        )


class _RowNode(BisectableProblem):
    """A BA-phase piece: ``k >= threshold`` processors at draw offset ``off``."""

    def __init__(
        self,
        weight: float,
        k: int,
        off: int,
        row: np.ndarray,
        threshold: float,
        alpha: Optional[float],
    ) -> None:
        super().__init__()
        self._weight = weight
        self._k = k
        self._off = off
        self._row = row
        self._threshold = threshold
        self._alpha = None if alpha is None else check_alpha(alpha)

    @property
    def weight(self) -> float:
        return self._weight

    def _bisect_once(self) -> Tuple[BisectableProblem, BisectableProblem]:
        w, off = self._weight, self._off
        w2 = float(self._row[off]) * w
        w1 = w - w2
        if w1 < w2:
            w1, w2 = w2, w1
        n1, n2 = ba_split(w1, w2, self._k)
        row, threshold, alpha = self._row, self._threshold, self._alpha
        return (
            _piece(w1, n1, off + 1, row, threshold, alpha),
            _piece(w2, n2, off + n1, row, threshold, alpha),
        )


def _piece(
    weight: float,
    k: int,
    off: int,
    row: np.ndarray,
    threshold: float,
    alpha: Optional[float],
) -> BisectableProblem:
    """The piece of ``weight`` owning ``k`` processors at draw offset ``off``."""
    if k < threshold:
        return CursorProblem(weight, DrawCursor(row, off, off + k - 1), alpha=alpha)
    return _RowNode(weight, k, off, row, threshold, alpha)


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
    ``row`` must hold at least ``n_processors - 1`` draws.
    """
    key = normalize_algorithm(algorithm)
    initial_weight = check_initial_weight(initial_weight)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    row = np.asarray(row, dtype=np.float64)
    if row.shape[0] < n_processors - 1:
        raise ValueError(f"need {n_processors - 1} draws, got {row.shape[0]}")
    if key in ("bahf", "phf") and alpha is None:
        raise ValueError(f"{key} prescription needs alpha")
    if key == "phf":
        return phf_draw_tree(
            n_processors, row, alpha=alpha, keep=keep, initial_weight=initial_weight
        )
    if key == "hf":
        threshold = math.inf
    elif key == "ba":
        threshold = 2.0
    else:
        threshold = bahf_threshold(alpha, lam)
    return _piece(initial_weight, n_processors, 0, row, threshold, alpha)
