"""The problem abstraction: classes of problems with α-bisectors.

Definition 1 of the paper: a class ``P`` of problems with weight function
``w : P → R+`` has *α-bisectors* (``0 < α ≤ 1/2``) if every ``p ∈ P`` can be
efficiently divided into ``p1, p2 ∈ P`` with

    w(p1) + w(p2) = w(p)      and      w(p1), w(p2) ∈ [α·w(p), (1-α)·w(p)].

Concrete problem families live in :mod:`repro.problems`; the load-balancing
algorithms in :mod:`repro.core` only ever see this interface.

Design notes
------------
* ``bisect()`` must be **deterministic and idempotent**: calling it twice on
  the same node returns the same pair.  Theorem 3's guarantee that PHF
  produces *exactly* the partition of sequential HF only makes sense when a
  given subproblem bisects the same way regardless of which algorithm (or
  which simulated processor) performs the bisection.  Stochastic problem
  families achieve this by storing a per-node seed
  (see :func:`repro.utils.rng.child_seed`) and caching the children.
* ``alpha`` is the *guaranteed* bisector quality of the family the problem
  belongs to.  Individual bisections may be much better; the algorithms
  PHF and BA-HF need the guarantee (HF and BA do not -- the paper points
  out BA needs no knowledge of α).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

__all__ = [
    "BisectableProblem",
    "check_alpha",
    "check_initial_weight",
    "normalize_algorithm",
    "bisection_respects_alpha",
]

#: Canonical keys of the paper's four algorithms.
ALGORITHMS = ("hf", "phf", "ba", "bahf")


def check_alpha(alpha: float) -> float:
    """Validate a bisector parameter: ``0 < alpha <= 1/2``.

    Returns ``alpha`` unchanged so the call can be inlined in constructors.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must be in (0, 1/2], got {alpha}")
    return float(alpha)


def check_initial_weight(initial_weight: float) -> float:
    """Validate a root weight: finite and positive.  Returns it as a float."""
    w = float(initial_weight)
    if not 0.0 < w < math.inf:
        raise ValueError(
            f"initial_weight must be finite and positive, got {initial_weight}"
        )
    return w


def normalize_algorithm(algorithm: str) -> str:
    """Canonical key for an algorithm name ("BA-HF" / "ba_hf" -> "bahf")."""
    key = algorithm.lower().replace("-", "").replace("_", "")
    if key not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return key


class BisectableProblem(ABC):
    """Abstract base class for problems from a class with α-bisectors.

    Subclasses implement :attr:`weight` and :meth:`_bisect_once`; the base
    class provides child caching (idempotence), bisector-quality bookkeeping
    and the ``p1``-is-heavier normalisation used throughout the paper's
    pseudocode ("assume w.l.o.g. w(p1) ≥ w(p2)").
    """

    #: Guaranteed bisector parameter of the family; subclasses override or
    #: set per instance.  ``None`` means "unknown" (allowed for HF and BA).
    _alpha: Optional[float] = None

    def __init__(self) -> None:
        self._children: Optional[Tuple["BisectableProblem", "BisectableProblem"]] = None

    # ------------------------------------------------------------------
    # Interface to implement
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def weight(self) -> float:
        """The load ``w(p)`` of this problem (strictly positive)."""

    @abstractmethod
    def _bisect_once(self) -> Tuple["BisectableProblem", "BisectableProblem"]:
        """Split this problem into two subproblems (called at most once).

        Must satisfy ``w(p1) + w(p2) == w(p)`` up to floating-point error.
        Order of the returned pair is irrelevant; callers of
        :meth:`bisect` receive the heavier child first.
        """

    # ------------------------------------------------------------------
    # Provided behaviour
    # ------------------------------------------------------------------

    @property
    def alpha(self) -> Optional[float]:
        """Guaranteed bisector parameter of the family (or ``None``)."""
        return self._alpha

    @property
    def is_bisected(self) -> bool:
        """Whether :meth:`bisect` has already been invoked on this node."""
        return self._children is not None

    def bisect(self) -> Tuple["BisectableProblem", "BisectableProblem"]:
        """Split into ``(p1, p2)`` with ``w(p1) ≥ w(p2)``; idempotent."""
        if self._children is None:
            a, b = self._bisect_once()
            if b.weight > a.weight:
                a, b = b, a
            self._children = (a, b)
        return self._children

    def observed_alpha(self) -> float:
        """Actual bisection quality ``α̂ = w(p2) / w(p)`` of this node.

        Bisects the node if necessary.  Always in ``(0, 1/2]`` for a valid
        bisection (the lighter child's share).
        """
        _, p2 = self.bisect()
        return p2.weight / self.weight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} w={self.weight:.6g}>"


def bisection_respects_alpha(
    parent: BisectableProblem,
    alpha: float,
    *,
    rel_tol: float = 1e-9,
) -> bool:
    """Check Definition 1 for a single (already performed) bisection.

    Verifies weight conservation and that both children's weights lie in
    ``[α·w(p), (1-α)·w(p)]`` up to relative tolerance ``rel_tol``.
    """
    alpha = check_alpha(alpha)
    p1, p2 = parent.bisect()
    w = parent.weight
    slack = rel_tol * w
    if abs((p1.weight + p2.weight) - w) > slack:
        return False
    lo, hi = alpha * w - slack, (1.0 - alpha) * w + slack
    return lo <= p2.weight and p1.weight <= hi
