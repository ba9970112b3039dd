"""Samplers for the stochastic bisection model of Section 4.

The paper's average-case model: "the actual bisection parameter α̂ is drawn
uniformly at random from the interval [a, b], 0 < a ≤ b ≤ 1/2, and all
N-1 bisection steps are independent and identically distributed".

A sampler maps a ``numpy.random.Generator`` to a draw α̂ ∈ (0, 1/2]; it also
declares the *guaranteed* bisector parameter of the family it induces
(``alpha`` = the essential infimum of its support), which PHF and BA-HF
consume.  Samplers are immutable, hashable and cheaply vectorised
(``sample_many``) for the Monte-Carlo fast paths.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.problem import check_alpha

__all__ = [
    "AlphaSampler",
    "UniformAlpha",
    "FixedAlpha",
    "BetaAlpha",
    "DiscreteAlpha",
]


class AlphaSampler(ABC):
    """Distribution of the per-bisection lighter-child share α̂."""

    @property
    @abstractmethod
    def alpha(self) -> float:
        """Guaranteed lower bound of the support (the class's α)."""

    @property
    @abstractmethod
    def beta(self) -> float:
        """Upper bound of the support (≤ 1/2)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """One draw α̂ ∈ [alpha, beta]."""

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws (subclasses override with vector code)."""
        return np.array([self.sample(rng) for _ in range(size)])

    def sample_trial_matrix(
        self, rngs: Sequence[np.random.Generator], n_draws: int
    ) -> np.ndarray:
        """The batched-kernel draw matrix: row ``t`` from ``rngs[t]``.

        Returns a ``(len(rngs), n_draws)`` array in which row ``t``
        contains the first ``n_draws`` values of ``rngs[t]``'s stream --
        exactly what the scalar trial for generator ``rngs[t]`` would
        consume -- so batched kernels reproduce per-trial results
        bit-for-bit no matter how trials are chunked across workers.
        """
        if not rngs:
            raise ValueError("need at least one generator")
        if n_draws < 0:
            raise ValueError(f"n_draws must be non-negative, got {n_draws}")
        out = np.empty((len(rngs), n_draws), dtype=np.float64)
        for t, rng in enumerate(rngs):
            out[t] = self.sample_many(rng, n_draws)
        return out

    def describe(self) -> str:
        """Short label used in tables ("U[0.10,0.50]", "δ(0.30)", ...)."""
        return repr(self)


@dataclass(frozen=True)
class UniformAlpha(AlphaSampler):
    """α̂ ~ U[low, high] -- the paper's model.  ``0 < low ≤ high ≤ 1/2``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        check_alpha(self.low)
        check_alpha(self.high)
        if self.low > self.high:
            raise ValueError(f"low must be <= high, got [{self.low}, {self.high}]")

    @property
    def alpha(self) -> float:
        return self.low

    @property
    def beta(self) -> float:
        return self.high

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def describe(self) -> str:
        return f"U[{self.low:g},{self.high:g}]"


@dataclass(frozen=True)
class FixedAlpha(AlphaSampler):
    """Deterministic α̂ = value (the worst-case adversary for theorems)."""

    value: float

    def __post_init__(self) -> None:
        check_alpha(self.value)

    @property
    def alpha(self) -> float:
        return self.value

    @property
    def beta(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def describe(self) -> str:
        return f"δ({self.value:g})"


@dataclass(frozen=True)
class BetaAlpha(AlphaSampler):
    """α̂ = low + (high-low)·Beta(a, b): a skewable alternative to uniform.

    Used in robustness studies: the paper's findings should not hinge on the
    uniform shape, only on the support.
    """

    a: float
    b: float
    low: float = 0.01
    high: float = 0.5

    def __post_init__(self) -> None:
        check_alpha(self.low)
        check_alpha(self.high)
        if self.low > self.high:
            raise ValueError(f"low must be <= high, got [{self.low}, {self.high}]")
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"shape parameters must be positive, got {self.a}, {self.b}")

    @property
    def alpha(self) -> float:
        return self.low

    @property
    def beta(self) -> float:
        return self.high

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.low + (self.high - self.low) * rng.beta(self.a, self.b))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.low + (self.high - self.low) * rng.beta(self.a, self.b, size=size)

    def describe(self) -> str:
        return f"Beta({self.a:g},{self.b:g})->[{self.low:g},{self.high:g}]"


@dataclass(frozen=True)
class DiscreteAlpha(AlphaSampler):
    """α̂ drawn from a finite set with given probabilities."""

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("need at least one value")
        for v in self.values:
            check_alpha(v)
        probs = self.probabilities or tuple(1.0 / len(self.values) for _ in self.values)
        if len(probs) != len(self.values):
            raise ValueError("probabilities must match values in length")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be non-negative")
        object.__setattr__(self, "probabilities", probs)

    @property
    def alpha(self) -> float:
        return min(v for v, p in zip(self.values, self.probabilities) if p > 0)

    @property
    def beta(self) -> float:
        return max(v for v, p in zip(self.values, self.probabilities) if p > 0)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self.values, p=self.probabilities))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.values, p=self.probabilities, size=size)

    def describe(self) -> str:
        vals = ",".join(f"{v:g}" for v in self.values)
        return f"D({vals})"
