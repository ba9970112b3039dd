"""Small integer/float helpers shared across the library."""

from __future__ import annotations

import math

__all__ = [
    "ceil_div",
    "ilog2",
    "is_power_of_two",
    "next_power_of_two",
    "feq",
    "is_zero",
    "check_probability",
    "check_finite_nonneg",
]

#: Default relative tolerance for float comparisons: weights and ratios
#: accumulate O(n) rounding steps, so 1e-9 is comfortably above double
#: rounding noise yet far below any physically meaningful difference.
DEFAULT_REL_TOL = 1e-9

#: Default absolute tolerance for comparisons against zero.
DEFAULT_ABS_TOL = 1e-12


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def ilog2(n: int) -> int:
    """``⌈log2 n⌉`` for ``n ≥ 1`` (0 for ``n == 1``).

    This is the exponent used by the logarithmic-cost collective model:
    a collective over ``n`` processors costs ``c · ilog2(n)`` time units.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``≥ n`` (``n ≥ 1``)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << ilog2(n)


def feq(
    a: float,
    b: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> bool:
    """Tolerance-based float equality (the R004-sanctioned ``==``).

    Weights and ratios accumulate rounding differently along different
    merge orders, so exact ``==`` makes results depend on ``n_jobs``;
    every float equality test in core/metrics code routes through here.
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def is_zero(x: float, *, abs_tol: float = DEFAULT_ABS_TOL) -> bool:
    """Whether ``x`` is zero up to absolute tolerance ``abs_tol``.

    Relative tolerance is meaningless against zero, so this is a pure
    absolute-threshold test (``abs_tol=0.0`` recovers exact ``== 0``).
    """
    return abs(x) <= abs_tol


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_probability(name: str, value: float) -> float:
    """Validate a probability: a real number in ``[0, 1]``.  Returns a float."""
    if not (_is_real(value) and 0.0 <= value <= 1.0):  # also rejects NaN
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def check_finite_nonneg(name: str, value: float) -> float:
    """Validate a duration or factor: finite and ``>= 0``.  Returns a float."""
    if not (_is_real(value) and 0.0 <= value < math.inf):  # also rejects NaN
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return float(value)
