"""Unit tests for the BisectableProblem abstraction (Definition 1)."""

import pytest

from repro.core.problem import (
    BisectableProblem,
    bisection_respects_alpha,
    check_alpha,
)
from repro.problems import FixedAlpha, SyntheticProblem


class CountingProblem(BisectableProblem):
    """Test double: counts how often the underlying split is computed."""

    def __init__(self, weight=1.0, share=0.4):
        super().__init__()
        self._w = weight
        self._share = share
        self.split_calls = 0

    @property
    def weight(self):
        return self._w

    def _bisect_once(self):
        self.split_calls += 1
        # deliberately return lighter child first: base class must reorder
        return (
            CountingProblem(self._share * self._w, self._share),
            CountingProblem((1 - self._share) * self._w, self._share),
        )


class TestCheckAlpha:
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1 / 3, 0.5])
    def test_valid(self, alpha):
        assert check_alpha(alpha) == pytest.approx(alpha)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.51, 1.0, 2.0])
    def test_invalid(self, alpha):
        with pytest.raises(ValueError):
            check_alpha(alpha)

    def test_returns_float(self):
        assert isinstance(check_alpha(0.25), float)


class TestBisectBehaviour:
    def test_bisect_is_idempotent(self):
        p = CountingProblem()
        a1, b1 = p.bisect()
        a2, b2 = p.bisect()
        assert a1 is a2 and b1 is b2
        assert p.split_calls == 1

    def test_heavier_child_first(self):
        p = CountingProblem(share=0.4)
        p1, p2 = p.bisect()
        assert p1.weight >= p2.weight
        assert p1.weight == pytest.approx(0.6)
        assert p2.weight == pytest.approx(0.4)

    def test_is_bisected_flag(self):
        p = CountingProblem()
        assert not p.is_bisected
        p.bisect()
        assert p.is_bisected

    def test_observed_alpha_is_lighter_share(self):
        p = CountingProblem(share=0.25)
        assert p.observed_alpha() == pytest.approx(0.25)

    def test_observed_alpha_at_most_half(self):
        p = SyntheticProblem(1.0, FixedAlpha(0.5), seed=0)
        assert p.observed_alpha() == pytest.approx(0.5)

    def test_alpha_default_none(self):
        assert CountingProblem().alpha is None

    def test_weight_conserved(self):
        p = CountingProblem(weight=3.5, share=0.3)
        a, b = p.bisect()
        assert a.weight + b.weight == pytest.approx(3.5)


class TestBisectionRespectsAlpha:
    def test_good_bisection_passes(self):
        p = CountingProblem(share=0.4)
        assert bisection_respects_alpha(p, 0.35)

    def test_too_strict_alpha_fails(self):
        p = CountingProblem(share=0.4)
        assert not bisection_respects_alpha(p, 0.45)

    def test_boundary_alpha_passes(self):
        p = CountingProblem(share=0.4)
        assert bisection_respects_alpha(p, 0.4)

    def test_conservation_violation_detected(self):
        class Leaky(CountingProblem):
            def _bisect_once(self):
                return CountingProblem(0.4), CountingProblem(0.4)

        assert not bisection_respects_alpha(Leaky(1.0), 0.1)


# ----------------------------------------------------------------------
# One algorithm-name normaliser behind every entry point
# ----------------------------------------------------------------------


def _name_sites():
    import numpy as np

    from repro.core.bounds import bound_for
    from repro.core.lower_bounds import _run
    from repro.experiments.stochastic import normalize_algorithm
    from repro.problems import prescribed_problem
    from repro.simulator import fastpath_counters, fastpath_supported, simulate

    draws = np.full((1, 7), 0.3)
    return {
        "normalize_algorithm": normalize_algorithm,
        "bound_for": lambda name: bound_for(name, 0.3, 8),
        "lower_bounds._run": lambda name: _run(name, 0.3, 8, draws[0], 1.0),
        "prescribed_problem": lambda name: prescribed_problem(
            name, 8, draws[0], alpha=0.3
        ),
        "simulate": lambda name: simulate(
            name, SyntheticProblem(1.0, FixedAlpha(0.3), seed=1), 8, alpha=0.3
        ),
        "fastpath_supported": fastpath_supported,
        "fastpath_counters": lambda name: fastpath_counters(
            name, 8, draws, alpha=0.3
        ),
    }


@pytest.mark.parametrize(
    "site",
    [
        "normalize_algorithm",
        "bound_for",
        "lower_bounds._run",
        "prescribed_problem",
        "simulate",
        "fastpath_supported",
        "fastpath_counters",
    ],
)
def test_every_site_normalises_algorithm_names_alike(site):
    call = _name_sites()[site]
    call("BA-HF")
    call("ba_hf")
    with pytest.raises(ValueError, match=r"^unknown algorithm 'xyz'$"):
        call("xyz")
