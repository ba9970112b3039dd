"""Property-based tests (hypothesis) for the core invariants.

The headline properties mirror the theorems:

* Theorem 2: HF's ratio never exceeds ``r_α`` for any draw sequence with
  all shares ≥ α.
* Lemma 4:  BA's per-step processor split is optimal and within w/(N-1).
* Theorem 7: BA's ratio never exceeds its bound.
* Theorem 8: BA-HF's ratio never exceeds its bound, for any λ.
* Theorem 3: PHF ≡ HF on arbitrary synthetic instances.
* conservation: every algorithm's piece weights sum to the input weight.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ba_bound,
    ba_final_weights,
    ba_split,
    ba_step_bound,
    bahf_bound,
    bahf_final_weights,
    hf_bound,
    hf_final_weights,
    run_hf,
    run_phf,
)
from repro.core.metrics import summarize_ratios
from repro.core.tree import BisectionNode, BisectionTree
from repro.problems import SyntheticProblem, UniformAlpha
from repro.utils.rng import split_seed

# -- strategies ---------------------------------------------------------

alphas = st.floats(min_value=0.02, max_value=0.5, exclude_min=False)
ns = st.integers(min_value=1, max_value=200)


def draws_strategy(alpha, size):
    return st.lists(
        st.floats(min_value=alpha, max_value=0.5),
        min_size=size,
        max_size=size,
    )


# -- Theorem 2 ----------------------------------------------------------


class TestTheorem2Property:
    @given(alpha=alphas, n=ns, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_hf_ratio_within_r_alpha(self, alpha, n, data):
        draws = data.draw(draws_strategy(alpha, max(0, n - 1)))
        weights = hf_final_weights(1.0, n, np.asarray(draws))
        ratio = weights.max() * n
        assert ratio <= hf_bound(alpha, n) * (1 + 1e-9)

    @given(alpha=alphas, n=ns, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hf_conserves_weight(self, alpha, n, data):
        draws = data.draw(draws_strategy(alpha, max(0, n - 1)))
        weights = hf_final_weights(1.0, n, np.asarray(draws))
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) == n
        assert (weights > 0).all()


# -- Lemma 4 / BA split -------------------------------------------------


class TestBASplitProperty:
    @given(
        w2=st.floats(min_value=1e-6, max_value=0.5),
        n=st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_valid_and_within_lemma4(self, w2, n):
        w1 = 1.0 - w2
        assume(w1 >= w2)
        n1, n2 = ba_split(w1, w2, n)
        assert n1 + n2 == n and n1 >= 1 and n2 >= 1
        assert max(w1 / n1, w2 / n2) <= ba_step_bound(1.0, n) * (1 + 1e-12)

    @given(
        w2=st.floats(min_value=1e-3, max_value=0.5),
        n=st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_is_globally_optimal(self, w2, n):
        w1 = 1.0 - w2
        assume(w1 >= w2)
        n1, n2 = ba_split(w1, w2, n)
        achieved = max(w1 / n1, w2 / n2)
        best = min(
            max(w1 / k, w2 / (n - k)) for k in range(1, n)
        )
        assert achieved == pytest.approx(best)


# -- Theorems 7 and 8 ---------------------------------------------------


class TestTheorem7Property:
    @given(alpha=alphas, n=st.integers(min_value=1, max_value=150), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ba_ratio_within_bound(self, alpha, n, data):
        draws = data.draw(draws_strategy(alpha, max(1, 2 * n)))
        weights = ba_final_weights(1.0, n, draws)
        ratio = weights.max() * n
        assert ratio <= ba_bound(alpha, n) * (1 + 1e-9)

    @given(alpha=alphas, n=st.integers(min_value=1, max_value=150), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_ba_conserves_weight(self, alpha, n, data):
        draws = data.draw(draws_strategy(alpha, max(1, 2 * n)))
        weights = ba_final_weights(1.0, n, draws)
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) == n


class TestTheorem8Property:
    @given(
        alpha=alphas,
        n=st.integers(min_value=1, max_value=150),
        lam=st.floats(min_value=0.2, max_value=4.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bahf_ratio_within_bound(self, alpha, n, lam, data):
        draws = data.draw(draws_strategy(alpha, max(1, 2 * n)))
        weights = bahf_final_weights(1.0, n, draws, alpha=alpha, lam=lam)
        ratio = weights.max() * n
        assert ratio <= bahf_bound(alpha, n, lam) * (1 + 1e-9)
        assert weights.sum() == pytest.approx(1.0)


# -- Theorem 3 ----------------------------------------------------------


class TestTheorem3Property:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=80),
        low=st.floats(min_value=0.05, max_value=0.45),
        width=st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=50, deadline=None)
    def test_phf_equals_hf(self, seed, n, low, width):
        high = min(0.5, low + width)
        sampler = UniformAlpha(low, high)
        p1 = SyntheticProblem(1.0, sampler, seed=seed)
        p2 = SyntheticProblem(1.0, sampler, seed=seed)
        assert run_phf(p1, n).same_pieces_as(run_hf(p2, n))


# -- misc data structures ----------------------------------------------


@st.composite
def random_tree(draw, max_depth=5):
    def build(depth):
        w = draw(st.floats(min_value=0.1, max_value=10.0))
        node = BisectionNode(weight=w, depth=depth)
        if depth < max_depth and draw(st.booleans()):
            share = draw(st.floats(min_value=0.1, max_value=0.9))
            left = build(depth + 1)
            right = build(depth + 1)
            # rescale children to conserve weight
            left_scale = w * share / left.weight
            right_scale = w * (1 - share) / right.weight
            _scale(left, left_scale)
            _scale(right, right_scale)
            node.children = [left, right]
        return node

    def _scale(node, factor):
        node.weight *= factor
        for c in node.children:
            _scale(c, factor)

    return BisectionTree(build(0))


class TestTreeProperty:
    @given(tree=random_tree())
    @settings(max_examples=60, deadline=None)
    def test_serialisation_roundtrip(self, tree):
        clone = BisectionTree.from_dict(tree.to_dict())
        assert [n.weight for n in clone.root] == pytest.approx(
            [n.weight for n in tree.root]
        )
        assert clone.num_leaves == tree.num_leaves
        assert clone.height == tree.height

    @given(tree=random_tree())
    @settings(max_examples=60, deadline=None)
    def test_leaves_plus_internal_nodes_consistent(self, tree):
        # binary trees: leaves = internal + 1
        assert tree.num_leaves == tree.num_bisections + 1


class TestRngProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        idx=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_seed_in_range_and_deterministic(self, seed, idx):
        a = split_seed(seed, idx)
        assert 0 <= a < 2**64
        # duplicate fork on purpose: the property under test IS that
        # equal (seed, idx) pairs derive the same stream
        assert a == split_seed(seed, idx)  # repro-lint: disable=R102


class TestMetricsProperty:
    @given(
        ratios=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_summary_bounds(self, ratios):
        s = summarize_ratios(ratios)
        slack = 1e-12 * max(ratios)  # float summation rounding
        assert s.minimum <= s.mean + slack
        assert s.mean <= s.maximum + slack
        assert s.variance >= 0
        assert s.n_trials == len(ratios)
