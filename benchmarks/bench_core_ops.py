"""Micro-benchmarks and design-choice ablations for the core algorithms.

DESIGN.md §4 ablations:

* heap-based HF vs the naive rescan-for-max variant of Figure 1 -- same
  output, asymptotically different cost (O(N log N) vs O(N^2)),
* BA's best-of-{floor, ceil} split rule vs naive round-to-nearest -- the
  paper's rule is never worse per step (Lemma 4 optimality).

Plus raw throughput numbers for the fast paths, which size the full
paper-scale grid.
"""

import heapq

import numpy as np
import pytest

from repro.core import ba_final_weights, ba_split, hf_final_weights
from repro.problems import UniformAlpha


def naive_hf_final_weights(initial_weight, n, draws):
    """Figure 1 executed literally: rescan for the maximum every step."""
    pieces = [initial_weight]
    for k in range(n - 1):
        idx = max(range(len(pieces)), key=pieces.__getitem__)
        w = pieces.pop(idx)
        a = draws[k]
        pieces.extend([a * w, (1 - a) * w])
    return np.asarray(pieces)


def nearest_split(w1, w2, n):
    """Ablation: round eta to nearest instead of best-of-floor/ceil."""
    eta = n * w1 / (w1 + w2)
    n1 = max(1, min(n - 1, int(round(eta))))
    return n1, n - n1


class TestHFThroughput:
    def test_hf_fast_path_n4096(self, benchmark):
        rng = np.random.default_rng(0)
        draws = rng.uniform(0.1, 0.5, size=4095)
        out = benchmark(hf_final_weights, 1.0, 4096, draws)
        assert out.sum() == pytest.approx(1.0)

    def test_ba_fast_path_n4096(self, benchmark):
        sampler = UniformAlpha(0.1, 0.5)
        row = sampler.sample_many(np.random.default_rng(1), 4095)
        out = benchmark(ba_final_weights, 1.0, 4096, row)
        assert out.sum() == pytest.approx(1.0)


class TestHeapAblation:
    def test_heap_and_naive_agree(self):
        rng = np.random.default_rng(2)
        draws = rng.uniform(0.1, 0.5, size=255)
        heap = sorted(hf_final_weights(1.0, 256, draws))
        naive = sorted(naive_hf_final_weights(1.0, 256, draws))
        assert heap == pytest.approx(naive)

    def test_naive_rescan_hf(self, benchmark):
        rng = np.random.default_rng(3)
        draws = rng.uniform(0.1, 0.5, size=2047)
        out = benchmark(naive_hf_final_weights, 1.0, 2048, draws)
        assert out.sum() == pytest.approx(1.0)

    def test_heap_hf_same_size(self, benchmark):
        rng = np.random.default_rng(3)
        draws = rng.uniform(0.1, 0.5, size=2047)
        out = benchmark(hf_final_weights, 1.0, 2048, draws)
        assert out.sum() == pytest.approx(1.0)


class TestSplitRuleAblation:
    def test_paper_rule_never_worse(self, benchmark):
        """Lemma 4 optimality: best-of-floor/ceil <= round-to-nearest."""
        rng = np.random.default_rng(4)
        cases = [
            (1.0 - w2, w2, int(n))
            for w2, n in zip(
                rng.uniform(0.01, 0.5, size=2000), rng.integers(2, 200, size=2000)
            )
        ]

        def run():
            worse = 0
            for w1, w2, n in cases:
                n1, n2 = ba_split(w1, w2, n)
                m1, m2 = nearest_split(w1, w2, n)
                paper = max(w1 / n1, w2 / n2)
                naive = max(w1 / m1, w2 / m2)
                if paper > naive * (1 + 1e-12):
                    worse += 1
            return worse

        worse = benchmark.pedantic(run, rounds=1, iterations=1)
        assert worse == 0
