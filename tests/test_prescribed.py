"""The draw-prescribed HF, BA and BA-HF instances, bisected in any order.

:func:`repro.problems.prescribed.prescribed_problem` makes its BA-phase
nodes on demand from the DFS pre-order draw offsets, so the order in
which a consumer bisects them must not matter: depth-first and
breadth-first walks both have to end in the leaf multiset the batched
kernel computes from the same draw row.  Pieces below the BA-HF
switch-over threshold are HF jobs (:class:`CursorProblem`), finished
here by sequential HF.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.ba import ba_split
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.core.hf import run_hf
from repro.core.phf import phf_prescription
from repro.problems import CursorProblem, UniformAlpha, prescribed_problem
from repro.utils.rng import SeedSequenceFactory

N_VALUES = (1, 2, 3, 17, 257)
N_TRIALS = 3


def _draws(sampler, n, seed=2026):
    fac = SeedSequenceFactory(seed)
    rngs = [fac.generator_for(t) for t in range(N_TRIALS)]
    return sampler.sample_trial_matrix(rngs, max(1, n - 1))


def _walk(problem, n, order):
    """Leaves of ``problem`` bisected ``order``-first; HF jobs finished by HF."""
    queue = deque([(problem, n)])
    leaves = []
    while queue:
        piece, k = queue.pop() if order == "depth" else queue.popleft()
        if isinstance(piece, CursorProblem):
            leaves.extend(run_hf(piece, k).pieces)
            continue
        p1, p2 = piece.bisect()
        n1, n2 = ba_split(p1.weight, p2.weight, k)
        queue.append((p1, n1))
        queue.append((p2, n2))
    return leaves


def _expected(algorithm, n, draws, alpha, lam):
    if algorithm == "hf":
        return hf_final_weights_batch(1.0, n, draws)
    if algorithm == "ba":
        return ba_final_weights_batch(1.0, n, draws)
    return bahf_final_weights_batch(1.0, n, draws, alpha=alpha, lam=lam)


@pytest.mark.parametrize("order", ["depth", "breadth"])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf"])
@pytest.mark.parametrize("low", [0.1, 0.3])
def test_any_bisection_order_gives_the_batch_leaves(algorithm, n, lam, order, low):
    sampler = UniformAlpha(low, 0.5)
    alpha = sampler.alpha
    draws = _draws(sampler, n)
    expected = _expected(algorithm, n, draws, alpha, lam)
    for t in range(N_TRIALS):
        problem = prescribed_problem(algorithm, n, draws[t], alpha=alpha, lam=lam)
        leaves = _walk(problem, n, order)
        assert len(leaves) == n
        got = np.sort([leaf.weight for leaf in leaves])
        assert np.array_equal(got, np.sort(expected[t])), (algorithm, n, t)
        # Every leaf is where the prescription ends.
        with pytest.raises(ValueError, match="past the draw prescription"):
            leaves[t % n].bisect()


@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_one_row_length_check_for_every_algorithm(algorithm):
    with pytest.raises(ValueError, match="need 7 draws, got 6"):
        prescribed_problem(algorithm, 8, np.full(6, 0.3), alpha=0.3)
    with pytest.raises(ValueError, match="n_processors must be >= 1, got 0"):
        prescribed_problem(algorithm, 0, np.full(6, 0.3), alpha=0.3)


def test_phf_tables_reject_a_short_row():
    # PHF's draw convention is read outside prescribed_problem too.
    with pytest.raises(ValueError, match="need 7 draws, got 6"):
        phf_prescription(8, np.full(6, 0.3), alpha=0.3)


@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf"])
def test_instance_declares_alpha(algorithm):
    problem = prescribed_problem(algorithm, 64, np.full(63, 0.3), alpha=0.25)
    assert problem.alpha == 0.25
    assert all(child.alpha == 0.25 for child in problem.bisect())
    with pytest.raises(ValueError, match="alpha must be in"):
        prescribed_problem(algorithm, 64, np.full(63, 0.3), alpha=0.75)
