"""Batched kernels vs the scalar fast paths: exact numerical parity.

The batched HF/BA/BA-HF kernels must reproduce the scalar fast paths to
<= 1e-12 (they are in fact bit-identical) for the same per-trial draws.
For HF the frontier/native formulations may pop equal weights in a
different order than ``heapq``, which permutes the final weight vector
but provably not its multiset -- so rows are compared sorted.
"""

import numpy as np
import pytest

from repro.core import _native
from repro.core._native import native_available
from repro.core.ba import ba_final_weights
from repro.core.bahf import bahf_final_weights
from repro.core import batch
from repro.core.batch import (
    FRONTIER_MAX_N,
    FRONTIER_MIN_TRIALS,
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
    numpy_hf_method,
)
from repro.core.hf import hf_final_weights
from repro.experiments.stochastic import draw_rows, trial_ratios
from repro.problems.samplers import (
    BetaAlpha,
    DiscreteAlpha,
    FixedAlpha,
    UniformAlpha,
)
from repro.simulator.fastpath import (
    fastpath_ba,
    fastpath_bahf,
    fastpath_hf,
    fastpath_phf,
)
from repro.utils.rng import SeedSequenceFactory

N_VALUES = (1, 2, 3, 7, 64, 257)
N_TRIALS = 12

SAMPLERS = [
    UniformAlpha(0.01, 0.5),
    UniformAlpha(0.1, 0.5),
    FixedAlpha(0.3),
    FixedAlpha(0.5),
    BetaAlpha(2.0, 5.0),
    DiscreteAlpha((0.2, 0.35, 0.5)),
]

HF_METHODS = ["frontier", "heap"] + (["native"] if native_available() else [])
BA_METHODS = ["frontier"] + (["native"] if native_available() else [])


def _draw_matrix(sampler, n, n_trials=N_TRIALS, seed=1234):
    factory = SeedSequenceFactory(seed)
    rngs = [factory.generator_for(t) for t in range(n_trials)]
    return sampler.sample_trial_matrix(rngs, max(0, n - 1))


def _assert_rows_match(batch, scalar_rows):
    for row, ref in zip(batch, scalar_rows):
        ref = np.asarray(ref, dtype=float)
        assert row.shape == ref.shape
        np.testing.assert_allclose(
            np.sort(row), np.sort(ref), rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.describe())
@pytest.mark.parametrize("n", N_VALUES)
class TestParity:
    def test_hf_matches_scalar(self, sampler, n):
        draws = _draw_matrix(sampler, n)
        for method in HF_METHODS if n > 1 else ["auto"]:
            batch = hf_final_weights_batch(1.0, n, draws, method=method)
            refs = [hf_final_weights(1.0, n, row) for row in draws]
            _assert_rows_match(batch, refs)

    def test_ba_matches_scalar(self, sampler, n):
        draws = _draw_matrix(sampler, n)
        refs = [ba_final_weights(1.0, n, row) for row in draws]
        for method in BA_METHODS if n > 1 else ["auto"]:
            batch = ba_final_weights_batch(1.0, n, draws, method=method)
            _assert_rows_match(batch, refs)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
    def test_bahf_matches_scalar(self, sampler, n, lam):
        draws = _draw_matrix(sampler, n)
        refs = [
            bahf_final_weights(1.0, n, row, alpha=sampler.alpha, lam=lam)
            for row in draws
        ]
        for method in BA_METHODS if n > 1 else ["auto"]:
            batch = bahf_final_weights_batch(
                1.0, n, draws, alpha=sampler.alpha, lam=lam, method=method
            )
            _assert_rows_match(batch, refs)


class TestHfMethods:
    def test_heap_and_frontier_agree_above_threshold(self):
        n = FRONTIER_MAX_N + 5
        draws = _draw_matrix(UniformAlpha(0.01, 0.5), n, n_trials=4)
        heap = hf_final_weights_batch(1.0, n, draws, method="heap")
        frontier = hf_final_weights_batch(1.0, n, draws, method="frontier")
        np.testing.assert_array_equal(np.sort(heap), np.sort(frontier))

    def test_unknown_method_rejected(self):
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 8)
        with pytest.raises(ValueError, match="unknown method"):
            hf_final_weights_batch(1.0, 8, draws, method="wat")

    def test_native_method_runs_or_raises(self):
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 8)
        if native_available():
            out = hf_final_weights_batch(1.0, 8, draws, method="native")
            assert out.shape == (N_TRIALS, 8)
        else:
            with pytest.raises(RuntimeError, match="unavailable"):
                hf_final_weights_batch(1.0, 8, draws, method="native")

    def test_native_disabled_by_env(self, monkeypatch):
        # The kill-switch must force the pure-NumPy fallback, not break.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        import repro.core._native as native

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        assert not native.native_available()
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 8)
        out = hf_final_weights_batch(1.0, 8, draws)
        refs = [hf_final_weights(1.0, 8, row) for row in draws]
        _assert_rows_match(out, refs)


@pytest.mark.skipif(not native_available(), reason="no system C compiler")
class TestNativeBitIdentity:
    """The compiled kernels must match the NumPy paths bit for bit
    (sorted rows: the multisets are equal as IEEE-754 bit patterns)."""

    @pytest.mark.parametrize("n", (2, 3, 7, 64, 257))
    def test_ba_native_equals_frontier(self, n):
        draws = _draw_matrix(UniformAlpha(0.01, 0.5), n)
        nat = ba_final_weights_batch(1.0, n, draws, method="native")
        ref = ba_final_weights_batch(1.0, n, draws, method="frontier")
        assert np.array_equal(np.sort(nat, axis=1), np.sort(ref, axis=1))

    @pytest.mark.parametrize("n", (2, 3, 7, 64, 257))
    @pytest.mark.parametrize("lam", (0.5, 1.0, 4.0))
    def test_bahf_native_equals_frontier(self, n, lam):
        draws = _draw_matrix(UniformAlpha(0.05, 0.5), n)
        nat = bahf_final_weights_batch(
            1.0, n, draws, alpha=0.05, lam=lam, method="native"
        )
        ref = bahf_final_weights_batch(
            1.0, n, draws, alpha=0.05, lam=lam, method="frontier"
        )
        assert np.array_equal(np.sort(nat, axis=1), np.sort(ref, axis=1))

    @pytest.mark.parametrize("n", (2, 4, 64, 1024))
    @pytest.mark.parametrize("value", (0.5, 0.25))
    def test_ba_split_at_integral_eta(self, n, value):
        """The C split's floor/ceil by truncation is exact when
        ``eta = n * w1 / (w1 + w2)`` is an integer (every root here)."""
        sampler = FixedAlpha(value)
        draws = np.full((2, n - 1), value)
        for kwargs in ({}, {"alpha": value, "lam": 1.0}):
            entry = bahf_final_weights_batch if kwargs else ba_final_weights_batch
            nat = entry(1.0, n, draws, method="native", **kwargs)
            ref = entry(1.0, n, draws, method="frontier", **kwargs)
            assert np.array_equal(np.sort(nat, axis=1), np.sort(ref, axis=1))
            algorithm = "bahf" if kwargs else "ba"
            assert np.array_equal(
                trial_ratios(algorithm, n, sampler, n_trials=2, seed=1),
                ref.max(axis=1) * n,
            )

    @pytest.mark.parametrize("lam", (0.5, 1.0, 4.0))
    def test_bahf_frontier_runs_no_native_code(self, monkeypatch, lam):
        """The NumPy BA-HF path finishes its HF sub-jobs in NumPy too."""
        n = 1024
        draws = _draw_matrix(UniformAlpha(0.05, 0.5), n, n_trials=4)
        nat = bahf_final_weights_batch(
            1.0, n, draws, alpha=0.05, lam=lam, method="native"
        )

        def refuse(*args, **kwargs):
            raise AssertionError("native kernel called on the NumPy path")

        for name in ("hf_batch_native", "ba_batch_native", "bahf_batch_native"):
            monkeypatch.setattr(_native, name, refuse)
        ref = bahf_final_weights_batch(
            1.0, n, draws, alpha=0.05, lam=lam, method="frontier"
        )
        assert np.array_equal(np.sort(nat, axis=1), np.sort(ref, axis=1))

    @pytest.mark.parametrize("n", (2, 3, 64, 257))
    def test_hf_native_equals_heap(self, n):
        draws = _draw_matrix(UniformAlpha(0.01, 0.5), n)
        nat = hf_final_weights_batch(1.0, n, draws, method="native")
        ref = hf_final_weights_batch(1.0, n, draws, method="heap")
        assert np.array_equal(np.sort(nat, axis=1), np.sort(ref, axis=1))


class TestNoCompilerFallback:
    """With the native library forced off, every batch entry point must
    fall back to NumPy and produce identical results."""

    @pytest.fixture(autouse=True)
    def _force_numpy(self, monkeypatch):
        import repro.core._native as native

        self._native = native
        self._with = {}
        if native_available():
            draws = _draw_matrix(UniformAlpha(0.1, 0.5), 33)
            self._with = {
                "hf": hf_final_weights_batch(1.0, 33, draws),
                "ba": ba_final_weights_batch(1.0, 33, draws),
                "bahf": bahf_final_weights_batch(1.0, 33, draws, alpha=0.1),
            }
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", True)

    def test_auto_falls_back_bit_identically(self):
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 33)
        got = {
            "hf": hf_final_weights_batch(1.0, 33, draws),
            "ba": ba_final_weights_batch(1.0, 33, draws),
            "bahf": bahf_final_weights_batch(1.0, 33, draws, alpha=0.1),
        }
        for key, out in got.items():
            assert out.shape == (N_TRIALS, 33)
            if key in self._with:
                assert np.array_equal(
                    np.sort(out, axis=1), np.sort(self._with[key], axis=1)
                ), key

    def test_explicit_native_raises(self):
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 8)
        with pytest.raises(RuntimeError, match="unavailable"):
            ba_final_weights_batch(1.0, 8, draws, method="native")
        with pytest.raises(RuntimeError, match="unavailable"):
            bahf_final_weights_batch(1.0, 8, draws, alpha=0.1, method="native")

    def test_unknown_method_rejected(self):
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), 8)
        with pytest.raises(ValueError, match="unknown method"):
            ba_final_weights_batch(1.0, 8, draws, method="wat")
        with pytest.raises(ValueError, match="unknown method"):
            bahf_final_weights_batch(1.0, 8, draws, alpha=0.1, method="wat")


class TestInputValidation:
    def test_draws_too_short_rejected(self):
        draws = np.full((3, 5), 0.4)
        with pytest.raises(ValueError, match="need 7 alpha draws"):
            hf_final_weights_batch(1.0, 8, draws)

    def test_draws_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            ba_final_weights_batch(1.0, 4, np.full(3, 0.4))

    def test_nonpositive_initial_weight_rejected(self):
        draws = np.full((3, 3), 0.4)
        with pytest.raises(ValueError, match="positive"):
            hf_final_weights_batch(0.0, 4, draws)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize(
        "entry",
        [
            "hf", "ba", "bahf", "hf_batch", "hf_batch_vector", "ba_batch",
            "bahf_batch", "fastpath_hf", "fastpath_ba", "fastpath_bahf",
            "fastpath_phf",
        ],
    )
    def test_nonfinite_initial_weight_rejected(self, entry, bad):
        draws = np.full((2, 7), 0.3)
        row = draws[0]
        calls = {
            "hf": lambda: hf_final_weights(bad, 8, row),
            "ba": lambda: ba_final_weights(bad, 8, row),
            "bahf": lambda: bahf_final_weights(bad, 8, row, alpha=0.3),
            "hf_batch": lambda: hf_final_weights_batch(bad, 8, draws),
            "hf_batch_vector": lambda: hf_final_weights_batch(
                np.array([1.0, bad]), 8, draws
            ),
            "ba_batch": lambda: ba_final_weights_batch(bad, 8, draws),
            "bahf_batch": lambda: bahf_final_weights_batch(
                bad, 8, draws, alpha=0.3
            ),
            "fastpath_hf": lambda: fastpath_hf(8, draws, initial_weight=bad),
            "fastpath_ba": lambda: fastpath_ba(8, draws, initial_weight=bad),
            "fastpath_bahf": lambda: fastpath_bahf(
                8, draws, alpha=0.3, initial_weight=bad
            ),
            "fastpath_phf": lambda: fastpath_phf(
                8, draws, alpha=0.3, initial_weight=bad
            ),
        }
        with pytest.raises(
            ValueError, match=f"initial_weight must be finite and positive, got {bad}"
        ):
            calls[entry]()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "entry", ["oracle", "frontier", "heap", "auto", "ba", "bahf", "fastpath"]
    )
    def test_nonfinite_draw_rejected(self, entry, bad):
        # Without the check the frontier and the heapq oracle order a NaN
        # piece differently, so the no-compiler rule could change a result.
        draws = np.full((2, 7), 0.3)
        draws[1, 3] = bad
        calls = {
            "oracle": lambda: hf_final_weights(1.0, 8, draws[1]),
            "frontier": lambda: hf_final_weights_batch(
                1.0, 8, draws, method="frontier"
            ),
            "heap": lambda: hf_final_weights_batch(1.0, 8, draws, method="heap"),
            "auto": lambda: hf_final_weights_batch(1.0, 8, draws),
            "ba": lambda: ba_final_weights_batch(1.0, 8, draws),
            "bahf": lambda: bahf_final_weights_batch(1.0, 8, draws, alpha=0.1),
            "fastpath": lambda: fastpath_hf(8, draws),
        }
        with pytest.raises(ValueError, match=f"alpha draws must be finite, got {bad}"):
            calls[entry]()

    @pytest.mark.parametrize("native", [True, False])
    def test_fastpath_hf_checks_its_draws_once(self, native, monkeypatch):
        if not native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        calls = []
        real = batch.check_finite_draws
        monkeypatch.setattr(
            batch, "check_finite_draws", lambda d: calls.append(d.shape) or real(d)
        )
        result = fastpath_hf(8, np.full((3, 9), 0.3))
        assert result.n_trials == 3
        assert calls == [(3, 7)]

    def test_nonfinite_draws_past_the_used_columns_ignored(self):
        draws = np.full((2, 9), 0.3)
        draws[:, 7:] = np.nan
        out = hf_final_weights_batch(1.0, 8, draws)
        assert np.isfinite(out).all()
        assert np.isfinite(hf_final_weights(1.0, 8, draws[0])).all()

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError, match="n_processors"):
            ba_final_weights_batch(1.0, 0, np.empty((2, 0)))

    def test_per_trial_initial_weights(self):
        sampler = UniformAlpha(0.1, 0.5)
        draws = _draw_matrix(sampler, 16, n_trials=3)
        w0 = np.array([1.0, 2.5, 0.5])
        batch = hf_final_weights_batch(w0, 16, draws)
        refs = [hf_final_weights(w, 16, row) for w, row in zip(w0, draws)]
        _assert_rows_match(batch, refs)

    def test_excess_draw_columns_ignored(self):
        sampler = UniformAlpha(0.1, 0.5)
        wide = _draw_matrix(sampler, 40, n_trials=5)
        narrow = wide[:, :15]
        batch_wide = hf_final_weights_batch(1.0, 16, wide)
        batch_narrow = hf_final_weights_batch(1.0, 16, narrow)
        np.testing.assert_array_equal(
            np.sort(batch_wide), np.sort(batch_narrow)
        )


class TestNoCompilerRule:
    """Under REPRO_NO_NATIVE, ``method="auto"`` runs the kernel
    :func:`numpy_hf_method` picks, on each side of the rule, and matches
    the sorted scalar oracle rows bit for bit."""

    @pytest.fixture(autouse=True)
    def _no_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_load_attempted", False)

    @pytest.mark.parametrize(
        "n, n_trials, method",
        [
            (8, 2 * FRONTIER_MIN_TRIALS, "frontier"),
            (FRONTIER_MAX_N // 2, 4 * FRONTIER_MIN_TRIALS, "frontier"),
            (8, FRONTIER_MIN_TRIALS, "heap"),  # too few trials
            (FRONTIER_MAX_N // 2, 2 * FRONTIER_MIN_TRIALS, "heap"),
            (FRONTIER_MAX_N, 4 * FRONTIER_MIN_TRIALS, "heap"),  # too many N
        ],
    )
    def test_auto_matches_the_oracle(self, monkeypatch, n, n_trials, method):
        assert numpy_hf_method(n, n_trials) == method

        def refuse(*args):
            raise AssertionError("the rule picked the other kernel")

        other = "_hf_heapq" if method == "frontier" else "_hf_frontier"
        monkeypatch.setattr(batch, other, refuse)
        draws = _draw_matrix(UniformAlpha(0.1, 0.5), n, n_trials=n_trials)
        out = hf_final_weights_batch(1.0, n, draws)
        refs = [np.sort(hf_final_weights(1.0, n, row)) for row in draws]
        assert np.array_equal(np.sort(out, axis=1), np.array(refs))


class TestTrialRatios:
    @pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf"])
    def test_batch_equals_scalar_path(self, algorithm):
        sampler = UniformAlpha(0.01, 0.5)
        batch = trial_ratios(algorithm, 64, sampler, n_trials=20, seed=11)
        rows = draw_rows(
            algorithm, 64, sampler, seed=11, start=0, stop=20, n_draws=63
        )
        oracle = {
            "hf": lambda row: hf_final_weights(1.0, 64, row),
            "ba": lambda row: ba_final_weights(1.0, 64, row),
            "bahf": lambda row: bahf_final_weights(
                1.0, 64, row, alpha=sampler.alpha
            ),
        }[algorithm]
        scalar = np.array([oracle(row).max() * 64 for row in rows])
        np.testing.assert_array_equal(batch, scalar)

    @pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf"])
    def test_chunked_offsets_recompose_serial(self, algorithm):
        sampler = UniformAlpha(0.1, 0.5)
        full = trial_ratios(algorithm, 32, sampler, n_trials=21, seed=3)
        chunks = [
            trial_ratios(algorithm, 32, sampler, n_trials=7, seed=3, start=s)
            for s in (0, 7, 14)
        ]
        np.testing.assert_array_equal(full, np.concatenate(chunks))
