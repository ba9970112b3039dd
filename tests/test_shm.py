"""Shared-memory draw helpers: round trips, budget parsing, leak hygiene.

No run publishes draw blocks any more (each chunk samples its own rows;
``tests/test_cells.py`` pins that for every pooled runner), but
:mod:`repro.experiments.shm` stays while the benchmark harness imports
it.  These tests pin the helper contract directly (publish/attach/release
round trips, the budget parser, failure fallbacks) and that a pooled
sweep leaves no ``repro_draws_*`` segment behind.
"""

import glob
import os

import numpy as np
import pytest

from repro.experiments import shm
from repro.experiments.runner import StochasticConfig, run_sweep
from repro.experiments.stochastic import trial_ratios
from repro.problems.samplers import UniformAlpha


def _segments():
    return glob.glob("/dev/shm/repro_draws_*")


def _shm_backed():
    """True when POSIX shared memory is observable under /dev/shm."""
    return os.path.isdir("/dev/shm")


class TestRoundTrip:
    def test_publish_attach_release_bit_identical(self):
        rng = np.random.default_rng(42)
        mat = rng.random((17, 31))
        out = shm.publish_draws(mat)
        if out is None:
            pytest.skip("platform refused shared memory")
        block, spec = out
        try:
            name, rows, cols = spec
            assert (rows, cols) == mat.shape
            arr = shm.attached_draws(spec)
            assert arr is not None
            assert np.array_equal(arr, mat)
            assert not arr.flags.writeable
            # Repeated attaches hit the per-process cache.
            assert shm.attached_draws(spec) is arr
        finally:
            # Drop the cached mapping before unlinking so close() can't
            # hit a BufferError from our own live view.
            shm._detach_all()
            shm.release_draws(block)
        if _shm_backed():
            assert not any(name in s for s in _segments())

    def test_publish_rejects_empty_and_non_2d(self):
        assert shm.publish_draws(np.empty((0, 5))) is None
        assert shm.publish_draws(np.empty((5, 0))) is None
        assert shm.publish_draws(np.ones(5)) is None

    def test_attach_missing_segment_returns_none(self):
        assert shm.attached_draws(("repro_draws_nonexistent_xyz", 2, 2)) is None

    def test_release_tolerates_double_unlink(self):
        out = shm.publish_draws(np.ones((2, 2)))
        if out is None:
            pytest.skip("platform refused shared memory")
        block, _ = out
        shm.release_draws(block)
        shm.release_draws(block)  # must not raise


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM_MAX_BYTES", raising=False)
        assert shm.max_bytes() == shm.DEFAULT_MAX_BYTES

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MAX_BYTES", "4096")
        assert shm.max_bytes() == 4096

    def test_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MAX_BYTES", "lots")
        assert shm.max_bytes() == shm.DEFAULT_MAX_BYTES

    def test_negative_clamped_to_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MAX_BYTES", "-1")
        assert shm.max_bytes() == 0


class TestDrawsArgument:
    def test_trial_ratios_rejects_row_mismatch(self):
        draws = np.full((3, 7), 0.4)
        with pytest.raises(ValueError, match="rows"):
            trial_ratios(
                "hf", 8, UniformAlpha(0.1, 0.5), n_trials=4, seed=1,
                draws=draws,
            )

    def test_study_rejects_non_central_phf(self):
        from repro.experiments.runtime_study import study_trial_metrics
        from repro.simulator import MachineConfig

        draws = np.full((2, 7), 0.4)
        with pytest.raises(ValueError, match="central"):
            study_trial_metrics(
                "phf", 8, UniformAlpha(0.1, 0.5), config=MachineConfig(),
                n_trials=2, seed=1, phf_phase1="ba_prime", engine="des",
                draws=draws,
            )


@pytest.mark.skipif(not _shm_backed(), reason="no /dev/shm to observe")
class TestNoLeaks:
    BASE = dict(
        algorithms=("hf", "ba"),
        n_values=(8, 16),
        n_trials=24,
        seed=9,
        sampler=UniformAlpha(0.1, 0.5),
        chunk_size=8,
    )

    def test_sweep_leaves_no_segments(self):
        before = set(_segments())
        run_sweep(StochasticConfig(**self.BASE, n_jobs=2))
        assert set(_segments()) <= before

    def test_sweep_serial_and_parallel_bit_identical(self):
        serial = run_sweep(StochasticConfig(**self.BASE, n_jobs=1))
        parallel = run_sweep(StochasticConfig(**self.BASE, n_jobs=2))
        assert serial.records == parallel.records
