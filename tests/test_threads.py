"""In-kernel trial-block threading, and resume across execution modes.

The contract under test is *bit-identity by construction*: the native
kernels shard trials into contiguous blocks whose per-trial arithmetic
is untouched by the thread count, and the chunked runners' layout/merge
order never depends on whether chunks run pooled or serially.  Every
test here compares full float64 arrays with ``np.array_equal`` (no
tolerances).
"""

import numpy as np
import pytest

from repro.core import _native
from repro.core._native import (
    native_available,
    native_threading_mode,
    resolve_n_threads,
)
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.experiments.checkpoint import execute_chunks
from repro.experiments.config import StochasticConfig
from repro.experiments.runner import run_sweep
from repro.experiments.runtime_study import run_study_cells, study_trial_metrics
from repro.experiments.stochastic import trial_ratios
from repro.problems import UniformAlpha
from repro.simulator import MachineConfig
from repro.utils.rng import SeedSequenceFactory

SAMPLER = UniformAlpha(0.1, 0.5)
THREAD_COUNTS = [1, 2, 7, 64]


def _draws(n_trials, n, seed=123):
    factory = SeedSequenceFactory(seed)
    rngs = [factory.generator_for(t) for t in range(n_trials)]
    return SAMPLER.sample_trial_matrix(rngs, n - 1)


class TestResolveNThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "5")
        assert resolve_n_threads(3) == 3

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "6")
        assert resolve_n_threads() == 6

    @pytest.mark.parametrize("raw", ["", "auto", "0", " AUTO "])
    def test_auto_values_use_cpu_count(self, monkeypatch, raw):
        import os

        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert resolve_n_threads() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["-1", "1.5", "many"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        with pytest.raises(ValueError, match="REPRO_NATIVE_THREADS"):
            resolve_n_threads()

    def test_explicit_zero_rejected(self):
        with pytest.raises(ValueError, match="n_threads"):
            resolve_n_threads(0)


@pytest.mark.skipif(not native_available(), reason="no system C compiler")
class TestKernelThreadInvariance:
    """Every kernel is bit-identical for every thread count."""

    def test_threading_mode_reported(self):
        assert native_threading_mode() in ("pthread", "serial")

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_hf(self, n_threads):
        draws = _draws(23, 129)
        base = hf_final_weights_batch(1.0, 129, draws, method="native")
        out = hf_final_weights_batch(
            1.0, 129, draws, method="native", n_threads=n_threads
        )
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_ba(self, n_threads):
        draws = _draws(23, 129)
        base = ba_final_weights_batch(1.0, 129, draws, method="native")
        out = ba_final_weights_batch(
            1.0, 129, draws, method="native", n_threads=n_threads
        )
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_bahf(self, n_threads):
        draws = _draws(23, 129)
        base = bahf_final_weights_batch(
            1.0, 129, draws, alpha=0.1, method="native"
        )
        out = bahf_final_weights_batch(
            1.0, 129, draws, alpha=0.1, method="native", n_threads=n_threads
        )
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_phf_metrics(self, n_threads):
        from repro.core.phf import phf_threshold

        n = 128
        draws = _draws(19, n)
        kw = dict(
            w0=1.0,
            threshold=phf_threshold(1.0, 0.1, n),
            alpha=0.1,
            keep_heavy=True,
            t_bisect=1.0,
            t_acquire=0.1,
            t_send=0.1,
            collective=0.05,
        )
        base = _native.phf_metrics_native(draws, n, **kw)
        out = _native.phf_metrics_native(draws, n, n_threads=n_threads, **kw)
        assert base is not None and out is not None
        for got, want in zip(out, base):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_threads", [2, 16])
    def test_trial_ratios_invariant(self, n_threads):
        base = trial_ratios(
            "bahf", 64, SAMPLER, n_trials=40, seed=9, n_threads=1
        )
        out = trial_ratios(
            "bahf", 64, SAMPLER, n_trials=40, seed=9, n_threads=n_threads
        )
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("n_threads", [2, 16])
    def test_study_metrics_invariant(self, n_threads):
        base = study_trial_metrics(
            "phf",
            64,
            SAMPLER,
            n_trials=12,
            seed=9,
            config=MachineConfig(),
            engine="fastpath",
            n_threads=1,
        )
        out = study_trial_metrics(
            "phf",
            64,
            SAMPLER,
            n_trials=12,
            seed=9,
            config=MachineConfig(),
            engine="fastpath",
            n_threads=n_threads,
        )
        assert np.array_equal(out, base)


class TestBackendValidation:
    """Chunks run on one pool kind: only ``run_sweep`` still takes the
    ``backend`` keyword, and only as ``"processes"``."""

    def config(self, **overrides):
        kw = dict(n_trials=4, n_values=(4,), seed=1)
        kw.update(overrides)
        return StochasticConfig.paper_table1(**kw)

    def test_unknown_backend_rejected(self):
        for kind in ("threads", "Processes"):
            with pytest.raises(ValueError, match="'processes'"):
                run_sweep(self.config(n_jobs=2), backend=kind)

    def test_execute_chunks_rejects_unknown_backend(self):
        with pytest.raises(TypeError, match="backend"):
            execute_chunks(
                [1], lambda t: t, keys=["k"], n_jobs=1, backend="processes"
            )

    def test_run_sweep_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_sweep(self.config(), backend="fibers")

    def test_processes_keyword_is_the_default(self):
        config = self.config(n_jobs=2, chunk_size=2)
        plain = run_sweep(config)
        assert run_sweep(config, backend="processes").records == plain.records


class TestSweepBackends:
    def config(self, **overrides):
        kw = dict(n_trials=12, n_values=(4, 8), seed=11, chunk_size=4)
        kw.update(overrides)
        return StochasticConfig.paper_table1(**kw)

    def test_cross_backend_resume(self, tmp_path):
        """A journal written pooled, torn mid-line, resumes serially (the
        serial-write, pooled-resume direction is tests/test_cells.py's
        ``resume`` mode)."""
        plain = run_sweep(self.config())
        journal = tmp_path / "s.jsonl"
        run_sweep(self.config(n_jobs=2), journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        keep = 1 + (len(lines) - 1) // 2
        journal.write_text("".join(lines[:keep]) + '{"kind": "chu')
        resumed = run_sweep(self.config(), journal_path=journal, resume=True)
        assert resumed.records == plain.records


class TestStudyBackends:
    def cells(self):
        return [
            (("phf", 16), "phf", 16, MachineConfig()),
            (("ba", 16), "ba", 16, MachineConfig()),
        ]

    def run(self, **overrides):
        kw = dict(n_trials=10, seed=5, chunk_size=4)
        kw.update(overrides)
        return run_study_cells(self.cells(), SAMPLER, **kw)

    def test_cross_backend_resume(self, tmp_path):
        """A study journal written pooled resumes serially."""
        plain = self.run()
        journal = tmp_path / "study.jsonl"
        self.run(n_jobs=2, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: len(lines) // 2]))
        resumed = self.run(journal_path=journal, resume=True)
        for key in plain:
            assert np.array_equal(resumed[key], plain[key])
