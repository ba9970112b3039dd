"""Throughput of the batched Monte-Carlo kernels vs the scalar fast paths.

The acceptance target for the batched rewrite: >= 5x trial throughput on
1000-trial batches at N = 4096 for each of HF, BA and BA-HF, using the
same per-trial draws as the scalar loops (so both sides do identical
arithmetic; see tests/test_batch.py for the exact-parity property tests).

Machine-readable results land in two places:

* ``benchmarks/results/BENCH_batch.json`` -- written by this module, one
  entry per kernel with trials/s for scalar and batched paths plus the
  speedup (this is the artifact the acceptance criterion points at),
  rewritten only after a kernel passed its 5x gate on the compiled
  kernels, so a failing or ``REPRO_NO_NATIVE`` run keeps the record;
* the pytest-benchmark JSON, when invoked as::

      PYTHONPATH=src python -m pytest benchmarks/bench_batch.py \
          --benchmark-only --benchmark-json=benchmarks/results/bench_batch_pytest.json

  where each benchmark's ``extra_info`` carries the same numbers.

The scalar baselines are timed on a subsample of trials (they are ~5-15x
slower per trial; timing all 1000 would only re-measure the same loop).
"""

import json
import time

import numpy as np
import pytest

from _common import (
    BENCH_SCHEMA_VERSION,
    RESULTS_DIR,
    full_scale,
    machine_meta,
    run_once,
    write_artifact,
)
from repro.core._native import native_available
from repro.core.ba import ba_final_weights
from repro.core.bahf import bahf_final_weights
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.core.hf import hf_final_weights
from repro.problems import UniformAlpha
from repro.utils.rng import SeedSequenceFactory

N_PROCESSORS = 4096
N_TRIALS = 1000  # the acceptance criterion is per 1000-trial batch
SCALAR_SAMPLE = 25


@pytest.fixture(scope="module")
def draws():
    sampler = UniformAlpha(0.01, 0.5)
    factory = SeedSequenceFactory(20260806)
    rngs = [factory.generator_for(t) for t in range(N_TRIALS)]
    return sampler.sample_trial_matrix(rngs, N_PROCESSORS - 1)


_RESULTS = {}


def _record(benchmark, kernel, batch_seconds, scalar_per_trial, extra=None):
    scalar_rate = 1.0 / scalar_per_trial
    batch_rate = N_TRIALS / batch_seconds
    entry = {
        "kernel": kernel,
        "n_processors": N_PROCESSORS,
        "n_trials": N_TRIALS,
        "scalar_trials_per_s": scalar_rate,
        "batch_trials_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    if extra:
        entry.update(extra)
    benchmark.extra_info.update(entry)
    return entry


def _keep(entry):
    """Add a kernel whose gate passed to the artifacts, compiled tier only.

    The committed artifact records the compiled kernels, so a failed gate
    or a ``REPRO_NO_NATIVE`` run leaves it as it is.
    """
    if not native_available():
        return
    _RESULTS[entry["kernel"]] = entry
    _write_artifacts()


def _write_artifacts():
    """Dump BENCH_batch.json + a readable table after every kept kernel.

    Written incrementally (not from a final test) so the artifacts exist
    even under ``--benchmark-only``, which deselects plain tests.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "n_processors": N_PROCESSORS,
        "n_trials": N_TRIALS,
        "full_scale": full_scale(),
        "native_kernel": native_available(),
        "machine": machine_meta(),
        "kernels": _RESULTS,
    }
    (RESULTS_DIR / "BENCH_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        "batched kernels vs scalar fast paths "
        f"(N={N_PROCESSORS}, {N_TRIALS}-trial batch)",
        "",
        f"{'kernel':<6} {'scalar trials/s':>16} {'batch trials/s':>15} {'speedup':>8}",
    ]
    for kernel in ("hf", "ba", "bahf"):
        if kernel not in _RESULTS:
            continue
        e = _RESULTS[kernel]
        lines.append(
            f"{kernel:<6} {e['scalar_trials_per_s']:>16.1f} "
            f"{e['batch_trials_per_s']:>15.1f} {e['speedup']:>7.1f}x"
        )
    write_artifact("batch_kernels", "\n".join(lines))


def _time_scalar(fn):
    start = time.perf_counter()
    for _ in range(SCALAR_SAMPLE):
        fn()
    return (time.perf_counter() - start) / SCALAR_SAMPLE


class TestBatchedKernelThroughput:
    def test_hf_batch_speedup(self, benchmark, draws):
        hf_final_weights_batch(1.0, N_PROCESSORS, draws[:8])  # warm native build
        start = time.perf_counter()
        out = run_once(
            benchmark, lambda: hf_final_weights_batch(1.0, N_PROCESSORS, draws)
        )
        batch_seconds = time.perf_counter() - start
        rows = iter(draws)
        scalar = _time_scalar(
            lambda: hf_final_weights(1.0, N_PROCESSORS, next(rows))
        )
        entry = _record(
            benchmark,
            "hf",
            batch_seconds,
            scalar,
            {"native_kernel": native_available()},
        )
        assert out.shape == (N_TRIALS, N_PROCESSORS)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-9)
        assert entry["speedup"] >= 5.0
        _keep(entry)

    def test_ba_batch_speedup(self, benchmark, draws):
        ba_final_weights_batch(1.0, N_PROCESSORS, draws[:8])
        start = time.perf_counter()
        out = run_once(
            benchmark, lambda: ba_final_weights_batch(1.0, N_PROCESSORS, draws)
        )
        batch_seconds = time.perf_counter() - start
        rows = iter(draws)
        scalar = _time_scalar(
            lambda: ba_final_weights(1.0, N_PROCESSORS, next(rows))
        )
        entry = _record(benchmark, "ba", batch_seconds, scalar)
        assert out.shape == (N_TRIALS, N_PROCESSORS)
        assert entry["speedup"] >= 5.0
        _keep(entry)

    def test_bahf_batch_speedup(self, benchmark, draws):
        alpha = 0.01
        bahf_final_weights_batch(1.0, N_PROCESSORS, draws[:8], alpha=alpha)
        start = time.perf_counter()
        out = run_once(
            benchmark,
            lambda: bahf_final_weights_batch(
                1.0, N_PROCESSORS, draws, alpha=alpha, lam=1.0
            ),
        )
        batch_seconds = time.perf_counter() - start
        rows = iter(draws)
        scalar = _time_scalar(
            lambda: bahf_final_weights(
                1.0, N_PROCESSORS, next(rows), alpha=alpha, lam=1.0
            )
        )
        entry = _record(benchmark, "bahf", batch_seconds, scalar)
        assert out.shape == (N_TRIALS, N_PROCESSORS)
        assert entry["speedup"] >= 5.0
        _keep(entry)

