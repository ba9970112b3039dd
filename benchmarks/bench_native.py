"""Compiled C kernels vs the pure-NumPy batch paths, at figure5 scale.

The acceptance targets for the native-kernel rewrite (see DESIGN.md and
the BENCH_fastpath baseline):

* each compiled kernel (HF heap, BA frontier, BA-HF frontier, PHF
  metrics) beats the Python formulation it replaces at N = 2^16,
  measured on the same draw matrices (bit-identity is held by
  tests/test_batch.py and tests/test_fastpath.py);
* the PHF fastpath with the native kernel clears >= 4x the no-compiler
  fastpath rate (the per-trial event replay; the committed pre-native
  baseline, against a since-deleted NumPy lockstep, was ~15 trials/s);
* an *end-to-end* chunked Monte-Carlo run -- sampling included -- at
  N = 2^16 is recorded, at 10^6 trials under ``REPRO_FULL=1`` (the
  committed artifact) and a 20k-trial slice otherwise.

Machine-readable results land in ``benchmarks/results/BENCH_native.json``
(same artifact schema as BENCH_batch/BENCH_fastpath; see
``_common.machine_meta``), regenerated with::

    REPRO_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_native.py \
        --benchmark-only -q

The in-kernel thread-scaling curve (trial-block multithreading inside
the C kernels; bit-identical for every count) is recorded by running
this file as a script::

    PYTHONPATH=src python benchmarks/bench_native.py --threads 1,2,4,8

which refreshes the ``thread_scaling`` group of BENCH_native.json in
place, leaving the single-thread kernel entries untouched.
"""

import argparse
import json
import os
import time

import pytest

from _common import (
    BENCH_SCHEMA_VERSION,
    RESULTS_DIR,
    full_scale,
    machine_meta,
    run_once,
    write_artifact,
)
from repro.core import _native
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.experiments.runtime_study import study_trial_metrics
from repro.experiments.stochastic import trial_ratios
from repro.problems import UniformAlpha
from repro.simulator import MachineConfig

N_PROCESSORS = 2**16
#: Trials per timed kernel measurement (the kernels are deterministic;
#: more trials only average the same arithmetic).
KERNEL_TRIALS = 50
#: End-to-end chunked run: the 10^6-trial milestone under REPRO_FULL,
#: a representative slice otherwise (same chunking either way).
ENDTOEND_TRIALS = 1_000_000 if full_scale() else 20_000
ENDTOEND_CHUNK = 512
SEED = 20260806
SAMPLER = UniformAlpha(0.1, 0.5)

pytestmark = pytest.mark.skipif(
    not _native.native_available(), reason="no system C compiler"
)

_RESULTS = {"kernels": {}, "entries": {}, "thread_scaling": {}}


def _load_existing():
    """Seed _RESULTS from a committed artifact with matching parameters.

    Lets a partial re-run (e.g. only the end-to-end milestone under
    ``REPRO_FULL=1``) refresh its entries without wiping the others.
    """
    try:
        payload = json.loads((RESULTS_DIR / "BENCH_native.json").read_text())
    except (OSError, ValueError):
        return
    if payload.get("n_processors") == N_PROCESSORS and payload.get("seed") == SEED:
        for group in ("kernels", "entries", "thread_scaling"):
            existing = payload.get(group)
            if isinstance(existing, dict):
                _RESULTS[group].update(existing)


_load_existing()


def _write_artifacts():
    """Dump BENCH_native.json + a readable table after every entry.

    Written incrementally (not from a final test) so the artifacts exist
    even under ``--benchmark-only``, which deselects plain tests.  The
    header holds only the parameters every entry shares; what belongs to
    one run (its machine, ``full_scale``, its trial count) is in the
    entry that run wrote, since a partial re-run keeps the other entries.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "n_processors": N_PROCESSORS,
        "kernel_trials": KERNEL_TRIALS,
        "seed": SEED,
        "sampler": SAMPLER.describe(),
        "kernels": _RESULTS["kernels"],
        "entries": _RESULTS["entries"],
        "thread_scaling": _RESULTS["thread_scaling"],
    }
    (RESULTS_DIR / "BENCH_native.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"compiled C kernels vs pure NumPy (N={N_PROCESSORS})",
        "",
        f"{'kernel':<6} {'numpy trials/s':>15} {'native trials/s':>16} {'speedup':>8}",
    ]
    for kernel in ("hf", "ba", "bahf", "phf"):
        if kernel not in _RESULTS["kernels"]:
            continue
        e = _RESULTS["kernels"][kernel]
        lines.append(
            f"{kernel:<6} {e['numpy_trials_per_s']:>15.1f} "
            f"{e['native_trials_per_s']:>16.1f} {e['speedup']:>7.1f}x"
        )
    for name, e in sorted(_RESULTS["entries"].items()):
        lines.append("")
        lines.append(
            f"{name}: {e['n_trials']} trials in {e['wall_seconds']:.1f} s "
            f"({e['trials_per_s']:.1f} trials/s, sampling included)"
        )
    for name, e in sorted(_RESULTS["thread_scaling"].items()):
        lines.append("")
        lines.append(
            f"thread scaling [{name}] -- mode={e['mode']}, "
            f"{e['cpu_count']} core(s), {e['n_trials']} trials"
        )
        for point in e["points"]:
            lines.append(
                f"  {point['n_threads']:>3} thread(s): "
                f"{point['trials_per_s']:>10.1f} trials/s "
                f"({point['speedup_vs_1']:.2f}x vs 1 thread)"
            )
    write_artifact("native_kernels", "\n".join(lines))


@pytest.fixture(scope="module")
def draws():
    from repro.utils.rng import SeedSequenceFactory

    factory = SeedSequenceFactory(SEED)
    rngs = [factory.generator_for(t) for t in range(KERNEL_TRIALS)]
    return SAMPLER.sample_trial_matrix(rngs, N_PROCESSORS - 1)


def _timed_rate(fn, n_trials):
    start = time.perf_counter()
    fn()
    return n_trials / (time.perf_counter() - start)


def _record_kernel(benchmark, kernel, native_fn, numpy_fn, n_trials):
    native_fn()  # warm (triggers the on-demand compile/load)
    numpy_fn()
    native_rate = None

    def timed_native():
        nonlocal native_rate
        native_rate = _timed_rate(native_fn, n_trials)

    run_once(benchmark, timed_native)
    numpy_rate = _timed_rate(numpy_fn, n_trials)
    entry = {
        "kernel": kernel,
        "n_processors": N_PROCESSORS,
        "n_trials": n_trials,
        "numpy_trials_per_s": numpy_rate,
        "native_trials_per_s": native_rate,
        "speedup": native_rate / numpy_rate,
        "machine": machine_meta(),
    }
    _RESULTS["kernels"][kernel] = entry
    benchmark.extra_info.update(entry)
    _write_artifacts()
    return entry


class TestNativeKernelThroughput:
    def test_hf(self, benchmark, draws):
        entry = _record_kernel(
            benchmark,
            "hf",
            lambda: hf_final_weights_batch(
                1.0, N_PROCESSORS, draws, method="native"
            ),
            lambda: hf_final_weights_batch(
                1.0, N_PROCESSORS, draws, method="heap"
            ),
            KERNEL_TRIALS,
        )
        assert entry["speedup"] >= 1.0, entry

    def test_ba(self, benchmark, draws):
        entry = _record_kernel(
            benchmark,
            "ba",
            lambda: ba_final_weights_batch(
                1.0, N_PROCESSORS, draws, method="native"
            ),
            lambda: ba_final_weights_batch(
                1.0, N_PROCESSORS, draws, method="frontier"
            ),
            KERNEL_TRIALS,
        )
        assert entry["speedup"] >= 1.0, entry

    def test_bahf(self, benchmark, draws):
        entry = _record_kernel(
            benchmark,
            "bahf",
            lambda: bahf_final_weights_batch(
                1.0, N_PROCESSORS, draws, alpha=0.1, method="native"
            ),
            lambda: bahf_final_weights_batch(
                1.0, N_PROCESSORS, draws, alpha=0.1, method="frontier"
            ),
            KERNEL_TRIALS,
        )
        assert entry["speedup"] >= 1.0, entry

    def test_phf_fastpath(self, benchmark):
        """PHF closed-form study metrics: native kernel vs the replay.

        This is the acceptance number: the native rate must clear 4x the
        no-compiler fastpath, which is the per-trial event replay
        ``fastpath._phf_replay`` on the complete network (it reads each
        trial's tree from ``repro.core.phf.phf_prescription``, the tables
        the DES's prescribed instance is built from, and keeps only the
        timing pass).
        """

        def run_fastpath(n_trials):
            return study_trial_metrics(
                "phf",
                N_PROCESSORS,
                SAMPLER,
                n_trials=n_trials,
                seed=SEED,
                config=MachineConfig(),
                engine="fastpath",
            )

        run_fastpath(2)  # warm
        native_rate = None

        def timed_native():
            nonlocal native_rate
            native_rate = _timed_rate(
                lambda: run_fastpath(KERNEL_TRIALS), KERNEL_TRIALS
            )

        run_once(benchmark, timed_native)
        # Force the no-compiler path (the per-trial replay) for the same
        # measurement.
        saved = _native._lib, _native._load_attempted
        _native._lib, _native._load_attempted = None, True
        try:
            numpy_rate = _timed_rate(
                lambda: run_fastpath(KERNEL_TRIALS), KERNEL_TRIALS
            )
        finally:
            _native._lib, _native._load_attempted = saved
        entry = {
            "kernel": "phf",
            "n_processors": N_PROCESSORS,
            "n_trials": KERNEL_TRIALS,
            "numpy_trials_per_s": numpy_rate,
            "native_trials_per_s": native_rate,
            "speedup": native_rate / numpy_rate,
            "machine": machine_meta(),
        }
        _RESULTS["kernels"]["phf"] = entry
        benchmark.extra_info.update(entry)
        _write_artifacts()
        assert entry["speedup"] >= 4.0, entry


class TestEndToEnd:
    def test_chunked_monte_carlo(self, benchmark):
        """End-to-end chunked run at N = 2^16, sampling included.

        Uses the BA-HF pipeline (sampler -> batched native kernel ->
        ratios) in ``ENDTOEND_CHUNK``-trial chunks, exactly as the sweep
        runners consume it.  Under ``REPRO_FULL=1`` this is the
        10^6-trial milestone measurement.
        """
        total = ENDTOEND_TRIALS
        checksum = 0.0

        def run_all():
            nonlocal checksum
            done = 0
            while done < total:
                n = min(ENDTOEND_CHUNK, total - done)
                ratios = trial_ratios(
                    "bahf",
                    N_PROCESSORS,
                    SAMPLER,
                    n_trials=n,
                    seed=SEED,
                    start=done,
                )
                checksum += float(ratios.sum())
                done += n

        start = time.perf_counter()
        run_once(benchmark, run_all)
        wall = time.perf_counter() - start
        entry = {
            "algorithm": "bahf",
            "n_processors": N_PROCESSORS,
            "n_trials": total,
            "chunk_size": ENDTOEND_CHUNK,
            "wall_seconds": wall,
            "trials_per_s": total / wall,
            "mean_ratio": checksum / total,
            "full_scale": full_scale(),
            "machine": machine_meta(),
        }
        _RESULTS["entries"]["endtoend_bahf_n65536"] = entry
        benchmark.extra_info.update(entry)
        _write_artifacts()
        assert checksum > 0.0


# ----------------------------------------------------------------------
# Thread-scaling curve (script mode)
# ----------------------------------------------------------------------


def _parse_threads(text):
    """Comma-separated positive thread counts; argparse-friendly errors."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError(
            f"thread counts must be positive integers, got {text!r}"
        )
    return counts


def record_thread_scaling(thread_counts, n_trials=None):
    """Measure the end-to-end run at each thread count; refresh the artifact.

    Same pipeline as ``TestEndToEnd`` (sampler -> chunked BA-HF native
    batches -> ratios), with the in-kernel trial-block sharding pinned to
    each requested count.  Bit-identity across counts is asserted on the
    ratio checksum before any number is recorded.  Speedups are relative
    to the 1-thread rate of the *same* run, so the curve is honest even
    on a single-core box (where it is expected to be flat).
    """
    total = n_trials if n_trials is not None else ENDTOEND_TRIALS
    counts = sorted(set(thread_counts) | {1})

    def run_all(n_threads):
        checksum = 0.0
        done = 0
        while done < total:
            n = min(ENDTOEND_CHUNK, total - done)
            ratios = trial_ratios(
                "bahf",
                N_PROCESSORS,
                SAMPLER,
                n_trials=n,
                seed=SEED,
                start=done,
                n_threads=n_threads,
            )
            checksum += float(ratios.sum())
            done += n
        return checksum

    run_all(counts[0])  # warm: triggers the on-demand compile/load
    points = []
    checksums = set()
    for n_threads in counts:
        start = time.perf_counter()
        checksums.add(run_all(n_threads))
        wall = time.perf_counter() - start
        points.append(
            {
                "n_threads": n_threads,
                "wall_seconds": wall,
                "trials_per_s": total / wall,
            }
        )
        print(
            f"  n_threads={n_threads}: {total} trials in {wall:.2f} s "
            f"({total / wall:.1f} trials/s)"
        )
    assert len(checksums) == 1, (
        f"ratios are not bit-identical across thread counts: {checksums}"
    )
    base = next(p["trials_per_s"] for p in points if p["n_threads"] == 1)
    for point in points:
        point["speedup_vs_1"] = point["trials_per_s"] / base
    entry = {
        "algorithm": "bahf",
        "n_processors": N_PROCESSORS,
        "n_trials": total,
        "chunk_size": ENDTOEND_CHUNK,
        "mode": _native.native_threading_mode(),
        "cpu_count": os.cpu_count(),
        "points": points,
        "full_scale": full_scale(),
        "machine": machine_meta(),
    }
    _RESULTS["thread_scaling"]["endtoend_bahf_n65536"] = entry
    _write_artifacts()
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=(
            "Record the in-kernel thread-scaling curve into "
            "benchmarks/results/BENCH_native.json"
        )
    )
    parser.add_argument(
        "--threads",
        type=_parse_threads,
        default=(1, 2, 4, 8),
        metavar="T,T,..",
        help="comma-separated thread counts to measure (default 1,2,4,8)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help=f"end-to-end trials per point (default {ENDTOEND_TRIALS})",
    )
    args = parser.parse_args(argv)
    if not _native.native_available():
        print("native kernels unavailable (no system C compiler); nothing to do")
        return 1
    print(
        f"thread scaling at N={N_PROCESSORS}, mode="
        f"{_native.native_threading_mode()}, {os.cpu_count()} core(s):"
    )
    record_thread_scaling(args.threads, n_trials=args.trials)
    print(f"artifact refreshed: {RESULTS_DIR / 'BENCH_native.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
