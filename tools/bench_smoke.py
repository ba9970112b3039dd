#!/usr/bin/env python
"""Quick calibrated smoke benchmark, gating against a committed baseline.

Measures the throughput of the hot paths (batched HF/BA/BA-HF kernels
and the PHF and BA closed-form fastpaths, pinned to one kernel thread,
plus a multithreaded BA-HF entry at the auto-detected count) at a small
scale (N = 4096) that finishes in seconds, and writes a
``BENCH_*.json``-schema artifact.
Each entry is *calibrated* -- the trial count is sized so one
measurement takes ~``TARGET_SECONDS`` -- and reported as the best of
``REPEATS`` runs, which keeps the rates stable enough to gate on with a
generous relative threshold even on a busy box::

    PYTHONPATH=src python tools/bench_smoke.py --check --threshold 50
    PYTHONPATH=src python tools/bench_smoke.py --update-baseline

``--check`` re-measures and diffs against the committed baseline
(``benchmarks/results/BENCH_smoke.json``) via ``tools/bench_compare.py``,
exiting non-zero when any ``trials_per_s`` drops by more than the
threshold -- the standing perf gate wired into ``tools/check.sh``.
Regenerate the baseline with ``--update-baseline`` after intentional
performance changes (on the machine recorded in the artifact;
cross-machine comparisons are warned about, not failed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_compare

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_smoke.json"

N_PROCESSORS = 4096
SEED = 20260806
#: Wall-clock target per calibrated measurement.
TARGET_SECONDS = 0.4
#: Trials used for the calibration probe.
PROBE_TRIALS = 16
#: Measurements per entry; the best rate is reported (minimum-noise
#: estimator for a deterministic computation on a shared box).
REPEATS = 3


def _entries() -> Dict[str, Callable[[int], None]]:
    """name -> fn(n_trials) for every smoke-benchmarked hot path."""
    from repro.experiments.runtime_study import study_trial_metrics
    from repro.experiments.stochastic import trial_ratios
    from repro.problems import UniformAlpha
    from repro.simulator import MachineConfig

    sampler = UniformAlpha(0.1, 0.5)

    # Single-thread entries are pinned to n_threads=1 so the committed
    # baseline stays comparable across boxes with different core counts;
    # the "_mt" entry measures the in-kernel trial-block threading at
    # the auto-detected count (bit-identical, only faster).
    def batch(algorithm, n_threads=1):
        def run(n_trials):
            trial_ratios(
                algorithm,
                N_PROCESSORS,
                sampler,
                n_trials=n_trials,
                seed=SEED,
                n_threads=n_threads,
            )

        return run

    def fastpath(algorithm):
        def run(n_trials):
            study_trial_metrics(
                algorithm,
                N_PROCESSORS,
                sampler,
                n_trials=n_trials,
                seed=SEED,
                config=MachineConfig(),
                engine="fastpath",
                n_threads=1,
            )

        return run

    from repro.core._native import resolve_n_threads

    return {
        "hf_batch": batch("hf"),
        "ba_batch": batch("ba"),
        "bahf_batch": batch("bahf"),
        "phf_fastpath": fastpath("phf"),
        "ba_fastpath": fastpath("ba"),
        "bahf_batch_mt": batch("bahf", n_threads=resolve_n_threads()),
    }


def _calibrated_rate(fn: Callable[[int], None]) -> Dict[str, float]:
    fn(PROBE_TRIALS)  # warm (compiles/loads the native kernels once)
    start = time.perf_counter()
    fn(PROBE_TRIALS)
    probe = time.perf_counter() - start
    n_trials = max(PROBE_TRIALS, int(PROBE_TRIALS * TARGET_SECONDS / probe))
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(n_trials)
        rate = n_trials / (time.perf_counter() - start)
        best = max(best, rate)
    return {"n_trials": n_trials, "trials_per_s": best}


def run_smoke() -> Dict:
    """Measure every entry and return a BENCH_*-schema payload."""
    from _common import BENCH_SCHEMA_VERSION, machine_meta

    entries = {}
    for name, fn in _entries().items():
        entries[name] = {"name": name, **_calibrated_rate(fn)}
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "n_processors": N_PROCESSORS,
        "seed": SEED,
        "target_seconds": TARGET_SECONDS,
        "repeats": REPEATS,
        "machine": machine_meta(),
        "entries": entries,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline and exit non-zero on regression",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"write the measurement to {BASELINE_PATH}",
    )
    parser.add_argument(
        "--baseline",
        default=str(BASELINE_PATH),
        help="baseline artifact for --check (default: the committed one)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=50.0,
        help="max tolerated trials_per_s drop, percent (default 50)",
    )
    parser.add_argument(
        "--output", help="also write the measurement JSON to this path"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check and not pathlib.Path(args.baseline).is_file():
        print(
            f"no baseline at {args.baseline} "
            "(run with --update-baseline first)",
            file=sys.stderr,
        )
        return 2
    payload = run_smoke()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text)
    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(text)
        print(f"baseline written: {BASELINE_PATH}")
    if not args.check:
        if not args.update_baseline:
            print(text, end="")
        return 0

    baseline = bench_compare.load_artifact(args.baseline)
    lines, regressions, warnings = bench_compare.compare_artifacts(
        baseline,
        payload,
        metrics=["trials_per_s"],
        threshold_pct=args.threshold,
    )
    thread_warns = bench_compare.threading_warnings(baseline, payload)
    if thread_warns and regressions:
        # A different in-kernel thread count moves the _mt rates by
        # design; that is a configuration change, not a perf regression.
        warnings.append(
            f"{len(regressions)} drop(s) demoted to warnings "
            "(cross-thread-count comparison)"
        )
        warnings.extend(f"(not gated) {reg}" for reg in regressions)
        regressions = []
    warnings = (
        bench_compare.compatibility_warnings(baseline, payload)
        + thread_warns
        + warnings
    )
    print(f"baseline : {args.baseline}")
    print(f"threshold: -{args.threshold:.0f}% on trials_per_s")
    for line in lines:
        print(line)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if regressions:
        print(f"\nFAIL: {len(regressions)} perf regression(s)", file=sys.stderr)
        for reg in regressions:
            print(f"  {reg}", file=sys.stderr)
        return 1
    print("\nOK: smoke throughput within threshold of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
