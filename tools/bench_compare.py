#!/usr/bin/env python
"""Compare two ``benchmarks/results/BENCH_*.json`` artifacts.

Both files must follow the benchmark-artifact convention used by
``bench_batch.py`` and ``bench_fastpath.py``: a top-level mapping whose
entry groups (``"kernels"``, ``"algorithms"``, ...) map names to flat
dicts of numeric metrics.  The tool diffs every metric present in both
files and exits non-zero when a higher-is-better metric (throughput,
speedup) regresses by more than ``--threshold`` percent -- so it can gate
a CI job against a committed baseline::

    python tools/bench_compare.py \
        benchmarks/results/BENCH_fastpath.json /tmp/BENCH_fastpath.json \
        --metrics speedup,fastpath_trials_per_s --threshold 20

Metrics not named in ``--metrics`` are reported but never gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "compare_artifacts",
    "compatibility_warnings",
    "iter_metrics",
    "load_artifact",
    "main",
    "threading_warnings",
]

#: Top-level keys that hold {name: {metric: value}} entry groups.
GROUP_KEYS = ("kernels", "algorithms", "entries")

#: ``machine`` block fields whose disagreement marks a cross-machine
#: comparison (throughput numbers from different CPUs / interpreter /
#: NumPy builds are not apples to apples).
MACHINE_KEYS = ("cpu_model", "machine", "cpu_count", "python", "numpy")

#: ``machine`` block fields describing the native kernels' threading
#: context (compiled-in mode, effective in-kernel thread count).  When
#: these disagree, a throughput drop says nothing about the code -- the
#: two runs used different parallelism -- so gated regressions are
#: demoted to warnings instead of failing the comparison.
THREADING_KEYS = ("native_threading", "n_threads")

#: Metrics gated by default (all higher-is-better rates).
DEFAULT_METRICS = (
    "speedup",
    "trials_per_s",
    "batch_trials_per_s",
    "fastpath_trials_per_s",
    "des_trials_per_s",
    "scalar_trials_per_s",
    "native_trials_per_s",
    "numpy_trials_per_s",
    "throughput_rps",
)

#: Lower-is-better metrics gated by default -- the latency-percentile
#: group of ``BENCH_serve.json`` (an *increase* beyond the threshold is
#: the regression).  They obey the same cross-machine / cross-threading
#: demotion rules as the throughput keys: latency numbers from a
#: different CPU or kernel thread count say nothing about the code.
DEFAULT_LOWER_METRICS = (
    "p50_ms",
    "p99_ms",
    "shed_rate",
)


def load_artifact(path: str) -> Dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return payload


def iter_metrics(payload: Dict) -> Iterator[Tuple[str, str, float]]:
    """Yield ``(entry_name, metric_name, value)`` for every numeric metric."""
    for group in GROUP_KEYS:
        entries = payload.get(group)
        if not isinstance(entries, dict):
            continue
        for name, metrics in sorted(entries.items()):
            if not isinstance(metrics, dict):
                continue
            for metric, value in sorted(metrics.items()):
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                yield name, metric, float(value)


def _machine_pairs(baseline: Dict, candidate: Dict) -> List[Tuple[str, object, object]]:
    """``(where, baseline_machine, candidate_machine)`` blocks to compare.

    An artifact keeps its ``machine`` block at the top level, or in each
    entry of its :data:`GROUP_KEYS` groups (``BENCH_native.json``, whose
    entries come from separate runs).  Entries present in both artifacts
    pair by ``group.name`` when either carries a block; a side without
    one falls back to its top-level block.  With no entry blocks the
    top-level pair is compared, as ``where == ""``.
    """

    def entries(payload: Dict) -> Dict[str, Dict]:
        return {
            f"{group}.{name}": metrics
            for group in GROUP_KEYS
            if isinstance(payload.get(group), dict)
            for name, metrics in payload[group].items()
            if isinstance(metrics, dict)
        }

    base_top, cand_top = baseline.get("machine"), candidate.get("machine")
    base, cand = entries(baseline), entries(candidate)
    pairs = [
        (
            where,
            base[where].get("machine", base_top),
            cand[where].get("machine", cand_top),
        )
        for where in sorted(set(base) & set(cand))
        if "machine" in base[where] or "machine" in cand[where]
    ]
    return pairs or [("", base_top, cand_top)]


def _differing(
    pairs: List[Tuple[str, object, object]], keys: Sequence[str]
) -> Iterator[Tuple[str, object, object, str]]:
    """``(key, old, new, where)`` for each ``keys`` field that differs,
    grouping the entries that share a difference (``where`` is empty for
    the top-level pair)."""
    found: Dict[Tuple[str, str, str], Tuple[object, object, List[str]]] = {}
    for where, old_block, new_block in pairs:
        if not isinstance(old_block, dict) or not isinstance(new_block, dict):
            continue
        for key in keys:
            old, new = old_block.get(key), new_block.get(key)
            if old != new:
                tag = (key, repr(old), repr(new))
                found.setdefault(tag, (old, new, []))[2].append(where)
    for (key, _, _), (old, new, wheres) in found.items():
        yield key, old, new, _in_entries(wheres)


def _in_entries(wheres: List[str]) -> str:
    named = [w for w in wheres if w]
    return f" in {', '.join(named)}" if named else ""


def compatibility_warnings(baseline: Dict, candidate: Dict) -> List[str]:
    """Non-fatal mismatches between two artifacts' provenance blocks.

    Flags a differing (or missing) ``schema_version`` and any
    :data:`MACHINE_KEYS` field that disagrees between the two
    artifacts' ``machine`` blocks (top-level or per entry, see
    :func:`_machine_pairs`) -- a cross-machine throughput diff still
    runs, but the numbers should be read as apples-to-oranges.  A
    ``null`` or absent block facing a real one is missing metadata.
    """
    warns: List[str] = []
    base_schema = baseline.get("schema_version")
    cand_schema = candidate.get("schema_version")
    if base_schema != cand_schema:
        warns.append(
            f"schema_version differs: baseline={base_schema!r} "
            f"candidate={cand_schema!r} (artifact layouts may not match)"
        )
    pairs = _machine_pairs(baseline, candidate)
    missing = [
        where
        for where, old, new in pairs
        if old != new and not (isinstance(old, dict) and isinstance(new, dict))
    ]
    if missing:
        warns.append(
            f"machine metadata missing from one artifact{_in_entries(missing)}"
            "; cannot rule out a cross-machine comparison"
        )
    for key, old, new, where in _differing(pairs, MACHINE_KEYS):
        warns.append(
            f"cross-machine comparison: machine.{key} differs "
            f"(baseline={old!r}, candidate={new!r}){where}"
        )
    return warns


def threading_warnings(baseline: Dict, candidate: Dict) -> List[str]:
    """Mismatches in the artifacts' native-threading context.

    Distinct from :func:`compatibility_warnings`: a cross-thread-count
    comparison is not merely apples-to-oranges, it *invalidates* the
    throughput gate (more or fewer kernel threads move every rate), so
    callers demote gated regressions to warnings when this returns
    anything.  Artifacts predating the threading fields compare as
    ``None`` and do not trip the check against each other.
    """
    return [
        f"cross-thread-count comparison: machine.{key} differs "
        f"(baseline={old!r}, candidate={new!r}){where}; throughput "
        "changes reflect the threading setup, not the code"
        for key, old, new, where in _differing(
            _machine_pairs(baseline, candidate), THREADING_KEYS
        )
    ]


def compare_artifacts(
    baseline: Dict,
    candidate: Dict,
    *,
    metrics: Sequence[str],
    threshold_pct: float,
    lower_metrics: Sequence[str] = (),
) -> Tuple[List[str], List[str], List[str]]:
    """(report_lines, regression_lines, warnings) for candidate vs baseline.

    ``metrics`` are higher-is-better rates (a *drop* beyond the
    threshold regresses); ``lower_metrics`` are lower-is-better values
    such as latency percentiles and shed rates (an *increase* beyond the
    threshold regresses; a lower metric growing from a zero baseline is
    always a regression, since no relative change can describe it).

    A metric key present in one artifact but not the other is never an
    error: each such key yields one ``warnings`` entry (and, when the
    metric is gated, a regression), so artifacts written by different
    benchmark versions still diff cleanly.
    """
    overlap = set(metrics) & set(lower_metrics)
    if overlap:
        raise ValueError(
            f"metrics gated in both directions: {sorted(overlap)}"
        )
    base = {(n, m): v for n, m, v in iter_metrics(baseline)}
    cand = {(n, m): v for n, m, v in iter_metrics(candidate)}
    gated = set(metrics)
    gated_lower = set(lower_metrics)
    lines: List[str] = []
    regressions: List[str] = []
    warnings: List[str] = []
    seen_metrics = {m for _, m in base} | {m for _, m in cand}
    for metric in list(metrics) + list(lower_metrics):
        if metric not in seen_metrics:
            warnings.append(
                f"gated metric {metric!r} appears in neither artifact"
            )
    for key in sorted(base):
        name, metric = key
        if key not in cand:
            lines.append(f"  {name}.{metric}: missing from candidate")
            warnings.append(f"{name}.{metric} missing from candidate")
            if metric in gated or metric in gated_lower:
                regressions.append(f"{name}.{metric} missing from candidate")
            continue
        old, new = base[key], cand[key]
        if not old:  # zero baseline: no meaningful relative change
            change = "n/a"
            pct = 0.0
        else:
            pct = (new - old) / abs(old) * 100.0
            change = f"{pct:+.1f}%"
        gate = metric in gated or metric in gated_lower
        mark = "*" if gate else " "
        lines.append(
            f" {mark}{name}.{metric}: {old:.4g} -> {new:.4g} ({change})"
        )
        # Higher-is-better rates regress on a drop beyond the threshold;
        # lower-is-better values (latency, shed rate) on a rise.
        if metric in gated and old and pct < -threshold_pct:
            regressions.append(
                f"{name}.{metric} regressed {pct:.1f}% "
                f"({old:.4g} -> {new:.4g}, threshold -{threshold_pct:.1f}%)"
            )
        elif metric in gated_lower:
            if old and pct > threshold_pct:
                regressions.append(
                    f"{name}.{metric} regressed {pct:+.1f}% "
                    f"({old:.4g} -> {new:.4g}, threshold "
                    f"+{threshold_pct:.1f}%, lower is better)"
                )
            elif not old and new > 0:
                regressions.append(
                    f"{name}.{metric} regressed from a zero baseline "
                    f"(0 -> {new:.4g}, lower is better)"
                )
    for key in sorted(set(cand) - set(base)):
        name, metric = key
        lines.append(f"  {name}.{metric}: new metric ({cand[key]:.4g})")
        warnings.append(f"{name}.{metric} missing from baseline")
    return lines, regressions, warnings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--metrics",
        default=",".join(DEFAULT_METRICS),
        help=(
            "comma-separated higher-is-better metrics to gate on "
            f"(default: {','.join(DEFAULT_METRICS)})"
        ),
    )
    parser.add_argument(
        "--lower-metrics",
        default=",".join(DEFAULT_LOWER_METRICS),
        help=(
            "comma-separated lower-is-better metrics to gate on -- "
            "latency percentiles and shed rates, where an increase is "
            f"the regression (default: {','.join(DEFAULT_LOWER_METRICS)})"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="max tolerated drop in a gated metric, percent (default 25)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threshold < 0.0:
        print("--threshold must be >= 0", file=sys.stderr)
        return 2
    metrics = [m for m in args.metrics.split(",") if m]
    lower_metrics = [m for m in args.lower_metrics.split(",") if m]
    baseline = load_artifact(args.baseline)
    candidate = load_artifact(args.candidate)
    lines, regressions, warnings = compare_artifacts(
        baseline,
        candidate,
        metrics=metrics,
        threshold_pct=args.threshold,
        lower_metrics=lower_metrics,
    )
    thread_warns = threading_warnings(baseline, candidate)
    if thread_warns and regressions:
        # Different thread counts move every throughput metric; gating
        # would punish the configuration, not the code.
        warnings.append(
            f"{len(regressions)} gated drop(s) demoted to warnings "
            "(cross-thread-count comparison)"
        )
        warnings.extend(f"(not gated) {reg}" for reg in regressions)
        regressions = []
    warnings = compatibility_warnings(baseline, candidate) + thread_warns + warnings
    print(f"baseline : {args.baseline}")
    print(f"candidate: {args.candidate}")
    print(f"gated metrics (*): {', '.join(metrics) or '(none)'}")
    print(
        f"gated lower-is-better (*): {', '.join(lower_metrics) or '(none)'}"
    )
    for line in lines:
        print(line)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s)", file=sys.stderr)
        for reg in regressions:
            print(f"  {reg}", file=sys.stderr)
        return 1
    print("\nOK: no gated metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
