"""Tests for the benchmark-artifact comparison tool (tools/bench_compare.py).

Covers the metric walker, the regression gate, the cross-machine /
schema-version compatibility warnings, and the CLI exit codes -- the
pieces ``tools/check.sh`` relies on for its standing perf gate.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_compare  # noqa: E402


def artifact(rate, *, schema=1, machine=None, group="entries"):
    payload = {
        "schema_version": schema,
        group: {"hot_path": {"trials_per_s": rate, "n_trials": 100}},
    }
    if machine is not None:
        payload["machine"] = machine
    return payload


MACHINE = {
    "cpu_model": "TestCPU 9000",
    "machine": "x86_64",
    "cpu_count": 1,
    "python": "3.11.7",
    "numpy": "2.4.6",
}


class TestIterMetrics:
    def test_walks_all_group_keys(self):
        payload = {
            "kernels": {"hf": {"speedup": 2.0}},
            "algorithms": {"ba": {"rate": 3}},
            "entries": {"e": {"x": 1.5}},
        }
        got = set(bench_compare.iter_metrics(payload))
        assert got == {("hf", "speedup", 2.0), ("ba", "rate", 3.0), ("e", "x", 1.5)}

    def test_skips_bools_and_non_numeric(self):
        payload = {
            "entries": {"e": {"ok": True, "label": "x", "rate": 1.0}}
        }
        got = list(bench_compare.iter_metrics(payload))
        assert got == [("e", "rate", 1.0)]

    def test_ignores_scalar_top_level_keys(self):
        assert list(bench_compare.iter_metrics({"n_trials": 5})) == []


class TestCompare:
    def test_identical_artifacts_pass(self):
        a = artifact(100.0)
        _, regressions, warnings = bench_compare.compare_artifacts(
            a, a, metrics=["trials_per_s"], threshold_pct=25.0
        )
        assert regressions == []
        assert warnings == []

    def test_drop_beyond_threshold_regresses(self):
        _, regressions, _ = bench_compare.compare_artifacts(
            artifact(100.0), artifact(60.0),
            metrics=["trials_per_s"], threshold_pct=25.0,
        )
        assert len(regressions) == 1
        assert "trials_per_s" in regressions[0]

    def test_drop_within_threshold_passes(self):
        _, regressions, _ = bench_compare.compare_artifacts(
            artifact(100.0), artifact(80.0),
            metrics=["trials_per_s"], threshold_pct=25.0,
        )
        assert regressions == []

    def test_improvement_never_regresses(self):
        _, regressions, _ = bench_compare.compare_artifacts(
            artifact(100.0), artifact(500.0),
            metrics=["trials_per_s"], threshold_pct=25.0,
        )
        assert regressions == []

    def test_gated_metric_missing_from_candidate_regresses(self):
        candidate = {"schema_version": 1, "entries": {"hot_path": {"n_trials": 100}}}
        _, regressions, warnings = bench_compare.compare_artifacts(
            artifact(100.0), candidate,
            metrics=["trials_per_s"], threshold_pct=25.0,
        )
        assert regressions
        assert any("missing from candidate" in w for w in warnings)

    def test_ungated_metric_only_warns(self):
        base = artifact(100.0)
        cand = artifact(100.0)
        cand["entries"]["hot_path"]["extra"] = 1.0
        _, regressions, warnings = bench_compare.compare_artifacts(
            base, cand, metrics=["trials_per_s"], threshold_pct=25.0
        )
        assert regressions == []
        assert any("missing from baseline" in w for w in warnings)


class TestCompatibilityWarnings:
    def test_same_machine_and_schema_quiet(self):
        a = artifact(1.0, machine=dict(MACHINE))
        assert bench_compare.compatibility_warnings(a, a) == []

    def test_cross_machine_warns_per_differing_field(self):
        other = dict(MACHINE, cpu_model="OtherCPU", cpu_count=64)
        warns = bench_compare.compatibility_warnings(
            artifact(1.0, machine=MACHINE), artifact(1.0, machine=other)
        )
        assert len(warns) == 2
        assert all("cross-machine" in w for w in warns)

    def test_schema_version_mismatch_warns(self):
        warns = bench_compare.compatibility_warnings(
            artifact(1.0, schema=1, machine=MACHINE),
            artifact(1.0, schema=2, machine=MACHINE),
        )
        assert any("schema_version" in w for w in warns)

    def test_missing_machine_block_warns(self):
        warns = bench_compare.compatibility_warnings(
            artifact(1.0, machine=MACHINE), artifact(1.0)
        )
        assert any("machine metadata missing" in w for w in warns)

    def test_both_missing_machine_blocks_quiet(self):
        assert bench_compare.compatibility_warnings(
            artifact(1.0), artifact(1.0)
        ) == []


def native_artifact(ba_machine, bahf_machine, rate=100.0):
    """BENCH_native.json's layout: a machine block in each entry."""
    return {
        "schema_version": 1,
        "kernels": {
            "ba": {"native_trials_per_s": rate, "machine": ba_machine},
            "bahf": {"native_trials_per_s": rate, "machine": bahf_machine},
        },
    }


class TestPerEntryMachines:
    def test_same_entry_machines_quiet(self):
        a = native_artifact(MACHINE, MACHINE)
        assert bench_compare.compatibility_warnings(a, a) == []
        assert bench_compare.threading_warnings(a, a) == []

    def test_cross_machine_entries_warn(self):
        other = dict(MACHINE, cpu_model="OtherCPU")
        warns = bench_compare.compatibility_warnings(
            native_artifact(MACHINE, MACHINE), native_artifact(other, other)
        )
        assert warns == [
            "cross-machine comparison: machine.cpu_model differs "
            "(baseline='TestCPU 9000', candidate='OtherCPU') "
            "in kernels.ba, kernels.bahf"
        ]

    def test_null_entry_machine_is_missing_metadata(self):
        warns = bench_compare.compatibility_warnings(
            native_artifact(MACHINE, MACHINE), native_artifact(MACHINE, None)
        )
        assert len(warns) == 1
        assert "machine metadata missing" in warns[0]
        assert "kernels.bahf" in warns[0] and "kernels.ba," not in warns[0]

    def test_entries_only_in_one_artifact_are_not_compared(self):
        base = native_artifact(MACHINE, MACHINE)
        cand = native_artifact(MACHINE, MACHINE)
        cand["kernels"]["hf"] = {"native_trials_per_s": 1.0, "machine": None}
        assert bench_compare.compatibility_warnings(base, cand) == []

    def test_entry_thread_count_demotes_the_gate(self, tmp_path, capsys):
        threaded = dict(MACHINE, n_threads=2)
        base = tmp_path / "a.json"
        cand = tmp_path / "b.json"
        base.write_text(json.dumps(native_artifact(MACHINE, MACHINE)))
        cand.write_text(json.dumps(native_artifact(threaded, threaded, rate=10.0)))
        assert bench_compare.main([str(base), str(cand)]) == 0
        err = capsys.readouterr().err
        assert "cross-thread-count comparison: machine.n_threads" in err
        assert "demoted to warnings" in err


class TestMain:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, "a.json", artifact(100.0, machine=MACHINE))
        assert bench_compare.main([path, path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self.write(tmp_path, "a.json", artifact(100.0, machine=MACHINE))
        cand = self.write(tmp_path, "b.json", artifact(10.0, machine=MACHINE))
        assert bench_compare.main([base, cand, "--threshold", "25"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_cross_machine_warning_reaches_stderr(self, tmp_path, capsys):
        other = dict(MACHINE, cpu_model="OtherCPU")
        base = self.write(tmp_path, "a.json", artifact(100.0, machine=MACHINE))
        cand = self.write(tmp_path, "b.json", artifact(100.0, machine=other))
        assert bench_compare.main([base, cand]) == 0
        assert "cross-machine" in capsys.readouterr().err

    def test_negative_threshold_exits_two(self, tmp_path):
        path = self.write(tmp_path, "a.json", artifact(1.0))
        assert bench_compare.main([path, path, "--threshold", "-3"]) == 2

    def test_committed_artifacts_parse(self):
        results = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        for path in sorted(results.glob("BENCH_*.json")):
            payload = bench_compare.load_artifact(str(path))
            assert list(bench_compare.iter_metrics(payload)), path.name


def serve_artifact(p50=10.0, p99=20.0, shed=0.0, rps=1000.0, machine=None):
    payload = {
        "schema_version": 1,
        "entries": {
            "serve": {
                "p50_ms": p50,
                "p99_ms": p99,
                "shed_rate": shed,
                "throughput_rps": rps,
            }
        },
    }
    if machine is not None:
        payload["machine"] = machine
    return payload


class TestLowerMetrics:
    """Lower-is-better gating for the BENCH_serve.json latency group."""

    def compare(self, base, cand, threshold=25.0):
        return bench_compare.compare_artifacts(
            base, cand,
            metrics=["throughput_rps"],
            lower_metrics=["p50_ms", "p99_ms", "shed_rate"],
            threshold_pct=threshold,
        )

    def test_identical_passes(self):
        a = serve_artifact()
        _, regressions, _ = self.compare(a, a)
        assert regressions == []

    def test_latency_rise_beyond_threshold_regresses(self):
        _, regressions, _ = self.compare(
            serve_artifact(p99=20.0), serve_artifact(p99=30.0)
        )
        assert len(regressions) == 1
        assert "p99_ms" in regressions[0]
        assert "lower is better" in regressions[0]

    def test_latency_rise_within_threshold_passes(self):
        _, regressions, _ = self.compare(
            serve_artifact(p99=20.0), serve_artifact(p99=23.0)
        )
        assert regressions == []

    def test_latency_drop_never_regresses(self):
        _, regressions, _ = self.compare(
            serve_artifact(p50=10.0, p99=20.0), serve_artifact(p50=1.0, p99=2.0)
        )
        assert regressions == []

    def test_zero_baseline_rise_always_regresses(self):
        # shed_rate going 0 -> anything has no relative change; it must
        # still gate (a service that starts shedding regressed)
        _, regressions, _ = self.compare(
            serve_artifact(shed=0.0), serve_artifact(shed=0.01)
        )
        assert len(regressions) == 1
        assert "zero baseline" in regressions[0]

    def test_zero_baseline_staying_zero_passes(self):
        _, regressions, _ = self.compare(
            serve_artifact(shed=0.0), serve_artifact(shed=0.0)
        )
        assert regressions == []

    def test_throughput_drop_still_gated_alongside(self):
        _, regressions, _ = self.compare(
            serve_artifact(rps=1000.0), serve_artifact(rps=500.0)
        )
        assert len(regressions) == 1
        assert "throughput_rps" in regressions[0]

    def test_metric_gated_both_directions_rejected(self):
        a = serve_artifact()
        with pytest.raises(ValueError, match="both directions"):
            bench_compare.compare_artifacts(
                a, a,
                metrics=["p99_ms"],
                lower_metrics=["p99_ms"],
                threshold_pct=25.0,
            )

    def test_default_lower_metrics_cover_the_serve_artifact(self):
        assert set(bench_compare.DEFAULT_LOWER_METRICS) == {
            "p50_ms", "p99_ms", "shed_rate"
        }
        assert "throughput_rps" in bench_compare.DEFAULT_METRICS


class TestLowerMetricsMain:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_main_gates_latency_by_default(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "a.json", serve_artifact(p99=20.0, machine=MACHINE)
        )
        cand = self.write(
            tmp_path, "b.json", serve_artifact(p99=40.0, machine=MACHINE)
        )
        assert bench_compare.main([base, cand, "--threshold", "25"]) == 1
        err = capsys.readouterr().err
        assert "p99_ms" in err

    def test_main_lower_metrics_flag_overrides(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "a.json", serve_artifact(p99=20.0, machine=MACHINE)
        )
        cand = self.write(
            tmp_path, "b.json", serve_artifact(p99=40.0, machine=MACHINE)
        )
        # gating only p50_ms leaves the p99 rise as an ungated FYI line
        assert bench_compare.main(
            [base, cand, "--threshold", "25", "--lower-metrics", "p50_ms"]
        ) == 0

    def test_committed_serve_artifact_self_compares_clean(self, capsys):
        results = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        path = results / "BENCH_serve.json"
        assert path.is_file(), "BENCH_serve.json must be committed"
        assert bench_compare.main([str(path), str(path)]) == 0
