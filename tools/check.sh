#!/usr/bin/env bash
# Repo gate: tier-1 tests, then the determinism/numerical-safety linter.
#
#   tools/check.sh            # human output
#   LINT_FORMAT=text tools/check.sh
#
# Exits non-zero if either stage fails, so it can serve directly as a CI
# job or pre-push hook.  The lint stage covers tests/ too (the pytest
# self-check gate only covers src/benchmarks/examples).

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== static analysis: repro.lint (incl. whole-program + FFI) =="
# --whole-program adds the cross-module passes: seed provenance (R101),
# double-fork (R102), RNG-across-pool (R103), pool-payload purity
# (R104), the C<->ctypes prototype checker (R110) over _kernels.c, and
# resource lifecycle (R111).  Results are cached in
# .repro-lint-cache.json keyed by content/policy/lint-code hashes.
python -m repro.lint src tests benchmarks examples --whole-program \
    --format "${LINT_FORMAT:-json}"

echo "== smoke: runtime and topology studies, both engines =="
# The fastpath kernels must render the same study as the DES oracle,
# both with the native kernels and with the NumPy fallback.
des_out=$(python -m repro.experiments.cli runtime --max-n 32 --engine des)
fast_out=$(python -m repro.experiments.cli runtime --max-n 32 --engine fastpath)
numpy_out=$(REPRO_NO_NATIVE=1 python -m repro.experiments.cli runtime --max-n 32 --engine fastpath)
if [ "$des_out" != "$fast_out" ]; then
    echo "engine mismatch: des and fastpath render different studies" >&2
    exit 1
fi
if [ "$des_out" != "$numpy_out" ]; then
    echo "engine mismatch: des and the NumPy fastpath (REPRO_NO_NATIVE=1) render different studies" >&2
    exit 1
fi
# The topology study is the CLI run of the fastpath's topology fallbacks
# (the timed BA/BA-HF level-order walk and the PHF event replay).  At its
# default grid (N = 16, 64, 256) the DES asks for the prescribed
# instances' children out of DFS order, which the lazy BA/BA-HF nodes
# must serve with the same draws.
des_out=$(python -m repro.experiments.cli topology --engine des)
fast_out=$(python -m repro.experiments.cli topology --engine fastpath)
numpy_out=$(REPRO_NO_NATIVE=1 python -m repro.experiments.cli topology --engine fastpath)
if [ "$des_out" != "$fast_out" ] || [ "$des_out" != "$numpy_out" ]; then
    echo "engine mismatch: the topology study differs between des, fastpath and REPRO_NO_NATIVE=1 fastpath" >&2
    exit 1
fi

# The renders above agree only to one decimal and only up to N = 32.
# Hash the full-precision per-trial study matrices at N = 1024 and 4096:
# the kernel-sampled rows and the radix-ordered PHF band against
# REPRO_NO_NATIVE (draw_rows, the PHF replay and the NumPy walks).
study_hash() {
    python - <<'EOF'
import hashlib

from repro.experiments.runtime_study import study_trial_metrics
from repro.problems.samplers import FixedAlpha, UniformAlpha

digest = hashlib.sha256()
for sampler in (UniformAlpha(0.1, 0.5), FixedAlpha(0.3), FixedAlpha(0.5)):
    for algorithm in ("hf", "phf", "ba", "bahf"):
        for n in (1024, 4096):
            for start in (0, 3):
                digest.update(study_trial_metrics(
                    algorithm, n, sampler, n_trials=4, seed=11, start=start,
                    engine="fastpath").tobytes())
print(digest.hexdigest())
EOF
}
native_hash=$(study_hash)
numpy_hash=$(REPRO_NO_NATIVE=1 study_hash)
if [ "$native_hash" != "$numpy_hash" ]; then
    echo "engine mismatch: study_trial_metrics matrices differ between the native kernels and REPRO_NO_NATIVE=1" >&2
    exit 1
fi

echo "== smoke: figure5, table1, distributions, native vs REPRO_NO_NATIVE =="
# With 64 trials per cell up to N=2048, the no-compiler HF cells fall on
# both sides of batch.numpy_hf_method (the argmax frontier up to N=512,
# the heapq oracle from N=1024); the figure must be byte-identical to
# the compiled kernels' either way.  figure5 (U[0.1,0.5]) and table1
# (U[0.01,0.5]) take the seeded native path, which samples rows in C;
# distributions puts that path beside Beta and Discrete samplers, which
# sample numpy rows for the native kernels.
# figure5 and table1 also write their full-precision CSV, compared too
# (both runs write the same path, so their stdout names the same file).
fig_native=$(mktemp)
fig_numpy=$(mktemp)
csv_native=$(mktemp)
csv=$(mktemp)
for run in "figure5 --trials 64 --max-n 2048 --csv $csv" \
           "table1 --trials 32 --max-n 1024 --csv $csv" \
           "distributions --trials 32 --max-n 128"; do
    : > "$csv"
    # shellcheck disable=SC2086  # $run is the subcommand and its flags
    python -m repro.experiments.cli $run > "$fig_native"
    cp "$csv" "$csv_native"
    : > "$csv"
    # shellcheck disable=SC2086
    REPRO_NO_NATIVE=1 python -m repro.experiments.cli $run > "$fig_numpy"
    if ! cmp -s "$fig_native" "$fig_numpy" || ! cmp -s "$csv_native" "$csv"; then
        echo "${run%% *} differs between the native kernels and REPRO_NO_NATIVE=1" >&2
        diff "$fig_native" "$fig_numpy" >&2 || true
        diff "$csv_native" "$csv" >&2 || true
        exit 1
    fi
done
rm -f "$fig_native" "$fig_numpy" "$csv_native" "$csv"

echo "== smoke: bench_compare self-diff =="
# A benchmark artifact compared against itself must report no regression.
if [ -f benchmarks/results/BENCH_fastpath.json ]; then
    python tools/bench_compare.py \
        benchmarks/results/BENCH_fastpath.json \
        benchmarks/results/BENCH_fastpath.json > /dev/null
fi

echo "== smoke: warm native load runs no compile =="
# Pool workers are fresh processes: on a warm artifact cache their first
# native load must reuse the cached library without any compile-and-link
# step.  With a compiler present the library is the pthread build (the
# serial fallback is only for toolchains that reject -pthread).
python -c "from repro.core._native import native_available; native_available()"
python - <<'EOF'
import subprocess

run = subprocess.run
links = []


def spy(args, *a, **kw):
    if "-shared" in args:
        links.append(list(args))
    return run(args, *a, **kw)


subprocess.run = spy
from repro.core import _native

if not _native.native_available():
    print("native kernels unavailable: nothing to check")
else:
    assert not links, f"warm load ran a compile step: {links}"
    mode = _native.native_threading_mode()
    if _native._find_compiler() is not None:
        assert mode == "pthread", f"threading mode {mode!r}, expected pthread"
    print(f"warm native load OK: no link ({mode})")
EOF

echo "== perf gate: calibrated smoke bench vs committed baseline =="
# Re-measures the four hot paths (batched HF/BA/BA-HF, PHF fastpath) at
# N=4096 and fails when throughput drops beyond the relative threshold.
python tools/bench_smoke.py --check --threshold "${PERF_THRESHOLD:-50}"

echo "== smoke: fault study =="
# The fault-injection study must run end to end, and the rate-0 column
# must agree with the fault-free DES (the inertness invariant).
python - <<'EOF'
from repro.experiments.fault_study import run_fault_study

result = run_fault_study(
    algorithms=("hf", "phf", "ba"),
    n_values=(8,),
    fault_rates=(0.0, 0.2),
    n_trials=4,
    seed=7,
)
clean = [r for r in result.records if r.fault_rate == 0.0]
assert clean, "fault study produced no rate-0 records"
for rec in clean:
    assert rec.recovery_wait == 0.0, rec
    assert rec.degraded_fraction == 0.0, rec
EOF

echo "== smoke: journal truncate + cross-mode resume bit-identity =="
# Interrupt a journaled run (truncate the journal mid-state), resume it
# under the *other* execution mode (written pooled, resumed serially, and
# vice versa), and require the merged result to match an uninterrupted
# serial run bit for bit -- for a sweep, a runtime-study cell and a
# fault-study cell.  Pooled chunks sample their own draws, so no run
# may publish a repro_draws_* segment: none may be live when the
# executor starts, and none may be left behind.
python - <<'EOF'
import glob
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.experiments import runner
from repro.experiments.config import StochasticConfig
from repro.experiments.fault_study import run_fault_study
from repro.experiments.runner import run_sweep
from repro.experiments.runtime_study import run_study_cells
from repro.problems.samplers import UniformAlpha


def segments():
    return set(glob.glob("/dev/shm/repro_draws_*"))


before = segments()
executor = runner.execute_chunks
starts = []


def spied_execute_chunks(*args, **kwargs):
    starts.append(kwargs.get("n_jobs"))
    live = segments() - before
    assert not live, f"draw segments live as the executor starts: {sorted(live)}"
    return executor(*args, **kwargs)


runner.execute_chunks = spied_execute_chunks


def no_new_segments(what):
    left = segments() - before
    assert not left, f"{what} left draw segments behind: {sorted(left)}"


def truncate(journal):
    lines = journal.read_text().splitlines(keepends=True)
    keep = 1 + (len(lines) - 1) // 2            # header + half the chunks
    journal.write_text("".join(lines[:keep]) + '{"kind": "chu')  # torn tail


config = StochasticConfig.paper_table1(
    n_trials=12, n_values=(4, 8), seed=11, chunk_size=4
)
plain = run_sweep(config)
pooled = replace(config, n_jobs=2)
assert run_sweep(pooled).records == plain.records, "pooled sweep is not bit-identical"
with tempfile.TemporaryDirectory() as tmp:
    for writer, reader in ((pooled, config), (config, pooled)):
        journal = Path(tmp) / f"sweep{writer.n_jobs}.jsonl"
        run_sweep(writer, journal_path=journal)
        truncate(journal)
        resumed = run_sweep(reader, journal_path=journal, resume=True)
        assert resumed.records == plain.records, (
            f"sweep resume (n_jobs {writer.n_jobs} -> {reader.n_jobs}) "
            "is not bit-identical"
        )
    no_new_segments("the sweep")

    cells = [(("ba", 8), "ba", 8, None)]
    study = dict(sampler=UniformAlpha(0.1, 0.5), n_trials=8, seed=11, chunk_size=2)
    plain_study = run_study_cells(cells, **study)
    for write_jobs, read_jobs in ((2, 1), (1, 2)):
        journal = Path(tmp) / f"study{write_jobs}.jsonl"
        run_study_cells(cells, **study, n_jobs=write_jobs, journal_path=journal)
        truncate(journal)
        resumed_study = run_study_cells(
            cells, **study, n_jobs=read_jobs, journal_path=journal, resume=True
        )
        assert np.array_equal(resumed_study[("ba", 8)], plain_study[("ba", 8)]), (
            f"study resume (n_jobs {write_jobs} -> {read_jobs}) is not bit-identical"
        )
    no_new_segments("the study")

    # the fault study: pooled write, serial resume
    fault = dict(algorithms=("ba",), n_values=(8,), fault_rates=(0.2,),
                 n_trials=8, seed=11, chunk_size=2)
    plain_fault = run_fault_study(**fault)
    journal = Path(tmp) / "fault.jsonl"
    run_fault_study(**fault, n_jobs=2, journal_path=journal)
    truncate(journal)
    resumed_fault = run_fault_study(**fault, journal_path=journal, resume=True)
    assert resumed_fault.records == plain_fault.records, (
        "fault-study resume is not bit-identical"
    )
    no_new_segments("the fault study")
assert starts.count(2) == 6, f"pooled runs seen by the executor spy: {starts}"
EOF

echo "== chaos: supervised sweep under injected faults + crash consistency =="
# Run a short journaled sweep under the fixed 'smoke' chaos profile
# (two worker SIGKILLs, one over-deadline hang, transient failures) and
# require (a) the pool was rebuilt and every chunk accounted for, (b) the
# merged result is bit-identical to the fault-free serial run, (c) a
# post-chaos resume replays bit-identically, and (d) a real SIGKILL
# mid-journal-append leaves a file that `journal verify` accepts and a
# resume completes exactly.
python - <<'EOF'
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.chaos import CHAOS_PROFILES, ChaosSpec, RunReport
from repro.experiments.config import StochasticConfig
from repro.experiments.runner import run_sweep

config = StochasticConfig.paper_table1(
    n_trials=12, n_values=(4, 8), seed=11, chunk_size=4
)
plain = run_sweep(config)
pooled = replace(config, n_jobs=2)
chaos = ChaosSpec(config=CHAOS_PROFILES["smoke"], seed=1)
with tempfile.TemporaryDirectory() as tmp:
    journal = Path(tmp) / "chaos.jsonl"
    report = RunReport()
    stormy = run_sweep(
        pooled,
        journal_path=journal,
        chunk_timeout=0.75,
        chunk_retries=3,
        chaos=chaos,
        report=report,
    )
    assert stormy.records == plain.records, "chaos run is not bit-identical"
    assert report.accounted, f"unaccounted chunks: {report.summary()}"
    assert report.pool_rebuilds >= 1, f"no pool rebuild: {report.summary()}"
    assert report.timeouts >= 1, f"no deadline hit: {report.summary()}"
    assert not report.quarantined, f"quarantined: {report.summary()}"
    resumed = run_sweep(pooled, journal_path=journal, resume=True)
    assert resumed.records == plain.records, "post-chaos resume differs"

    # crash consistency: SIGKILL a real subprocess mid-journal-append
    crash_journal = Path(tmp) / "crash.jsonl"
    victim = subprocess.run(
        [sys.executable, "-c", """
import sys
from dataclasses import replace
from repro.experiments.config import StochasticConfig
from repro.experiments.runner import run_sweep
config = StochasticConfig.paper_table1(
    n_trials=12, n_values=(4, 8), seed=11, chunk_size=4
)
run_sweep(config, journal_path=sys.argv[1])
""", str(crash_journal)],
        env={**os.environ, "REPRO_CHAOS_CRASH": "journal-append:4:9"},
    )
    assert victim.returncode == -9, f"victim exited {victim.returncode}, not SIGKILL"
    verify = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "journal", "verify",
         str(crash_journal)],
    )
    assert verify.returncode == 0, "journal verify rejected the crashed file"
    recovered = run_sweep(config, journal_path=crash_journal, resume=True)
    assert recovered.records == plain.records, "post-crash resume differs"
print("chaos smoke OK")
EOF

echo "== serve: chaos burst, zero drops, graceful drain =="
# Start the partition service on an ephemeral port with the 'smoke'
# chaos profile injected into its first batches (real worker SIGKILLs +
# an over-deadline hang), fire a short load burst, and require (a) every
# request got an HTTP response (shed/expired are legal, silent drops are
# not), (b) the drained ServeReport accounts for every request, and (c)
# SIGTERM drains cleanly with exit code 0.
serve_log=$(mktemp)
serve_report=$(mktemp)
python -m repro.serve --port 0 --workers 2 \
    --chaos-profile smoke --chaos-batches 3 \
    --report "$serve_report" > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 50); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
done
serve_port=$(grep -oP 'listening on [^:]+:\K[0-9]+' "$serve_log")
if [ -z "$serve_port" ]; then
    echo "serve stage: server never came up" >&2
    cat "$serve_log" >&2
    exit 1
fi
python tools/loadgen.py --port "$serve_port" --duration 2 \
    --connections 16 --strict
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
    echo "serve stage: server exited $serve_rc after SIGTERM (want 0)" >&2
    cat "$serve_log" >&2
    exit 1
fi
python - "$serve_report" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["accounted"], f"unaccounted requests: {report}"
assert report["drained"], "server did not record a graceful drain"
assert report["received"] > 0, "loadgen reached the server zero times"
assert report["worker_deaths"] >= 1, f"chaos injected no worker death: {report}"
print(
    f"serve stage OK: {report['received']} requests, "
    f"{report['worker_deaths']} worker deaths, "
    f"{report['breaker_trips']} breaker trips, accounted + drained"
)
EOF
rm -f "$serve_log" "$serve_report"

echo "== all checks passed =="
