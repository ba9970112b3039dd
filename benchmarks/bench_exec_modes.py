"""Sweep execution modes at N = 2^16: process pool, thread pool, serial.

A sweep's chunks run one of three ways: a process pool
(``n_jobs > 1``, ``backend="processes"``), a thread pool over the
GIL-releasing native kernels (``backend="threads"``), or serially in the
parent with the kernels threading internally (``n_jobs=1``,
``REPRO_NATIVE_THREADS``).  Pools pin the kernels to one thread per
chunk, and every chunk samples its own draws where it runs.

This bench times the three on one Figure 5 cell set (U[0.1, 0.5],
N = 65536, 64 trials in chunks of 16, HF/BA-HF/BA), two workers or two
kernel threads each.  Every run is a fresh interpreter that first runs a
small warm-up sweep, then times one full ``run_sweep`` call (pool start
included).  Modes alternate within each round, and the order rotates
from round to round, so host drift hits every mode alike.  It writes
``benchmarks/results/BENCH_exec_modes.json``::

    PYTHONPATH=src python benchmarks/bench_exec_modes.py [--rounds R] [--seeds 1,2]

and exits non-zero unless every mode gives bit-identical records for
each seed.  Under pytest the same run is
``benchmarks/bench_exec_modes.py::test_exec_modes``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _common import BENCH_SCHEMA_VERSION, RESULTS_DIR, machine_meta, run_once

N_PROCESSORS = 65536
N_TRIALS = 64
CHUNK_SIZE = 16
WORKERS = 2
SEEDS = (1, 2)
ROUNDS = 10
#: mode -> (n_jobs, backend, in-kernel threads; pools pin them to 1)
MODES = {
    "processes": (WORKERS, "processes", 1),
    "threads": (WORKERS, "threads", 1),
    "serial": (1, "processes", WORKERS),
}


def _config(seed, n_jobs, **overrides):
    from repro.experiments.config import StochasticConfig

    params = dict(
        n_values=(N_PROCESSORS,), n_trials=N_TRIALS, seed=seed,
        n_jobs=n_jobs, chunk_size=CHUNK_SIZE,
    )
    params.update(overrides)
    return StochasticConfig.paper_figure5(**params)


def run_one(mode, *, seed):
    """One warm-up sweep, then one timed sweep, in this process."""
    from repro.experiments.runner import run_sweep

    n_jobs, backend, _ = MODES[mode]
    run_sweep(
        _config(seed, n_jobs, n_values=(8,), n_trials=2, chunk_size=1),
        backend=backend,
    )
    start = time.perf_counter()
    result = run_sweep(_config(seed, n_jobs), backend=backend)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "trials_per_s": len(result.records) * N_TRIALS / wall,
        "records": {
            r.algorithm: [r.sample.mean, r.sample.minimum, r.sample.maximum]
            for r in result.records
        },
    }


def _spawn(mode, seed):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["REPRO_NATIVE_THREADS"] = str(MODES[mode][2])
    out = subprocess.run(
        [sys.executable, __file__, "--one", mode, str(seed)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def measure(rounds=ROUNDS, seeds=SEEDS):
    """Alternating rounds over every mode and seed; the artifact payload."""
    modes = list(MODES)
    runs = []
    for r in range(rounds):
        order = modes[r % len(modes):] + modes[: r % len(modes)]
        for seed in seeds:
            for mode in order:
                res = _spawn(mode, seed)
                runs.append({"round": r, "seed": seed, "mode": mode, **res})
                print(
                    f"round {r} seed {seed} {mode:<9} "
                    f"{res['trials_per_s']:>7.1f} trials/s",
                    flush=True,
                )
    entries = {}
    for mode, (n_jobs, backend, threads) in MODES.items():
        rates = [x["trials_per_s"] for x in runs if x["mode"] == mode]
        q1, _, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        entries[mode] = {
            "n_jobs": n_jobs,
            "backend": backend,
            "kernel_threads": threads,
            "runs": len(rates),
            "trials_per_s": statistics.median(rates),
            "trials_per_s_q1": q1,
            "trials_per_s_q3": q3,
            "trials_per_s_min": min(rates),
            "trials_per_s_max": max(rates),
        }
    identical = all(
        len({json.dumps(x["records"]) for x in runs if x["seed"] == s}) == 1
        for s in seeds
    )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "sampler": "U[0.1,0.5]",
            "n_processors": N_PROCESSORS,
            "n_trials": N_TRIALS,
            "chunk_size": CHUNK_SIZE,
            "algorithms": ["hf", "bahf", "ba"],
        },
        "rounds": rounds,
        "seeds": list(seeds),
        "identical_records": identical,
        "machine": machine_meta(),
        "entries": entries,
        "runs": [
            {k: x[k] for k in ("round", "seed", "mode", "trials_per_s")}
            for x in runs
        ],
    }


def record(rounds=ROUNDS, seeds=SEEDS):
    payload = measure(rounds, seeds)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_exec_modes.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def test_exec_modes(benchmark):
    payload = run_once(benchmark, record)
    assert payload["identical_records"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument(
        "--seeds", default=",".join(map(str, SEEDS)),
        help="comma-separated sweep seeds (default %(default)s)",
    )
    parser.add_argument("--one", nargs=2, metavar=("MODE", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        mode, seed = args.one
        print(json.dumps(run_one(mode, seed=int(seed))))
        return 0
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    payload = record(args.rounds, seeds)
    for mode, e in payload["entries"].items():
        print(
            f"{mode:<9} median {e['trials_per_s']:>7.1f} trials/s "
            f"(q1 {e['trials_per_s_q1']:.1f}, q3 {e['trials_per_s_q3']:.1f})"
        )
    if not payload["identical_records"]:
        print("FAIL: records differ between execution modes")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
