"""HF without a compiler: the argmax frontier vs the ``heapq`` oracle loop.

With no system C compiler (or ``REPRO_NO_NATIVE=1``),
:func:`repro.core.batch.hf_final_weights_batch` runs one of two NumPy-tier
kernels, picked per batch by :func:`repro.core.batch.numpy_hf_method`:

* ``method="frontier"`` -- one row-wise argmax per bisection across all
  trials of the batch, in L2-sized trial blocks;
* ``method="heap"`` -- the scalar oracle
  :func:`repro.core.hf.hf_final_weights` (``heapq``), once per trial.

This bench times both on the same draws over an N × T grid and records,
at each point, the kernel the rule picks and its time relative to the
faster of the two.  The two kernels' repeats are interleaved, and the
frontier is not timed at a point where a smaller T at the same N already
took longer than one oracle call here (its cost only grows with T); that
point records the smaller-T time as a lower bound.  It writes
``benchmarks/results/BENCH_hf_fallback.json``::

    PYTHONPATH=src python benchmarks/bench_hf_fallback.py

and exits non-zero unless every point is within ``TOLERANCE`` of the
faster kernel, no reference row is slower than under the rule this one
replaced, and the 65536 × 16 batch (a default serve request at
``MAX_N``) takes under ``MAX_N_BUDGET_S``.  Under pytest the same run is
``benchmarks/bench_hf_fallback.py::test_hf_fallback_rule``.
"""

import json
import time

import numpy as np

from _common import BENCH_SCHEMA_VERSION, RESULTS_DIR, machine_meta, run_once
from repro.core.batch import (
    FRONTIER_MAX_N,
    FRONTIER_MIN_TRIALS,
    hf_final_weights_batch,
    numpy_hf_method,
)
from repro.problems import UniformAlpha
from repro.utils.rng import SeedSequenceFactory

SEED = 20261018
SAMPLER = UniformAlpha(0.1, 0.5)
N_VALUES = (16, 64, 256, 512, 768, 1024, 1536, 2048, 4096, 16384, 65536)
T_VALUES = (1, 4, 16, 32, 64, 256, 1024, 4096)
#: Grid points with more work than this are left out, apart from the
#: named rows below (the oracle runs about 0.4 us per bisection).
MAX_WORK = 1 << 21
#: The points of the measurement that motivated this rule (frontier,
#: array heap and oracle timed at each): none may run slower under the
#: rule than under the one it replaced.
REFERENCE_ROWS = (
    (16, 1024), (256, 256), (1024, 64), (1024, 1024), (2048, 256),
    (4096, 256), (16384, 32), (65536, 4),
)
#: Further points that must be on the grid, whatever MAX_WORK says
#: (65536 × 16 is a default serve request at N = 2^16).
REQUIRED = REFERENCE_ROWS + (
    (256, 4), (256, 1024), (1024, 4), (1536, 64), (1536, 256), (4096, 1),
    (65536, 16),
)
TOLERANCE = 0.15
MAX_N_BUDGET_S = 2.0
#: Timing: best of REPEATS repeats, each looping the call for at least
#: MIN_REPEAT_S so sub-millisecond points are timed as precisely as the
#: large ones; a call of LONG_S or more is timed once.
REPEATS = 7
MIN_REPEAT_S = 0.05
LONG_S = 2.0

#: The rule this one replaced picked a NumPy array heap (since deleted)
#: when N >= 4096 and N·T >= 2^19, else the frontier (timed here as
#: today's blocked frontier, no slower than the unblocked one it ran).
#: The heap's times in ms, best of up to 3 runs (one run when it took
#: 2 s or more), recorded before its deletion on the machine of the
#: committed artifact (2-vCPU Xeon, numpy 2.4.6) with the same draws:
PREVIOUS_HEAP_MS = {
    (4096, 256): 1355.4,
    (16384, 32): 2655.0,
    (16384, 64): 3093.3,
    (65536, 8): 9265.3,
    (65536, 16): 10231.8,
    (65536, 32): 12901.9,
}


def _previous_choice(n, n_trials):
    if n >= 4096 and n * n_trials >= 1 << 19:
        return "heap"
    return "frontier"


def _grid():
    points = {
        (n, t) for n in N_VALUES for t in T_VALUES if n * t <= MAX_WORK
    }
    return sorted(points | set(REQUIRED) | set(PREVIOUS_HEAP_MS))


def _draws(n, n_trials):
    factory = SeedSequenceFactory(SEED)
    rngs = [factory.generator_for(t) for t in range(n_trials)]
    return SAMPLER.sample_trial_matrix(rngs, n - 1)


def _call_s(method, draws, n, number=1):
    """Seconds per call over ``number`` back-to-back calls, and the output."""
    start = time.perf_counter()
    for _ in range(number):
        out = hf_final_weights_batch(1.0, n, draws, method=method)
    return (time.perf_counter() - start) / number, out


def _best_ms(draws, n, methods):
    """Best ms per call for each method, their repeats interleaved.

    Interleaving puts both kernels through the same background load, so
    a slow spell on a shared machine cannot favour one of them.
    """
    best, numbers, outs = {}, {}, {}
    for method in methods:
        best[method], outs[method] = _call_s(method, draws, n)
        numbers[method] = max(1, int(MIN_REPEAT_S / best[method]))
    for _ in range(REPEATS):
        for method in methods:
            if best[method] < LONG_S:
                seconds = _call_s(method, draws, n, numbers[method])[0]
                best[method] = min(best[method], seconds)
    return (
        {m: t * 1e3 for m, t in best.items()},
        {m: np.sort(out, axis=1) for m, out in outs.items()},
    )


def measure():
    """Time both kernels over the grid; returns the artifact payload."""
    entries = {}
    frontier_floor = {}  # N -> longest frontier time measured at this N
    for n, n_trials in _grid():
        draws = _draws(n, n_trials)
        floor = frontier_floor.get(n, 0.0)
        bound = floor > _call_s("heap", draws, n)[0] * 1e3
        if bound:
            times, _ = _best_ms(draws, n, ["heap"])
            frontier_ms = floor
        else:
            times, outs = _best_ms(draws, n, ["frontier", "heap"])
            assert np.array_equal(outs["frontier"], outs["heap"]), (n, n_trials)
            frontier_ms = times["frontier"]
            frontier_floor[n] = max(floor, frontier_ms)
        heapq_ms = times["heap"]
        times = {"frontier": frontier_ms, "heap": heapq_ms}
        chosen = numpy_hf_method(n, n_trials)
        best_ms = min(times.values())
        previous = _previous_choice(n, n_trials)
        previous_ms = (
            PREVIOUS_HEAP_MS.get((n, n_trials))
            if previous == "heap" else frontier_ms
        )
        entries[f"{n}x{n_trials}"] = {
            "n_processors": n,
            "n_trials": n_trials,
            "frontier_ms": frontier_ms,
            "frontier_lower_bound": bound,
            "heapq_ms": heapq_ms,
            "chosen": chosen,
            "chosen_ms": times[chosen],
            "chosen_over_best": times[chosen] / best_ms,
            "previous_choice": previous,
            "previous_ms": previous_ms,
            "reference_row": (n, n_trials) in REFERENCE_ROWS,
        }
        print(
            f"N={n:>6} T={n_trials:>5}  frontier "
            f"{'>=' if bound else '  '}{frontier_ms:>9.1f} ms  heapq "
            f"{heapq_ms:>9.1f} ms  -> {chosen:<8} x{times[chosen] / best_ms:.2f}",
            flush=True,
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": SEED,
        "sampler": SAMPLER.describe(),
        "rule": {
            "FRONTIER_MAX_N": FRONTIER_MAX_N,
            "FRONTIER_MIN_TRIALS": FRONTIER_MIN_TRIALS,
        },
        "tolerance": TOLERANCE,
        "machine": machine_meta(),
        "entries": entries,
    }


def check(payload):
    """The rule's acceptance over a measured payload; returns failures."""
    failures = []
    for key, e in payload["entries"].items():
        if e["chosen_over_best"] > 1.0 + payload["tolerance"]:
            failures.append(f"{key}: {e['chosen']} is x{e['chosen_over_best']:.2f}")
        if e["reference_row"] and e["chosen_ms"] > e["previous_ms"]:
            failures.append(
                f"{key}: {e['chosen_ms']:.1f} ms, slower than the previous "
                f"rule's {e['previous_choice']} ({e['previous_ms']:.1f} ms)"
            )
    serve = payload["entries"]["65536x16"]
    if serve["chosen_ms"] > MAX_N_BUDGET_S * 1e3:
        failures.append(f"65536x16 takes {serve['chosen_ms']:.0f} ms")
    return failures


def record():
    payload = measure()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_hf_fallback.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def test_hf_fallback_rule(benchmark):
    payload = run_once(benchmark, record)
    assert not check(payload), check(payload)


if __name__ == "__main__":
    failures = check(record())
    for line in failures:
        print("FAIL", line)
    raise SystemExit(1 if failures else 0)
