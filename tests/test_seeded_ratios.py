"""Seed-to-ratio in C: trial rows sampled inside the native kernel.

``repro_uniform_row`` must reproduce numpy's
``default_rng(seed).uniform(low, high, k)`` bit for bit, and
``trial_ratios`` on the seeded path must equal ``draw_rows`` plus the
batch kernels on every algorithm, sampler, N, trial offset and thread
count.  A failed load-time self-check, another sampler, or explicit
``draws`` keeps the numpy-row path; invalid inputs raise the same errors
on both paths.
"""

import ctypes
import logging
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import _native
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.experiments import runtime_study, stochastic
from repro.experiments.checkpoint import execute_chunks
from repro.problems.samplers import (
    AlphaSampler,
    BetaAlpha,
    DiscreteAlpha,
    FixedAlpha,
    UniformAlpha,
)
from repro.simulator.machine import MachineConfig
from repro.simulator.topology import RingTopology

needs_native = pytest.mark.skipif(
    not _native.native_available(), reason="native kernels unavailable"
)

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
RANDOM_SEEDS = tuple(
    int(s) for s in np.random.default_rng(20261019).integers(
        0, 2**64, size=200, dtype=np.uint64, endpoint=False)
)


def _rows_match_numpy(lib, low=0.1, high=0.5, k=257):
    bad = []
    for seed in EDGE_SEEDS + RANDOM_SEEDS:
        row = np.empty(k, dtype=np.float64)
        lib.repro_uniform_row(seed, low, high, _native._dptr(row), k)
        if not np.array_equal(row, np.random.default_rng(seed).uniform(low, high, k)):
            bad.append(seed)
    return bad


@needs_native
@pytest.mark.parametrize("low, high", [(0.1, 0.5), (0.01, 0.5), (0.3, 0.3)])
def test_c_rows_equal_default_rng(low, high):
    assert _rows_match_numpy(_native._load(), low, high) == []


@needs_native
def test_c_rows_equal_default_rng_without_int128(tmp_path):
    """The portable 64x64->128 multiply gives the same stream."""
    path = str(tmp_path / "libportable.so")
    _native._compile(_native._find_compiler(), ("-U__SIZEOF_INT128__",), path)
    lib = ctypes.CDLL(path)
    _native._declare(lib)
    assert _native._seeded_rows_match(lib)
    assert _rows_match_numpy(lib) == []


def _row_path_ratios(algorithm, n, sampler, *, seed, start, n_trials, lam=1.0):
    """The numpy-row path: draw_rows, then the batch kernels, then max * N."""
    draws = stochastic.draw_rows(
        algorithm, n, sampler, seed=seed, start=start, stop=start + n_trials,
        n_draws=n - 1,
    )
    key = stochastic.normalize_algorithm(algorithm)
    if key in ("hf", "phf"):
        weights = hf_final_weights_batch(1.0, n, draws)
    elif key == "ba":
        weights = ba_final_weights_batch(1.0, n, draws)
    else:
        weights = bahf_final_weights_batch(
            1.0, n, draws, alpha=sampler.alpha, lam=lam)
    return weights.max(axis=1) * n


SAMPLERS = [UniformAlpha(0.1, 0.5), FixedAlpha(0.3)]


@needs_native
@pytest.mark.parametrize("n_threads", [1, 3])
@pytest.mark.parametrize("start", [0, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 4097])
@pytest.mark.parametrize("sampler", SAMPLERS, ids=["uniform", "fixed"])
@pytest.mark.parametrize("algorithm", ["hf", "phf", "ba", "bahf"])
def test_seeded_path_equals_row_path(algorithm, sampler, n, start, n_threads,
                                     monkeypatch):
    ref = _row_path_ratios(algorithm, n, sampler, seed=7, start=start, n_trials=6)

    def refuse(*args, **kwargs):
        raise AssertionError("the seeded path must not sample numpy rows")

    with monkeypatch.context() as m:
        m.setattr(stochastic, "draw_rows", refuse)
        got = stochastic.trial_ratios(
            algorithm, n, sampler, n_trials=6, seed=7, start=start,
            n_threads=n_threads)
    assert np.array_equal(got, ref)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert np.array_equal(
        stochastic.trial_ratios(algorithm, n, sampler, n_trials=6, seed=7,
                                start=start, n_threads=n_threads),
        ref,
    )


@needs_native
def test_failed_self_check_falls_back(monkeypatch, caplog):
    """A numpy stream change disables the seeded entry only."""
    sampler = UniformAlpha(0.1, 0.5)
    ref = stochastic.trial_ratios("bahf", 300, sampler, n_trials=4, seed=3)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_seeded_ok", False)
    monkeypatch.setattr(
        _native, "_reference_row",
        lambda seed, low, high, k: np.full(k, low),
    )
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        assert _native._load() is not None
    assert "seeded native sampler disabled" in caplog.text
    assert _native.seeded_ratios_native("hf", 1, 0, 2, 8, 0.1, 0.5) is None
    assert _native.hf_batch_native(np.ones(1), 2, np.full((1, 1), 0.3)) is not None
    for algorithm in ("hf", "ba", "bahf"):
        assert np.array_equal(
            stochastic.trial_ratios(algorithm, 300, sampler, n_trials=4, seed=3),
            _row_path_ratios(algorithm, 300, sampler, seed=3, start=0, n_trials=4),
        )
    assert np.array_equal(
        stochastic.trial_ratios("bahf", 300, sampler, n_trials=4, seed=3), ref)


@dataclass(frozen=True)
class ReversedUniform(UniformAlpha):
    """A subclass with its own ``sample_many``: the rows run backwards."""

    def sample_many(self, rng, size):
        return rng.uniform(self.low, self.high, size=size)[::-1]


@pytest.mark.parametrize(
    "sampler",
    [ReversedUniform(0.1, 0.5), BetaAlpha(2.0, 3.0, low=0.1, high=0.5),
     DiscreteAlpha(values=(0.1, 0.4))],
    ids=["uniform-subclass", "beta", "discrete"],
)
def test_other_samplers_sample_numpy_rows(sampler, monkeypatch):
    calls = []
    original = AlphaSampler.sample_trial_matrix

    def spy(self, rngs, n_draws):
        calls.append(len(rngs))
        return original(self, rngs, n_draws)

    monkeypatch.setattr(AlphaSampler, "sample_trial_matrix", spy)
    got = stochastic.trial_ratios("ba", 65, sampler, n_trials=5, seed=2)
    assert calls == [5]
    assert np.array_equal(
        got, _row_path_ratios("ba", 65, sampler, seed=2, start=0, n_trials=5))


@needs_native
def test_exact_uniform_builds_no_generator(monkeypatch):
    def refuse(self, rngs, n_draws):
        raise AssertionError("UniformAlpha rows are sampled in the kernel")

    monkeypatch.setattr(AlphaSampler, "sample_trial_matrix", refuse)
    stochastic.trial_ratios("hf", 65, UniformAlpha(0.1, 0.5), n_trials=3, seed=1)


def test_explicit_draws_take_the_row_path():
    sampler = UniformAlpha(0.1, 0.5)
    draws = np.full((2, 16), 0.5)
    got = stochastic.trial_ratios("hf", 17, sampler, n_trials=2, seed=1,
                                  draws=draws)
    assert np.array_equal(got, hf_final_weights_batch(1.0, 17, draws).max(axis=1) * 17)


INVALID = [
    (dict(algorithm="hf", n=0), "n_processors must be >= 1"),
    (dict(algorithm="ba", n=-3), "n_processors must be >= 1"),
    (dict(algorithm="hf", n_trials=0), "n_trials must be >= 1"),
    (dict(algorithm="bahf", start=-1), "start must be non-negative"),
    (dict(algorithm="bahf", lam=float("nan")), "lambda must be positive"),
    (dict(algorithm="bahf", n=1, lam=float("nan")), "lambda must be positive"),
]


@pytest.mark.parametrize("native", [True, False], ids=["seeded", "no-native"])
@pytest.mark.parametrize("case, message", INVALID)
def test_invalid_inputs_raise_alike(case, message, native, monkeypatch):
    if not native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    args = dict(n=33, n_trials=4, start=0, lam=1.0)
    args.update(case)
    algorithm = args.pop("algorithm")
    with pytest.raises(ValueError, match=message):
        stochastic.trial_ratios(
            algorithm, args["n"], FixedAlpha(0.3), n_trials=args["n_trials"],
            seed=1, lam=args["lam"], start=args["start"])


@needs_native
@pytest.mark.parametrize(
    "n, n_trials, start", [(0, 1, 0), (4, 0, 0), (4, 1, -1)])
def test_seeded_entry_rejects_bad_shapes(n, n_trials, start):
    with pytest.raises(ValueError):
        _native.seeded_ratios_native("hf", 1, start, n_trials, n, 0.1, 0.5)


def _load_state_on_entry(_task):
    return _native._load_attempted, os.getpid()


@needs_native
def test_pool_workers_inherit_the_loaded_library(monkeypatch):
    """The parent loads the kernels before the pool forks its workers."""
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_seeded_ok", False)
    out = execute_chunks(
        [0, 1, 2, 3], _load_state_on_entry, keys=["a", "b", "c", "d"],
        n_jobs=2,
    )
    assert all(attempted for attempted, _ in out)
    assert {pid for _, pid in out} - {os.getpid()}


# ----------------------------------------------------------------------
# The runtime study's fastpath reads the same seeded rows
# ----------------------------------------------------------------------


def _study_with_rows(algorithm, n, sampler, *, start, n_threads, config=None):
    """The fastpath study fed the rows draw_rows builds for the same trials."""
    key = stochastic.normalize_algorithm(algorithm)
    draws = stochastic.draw_rows(
        key, n, sampler, seed=7, start=start, stop=start + 6,
        n_draws=max(1, n - 1),
    )
    return runtime_study.study_trial_metrics(
        algorithm, n, sampler, n_trials=6, seed=7, start=start,
        engine="fastpath", draws=draws, n_threads=n_threads, config=config,
    )


def _refuse_draw_rows(*args, **kwargs):
    raise AssertionError("the seeded path must not sample numpy rows")


def _study(algorithm, n, sampler, *, start, n_threads, config=None):
    return runtime_study.study_trial_metrics(
        algorithm, n, sampler, n_trials=6, seed=7, start=start,
        engine="fastpath", n_threads=n_threads, config=config,
    )


def _force_self_check_mismatch(monkeypatch):
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_seeded_ok", False)
    monkeypatch.setattr(
        _native, "_reference_row", lambda seed, low, high, k: np.full(k, low))
    assert _native._load() is not None and not _native._seeded_ok


@needs_native
@pytest.mark.parametrize("n_threads", [1, 3])
@pytest.mark.parametrize("start", [0, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 4097])
@pytest.mark.parametrize("sampler", SAMPLERS, ids=["uniform", "fixed"])
@pytest.mark.parametrize("algorithm", ["hf", "phf", "ba", "bahf"])
def test_seeded_study_equals_row_study(algorithm, sampler, n, start, n_threads,
                                       monkeypatch):
    ref = _study_with_rows(algorithm, n, sampler, start=start,
                           n_threads=n_threads)
    with monkeypatch.context() as m:
        m.setattr(runtime_study, "draw_rows", _refuse_draw_rows)
        got = _study(algorithm, n, sampler, start=start, n_threads=n_threads)
    assert got.tobytes() == ref.tobytes()
    with monkeypatch.context() as m:
        m.setenv("REPRO_NO_NATIVE", "1")
        got = _study(algorithm, n, sampler, start=start, n_threads=n_threads)
    assert got.tobytes() == ref.tobytes()
    _force_self_check_mismatch(monkeypatch)
    got = _study(algorithm, n, sampler, start=start, n_threads=n_threads)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "sampler, config",
    [
        (UniformAlpha(0.1, 0.5), MachineConfig(topology=RingTopology)),
        (FixedAlpha(0.3), MachineConfig(topology=RingTopology)),
        (ReversedUniform(0.1, 0.5), None),
        (BetaAlpha(2.0, 3.0, low=0.1, high=0.5), None),
        (DiscreteAlpha(values=(0.1, 0.4)), None),
    ],
    ids=["ring-uniform", "ring-fixed", "uniform-subclass", "beta", "discrete"],
)
@pytest.mark.parametrize("algorithm", ["hf", "phf", "ba", "bahf"])
def test_other_study_cells_call_draw_rows(algorithm, sampler, config,
                                          monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["stop"] - kwargs["start"])
        return stochastic.draw_rows(*args, **kwargs)

    monkeypatch.setattr(runtime_study, "draw_rows", spy)
    got = _study(algorithm, 33, sampler, start=2, n_threads=1, config=config)
    assert calls == [6]
    ref = _study_with_rows(algorithm, 33, sampler, start=2, n_threads=1,
                           config=config)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("algorithm", ["hf", "phf", "ba", "bahf"])
def test_seeded_rows_refused_on_a_topology(algorithm):
    from repro.simulator.fastpath import FastpathUnsupported, fastpath_counters

    rows = _native.SeededRows(root=1, start=0, n_trials=2, low=0.1, high=0.5)
    with pytest.raises(FastpathUnsupported, match="complete-network"):
        fastpath_counters(algorithm, 16, rows, alpha=0.1,
                          config=MachineConfig(topology=RingTopology))
