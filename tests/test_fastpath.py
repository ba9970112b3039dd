"""Fastpath kernels vs the DES oracle: bit-identical equivalence.

Every metric the closed-form kernels of :mod:`repro.simulator.fastpath`
report must equal -- bit for bit, not approximately -- what the
discrete-event simulation reports for the same prescribed instance
(:mod:`repro.problems.prescribed`), across randomized alpha samplers,
processor counts, machine configs and topologies.

Machine configs keep every cost a dyadic rational: the DES accumulates
per-processor work in a different order than the kernels' closed form
``(N-1)·t_bisect``, and only dyadic costs make both orders exact (the
documented utilisation caveat in the fastpath module).
"""

from functools import partial

import numpy as np
import pytest

from repro.core import _native
from repro.core.bahf import bahf_threshold
from repro.core.batch import _level_order
from repro.core.phf import PHASE1_EXHAUSTED
from repro.problems import prescribed_problem
from repro.problems.samplers import BetaAlpha, DiscreteAlpha, FixedAlpha, UniformAlpha
from repro.simulator import (
    ConstantCost,
    FastpathUnsupported,
    HypercubeTopology,
    LinearCost,
    MachineConfig,
    Mesh2DTopology,
    RingTopology,
    fastpath_counters,
    fastpath_supported,
    simulate_ba,
    simulate_bahf,
    simulate_hf,
    simulate_phf,
)
from repro.simulator.engine import SimulationError
from repro.simulator.fastpath import (
    _edge_costs,
    fastpath_ba,
    fastpath_bahf,
    fastpath_hf,
    fastpath_phf,
)
from repro.utils import SeedSequenceFactory


def same_bits(a, b) -> bool:
    """IEEE-754 bit equality (so 1.0 vs 1.0 + 1ulp fails loudly)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


SAMPLERS = [
    UniformAlpha(0.1, 0.5),
    UniformAlpha(0.25, 0.4),
    FixedAlpha(0.3),
    BetaAlpha(2.0, 5.0, low=0.05, high=0.5),
    DiscreteAlpha((0.2, 0.35, 0.5)),  # ties exercise the band ordering
]

# Dyadic costs only (see module docstring).
CONFIGS = [
    MachineConfig(),
    MachineConfig(t_bisect=0.5, t_send=2.0, t_acquire=0.25, c_collective=1.5),
    MachineConfig(t_bisect=1.0, t_send=0.0, t_acquire=0.0, c_collective=0.25),
    MachineConfig(collective_model=LinearCost()),
    MachineConfig(collective_model=ConstantCost()),
]

N_VALUES = [1, 2, 3, 5, 8, 13, 32, 64, 127]


def draw_matrix(sampler, algorithm, n, *, n_trials, seed=1234):
    """Per-trial draw rows, derived exactly as the sweep runners do."""
    fac = SeedSequenceFactory(seed)
    rngs = [fac.generator_for(t) for t in range(n_trials)]
    return sampler.sample_trial_matrix(rngs, max(1, n - 1))


def des_result(algorithm, n, row, *, alpha, lam=1.0, keep="heavy", config=None):
    problem = prescribed_problem(
        algorithm, n, row, alpha=alpha, lam=lam, keep=keep
    )
    if algorithm == "hf":
        return simulate_hf(problem, n, config=config)
    if algorithm == "ba":
        return simulate_ba(problem, n, config=config)
    if algorithm == "bahf":
        return simulate_bahf(problem, n, alpha=alpha, lam=lam, config=config)
    return simulate_phf(problem, n, alpha=alpha, keep=keep, config=config)


def assert_cell_equivalent(
    algorithm, n, draws, *, alpha, lam=1.0, keep="heavy", config=None
):
    fp = fastpath_counters(
        algorithm, n, draws, alpha=alpha, lam=lam, keep=keep, config=config
    )
    assert fp.n_trials == draws.shape[0]
    for t in range(draws.shape[0]):
        res = des_result(
            algorithm, n, draws[t], alpha=alpha, lam=lam, keep=keep, config=config
        )
        ctx = f"{algorithm} N={n} trial={t}"
        assert same_bits(fp.parallel_time[t], res.parallel_time), (
            f"{ctx}: makespan {fp.parallel_time[t]!r} != {res.parallel_time!r}"
        )
        assert int(fp.n_messages[t]) == res.n_messages, ctx
        assert int(fp.n_control_messages[t]) == res.n_control_messages, ctx
        assert int(fp.n_collectives[t]) == res.n_collectives, ctx
        assert same_bits(fp.collective_time[t], res.collective_time), (
            f"{ctx}: collective_time {fp.collective_time[t]!r} != "
            f"{res.collective_time!r}"
        )
        assert int(fp.n_bisections[t]) == res.n_bisections, ctx
        assert int(fp.total_hops[t]) == res.total_hops, ctx
        assert same_bits(fp.utilization[t], res.utilization), (
            f"{ctx}: utilization {fp.utilization[t]!r} != {res.utilization!r}"
        )
        assert same_bits(fp.ratio[t], res.partition.ratio), (
            f"{ctx}: ratio {fp.ratio[t]!r} != {res.partition.ratio!r}"
        )


# ----------------------------------------------------------------------
# Sampler sweep (default machine config)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.describe())
@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_matches_des_across_samplers(sampler, algorithm):
    for n in N_VALUES:
        draws = draw_matrix(sampler, algorithm, n, n_trials=4, seed=10_000 + n)
        assert_cell_equivalent(algorithm, n, draws, alpha=sampler.alpha)


# ----------------------------------------------------------------------
# Machine-config sweep (one sampler; includes zero-cost sends/acquires)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "config", CONFIGS, ids=["default", "scaled", "zerocost", "linear", "constant"]
)
@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_matches_des_across_configs(config, algorithm):
    sampler = UniformAlpha(0.15, 0.5)
    for n in [1, 2, 5, 17, 64]:
        draws = draw_matrix(sampler, algorithm, n, n_trials=3, seed=20_000 + n)
        assert_cell_equivalent(
            algorithm, n, draws, alpha=sampler.alpha, config=config
        )


# ----------------------------------------------------------------------
# Ablation knobs: BA-HF lambda, PHF keep=light
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_bahf_lambda_knob(lam):
    sampler = UniformAlpha(0.2, 0.45)
    for n in [2, 7, 33, 64]:
        draws = draw_matrix(sampler, "bahf", n, n_trials=3, seed=777)
        assert_cell_equivalent("bahf", n, draws, alpha=sampler.alpha, lam=lam)


@pytest.mark.parametrize("keep", ["heavy", "light"])
def test_phf_keep_knob(keep):
    sampler = UniformAlpha(0.2, 0.5)
    for n in [2, 9, 31, 64]:
        draws = draw_matrix(sampler, "phf", n, n_trials=3, seed=888)
        assert_cell_equivalent("phf", n, draws, alpha=sampler.alpha, keep=keep)


# ----------------------------------------------------------------------
# Topologies (all four algorithms; PHF runs a per-trial event replay)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "topology, t_hop", [(RingTopology, 0.5), (Mesh2DTopology, 1.0)]
)
@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_matches_des_on_topologies(topology, t_hop, algorithm):
    config = MachineConfig(topology=topology, t_hop=t_hop)
    sampler = UniformAlpha(0.1, 0.5)
    for n in [1, 2, 6, 24, 63]:
        draws = draw_matrix(sampler, algorithm, n, n_trials=3, seed=30_000 + n)
        assert_cell_equivalent(
            algorithm, n, draws, alpha=sampler.alpha, config=config
        )


@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_matches_des_on_hypercube(algorithm):
    config = MachineConfig(topology=HypercubeTopology, t_hop=0.25)
    sampler = UniformAlpha(0.2, 0.5)
    for n in [1, 2, 8, 64]:
        draws = draw_matrix(sampler, algorithm, n, n_trials=3, seed=40_000 + n)
        assert_cell_equivalent(
            algorithm, n, draws, alpha=sampler.alpha, config=config
        )


@pytest.mark.parametrize("keep", ["heavy", "light"])
def test_phf_topology_keep_and_desync(keep):
    """Large-N topology cells where event order desynchronises from the
    lockstep generation order -- the regime that requires the two-pass
    (prescribe, then replay) implementation."""
    config = MachineConfig(topology=RingTopology, t_hop=0.5)
    sampler = UniformAlpha(0.1, 0.5)
    for n in [35, 47, 69]:
        draws = draw_matrix(sampler, "phf", n, n_trials=3, seed=50_000 + n)
        assert_cell_equivalent(
            "phf", n, draws, alpha=sampler.alpha, keep=keep, config=config
        )


def test_phf_topology_tie_truncation_matches_des():
    """On topologies, a truncating selection round may break a weight tie
    differently than the machine-independent prescription numbered the
    processors; the DES then raises from the prescribed tree.  The
    fastpath must agree with the DES per trial: raise exactly when it
    raises, match bits when it does not."""
    config = MachineConfig(
        topology=Mesh2DTopology, t_hop=1.0, t_send=0.5, t_acquire=0.25,
        c_collective=1.5,
    )
    sampler = FixedAlpha(0.3)  # every weight tied within a generation
    n = 40
    draws = draw_matrix(sampler, "phf", n, n_trials=6, seed=60_000)
    outcomes = []
    for t in range(draws.shape[0]):
        try:
            des_result("phf", n, draws[t], alpha=sampler.alpha, config=config)
            des_exc = None
        except ValueError as exc:
            des_exc = str(exc)
        try:
            assert_cell_equivalent(
                "phf", n, draws[t : t + 1], alpha=sampler.alpha, config=config
            )
            fp_exc = None
        except ValueError as exc:
            fp_exc = str(exc)
        assert des_exc == fp_exc, (t, des_exc, fp_exc)
        outcomes.append(des_exc is not None)
    assert any(outcomes), "expected at least one tie-truncation raise"


# ----------------------------------------------------------------------
# Support predicate / unsupported cells
# ----------------------------------------------------------------------


def test_supported_predicate():
    assert fastpath_supported("hf")
    assert fastpath_supported("ba", MachineConfig(topology=RingTopology))
    assert fastpath_supported("phf", MachineConfig())
    assert fastpath_supported("phf", MachineConfig(topology=RingTopology))
    assert not fastpath_supported("phf", phase1="ba_prime")
    assert not fastpath_supported("hf", MachineConfig(record_events=True))
    with pytest.raises(ValueError):
        fastpath_supported("nope")


def test_unsupported_cells_raise():
    draws = np.full((2, 7), 0.4)
    with pytest.raises(FastpathUnsupported):
        fastpath_counters("phf", 8, draws, alpha=0.4, phase1="ba_prime")
    with pytest.raises(FastpathUnsupported):
        fastpath_counters(
            "ba", 8, draws, config=MachineConfig(record_events=True)
        )


def test_missing_alpha_raises():
    draws = np.full((1, 7), 0.4)
    with pytest.raises(ValueError, match="alpha"):
        fastpath_counters("phf", 8, draws)
    with pytest.raises(ValueError, match="alpha"):
        fastpath_counters("bahf", 8, draws)


@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_no_compiler_fallback_bit_identical(algorithm, monkeypatch):
    """With the compiled kernels forced off, every fastpath entry point
    must fall back to NumPy with bit-identical results in all fields."""
    assert_native_off_identical(algorithm, 65, monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 17, 257, 1000])
@pytest.mark.parametrize("algorithm", ["hf", "ba", "bahf", "phf"])
def test_no_compiler_fallback_bit_identical_across_n(algorithm, n, monkeypatch):
    assert_native_off_identical(algorithm, n, monkeypatch)


# Tie-heavy samplers (every draw equal, or three values) stress the
# phase-2 band order; the zero-trial batch checks the empty shapes.
NATIVE_OFF_CASES = [
    (UniformAlpha(0.1, 0.5), 6),
    (FixedAlpha(0.3), 6),
    (DiscreteAlpha((0.2, 0.35, 0.5)), 6),
    (UniformAlpha(0.1, 0.5), 0),
]

RESULT_FIELDS = (
    "parallel_time",
    "n_messages",
    "n_control_messages",
    "n_collectives",
    "collective_time",
    "n_bisections",
    "total_hops",
    "utilization",
    "ratio",
)


def _outcome(algorithm, n, draws, alpha):
    """The fastpath result, or the (class, message) of what it raised."""
    try:
        return fastpath_counters(algorithm, n, draws, alpha=alpha)
    except Exception as exc:  # compared across engines below
        return type(exc), str(exc)


def _native_off(monkeypatch):
    import repro.core._native as native

    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", True)
    assert not native.native_available()


def assert_native_off_identical(algorithm, n, monkeypatch):
    cases = []
    for seed, (sampler, n_trials) in enumerate(NATIVE_OFF_CASES, start=777):
        if n_trials:
            draws = draw_matrix(sampler, algorithm, n, n_trials=n_trials, seed=seed)
        else:
            draws = np.zeros((0, max(1, n - 1)))
        cases.append((sampler, draws))
    with_native = [_outcome(algorithm, n, d, s.alpha) for s, d in cases]

    _native_off(monkeypatch)
    for (sampler, draws), expected in zip(cases, with_native):
        got = _outcome(algorithm, n, draws, sampler.alpha)
        ctx = f"{algorithm} N={n} {sampler.describe()} T={draws.shape[0]}"
        if isinstance(expected, tuple):
            assert got == expected, ctx
            continue
        assert not isinstance(got, tuple), f"{ctx}: NumPy engine raised {got}"
        for name in RESULT_FIELDS:
            assert np.array_equal(
                getattr(expected, name), getattr(got, name)
            ), f"{ctx}: {name} differs between native and NumPy engines"


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_phase1_exhausted_same_error_native_on_and_off(alpha, monkeypatch):
    """Draws far below the declared alpha exhaust phase 1's processors:
    the C kernel, the replay (``REPRO_NO_NATIVE``), the study on both
    engines and the DES prescription raise one error class and message."""
    from repro.experiments.runtime_study import study_trial_metrics
    from repro.problems.prescribed import phf_draw_tree

    draws = np.full((3, 63), 0.01)
    outcomes = {"native": _outcome("phf", 64, draws, alpha)}
    for engine in ("fastpath", "des"):
        try:
            study_trial_metrics(
                "phf", 64, FixedAlpha(alpha), n_trials=3, seed=0,
                engine=engine, draws=draws,
            )
        except Exception as exc:  # compared across engines below
            outcomes[f"study-{engine}"] = type(exc), str(exc)
    try:
        phf_draw_tree(64, draws[0], alpha=alpha)
    except Exception as exc:  # compared across engines below
        outcomes["phf_draw_tree"] = type(exc), str(exc)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    outcomes["no-native"] = _outcome("phf", 64, draws, alpha)
    assert len(outcomes) == 5, outcomes
    assert set(outcomes.values()) == {(SimulationError, PHASE1_EXHAUSTED)}, outcomes


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n, d: fastpath_hf(n, d),
        lambda n, d: fastpath_ba(n, d),
        lambda n, d: fastpath_bahf(n, d, alpha=0.1),
        lambda n, d: fastpath_phf(n, d, alpha=0.1),
        lambda n, d: fastpath_counters("hf", n, d),
        lambda n, d: fastpath_counters("ba", n, d),
        lambda n, d: fastpath_counters("bahf", n, d, alpha=0.1),
        lambda n, d: fastpath_counters("phf", n, d, alpha=0.1),
    ],
    ids=["hf", "ba", "bahf", "phf", "counters-hf", "counters-ba",
         "counters-bahf", "counters-phf"],
)
def test_nonpositive_n_processors_raise(entry, n):
    with pytest.raises(ValueError, match=f"n_processors must be >= 1, got {n}"):
        entry(n, np.zeros((2, 0)))


# ----------------------------------------------------------------------
# Native BA / BA-HF metrics kernel vs the NumPy frontier sweep
# ----------------------------------------------------------------------

NONDYADIC_CONFIGS = [
    MachineConfig(),
    MachineConfig(t_bisect=0.3, t_send=0.7),
    MachineConfig(t_bisect=1.1, t_send=0.1),
]


@pytest.mark.skipif(not _native.native_available(), reason="no system C compiler")
@pytest.mark.parametrize("lam", [None, 1.0, 2.0], ids=["ba", "bahf-lam1", "bahf-lam2"])
@pytest.mark.parametrize(
    "sampler",
    [UniformAlpha(0.01, 0.5), UniformAlpha(0.1, 0.5), UniformAlpha(0.45, 0.5)],
    ids=lambda s: s.describe(),
)
def test_native_ba_metrics_match_numpy_sweep(sampler, lam):
    """Makespan and max weight bit-identical to the timed level-order walk
    ``batch._level_order`` (whose hop count on the complete network is
    exactly N-1) for every thread count."""
    threshold = None if lam is None else bahf_threshold(sampler.alpha, lam)
    for n in [1, 2, 3, 5, 17, 257, 1024, 3000]:
        draws = draw_matrix(sampler, "ba", n, n_trials=3, seed=70_000 + n)
        for config in NONDYADIC_CONFIGS:
            weights, makespan, hops = _level_order(
                np.ones(3), n, draws, 2.0 if threshold is None else threshold,
                clock=(config.t_bisect, partial(_edge_costs, config, None)),
            )
            maxw = weights.max(axis=1)
            assert (hops == n - 1).all()
            for n_threads in (1, 2, 7, 64):
                got = _native.ba_metrics_native(
                    draws, n, w0=1.0, threshold=threshold,
                    t_bisect=config.t_bisect, t_send=config.t_send,
                    n_threads=n_threads,
                )
                ctx = f"N={n} {config} threads={n_threads}"
                assert got[0].tobytes() == makespan.tobytes(), ctx
                assert got[1].tobytes() == maxw.tobytes(), ctx


@pytest.mark.skipif(not _native.native_available(), reason="no system C compiler")
@pytest.mark.parametrize("threshold", [None, 11.0])
def test_native_ba_metrics_zero_trials(threshold):
    makespan, maxw = _native.ba_metrics_native(
        np.zeros((0, 15)), 16, w0=1.0, threshold=threshold,
        t_bisect=1.0, t_send=1.0,
    )
    assert makespan.shape == maxw.shape == (0,)
    res = fastpath_counters("ba", 16, np.zeros((0, 15)))
    assert res.n_trials == 0 and res.total_hops.shape == (0,)


@pytest.mark.skipif(not _native.native_available(), reason="no system C compiler")
@pytest.mark.parametrize("n, shape", [(0, (2, 0)), (-3, (2, 4)), (8, (2, 6)), (8, (7,))])
def test_native_ba_metrics_rejects_bad_shapes(n, shape):
    with pytest.raises(ValueError, match="draws per trial"):
        _native.ba_metrics_native(
            np.full(shape, 0.3), n, w0=1.0, threshold=None,
            t_bisect=1.0, t_send=1.0,
        )


@pytest.mark.parametrize("algorithm", ["ba", "bahf"])
def test_topology_never_calls_native_ba_metrics(algorithm, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("native BA metrics called on a topology")

    monkeypatch.setattr(_native, "ba_metrics_native", refuse)
    config = MachineConfig(topology=RingTopology, t_hop=0.5)
    sampler = UniformAlpha(0.1, 0.5)
    draws = draw_matrix(sampler, algorithm, 24, n_trials=3, seed=80_000)
    assert_cell_equivalent(
        algorithm, 24, draws, alpha=sampler.alpha, config=config
    )


# ----------------------------------------------------------------------
# Study integration: engines and worker counts are bit-identical
# ----------------------------------------------------------------------


def test_study_engines_bit_identical():
    from repro.experiments.runtime_study import study_trial_metrics

    sampler = UniformAlpha(0.1, 0.5)
    for algorithm in ("hf", "ba", "bahf", "phf"):
        for n in (1, 9, 64):
            des = study_trial_metrics(
                algorithm, n, sampler, n_trials=6, seed=55, engine="des"
            )
            fast = study_trial_metrics(
                algorithm, n, sampler, n_trials=6, seed=55, engine="fastpath"
            )
            assert des.tobytes() == fast.tobytes(), (algorithm, n)


def test_study_chunking_matches_serial():
    from repro.experiments.runtime_study import study_trial_metrics

    sampler = UniformAlpha(0.15, 0.5)
    whole = study_trial_metrics("bahf", 32, sampler, n_trials=7, seed=3, engine="fastpath")
    parts = [
        study_trial_metrics(
            "bahf", 32, sampler, n_trials=stop - start, seed=3, start=start,
            engine="fastpath",
        )
        for start, stop in [(0, 3), (3, 5), (5, 7)]
    ]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("engine", ["des", "fastpath"])
def test_runtime_study_njobs_invariant(engine):
    from repro.experiments.runtime_study import run_runtime_study

    kwargs = dict(
        n_values=(4, 16),
        algorithms=("hf", "ba", "phf"),
        n_repeats=6,
        seed=17,
        engine=engine,
        chunk_size=2,
    )
    serial = run_runtime_study(n_jobs=1, **kwargs)
    parallel = run_runtime_study(n_jobs=4, **kwargs)
    assert serial.records == parallel.records


def test_topology_study_njobs_and_engine_invariant():
    from repro.experiments.topology_study import run_topology_study

    kwargs = dict(
        n_values=(16,),
        topologies=("complete", "ring"),
        algorithms=("ba", "phf"),
        n_repeats=4,
        seed=23,
        chunk_size=2,
    )
    a = run_topology_study(engine="fastpath", n_jobs=1, **kwargs)
    b = run_topology_study(engine="fastpath", n_jobs=3, **kwargs)
    c = run_topology_study(engine="des", n_jobs=1, **kwargs)
    assert a.records == b.records
    assert a.records == c.records
