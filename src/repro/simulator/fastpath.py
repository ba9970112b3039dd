"""Closed-form, NumPy-batched evaluation of the machine-model metrics.

The discrete-event simulations in :mod:`repro.simulator` replay every
bisection, send and collective as a Python callback on a heap -- faithful
but slow: one N = 2^16 trial schedules hundreds of thousands of events.
This module computes, for a whole ``(n_trials, N-1)`` draw matrix (the
batched-sampler convention of :mod:`repro.core.batch`), exactly the
numbers the DES would report -- makespan, message / control-message /
collective counts, collective time, utilisation and achieved ratio --
derived from the bisection-tree structure instead of event replay:

* **HF** -- a sequential chain on ``P_1``: ``N-1`` bisections then
  ``N-1`` sends.  Timing is trial-independent (one scalar chain per
  call); the ratio comes from ``hf_final_weights_batch``.
* **BA / BA-HF** -- each node carries its start time: both children of
  a node starting at ``s`` start at ``(s + t_bisect) + send_cost`` (the
  DES serialises the keeper behind the send), and BA-HF's sub-threshold
  nodes become sequential HF-job chains.  On the complete network one
  pass of the compiled DFS of :mod:`repro.core._native` per trial gives
  the makespan and max weight; on a topology, or without a compiler, the
  batch kernels' NumPy level-order walk (:func:`repro.core.batch._level_order`)
  does, timed by this module's per-edge send costs -- the same walk
  that computes the batched BA / BA-HF weights.
* **PHF** (central phase 1) -- on the complete network every send costs
  ``t_send``, so phase 1 proceeds in generation lockstep (every active
  piece bisects, acquires, ships in ``t_bisect + t_acquire + t_send``)
  and phase 2 is the band-peeling round structure of Figure 2 with the
  DES's exact ``(-weight, proc)`` band order; the compiled C kernel of
  :mod:`repro.core._native` evaluates both phases in one pass per trial.
  On a topology, or without a compiler, a per-trial event replay reads
  the bisection tree :func:`repro.core.phf.phf_prescription` builds (the
  tables the DES's prescribed instance is made of) and reproduces the
  DES's phase-1 chronology for the timing -- the complete network is
  then just the topology whose every distance is one hop.

Rows: every entry takes a ``(n_trials, N-1)`` draw matrix, or on the
complete network a :class:`repro.core._native.SeededRows`, which makes
the C kernels sample each trial's row from its seed (HF then reads only
each trial's max weight from C, with no weight table).  Seeded rows have
no NumPy fallback; :func:`repro.experiments.stochastic.seeded_rows`
hands them out only when the kernels are loaded and self-checked.

Bit-exactness contract: every float the DES computes is reproduced by
elementwise operations in the same order with the same IEEE-754
semantics, so makespans, collective times and ratios match the oracle
*bit for bit* (see tests/test_fastpath.py).  The one caveat is
utilisation for BA / BA-HF / PHF: the DES sums per-processor work
accumulators, which equals ``(N-1)·t_bisect`` exactly whenever
``t_bisect`` is a dyadic rational (the default 1.0, and every config the
equivalence suite uses); for non-dyadic ``t_bisect`` the two summation
orders may differ in the last ulp.

The DES remains the oracle: problems from
:mod:`repro.problems.prescribed` make both sides evaluate the same
instance per trial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.core import _native
from repro.core.batch import _as_draw_matrix, _level_order, hf_final_weights_batch
from repro.core.bahf import bahf_threshold
from repro.core.phf import (
    PHASE1_EXHAUSTED,
    SimulationError,
    phf_prescription,
    phf_threshold,
)
from repro.core.problem import (
    check_alpha,
    check_initial_weight,
    normalize_algorithm,
)
from repro.simulator.machine import MachineConfig
from repro.simulator.topology import CompleteTopology

__all__ = [
    "FastpathResult",
    "FastpathUnsupported",
    "fastpath_supported",
    "fastpath_hf",
    "fastpath_ba",
    "fastpath_bahf",
    "fastpath_phf",
    "fastpath_counters",
]


class FastpathUnsupported(ValueError):
    """The requested cell has no closed-form kernel (use the DES)."""


@dataclass(frozen=True)
class FastpathResult:
    """Per-trial machine metrics for one (algorithm, N, config) cell.

    Field names (and per-trial values) mirror
    :class:`~repro.simulator.trace.SimulationResult`; every array has
    shape ``(n_trials,)``.
    """

    algorithm: str
    n_processors: int
    parallel_time: np.ndarray
    n_messages: np.ndarray
    n_control_messages: np.ndarray
    n_collectives: np.ndarray
    collective_time: np.ndarray
    n_bisections: np.ndarray
    total_hops: np.ndarray
    utilization: np.ndarray
    ratio: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.parallel_time.shape[0]


def fastpath_supported(
    algorithm: str,
    config: Optional[MachineConfig] = None,
    *,
    phase1: str = "central",
) -> bool:
    """Whether :func:`fastpath_counters` can evaluate this cell.

    Unsupported: event recording (the fastpath produces no traces), and
    PHF with a non-central phase-1 strategy (the on-line acquisition
    chronology is then randomness-dependent).
    """
    key = normalize_algorithm(algorithm)
    config = config or MachineConfig()
    if config.record_events:
        return False
    if key == "phf":
        return phase1 == "central"
    return True


def _require_supported(
    algorithm: str, config: MachineConfig, *, phase1: str = "central"
) -> None:
    if not fastpath_supported(algorithm, config, phase1=phase1):
        raise FastpathUnsupported(
            f"no fastpath for algorithm={algorithm!r} with this machine "
            "config (record_events, or phf with non-central phase 1); "
            "use the DES engine"
        )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _chain_add(base: float, unit: float, k: int) -> float:
    """``k`` sequential ``+= unit`` additions (the DES accumulation order)."""
    t = base
    for _ in range(k):
        t = t + unit
    return t


def _edge_costs(config, topo, src, dst):
    """Per-edge (send cost, hop count), replicating ``Machine.send``."""
    if topo is None:
        m = np.broadcast_shapes(np.shape(src), np.shape(dst))
        cost = np.full(m, config.t_send, dtype=np.float64)
        hops = np.ones(m, dtype=np.int64)
        return cost, hops
    hops = topo.distance_array(src, dst)
    cost = config.t_send + config.t_hop * np.maximum(0, hops - 1)
    return cost, hops


def _utilization(n: int, work_total: float, makespan: np.ndarray) -> np.ndarray:
    """``sum(work) / (n · span)`` with the DES's ``span <= 0 -> 0`` guard."""
    out = np.zeros_like(makespan)
    pos = makespan > 0
    if pos.any():
        out[pos] = work_total / (n * makespan[pos])
    return out


def _const_int(n_trials: int, value: int) -> np.ndarray:
    return np.full(n_trials, value, dtype=np.int64)


def _trial_rows(alpha_draws, n: int, config: MachineConfig):
    """``(rows, n_trials)``: a checked draw matrix, or seeded rows.

    :class:`~repro.core._native.SeededRows` are sampled inside the
    complete-network kernels, so they are refused on a topology.
    """
    if isinstance(alpha_draws, _native.SeededRows):
        if config.topology is not None:
            raise FastpathUnsupported(
                "seeded rows are sampled by the complete-network kernels; "
                "pass a draw matrix on a topology"
            )
        return alpha_draws, alpha_draws.n_trials
    draws = _as_draw_matrix(alpha_draws, max(0, n - 1))
    return draws, draws.shape[0]


def _seeded_result(result):
    """A native kernel's result on seeded rows, which have no NumPy fallback."""
    if result is None:
        raise RuntimeError("seeded rows need the loaded, self-checked native kernels")
    return result


# ----------------------------------------------------------------------
# HF
# ----------------------------------------------------------------------


def fastpath_hf(
    n_processors: int,
    alpha_draws,
    *,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """Sequential HF: P_1 bisects ``N-1`` times, then ships pieces 2..N.

    ``alpha_draws`` is a draw matrix, or
    :class:`~repro.core._native.SeededRows` whose max weights the seeded
    C entry computes without a weight table.  ``n_threads`` shards the
    native kernel's trials across in-kernel threads (bit-identical for
    every count).
    """
    config = config or MachineConfig()
    _require_supported("hf", config)
    n = n_processors
    w0 = check_initial_weight(initial_weight)
    if isinstance(alpha_draws, _native.SeededRows):
        if n < 1:
            raise ValueError(f"n_processors must be >= 1, got {n}")
        rows, _ = _trial_rows(alpha_draws, n, config)
        maxw = _seeded_result(_native.seeded_ratios_native(
            "hf", rows.root, rows.start, rows.n_trials, n, rows.low,
            rows.high, n_threads=n_threads, w0=w0,
        ))
    else:
        # The batch kernel validates n and the draws.
        maxw = hf_final_weights_batch(
            w0, n, alpha_draws, n_threads=n_threads
        ).max(axis=1)
    n_trials = maxw.shape[0]
    topo = config.topology(n) if config.topology else None

    # Timing is trial-independent: one scalar chain, replayed in the
    # DES's accumulation order (bisections, then sends in dst order).
    t = _chain_add(0.0, config.t_bisect, n - 1)
    work_p1 = t  # work_time[0] accumulates the identical chain
    hops_total = 0
    if n > 1:
        srcs = np.ones(n - 1, dtype=np.int64)
        dsts = np.arange(2, n + 1, dtype=np.int64)
        costs, hops = _edge_costs(config, topo, srcs, dsts)
        hops_total = int(hops.sum())
        for c_val in costs.tolist():
            t = t + c_val
    makespan = t
    # sum(work_time) = 0 + work_p1 + 0 + ... (adding 0.0 is exact)
    util = work_p1 / (n * makespan) if makespan > 0 else 0.0

    ratio = maxw / (w0 / n)
    return FastpathResult(
        algorithm="hf",
        n_processors=n,
        parallel_time=np.full(n_trials, makespan),
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=_const_int(n_trials, 0),
        n_collectives=_const_int(n_trials, 0),
        collective_time=np.zeros(n_trials),
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=_const_int(n_trials, hops_total),
        utilization=np.full(n_trials, util),
        ratio=ratio,
    )


# ----------------------------------------------------------------------
# BA and BA-HF
# ----------------------------------------------------------------------


def _ba_like_result(
    algorithm: str,
    n: int,
    alpha_draws,
    config: MachineConfig,
    *,
    threshold: Optional[float],
    initial_weight: float,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    if n < 1:
        raise ValueError(f"n_processors must be >= 1, got {n}")
    draws, n_trials = _trial_rows(alpha_draws, n, config)
    w0 = check_initial_weight(initial_weight)
    # The C kernel covers the complete network; topologies (and runs
    # without a compiler) take the batch module's timed level-order walk.
    native = config.topology is None and _native.ba_metrics_native(
        draws, n, w0=w0, threshold=threshold, t_bisect=config.t_bisect,
        t_send=config.t_send, n_threads=n_threads,
    )
    if isinstance(draws, _native.SeededRows):
        native = _seeded_result(native)
    if native:
        (makespan, maxw), hops_acc = native, _const_int(n_trials, n - 1)
    else:
        topo = config.topology(n) if config.topology else None
        weights, makespan, hops_acc = _level_order(
            np.full(n_trials, w0), n, draws,
            2.0 if threshold is None else threshold,
            clock=(config.t_bisect, partial(_edge_costs, config, topo)),
        )
        maxw = weights.max(axis=1)
    work_total = (n - 1) * config.t_bisect
    return FastpathResult(
        algorithm=algorithm,
        n_processors=n,
        parallel_time=makespan,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=_const_int(n_trials, 0),
        n_collectives=_const_int(n_trials, 0),
        collective_time=np.zeros(n_trials),
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=hops_acc,
        utilization=_utilization(n, work_total, makespan),
        ratio=maxw / (w0 / n),
    )


def fastpath_ba(
    n_processors: int,
    alpha_draws,
    *,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """BA: communication-free recursion, both children start after the send."""
    config = config or MachineConfig()
    _require_supported("ba", config)
    return _ba_like_result(
        "ba", n_processors, alpha_draws, config,
        threshold=None, initial_weight=initial_weight, n_threads=n_threads,
    )


def fastpath_bahf(
    n_processors: int,
    alpha_draws,
    *,
    alpha: float,
    lam: float = 1.0,
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """BA-HF: BA recursion down to ``λ/α + 1``, sequential HF jobs below."""
    config = config or MachineConfig()
    _require_supported("bahf", config)
    alpha = check_alpha(alpha)
    return _ba_like_result(
        "bahf", n_processors, alpha_draws, config,
        threshold=bahf_threshold(alpha, lam), initial_weight=initial_weight,
        n_threads=n_threads,
    )


# ----------------------------------------------------------------------
# PHF (central phase 1)
# ----------------------------------------------------------------------

def _phf_replay(
    n: int,
    draws: np.ndarray,
    config: MachineConfig,
    *,
    alpha: float,
    keep: str,
    w0: float,
) -> FastpathResult:
    """PHF by per-trial event replay (topologies; no-compiler fallback).

    Distance-dependent sends desynchronise the phase-1 generations, so
    the complete network's lockstep no longer times the run -- but the
    *instance* stays lockstep: :func:`repro.core.phf.phf_prescription`
    assigns draws to bisection-tree nodes in the machine-independent
    generation order, and the DES (fed the same tables through
    :func:`repro.problems.prescribed.phf_draw_tree`) merely walks those
    cached children in event order.  Each trial therefore reads the
    prescription's ``weight``/``children`` tables and replays the event
    chronology of the DES's central phase 1 for the timing: a
    ``(time, seq)`` heap pops pieces FIFO at equal times (ship child
    scheduled before keep child), every bisection acquires the next
    central id, and every send pays ``t_send + t_hop·(hops-1)``.
    Phase 2 is the scalar band-peeling loop on the replay's processor
    numbering.

    Without a topology the replay runs on :class:`CompleteTopology`
    (one hop per send, so every send costs exactly ``t_send``), which is
    the model the C kernel evaluates.  All float chains follow the DES's
    association exactly (see the module bit-exactness contract).
    """
    topo = config.topology(n) if config.topology else CompleteTopology(n)
    threshold = phf_threshold(w0, alpha, n)
    c = config.collective_cost(n)
    t_b, t_a, t_s = config.t_bisect, config.t_acquire, config.t_send
    t_hop = config.t_hop
    keep_heavy = keep == "heavy"
    n_trials = draws.shape[0]

    res_time = np.empty(n_trials)
    res_coll_t = np.empty(n_trials)
    res_coll_n = np.empty(n_trials, dtype=np.int64)
    res_ctrl = np.empty(n_trials, dtype=np.int64)
    res_hops = np.empty(n_trials, dtype=np.int64)
    res_maxw = np.empty(n_trials)

    for i in range(n_trials):
        weight, children = phf_prescription(
            n, draws[i], alpha=alpha, keep=keep, initial_weight=w0
        )

        # ---- phase 1: event replay for the timing --------------------
        pieces = {}  # replay proc -> node id
        acq = 0
        hops = 0
        span = 0.0
        seq = 1
        heap = [(0.0, 0, 1, 0)]
        while heap:
            t, _, proc, nid = heapq.heappop(heap)
            if weight[nid] <= threshold:
                pieces[proc] = nid
                continue
            dst = acq + 2  # k-th acquisition (0-based) -> processor k+2
            acq += 1
            hid, lid = children[nid]
            keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
            d = topo.distance(proc, dst)
            hops += d
            cost = t_s + t_hop * max(0, d - 1)
            arrival = ((t + t_b) + t_a) + cost
            if arrival > span:
                span = arrival
            heapq.heappush(heap, (arrival, seq, dst, ship_id))
            seq += 1
            heapq.heappush(heap, (arrival, seq, proc, keep_id))
            seq += 1

        # ---- (b)/(c): barrier + count/number free processors ---------
        ct = 0.0
        ct = ct + c
        ct = ct + c
        ncoll = 2
        t = (span + c) + c
        count = len(pieces)
        f = n - count
        next_free = count + 1  # central phase 1 leaves {count+1..n} free
        nctrl = 0

        # ---- phase 2: band-peeling rounds ----------------------------
        while f > 0:
            t = t + c  # (d) m := max weight
            t = t + c  # (e) h := band count + numbering
            ct = ct + c
            ct = ct + c
            ncoll += 2
            m = max(weight[nid] for nid in pieces.values())
            band_lo = m * (1.0 - alpha)
            band = sorted(
                (p for p, nid in pieces.items() if weight[nid] >= band_lo),
                key=lambda p: (-weight[pieces[p]], p),
            )
            h = len(band)
            if h > f:
                t = t + c  # selection collective
                ct = ct + c
                ncoll += 1
                band = band[:f]
            finish = t
            for proc in band:
                nid = pieces[proc]
                pair = children[nid]
                if pair is None:
                    # Only reachable when a truncating selection round
                    # breaks a weight tie differently than the
                    # prescription's processor numbering -- the DES
                    # raises the same way (PrescribedNode._bisect_once).
                    raise ValueError(
                        "prescribed leaf bisected: the consuming algorithm "
                        "deviated from the draw prescription"
                    )
                hid, lid = pair
                keep_id, ship_id = (hid, lid) if keep_heavy else (lid, hid)
                dst = next_free
                next_free += 1
                nctrl += 1
                d = topo.distance(proc, dst)
                hops += d
                cost = t_s + t_hop * max(0, d - 1)
                arrival = ((t + t_b) + t_a) + cost
                pieces[proc] = keep_id
                pieces[dst] = ship_id
                if arrival > finish:
                    finish = arrival
            f -= len(band)
            if f > 0:
                finish = finish + c  # (h) barrier
                ct = ct + c
                ncoll += 1
            t = finish

        res_time[i] = t
        res_coll_t[i] = ct
        res_coll_n[i] = ncoll
        res_ctrl[i] = nctrl
        res_hops[i] = hops
        res_maxw[i] = max(weight[nid] for nid in pieces.values())

    work_total = (n - 1) * t_b
    return FastpathResult(
        algorithm="phf",
        n_processors=n,
        parallel_time=res_time,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=res_ctrl,
        n_collectives=res_coll_n,
        collective_time=res_coll_t,
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=res_hops,
        utilization=_utilization(n, work_total, res_time),
        ratio=res_maxw / (w0 / n),
    )


def fastpath_phf(
    n_processors: int,
    alpha_draws,
    *,
    alpha: float,
    keep: str = "heavy",
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """PHF with the idealised central phase 1 (Figure 2).

    On the complete network the compiled metrics kernel evaluates every
    trial (from a draw matrix or seeded rows); on a topology, or when no
    compiler is available, the per-trial event replay :func:`_phf_replay`
    does, with bit-identical results.
    ``n_threads`` shards the compiled kernel's trials across in-kernel
    threads (bit-identical for every count); the replay ignores it.
    """
    config = config or MachineConfig()
    _require_supported("phf", config)
    alpha = check_alpha(alpha)
    if keep not in ("heavy", "light"):
        raise ValueError(f"keep must be 'heavy' or 'light', got {keep!r}")
    n = n_processors
    if n < 1:
        raise ValueError(f"n_processors must be >= 1, got {n}")
    draws, n_trials = _trial_rows(alpha_draws, n, config)
    w0 = check_initial_weight(initial_weight)
    threshold = phf_threshold(w0, alpha, n)
    native = config.topology is None and _native.phf_metrics_native(
        draws,
        n,
        w0=w0,
        threshold=threshold,
        alpha=alpha,
        keep_heavy=keep == "heavy",
        t_bisect=config.t_bisect,
        t_acquire=config.t_acquire,
        t_send=config.t_send,
        collective=config.collective_cost(n),
        n_threads=n_threads,
    )
    if isinstance(draws, _native.SeededRows):
        native = _seeded_result(native)
    if not native:
        return _phf_replay(n, draws, config, alpha=alpha, keep=keep, w0=w0)
    makespan, coll_time, coll_n, ctrl, maxw, status = native
    if (status == 1).any():
        raise SimulationError(PHASE1_EXHAUSTED)
    if (status != 0).any():  # pragma: no cover - internal invariant
        raise SimulationError("phase 2 failed to converge")
    return FastpathResult(
        algorithm="phf",
        n_processors=n,
        parallel_time=makespan,
        n_messages=_const_int(n_trials, n - 1),
        n_control_messages=ctrl,
        n_collectives=coll_n,
        collective_time=coll_time,
        n_bisections=_const_int(n_trials, n - 1),
        total_hops=_const_int(n_trials, n - 1),
        utilization=_utilization(n, (n - 1) * config.t_bisect, makespan),
        ratio=maxw / (w0 / n),
    )


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------


def fastpath_counters(
    algorithm: str,
    n_processors: int,
    alpha_draws,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    phase1: str = "central",
    config: Optional[MachineConfig] = None,
    initial_weight: float = 1.0,
    n_threads: Optional[int] = None,
) -> FastpathResult:
    """Batched machine metrics for one algorithm over a draw matrix or seeded rows.

    ``alpha`` is required for ``phf`` and ``bahf``.  Raises
    :class:`FastpathUnsupported` for cells only the DES can evaluate
    (see :func:`fastpath_supported`).  ``n_threads`` is the native
    kernels' in-kernel trial-block thread count (``None`` defers to
    ``REPRO_NATIVE_THREADS`` / auto); metrics are bit-identical for
    every count, and pure-NumPy paths ignore it.
    """
    key = normalize_algorithm(algorithm)
    config = config or MachineConfig()
    _require_supported(key, config, phase1=phase1)
    if key == "hf":
        return fastpath_hf(
            n_processors, alpha_draws, config=config,
            initial_weight=initial_weight, n_threads=n_threads,
        )
    if key == "ba":
        return fastpath_ba(
            n_processors, alpha_draws, config=config,
            initial_weight=initial_weight, n_threads=n_threads,
        )
    if key == "bahf":
        if alpha is None:
            raise ValueError("bahf fastpath needs alpha")
        return fastpath_bahf(
            n_processors,
            alpha_draws,
            alpha=alpha,
            lam=lam,
            config=config,
            initial_weight=initial_weight,
            n_threads=n_threads,
        )
    if alpha is None:
        raise ValueError("phf fastpath needs alpha")
    return fastpath_phf(
        n_processors,
        alpha_draws,
        alpha=alpha,
        keep=keep,
        config=config,
        initial_weight=initial_weight,
        n_threads=n_threads,
    )
