"""Deterministic fault injection for the simulated machine.

The paper's central practical claim is architectural: BA and BA-HF need
*no global communication* (Sections 3.2/3.4), which should make them
inherently more robust to processor failure and stragglers than PHF,
whose every phase-2 round is a synchronisation point.  This module makes
that claim testable: a :class:`FaultPlan` is a concrete, bit-reproducible
schedule of machine misbehaviour -- processor crashes (fail-stop at a
drawn time), straggler slowdown factors, and per-message loss/delay --
derived from ``(seed, trial)`` exactly like every other random draw in
the repo (SplitMix64 child streams, see :mod:`repro.utils.rng`).

Design rules:

* **Inert when empty.**  An empty plan (no crashes, unit slowdowns, zero
  channel rates) must leave every simulated execution bit-identical to
  the fault-free run; the arithmetic below only ever multiplies by the
  stored slowdown (``x * 1.0`` is exact) and adds the stored delay
  (``x + 0.0`` is exact).  ``tests/test_resilience.py`` enforces this.
* **Pure functions of the plan.**  Message loss/delay are decided by
  hashing the global send-attempt index against the plan's channel seed,
  so any replay of the (deterministic) event order reproduces the same
  channel behaviour -- no mutable draw state, no dependence on worker
  count.

Fail-stop semantics (documented here, implemented in
:mod:`repro.simulator.des`): a processor with crash time ``T`` refuses
every subproblem arriving at time ``>= T``.  Work it accepted earlier
runs to completion (non-preemptive hand-off-boundary fail-stop) -- the
standard simplification that keeps recovery sender-driven and matches the
granularity of the algorithms' communication structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.mathutils import check_finite_nonneg, check_probability
from repro.utils.rng import child_seed, split_seed

__all__ = ["FaultConfig", "FaultPlan", "fault_plan_for"]

#: Tag mixed into the seed so fault draws never collide with problem draws.
_FAULT_STREAM_TAG = 0xFA017
#: Child index of the message-channel sub-stream inside a plan's stream.
_CHANNEL_STREAM = 0x5E2D

_NEVER = math.inf


@dataclass(frozen=True)
class FaultConfig:
    """Fault *rates*: the distribution a :class:`FaultPlan` is drawn from.

    ``crash_rate`` / ``straggler_rate`` are per-processor probabilities;
    ``msg_loss_rate`` / ``msg_delay_rate`` are per-send-attempt
    probabilities.  ``crash_window`` bounds the interval crash times are
    drawn from (uniform on ``[0, crash_window)``), ``straggler_factor``
    multiplies every bisect/send/control duration of an affected
    processor, and ``msg_delay`` is the extra in-transit latency of a
    delayed message.  ``protect_origin`` keeps ``P_1`` alive: the problem
    starts there, so an origin crash at t=0 would void the run rather
    than degrade it.
    """

    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    msg_loss_rate: float = 0.0
    msg_delay_rate: float = 0.0
    msg_delay: float = 4.0
    crash_window: float = 64.0
    protect_origin: bool = True

    def __post_init__(self) -> None:
        check_probability("crash_rate", self.crash_rate)
        check_probability("straggler_rate", self.straggler_rate)
        check_probability("msg_loss_rate", self.msg_loss_rate)
        check_probability("msg_delay_rate", self.msg_delay_rate)
        check_finite_nonneg("msg_delay", self.msg_delay)
        check_finite_nonneg("crash_window", self.crash_window)
        factor = check_finite_nonneg("straggler_factor", self.straggler_factor)
        if factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1 (a slowdown), got {factor!r}"
            )

    @property
    def is_null(self) -> bool:
        """True when a plan drawn from this config is always empty."""
        return (
            self.crash_rate <= 0.0
            and self.straggler_rate <= 0.0
            and self.msg_loss_rate <= 0.0
            and self.msg_delay_rate <= 0.0
        )


def _unit_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in [0, 1): a pure function of (seed, index)."""
    return split_seed(seed, index) / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """One trial's concrete fault schedule (frozen, hashable-free data).

    ``crash_time[i]`` is the fail-stop time of ``P_{i+1}`` (``inf`` =
    never), ``slowdown[i]`` its duration multiplier (1.0 = nominal).
    The message channel is a pure function of ``channel_seed`` and the
    global send-attempt index, so replays agree exactly.
    """

    n_processors: int
    crash_time: Tuple[float, ...]
    slowdown: Tuple[float, ...]
    msg_loss_rate: float = 0.0
    msg_delay_rate: float = 0.0
    msg_delay: float = 0.0
    channel_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError(
                f"n_processors must be >= 1, got {self.n_processors}"
            )
        for name in ("crash_time", "slowdown"):
            values = getattr(self, name)
            if len(values) != self.n_processors:
                raise ValueError(
                    f"{name} must have one entry per processor "
                    f"({self.n_processors}), got {len(values)}"
                )
        for s in self.slowdown:
            if not (s >= 1.0):  # also rejects NaN
                raise ValueError(f"slowdown factors must be >= 1, got {s!r}")
        for t in self.crash_time:
            if math.isnan(t) or t < 0.0:
                raise ValueError(f"crash times must be >= 0, got {t!r}")
        check_probability("msg_loss_rate", self.msg_loss_rate)
        check_probability("msg_delay_rate", self.msg_delay_rate)
        check_finite_nonneg("msg_delay", self.msg_delay)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, n_processors: int) -> "FaultPlan":
        """The inert plan: no crashes, no stragglers, a perfect channel."""
        return cls(
            n_processors=n_processors,
            crash_time=(_NEVER,) * n_processors,
            slowdown=(1.0,) * n_processors,
        )

    # -- queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the plan cannot perturb a simulation at all."""
        return (
            all(math.isinf(t) for t in self.crash_time)
            and not any(s > 1.0 for s in self.slowdown)
            and self.msg_loss_rate <= 0.0
            and self.msg_delay_rate <= 0.0
        )

    def alive(self, proc: int, time: float) -> bool:
        """Is ``P_proc`` still accepting work at simulation ``time``?"""
        return time < self.crash_time[proc - 1]

    def crashed_by(self, time: float) -> int:
        """Number of processors whose fail-stop time is ``<= time``."""
        return sum(1 for t in self.crash_time if t <= time)

    # -- machine hooks (consulted by repro.simulator.machine) -----------

    def scale_work(self, proc: int, cost: float) -> float:
        """Straggler-scaled duration of local work on ``P_proc``."""
        return cost * self.slowdown[proc - 1]

    def scale_comm(self, src: int, cost: float) -> float:
        """Straggler-scaled duration of a send issued by ``P_src``."""
        return cost * self.slowdown[src - 1]

    # -- message channel ------------------------------------------------

    def send_lost(self, send_index: int) -> bool:
        """Is the ``send_index``-th send attempt lost in transit?"""
        if self.msg_loss_rate <= 0.0:
            return False
        return _unit_uniform(self.channel_seed, 2 * send_index) < self.msg_loss_rate

    def send_delay(self, send_index: int) -> float:
        """Extra in-transit latency of the ``send_index``-th send attempt."""
        if self.msg_delay_rate <= 0.0:
            return 0.0
        u = _unit_uniform(self.channel_seed, 2 * send_index + 1)
        return self.msg_delay if u < self.msg_delay_rate else 0.0


def fault_plan_for(
    config: FaultConfig,
    n_processors: int,
    *,
    seed: int,
    trial: int,
) -> FaultPlan:
    """Draw the :class:`FaultPlan` of trial ``trial``.

    A pure function of ``(config, n_processors, seed, trial)``: the plan
    stream is a SplitMix64 child of ``seed`` tagged so it never collides
    with the problem-instance draws of the same trial, and all draws
    happen in one fixed order -- so every worker process re-derives the
    identical plan no matter how trials are chunked.
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    if trial < 0:
        raise ValueError(f"trial must be non-negative, got {trial}")
    root = child_seed(seed, _FAULT_STREAM_TAG, trial, n_processors)
    if config.is_null:
        return FaultPlan.empty(n_processors)
    rng = np.random.default_rng(root)
    n = n_processors
    # One fixed draw order: crash uniforms, crash times, straggler
    # uniforms -- growing the config never reshuffles earlier draws.
    crash_u = rng.random(n)
    crash_t = rng.random(n) * config.crash_window
    strag_u = rng.random(n)
    crash_time = [
        float(crash_t[i]) if crash_u[i] < config.crash_rate else _NEVER
        for i in range(n)
    ]
    slowdown = [
        config.straggler_factor if strag_u[i] < config.straggler_rate else 1.0
        for i in range(n)
    ]
    if config.protect_origin:
        crash_time[0] = _NEVER
    return FaultPlan(
        n_processors=n,
        crash_time=tuple(crash_time),
        slowdown=tuple(slowdown),
        msg_loss_rate=config.msg_loss_rate,
        msg_delay_rate=config.msg_delay_rate,
        msg_delay=config.msg_delay,
        channel_seed=split_seed(root, _CHANNEL_STREAM),
    )
