"""Deterministic OS-level fault schedules for the *real* chunk executor.

:mod:`repro.resilience` chaos-tests the **simulated** machines; this
module does the same for the machinery that actually runs the sweeps.  A
:class:`ChaosPlan` is a concrete, bit-reproducible schedule of real-world
misbehaviour -- SIGKILL a pool worker mid-chunk, hang a worker past its
deadline, raise a transient exception, delay a result -- drawn from
SplitMix64 child streams exactly like :func:`repro.resilience.faults.
fault_plan_for` draws simulated crashes.  The supervised executor in
:mod:`repro.experiments.checkpoint` consults the plan once per chunk
attempt, so a given ``(config, keys, seed)`` triple always injects the
same faults in the same places, pooled or serial, for any worker count.

Design rules (shared with ``repro.resilience.faults``):

* **Inert when empty.**  ``ChaosConfig()`` draws the empty plan; an
  execution under an empty plan is byte-for-byte the plain execution.
* **Pure functions of the plan.**  Every fault decision is a pure
  function of ``(seed, key, attempt)`` -- no mutable draw state, no
  dependence on scheduling order.
* **Bounded blast radius.**  Faults are only injected on the first
  ``faulty_attempts`` attempts of a chunk (default 1), and repeat
  attempts demote ``kill`` to ``transient``, so a retried chunk always
  has a fault-free attempt within the executor's retry budget and the
  run as a whole terminates.

Journal *write* faults (torn/partial appends at chosen byte offsets)
live in :mod:`repro.chaos.crashpoints` -- they necessarily end the
process, so they are driven by an environment hook a test harness sets
before launching a victim run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.mathutils import check_finite_nonneg, check_probability
from repro.utils.rng import child_seed

__all__ = [
    "FAULT_KINDS",
    "CHAOS_PROFILES",
    "ChaosConfig",
    "ChaosPlan",
    "ChaosSpec",
    "chaos_plan_for",
]

#: Everything the injector knows how to do to a chunk attempt.
FAULT_KINDS: Tuple[str, ...] = ("kill", "hang", "transient", "delay")

#: Tag mixed into the seed so chaos draws never collide with problem or
#: simulated-fault draws (cf. ``_FAULT_STREAM_TAG`` in repro.resilience).
_CHAOS_STREAM_TAG = 0xC4A05


@dataclass(frozen=True)
class ChaosConfig:
    """Fault *rates* and shapes a :class:`ChaosPlan` is drawn from.

    ``kill_rate`` / ``hang_rate`` / ``transient_rate`` / ``delay_rate``
    are per-chunk-attempt probabilities (their sum must stay ``<= 1``;
    the remainder is the no-fault outcome).  ``min_kills`` /
    ``min_hangs`` are *floors* a materialised plan enforces
    deterministically (the first fault-free keys in key order are
    promoted), so a test profile can guarantee "at least two workers
    die" regardless of the seed; ``max_kills`` / ``max_hangs`` are caps
    (excess draws demote to ``transient``).  ``faulty_attempts`` bounds
    how many attempts of one chunk may draw faults -- attempts beyond it
    are always clean, which (with an executor retry budget of at least
    ``faulty_attempts``) guarantees the run terminates.
    """

    kill_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    delay_rate: float = 0.0
    hang_seconds: float = 30.0
    delay_seconds: float = 0.05
    min_kills: int = 0
    min_hangs: int = 0
    max_kills: Optional[int] = None
    max_hangs: Optional[int] = None
    faulty_attempts: int = 1

    def __post_init__(self) -> None:
        total = 0.0
        for name in ("kill_rate", "hang_rate", "transient_rate", "delay_rate"):
            total += check_probability(name, getattr(self, name))
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"fault rates must sum to <= 1, got {total!r}"
            )
        check_finite_nonneg("hang_seconds", self.hang_seconds)
        check_finite_nonneg("delay_seconds", self.delay_seconds)
        for name in ("min_kills", "min_hangs", "faulty_attempts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative int, got {value!r}")
        for lo_name, hi_name in (("min_kills", "max_kills"), ("min_hangs", "max_hangs")):
            hi = getattr(self, hi_name)
            if hi is None:
                continue
            if not isinstance(hi, int) or isinstance(hi, bool) or hi < 0:
                raise ValueError(f"{hi_name} must be a non-negative int, got {hi!r}")
            if hi < getattr(self, lo_name):
                raise ValueError(
                    f"{hi_name} ({hi}) must be >= {lo_name} "
                    f"({getattr(self, lo_name)})"
                )

    @property
    def is_null(self) -> bool:
        """True when a plan drawn from this config is always empty."""
        return (
            self.kill_rate <= 0.0
            and self.hang_rate <= 0.0
            and self.transient_rate <= 0.0
            and self.delay_rate <= 0.0
            and self.min_kills == 0
            and self.min_hangs == 0
        )


#: Named profiles for the CLI (``--chaos-profile``) and the check.sh
#: smoke stage.  ``smoke`` deterministically guarantees the acceptance
#: scenario -- at least two worker SIGKILLs and one over-deadline hang --
#: on any seed, with hangs short enough for a gate run.
CHAOS_PROFILES: Dict[str, ChaosConfig] = {
    "transient": ChaosConfig(transient_rate=0.3, delay_rate=0.2),
    "smoke": ChaosConfig(
        kill_rate=0.2,
        hang_rate=0.1,
        transient_rate=0.2,
        delay_rate=0.2,
        min_kills=2,
        max_kills=2,
        min_hangs=1,
        max_hangs=1,
        hang_seconds=1.5,
        delay_seconds=0.02,
    ),
    "heavy": ChaosConfig(
        kill_rate=0.3,
        hang_rate=0.15,
        transient_rate=0.3,
        delay_rate=0.2,
        min_kills=2,
        max_kills=3,
        min_hangs=1,
        max_hangs=2,
        hang_seconds=5.0,
    ),
}


def _key_index(key: str) -> int:
    """Stable 32-bit stream index for a chunk key."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


def _attempt_uniform(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform in [0, 1) for one (key, attempt)."""
    return child_seed(seed, _CHAOS_STREAM_TAG, _key_index(key), attempt) / 2.0**64


def _draw_kind(config: ChaosConfig, u: float) -> Optional[str]:
    edge = config.kill_rate
    if u < edge:
        return "kill"
    edge += config.hang_rate
    if u < edge:
        return "hang"
    edge += config.transient_rate
    if u < edge:
        return "transient"
    edge += config.delay_rate
    if u < edge:
        return "delay"
    return None


@dataclass(frozen=True)
class ChaosPlan:
    """One run's concrete fault schedule (frozen, picklable).

    ``faults`` maps ``(key, attempt)`` to a fault kind; anything not in
    the schedule runs clean.  A plan is materialised from the *full* key
    list (see :func:`chaos_plan_for`) so floors and caps are resolved
    deterministically before the first chunk runs, and the same plan
    object is shipped to every worker.
    """

    config: ChaosConfig
    seed: int
    faults: Tuple[Tuple[str, int, str], ...] = ()
    # lookup index; built once, excluded from equality/repr
    _by_key: Dict[Tuple[str, int], str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index = {(key, attempt): kind for key, attempt, kind in self.faults}
        object.__setattr__(self, "_by_key", index)

    def fault_for(self, key: str, attempt: int) -> Optional[str]:
        """The fault injected into ``attempt`` of chunk ``key`` (or None)."""
        return self._by_key.get((key, attempt))

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def count(self, kind: str) -> int:
        """Number of scheduled faults of ``kind``."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (known: {list(FAULT_KINDS)})")
        return sum(1 for _, _, k in self.faults if k == kind)

    def describe(self) -> Dict[str, int]:
        """Scheduled fault counts by kind (for run reports and logs)."""
        return {kind: self.count(kind) for kind in FAULT_KINDS}

    def __getstate__(self) -> dict:
        # the lookup index is rebuilt by __post_init__ on unpickle
        return {"config": self.config, "seed": self.seed, "faults": self.faults}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()


def chaos_plan_for(
    config: ChaosConfig,
    keys: Sequence[str],
    *,
    seed: int,
) -> ChaosPlan:
    """Materialise the :class:`ChaosPlan` for one run.

    A pure function of ``(config, keys, seed)``: each ``(key, attempt)``
    draws its fault from a SplitMix64 child stream addressed by the
    key's CRC32, then caps demote excess kills/hangs (in key order) and
    floors promote the first clean keys -- all deterministic, so two
    runs over the same chunk layout inject identical faults.
    """
    if config.is_null:
        return ChaosPlan(config=config, seed=seed)
    faults: List[Tuple[str, int, str]] = []
    kills = hangs = 0
    unfaulted: List[str] = []
    for key in keys:
        kind = _draw_kind(config, _attempt_uniform(seed, key, 0))
        if kind == "kill":
            if config.max_kills is not None and kills >= config.max_kills:
                kind = "transient"
            else:
                kills += 1
        if kind == "hang":
            if config.max_hangs is not None and hangs >= config.max_hangs:
                kind = "transient"
            else:
                hangs += 1
        if kind is None:
            unfaulted.append(key)
        else:
            faults.append((key, 0, kind))
        # retry attempts draw independently; kills demote to transient so
        # a poison chunk cannot break the pool on every rebuild
        for attempt in range(1, config.faulty_attempts):
            kind_r = _draw_kind(config, _attempt_uniform(seed, key, attempt))
            if kind_r == "kill":
                kind_r = "transient"
            if kind_r is not None:
                faults.append((key, attempt, kind_r))
    # floors: promote the first clean keys until the minima are met
    need_kills = max(0, config.min_kills - kills)
    need_hangs = max(0, config.min_hangs - hangs)
    for key in unfaulted[: need_kills]:
        faults.append((key, 0, "kill"))
    for key in unfaulted[need_kills: need_kills + need_hangs]:
        faults.append((key, 0, "hang"))
    faults.sort()
    return ChaosPlan(config=config, seed=seed, faults=tuple(faults))


@dataclass(frozen=True)
class ChaosSpec:
    """A plan-to-be: config + seed, materialised once the keys are known.

    The executor accepts either a :class:`ChaosSpec` (it calls
    :meth:`materialize` with the run's key list) or an explicit
    :class:`ChaosPlan`; the CLI always hands over a spec because the
    chunk layout is not known at argument-parsing time.
    """

    config: ChaosConfig
    seed: int

    def materialize(self, keys: Sequence[str]) -> ChaosPlan:
        return chaos_plan_for(self.config, keys, seed=self.seed)
