"""Recovery policies, degraded-mode accounting and the fault entry point.

:func:`simulate_with_faults` runs an algorithm on the discrete-event
simulator (:mod:`repro.simulator.des`) under a fault plan, and every
such run recovers in simulated time under one :class:`RecoveryPolicy`:

* a failed subproblem hand-off (dead destination, lost message) is
  detected by the *sender* after ``detect_timeout`` (an ack timeout) and
  retried with exponential backoff (``detect_timeout * backoff**k``
  before attempt ``k+1``), up to ``max_retries`` retries;
* when retries are exhausted -- or no live target exists -- the sender
  **adopts** the subproblem: it keeps the piece locally instead of
  distributing it further, and the trial is marked *degraded*;
* PHF's collectives stall when a group member has died: the survivors
  wait out ``max_retries`` timeouts (``collective_timeout`` each, with
  the same backoff) before reconfiguring the group without the dead
  members -- the cost of global communication under failure, and the
  heart of the "BA survives where PHF stalls" comparison.

:class:`RecoveryTracker` accumulates the degraded-mode metrics reported
in :attr:`repro.simulator.trace.SimulationResult.fault_summary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.problem import BisectableProblem
from repro.resilience.faults import FaultPlan
from repro.simulator.des import simulate
from repro.simulator.machine import MachineConfig
from repro.simulator.trace import SimulationResult

__all__ = ["RecoveryPolicy", "RecoveryTracker", "simulate_with_faults"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the simulated recovery protocol (all in simulated time)."""

    #: ack timeout before a sender declares a hand-off failed
    detect_timeout: float = 4.0
    #: exponential backoff base between successive retries
    backoff: float = 2.0
    #: retries before a lost subproblem is adopted (trial degraded)
    max_retries: int = 3
    #: how long a collective waits for a silent member before timing out
    collective_timeout: float = 8.0

    def __post_init__(self) -> None:
        for name in ("detect_timeout", "backoff", "collective_timeout"):
            value = getattr(self, name)
            if not (
                isinstance(value, (int, float)) and not isinstance(value, bool)
            ) or not math.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"RecoveryPolicy.{name} must be finite and non-negative, "
                    f"got {value!r}"
                )
        if self.backoff < 1.0:
            raise ValueError(
                f"RecoveryPolicy.backoff must be >= 1, got {self.backoff!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"RecoveryPolicy.max_retries must be >= 0, "
                f"got {self.max_retries!r}"
            )

    def retry_wait(self, attempt: int) -> float:
        """Simulated wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt}")
        return self.detect_timeout * self.backoff**attempt

    def collective_stall_time(self) -> float:
        """Total wait before a stalled collective reconfigures its group."""
        return sum(
            self.collective_timeout * self.backoff**k
            for k in range(max(1, self.max_retries))
        )


@dataclass
class RecoveryTracker:
    """Mutable accounting of recovery work during one simulated trial."""

    #: hand-offs that eventually succeeded on a retry / alternate target
    n_recoveries: int = 0
    #: individual failed send attempts (each one re-sent or abandoned)
    n_failed_attempts: int = 0
    #: subproblems adopted by their sender after exhausting recovery
    n_adopted: int = 0
    #: PHF collective rounds that stalled on a dead member
    n_collective_stalls: int = 0
    #: simulated time spent in detect timeouts / backoff / stalls
    recovery_wait: float = 0.0
    #: simulated busy time spent on duplicated sends / re-bisections
    work_redone: float = 0.0

    def failed_attempt(self, *, wait: float, wasted: float) -> None:
        """One failed hand-off attempt: ``wait`` idle, ``wasted`` re-done."""
        self.n_failed_attempts += 1
        self.recovery_wait += wait
        self.work_redone += wasted

    def recovered(self) -> None:
        """A hand-off that succeeded after at least one failed attempt."""
        self.n_recoveries += 1

    def adopted(self) -> None:
        """A subproblem kept by its sender after recovery gave up."""
        self.n_adopted += 1

    def collective_stalled(self, wait: float) -> None:
        """A collective that timed out on dead members and reconfigured."""
        self.n_collective_stalls += 1
        self.recovery_wait += wait

    @property
    def degraded(self) -> bool:
        """True when recovery gave up somewhere (adoption happened)."""
        return self.n_adopted > 0

    def summary(self, extra: Dict[str, float]) -> Dict[str, float]:
        """The ``fault_summary`` mapping stored on a simulation result."""
        out: Dict[str, float] = {
            "n_recoveries": float(self.n_recoveries),
            "n_failed_attempts": float(self.n_failed_attempts),
            "n_adopted": float(self.n_adopted),
            "n_collective_stalls": float(self.n_collective_stalls),
            "recovery_wait": self.recovery_wait,
            "work_redone": self.work_redone,
            "degraded": 1.0 if self.degraded else 0.0,
        }
        out.update(extra)
        return out


def simulate_with_faults(
    algorithm: str,
    problem: BisectableProblem,
    n_processors: int,
    *,
    plan: FaultPlan,
    policy: Optional[RecoveryPolicy] = None,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Run ``algorithm`` on the simulated machine under ``plan``.

    Parameters mirror the fault-free ``simulate_*`` entry points of
    :mod:`repro.simulator`; ``plan``/``policy`` add the fault schedule
    and the recovery protocol (default :class:`RecoveryPolicy()`), and
    the result's ``fault_summary`` carries this run's
    :class:`RecoveryTracker` metrics.  PHF runs its phase 1 in the
    idealized central-acquire mode (the paper's timing assumption).

    With ``plan.is_empty`` the result is bit-identical to the fault-free
    simulation of the same problem instance (regression-tested).
    """
    return simulate(
        algorithm,
        problem,
        n_processors,
        plan=plan,
        policy=policy or RecoveryPolicy(),
        tracker=RecoveryTracker(),
        alpha=alpha,
        lam=lam,
        keep=keep,
        config=config,
    )
