"""Simulation results: timing and communication accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.partition import Partition
from repro.simulator.machine import MachineEvent

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of running a load-balancing algorithm on the simulated machine.

    Attributes
    ----------
    partition:
        The produced partition (identical to the logical algorithm's).
    parallel_time:
        Simulated makespan: time until the last processor holds its final
        piece and all synchronisation has completed.
    n_messages:
        Point-to-point subproblem transmissions.
    n_control_messages:
        Small control round-trips (free-processor id lookups).
    n_collectives / collective_time:
        Count of global operations and total time charged for them.
    n_bisections:
        Total bisections (== pieces - 1).
    utilization:
        Mean fraction of the makespan processors spent bisecting.
    phases:
        Per-phase timing breakdown (algorithm-specific keys, e.g.
        ``{"phase1": 12.0, "phase2": 30.5}``).
    """

    partition: Partition
    parallel_time: float
    n_messages: int
    n_collectives: int
    collective_time: float
    n_bisections: int
    utilization: float
    n_control_messages: int = 0
    #: total hop count of all subproblem sends (== n_messages on the
    #: paper's complete network; larger on sparse topologies)
    total_hops: int = 0
    phases: Dict[str, float] = field(default_factory=dict)
    #: full event trace when the machine ran with ``record_events=True``
    events: List[MachineEvent] = field(default_factory=list)
    #: degraded-mode metrics filled by runs under a fault plan
    #: (:mod:`repro.simulator.des`): recovery counts/time, work re-done,
    #: survivors, ratio over the surviving processors.  Empty for
    #: fault-free runs.
    fault_summary: Dict[str, float] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when fault recovery gave up somewhere during the run."""
        return self.fault_summary.get("degraded", 0.0) > 0.0

    @property
    def algorithm(self) -> str:
        return self.partition.algorithm

    @property
    def ratio(self) -> float:
        return self.partition.ratio

    def summary(self) -> str:
        phase_str = " ".join(f"{k}={v:.1f}" for k, v in self.phases.items())
        return (
            f"{self.algorithm}: N={self.partition.n_processors} "
            f"T={self.parallel_time:.1f} msgs={self.n_messages} "
            f"colls={self.n_collectives} ratio={self.ratio:.4f}"
            + (f" [{phase_str}]" if phase_str else "")
        )
