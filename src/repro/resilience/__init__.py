"""Fault injection and recovery for the simulated machine.

The paper's algorithms assume a reliable machine; this package asks what
happens when processors fail.  It provides:

* deterministic fault schedules (:class:`FaultConfig`,
  :class:`FaultPlan`, :func:`fault_plan_for`) -- processor crashes
  (fail-stop), stragglers, message loss and delay, all derived
  bit-reproducibly from ``(seed, trial)``;
* recovery protocols (:class:`RecoveryPolicy`,
  :class:`RecoveryTracker`) -- ack timeouts, exponential backoff,
  re-targeting via the surviving-processor pool, adoption when retries
  are exhausted;
* the fault entry point (:func:`simulate_with_faults`): HF, PHF, BA and
  BA-HF on the discrete-event simulator (:mod:`repro.simulator.des`)
  under a plan, with degraded-mode metrics in
  ``SimulationResult.fault_summary``.

With an empty plan every run is bit-identical to the fault-free run of
the same simulator -- the layer is inert unless faults are injected.
"""

from repro.resilience.faults import FaultConfig, FaultPlan, fault_plan_for
from repro.resilience.recovery import (
    RecoveryPolicy,
    RecoveryTracker,
    simulate_with_faults,
)

__all__ = [
    "FaultConfig",
    "FaultPlan",
    "fault_plan_for",
    "RecoveryPolicy",
    "RecoveryTracker",
    "simulate_with_faults",
]
