"""Discrete-event simulation of the paper's parallel machine model.

Section 3 analyses the algorithms on an abstract message-passing machine:
unit-time bisections and subproblem sends, ``O(log N)`` global operations.
This package provides that machine (:class:`Machine`, :class:`MachineConfig`),
a deterministic event engine (:class:`Simulator`), the free-processor
management schemes of Section 3.4 (:mod:`repro.simulator.freeproc`) and
one discrete-event simulator, :func:`simulate` (:mod:`repro.simulator.des`),
that runs all four algorithms with full timing / message / collective
accounting, fault-free or under a fault plan.  One-line entry points:

* :func:`simulate_hf`   -- sequential baseline (``Θ(N)`` makespan),
* :func:`simulate_ba`   -- communication-free recursion (``O(log N)``),
  and :func:`simulate_ba_prime`, BA without bisections below a weight,
* :func:`simulate_bahf` -- BA + local HF below the λ/α threshold,
* :func:`simulate_phf`  -- parallel HF (three phase-1 strategies).
"""

from repro.simulator.engine import SimulationError, Simulator
from repro.simulator.collectives import (
    CollectiveModel,
    ConstantCost,
    LinearCost,
    LogCost,
)
from repro.simulator.topology import (
    CompleteTopology,
    HypercubeTopology,
    Mesh2DTopology,
    RingTopology,
    Topology,
)
from repro.simulator.machine import Machine, MachineConfig, MachineEvent
from repro.simulator.freeproc import (
    CentralManager,
    NumberedFreePool,
    RandomStealManager,
    RangeManager,
)
from repro.simulator.trace import SimulationResult
from repro.simulator.gantt import gantt_rows, render_gantt
from repro.simulator.des import (
    simulate,
    simulate_ba,
    simulate_ba_prime,
    simulate_bahf,
    simulate_hf,
    simulate_phf,
)
from repro.simulator.fastpath import (
    FastpathResult,
    FastpathUnsupported,
    fastpath_counters,
    fastpath_supported,
)

__all__ = [
    "SimulationError",
    "Simulator",
    "CollectiveModel",
    "ConstantCost",
    "LinearCost",
    "LogCost",
    "Topology",
    "CompleteTopology",
    "HypercubeTopology",
    "Mesh2DTopology",
    "RingTopology",
    "Machine",
    "MachineConfig",
    "MachineEvent",
    "CentralManager",
    "NumberedFreePool",
    "RandomStealManager",
    "RangeManager",
    "SimulationResult",
    "gantt_rows",
    "render_gantt",
    "simulate",
    "simulate_hf",
    "simulate_ba",
    "simulate_ba_prime",
    "simulate_bahf",
    "simulate_phf",
    "FastpathResult",
    "FastpathUnsupported",
    "fastpath_counters",
    "fastpath_supported",
]
