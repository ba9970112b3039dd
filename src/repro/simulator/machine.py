"""The paper's abstract parallel machine, with cost accounting.

Section 3's model:

* ``N`` processors ``P_1 .. P_N``; the problem starts on ``P_1``; a free
  processor becomes busy when it receives a subproblem.
* bisecting a problem costs one unit of time (``t_bisect``),
* transmitting a subproblem costs one unit of time (``t_send``),
* global operations (maximum weight, counting, numbering, selection,
  barrier) cost ``O(log N)`` -- we charge ``c_coll · ⌈log2 N⌉``
  (``collective_cost``), matching the PRAM-style assumption that such
  primitives can be simulated with at most logarithmic slowdown.

Optional refinements beyond the paper's idealisation:

* a :class:`~repro.simulator.topology.Topology` (pass its class or any
  ``n -> Topology`` factory) makes sends distance-dependent:
  ``t_send + t_hop · (hops - 1)``,
* ``record_events=True`` keeps a full per-processor event trace that
  :mod:`repro.simulator.gantt` renders as an ASCII timeline.

The :class:`Machine` tracks, per processor, the time until which it is
busy, plus global message/collective counters; the discrete-event
simulator (:mod:`repro.simulator.des`) advances these clocks and the result
object (:class:`~repro.simulator.trace.SimulationResult`) summarises them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.simulator.collectives import CollectiveModel, LogCost
from repro.simulator.topology import Topology

__all__ = ["MachineConfig", "Machine", "MachineEvent"]


@dataclass(frozen=True)
class MachineEvent:
    """One recorded machine action (for traces and Gantt rendering)."""

    kind: str  # "bisect" | "send" | "control" | "acquire" | "collective"
    start: float
    end: float
    proc: int = 0  # acting processor (0 for collectives)
    peer: int = 0  # destination (sends/control), else 0


@dataclass(frozen=True)
class MachineConfig:
    """Unit costs of the machine model.

    ``t_bisect``/``t_send`` default to the paper's unit costs;
    ``collective_model`` prices each global operation (default: the paper's
    ``c_collective · ⌈log2 N⌉``).  ``t_acquire`` is the cost a busy
    processor pays to obtain the id of a free processor (the paper assumes
    this is constant-time, Section 3).  ``topology`` (an ``n -> Topology``
    factory, e.g. the class itself) plus ``t_hop`` make sends
    distance-dependent; the default is the paper's one-hop complete
    network.  ``record_events`` enables full event tracing.
    """

    t_bisect: float = 1.0
    t_send: float = 1.0
    c_collective: float = 1.0
    t_acquire: float = 0.0
    t_hop: float = 0.0
    collective_model: Optional[CollectiveModel] = None
    topology: Optional[Callable[[int], Topology]] = None
    record_events: bool = False

    def __post_init__(self) -> None:
        # Negative or NaN unit costs would silently corrupt every timing
        # the machine reports (NaN poisons max/sum without raising), so
        # each field is validated by name at construction.
        for name in ("t_bisect", "t_send", "c_collective", "t_acquire", "t_hop"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"MachineConfig.{name} must be a number, got {value!r}"
                )
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"MachineConfig.{name} must be finite and non-negative, "
                    f"got {value!r}"
                )

    def collective_cost(self, n: int) -> float:
        """Cost of one global operation over ``n`` processors."""
        model = self.collective_model or LogCost(scale=self.c_collective)
        return model(max(1, n))


class Machine:
    """State of one simulated machine run.

    ``faults`` is an optional fault model (duck-typed, see
    :class:`repro.resilience.faults.FaultPlan`) providing
    ``scale_work(proc, cost)`` / ``scale_comm(src, cost)`` straggler
    multipliers.  When ``faults`` is ``None`` -- the default, and the
    machine of every fault-free run of :mod:`repro.simulator.des` --
    every code path below is byte-for-byte the fault-free arithmetic.
    """

    def __init__(
        self,
        n_processors: int,
        config: Optional[MachineConfig] = None,
        *,
        faults: Optional[object] = None,
    ) -> None:
        if n_processors < 1:
            raise ValueError(f"n_processors must be >= 1, got {n_processors}")
        self.n = n_processors
        self.config = config or MachineConfig()
        self.faults = faults
        #: busy_until[i] = simulation time until which P_{i+1} is occupied
        self.busy_until: List[float] = [0.0] * n_processors
        #: total productive (bisection) time per processor, for utilisation
        self.work_time: List[float] = [0.0] * n_processors
        self.n_bisections = 0
        self.n_messages = 0
        self.n_control_messages = 0
        self.n_collectives = 0
        self.collective_time = 0.0
        self.total_hops = 0
        self.topology: Optional[Topology] = (
            self.config.topology(n_processors) if self.config.topology else None
        )
        self.events: List[MachineEvent] = []

    # ------------------------------------------------------------------
    # Accounting primitives used by the algorithm simulations
    # ------------------------------------------------------------------

    def _check_proc(self, proc: int) -> int:
        if not (1 <= proc <= self.n):
            raise ValueError(f"processor id {proc} out of range 1..{self.n}")
        return proc - 1

    def _record(self, kind: str, start: float, end: float, proc: int = 0, peer: int = 0) -> None:
        if self.config.record_events:
            self.events.append(
                MachineEvent(kind=kind, start=start, end=end, proc=proc, peer=peer)
            )

    def bisect_at(self, proc: int, start: float) -> float:
        """P_proc performs one bisection starting at ``start``; returns end."""
        i = self._check_proc(proc)
        begin = max(start, self.busy_until[i])
        cost = self.config.t_bisect
        if self.faults is not None:
            cost = self.faults.scale_work(proc, cost)
        end = begin + cost
        self.busy_until[i] = end
        self.work_time[i] += cost
        self.n_bisections += 1
        self._record("bisect", begin, end, proc)
        return end

    def send_cost(self, src: int, dst: int) -> float:
        """Cost of one subproblem transmission (topology-aware)."""
        if self.topology is None:
            return self.config.t_send
        hops = self.topology.distance(src, dst)
        return self.config.t_send + self.config.t_hop * max(0, hops - 1)

    def send(self, src: int, dst: int, start: float) -> float:
        """P_src ships one subproblem to P_dst starting at ``start``.

        Occupies the sender for the (topology-dependent) transmission time;
        the message arrives at the receiver when the send completes.
        Returns the arrival time.
        """
        i = self._check_proc(src)
        self._check_proc(dst)
        if src == dst:
            raise ValueError("a processor does not send to itself")
        begin = max(start, self.busy_until[i])
        cost = self.send_cost(src, dst)
        if self.faults is not None:
            cost = self.faults.scale_comm(src, cost)
        end = begin + cost
        self.busy_until[i] = end
        self.n_messages += 1
        if self.topology is not None:
            self.total_hops += self.topology.distance(src, dst)
        else:
            self.total_hops += 1
        self._record("send", begin, end, src, dst)
        return end

    def control_request(self, src: int, dst: int, start: float) -> float:
        """A small control round-trip (e.g. resolving a free-processor id).

        Charged ``t_acquire`` on the requester and counted separately from
        subproblem transmissions: the paper prices only subproblem sends at
        one unit and treats id lookups as cheap ("a single request ...
        suffices").
        """
        i = self._check_proc(src)
        self._check_proc(dst)
        begin = max(start, self.busy_until[i])
        cost = self.config.t_acquire
        if self.faults is not None:
            cost = self.faults.scale_comm(src, cost)
        end = begin + cost
        self.busy_until[i] = end
        self.n_control_messages += 1
        self._record("control", begin, end, src, dst)
        return end

    def acquire_free(self, proc: int, start: float) -> float:
        """P_proc obtains the id of a free processor (constant cost)."""
        i = self._check_proc(proc)
        begin = max(start, self.busy_until[i])
        end = begin + self.config.t_acquire
        self.busy_until[i] = end
        self._record("acquire", begin, end, proc)
        return end

    def collective(self, start: float, *, participants: Optional[int] = None) -> float:
        """A global operation entered at ``start`` by all processors.

        Completes ``collective_cost`` later; every participant is busy until
        then (it is a synchronisation point).  Returns the completion time.
        """
        n = self.n if participants is None else participants
        cost = self.config.collective_cost(n)
        begin = max(start, max(self.busy_until))
        end = begin + cost
        for i in range(self.n):
            self.busy_until[i] = end
        self.n_collectives += 1
        self.collective_time += cost
        self._record("collective", begin, end)
        return end

    def collective_among(self, procs: Iterable[int], start: float) -> float:
        """A global operation among the subset ``procs`` only.

        The degraded-mode collective: after a group reconfiguration the
        survivors synchronise among themselves and dead processors are
        left out of the barrier (their ``busy_until`` stays frozen at
        their last action).  Costs ``collective_cost(len(procs))`` and
        occupies exactly the participants.
        """
        ids = sorted(set(procs))
        if not ids:
            raise ValueError("a collective needs at least one participant")
        for p in ids:
            self._check_proc(p)
        cost = self.config.collective_cost(len(ids))
        begin = max(start, max(self.busy_until[p - 1] for p in ids))
        end = begin + cost
        for p in ids:
            self.busy_until[p - 1] = end
        self.n_collectives += 1
        self.collective_time += cost
        self._record("collective", begin, end)
        return end

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Time at which the last processor goes quiet."""
        return max(self.busy_until)

    def utilization(self) -> float:
        """Mean fraction of the makespan spent bisecting (0 if no work)."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return sum(self.work_time) / (self.n * span)
