"""The discrete-event simulator: every algorithm on the simulated machine.

:func:`simulate` runs HF, BA (and BA′), BA-HF and PHF on the machine of
Section 3 (:class:`~repro.simulator.machine.Machine`) and returns a
:class:`~repro.simulator.trace.SimulationResult` with full timing,
message and collective accounting.  The public ``simulate_hf`` /
``simulate_ba`` / ``simulate_ba_prime`` / ``simulate_bahf`` /
``simulate_phf`` are one-line calls into it.

How each algorithm maps onto the machine:

* **HF** -- the linear-time baseline: ``P_1`` performs all ``N-1``
  bisections back to back, then ships ``N-1`` pieces to ``P_2 .. P_N``
  one send at a time: makespan ``(N-1)·t_bisect + (N-1)·t_send``.
* **BA** -- no global communication (Sections 3.2/3.4): the processor
  holding a problem with range ``[i, j]`` bisects it, sends the second
  child to ``P_{i+N1}`` (range piggybacked) and continues with the first.
  The makespan follows the tree depth, ``O(log N)`` for fixed α, and
  every bisection ships one child: ``N-1`` messages.  **BA′**
  (``skip_threshold``) never bisects a piece of weight ``<=`` the
  threshold.
* **BA-HF** -- the BA recursion until a range holds fewer than
  ``λ/α + 1`` processors; its owner then finishes with sequential HF,
  constant extra work per processor for fixed λ and α.
* **PHF** (Figure 2) -- phase 1 bisects every piece heavier than
  ``T = w(p)·r_α/N``, shipping one child to a free processor.  Three
  acquisition schemes (``phase1=``) mirror Section 3.4:

  - ``"central"``: the idealized constant-time acquire the paper's
    timing analysis assumes (cost ``t_acquire``);
  - ``"ba_prime"``: the realisable scheme -- BA′ with threshold ``T``,
    so that only pieces owning one processor may still exceed ``T``,
    then collective *peel rounds*, each bisecting every over-threshold
    piece and shipping one child to a numbered free processor;
  - ``"steal"``: randomized probing for a free processor ([3]), each
    probe charged as a control round-trip.

  Phase 2 is the collective band-peeling loop of Figure 2 steps
  (c)-(h): per round a max-reduction (d), a count/numbering (e), a
  selection only when ``h > f``, the parallel bisect+send, and a
  barrier (h).  The partition equals sequential HF's (Theorem 3) under
  every phase-1 scheme and ``keep`` policy.

**Fault injection.**  ``plan`` (a
:class:`~repro.resilience.faults.FaultPlan`), ``policy`` and ``tracker``
(:mod:`repro.resilience.recovery`) are used duck-typed, so this package
never imports :mod:`repro.resilience`;
:func:`repro.resilience.simulate_with_faults` is the entry that supplies
them.  ``plan=None`` is the fault-free run: ``Machine(faults=None)`` and
an empty ``fault_summary``.  The failure model:

* **Fail-stop at hand-off boundaries.**  A processor with crash time
  ``T`` refuses every subproblem arriving at ``>= T``; work it accepted
  earlier runs to completion.  PHF's phase 2 additionally re-checks the
  piece holders at every collective round -- each round is a fresh global
  hand-off, so its failure granularity follows the algorithm's
  communication structure (which is precisely the property under test).
* **Perfect failure detection after timeout.**  A sender whose hand-off
  draws no ack within ``detect_timeout`` learns the true cause: a dead
  receiver makes it re-target the first *surviving* processor of the
  child range (the free-processor manager of Section 3.4, extended with
  liveness); a lost message to a live receiver is retransmitted to the
  same receiver.  Retries back off exponentially in simulated time; when
  ``max_retries`` is exhausted (or no live target exists) the sender
  **adopts** the subproblem -- it keeps the piece unbisected, and the
  trial is marked degraded.
* **Collectives stall on dead members.**  PHF's global operations wait
  out ``max_retries`` collective timeouts before reconfiguring the group
  without its dead members; BA and BA-HF have no collectives and thus
  nothing to stall -- the asymmetry the fault study quantifies.
* **Central phase 1 only.**  The ``ba_prime`` and ``steal`` phase-1
  schemes are out of scope for a non-empty plan (``ValueError``).

Every recovery decision is a pure function of ``(plan, policy)`` and the
(deterministic) event order, so runs are bit-reproducible.  With an
empty plan every code path performs byte-for-byte the fault-free
arithmetic -- enforced by ``tests/test_resilience.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.ba import ba_split
from repro.core.bahf import bahf_threshold
from repro.core.hf import run_hf
from repro.core.partition import Partition
from repro.core.phf import PHASE1_EXHAUSTED, phf_threshold
from repro.core.problem import BisectableProblem, check_alpha, normalize_algorithm
from repro.simulator.engine import SimulationError, Simulator
from repro.simulator.freeproc import (
    CentralManager,
    NumberedFreePool,
    RandomStealManager,
    RangeManager,
    SurvivorPool,
)
from repro.simulator.machine import Machine, MachineConfig
from repro.simulator.trace import SimulationResult

__all__ = [
    "simulate",
    "simulate_hf",
    "simulate_ba",
    "simulate_ba_prime",
    "simulate_bahf",
    "simulate_phf",
]

_PHASE1 = ("central", "ba_prime", "steal")
_KEEP = ("heavy", "light")

#: ``leaf(proc, piece, hi, time)``: what the BA recursion does with a piece
#: it stops bisecting (``[proc, hi]`` is the piece's processor range)
_Leaf = Callable[[int, BisectableProblem, int, float], None]


class _Run:
    """Shared state of one execution: machine, event loop, recovery."""

    def __init__(
        self,
        n_processors: int,
        config: Optional[MachineConfig],
        plan: Optional[Any],
        policy: Optional[Any],
        tracker: Optional[Any],
    ) -> None:
        self.n = n_processors
        self.plan = plan
        self.policy = policy
        self.tracker = tracker
        #: True when the plan can perturb the run at all
        self.faulty = plan is not None and not plan.is_empty
        self.machine = Machine(n_processors, config, faults=plan)
        self.sim = Simulator()
        #: crash-aware lookups; ``None`` on the fault-free run
        self.pool = None if plan is None else SurvivorPool(list(plan.crash_time))
        #: proc -> pieces finally residing there (adoption can stack several)
        self.placed: Dict[int, List[BisectableProblem]] = {}
        self._send_index = 0

    # -- placement ------------------------------------------------------

    def place(self, proc: int, piece: BisectableProblem) -> None:
        self.placed.setdefault(proc, []).append(piece)

    def adopt(self, proc: int, piece: BisectableProblem) -> None:
        """Recovery gave up: ``proc`` keeps ``piece`` unbisected."""
        self.place(proc, piece)
        self.tracker.adopted()

    # -- the recovery-aware hand-off ------------------------------------

    def send(self, src: int, dst: int, clock: float) -> Tuple[bool, float, float]:
        """One send attempt; returns ``(delivered, arrival, wasted)``.

        A delivered subproblem makes ``P_dst`` busy until its arrival.
        """
        machine = self.machine
        bu = machine.busy_until
        if self.plan is None:
            arrival = machine.send(src, dst, clock)
            bu[dst - 1] = max(bu[dst - 1], arrival)
            return True, arrival, 0.0
        begin = max(clock, bu[src - 1])
        arrival = machine.send(src, dst, clock)
        index = self._send_index
        self._send_index += 1
        arrival += self.plan.send_delay(index)
        delivered = not self.plan.send_lost(index) and self.pool.alive(dst, arrival)
        if delivered:
            bu[dst - 1] = max(bu[dst - 1], arrival)
        return delivered, arrival, bu[src - 1] - begin

    def back_off(self, src: int, attempt: int, wasted: float) -> float:
        """Charge one failed attempt; returns the sender's next start time."""
        wait = self.policy.retry_wait(attempt)
        self.tracker.failed_attempt(wait=wait, wasted=wasted)
        bu = self.machine.busy_until
        resume = bu[src - 1] + wait  # stalled on the ack timeout
        bu[src - 1] = resume
        return resume

    def ship_range(
        self, src: int, piece: BisectableProblem, lo: int, hi: int, t: float
    ) -> Optional[Tuple[int, float]]:
        """Hand ``piece`` to the first surviving processor of ``[lo, hi]``.

        Returns ``(receiver, arrival)``, or ``None`` when recovery gave
        up and the sender adopted the piece.  Without faults this is
        exactly one send to ``lo``.
        """
        clock = t
        attempt = 0
        while True:
            dst = lo if self.pool is None else self.pool.first_alive_in(lo, hi, clock)
            if dst is None:
                self.adopt(src, piece)
                return None
            delivered, arrival, wasted = self.send(src, dst, clock)
            if delivered:
                if attempt > 0:
                    self.tracker.recovered()
                return dst, arrival
            clock = self.back_off(src, attempt, wasted)
            attempt += 1
            if attempt > self.policy.max_retries:
                self.adopt(src, piece)
                return None

    def ship_fixed(
        self, src: int, piece: BisectableProblem, dst: int, t: float
    ) -> float:
        """Hand ``piece`` to its fixed home ``dst`` (HF-style distribution).

        Lost messages to a live receiver are retransmitted; a receiver
        known dead (perfect detection after the first timeout) makes the
        sender adopt immediately -- there is no alternate home for an
        HF piece.  Returns the sender-side completion time.
        """
        clock = t
        attempt = 0
        while True:
            delivered, arrival, wasted = self.send(src, dst, clock)
            if delivered:
                if attempt > 0:
                    self.tracker.recovered()
                self.place(dst, piece)
                return arrival
            clock = self.back_off(src, attempt, wasted)
            attempt += 1
            if attempt > self.policy.max_retries or not self.pool.alive(dst, clock):
                self.adopt(src, piece)
                return clock

    # -- degraded collectives -------------------------------------------

    def collective(self, group: List[int], start: float) -> Tuple[float, List[int]]:
        """One collective over ``group``; stalls if members died.

        Returns ``(completion_time, surviving_group)``.  A full live
        group goes through :meth:`Machine.collective`.
        """
        if self.pool is not None:
            dead = [p for p in group if not self.pool.alive(p, start)]
            if dead:
                wait = self.policy.collective_stall_time()
                self.tracker.collective_stalled(wait)
                group = [p for p in group if self.pool.alive(p, start)]
                if not group:
                    raise SimulationError(
                        "every collective participant has failed; "
                        "the machine cannot make progress"
                    )
                start = start + wait
        if len(group) == self.n:
            return self.machine.collective(start), group
        return self.machine.collective_among(group, start), group

    # -- result assembly -------------------------------------------------

    def finish(
        self,
        problem: BisectableProblem,
        algorithm: str,
        *,
        phases: Dict[str, float],
        meta: Dict[str, object],
    ) -> SimulationResult:
        machine = self.machine
        pieces = [q for proc in sorted(self.placed) for q in self.placed[proc]]
        fault_summary: Dict[str, float] = {}
        if self.plan is not None:
            meta["fault_injected"] = self.faulty
            n_alive = self.pool.n_alive(machine.makespan)
            max_load = max(
                (sum(q.weight for q in held) for held in self.placed.values()),
                default=0.0,
            )
            fault_summary = self.tracker.summary(
                {
                    "n_alive": float(n_alive),
                    "n_crashed": float(self.n - n_alive),
                    "ratio_after_recovery": max_load
                    / (problem.weight / max(1, n_alive)),
                }
            )
        partition = Partition(
            pieces=pieces,
            total_weight=problem.weight,
            n_processors=self.n,
            algorithm=algorithm,
            num_bisections=machine.n_bisections,
            meta=meta,
        )
        return SimulationResult(
            partition=partition,
            parallel_time=machine.makespan,
            n_messages=machine.n_messages,
            n_collectives=machine.n_collectives,
            collective_time=machine.collective_time,
            n_bisections=machine.n_bisections,
            utilization=machine.utilization(),
            n_control_messages=machine.n_control_messages,
            total_hops=machine.total_hops,
            events=machine.events,
            phases=phases,
            fault_summary=fault_summary,
        )


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------


def _run_ba(
    problem: BisectableProblem,
    run: _Run,
    leaf: _Leaf,
    *,
    stop_size: float = 2,
    skip_threshold: Optional[float] = None,
) -> None:
    """The BA recursion with range-managed, recovery-aware hand-offs.

    A piece whose range holds fewer than ``stop_size`` processors, or
    (BA′) weighs at most ``skip_threshold``, goes to ``leaf``; any other
    piece is bisected, its second child handed to the child range and
    its first child kept.  Serves BA, BA′, the BA phase of BA-HF
    (``stop_size = λ/α + 1``) and PHF's ``ba_prime`` phase 1.
    """
    manager = RangeManager(run.n)
    machine, sim = run.machine, run.sim

    def handle(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
        size = hi - proc + 1
        if size < stop_size or (
            skip_threshold is not None and q.weight <= skip_threshold
        ):
            leaf(proc, q, hi, t)
            return
        q1, q2 = q.bisect()
        end_bisect = machine.bisect_at(proc, t)
        n1, _ = ba_split(q1.weight, q2.weight, size)
        r1, r2, _ = manager.split((proc, hi), n1)
        shipped = run.ship_range(proc, q2, r2[0], r2[1], end_bisect)
        if shipped is not None:
            dst, arrival = shipped
            sim.schedule_at(arrival, lambda: handle(dst, q2, r2[1], arrival))
        # The sender continues with q1 as soon as its send completes; the
        # machine's busy bookkeeping enforces the serialisation.
        sim.schedule_at(end_bisect, lambda: handle(proc, q1, r1[1], end_bisect))

    sim.schedule(0.0, lambda: handle(1, problem, run.n, 0.0))
    sim.run()


def _local_hf(
    run: _Run, proc: int, q: BisectableProblem, size: int, t: float
) -> Tuple[Partition, float]:
    """Sequential HF of ``q`` on ``P_proc``, then ship the pieces.

    Piece ``k`` goes to ``P_{proc+k}``.  Returns HF's partition and the
    time the last bisection ended.
    """
    sub = run_hf(q, size)
    clock = t
    for _ in range(sub.num_bisections):
        clock = run.machine.bisect_at(proc, clock)
    bisect_done = clock
    run.place(proc, sub.pieces[0])
    for offset, piece in enumerate(sub.pieces[1:], start=1):
        clock = run.ship_fixed(proc, piece, proc + offset, clock)
    return sub, bisect_done


# ----------------------------------------------------------------------
# Per-algorithm executions
# ----------------------------------------------------------------------


def _simulate_hf(problem: BisectableProblem, run: _Run) -> SimulationResult:
    partition, bisect_done = _local_hf(run, 1, problem, run.n, 0.0)
    makespan = run.machine.makespan
    return run.finish(
        problem,
        "hf",
        phases={"bisect": bisect_done, "distribute": makespan - bisect_done},
        meta=dict(partition.meta),
    )


def _simulate_ba(
    problem: BisectableProblem, run: _Run, skip_threshold: Optional[float]
) -> SimulationResult:
    ranges: Dict[int, Tuple[int, int]] = {}

    def leaf(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
        ranges[proc] = (proc, hi)
        run.place(proc, q)

    _run_ba(problem, run, leaf, skip_threshold=skip_threshold)
    spans = [ranges[p] for p in sorted(ranges)]
    return run.finish(
        problem,
        "ba" if skip_threshold is None else "ba_prime",
        phases={"recursion": run.machine.makespan},
        meta={
            "ranges": spans,
            "skip_threshold": skip_threshold,
            "free_processors": [p for i, j in spans for p in range(i + 1, j + 1)],
        },
    )


def _simulate_bahf(
    problem: BisectableProblem, run: _Run, *, alpha: float, lam: float
) -> SimulationResult:
    threshold = bahf_threshold(alpha, lam)
    ba_end = [0.0]

    def leaf(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
        ba_end[0] = max(ba_end[0], t)
        _local_hf(run, proc, q, hi - proc + 1, t)

    _run_ba(problem, run, leaf, stop_size=threshold)
    makespan = run.machine.makespan
    return run.finish(
        problem,
        "bahf",
        phases={"ba_phase": ba_end[0], "hf_phase": makespan - ba_end[0]},
        meta={"lambda": lam, "alpha": alpha, "threshold": threshold},
    )


def _simulate_phf(
    problem: BisectableProblem,
    run: _Run,
    *,
    alpha: float,
    keep: str,
    phase1: str,
    steal_seed: int,
) -> SimulationResult:
    n = run.n
    machine, sim, policy, tracker = run.machine, run.sim, run.policy, run.tracker
    total = problem.weight
    threshold = phf_threshold(total, alpha, n)
    pieces: Dict[int, BisectableProblem] = {}
    #: adopted pieces per proc, outside the active ``pieces`` map (they
    #: are no longer bisected: degraded mode)
    extras: Dict[int, List[BisectableProblem]] = {}

    def split(q: BisectableProblem) -> Tuple[BisectableProblem, BisectableProblem]:
        """Bisect ``q``; returns ``(kept child, shipped child)``."""
        q1, q2 = q.bisect()
        return (q1, q2) if keep == "heavy" else (q2, q1)

    def adopt_extra(proc: int, piece: BisectableProblem) -> None:
        tracker.adopted()
        extras.setdefault(proc, []).append(piece)

    # -- phase 1 --------------------------------------------------------

    extra_rounds = 0
    if phase1 == "ba_prime":
        def leaf(proc: int, q: BisectableProblem, hi: int, t: float) -> None:
            pieces[proc] = q

        _run_ba(problem, run, leaf, skip_threshold=threshold)
        # Peel rounds: each numbers the free processors (one collective)
        # and bisects every remaining over-threshold piece in parallel.
        # For fixed alpha a constant number suffices (each round shrinks
        # the maximum remaining weight by (1-alpha)).  Fault-free by the
        # runner's scope check, so every send is delivered.
        t = machine.makespan
        while True:
            heavy = sorted(p for p, q in pieces.items() if q.weight > threshold)
            if not heavy:
                break
            extra_rounds += 1
            t = machine.collective(t)
            free = sorted(p for p in range(1, n + 1) if p not in pieces)
            if len(free) < len(heavy):
                raise SimulationError(
                    "phase 1 peel round ran out of free processors: the "
                    "declared alpha is not a valid guarantee for this class"
                )
            finish = t
            for proc, dst in zip(heavy, free):
                keep_piece, ship_piece = split(pieces[proc])
                end_bisect = machine.bisect_at(proc, t)
                _, arrival, _ = run.send(proc, dst, end_bisect)
                pieces[proc] = keep_piece
                pieces[dst] = ship_piece
                finish = max(finish, arrival)
            t = finish
    else:
        # Per-bisection acquisition; recovery re-acquires.
        manager: Any = (
            RandomStealManager(n, seed=steal_seed, first_busy=1)
            if phase1 == "steal"
            else CentralManager(n, first_busy=1)
        )

        def acquire(proc: int, clock: float) -> Tuple[float, int]:
            """A free processor's id; returns ``(time obtained, id)``."""
            if phase1 == "central":
                clock = machine.acquire_free(proc, clock)
                return clock, manager.acquire()
            dst, probes = manager.acquire()
            for _ in range(probes):  # every probe is a round-trip
                clock = machine.control_request(proc, dst, clock)
            return clock, dst

        def work(proc: int, q: BisectableProblem, t: float) -> None:
            if q.weight <= threshold:
                pieces[proc] = q
                return
            keep_piece, ship_piece = split(q)
            clock = machine.bisect_at(proc, t)
            attempt = 0
            while True:
                try:
                    end_acquire, dst = acquire(proc, clock)
                except RuntimeError as exc:
                    if not run.faulty:  # invalid alpha voids Theorem 2
                        raise SimulationError(PHASE1_EXHAUSTED) from exc
                    break  # faults consumed the spare capacity: degrade
                delivered, arrival, wasted = run.send(proc, dst, end_acquire)
                if delivered:
                    if attempt > 0:
                        tracker.recovered()
                    sim.schedule_at(arrival, lambda: work(dst, ship_piece, arrival))
                    sim.schedule_at(arrival, lambda: work(proc, keep_piece, arrival))
                    return
                clock = run.back_off(proc, attempt, wasted)
                attempt += 1
                if attempt > policy.max_retries:
                    break
            adopt_extra(proc, ship_piece)
            sim.schedule_at(clock, lambda: work(proc, keep_piece, clock))

        sim.schedule(0.0, lambda: work(1, problem, 0.0))
        sim.run()

    # (b) barrier, (c) count + number the free processors.
    group = list(range(1, n + 1))
    t, group = run.collective(group, machine.makespan)
    t, group = run.collective(group, t)
    phase1_end = t
    pool = NumberedFreePool(
        [p for p in group if p not in pieces and p not in extras]
    )

    # -- phase 2: band peeling with per-round failure handling ----------

    def ship_numbered(src: int, clock: float) -> Optional[Tuple[int, float]]:
        """Ship to the next numbered free processor that accepts.

        Each refusal costs one ack timeout.  Returns ``(receiver,
        arrival)``, or ``None`` once no numbered processor is left.
        """
        while pool.remaining > 0:
            dst = pool.consume(1)[0]
            delivered, arrival, wasted = run.send(src, dst, clock)
            if delivered:
                return dst, arrival
            tracker.failed_attempt(wait=policy.detect_timeout, wasted=wasted)
            clock = machine.busy_until[src - 1] + policy.detect_timeout
            machine.busy_until[src - 1] = clock
        return None

    def recover_lost_piece(q: BisectableProblem, t: float) -> float:
        """Re-bisect a dead holder's piece on a surviving processor."""
        holders = sorted(p for p in pieces if run.pool.alive(p, t))
        if not holders:
            raise SimulationError(
                "all piece holders have failed; nothing can recover"
            )
        savior = holders[0]
        end_bisect = machine.bisect_at(savior, t)
        tracker.work_redone += run.plan.scale_work(savior, machine.config.t_bisect)
        shipped = ship_numbered(savior, end_bisect)
        if shipped is None:
            run.adopt(savior, q)
            return machine.busy_until[savior - 1]
        tracker.recovered()
        dst, arrival = shipped
        pieces[dst] = q
        return arrival

    rounds = 0
    while pool.remaining > 0:
        rounds += 1
        if rounds > 4 * n + 8:
            raise SimulationError(
                "PHF phase 2 failed to converge under the fault plan"
            )
        if run.pool is not None:
            # Holders that died between rounds lose their pieces; recover
            # them onto surviving free processors before the round proceeds.
            finish = t
            for dead in sorted(p for p in pieces if not run.pool.alive(p, t)):
                finish = max(finish, recover_lost_piece(pieces.pop(dead), finish))
            t = finish
            if pool.remaining == 0:
                break
        t, group = run.collective(group, t)  # (d) m := max weight
        t, group = run.collective(group, t)  # (e) h := band count + numbering
        if not pieces:
            break
        m = max(q.weight for q in pieces.values())
        band = sorted(
            (proc for proc, q in pieces.items() if q.weight >= m * (1.0 - alpha)),
            key=lambda proc: (-pieces[proc].weight, proc),
        )
        if len(band) > pool.remaining:
            t, group = run.collective(group, t)  # determine the f heaviest
            band = band[: pool.remaining]
        finish = t
        for number, proc in enumerate(band, start=1):
            keep_piece, ship_piece = split(pieces[proc])
            end_bisect = machine.bisect_at(proc, t)
            # resolve the id of the number-th free processor: one control
            # round-trip to the processor storing it (P_number).
            clock = machine.control_request(proc, number, end_bisect)
            shipped = ship_numbered(proc, clock)
            pieces[proc] = keep_piece
            if shipped is None:
                adopt_extra(proc, ship_piece)
                finish = max(finish, machine.busy_until[proc - 1])
            else:
                dst, arrival = shipped
                pieces[dst] = ship_piece
                finish = max(finish, arrival)
        if pool.remaining > 0:
            t, group = run.collective(group, finish)  # (h) barrier
        else:
            t = finish

    for proc, piece in pieces.items():
        run.place(proc, piece)
    for proc, adopted in extras.items():
        for piece in adopted:
            run.place(proc, piece)

    makespan = machine.makespan
    return run.finish(
        problem,
        "phf",
        phases={"phase1": phase1_end, "phase2": makespan - phase1_end},
        meta={
            "alpha": alpha,
            "threshold": threshold,
            "phase1_mode": phase1,
            "phase1_extra_rounds": extra_rounds,
            "phase2_rounds": rounds,
            "keep": keep,
        },
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def simulate(
    algorithm: str,
    problem: BisectableProblem,
    n_processors: int,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    keep: str = "heavy",
    phase1: str = "central",
    steal_seed: int = 0,
    skip_threshold: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    plan: Optional[Any] = None,
    policy: Optional[Any] = None,
    tracker: Optional[Any] = None,
) -> SimulationResult:
    """Run ``algorithm`` (``hf``, ``ba``, ``bahf`` or ``phf``) on the machine.

    Parameters
    ----------
    alpha:
        BA-HF's and PHF's α; defaults to the problem's declared one.
    lam:
        BA-HF's λ (HF takes over below ``λ/α + 1`` processors).
    keep:
        Which child a bisecting PHF processor keeps, ``"heavy"`` or
        ``"light"``.  The partition is invariant; the makespan is not.
    phase1, steal_seed:
        PHF's phase-1 scheme (module docstring) and the seed of the
        ``"steal"`` scheme's probing.
    skip_threshold:
        Turns BA into BA′: no piece of weight ``<=`` it is bisected.
    plan, policy, tracker:
        Fault schedule, recovery policy and recovery accounting (module
        docstring); ``plan=None`` is the fault-free run.
    """
    key = normalize_algorithm(algorithm)
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    if keep not in _KEEP:
        raise ValueError(f"keep must be 'heavy' or 'light', got {keep!r}")
    if phase1 not in _PHASE1:
        raise ValueError(
            f"phase1 must be 'central', 'ba_prime' or 'steal', got {phase1!r}"
        )
    if skip_threshold is not None:
        if key != "ba":
            raise ValueError(f"skip_threshold applies to ba only, not {key!r}")
        if not skip_threshold > 0:  # also rejects NaN
            raise ValueError(f"skip_threshold must be positive, got {skip_threshold}")
    if plan is not None:
        if plan.n_processors != n_processors:
            raise ValueError(
                f"plan is for {plan.n_processors} processors, "
                f"simulation uses {n_processors}"
            )
        if policy is None or tracker is None:
            raise ValueError("a fault plan needs a recovery policy and a tracker")
        if phase1 != "central" and not plan.is_empty:
            raise ValueError(
                f"phase1={phase1!r} is out of scope for fault injection; "
                "only the central phase 1 runs under a non-empty plan"
            )
    if key in ("phf", "bahf"):
        if alpha is None:
            alpha = problem.alpha
        if alpha is None:
            raise ValueError(
                f"{key} needs alpha; the problem does not declare one -- "
                "pass alpha= explicitly"
            )
        alpha = check_alpha(alpha)
    run = _Run(n_processors, config, plan, policy, tracker)
    if key == "hf":
        return _simulate_hf(problem, run)
    if key == "ba":
        return _simulate_ba(problem, run, skip_threshold)
    assert alpha is not None
    if key == "bahf":
        return _simulate_bahf(problem, run, alpha=alpha, lam=lam)
    return _simulate_phf(
        problem, run, alpha=alpha, keep=keep, phase1=phase1, steal_seed=steal_seed
    )


def simulate_hf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Sequential HF on ``P_1``, then distribution of the pieces."""
    return simulate("hf", problem, n_processors, config=config)


def simulate_ba(
    problem: BisectableProblem,
    n_processors: int,
    *,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """BA; the partition matches :func:`repro.core.run_ba`."""
    return simulate("ba", problem, n_processors, config=config)


def simulate_ba_prime(
    problem: BisectableProblem,
    n_processors: int,
    skip_threshold: float,
    *,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """BA′: BA that never bisects pieces of weight ``<= skip_threshold``."""
    return simulate(
        "ba", problem, n_processors, skip_threshold=skip_threshold, config=config
    )


def simulate_bahf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    alpha: Optional[float] = None,
    lam: float = 1.0,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """BA-HF; the partition matches :func:`repro.core.run_bahf`."""
    return simulate("bahf", problem, n_processors, alpha=alpha, lam=lam, config=config)


def simulate_phf(
    problem: BisectableProblem,
    n_processors: int,
    *,
    alpha: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    phase1: str = "central",
    keep: str = "heavy",
    steal_seed: int = 0,
) -> SimulationResult:
    """PHF; the partition matches sequential HF's (Theorem 3)."""
    return simulate(
        "phf", problem, n_processors, alpha=alpha, config=config,
        phase1=phase1, keep=keep, steal_seed=steal_seed,
    )
