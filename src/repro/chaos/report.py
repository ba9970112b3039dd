"""Structured accounting of one supervised chunk execution.

A :class:`RunReport` is filled in by
:func:`repro.experiments.checkpoint.execute_chunks` as the run unfolds:
how every chunk was satisfied (journal replay, pool, in-parent), what
went wrong on the way (retries, timeouts, pool rebuilds), and what never
recovered (quarantined keys with their last error).  The invariant the
tests and the check.sh chaos stage assert is :attr:`accounted`: every
chunk is journal-replayed, freshly computed, or quarantined -- nothing
is silently dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Mutable per-run counters (one instance per ``execute_chunks`` call)."""

    #: total chunks the run was asked for
    n_chunks: int = 0
    #: chunks replayed from the journal (never executed)
    from_journal: int = 0
    #: chunks freshly computed (``in_pool + in_parent``)
    computed: int = 0
    #: fresh chunks whose accepted result came from a pool worker
    in_pool: int = 0
    #: fresh chunks whose accepted result was computed in the parent
    in_parent: int = 0
    #: completed pool results salvaged while tearing a broken pool down
    harvested: int = 0
    #: re-executions scheduled after a failed/timed-out/killed attempt
    retries: int = 0
    #: attempts that exceeded the per-chunk deadline (measured from start)
    timeouts: int = 0
    #: times the worker pool was torn down and rebuilt
    pool_rebuilds: int = 0
    #: True when the rebuild budget ran out and the run finished in-parent
    degraded_to_parent: bool = False
    #: True when the run was cancelled (SIGTERM / run deadline)
    cancelled: bool = False
    #: total deterministic backoff the supervisor slept/scheduled
    backoff_seconds: float = 0.0
    #: keys that exhausted their retry budget (in key order)
    quarantined: List[str] = field(default_factory=list)
    #: last error text per key that ever failed an attempt
    errors: Dict[str, str] = field(default_factory=dict)
    #: every pool worker PID observed over the run (for orphan checks)
    worker_pids: List[int] = field(default_factory=list)
    #: scheduled fault counts of the chaos plan, when one was active
    chaos: Optional[Dict[str, int]] = None

    @property
    def accounted(self) -> bool:
        """Every chunk is replayed, computed, or quarantined."""
        return self.from_journal + self.computed + len(self.quarantined) == self.n_chunks

    def note_worker(self, pid: int) -> None:
        if pid not in self.worker_pids:
            self.worker_pids.append(pid)

    def summary(self) -> str:
        """One line for logs and the CLI."""
        parts = [
            f"{self.n_chunks} chunks",
            f"{self.from_journal} from journal",
            f"{self.in_pool} in pool",
            f"{self.in_parent} in parent",
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.pool_rebuilds} pool rebuilds",
            f"{len(self.quarantined)} quarantined",
        ]
        if self.degraded_to_parent:
            parts.append("degraded to in-parent execution")
        if self.cancelled:
            parts.append("cancelled")
        if self.chaos is not None:
            injected = ", ".join(
                f"{kind}={count}" for kind, count in self.chaos.items() if count
            )
            parts.append(f"chaos[{injected or 'empty'}]")
        return "; ".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "accounted": self.accounted}
