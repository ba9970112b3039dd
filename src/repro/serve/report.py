"""Structured accounting of one serving run.

A :class:`ServeReport` is the service-level sibling of
:class:`repro.chaos.RunReport`: where the executor report accounts for
*chunks*, this accounts for *requests*.  The invariant the end-to-end
chaos test and the check.sh serve stage assert is :attr:`accounted`:
every partition request that reached the server ends in exactly one
terminal outcome -- a result, a 429 shed, a 504 deadline, a 5xx failure,
a 400 rejection, or a 503 while draining.  Nothing is silently dropped.

All counters are mutated from the event loop only, so no locking is
needed; the report is dumped (atomically) on graceful drain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ServeReport"]


@dataclass
class ServeReport:
    """Mutable per-run counters (one instance per server lifetime)."""

    #: partition requests that reached the handler (valid or not)
    received: int = 0
    #: requests answered 200 with partition metrics
    completed: int = 0
    #: ... of which were served by the degraded (fallback) path
    degraded: int = 0
    #: requests answered 429 by admission control (queue depth / p99)
    shed: int = 0
    #: requests answered 504 (per-request deadline expired)
    expired: int = 0
    #: requests answered 5xx (batch quarantined / execution error)
    failed: int = 0
    #: requests answered 400 (malformed / invalid parameters)
    invalid: int = 0
    #: requests answered 503 because the server was draining
    draining_rejected: int = 0

    #: micro-batches dispatched (one or more kernel calls each)
    batches: int = 0
    #: requests carried by those batches
    batch_requests: int = 0
    #: total draw-matrix rows computed ((n_trials, N-1) kernel rows)
    batch_rows: int = 0
    #: largest number of requests coalesced into one batch
    max_batch_requests: int = 0

    #: hedged duplicate dispatches launched for straggling batches
    hedges: int = 0
    #: hedges whose result arrived before the primary's
    hedge_wins: int = 0

    #: circuit-breaker trips (native+pool path -> degraded fallback)
    breaker_trips: int = 0
    #: successful half-open probes (degraded -> native restored)
    breaker_recoveries: int = 0

    #: kernel-worker deaths observed (pool rebuilds in the executor)
    worker_deaths: int = 0
    #: chunk attempts retried inside the supervised executor
    exec_retries: int = 0
    #: chunk attempts that exceeded the propagated deadline budget
    exec_timeouts: int = 0
    #: batches that lost at least one group to quarantine
    quarantined_batches: int = 0
    #: batches the active chaos spec was injected into
    chaos_batches: int = 0

    #: True once a graceful drain (SIGTERM / explicit) completed
    drained: bool = False
    #: last few execution errors, for the /stats endpoint
    last_errors: List[str] = field(default_factory=list)

    @property
    def accounted(self) -> bool:
        """Every received request reached exactly one terminal outcome."""
        terminal = (
            self.completed
            + self.shed
            + self.expired
            + self.failed
            + self.invalid
            + self.draining_rejected
        )
        return terminal == self.received

    def note_error(self, message: str, *, keep: int = 8) -> None:
        self.last_errors.append(message)
        del self.last_errors[:-keep]

    def summary(self) -> str:
        """One line for logs and the drain message."""
        parts = [
            f"{self.received} received",
            f"{self.completed} ok ({self.degraded} degraded)",
            f"{self.shed} shed",
            f"{self.expired} expired",
            f"{self.failed} failed",
            f"{self.invalid} invalid",
            f"{self.batches} batches",
            f"{self.worker_deaths} worker deaths",
            f"{self.breaker_trips} breaker trips",
        ]
        if self.draining_rejected:
            parts.append(f"{self.draining_rejected} rejected while draining")
        if self.hedges:
            parts.append(f"{self.hedges} hedges ({self.hedge_wins} won)")
        if self.drained:
            parts.append("drained")
        return "; ".join(parts)

    def as_dict(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        out: Dict[str, Any] = {**asdict(self), "accounted": self.accounted}
        if extra:
            out.update(extra)
        return out
