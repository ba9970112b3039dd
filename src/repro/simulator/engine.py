"""A small discrete-event simulation engine.

The paper analyses its parallel algorithms in an abstract message-passing
machine model (Section 3): unit-time bisections, unit-time point-to-point
sends, logarithmic-time global operations.  This engine provides the event
loop those simulated executions run on.

It is a classic calendar-queue DES: events are ``(time, seq, callback)``
triples in a binary heap; ``seq`` makes the order total and FIFO among
simultaneous events, so simulations are perfectly deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

# Defined in core so the PHF prescription (which core and problems own)
# raises the same class without importing the simulator package.
from repro.core.phf import SimulationError

__all__ = ["Simulator", "SimulationError", "ScheduledEvent"]


class ScheduledEvent:
    """Handle for one scheduled callback; ``cancel()`` makes it a no-op.

    Cancellation is what event-driven timeout protocols need (the DES
    of :mod:`repro.simulator.des` charges its ack timeouts in simulated
    time directly and never cancels).  A cancelled event is skipped by the loop without being counted in
    ``events_processed``, so simulations that never cancel behave exactly
    as before.
    """

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: Optional[Callable[[], None]] = callback

    def cancel(self) -> None:
        """Drop the callback; the event fires as a no-op."""
        self.callback = None

    @property
    def cancelled(self) -> bool:
        return self.callback is None


class Simulator:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` ``delay`` time units from now (``delay ≥ 0``).

        Returns a :class:`ScheduledEvent` handle that can ``cancel()``
        the callback before it fires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = ScheduledEvent(callback)
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` at absolute simulation time ``time`` (≥ now).

        Pushes the absolute time directly (no round-trip through a
        relative delay), so the event fires at exactly the requested
        float, and a request in the past reports both the requested time
        and the current clock.  Returns a cancellable handle like
        :meth:`schedule`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at absolute time {time}: "
                f"it is in the past (now={self._now})"
            )
        event = ScheduledEvent(callback)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        return event

    def run(self, *, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains; returns the final time.

        ``max_events`` is a runaway guard (a simulation that schedules
        itself forever raises instead of hanging the host).
        """
        # The event loop is the hottest path of every DES run; heap ops
        # and instance attributes are hoisted to locals, and the counter
        # runs in a local that is written back once per batch drained.
        queue = self._queue
        heappop = heapq.heappop
        processed = self._events_processed
        now = self._now
        try:
            while queue:
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                time, _, event = heappop(queue)
                callback = event.callback
                if callback is None:  # cancelled: skip without counting
                    continue
                if time < now:
                    raise SimulationError("event queue went back in time")  # pragma: no cover
                now = time
                self._now = time
                processed += 1
                callback()
                now = self._now
        finally:
            self._events_processed = processed
        return self._now
