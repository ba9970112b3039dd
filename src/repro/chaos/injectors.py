"""Fault injectors: act out a :class:`~repro.chaos.plan.ChaosPlan`.

:func:`chaos_call` is the single choke point -- the supervised executor
wraps every chunk invocation (pooled or in-parent) in it, so a fault
fires at the same place no matter where the chunk runs.  The function is module-level and its arguments are all picklable, which is
what lets a process pool ship it to workers unchanged.

Fault semantics:

* ``kill`` -- the worker SIGKILLs **itself** mid-chunk.  This is a real
  fail-stop: the pool breaks (``BrokenProcessPool``) and the supervisor
  must rebuild it.  In-parent execution (``n_jobs == 1``, or a run
  degraded to the parent) cannot survive killing its own process, so
  there the kill is demoted to a transient exception -- the schedule
  stays identical, only the blast radius shrinks.
* ``hang`` -- the worker sleeps ``hang_seconds`` *before* computing.
  With a chunk deadline shorter than the hang, the supervisor sees an
  over-deadline chunk and must recover; without one, the chunk is merely
  late.
* ``transient`` -- raises :class:`ChaosTransientError` (retryable).
* ``delay`` -- computes the result, then sleeps ``delay_seconds``
  before returning it (a late, correct result).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable

from repro.chaos.plan import ChaosPlan

__all__ = ["ChaosError", "ChaosTransientError", "chaos_call"]


class ChaosError(RuntimeError):
    """Base class for injected failures."""


class ChaosTransientError(ChaosError):
    """An injected failure that a retry is expected to clear."""


def chaos_call(
    worker: Callable[[Any], Any],
    task: Any,
    plan: ChaosPlan,
    key: str,
    attempt: int,
    in_process: bool,
) -> Any:
    """Run ``worker(task)`` with the plan's fault for ``(key, attempt)``.

    ``in_process=True`` means the call runs in the supervisor's own
    process: ``kill`` faults demote to :class:`ChaosTransientError`
    there, everything else is identical.
    """
    kind = plan.fault_for(key, attempt)
    if kind == "kill":
        if not in_process:
            os.kill(os.getpid(), signal.SIGKILL)
            os._exit(137)  # unreachable: SIGKILL cannot be caught
        raise ChaosTransientError(
            f"injected kill for chunk {key!r} (attempt {attempt}) "
            "demoted to transient: worker shares the supervisor's process"
        )
    if kind == "hang":
        time.sleep(plan.config.hang_seconds)
        return worker(task)
    if kind == "transient":
        raise ChaosTransientError(
            f"injected transient failure for chunk {key!r} (attempt {attempt})"
        )
    if kind == "delay":
        result = worker(task)
        time.sleep(plan.config.delay_seconds)
        return result
    return worker(task)
