"""Micro-batching: many concurrent requests, one kernel call.

No batching window: with no batch in flight, a request is dispatched
after one event-loop yield (so requests parsed in the same loop turn
ride along); while a batch is in flight, new requests queue, and when
it settles the whole queue (up to ``max_requests``) becomes the next
batch.  A batch's requests are grouped by ``(algorithm, n, sampler,
lam)`` and each group is answered by a single stacked
``(sum(trials), N-1)`` draw-matrix kernel call.  A request's rows are
:func:`repro.experiments.stochastic.draw_rows` -- exactly what
:func:`~repro.experiments.stochastic.trial_ratios` uses -- so its
ratios are bit-identical no matter which requests it shared a batch
with, which faults fired, or whether the degraded path served it.

Dispatch goes through the supervised executor
(:func:`repro.experiments.checkpoint.execute_chunks`): SIGKILLed kernel
workers rebuild the pool, failed attempts retry with backoff, hopeless
groups quarantine (``strict=False``) and only their requests fail.  The
engine wires three service-level behaviours on top:

* **circuit breaker** -- repeated dispatch failures trip the native
  kernel + worker-pool path; while open, batches are computed inline on
  the NumPy reference kernels (slower, identical results, nothing left
  to kill).  A half-open probe restores the native path.
* **hedged retries** -- a batch straggling past the hedge delay gets a
  duplicate inline dispatch; results are deterministic, so whichever
  finishes first answers and the loser is discarded.
* **deadline propagation** -- the tightest per-request budget in a
  batch (the request's deadline, else the server default) bounds each
  pool kernel attempt inside ``execute_chunks``, so a hung worker is
  killed and its attempt retried or quarantined instead of holding the
  queue (the server's ``asyncio`` wait is the backstop that actually
  emits the 504).

The kernel worker (:func:`_compute_rows`) is module-level and its task
dicts hold only primitives, frozen samplers and arrays, so process
pools can pickle them.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.chaos import ChaosSpec, RunReport
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
    numpy_hf_method,
)
from repro.experiments.checkpoint import execute_chunks
from repro.experiments.stochastic import draw_rows
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import PartitionRequest, response_payload
from repro.serve.report import ServeReport

__all__ = [
    "BatchEngine",
    "BatchFailedError",
    "MicroBatcher",
]


class BatchFailedError(RuntimeError):
    """The batch carrying this request was quarantined; maps to HTTP 500."""


def _fallback_method(algorithm: str, n: int, n_trials: int) -> str:
    """The NumPy reference kernel for the degraded path."""
    if algorithm in ("hf", "phf"):
        return numpy_hf_method(n, n_trials)
    return "frontier"


def _compute_rows(task: Dict[str, Any]) -> np.ndarray:
    """Pool worker: ratios for one stacked draw matrix (pure function)."""
    algorithm = task["algorithm"]
    n = task["n"]
    draws = task["draws"]
    method = task["method"]
    if algorithm in ("hf", "phf"):
        weights = hf_final_weights_batch(1.0, n, draws, method=method)
    elif algorithm == "ba":
        weights = ba_final_weights_batch(1.0, n, draws, method=method)
    else:
        weights = bahf_final_weights_batch(
            1.0, n, draws,
            alpha=task["alpha"], lam=task["lam"], method=method,
        )
    return weights.max(axis=1) * n


def request_draws(request: PartitionRequest) -> np.ndarray:
    """The ``(n_trials, N-1)`` draw matrix for one request.

    Identical to what a direct :func:`trial_ratios` call for the same
    ``(algorithm, n, sampler, seed, n_trials)`` consumes -- the anchor of
    the service's determinism guarantee.
    """
    return draw_rows(
        request.algorithm, request.n, request.sampler, seed=request.seed,
        start=0, stop=request.n_trials, n_draws=max(0, request.n - 1),
    )


@dataclass
class _Pending:
    """One admitted request waiting for (or riding in) a batch."""

    request: PartitionRequest
    future: "asyncio.Future[Dict[str, Any]]"
    deadline_at: Optional[float]  # monotonic, None = no deadline


@dataclass
class _Slice:
    """Where one request's rows live in the dispatched task list."""

    item: _Pending
    task_idx: List[Tuple[int, int, int]]  # (task index, row start, row stop)


class BatchEngine:
    """Builds, dispatches and settles micro-batches."""

    def __init__(
        self,
        *,
        report: ServeReport,
        breaker: Optional[CircuitBreaker] = None,
        workers: int = 1,
        backend: str = "processes",
        retries: int = 3,
        chaos: Optional[ChaosSpec] = None,
        chaos_batches: int = 0,
        hedge_after_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if chaos_batches < 0:
            raise ValueError(f"chaos_batches must be >= 0, got {chaos_batches}")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be positive, got {hedge_after_s}")
        self.report = report
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.workers = workers
        self.backend = backend
        self.retries = retries
        self.chaos = chaos
        self.chaos_batches = chaos_batches
        self.hedge_after_s = hedge_after_s
        self._batch_seq = 0
        self._background: Set["asyncio.Task[Any]"] = set()

    # -- batch construction --------------------------------------------

    def _build(
        self, items: Sequence[_Pending], *, split: bool
    ) -> Tuple[List[Dict[str, Any]], List[_Slice]]:
        """Group items and stack their draw matrices into worker tasks.

        ``split=True`` halves a lone multi-row task so the supervised
        executor's pool path (which needs >= 2 pending chunks) engages;
        the kernels are row-independent, so the split is invisible in
        the results.
        """
        groups: Dict[Tuple[Any, ...], List[_Pending]] = {}
        for item in items:
            groups.setdefault(item.request.group_key, []).append(item)
        native = self.breaker.allow_native()
        tasks: List[Dict[str, Any]] = []
        slices: List[_Slice] = []
        for key, members in groups.items():
            algorithm, n, _sampler, lam = key
            draws = np.concatenate(
                [request_draws(m.request) for m in members], axis=0
            )
            method = (
                "auto" if native
                else _fallback_method(algorithm, n, draws.shape[0])
            )
            task = {
                "algorithm": algorithm,
                "n": n,
                "alpha": members[0].request.sampler.alpha,
                "lam": lam,
                "draws": draws,
                "method": method,
            }
            task_idx = len(tasks)
            tasks.append(task)
            row = 0
            for member in members:
                stop = row + member.request.n_trials
                slices.append(
                    _Slice(item=member, task_idx=[(task_idx, row, stop)])
                )
                row = stop
        if (
            split
            and native
            and self.workers > 1
            and len(tasks) == 1
            and tasks[0]["draws"].shape[0] >= 2
        ):
            whole = tasks[0]
            rows = whole["draws"].shape[0]
            cut = rows // 2
            lo = dict(whole, draws=whole["draws"][:cut])
            hi = dict(whole, draws=whole["draws"][cut:])
            tasks = [lo, hi]
            for sl in slices:
                _, start, stop = sl.task_idx[0]
                pieces: List[Tuple[int, int, int]] = []
                if start < cut:
                    pieces.append((0, start, min(stop, cut)))
                if stop > cut:
                    pieces.append((1, max(start, cut) - cut, stop - cut))
                sl.task_idx = pieces
        return tasks, slices

    # -- dispatch -------------------------------------------------------

    def _dispatch_blocking(
        self,
        tasks: List[Dict[str, Any]],
        keys: List[str],
        *,
        native: bool,
        timeout: Optional[float],
        chaos: Optional[ChaosSpec],
    ) -> Tuple[List[Optional[np.ndarray]], RunReport]:
        """Runs in a thread: the supervised (or inline degraded) dispatch."""
        rep = RunReport()
        results = execute_chunks(
            tasks,
            _compute_rows,
            keys=keys,
            n_jobs=self.workers if native else 1,
            timeout=timeout,
            retries=self.retries,
            backend=self.backend,
            chaos=chaos,
            report=rep,
            strict=False,
        )
        return results, rep

    def _batch_timeout(self, items: Sequence[_Pending]) -> Optional[float]:
        """Tightest remaining per-request budget, as a kernel-attempt bound."""
        deadlines = [i.deadline_at for i in items if i.deadline_at is not None]
        if not deadlines:
            return None
        remaining = min(deadlines) - time.monotonic()
        # leave headroom for the response path; never pass a non-positive
        # timeout (the asyncio backstop already expired such requests)
        return max(0.05, remaining * 0.8)

    async def run_batch(self, items: Sequence[_Pending]) -> None:
        """Answer every item: one settled future each, success or not."""
        try:
            await self._run_batch(items)
        except Exception as exc:  # engine bug: fail loudly, drop nothing
            self.report.note_error(f"{type(exc).__name__}: {exc}")
            for item in items:
                if not item.future.done():
                    item.future.set_exception(
                        BatchFailedError(f"batch engine error: {exc}")
                    )

    async def _run_batch(self, items: Sequence[_Pending]) -> None:
        self._batch_seq += 1
        batch_id = self._batch_seq
        native = self.breaker.allow_native()
        tasks, slices = self._build(items, split=native)
        keys = [f"b{batch_id}:{i}" for i in range(len(tasks))]
        chaos = None
        if self.chaos is not None and batch_id <= self.chaos_batches:
            chaos = self.chaos
            self.report.chaos_batches += 1
        timeout = self._batch_timeout(items)

        self.report.batches += 1
        self.report.batch_requests += len(items)
        self.report.batch_rows += sum(t["draws"].shape[0] for t in tasks)
        self.report.max_batch_requests = max(
            self.report.max_batch_requests, len(items)
        )

        loop = asyncio.get_running_loop()
        primary = loop.run_in_executor(
            None,
            lambda: self._dispatch_blocking(
                tasks, keys, native=native, timeout=timeout, chaos=chaos
            ),
        )

        winner: Optional[Tuple[List[Optional[np.ndarray]], RunReport]] = None
        degraded = not native
        dispatch_error: Optional[BaseException] = None
        hedged = False
        if native and self.hedge_after_s is not None:
            done, _ = await asyncio.wait({primary}, timeout=self.hedge_after_s)
            if not done:
                # straggler: duplicate the work on the clean inline path;
                # determinism makes first-wins safe
                hedged = True
                self.report.hedges += 1
                hedge_tasks = [
                    dict(t, method=_fallback_method(
                        t["algorithm"], t["n"], t["draws"].shape[0]
                    ))
                    for t in tasks
                ]
                hedge = loop.run_in_executor(
                    None,
                    lambda: self._dispatch_blocking(
                        hedge_tasks,
                        [f"{k}:hedge" for k in keys],
                        native=False,
                        timeout=None,
                        chaos=None,
                    ),
                )
                done, _ = await asyncio.wait(
                    {primary, hedge}, return_when=asyncio.FIRST_COMPLETED
                )
                if primary in done:
                    self._absorb_later(hedge, native=False)
                else:
                    self.report.hedge_wins += 1
                    degraded = True
                    self._absorb_later(primary, native=True)
                    primary = hedge
        try:
            winner = await primary
        except Exception as exc:
            dispatch_error = exc
            self.report.note_error(f"{type(exc).__name__}: {exc}")

        if winner is None:
            if native and not hedged:
                self._record_breaker(None, failed=True)
            for item in items:
                if not item.future.done():
                    item.future.set_exception(
                        BatchFailedError(f"batch dispatch failed: {dispatch_error}")
                    )
            return

        results, rep = winner
        if not (hedged and degraded):
            # the winner was the path allow_native() granted; settle the
            # breaker now (a hedged-out primary settles via _absorb_later)
            if native:
                self._record_breaker(rep, failed=self._rep_failed(rep))
        self._merge_exec_report(rep)

        for sl in slices:
            item = sl.item
            if item.future.done():
                continue
            parts: List[np.ndarray] = []
            lost = False
            for task_idx, start, stop in sl.task_idx:
                chunk = results[task_idx]
                if chunk is None:
                    lost = True
                    break
                parts.append(chunk[start:stop])
            if lost:
                item.future.set_exception(
                    BatchFailedError(
                        "batch quarantined after exhausting retries"
                    )
                )
                continue
            ratios = parts[0] if len(parts) == 1 else np.concatenate(parts)
            item.future.set_result(
                response_payload(
                    item.request,
                    ratios,
                    degraded=degraded,
                    batch_size=len(items),
                )
            )

    # -- breaker + accounting ------------------------------------------

    @staticmethod
    def _rep_failed(rep: RunReport) -> bool:
        return bool(rep.pool_rebuilds or rep.quarantined or rep.timeouts)

    def _record_breaker(self, rep: Optional[RunReport], *, failed: bool) -> None:
        before = self.breaker.trips
        if failed:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        self.report.breaker_trips = self.breaker.trips
        self.report.breaker_recoveries = self.breaker.recoveries
        if self.breaker.trips > before:
            self.report.note_error(
                "circuit breaker opened: serving degraded (NumPy, inline)"
            )

    def _merge_exec_report(self, rep: RunReport) -> None:
        self.report.worker_deaths += rep.pool_rebuilds
        self.report.exec_retries += rep.retries
        self.report.exec_timeouts += rep.timeouts
        if rep.quarantined:
            self.report.quarantined_batches += 1

    def _absorb_later(self, pending: "asyncio.Future[Any]", *, native: bool) -> None:
        """Consume a losing dispatch in the background.

        Threads cannot be cancelled; the loser runs to completion and its
        outcome still feeds the breaker (a primary that eventually shows
        pool rebuilds is a real failure signal even though a hedge
        answered the requests).
        """

        async def absorb() -> None:
            try:
                _results, rep = await pending
            except Exception as exc:
                if native:
                    self._record_breaker(None, failed=True)
                self.report.note_error(f"{type(exc).__name__}: {exc}")
                return
            self._merge_exec_report(rep)
            if native:
                self._record_breaker(rep, failed=self._rep_failed(rep))

        task = asyncio.get_running_loop().create_task(absorb())
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def drain_background(self) -> None:
        """Wait for losing hedge/primary dispatches to finish (for drain)."""
        while self._background:
            await asyncio.gather(*list(self._background), return_exceptions=True)


class MicroBatcher:
    """One batch in flight: idle dispatch after one loop yield, and the
    queue (capped at ``max_requests``) as the next batch; no timer."""

    def __init__(self, engine: BatchEngine, *, max_requests: int = 64) -> None:
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.engine = engine
        self.max_requests = max_requests
        self._queue: List[_Pending] = []
        self._runner: Optional["asyncio.Task[None]"] = None

    def submit(
        self, request: PartitionRequest, budget_s: Optional[float] = None
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Enqueue one request; the returned future settles exactly once.

        ``budget_s`` is how long the caller will wait for the answer; it
        bounds the kernel attempt of the batch the request rides in.
        """
        loop = asyncio.get_running_loop()
        deadline_at = time.monotonic() + budget_s if budget_s is not None else None
        item = _Pending(
            request=request, future=loop.create_future(), deadline_at=deadline_at
        )
        self._queue.append(item)
        if self._runner is None or self._runner.done():
            self._runner = loop.create_task(self._run())
        return item.future

    async def _run(self) -> None:
        await asyncio.sleep(0)  # requests parsed in this loop turn join
        while self._queue:
            # a request that expired while queued has no one to answer
            batch = [i for i in self._queue[: self.max_requests] if not i.future.done()]
            del self._queue[: self.max_requests]
            if batch:
                await self.engine.run_batch(batch)

    async def drain(self) -> None:
        """Wait for the queue to empty and every batch (and loser) to finish."""
        while self._runner is not None and not self._runner.done():
            await asyncio.wait({self._runner})
        await self.engine.drain_background()
