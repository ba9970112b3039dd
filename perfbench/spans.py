"""Span recorder for the traced benchmark run, installed from outside.

The benchmark never edits the program: it replaces public functions with
timing wrappers at the name each caller resolves (a module global such as
``repro.experiments.runner.execute_chunks``, or a class attribute such as
``SeedSequenceFactory.generator_for``).  Each wrapper records one span:
``(id, parent, name, start_ns, end_ns, info)``.  Parents come from a
context variable, so nesting is right on every thread and every asyncio
task.  Spans stay in memory; pool workers (forked, so they inherit the
wrappers) append theirs to ``spans-<pid>.jsonl`` after every chunk, and
the traced server writes its file when it exits.

All clocks are ``time.monotonic_ns`` (CLOCK_MONOTONIC), which is shared by
every process on the machine, so spans from different processes line up.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

Info = Optional[Callable[[tuple, dict, Any], Any]]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        #: the installing process; forked pool workers flush after each chunk
        self.root_pid = os.getpid()
        self.spans: List[Tuple[int, Optional[int], str, int, int, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a forked pool worker starts with an empty store of its own
        self.spans = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def record(self, name: str, start: int, end: int, info: Any = None,
               parent: Optional[int] = None) -> None:
        self.spans.append((next(self._ids), parent, name, start, end, info))

    def wrap(self, name: str, fn: Callable, *, info: Info = None,
             flush: bool = False) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``info(args, kwargs, result)`` adds a JSON-able detail to the span;
        ``flush`` makes pool workers write their spans after each call.
        """
        tracer = self

        def finish(sid, parent, t0, args, kwargs, result):
            t1 = time.monotonic_ns()
            detail = info(args, kwargs, result) if info is not None else None
            tracer.spans.append((sid, parent, name, t0, t1, detail))
            if flush and os.getpid() != tracer.root_pid:
                tracer.flush()

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(tracer._ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                t0 = time.monotonic_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    finish(sid, parent, t0, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                finish(sid, parent, t0, args, kwargs, result)

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, *, info: Info = None,
              flush: bool = False) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(name, raw.__func__, info=info)))
            return
        setattr(owner, attr,
                self.wrap(name, getattr(owner, attr), info=info, flush=flush))

    # -- output ---------------------------------------------------------

    def flush(self) -> None:
        """Append this process's spans to its own file and clear them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(out_dir: Path) -> Dict[int, List[tuple]]:
    """All flushed spans, by PID."""
    by_pid: Dict[int, List[tuple]] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as fh:
            by_pid.setdefault(pid, []).extend(
                tuple(json.loads(line)) for line in fh if line.strip()
            )
    return by_pid


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _rows(arr: Any) -> int:
    return int(arr.shape[0]) if hasattr(arr, "shape") else 0


def chunk_key(task: Any) -> str:
    """Identity of a chunk task, shared by its submit and its execution."""
    if isinstance(task, tuple) and len(task) == 9:  # runner._run_chunk
        return f"{task[0]}:{task[1]}:{task[3]}"
    if isinstance(task, tuple) and len(task) == 13:  # runtime_study._study_chunk
        return f"{task[0]!r}:{task[4]}"
    return ""


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.core._native as native
    import repro.core.metrics as metrics
    import repro.experiments.checkpoint as checkpoint
    import repro.experiments.runner as runner
    import repro.experiments.runtime_study as runtime_study
    import repro.experiments.shm as shm
    import repro.experiments.stochastic as stochastic
    import repro.experiments.table1 as table1
    import repro.problems.samplers as samplers
    import repro.serve.admission as admission
    import repro.serve.batcher as batcher
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.simulator.fastpath as fastpath
    from repro.chaos import RunReport
    from repro.utils.rng import SeedSequenceFactory

    p = tracer.patch

    # repro.utils.rng / repro.problems.samplers
    p(SeedSequenceFactory, "generator_for", "rng.generator_for")
    p(samplers.AlphaSampler, "sample_trial_matrix", "samplers.sample_trial_matrix",
      info=lambda a, k, r: [_rows(r), int(r.size) * 8 if r is not None else 0])

    # repro.core.batch (at each caller's name) and repro.core._native
    def kernel_info(a, k, r):
        return _rows(a[2])

    for owner in (stochastic, batcher):
        for fn in ("hf_final_weights_batch", "ba_final_weights_batch",
                   "bahf_final_weights_batch"):
            p(owner, fn, f"batch.{fn}", info=kernel_info)
    for fn in ("hf_batch_native", "ba_batch_native", "bahf_batch_native",
               "phf_metrics_native"):
        p(native, fn, f"native.{fn}")
    # first call in a process: compiler probe, cache lookup, dlopen
    p(native, "_load", "native.load")

    # repro.experiments.{stochastic, stats, runner, runtime_study, checkpoint, shm}
    p(runner, "trial_ratios", "stochastic.trial_ratios")
    p(metrics.RatioAccumulator, "update", "stats.update")
    p(metrics.RatioAccumulator, "merge", "stats.merge")
    p(runner, "run_sweep", "runner.run_sweep")
    p(table1, "run_sweep", "runner.run_sweep")
    p(runner, "_run_chunk", "runner.run_chunk", flush=True,
      info=lambda a, k, r: [chunk_key(a[0]), a[0][7] is not None])
    p(runtime_study, "run_runtime_study", "runtime_study.run_runtime_study")
    p(runtime_study, "run_study_cells", "runtime_study.run_study_cells")
    p(runtime_study, "study_trial_metrics", "runtime_study.study_trial_metrics",
      info=lambda a, k, r: _rows(r))
    p(runtime_study, "_study_chunk", "runtime_study.study_chunk", flush=True,
      info=lambda a, k, r: [chunk_key(a[0]), a[0][11] is not None])
    p(shm, "publish_draws", "shm.publish_draws",
      info=lambda a, k, r: [int(a[0].nbytes), r is not None])
    p(shm, "attached_draws", "shm.attached_draws",
      info=lambda a, k, r: r is not None)
    p(shm, "release_draws", "shm.release_draws")
    p(checkpoint.ChunkJournal, "record", "checkpoint.journal_record")

    def exec_info(a, k, r):
        rep = k.get("report")
        return [len(a[0]), rep.retries, rep.pool_rebuilds] if rep else [len(a[0]), 0, 0]

    def with_report(fn):
        # execute_chunks makes its own RunReport when given none; handing
        # it one lets the span read retries and rebuilds (same behaviour)
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if kwargs.get("report") is None:
                kwargs["report"] = RunReport()
            return fn(*args, **kwargs)
        return call

    for owner in (runner, runtime_study, batcher):
        setattr(owner, "execute_chunks", tracer.wrap(
            "checkpoint.execute_chunks", with_report(owner.execute_chunks),
            info=exec_info))

    class TracedPool(ProcessPoolExecutor):
        """Marks pool creation and each submit for pool-start/queue-wait."""

        def __init__(self, *args, **kwargs):
            t0 = time.monotonic_ns()
            super().__init__(*args, **kwargs)
            tracer.record("checkpoint.pool_create", t0, time.monotonic_ns(),
                          parent=_CURRENT.get())

        def submit(self, fn, /, *args, **kwargs):
            now = time.monotonic_ns()
            tracer.record("checkpoint.submit", now, now,
                          info=chunk_key(args[0]) if args else "",
                          parent=_CURRENT.get())
            return super().submit(fn, *args, **kwargs)

    checkpoint.ProcessPoolExecutor = TracedPool

    # repro.simulator.fastpath
    for fn in ("fastpath_hf", "fastpath_ba", "fastpath_bahf", "fastpath_phf"):
        p(fastpath, fn, f"fastpath.{fn}")

    # repro.serve.{protocol, admission, batcher, server}
    p(protocol.PartitionRequest, "parse", "protocol.parse",
      info=lambda a, k, r: r.seed if r is not None else None)
    p(batcher, "response_payload", "protocol.response_payload",
      info=lambda a, k, r: a[0].seed)
    p(admission.AdmissionController, "try_admit", "admission.try_admit",
      info=lambda a, k, r: bool(r.admitted) if r is not None else None)
    p(batcher.MicroBatcher, "submit", "batcher.submit",
      info=lambda a, k, r: a[1].seed)
    p(batcher.BatchEngine, "run_batch", "batcher.run_batch",
      info=lambda a, k, r: [item.request.seed for item in a[1]])
    p(batcher, "request_draws", "batcher.request_draws",
      info=lambda a, k, r: a[0].seed)

    def handle_info(a, k, r):
        try:
            return json.loads(a[1]).get("seed")
        except ValueError:
            return None

    p(server.PartitionServer, "_handle_partition", "server.handle_partition",
      info=handle_info)
    p(server.PartitionServer, "_respond", "server.respond",
      info=lambda a, k, r: a[3].get("seed"))
