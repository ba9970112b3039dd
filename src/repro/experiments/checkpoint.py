"""Crash-safe chunk execution: journaling, resume, and a supervised pool.

The sweep runner and the study runner schedule *trial chunks* whose
layout and merge order are functions of the configuration alone (never
of ``n_jobs``) -- see :mod:`repro.experiments.runner`.  That discipline
is what makes checkpointing trivial: a chunk is a pure function of its
key, so a journal of ``key -> payload`` lines is a complete record of
progress, and a resumed run that replays completed chunks from the
journal and computes only the missing ones produces **bit-identical**
results (JSON float serialisation round-trips ``float(repr(x)) == x``
exactly, and the merge order never depended on which process computed a
chunk).

Journal format (JSON Lines):

* line 1 -- header: ``{"kind": "header", "format": 2, "fingerprint":
  {...}, "sha256": "..."}`` where the fingerprint captures every
  config field that determines chunk contents (``n_jobs`` excluded by
  design: resuming on a different worker count is legal and exact);
* one line per completed chunk: ``{"kind": "chunk", "key": ...,
  "payload": ..., "crc32": "xxxxxxxx"}``, appended + flushed + fsynced
  as each chunk lands.  The checksum covers the canonical serialisation
  of ``[key, payload]``, so *any* mid-file bit rot is detected with a
  precise line number instead of being replayed into a wrong result.
  Format-1 journals (no checksums) are still readable; a resumed v1
  journal keeps appending v1 lines so one file never mixes formats.

A process killed mid-append leaves at most one truncated trailing line;
:meth:`ChunkJournal.open` tolerates exactly that (the half-written chunk
is recomputed).  Corruption anywhere *else* raises :class:`JournalError`
naming the line; ``python -m repro.experiments journal
verify|repair|compact|status`` inspects and fixes damaged files.
Resuming against a journal whose fingerprint does not match the
configuration raises :class:`JournalMismatchError` instead of silently
mixing incompatible runs.

Execution (:func:`execute_chunks`) is *supervised*: a broken pool is
rebuilt (bounded budget) after salvaging every already-finished future,
per-chunk deadlines are measured from each chunk's observed **start**
(a chunk queued behind slow ones is not charged for its queue wait),
failed attempts retry with exponential backoff and deterministic
jitter, chunks that exhaust their retry budget are quarantined (the run
continues; ``strict=True`` raises at the end), and SIGTERM / a run
deadline cancel gracefully -- completed futures are harvested and
journaled before the pool is torn down.  Deterministic OS-level fault
injection for all of this lives in :mod:`repro.chaos`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import zlib
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos import ChaosPlan, ChaosSpec, RunReport, chaos_call
from repro.chaos import crashpoints
from repro.experiments.config import (
    default_backoff_base,
    default_backoff_cap,
    default_pool_rebuilds,
)
from repro.utils.rng import child_seed

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "READABLE_JOURNAL_FORMATS",
    "JournalError",
    "JournalMismatchError",
    "ChunkJournal",
    "JournalIssue",
    "JournalStatus",
    "inspect_journal",
    "repair_journal",
    "compact_journal",
    "fingerprint_digest",
    "ChunkQuarantinedError",
    "RunCancelledError",
    "execute_chunks",
]

#: Format written by fresh journals.  Format 1 (no per-line checksums)
#: remains readable and resumed v1 files keep appending v1 lines.
JOURNAL_FORMAT_VERSION = 2
READABLE_JOURNAL_FORMATS = (1, 2)


class JournalError(ValueError):
    """A journal file is unreadable or structurally invalid."""


class JournalMismatchError(JournalError):
    """A journal belongs to a different configuration than the resume."""


def fingerprint_digest(fingerprint: Dict[str, Any]) -> str:
    """Stable digest of a run fingerprint (sorted-key canonical JSON)."""
    canon = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _entry_crc(key: str, payload: Any) -> str:
    """CRC32 (hex) of the canonical serialisation of ``[key, payload]``."""
    body = json.dumps([key, payload], sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


class _ChunkLineError(ValueError):
    """One chunk line failed validation (reason in ``str(exc)``).

    ``maybe_torn`` marks reasons a crash mid-append can produce on the
    *last* line of a file (where they are tolerated, not fatal).
    """

    def __init__(self, reason: str, *, maybe_torn: bool = False) -> None:
        super().__init__(reason)
        self.maybe_torn = maybe_torn


def _parse_chunk_line(line: str, fmt: int) -> Tuple[str, Any]:
    """Validate one journal line; returns ``(key, payload)`` or raises."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        raise _ChunkLineError("unparseable JSON", maybe_torn=True) from None
    if not isinstance(entry, dict) or entry.get("kind") != "chunk" or "key" not in entry:
        raise _ChunkLineError("not a chunk entry")
    key = entry["key"]
    payload = entry.get("payload")
    if fmt >= 2:
        stored = entry.get("crc32")
        if stored is None:
            raise _ChunkLineError("missing crc32 checksum (format 2 journal)")
        want = _entry_crc(key, payload)
        if stored != want:
            # NOT torn-tolerable even on the last line: a torn prefix is
            # never parseable JSON, so a parseable line with a bad
            # checksum is bit rot wherever it sits
            raise _ChunkLineError(
                f"checksum mismatch (stored {stored}, computed {want})"
            )
    return key, payload


class ChunkJournal:
    """Append-only journal of completed chunks for one run.

    Use :meth:`open` to create or resume; :meth:`record` after each
    completed chunk; :meth:`close` (or a ``with`` block) when done.  The
    file is *kept* on success -- deleting it is the caller's decision
    (a finished journal doubles as a progress artifact).
    """

    def __init__(
        self,
        path: Path,
        fingerprint: Dict[str, Any],
        completed: Dict[str, Any],
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        #: payloads of chunks already recorded, by key
        self.completed = completed
        #: format this journal reads and appends (2 unless resuming a v1 file)
        self.format_version = JOURNAL_FORMAT_VERSION
        self._handle: Optional[Any] = None

    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "str | os.PathLike[str]",
        *,
        fingerprint: Dict[str, Any],
        resume: bool = False,
    ) -> "ChunkJournal":
        """Create a fresh journal, or load + continue an existing one.

        ``resume=False`` always starts fresh (an existing file is
        truncated).  ``resume=True`` loads completed chunks from an
        existing file -- after verifying its fingerprint -- and missing
        files simply start fresh, so ``--resume`` is safe to pass
        unconditionally.
        """
        p = Path(path)
        journal = cls(p, fingerprint, {})
        if resume and p.exists():
            journal._load()
            journal._handle = p.open("a", encoding="utf-8")
        else:
            p.parent.mkdir(parents=True, exist_ok=True)
            journal._handle = p.open("w", encoding="utf-8")
            header = {
                "kind": "header",
                "format": JOURNAL_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "sha256": fingerprint_digest(fingerprint),
            }
            journal._append_line(header)
        return journal

    def _load(self) -> None:
        header, entries, status = _scan_journal(self.path)
        self.format_version = status.format
        want = fingerprint_digest(self.fingerprint)
        if header.get("sha256") != want:
            raise JournalMismatchError(
                f"journal {self.path} was written by a different run "
                f"configuration (journal sha256={header.get('sha256')!r}, "
                f"expected {want}); refusing to mix results.  Delete the "
                "journal or drop --resume to start over."
            )
        damage = [(issue.lineno, issue.reason) for issue in status.issues]
        if status.format >= 2:  # format 1 allows duplicates (last wins)
            seen = set()
            for lineno, key, _ in entries:
                if key in seen:
                    reason = f"duplicate chunk key {key!r} (run `journal repair`)"
                    damage.append((lineno, reason))
                    break
                seen.add(key)
        if damage:
            lineno, reason = min(damage)
            raise JournalError(
                f"journal {self.path} is corrupt at line {lineno}: {reason}"
            )
        # a torn trailing line was already dropped and is recomputed
        self.completed.update((key, payload) for _, key, payload in entries)

    # ------------------------------------------------------------------

    def _append_line(self, obj: Dict[str, Any]) -> None:
        assert self._handle is not None
        line = json.dumps(obj, separators=(",", ":")) + "\n"
        # crash-point hook: an armed spec tears the write at a chosen
        # byte offset and SIGKILLs the process (see repro.chaos.crashpoints)
        crashpoints.before_append(self._handle, line)
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, key: str, payload: Any) -> None:
        """Durably record one completed chunk (append + flush + fsync).

        Recording a key that is already completed raises
        :class:`JournalError`: chunk keys identify their payloads, so a
        duplicate means a caller bug -- silently appending would leave a
        file from which resume picks one payload arbitrarily.
        """
        if key in self.completed:
            raise JournalError(
                f"chunk key {key!r} is already recorded in {self.path}; "
                "refusing to append a conflicting duplicate"
            )
        entry: Dict[str, Any] = {"kind": "chunk", "key": key, "payload": payload}
        if self.format_version >= 2:
            entry["crc32"] = _entry_crc(key, payload)
        self._append_line(entry)
        self.completed[key] = payload

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Journal inspection and maintenance (the `journal` CLI subcommand)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JournalIssue:
    """One damaged line (1-based ``lineno``) and why it is invalid."""

    lineno: int
    reason: str


@dataclass
class JournalStatus:
    """What :func:`inspect_journal` found (fingerprint *not* checked)."""

    path: Path
    format: int
    sha256: str
    n_chunks: int  # valid chunk lines (including duplicates)
    n_keys: int  # distinct keys the loader would replay
    duplicate_keys: List[str] = field(default_factory=list)
    issues: List[JournalIssue] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def ok(self) -> bool:
        """True when the loader would accept this file (torn tail allowed)."""
        return not self.issues and not (self.duplicate_keys and self.format >= 2)


def _scan_journal(
    path: Union[str, Path]
) -> Tuple[Dict[str, Any], List[Tuple[int, str, Any]], JournalStatus]:
    """Parse a journal without a fingerprint: (header, entries, status).

    ``entries`` lists every *valid* chunk line in file order as
    ``(lineno, key, payload)`` (duplicates included); damage is
    collected into ``status.issues`` instead of raising, except for a
    missing/unreadable header which is fatal.  A line a crash
    mid-append can leave (unparseable JSON) is tolerated as the torn
    tail when it is the last line of the file.
    """
    p = Path(path)
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise JournalError(f"journal {p} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"journal {p} has an unreadable header") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise JournalError(f"journal {p} does not start with a header")
    fmt = header.get("format")
    if fmt not in READABLE_JOURNAL_FORMATS:
        raise JournalError(
            f"journal {p} has format {fmt!r}, "
            f"this version reads {list(READABLE_JOURNAL_FORMATS)}"
        )
    status = JournalStatus(
        path=p, format=fmt, sha256=str(header.get("sha256", "")), n_chunks=0, n_keys=0
    )
    entries: List[Tuple[int, str, Any]] = []
    seen: Dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            key, payload = _parse_chunk_line(line, fmt)
        except _ChunkLineError as exc:
            if exc.maybe_torn and lineno == len(lines):
                status.torn_tail = True
            else:
                status.issues.append(JournalIssue(lineno, str(exc)))
            continue
        if key in seen and key not in status.duplicate_keys:
            status.duplicate_keys.append(key)
        seen[key] = seen.get(key, 0) + 1
        entries.append((lineno, key, payload))
    status.n_chunks = len(entries)
    status.n_keys = len(seen)
    return header, entries, status


def inspect_journal(path: Union[str, Path]) -> JournalStatus:
    """Validate every line of a journal; never raises on line damage."""
    _, _, status = _scan_journal(path)
    return status


def _rewrite_journal(
    path: Union[str, Path], fmt: int
) -> Tuple[JournalStatus, int]:
    """Rewrite ``path`` at format ``fmt`` keeping the loader's view.

    Keeps one line per key (the payload the loader would replay: last
    occurrence for v1 sources, first for v2) in first-seen key order,
    dropping corrupt lines, duplicates, and any torn tail.  Atomic: a
    crash mid-rewrite leaves the original file.  Returns the pre-rewrite
    status and the number of chunk lines written.
    """
    from repro.experiments.io import write_atomic  # deferred: io imports runner

    header, entries, status = _scan_journal(path)
    final: Dict[str, Any] = {}
    for _, key, payload in entries:
        if status.format >= 2 and key in final:
            continue  # v2 loader semantics: first occurrence wins
        final[key] = payload
    out_header = {
        "kind": "header",
        "format": fmt,
        "fingerprint": header.get("fingerprint"),
        "sha256": header.get("sha256"),
    }
    out_lines = [json.dumps(out_header, separators=(",", ":"))]
    for key, payload in final.items():
        entry: Dict[str, Any] = {"kind": "chunk", "key": key, "payload": payload}
        if fmt >= 2:
            entry["crc32"] = _entry_crc(key, payload)
        out_lines.append(json.dumps(entry, separators=(",", ":")))
    write_atomic(path, "\n".join(out_lines) + "\n")
    return status, len(final)


def repair_journal(path: Union[str, Path]) -> Tuple[JournalStatus, int]:
    """Drop corrupt lines, duplicates, and torn tails (format preserved)."""
    status = inspect_journal(path)
    return _rewrite_journal(path, status.format)


def compact_journal(path: Union[str, Path]) -> Tuple[JournalStatus, int]:
    """Like :func:`repair_journal`, but upgrades the file to format 2."""
    return _rewrite_journal(path, JOURNAL_FORMAT_VERSION)


# ----------------------------------------------------------------------
# Supervised chunk execution: pool rebuild, deadlines, backoff, quarantine
# ----------------------------------------------------------------------


class ChunkQuarantinedError(RuntimeError):
    """Raised at the end of a ``strict`` run when chunks never recovered."""

    def __init__(self, message: str, *, keys: List[str], report: RunReport) -> None:
        super().__init__(message)
        self.keys = keys
        self.report = report


class RunCancelledError(RuntimeError):
    """The run was cancelled (SIGTERM or run deadline) after a clean flush.

    Every completed future was harvested and journaled before this was
    raised, so resuming the journal loses no finished work.
    """

    def __init__(self, reason: str, *, report: RunReport) -> None:
        super().__init__(reason)
        self.report = report


#: Stream tag for backoff jitter draws (pure function of key + attempt).
_BACKOFF_STREAM_TAG = 0xBAC0FF

#: Supervisor poll interval: the latency floor for noticing deadline
#: overruns, due retries and cancellation.  Completions wake the wait
#: immediately, so this does not delay the happy path.
_TICK = 0.05


def _backoff_delay(key: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic jitter in [raw/2, raw).

    A pure function of ``(key, attempt)``: re-running a sweep schedules
    bit-identical waits, and distinct chunks retrying after one pool
    crash de-synchronise instead of stampeding the rebuilt pool.
    """
    if base <= 0.0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    u = (
        child_seed(_BACKOFF_STREAM_TAG, zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF, attempt)
        / 2.0**64
    )
    return raw * (0.5 + 0.5 * u)


def _process_worker_init() -> None:
    """Pool-worker initializer: sever inherited signal plumbing.

    Workers are forked from a parent that may run an asyncio event loop
    with ``add_signal_handler()`` installed (the serving layer does).
    The fork inherits both the Python-level handlers and the loop's
    signal *wakeup fd* -- a socketpair shared with the parent -- so a
    SIGTERM delivered to a **worker** (which is exactly what executor
    shutdown sends after a sibling dies) would make the dying worker
    write the signal number into the parent loop's wakeup pipe, and the
    parent would spuriously run its own SIGTERM callback.  Reset both:
    a worker's signals are its own business.
    """
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)


def _pool_worker_pids(pool: Any) -> List[int]:
    """PIDs of a process pool's live workers ([] for thread pools)."""
    procs = getattr(pool, "_processes", None)
    if not procs:
        return []
    return [pid for pid in list(procs.keys()) if pid is not None]


def execute_chunks(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    keys: Sequence[str],
    n_jobs: int,
    journal: Optional[ChunkJournal] = None,
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backend: str = "processes",
    chaos: Optional[Union[ChaosSpec, ChaosPlan]] = None,
    report: Optional[RunReport] = None,
    strict: bool = True,
    backoff_base: Optional[float] = None,
    backoff_cap: Optional[float] = None,
    rebuild_budget: Optional[int] = None,
    run_deadline: Optional[float] = None,
    cancel_on_sigterm: bool = False,
) -> List[Any]:
    """Run ``worker`` over ``tasks``; returns results in task order.

    * chunks whose ``key`` is already in ``journal.completed`` are not
      executed -- their results are decoded from the journal payloads
      (bit-exact: payloads are produced by ``encode`` and JSON floats
      round-trip);
    * fresh chunks run on a pool when ``n_jobs > 1``: a
      ``ProcessPoolExecutor`` for ``backend="processes"`` or a
      ``ThreadPoolExecutor`` for ``backend="threads"`` (the hot loops
      release the GIL inside the native kernels, so threads parallelise
      without pickling);
    * the pool is *supervised*: a dead pool (``BrokenProcessPool``) is
      torn down -- already-finished futures are harvested and journaled
      first, worker processes are killed and reaped so no orphans
      outlive the run -- and rebuilt up to ``rebuild_budget`` times
      before execution degrades to in-parent; ``timeout`` bounds one
      chunk's *runtime* measured from its observed start (a chunk
      queued behind slow ones is not charged for the wait); failed
      attempts retry up to ``retries`` times with exponential backoff
      and deterministic per-key jitter (workers are pure functions, so
      re-running one is bit-safe); chunks that exhaust the budget are
      quarantined and the run continues -- with ``strict=True`` a
      :class:`ChunkQuarantinedError` is raised *after* everything else
      completed (and was journaled), with ``strict=False`` their result
      slots hold ``None``;
    * ``report`` (a caller-supplied :class:`~repro.chaos.RunReport`) is
      filled with completed/retried/quarantined/rebuilt accounting;
    * ``chaos`` injects a deterministic OS-level fault schedule (see
      :mod:`repro.chaos`) -- ``None`` (the default) is byte-for-byte
      the plain execution;
    * ``run_deadline`` (seconds) and -- with ``cancel_on_sigterm=True``,
      from the main thread -- SIGTERM cancel gracefully: completed
      futures are harvested and journaled, workers are killed, and
      :class:`RunCancelledError` is raised;
    * every freshly computed chunk is journaled before its result is
      returned, so a crash at any point loses at most the in-flight
      chunks.

    Results are bit-identical across backends and worker counts: the
    task list, chunk layout, and merge order are fixed by the caller
    before any pool exists.  On the fault-free path the chunk layout,
    merge order, and journal payload encoding are exactly those of the
    unsupervised executor this replaced.
    """
    if len(keys) != len(tasks):
        raise ValueError(f"{len(tasks)} tasks but {len(keys)} keys")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backend not in ("processes", "threads"):
        raise ValueError(
            f"unknown backend {backend!r} (use 'processes' or 'threads')"
        )
    # Unset knobs fall back to the REPRO_BACKOFF_BASE / REPRO_BACKOFF_CAP /
    # REPRO_POOL_REBUILDS environment overrides (read per call, so a
    # long-lived service tightens them without a restart), then to the
    # DEFAULT_* constants.
    base = default_backoff_base() if backoff_base is None else backoff_base
    cap = default_backoff_cap() if backoff_cap is None else backoff_cap
    budget = default_pool_rebuilds() if rebuild_budget is None else rebuild_budget
    if base < 0.0 or cap < 0.0:
        raise ValueError(f"backoff must be >= 0, got base={base}, cap={cap}")
    if budget < 0:
        raise ValueError(f"rebuild_budget must be >= 0, got {budget}")
    if encode is None:
        encode = lambda result: result  # noqa: E731 - identity codec
    if decode is None:
        decode = lambda payload: payload  # noqa: E731 - identity codec

    plan: Optional[ChaosPlan] = None
    if chaos is not None:
        plan = chaos.materialize(keys) if isinstance(chaos, ChaosSpec) else chaos

    rep = report if report is not None else RunReport()
    rep.n_chunks = len(tasks)
    if plan is not None:
        rep.chaos = plan.describe()
        if plan.is_empty:
            plan = None  # inert plan: take the plain path

    results: List[Any] = [None] * len(tasks)
    pending: List[int] = []
    for idx, key in enumerate(keys):
        if journal is not None and key in journal.completed:
            results[idx] = decode(journal.completed[key])
            rep.from_journal += 1
        else:
            pending.append(idx)

    attempts: Dict[int, int] = dict.fromkeys(pending, 0)
    finished: set = set()
    quarantined_idx: set = set()
    last_exception: List[Optional[BaseException]] = [None]

    def finish(idx: int, result: Any, where: str) -> None:
        if idx in finished:
            return
        if journal is not None:
            journal.record(keys[idx], encode(result))
        results[idx] = result
        finished.add(idx)
        rep.computed += 1
        if where == "pool":
            rep.in_pool += 1
        else:
            rep.in_parent += 1

    def fail(idx: int, reason: str, exc: Optional[BaseException]) -> float:
        """Charge one failed attempt; >= 0 backoff if retrying, -1 if quarantined."""
        rep.errors[keys[idx]] = reason
        if exc is not None:
            last_exception[0] = exc
        attempts[idx] += 1
        if attempts[idx] > retries:
            quarantined_idx.add(idx)
            rep.quarantined.append(keys[idx])
            return -1.0
        rep.retries += 1
        delay = _backoff_delay(keys[idx], attempts[idx], base, cap)
        rep.backoff_seconds += delay
        return delay

    # -- cancellation (SIGTERM / run deadline) --------------------------
    t_start = time.monotonic()
    cancel_state = {"flag": False, "reason": ""}

    def cancelled() -> bool:
        if not cancel_state["flag"] and run_deadline is not None:
            if time.monotonic() - t_start >= run_deadline:
                cancel_state["flag"] = True
                cancel_state["reason"] = (
                    f"run deadline of {run_deadline}s exceeded"
                )
        return bool(cancel_state["flag"])

    def cancel_now() -> "RunCancelledError":
        rep.cancelled = True
        return RunCancelledError(cancel_state["reason"] or "cancelled", report=rep)

    def run_in_parent(idx: int) -> None:
        while True:
            if cancelled():
                raise cancel_now()
            try:
                if plan is not None:
                    result = chaos_call(
                        worker, tasks[idx], plan, keys[idx], attempts[idx], True
                    )
                else:
                    result = worker(tasks[idx])
            except Exception as exc:
                delay = fail(idx, f"{type(exc).__name__}: {exc}", exc)
                if delay < 0:
                    return
                if delay > 0:
                    time.sleep(delay)
                continue
            finish(idx, result, "parent")
            return

    def finalize() -> None:
        if strict and rep.quarantined:
            details = "; ".join(
                f"{key}: {rep.errors.get(key, 'unknown error')}"
                for key in rep.quarantined
            )
            raise ChunkQuarantinedError(
                f"{len(rep.quarantined)} chunk(s) quarantined after "
                f"exhausting {retries} retries -- {details}",
                keys=list(rep.quarantined),
                report=rep,
            ) from last_exception[0]

    prev_sigterm: Any = None
    use_sigterm = (
        cancel_on_sigterm
        and threading.current_thread() is threading.main_thread()
    )
    if use_sigterm:
        def _on_sigterm(signum: int, frame: Any) -> None:
            cancel_state["flag"] = True
            cancel_state["reason"] = "SIGTERM received"

        prev_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)

    try:
        if n_jobs > 1 and len(pending) > 1:
            _supervise_pool(
                tasks=tasks,
                keys=keys,
                worker=worker,
                n_jobs=n_jobs,
                backend=backend,
                timeout=timeout,
                plan=plan,
                rep=rep,
                budget=budget,
                pending=pending,
                attempts=attempts,
                finished=finished,
                quarantined_idx=quarantined_idx,
                finish=finish,
                fail=fail,
                cancelled=cancelled,
                cancel_now=cancel_now,
                run_in_parent=run_in_parent,
                last_exception=last_exception,
            )
        else:
            for idx in pending:
                if idx in finished or idx in quarantined_idx:
                    continue
                run_in_parent(idx)
    finally:
        if use_sigterm:
            signal.signal(signal.SIGTERM, prev_sigterm)

    finalize()
    return results


def _supervise_pool(
    *,
    tasks: Sequence[Any],
    keys: Sequence[str],
    worker: Callable[[Any], Any],
    n_jobs: int,
    backend: str,
    timeout: Optional[float],
    plan: Optional[ChaosPlan],
    rep: RunReport,
    budget: int,
    pending: List[int],
    attempts: Dict[int, int],
    finished: set,
    quarantined_idx: set,
    finish: Callable[[int, Any, str], None],
    fail: Callable[[int, str, Optional[BaseException]], float],
    cancelled: Callable[[], bool],
    cancel_now: Callable[[], RunCancelledError],
    run_in_parent: Callable[[int], None],
    last_exception: List[Optional[BaseException]],
) -> None:
    """The pooled supervisor loop behind :func:`execute_chunks`."""
    in_process_faults = backend == "threads"

    def make_pool() -> Any:
        if backend == "threads":
            return ThreadPoolExecutor(max_workers=n_jobs)
        return ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_process_worker_init
        )

    pool = make_pool()
    pool_alive = True
    rebuilds_left = budget
    inflight: Dict[Any, int] = {}
    started: Dict[int, float] = {}
    sub_order: Dict[int, int] = {}
    sub_counter = [0]
    submit_queue: deque = deque(pending)
    retry_queue: List[Tuple[float, int]] = []
    parent_mode = False

    def note_worker_pids() -> None:
        for pid in _pool_worker_pids(pool):
            rep.note_worker(pid)

    def submit(idx: int) -> None:
        if plan is not None:
            fut = pool.submit(
                chaos_call, worker, tasks[idx], plan, keys[idx],
                attempts[idx], in_process_faults,
            )
        else:
            fut = pool.submit(worker, tasks[idx])
        inflight[fut] = idx
        sub_counter[0] += 1
        sub_order[idx] = sub_counter[0]

    def harvest_done() -> None:
        # salvage results that already finished before tearing the pool
        # down -- they must not be recomputed (and are journaled now, so
        # even a cancelled run keeps them)
        for fut, idx in list(inflight.items()):
            if not fut.done() or idx in finished:
                continue
            try:
                result = fut.result(timeout=0)
            except Exception as exc:
                # a failed future is not salvage; the requeue path
                # below decides whether it retries or quarantines
                last_exception[0] = exc
                continue
            finish(idx, result, "pool")
            rep.harvested += 1
            del inflight[fut]

    def teardown_pool(kill: bool) -> None:
        nonlocal pool_alive
        if not pool_alive:
            return
        note_worker_pids()
        procs = (
            list(getattr(pool, "_processes", {}).values())
            if backend == "processes"
            else []
        )
        # a hung worker (or thread) must not be joined; otherwise wait
        # so the executor reaps its own children
        blocked = kill or (backend == "threads" and rep.timeouts > 0)
        pool.shutdown(wait=not blocked, cancel_futures=True)
        if kill and backend == "processes":
            for proc in procs:
                if proc.pid is None:
                    continue
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue  # already dead (likely what broke the pool)
            for proc in procs:
                proc.join(timeout=5.0)
        pool_alive = False

    def schedule(idx: int, delay: float) -> None:
        if delay < 0:
            return  # quarantined
        if delay == 0:
            submit_queue.append(idx)
        else:
            retry_queue.append((time.monotonic() + delay, idx))

    try:
        while True:
            outstanding = [
                idx
                for idx in pending
                if idx not in finished and idx not in quarantined_idx
            ]
            if not outstanding:
                break
            if cancelled():
                harvest_done()
                teardown_pool(kill=True)
                raise cancel_now()
            if parent_mode:
                for idx in outstanding:
                    if idx in finished or idx in quarantined_idx:
                        continue
                    run_in_parent(idx)
                continue

            now = time.monotonic()
            due = [item for item in retry_queue if item[0] <= now]
            for item in due:
                retry_queue.remove(item)
                submit_queue.append(item[1])

            broken_submit: Optional[BaseException] = None
            while submit_queue and broken_submit is None:
                idx = submit_queue[0]
                try:
                    submit(idx)
                except BrokenProcessPool as exc:
                    broken_submit = exc
                    break
                submit_queue.popleft()
            note_worker_pids()

            if not inflight and broken_submit is None:
                if retry_queue:
                    next_at = min(ready for ready, _ in retry_queue)
                    delay = min(max(0.0, next_at - time.monotonic()), _TICK)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                # outstanding chunks with no execution vehicle is a
                # supervisor bug; fail loudly rather than spin forever
                raise RuntimeError(
                    f"supervisor lost track of chunks {outstanding!r}"
                )

            pool_broken = broken_submit is not None
            broken_idxs: List[int] = []
            hung: List[int] = []
            if inflight:
                done, _ = futures_wait(
                    list(inflight), timeout=_TICK, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                # Workers take chunks in submission order, so only the
                # n_jobs oldest unfinished ones can be executing.  A
                # process pool also reports the chunks queued behind
                # them as running; their queue wait must not be charged.
                unfinished = sorted(
                    (sub_order[idx], fut, idx)
                    for fut, idx in inflight.items()
                    if not fut.done()
                )
                for _, fut, idx in unfinished[:n_jobs]:
                    if idx not in started and fut.running():
                        started[idx] = now
                for fut in done:
                    idx = inflight.pop(fut)
                    if idx in finished:
                        continue
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        last_exception[0] = exc
                        broken_idxs.append(idx)
                        continue
                    except Exception as exc:
                        schedule(idx, fail(idx, f"{type(exc).__name__}: {exc}", exc))
                        continue
                    finish(idx, result, "pool")

                # per-chunk deadline, measured from each chunk's observed
                # start -- queue wait behind slow chunks is not charged
                if timeout is not None and not pool_broken:
                    now = time.monotonic()
                    for fut, idx in list(inflight.items()):
                        if idx not in started or fut.done():
                            continue
                        if now - started[idx] <= timeout:
                            continue
                        rep.timeouts += 1
                        if backend == "threads":
                            # a thread cannot be killed: abandon this
                            # attempt (the late result, if any, is
                            # discarded via the finished-set guard)
                            del inflight[fut]
                            started.pop(idx, None)
                            schedule(
                                idx,
                                fail(idx, f"chunk exceeded {timeout}s deadline", None),
                            )
                        else:
                            hung.append(idx)

            if pool_broken or hung:
                harvest_done()
                requeue = [
                    idx
                    for fut, idx in inflight.items()
                    if idx not in finished and idx not in quarantined_idx
                ]
                inflight.clear()
                for idx in hung:
                    requeue.remove(idx)
                    schedule(
                        idx,
                        fail(
                            idx,
                            f"chunk exceeded {timeout}s deadline (worker killed)",
                            None,
                        ),
                    )
                if pool_broken:
                    # A break kills every in-flight future, but only the
                    # chunks that were actually *executing* took the pool
                    # down; the rest resubmit uncharged (same attempt).
                    # An injected kill dies faster than the running
                    # observation tick, so prefer the chaos plan's
                    # scheduled kills, then observed-running chunks, then
                    # (a real crash with no observation) the oldest
                    # submissions -- FIFO dispatch means those were the
                    # ones on workers.
                    candidates = broken_idxs + requeue
                    charged: List[int] = []
                    if plan is not None:
                        charged = [
                            idx
                            for idx in candidates
                            if plan.fault_for(keys[idx], attempts[idx]) == "kill"
                        ]
                    if not charged:
                        charged = [idx for idx in candidates if idx in started]
                    if not charged:
                        charged = sorted(
                            candidates, key=lambda i: sub_order.get(i, 0)
                        )[:n_jobs]
                    for idx in candidates:
                        if idx in charged:
                            schedule(
                                idx, fail(idx, "worker died (pool broken)", None)
                            )
                        else:
                            submit_queue.append(idx)
                else:
                    # hang teardown only: the other in-flight chunks were
                    # innocent bystanders
                    submit_queue.extend(requeue)
                started.clear()
                teardown_pool(kill=True)
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    rep.pool_rebuilds += 1
                    pool = make_pool()
                    pool_alive = True
                else:
                    # rebuild budget exhausted: finish in-parent (still
                    # retried/backed-off/quarantined, never abandoned)
                    rep.degraded_to_parent = True
                    parent_mode = True
                    retry_queue.clear()
                    submit_queue.clear()
    finally:
        teardown_pool(kill=False)
