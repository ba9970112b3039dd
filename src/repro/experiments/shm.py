"""Shared-memory draw-matrix blocks: a retired transport.

No run uses these helpers any more.  Every chunk of the chunked runners
samples its own draw rows in the worker that runs it; a trial's
generator depends on ``(seed, algorithm, N, t)`` alone, so a cell's
chunks sample each row exactly once between them.  ``REPRO_SHM_MAX_BYTES``
therefore affects no run.  The module stays only until the benchmark
harness (``perfbench/``) stops importing it, and then goes with
``tests/test_shm.py`` and lint rule R010.

Until then it keeps its contract: it is the only module allowed to touch
``multiprocessing.shared_memory`` (R010); :func:`publish_draws` pairs
with :func:`release_draws`; :func:`attached_draws` caches one mapping
per process and an ``atexit`` hook closes them.
"""

from __future__ import annotations

import atexit
import itertools
import os
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DrawSpec",
    "attached_draws",
    "max_bytes",
    "publish_draws",
    "release_draws",
]

#: ``(segment name, rows, cols)`` -- everything a worker needs to map a
#: published float64 draw matrix.  Picklable.
DrawSpec = Tuple[str, int, int]

#: Default of :func:`max_bytes` (override with ``REPRO_SHM_MAX_BYTES``;
#: no run reads it).
DEFAULT_MAX_BYTES = 1 << 30

_counter = itertools.count()

#: Per-process cache of attached segments: name -> (array, block).  The
#: array is listed first so the mapping it borrows outlives any view
#: handed out; entries live until :func:`_detach_all` at exit.
_ATTACHED: Dict[str, Tuple[np.ndarray, shared_memory.SharedMemory]] = {}


def max_bytes() -> int:
    """Per-run shared-memory byte budget (env: ``REPRO_SHM_MAX_BYTES``)."""
    raw = os.environ.get("REPRO_SHM_MAX_BYTES")
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_BYTES
    return max(0, value)


def publish_draws(
    draws: np.ndarray,
) -> Optional[Tuple[shared_memory.SharedMemory, DrawSpec]]:
    """Copy a 2-D float64 draw matrix into a fresh shared-memory block.

    Returns ``(block, spec)``; the caller owns ``block`` and must pass
    it to :func:`release_draws` when the run is over.  Returns ``None``
    when publishing is impossible (zero-size matrix, or the platform
    refuses the allocation) -- callers then simply skip the shared path.
    """
    mat = np.ascontiguousarray(draws, dtype=np.float64)
    if mat.ndim != 2 or mat.nbytes == 0:
        return None
    block = None
    for _ in range(64):
        name = f"repro_draws_{os.getpid()}_{next(_counter)}"
        try:
            block = shared_memory.SharedMemory(
                name=name, create=True, size=mat.nbytes
            )
            break
        except FileExistsError:
            continue
        except OSError:
            return None
    if block is None:
        return None
    view = np.ndarray(mat.shape, dtype=np.float64, buffer=block.buf)
    view[:] = mat
    del view
    return block, (name, int(mat.shape[0]), int(mat.shape[1]))


def attached_draws(spec: DrawSpec) -> Optional[np.ndarray]:
    """Map a published draw matrix (worker side); ``None`` on failure.

    The returned array is a read-only zero-copy view; the mapping is
    cached per process and closed at interpreter exit, so repeated
    chunks of the same cell attach once.  Any :class:`OSError` (segment
    already unlinked, platform without shared memory) yields ``None``
    and the caller falls back to sampling its own rows.
    """
    name, rows, cols = spec
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[0]
    try:
        block = shared_memory.SharedMemory(name=name)
    except OSError:
        return None
    # Attaching re-registers the segment with the resource tracker on
    # POSIX.  Pool workers share the parent's tracker process, so the
    # duplicate registration is a set no-op -- and must NOT be
    # unregistered here, or the parent's own leak protection (and its
    # eventual unlink bookkeeping) would be silently removed.
    arr = np.ndarray((rows, cols), dtype=np.float64, buffer=block.buf)
    arr.flags.writeable = False
    # The attach cache is deliberately process-local mutable state: it
    # memoizes a read-only mapping keyed by the task's DrawSpec, so the
    # worker's result is still a pure function of its task tuple.
    _ATTACHED[name] = (arr, block)  # repro-lint: disable=R104
    return arr


def release_draws(block: shared_memory.SharedMemory) -> None:
    """Close and unlink a block returned by :func:`publish_draws`.

    Idempotent in practice: an already-unlinked segment (e.g. a crashed
    run's resource tracker beat us to it) is not an error.
    """
    try:
        block.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass
    try:
        block.unlink()
    except FileNotFoundError:
        pass


def _detach_all() -> None:  # pragma: no cover - exercised at interpreter exit
    while _ATTACHED:
        _, (arr, block) = _ATTACHED.popitem()
        del arr
        try:
            block.close()
        except BufferError:
            pass


atexit.register(_detach_all)
