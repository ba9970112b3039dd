"""Optional C fast paths for the batched kernels and the PHF fastpath.

The NumPy kernels in :mod:`repro.core.batch` and the Python fallbacks
in :mod:`repro.simulator.fastpath` are exact but slow: every bisection
pays a few fancy-indexed gathers across the whole batch (or a Python
loop step per trial), which caps them near the scalar loops at large
N.  The per-trial loops are a few hundred lines of C, so this module
compiles :file:`_kernels.c` on demand with whatever system compiler is
available (``cc``/``gcc``/``clang``) and loads it through :mod:`ctypes`
-- no build step, no new Python dependency.  It exposes six kernels:

* :func:`hf_batch_native`   -- HF final weights (hold-back 8-ary heap)
* :func:`ba_batch_native`   -- BA final weights (explicit DFS stack)
* :func:`bahf_batch_native` -- BA-HF final weights (BA above the
  switch-over threshold, HF below it)
* :func:`ba_metrics_native` -- BA / BA-HF machine metrics (makespan
  and max final weight) for the complete-network fastpath
* :func:`phf_metrics_native` -- PHF machine metrics for the central
  phase-1 / complete-network fastpath; each phase-2 band is ordered
  by a stable radix pass, not a comparison sort
* :func:`seeded_ratios_native` -- HF / BA / BA-HF max final weight per
  trial from a cell's root seed: each trial's U[low, high] row is
  sampled inside the kernel (numpy's ``default_rng`` stream, bit for
  bit) and one number per trial comes back

The two metrics kernels take their rows either as a draw matrix or as
:class:`SeededRows`, which makes the kernel sample each trial's row
itself, exactly as :func:`seeded_ratios_native` does; one C row source
serves all three.

Everything here degrades gracefully: if there is no compiler, the build
fails, or ``REPRO_NO_NATIVE`` is set in the environment, callers get
``None``/``False`` and fall back to the pure-NumPy kernels.  The shared
object is cached under the system temp directory, keyed by a hash of the
source text and *the compiler version*, so it compiles once per machine
and toolchain, not once per process: a fresh pool worker on a warm cache
loads the artifact without running the compiler.  One-line logs record
whether the compile was skipped (cache hit), performed, or failed.

Loading runs one self-check: a C row of the seeded sampler against
``np.random.default_rng(seed).uniform(...)`` for a one-word and a
two-word seed.  A mismatch (a numpy stream change) logs a warning and
disables the seeded rows only (:func:`seeded_available` turns false);
callers then sample with numpy as before.

Threading: the library is built with ``-pthread`` -- per-call
spawn-and-join threads with no persistent state, so it is fork-safe
under the process pool -- or, if the toolchain rejects that flag,
serial, into the same cache entry.  The kernels shard their trial range
into contiguous blocks, one per thread.  Blocks write disjoint output
rows, so results are bit-identical for every thread count.
``REPRO_NATIVE_THREADS`` sets the default thread count
(``auto``/``0``/unset means :func:`os.cpu_count`), and every wrapper
takes an explicit ``n_threads`` override.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.problem import check_alpha

__all__ = [
    "ba_batch_native",
    "ba_metrics_native",
    "bahf_batch_native",
    "hf_batch_native",
    "native_available",
    "native_threading_mode",
    "phf_metrics_native",
    "resolve_n_threads",
    "SeededRows",
    "seeded_available",
    "seeded_ratios_native",
]

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_kernels.c")
_LIB_BASENAME = "libreprokernels.so"

_logger = logging.getLogger(__name__)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
#: Whether the loaded library's seeded rows passed the self-check.
_seeded_ok = False

_compiler_version_cache: Dict[str, str] = {}

# Spawn-and-join pthreads per call (no thread state outlives a kernel
# call, so the library survives fork() into pool workers); a toolchain
# that rejects -pthread gets a serial build instead.
_PTHREAD_FLAGS = ("-pthread", "-DREPRO_THREADS_PTHREAD")
_THREAD_BACKEND_NAMES = {0: "serial", 1: "pthread"}


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0", "false", "no")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compiler_version(compiler: str) -> str:
    """First line of ``<compiler> --version`` (memoized, '' on failure)."""
    cached = _compiler_version_cache.get(compiler)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            timeout=30,
            check=False,
        )
        version = proc.stdout.decode("utf-8", "replace").splitlines()[0]
    except Exception:
        version = ""
    # Memoization of an immutable toolchain fact; per-process and
    # value-deterministic, so pool payloads reaching this stay pure.
    _compiler_version_cache[compiler] = version  # repro-lint: disable=R104
    return version


def _cache_dir(source: bytes, compiler_version: str) -> str:
    uid = getattr(os, "getuid", lambda: 0)()
    digest = hashlib.sha256(
        source + sys.platform.encode() + compiler_version.encode()
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}-{digest}")


_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_LONG_P = ctypes.POINTER(ctypes.c_long)


def _declare(lib: ctypes.CDLL) -> None:
    lib.repro_threading_backend.restype = ctypes.c_int
    lib.repro_threading_backend.argtypes = []
    lib.repro_hf_batch.restype = None
    lib.repro_hf_batch.argtypes = [
        _DOUBLE_P,  # draws
        ctypes.c_long,  # draws row stride (elements)
        _DOUBLE_P,  # w0
        _DOUBLE_P,  # out
        ctypes.c_long,  # n_trials
        ctypes.c_long,  # n
        ctypes.c_long,  # n_threads
    ]
    lib.repro_ba_batch.restype = ctypes.c_int
    lib.repro_ba_batch.argtypes = [
        _DOUBLE_P,
        ctypes.c_long,
        _DOUBLE_P,
        _DOUBLE_P,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_long,  # n_threads
    ]
    lib.repro_bahf_batch.restype = ctypes.c_int
    lib.repro_bahf_batch.argtypes = [
        _DOUBLE_P,
        ctypes.c_long,
        _DOUBLE_P,
        _DOUBLE_P,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_double,  # threshold
        ctypes.c_long,  # n_threads
    ]
    lib.repro_ba_metrics.restype = ctypes.c_int
    lib.repro_ba_metrics.argtypes = [
        # row source: draws (NULL: seeded rows), row stride (elements),
        # root seed, first trial, low, high
        _DOUBLE_P, ctypes.c_long, ctypes.c_ulonglong, ctypes.c_long,
        ctypes.c_double, ctypes.c_double,
        ctypes.c_long, ctypes.c_long,  # n_trials, n
        ctypes.c_double, ctypes.c_double,  # w0, threshold (< 0: plain BA)
        ctypes.c_double, ctypes.c_double,  # t_bisect, t_send
        _DOUBLE_P, _DOUBLE_P,  # makespan, maxw
        ctypes.c_long,  # n_threads
    ]
    lib.repro_uniform_row.restype = None
    lib.repro_uniform_row.argtypes = [
        ctypes.c_ulonglong,  # seed
        ctypes.c_double, ctypes.c_double,  # low, high
        _DOUBLE_P, ctypes.c_long,  # out, k
    ]
    lib.repro_seeded_ratios.restype = ctypes.c_int
    lib.repro_seeded_ratios.argtypes = [
        ctypes.c_int,  # kind: 0 HF, 1 BA / BA-HF
        ctypes.c_ulonglong,  # root seed
        ctypes.c_long, ctypes.c_long, ctypes.c_long,  # start, n_trials, n
        ctypes.c_double, ctypes.c_double,  # low, high
        ctypes.c_double,  # w0
        ctypes.c_double,  # threshold (< 0: plain BA)
        _DOUBLE_P,  # maxw_out
        ctypes.c_long,  # n_threads
    ]
    lib.repro_phf_metrics.restype = ctypes.c_int
    lib.repro_phf_metrics.argtypes = [
        # row source: draws (NULL: seeded rows), row stride (elements),
        # root seed, first trial, low, high
        _DOUBLE_P, ctypes.c_long, ctypes.c_ulonglong, ctypes.c_long,
        ctypes.c_double, ctypes.c_double,
        ctypes.c_long,  # n_trials
        ctypes.c_long,  # n
        ctypes.c_double,  # w0
        ctypes.c_double,  # threshold
        ctypes.c_double,  # band_factor (1 - alpha)
        ctypes.c_int,  # keep_heavy
        ctypes.c_double,  # t_bisect
        ctypes.c_double,  # t_acquire
        ctypes.c_double,  # t_send
        ctypes.c_double,  # c (collective cost)
        _DOUBLE_P,  # makespan
        _DOUBLE_P,  # coll_time
        _LONG_P,  # coll_n
        _LONG_P,  # ctrl
        _DOUBLE_P,  # maxw
        _LONG_P,  # status
        ctypes.c_long,  # n_threads
    ]


def _compile(compiler: str, flags: Tuple[str, ...], out_path: str) -> None:
    # -O2 with contraction off: -ffast-math or FMA contraction would
    # break bit-exactness vs the scalar path (see the contract in
    # _kernels.c).
    subprocess.run(
        [compiler, "-O2", "-std=c99", "-ffp-contract=off", *flags,
         "-shared", "-fPIC", "-o", out_path, _SOURCE_PATH, "-lm"],
        check=True,
        capture_output=True,
        timeout=120,
    )


def _build() -> Optional[ctypes.CDLL]:
    """Compile (if needed), load, and type-check the shared library."""
    with open(_SOURCE_PATH, "rb") as fh:
        source = fh.read()
    compiler = _find_compiler()
    if compiler is None:
        _logger.warning("native kernels disabled: no system C compiler found")
        return None
    cache_dir = _cache_dir(source, _compiler_version(compiler))
    lib_path = os.path.join(cache_dir, _LIB_BASENAME)
    if os.path.exists(lib_path):
        _logger.debug("native kernel compile skipped: cache hit at %s", lib_path)
    else:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            try:
                _compile(compiler, _PTHREAD_FLAGS, tmp_path)
            except subprocess.CalledProcessError:
                _logger.info("-pthread rejected; building the kernels serial")
                _compile(compiler, (), tmp_path)
            os.replace(tmp_path, lib_path)
            _logger.info("native kernels compiled with %s -> %s", compiler, lib_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    lib = ctypes.CDLL(lib_path)
    _declare(lib)
    return lib


#: Self-check seeds: one 32-bit word, and two words (>= 2**32).
_SELF_CHECK_SEEDS = (0x2545F491, 0x9E3779B97F4A7C15)


def _reference_row(seed: int, low: float, high: float, k: int) -> np.ndarray:
    """numpy's row for ``seed``: what the C sampler must reproduce."""
    return np.random.default_rng(seed).uniform(low, high, k)


def _seeded_rows_match(lib: ctypes.CDLL) -> bool:
    """One C row per seed width equals numpy's, bit for bit."""
    low, high, k = 0.1, 0.5, 64
    for seed in _SELF_CHECK_SEEDS:
        row = np.empty(k, dtype=np.float64)
        lib.repro_uniform_row(seed, low, high, _dptr(row), k)
        if not np.array_equal(row, _reference_row(seed, low, high, k)):
            _logger.warning(
                "seeded native sampler disabled: its row for seed %#x "
                "differs from numpy's default_rng stream", seed,
            )
            return False
    return True


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted, _seeded_ok
    if _disabled():
        return None
    if _load_attempted:
        return _lib
    # Lazy one-shot library handle: per-process, guarded by _lock, and
    # the loaded code is keyed by a content hash of the C source -- the
    # same task yields bit-identical results whichever process runs it.
    with _lock:
        if not _load_attempted:
            try:
                _lib = _build()  # repro-lint: disable=R104
            except Exception as exc:
                _logger.warning("native kernel compile failed: %s", exc)
                _lib = None  # repro-lint: disable=R104
            _seeded_ok = (  # repro-lint: disable=R104
                _lib is not None and _seeded_rows_match(_lib)
            )
            _load_attempted = True  # repro-lint: disable=R104
    return _lib


def native_available() -> bool:
    """True when the compiled kernels can be used on this machine."""
    return _load() is not None


def native_threading_mode() -> Optional[str]:
    """Threading mode compiled into the loaded library, or ``None``.

    ``"pthread"``, or ``"serial"`` when the toolchain rejected
    ``-pthread`` (the library reports what it was actually built with);
    ``None`` when the native kernels are unavailable.
    """
    lib = _load()
    if lib is None:
        return None
    return _THREAD_BACKEND_NAMES.get(int(lib.repro_threading_backend()))


def resolve_n_threads(n_threads: Optional[int] = None) -> int:
    """Resolve an ``n_threads`` knob to a concrete positive count.

    An explicit integer wins; ``None`` consults ``REPRO_NATIVE_THREADS``
    (a positive integer, or ``auto``/``0``/unset for
    :func:`os.cpu_count`).  The count only affects how trial blocks are
    sharded across threads, never the results -- kernels are
    bit-identical for every value.
    """
    if n_threads is not None:
        value = int(n_threads)
        if value < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads!r}")
        return value
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip().lower()
    if raw in ("", "auto", "0"):
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 1:
        raise ValueError(
            "REPRO_NATIVE_THREADS must be a positive integer or 'auto', "
            f"got {raw!r}"
        )
    return value


def _as_c_draws(draws: np.ndarray) -> Tuple[np.ndarray, int, int]:
    draws_c = np.ascontiguousarray(draws, dtype=np.float64)
    stride = draws_c.shape[1] if draws_c.ndim == 2 else 0
    return draws_c, draws_c.shape[0], stride


def _as_c_inputs(
    w0: np.ndarray, draws: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    draws_c, _, stride = _as_c_draws(draws)
    w0_c = np.ascontiguousarray(w0, dtype=np.float64)
    return draws_c, w0_c, w0_c.shape[0], stride


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(_DOUBLE_P)


def _lptr(arr: np.ndarray):
    return arr.ctypes.data_as(_LONG_P)


def hf_batch_native(
    w0: np.ndarray, n: int, draws: np.ndarray,
    n_threads: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Run the compiled HF kernel, or return ``None`` if unavailable.

    ``w0`` is the per-trial initial weight vector and ``draws`` the
    ``(n_trials, >= n-1)`` alpha-hat matrix; returns the ``(n_trials, n)``
    final-weight table (same multiset per row as the scalar loop).
    ``n_threads`` shards trials across in-kernel threads (``None`` =
    :func:`resolve_n_threads`); the result is bit-identical for every
    count.
    """
    lib = _load()
    if lib is None:
        return None
    draws_c, w0_c, n_trials, stride = _as_c_inputs(w0, draws)
    out = np.empty((n_trials, n), dtype=np.float64)
    lib.repro_hf_batch(
        _dptr(draws_c),
        ctypes.c_long(stride),
        _dptr(w0_c),
        _dptr(out),
        ctypes.c_long(n_trials),
        ctypes.c_long(n),
        ctypes.c_long(resolve_n_threads(n_threads)),
    )
    return out


def ba_batch_native(
    w0: np.ndarray, n: int, draws: np.ndarray,
    n_threads: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Run the compiled BA kernel, or return ``None`` if unavailable.

    Same calling convention as :func:`hf_batch_native`; row ``t`` of the
    output holds trial ``t``'s leaf weights in DFS pop order (the same
    multiset as the scalar recursion fed by the same draw row).
    """
    lib = _load()
    if lib is None:
        return None
    draws_c, w0_c, n_trials, stride = _as_c_inputs(w0, draws)
    out = np.empty((n_trials, n), dtype=np.float64)
    rc = lib.repro_ba_batch(
        _dptr(draws_c),
        ctypes.c_long(stride),
        _dptr(w0_c),
        _dptr(out),
        ctypes.c_long(n_trials),
        ctypes.c_long(n),
        ctypes.c_long(resolve_n_threads(n_threads)),
    )
    if rc != 0:
        return None
    return out


def bahf_batch_native(
    w0: np.ndarray, n: int, draws: np.ndarray, threshold: float,
    n_threads: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Run the compiled BA-HF kernel, or return ``None`` if unavailable.

    ``threshold`` is :func:`repro.core.bahf.bahf_threshold`; nodes whose
    processor count falls below it finish with the in-kernel HF heap.
    """
    lib = _load()
    if lib is None:
        return None
    draws_c, w0_c, n_trials, stride = _as_c_inputs(w0, draws)
    out = np.empty((n_trials, n), dtype=np.float64)
    rc = lib.repro_bahf_batch(
        _dptr(draws_c),
        ctypes.c_long(stride),
        _dptr(w0_c),
        _dptr(out),
        ctypes.c_long(n_trials),
        ctypes.c_long(n),
        ctypes.c_double(threshold),
        ctypes.c_long(resolve_n_threads(n_threads)),
    )
    if rc != 0:
        return None
    return out


@dataclass(frozen=True)
class SeededRows:
    """Trials ``start .. start + n_trials - 1`` whose rows a kernel samples.

    Trial ``t`` reads the first ``n - 1`` draws of
    ``default_rng(split_seed(root, t)).uniform(low, high)`` (a constant
    row when ``low == high``), sampled inside the kernel -- the rows
    :func:`repro.experiments.stochastic.draw_rows` builds for the same
    cell, bit for bit.  The metrics kernels and the fastpath take one in
    place of a draw matrix; :func:`repro.experiments.stochastic.seeded_rows`
    makes them.
    """

    root: int
    start: int
    n_trials: int
    low: float
    high: float


def seeded_available() -> bool:
    """Whether the kernels are loaded and their seeded rows passed the self-check."""
    return _load() is not None and _seeded_ok


def _row_source(rows, n: int) -> Tuple[Optional[tuple], int]:
    """A metrics kernel's six leading row-source arguments, and its trial count.

    The arguments are ``None`` for :class:`SeededRows` whose sampler
    failed the load-time self-check.
    """
    if isinstance(rows, SeededRows):
        source = (None, 0, rows.root, rows.start, rows.low, rows.high)
        return (source if _seeded_ok else None), rows.n_trials
    draws_c, n_trials, stride = _as_c_draws(rows)
    if n < 1 or draws_c.ndim != 2 or stride < n - 1:
        raise ValueError(f"need n >= 1 and >= n-1 draws per trial, "
                         f"got n={n}, draws shape {draws_c.shape}")
    return (_dptr(draws_c), stride, 0, 0, 0.0, 0.0), n_trials


def ba_metrics_native(
    rows, n: int, *, w0: float, threshold: Optional[float],
    t_bisect: float, t_send: float, n_threads: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Run the compiled BA / BA-HF metrics kernel, or return ``None``.

    ``rows`` is the ``(n_trials, >= n-1)`` draw matrix or a
    :class:`SeededRows`.  ``threshold=None`` is plain BA, otherwise the
    BA-HF switch-over (:func:`repro.core.bahf.bahf_threshold`).  Returns
    per-trial ``(makespan, max final weight)`` on the complete network.
    """
    lib = _load()
    if lib is None:
        return None
    source, n_trials = _row_source(rows, n)
    if source is None:
        return None
    makespan, maxw = np.empty((2, n_trials), dtype=np.float64)
    rc = lib.repro_ba_metrics(
        *source, n_trials, n, w0, -1.0 if threshold is None else threshold,
        t_bisect, t_send, _dptr(makespan), _dptr(maxw),
        resolve_n_threads(n_threads),
    )
    return (makespan, maxw) if rc == 0 else None


def phf_metrics_native(
    rows,
    n: int,
    *,
    w0: float,
    threshold: float,
    alpha: float,
    keep_heavy: bool,
    t_bisect: float,
    t_acquire: float,
    t_send: float,
    collective: float,
    n_threads: Optional[int] = None,
) -> Optional[
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
]:
    """Run the compiled PHF metrics kernel, or return ``None``.

    ``rows`` is the ``(n_trials, >= n-1)`` draw matrix or a
    :class:`SeededRows`.  Returns ``(makespan, coll_time, coll_n, ctrl,
    maxw, status)`` arrays, one slot per trial.  ``status`` is 0 on
    success, 1 when phase 1 ran out of free processors and 2 when phase 2
    failed to converge; the caller maps nonzero statuses to
    :class:`SimulationError` to match the NumPy fastpath.
    """
    check_alpha(alpha)
    lib = _load()
    if lib is None:
        return None
    source, n_trials = _row_source(rows, n)
    if source is None:
        return None
    makespan, coll_time, maxw = np.empty((3, n_trials), dtype=np.float64)
    coll_n, ctrl, status = np.empty((3, n_trials), dtype=np.int64)
    rc = lib.repro_phf_metrics(
        *source, n_trials, n, w0, threshold, 1.0 - alpha,
        1 if keep_heavy else 0, t_bisect, t_acquire, t_send, collective,
        _dptr(makespan), _dptr(coll_time), _lptr(coll_n), _lptr(ctrl),
        _dptr(maxw), _lptr(status), resolve_n_threads(n_threads),
    )
    if rc != 0:
        return None
    return makespan, coll_time, coll_n, ctrl, maxw, status


_SEEDED_KINDS = {"hf": 0, "ba": 1}


def seeded_ratios_native(
    kind: str, root: int, start: int, n_trials: int, n: int,
    low: float, high: float, threshold: Optional[float] = None,
    n_threads: Optional[int] = None, w0: float = 1.0,
) -> Optional[np.ndarray]:
    """Max final weights of trials ``start .. start + n_trials - 1``, sampled in C.

    Trial ``t`` draws its ``n - 1`` values from
    ``default_rng(split_seed(root, t)).uniform(low, high)`` (a constant
    row when ``low == high``) and runs ``kind`` -- ``"hf"``, or ``"ba"``
    with ``threshold=None`` for plain BA and
    :func:`repro.core.bahf.bahf_threshold` for BA-HF -- from initial
    weight ``w0``; the result is each trial's max final weight, which the
    callers turn into a ratio (``max * n`` at unit weight in
    :func:`~repro.experiments.stochastic.trial_ratios`, ``max / (w0 / n)``
    on the fastpath).  Returns ``None`` when the kernels are
    unavailable, the load-time self-check failed, or the kernel could not
    run, so callers fall back to numpy rows.
    """
    lib = _load()
    if lib is None or not _seeded_ok:
        return None
    if n < 1 or n_trials < 1 or start < 0:
        raise ValueError(f"need n >= 1, n_trials >= 1 and start >= 0, got "
                         f"n={n}, n_trials={n_trials}, start={start}")
    out = np.empty(n_trials, dtype=np.float64)
    rc = lib.repro_seeded_ratios(
        _SEEDED_KINDS[kind], root, start, n_trials, n, low, high, w0,
        -1.0 if threshold is None else threshold, _dptr(out),
        resolve_n_threads(n_threads),
    )
    return out if rc == 0 else None
