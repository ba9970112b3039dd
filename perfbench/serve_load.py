"""serve_open: the partition service driven by one asyncio client process.

The server runs as ``python -m repro.serve --port 0 --workers 1`` (the
traced run starts it through ``traced_server.py`` instead).  The client
sends ``tools/loadgen.py``'s Zipf request mix over at most two keep-alive
connections, in two phases:

1. open loop: requests fall due at a fixed ``OPEN_RATE`` per second,
   evenly spaced, whether or not earlier ones have finished.
   Latency is timed from the due time, so a request that waits for a free
   connection is charged for the wait.  How late the generator itself
   woke up for each due time is ``late``.  A request for which the
   generator woke more than ``MAX_LATE_MS`` late measures the client (on
   a shared machine, the whole VM being descheduled), so it is not timed;
   a run in which more than ``MAX_LATE_SHARE`` of the requests went
   untimed is invalid.
2. closed loop: each connection sends its next request as soon as the
   previous answer arrives; only throughput is reported, as the
   interquartile mean of the rates of consecutive blocks of 50 responses.
"""

from __future__ import annotations

import asyncio
import gc
import importlib.util
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

#: Offered rate of the open-loop phase, a constant never calibrated per
#: run: about a fifth of the closed-loop capacity with two connections on
#: a 2-core machine.  Two connections carry at most 2 / latency requests
#: per second, so the rate leaves room for the host to slow the server
#: down several times over before the client's own queue decides the
#: latency (at 200 req/s, a host slowed to half speed did exactly that).
OPEN_RATE = 100.0
#: at most 2 client connections, and never more than the machine's cores
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
TRIALS_PER_REQUEST = 8
#: An open-loop request for which the generator woke up later than this
#: measures the client, not the server: it is not timed.
MAX_LATE_MS = 2.0
#: A run in which more than this share of the open-loop requests went
#: untimed measures the client throughout: it is invalid.
MAX_LATE_SHARE = 0.5
#: Every this-many-th 200 response is checked against a direct recompute.
CHECK_EVERY = 25


def load_zipf_mix(root: Path):
    """``zipf_mix`` from ``tools/loadgen.py`` (not an importable package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_loadgen", root / "tools" / "loadgen.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)  # loadgen puts benchmarks/ first on sys.path
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.zipf_mix


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------


class Server:
    """One server process: spawn, wait until ready, drain with SIGTERM."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: Path,
                 log: Path) -> None:
        self.t_spawn = time.perf_counter()
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=cwd)
        self.port = self._read_port(timeout=60.0)
        self.setup_s = self._wait_ready(timeout=60.0) - self.t_spawn

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode("latin-1").splitlines():
                    if line.startswith("listening on "):
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError("server did not report a listening port")

    def _wait_ready(self, timeout: float) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if asyncio.run(_get(self.port, "/readyz"))[0] == 200:
                    return time.perf_counter()
            except OSError:
                pass
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("server never became ready")

    def drain(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait for the graceful exit; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


async def _get(port: int, path: str) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close"
                     "\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    rid: int
    index: int      # position in the phase's request list
    status: int
    due: float      # perf_counter when the request fell due (open loop)
    sent: float     # perf_counter when it was written
    done: float     # perf_counter when the response was read
    body: Optional[bytes] = None


@dataclass
class Phase:
    outcomes: List[Outcome] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    sent: int = 0
    elapsed: float = 0.0
    #: open-loop requests the generator sent on time: the timed ones
    timed_ids: Set[int] = field(default_factory=set)
    t0: float = 0.0

    def block_rate(self, block: int = 50) -> Tuple[float, int]:
        """200 responses per second: the interquartile mean of the rate of
        consecutive blocks of ``block`` responses (robust to a stall)."""
        done = sorted(o.done for o in self.outcomes if o.status == 200)
        edges = [self.t0] + done[block - 1::block]
        rates = sorted(block / (b - a) for a, b in zip(edges, edges[1:]) if b > a)
        q = len(rates) // 4
        middle = rates[q:len(rates) - q] or rates or [0.0]
        return sum(middle) / len(middle), len(done)


class Connection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def call(self, body: bytes) -> Tuple[int, bytes, float]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        sent = time.perf_counter()
        self.writer.write(
            b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length), sent

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()
            self.writer = None


def make_requests(zipf_mix, seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` request bodies; request ``i`` carries seed ``seed*10^7+i``.

    The request seed doubles as the request id the traced run joins on;
    ``_body`` holds the encoded body, so the client encodes nothing while
    it measures.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i, body in enumerate(zipf_mix(rng, count)):
        body["seed"] = seed * 10_000_000 + i
        out.append(dict(body, _body=json.dumps(body).encode()))
    return out


async def _send(conn: Connection, req: Dict[str, Any], index: int, due: float,
                keep: bool) -> Outcome:
    try:
        status, body, sent = await conn.call(req["_body"])
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
        await conn.close()
        now = time.perf_counter()
        return Outcome(req["seed"], index, 0, due, now, now)
    return Outcome(req["seed"], index, status, due, sent, time.perf_counter(),
                   body if keep or status != 200 else None)


def measure(phase_coro) -> "Phase":
    """Run one measured phase with the load generator out of the way.

    The client's garbage collector is paused, and where the OS allows it
    the client runs at a higher CPU priority than the server it measures,
    so that neither a collection nor a time slice given to the server's
    threads is charged to the server as latency.
    """
    nice = os.getpriority(os.PRIO_PROCESS, 0)
    try:
        os.setpriority(os.PRIO_PROCESS, 0, nice - 10)
    except OSError:
        pass
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(phase_coro)
    finally:
        gc.enable()
        try:
            os.setpriority(os.PRIO_PROCESS, 0, nice)
        except OSError:
            pass


async def warm_up(port: int, requests: List[Dict[str, Any]]) -> None:
    """One request per algorithm before timing: the server loads its
    native kernels and starts its dispatch thread on first use."""
    conn = Connection(port)
    seen = set()
    for req in requests:
        if req["algorithm"] not in seen:
            seen.add(req["algorithm"])
            await conn.call(req["_body"])
    await conn.close()


async def open_loop(port: int, requests: List[Dict[str, Any]],
                    seconds: float) -> Phase:
    """Arrivals every 1/OPEN_RATE s for ``seconds``.

    Every request gets its outcome checked; only those the generator sent
    at most MAX_LATE_MS after their due time are timed (``timed_ids``).
    """
    phase = Phase()
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            phase.outcomes.append(
                await _send(conn, requests[i], i, due, i % CHECK_EVERY == 0))

    conns = [Connection(port) for _ in range(CONNECTIONS)]
    tasks = [asyncio.ensure_future(worker(c)) for c in conns]
    t0 = phase.t0 = time.perf_counter()
    for i in range(int(seconds * OPEN_RATE)):
        due = t0 + i / OPEN_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, time.perf_counter() - due)
        phase.late.append(late)
        if late * 1e3 <= MAX_LATE_MS:
            phase.timed_ids.add(i)
        queue.put_nowait((i, due))
        phase.sent += 1
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    phase.elapsed = time.perf_counter() - t0
    for c in conns:
        await c.close()
    return phase


async def closed_loop(port: int, requests: List[Dict[str, Any]],
                      seconds: float) -> Phase:
    """Each connection sends back to back for ``seconds``."""
    phase = Phase()
    counter = iter(range(len(requests)))
    t0 = phase.t0 = time.perf_counter()

    async def worker(conn: Connection) -> None:
        while time.perf_counter() - t0 < seconds:
            i = next(counter)
            phase.sent += 1
            phase.outcomes.append(await _send(
                conn, requests[i], i, time.perf_counter(), i % CHECK_EVERY == 0))
        await conn.close()

    await asyncio.gather(*(worker(Connection(port)) for _ in range(CONNECTIONS)))
    phase.elapsed = time.perf_counter() - t0
    return phase


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_phase(phase: Phase, requests: Dict[int, Dict[str, Any]]) -> List[str]:
    """Every request answered; sampled 200 bodies equal a direct recompute."""
    from repro.core.metrics import summarize_ratios
    from repro.experiments.stochastic import trial_ratios
    from repro.problems.samplers import FixedAlpha

    failures = []
    if len(phase.outcomes) != phase.sent:
        failures.append(f"{phase.sent - len(phase.outcomes)} request(s) got no "
                        "terminal outcome")
    dropped = sum(1 for o in phase.outcomes if o.status == 0)
    if dropped:
        failures.append(f"{dropped} request(s) got no HTTP response")
    for o in phase.outcomes:
        if o.status != 200 or o.body is None:
            continue
        req = requests[o.rid]
        want = summarize_ratios(trial_ratios(
            req["algorithm"], req["n"], FixedAlpha(float(req["alpha"])),
            n_trials=req["trials"], seed=req["seed"])).as_dict()
        got = json.loads(o.body)
        if got.get("ratios") != want or got.get("seed") != req["seed"]:
            failures.append(f"request {o.rid}: response differs from "
                            "summarize_ratios(trial_ratios(...))")
    return failures


def check_report(path: Path) -> List[str]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"no drained ServeReport: {exc}"]
    failures = []
    if report.get("accounted") is not True:
        failures.append("drained ServeReport is not accounted")
    if report.get("drained") is not True:
        failures.append("ServeReport was not drained")
    return failures
