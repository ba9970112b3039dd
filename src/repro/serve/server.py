"""Partitioning-as-a-service: the asyncio HTTP/JSON front end.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams (no
new dependencies): keep-alive connections, JSON bodies, four routes.

* ``POST /v1/partition`` -- answer a partition query (see
  :mod:`repro.serve.protocol`).  Admission control may shed it (429 +
  ``Retry-After``), its deadline may expire (504), its batch may fail
  (500); every outcome is terminal and accounted in the
  :class:`~repro.serve.report.ServeReport`.
* ``GET /healthz`` -- liveness (200 while the process runs).
* ``GET /readyz`` -- readiness (503 once draining).
* ``GET /stats`` -- the live report + breaker/admission state.

SIGTERM (or :meth:`PartitionServer.request_drain`) drains gracefully:
the listener closes, in-flight requests finish, queued batches flush,
the report is written atomically, and the process exits 0.

Run it::

    python -m repro.serve --port 0            # ephemeral port, printed
    repro-serve --workers 2 --backend processes --chaos-profile smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.chaos import CHAOS_PROFILES, ChaosSpec
from repro.experiments.io import write_atomic
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchEngine, BatchFailedError, MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import PartitionRequest, ProtocolError
from repro.serve.report import ServeReport

__all__ = ["PartitionServer", "ServeConfig", "main"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request bodies past this size are rejected before being read fully.
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Everything a :class:`PartitionServer` needs, in one place."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 1
    backend: str = "processes"
    retries: int = 3
    max_batch: int = 64
    max_inflight: int = 512
    p99_budget_s: Optional[float] = None
    default_deadline_s: float = 30.0
    hedge_after_s: Optional[float] = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 5.0
    chaos: Optional[ChaosSpec] = None
    chaos_batches: int = 4
    report_path: Optional[str] = None
    #: POSIX signal handlers are installed only for real deployments;
    #: in-process tests drive request_drain() directly.
    install_signals: bool = True


class PartitionServer:
    """One serving lifetime: listener + batcher + accounting."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.report = ServeReport()
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_after_s=config.breaker_reset_s,
        )
        self.engine = BatchEngine(
            report=self.report,
            breaker=self.breaker,
            workers=config.workers,
            backend=config.backend,
            retries=config.retries,
            chaos=config.chaos,
            chaos_batches=config.chaos_batches if config.chaos else 0,
            hedge_after_s=config.hedge_after_s,
        )
        self.batcher = MicroBatcher(self.engine, max_requests=config.max_batch)
        self.admission = AdmissionController(
            max_inflight=config.max_inflight,
            p99_budget_s=config.p99_budget_s,
        )
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_requested = asyncio.Event()
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        return self.address

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        self._drain_requested.set()

    async def serve_until_drained(self) -> None:
        """Serve until a drain is requested, then drain and return."""
        await self._drain_requested.wait()
        self.draining = True
        assert self._server is not None
        self._server.close()  # stop accepting; open sockets stay up
        await self._server.wait_closed()
        await self._idle.wait()  # in-flight requests reach their outcome
        await self.batcher.drain()  # queued batches flush, losers finish
        for writer in list(self._writers):  # idle keep-alive sockets
            writer.close()
        if self._conn_tasks:  # handlers observe EOF and exit cleanly
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self.report.drained = True
        if self.config.report_path:
            payload = self.report.as_dict(extra=self._stats_extra())
            write_atomic(
                self.config.report_path,
                lambda fh: json.dump(payload, fh, indent=2, sort_keys=True),
            )
        print(f"[serve report] {self.report.summary()}", file=sys.stderr)

    def _stats_extra(self) -> Dict[str, Any]:
        return {
            "breaker_state": self.breaker.state,
            "inflight": self.admission.inflight,
            "draining": self.draining,
        }

    # -- connection handling -------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra = await self._route(method, path, body)
                await self._respond(writer, status, payload, extra)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to account
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line or not line.strip():
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise asyncio.IncompleteReadError(b"", length)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        if path == "/healthz":
            return 200, {"ok": True}, None
        if path == "/readyz":
            if self.draining:
                return 503, {"ready": False, "reason": "draining"}, None
            return 200, {"ready": True}, None
        if path == "/stats":
            return 200, self.report.as_dict(extra=self._stats_extra()), None
        if path == "/v1/partition":
            if method != "POST":
                return 405, {"error": "POST required"}, None
            return await self._handle_partition(body)
        return 404, {"error": f"no route {path}"}, None

    async def _handle_partition(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        self.report.received += 1
        if self.draining:
            self.report.draining_rejected += 1
            return 503, {"error": "draining"}, {"Retry-After": "1"}
        try:
            request = PartitionRequest.parse(json.loads(body.decode("utf-8")))
        except ProtocolError as exc:
            self.report.invalid += 1
            return 400, {"error": str(exc)}, None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.report.invalid += 1
            return 400, {"error": f"invalid JSON body: {exc}"}, None

        decision = self.admission.try_admit()
        if not decision.admitted:
            self.report.shed += 1
            return (
                429,
                {"error": f"shedding load: {decision.reason}"},
                {"Retry-After": f"{max(1, round(decision.retry_after_s))}"},
            )

        self._active += 1
        self._idle.clear()
        t0 = time.monotonic()
        try:
            budget = (
                request.deadline_s
                if request.deadline_s is not None
                else self.config.default_deadline_s
            )
            future = self.batcher.submit(request, budget)
            try:
                payload = await asyncio.wait_for(future, timeout=budget)
            except asyncio.TimeoutError:
                self.report.expired += 1
                return 504, {"error": f"deadline of {budget}s expired"}, None
            except BatchFailedError as exc:
                self.report.failed += 1
                return 500, {"error": str(exc)}, None
            self.report.completed += 1
            if payload.get("degraded"):
                self.report.degraded += 1
            return 200, payload, None
        finally:
            self.admission.release(time.monotonic() - t0)
            self._active -= 1
            if self._active == 0:
                self._idle.set()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve partition queries over HTTP/JSON (asyncio).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="kernel worker pool size (1 = inline dispatch, no pool)",
    )
    parser.add_argument(
        "--backend", choices=("processes", "threads"), default="processes"
    )
    parser.add_argument(
        "--retries", type=int, default=3, help="kernel attempts per batch group"
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="most requests per batch"
    )
    parser.add_argument(
        "--max-inflight", type=int, default=512,
        help="admission control: concurrent requests before shedding",
    )
    parser.add_argument(
        "--p99-budget-ms", type=float, default=None,
        help="admission control: shed while rolling p99 exceeds this",
    )
    parser.add_argument(
        "--default-deadline-s", type=float, default=30.0,
        help="deadline for requests that do not send deadline_ms",
    )
    parser.add_argument(
        "--hedge-after-ms", type=float, default=None,
        help="duplicate a straggling batch onto the inline path after this",
    )
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--breaker-reset-s", type=float, default=5.0)
    parser.add_argument(
        "--chaos-profile", choices=sorted(CHAOS_PROFILES), default=None,
        help="inject deterministic faults into the first batches (testing)",
    )
    parser.add_argument("--chaos-seed", type=int, default=0)
    parser.add_argument(
        "--chaos-batches", type=int, default=4,
        help="number of leading batches the chaos schedule applies to",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the ServeReport JSON here on graceful drain",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    chaos = None
    if args.chaos_profile is not None:
        chaos = ChaosSpec(
            config=CHAOS_PROFILES[args.chaos_profile], seed=args.chaos_seed
        )
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        retries=args.retries,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        p99_budget_s=(
            args.p99_budget_ms / 1000.0 if args.p99_budget_ms else None
        ),
        default_deadline_s=args.default_deadline_s,
        hedge_after_s=(
            args.hedge_after_ms / 1000.0 if args.hedge_after_ms else None
        ),
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        chaos=chaos,
        chaos_batches=args.chaos_batches,
        report_path=args.report,
    )


async def _amain(config: ServeConfig) -> int:
    server = PartitionServer(config)
    host, port = await server.start()
    # the exact line tools/loadgen.py and check.sh scrape for the port
    print(f"listening on {host}:{port}", flush=True)
    if config.install_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.request_drain)
    await server.serve_until_drained()
    return 0 if server.report.accounted else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("workers", "max_batch", "max_inflight"):
        if getattr(args, name) < 1:
            print(f"--{name.replace('_', '-')} must be >= 1", file=sys.stderr)
            return 2
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return 2
    return asyncio.run(_amain(config_from_args(args)))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
