"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_n65536 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs half the time untraced and half with span wrappers at
every layer boundary (``spans.py``), prints the per-layer metrics, and
writes the full ledger to ``.perfbench-out/ledger/``.  Outputs are checked
after the timed region; a failed check, a late load generator or anything
left behind (child process, ``/dev/shm`` segment, listening socket) exits
non-zero without printing a result.  The last stdout line is the JSON
result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("sweep_n65536", "table1_journal", "serve_open", "runtime_fastpath")
END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("capacity_rps", "req/s"),
)
SETUP_SAMPLES = 5
#: hard ceiling on one run after the native warm-up, below the 180 s limit
RUN_LIMIT_S = 170


class BenchFailure(Exception):
    """A named reason this run produced no result."""


# ----------------------------------------------------------------------
# Environment and processes
# ----------------------------------------------------------------------


def prepare_env() -> Dict[str, str]:
    """Keep every file the program writes inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # at most 2 kernel threads (the box has 2 cores)
    env["REPRO_NATIVE_THREADS"] = "2"
    os.environ.update(env)
    import tempfile

    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    return env


def warm_native(env: Dict[str, str]) -> None:
    """Compile or load the cached native kernels once, outside every timing."""
    subprocess.run(
        [sys.executable, "-c",
         "from repro.core import _native; _native.native_available()"],
        env=env, cwd=ROOT, check=True, timeout=840)


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    found, stack = [], [pid]
    while stack:
        for child in _children(stack.pop()):
            found.append(child)
            stack.append(child)
    return found


def _stat(pid: int) -> Optional[Tuple[str, str]]:
    """``(state, start time)`` of a live process, None when gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], fields[19]


def _hwm_kib(pid: int) -> int:
    """Peak resident set size (VmHWM) of a live process, 0 when gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def note_pids(pids: List[int], seen: Dict[int, str]) -> None:
    """Remember live PIDs (with their start times) for the leak check."""
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            seen.setdefault(pid, st[1])


def program_hwm_kib(pid: int) -> int:
    """Summed peak RSS (VmHWM) of a process and its direct children.

    The direct children are the program's pool workers (and the
    multiprocessing resource tracker); short-lived helpers they run, such
    as a C compiler, are not the program's resident memory.
    """
    return sum(_hwm_kib(p) for p in [pid] + _children(pid))


class ProcessWatch:
    """Samples a process's and its pool workers' summed peak RSS (VmHWM);
    remembers every descendant PID seen."""

    INTERVAL_S = 0.02

    def __init__(self, root_pid: int) -> None:
        self.root = root_pid
        self.peak_kib = 0
        self.seen: Dict[int, str] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        note_pids(descendants(self.root), self.seen)
        # high-water marks: a sample between two allocations still sees them
        self.peak_kib = max(self.peak_kib, program_hwm_kib(self.root))

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "ProcessWatch":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def steal_note(before: Tuple[int, int]) -> str:
    """How much CPU the hypervisor took while the timed region ran."""
    steal, total = (b - a for a, b in zip(before, cpu_times()))
    share = steal / total if total else 0.0
    return f"# host: {100 * share:.1f}% of CPU time stolen by the hypervisor"


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def leak_check(seen: Dict[int, str], shm_before: Set[str],
               ports: List[int]) -> List[str]:
    """Everything this run started must be gone."""
    import socket
    from multiprocessing import resource_tracker

    leaks = [f"/dev/shm segment {name} left behind"
             for name in sorted(shm_segments() - shm_before)]
    # multiprocessing's resource tracker (started by the program's first
    # shared-memory block) lives until stopped; stop it and wait for it
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in descendants(os.getpid()):
        leaks.append(f"child process {pid} still running")
    for pid, started in seen.items():
        st = _stat(pid)
        if st is not None and st[1] == started and st[0] != "Z":
            leaks.append(f"process {pid} outlived the run")
    for port in ports:
        with socket.socket() as sock:
            sock.settimeout(1.0)
            if sock.connect_ex(("127.0.0.1", port)) == 0:
                leaks.append(f"socket still listening on port {port}")
    return leaks


def machine_block() -> Dict[str, Any]:
    import numpy as np

    from repro.core import _native

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_threading_mode": _native.native_threading_mode(),
        "n_threads": _native.resolve_n_threads(),
    }


def quantile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_note(lat: List[float]) -> str:
    """The latency tail, printed beside the metrics but not one of them: on
    a shared virtual machine it follows the host more than the program."""
    return (f"# tail (not a gated metric): p90 {quantile(lat, 90) * 1e3:.3f} ms"
            f", p99 {quantile(lat, 99) * 1e3:.3f} ms (n={len(lat)})")


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def probe_setup(name: str, work: Path, env: Dict[str, str],
                watch_pids: Dict[int, str]) -> float:
    """Seconds from spawning a fresh process to it being ready for work."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(work)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watch_pids[proc.pid] = (_stat(proc.pid) or ("", ""))[1]
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise BenchFailure(f"set-up probe for {name} failed (exit {code})")
    return ready - t0


def timed_jobs(w, seed: int, work: Path, seconds: float
               ) -> Tuple[List[Tuple[int, Any]], List[float], float]:
    """Run back-to-back jobs for ``seconds``; (jobs, latencies, elapsed)."""
    from workloads import job_seed

    jobs, lat = [], []
    t_start = time.perf_counter()
    j = 0
    while True:
        s = job_seed(seed, j)
        t0 = time.perf_counter()
        result = w.run_job(s, work, j)
        t1 = time.perf_counter()
        jobs.append((s, result))
        lat.append(t1 - t0)
        j += 1
        if t1 - t_start >= seconds:
            return jobs, lat, t1 - t_start


def run_batch(name: str, args, env: Dict[str, str], work: Path,
              seen: Dict[int, str]) -> Tuple[Dict[str, float], int]:
    from workloads import BATCH, outputs_equal

    w = BATCH[name]
    setups = []
    if not args.trace:
        setups = [probe_setup(name, work, env, seen) for _ in range(SETUP_SAMPLES)]
    w.probe_job(work)  # this process: imports, native library, first pool

    if not args.trace:
        host = cpu_times()
        with ProcessWatch(os.getpid()) as watch:
            jobs, lat, elapsed = timed_jobs(w, args.seed, work, args.seconds)
        note = steal_note(host)
        seen.update(watch.seen)
        failures = w.check(jobs, work)
        if failures:
            raise BenchFailure("; ".join(failures))
        metrics = {
            "setup_s": statistics.median(setups),
            "trials_per_s": len(jobs) * w.trials_per_job / elapsed,
            "peak_rss_mb": watch.peak_kib / 1024.0,
            "p50_ms": quantile(lat, 50) * 1e3,
            "capacity_rps": len(jobs) / elapsed,
        }
        samples = {"setup_s": len(setups), "p50_ms": len(lat),
                   "trials_per_s": len(jobs), "capacity_rps": len(jobs),
                   "peak_rss_mb": 1}
        print_table(name, metrics, dict(END_TO_END), samples)
        print(tail_note(lat))
        print(note)
        return metrics, len(jobs)

    # traced run: first half plain, second half wrapped, same job seeds
    import ledger
    import spans
    from workloads import journal_path

    with ProcessWatch(os.getpid()) as watch:
        plain, plain_lat, _ = timed_jobs(w, args.seed, work, args.seconds / 2)
        tracer = spans.Tracer(work / "spans")
        spans.install(tracer)
        tracer.spans.clear()
        lo = time.monotonic_ns()
        traced, traced_lat, _ = timed_jobs(w, args.seed, work, args.seconds / 2)
        hi = time.monotonic_ns()
    seen.update(watch.seen)
    parent = list(tracer.spans)
    workers = spans.load_spans(work / "spans")
    journal_bytes = 0.0
    if name == "table1_journal":
        journal_bytes = float(journal_path(work, 1).stat().st_size)
    failures = []
    if not outputs_equal(plain[0][1], traced[0][1]):
        failures.append("job 0 output differs with tracing on")
    failures += w.check(traced, work)
    if failures:
        raise BenchFailure("; ".join(failures))
    # job 0 of each half pays first-touch costs; compare the steady jobs
    overhead = (statistics.median(traced_lat[1:] or traced_lat)
                / statistics.median(plain_lat[1:] or plain_lat) - 1.0)
    metrics, detail = ledger.batch_metrics(
        parent, workers, (lo, hi), units=len(traced),
        trials=len(traced) * w.trials_per_job, journal_bytes=journal_bytes,
        overhead=overhead)
    detail["jobs"] = {"untraced": len(plain), "traced": len(traced),
                      "trials_per_job": w.trials_per_job,
                      "untraced_ms_per_trial":
                          1e3 * statistics.mean(plain_lat) / w.trials_per_job,
                      "traced_ms_per_trial":
                          1e3 * statistics.mean(traced_lat) / w.trials_per_job}
    detail["worker_processes"] = len(workers)
    write_ledger(name, args.seed, metrics, detail)
    print_table(name, metrics, dict(ledger.PER_LAYER),
                {k: len(traced) for k, _ in ledger.PER_LAYER})
    return metrics, len(traced)


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------


def run_serve(args, env: Dict[str, str], work: Path, seen: Dict[int, str],
              ports: List[int]) -> Tuple[Dict[str, float], int, int]:
    import serve_load as sl

    zipf_mix = sl.load_zipf_mix(ROOT)
    # the open loop, then the closed loop
    open_s = max(1, round(args.seconds * (0.5 if args.trace else 0.7)))
    closed_s = max(1, round(args.seconds * (0.25 if args.trace else 0.3)))
    n_open = int(sl.OPEN_RATE * open_s)
    requests = sl.make_requests(zipf_mix, args.seed, n_open + 40_000)
    by_rid = {r["seed"]: r for r in requests}
    open_reqs, closed_reqs = requests[:n_open], requests[n_open:]
    probes = sl.make_requests(zipf_mix, args.seed + 7919, 8)

    def spawn(traced: bool, tag: str) -> "sl.Server":
        serve_args = ["--port", "0", "--workers", "1",
                      "--report", str(work / f"report-{tag}.json")]
        if traced:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    str(work / "spans")] + serve_args
        else:
            argv = [sys.executable, "-m", "repro.serve"] + serve_args
        server = sl.Server(argv, env, ROOT, work / f"server-{tag}.log")
        seen[server.proc.pid] = (_stat(server.proc.pid) or ("", ""))[1]
        ports.append(server.port)
        return server

    def drain(server: "sl.Server", tag: str) -> List[str]:
        code = server.drain()
        problems = sl.check_report(work / f"report-{tag}.json")
        if code != 0:
            problems.append(f"server exited {code} after SIGTERM")
        return problems

    async def ask_probes(port: int) -> List[Dict[str, Any]]:
        conn = sl.Connection(port)
        out = []
        for req in probes:
            status, body, _ = await conn.call(req["_body"])
            payload = json.loads(body)
            payload.pop("batched_with", None)  # depends on concurrent traffic
            out.append({"status": status, "body": payload})
        await conn.close()
        return out

    failures: List[str] = []
    if not args.trace:
        setups = []
        for i in range(SETUP_SAMPLES):
            server = spawn(False, f"setup{i}")
            setups.append(server.setup_s)
            if i < SETUP_SAMPLES - 1:
                failures += drain(server, f"setup{i}")
        tag = f"setup{SETUP_SAMPLES - 1}"
        try:
            asyncio.run(sl.warm_up(server.port, probes))
            host = cpu_times()
            op = sl.measure(sl.open_loop(server.port, open_reqs, open_s))
            cl = sl.measure(sl.closed_loop(server.port, closed_reqs, closed_s))
            note = steal_note(host)
            note_pids(descendants(server.proc.pid), seen)
            peak_kib = program_hwm_kib(server.proc.pid)
        finally:
            failures += drain(server, tag)
        failures += sl.check_phase(op, by_rid) + sl.check_phase(cl, by_rid)
        if failures:
            raise BenchFailure("; ".join(failures))
        late = op.sent - len(op.timed_ids)
        if late > sl.MAX_LATE_SHARE * op.sent:
            raise BenchFailure(
                f"invalid run: the load generator ran more than "
                f"{sl.MAX_LATE_MS} ms late for {late} of {op.sent} open-loop "
                "requests, so latency would measure the client")
        lat = [o.done - o.due for o in op.outcomes
               if o.status == 200 and o.index in op.timed_ids]
        capacity, ok_closed = cl.block_rate()
        metrics = {
            "setup_s": statistics.median(setups),
            "trials_per_s": capacity * sl.TRIALS_PER_REQUEST,
            "peak_rss_mb": peak_kib / 1024.0,
            "p50_ms": quantile(lat, 50) * 1e3,
            "capacity_rps": capacity,
        }
        samples = {"setup_s": len(setups), "p50_ms": len(lat),
                   "trials_per_s": ok_closed, "capacity_rps": ok_closed,
                   "peak_rss_mb": 1}
        print_table("serve_open", metrics, dict(END_TO_END), samples)
        print(tail_note(lat))
        print(f"# open loop: offered {sl.OPEN_RATE:g} req/s, sent {op.sent}, "
              f"{len(op.timed_ids)} sent on time and timed; generator "
              f"lateness p50 {quantile(op.late, 50) * 1e3:.3f} ms "
              f"p99 {quantile(op.late, 99) * 1e3:.3f} ms (loadgen.late_ms)")
        print(note)
        attempted = op.sent + cl.sent
        failed = sum(1 for o in op.outcomes + cl.outcomes if o.status != 200)
        return metrics, attempted, failed

    # traced run: an untraced server for the baseline, then a traced one
    import ledger
    import spans

    plain = spawn(False, "plain")
    try:
        asyncio.run(sl.warm_up(plain.port, probes))
        base = sl.measure(sl.closed_loop(plain.port, closed_reqs, closed_s))
        plain_probe = asyncio.run(ask_probes(plain.port))
    finally:
        failures += drain(plain, "plain")
    traced = spawn(True, "traced")
    try:
        asyncio.run(sl.warm_up(traced.port, probes))
        op = sl.measure(sl.open_loop(traced.port, open_reqs, open_s))
        cl = sl.measure(sl.closed_loop(traced.port, closed_reqs, closed_s))
        note_pids(descendants(traced.proc.pid), seen)
        traced_probe = asyncio.run(ask_probes(traced.port))
    finally:
        failures += drain(traced, "traced")
    if plain_probe != traced_probe:
        failures.append("responses differ with tracing on")
    failures += sl.check_phase(op, by_rid) + sl.check_phase(cl, by_rid)
    for phase in (base, op, cl):
        bad = sum(1 for o in phase.outcomes if o.status != 200)
        if bad:
            failures.append(f"{bad} request(s) were not answered 200")
    if failures:
        raise BenchFailure("; ".join(failures))
    server_spans = [s for pid_spans in spans.load_spans(work / "spans").values()
                    for s in pid_spans]
    client = {o.rid: (int(o.sent * 1e9), int(o.done * 1e9))
              for o in op.outcomes if o.status == 200 and o.index in op.timed_ids}
    window = (int(min(o.due for o in op.outcomes) * 1e9),
              int(max(o.done for o in op.outcomes) * 1e9))
    overhead = base.block_rate()[0] / cl.block_rate()[0] - 1
    metrics, detail = ledger.serve_metrics(
        server_spans, client, window,
        late_ms=quantile(op.late, 99) * 1e3, overhead=overhead)
    detail["requests"] = {"open_loop": op.sent, "closed_untraced": base.sent,
                          "closed_traced": cl.sent}
    write_ledger("serve_open", args.seed, metrics, detail)
    print_table("serve_open", metrics, dict(ledger.PER_LAYER),
                {k: len(client) for k, _ in ledger.PER_LAYER})
    return metrics, op.sent + cl.sent + base.sent, 0


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def print_table(name: str, metrics: Dict[str, float], units: Dict[str, str],
                samples: Dict[str, int]) -> None:
    print(f"# {name}")
    for key, value in metrics.items():
        print(f"#   {key:34s} {value:14.6f} {units[key]:9s} (n={samples.get(key, 1)})")


def write_ledger(name: str, seed: int, metrics: Dict[str, float],
                 detail: Dict[str, Any]) -> None:
    out = OUT / "ledger"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}-seed{seed}.json"
    payload = {"workload": name, "seed": seed, "machine": machine_block(),
               "metrics": metrics, "detail": detail}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"# ledger written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own fresh process; one JSON line per workload
    is folded into the last line, keyed ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout,
              flush=True)
        if proc.returncode != 0:
            code = code or proc.returncode
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    if code == 0:
        print(json.dumps(merged))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    env = prepare_env()
    try:
        warm_native(env)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: native warm-up failed: {exc}", file=sys.stderr)
        return 2

    def on_alarm(signum: int, frame: Any) -> None:
        raise BenchFailure(f"run exceeded {RUN_LIMIT_S} s")

    def on_term(signum: int, frame: Any) -> None:
        raise BenchFailure("terminated")

    # both unwind through the finally blocks that drain the server and
    # tear down pools and shared-memory blocks
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_LIMIT_S)
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shm_before = shm_segments()
    seen: Dict[int, str] = {}
    ports: List[int] = []
    failed = 0
    try:
        if args.workload == "serve_open":
            metrics, attempted, failed = run_serve(args, env, work, seen, ports)
        else:
            metrics, attempted = run_batch(args.workload, args, env, work, seen)
        leaks = leak_check(seen, shm_before, ports)
        if leaks:
            raise BenchFailure("left behind: " + "; ".join(leaks))
    except BenchFailure as exc:
        print(f"FAIL [{args.workload}]: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    units = dict(END_TO_END)
    if args.trace:
        import ledger

        units = dict(ledger.PER_LAYER)
    result = {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
