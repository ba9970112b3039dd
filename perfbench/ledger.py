"""Turn recorded spans into the per-layer metrics and the wall-time ledger.

A span's *self time* is its duration minus the part its child spans (same
process) cover.  The wall-time ledger walks the parent process's timed
region: each instant goes to the deepest open span's function, except
that while the parent only waits inside ``execute_chunks`` the instant is
shared among the pool workers' deepest open spans (or charged to
``checkpoint.wait`` when no worker span is open: pickling, IPC, pool
start).  Instants with no open span in the parent are *unattributed*.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every per-layer metric the traced run prints, with its unit.  A layer
#: the workload never reaches reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("rng.seed_ms_per_trial", "ms"),
    ("samplers.sample_ms_per_trial", "ms"),
    ("samplers.draw_bytes", "bytes"),
    ("shm.publish_ms", "ms"),
    ("shm.bytes_published", "bytes"),
    ("shm.cells_engaged", "count"),
    ("batch.kernel_ms_per_trial", "ms"),
    ("batch.trials", "count"),
    ("native.kernel_ms_per_trial", "ms"),
    ("native.load_ms_per_unit", "ms"),
    ("stochastic.self_ms_per_trial", "ms"),
    ("stats.reduce_ms_per_trial", "ms"),
    ("runner.self_ms_per_unit", "ms"),
    ("checkpoint.pool_start_ms", "ms"),
    ("checkpoint.queue_wait_ms", "ms"),
    ("checkpoint.chunks", "count"),
    ("checkpoint.retries", "count"),
    ("checkpoint.rebuilds", "count"),
    ("checkpoint.journal_ms_per_record", "ms"),
    ("checkpoint.journal_records", "count"),
    ("checkpoint.journal_bytes", "bytes"),
    ("checkpoint.dispatch_ms_per_batch", "ms"),
    ("fastpath.ms_per_trial", "ms"),
    ("runtime_study.self_ms_per_trial", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("admission.admit_us", "us"),
    ("admission.shed", "count"),
    ("batcher.wait_ms", "ms"),
    ("batcher.requests_per_batch", "count"),
    ("batcher.draws_ms_per_request", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("unattributed_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
)

Span = Tuple[int, Optional[int], str, int, int, Any]

_WORKER_CHUNKS = ("runner.run_chunk", "runtime_study.study_chunk")
_KERNELS = ("batch.hf_final_weights_batch", "batch.ba_final_weights_batch",
            "batch.bahf_final_weights_batch")
_NATIVE = ("native.hf_batch_native", "native.ba_batch_native",
           "native.bahf_batch_native", "native.phf_metrics_native")


def _ms(ns: float) -> float:
    return ns / 1e6


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def self_segments(spans: Sequence[Span]) -> List[Tuple[int, int, str]]:
    """``(start, end, name)`` pieces of each span not covered by a child."""
    ids = {s[0] for s in spans}
    kids: Dict[Optional[int], List[Span]] = defaultdict(list)
    for s in spans:
        kids[s[1] if s[1] in ids else None].append(s)
    out: List[Tuple[int, int, str]] = []
    for s in spans:
        cur = s[3]
        for k in sorted(kids.get(s[0], ()), key=lambda c: c[3]):
            if k[3] > cur:
                out.append((cur, min(k[3], s[4]), s[2]))
            cur = max(cur, k[4])
        if cur < s[4]:
            out.append((cur, s[4], s[2]))
    return out


def self_time(spans: Sequence[Span]) -> Dict[str, int]:
    """Self time (ns) by span name."""
    totals: Dict[str, int] = defaultdict(int)
    for start, end, name in self_segments(spans):
        totals[name] += end - start
    return totals


def _duration(spans: Iterable[Span], names: Sequence[str]) -> int:
    return sum(s[4] - s[3] for s in spans if s[2] in names)


def wall_ledger(
    parent: Sequence[Span], workers: Sequence[Sequence[Span]],
    window: Tuple[int, int],
) -> Dict[str, float]:
    """Wall time (ns) of ``window`` by span name, plus ``unattributed``."""
    lo, hi = window
    # elementary intervals of the workers' self segments
    wseg = [seg for spans in workers for seg in self_segments(spans)]
    cuts = sorted({t for a, b, _ in wseg for t in (a, b)})
    active: List[List[str]] = [[] for _ in cuts]
    for a, b, name in wseg:
        for i in range(bisect.bisect_left(cuts, a), bisect.bisect_left(cuts, b)):
            active[i].append(name)
    ledger: Dict[str, float] = defaultdict(float)
    covered = 0
    for a, b, name in self_segments(parent):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        covered += b - a
        if name != "checkpoint.execute_chunks":
            ledger[name] += b - a
            continue
        lo_i, hi_i = bisect.bisect_right(cuts, a), bisect.bisect_left(cuts, b)
        points = [a] + cuts[lo_i:hi_i] + [b]
        for p, q in zip(points, points[1:]):
            i = bisect.bisect_right(cuts, p) - 1
            names = active[i] if 0 <= i < len(cuts) - 1 else []
            if names:
                for n in names:
                    ledger[n] += (q - p) / len(names)
            else:
                ledger["checkpoint.wait"] += q - p
    ledger["unattributed"] = float((hi - lo) - covered)
    return dict(ledger)


def _first_after(times: Sequence[int], t: int) -> Optional[int]:
    i = bisect.bisect_left(times, t)
    return times[i] if i < len(times) else None


def _last_before(times: Sequence[int], t: int) -> Optional[int]:
    i = bisect.bisect_right(times, t)
    return times[i - 1] if i else None


def _common(spans: List[Span], selfs: Dict[str, int], units: int,
            trials: int) -> Dict[str, float]:
    """Metrics of the layers every workload may reach."""
    def dur(*names: str) -> int:
        return _duration(spans, names)

    def named(name: str) -> List[Span]:
        return [s for s in spans if s[2] == name]

    publish = named("shm.publish_draws")
    execs = named("checkpoint.execute_chunks")
    records = named("checkpoint.journal_record")
    kernels = [s for s in spans if s[2] in _KERNELS]
    per_trial = 1.0 / trials if trials else 0.0
    per_unit = 1.0 / units if units else 0.0
    return {
        "rng.seed_ms_per_trial": _ms(dur("rng.generator_for")) * per_trial,
        "samplers.sample_ms_per_trial":
            _ms(dur("samplers.sample_trial_matrix")) * per_trial,
        "samplers.draw_bytes": sum(
            s[5][1] for s in named("samplers.sample_trial_matrix")) * per_unit,
        "shm.publish_ms": _ms(dur("shm.publish_draws")) * per_unit,
        "shm.bytes_published": sum(s[5][0] for s in publish if s[5][1]) * per_unit,
        "shm.cells_engaged": sum(1 for s in publish if s[5][1]) * per_unit,
        "batch.kernel_ms_per_trial": _ms(dur(*_KERNELS)) * per_trial,
        "batch.trials": sum(s[5] for s in kernels) * per_unit,
        "native.kernel_ms_per_trial": _ms(dur(*_NATIVE)) * per_trial,
        "native.load_ms_per_unit": _ms(dur("native.load")) * per_unit,
        "stochastic.self_ms_per_trial":
            _ms(selfs.get("stochastic.trial_ratios", 0)) * per_trial,
        "stats.reduce_ms_per_trial":
            _ms(dur("stats.update", "stats.merge")) * per_trial,
        "runner.self_ms_per_unit": _ms(
            selfs.get("runner.run_sweep", 0) + selfs.get("runner.run_chunk", 0)
        ) * per_unit,
        "checkpoint.chunks": sum(s[5][0] for s in execs) * per_unit,
        "checkpoint.retries": sum(s[5][1] for s in execs) * per_unit,
        "checkpoint.rebuilds": sum(s[5][2] for s in execs) * per_unit,
        "checkpoint.journal_ms_per_record":
            _ms(_mean([s[4] - s[3] for s in records])),
        "checkpoint.journal_records": len(records) * per_unit,
        "checkpoint.dispatch_ms_per_batch": _ms(_mean([s[4] - s[3] for s in execs])),
        "fastpath.ms_per_trial": _ms(sum(
            s[4] - s[3] for s in spans if s[2].startswith("fastpath."))) * per_trial,
        "runtime_study.self_ms_per_trial": _ms(sum(
            v for k, v in selfs.items() if k.startswith("runtime_study."))) * per_trial,
    }


def _zero() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def batch_metrics(
    parent: List[Span], workers: Dict[int, List[Span]],
    window: Tuple[int, int], *, units: int, trials: int,
    journal_bytes: float, overhead: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics and the wall ledger of a batch workload's traced loop."""
    lo, hi = window
    parent = [s for s in parent if lo <= s[3] and s[4] <= hi]
    worker_lists = list(workers.values())
    spans = parent + [s for ws in worker_lists for s in ws]
    selfs: Dict[str, int] = defaultdict(int)
    for proc in [parent] + worker_lists:
        for name, ns in self_time(proc).items():
            selfs[name] += ns
    out = _zero()
    out.update(_common(spans, selfs, units, trials))
    out["checkpoint.journal_bytes"] = journal_bytes
    out["trace_overhead_frac"] = overhead

    chunk_spans = sorted(
        (s for ws in worker_lists for s in ws if s[2] in _WORKER_CHUNKS),
        key=lambda s: s[3])
    starts = [s[3] for s in chunk_spans]
    pool_starts = []
    for s in parent:
        if s[2] == "checkpoint.pool_create":
            first = _first_after(starts, s[3])
            if first is not None:
                pool_starts.append(first - s[3])
    out["checkpoint.pool_start_ms"] = _ms(_mean(pool_starts))
    submits: Dict[str, List[int]] = defaultdict(list)
    for s in parent:
        if s[2] == "checkpoint.submit":
            submits[s[5]].append(s[3])
    waits = []
    for s in chunk_spans:
        sent = _last_before(sorted(submits.get(s[5][0], ())), s[3])
        if sent is not None:
            waits.append(s[3] - sent)
    out["checkpoint.queue_wait_ms"] = _ms(_mean(waits))

    wall = wall_ledger(parent, worker_lists, window)
    out["unattributed_frac"] = wall["unattributed"] / (hi - lo)
    detail = {
        "wall_share": {k: v / (hi - lo) for k, v in sorted(wall.items())},
        "self_ms_per_unit": {k: _ms(v) / units for k, v in sorted(selfs.items())},
        "shm_attach_failures": sum(
            1 for s in spans if s[2] == "shm.attached_draws" and not s[5]),
        "chunks_with_draw_block": sum(1 for s in chunk_spans if s[5][1]),
        "chunks_total": len(chunk_spans),
        "draw_block_share_by_cell": _block_share(chunk_spans),
        "kernel_ms_per_trial_by_algorithm": _kernel_by_algorithm(spans),
        "reduce_ms_per_trial_by_algorithm": _reduce_by_algorithm(worker_lists),
    }
    return out, detail


def _kernel_by_algorithm(spans: List[Span]) -> Dict[str, float]:
    """Batch-kernel time per trial for each algorithm ("hf", "ba", "bahf")."""
    out = {}
    for name in _KERNELS:
        mine = [s for s in spans if s[2] == name]
        rows = sum(s[5] for s in mine)
        if rows:
            out[name.split(".")[1].split("_")[0]] = _ms(_duration(mine, (name,))) / rows
    return out


def _block_share(chunk_spans: List[Span]) -> Dict[str, float]:
    """Per cell: the share of its chunks that read a published draw block."""
    seen: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for s in chunk_spans:
        cell = s[5][0].rsplit(":", 1)[0]
        seen[cell][0] += bool(s[5][1])
        seen[cell][1] += 1
    return {cell: hit / total for cell, (hit, total) in sorted(seen.items())}


def _reduce_by_algorithm(worker_lists: List[List[Span]]) -> Dict[str, float]:
    """Per-algorithm max-reduce + accumulator time per trial in the workers."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for spans in worker_lists:
        kids: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            kids[s[1]].append(s)
        for chunk in spans:
            if chunk[2] != "runner.run_chunk":
                continue
            algo = chunk[5][0].split(":")[0]
            for k in kids[chunk[0]]:
                if k[2] == "stats.update":
                    totals[algo][0] += k[4] - k[3]
                elif k[2] == "stochastic.trial_ratios":
                    inner = kids[k[0]]
                    totals[algo][0] += (k[4] - k[3]) - sum(
                        g[4] - g[3] for g in inner)
                    totals[algo][1] += sum(g[5] for g in inner if g[2] in _KERNELS)
    return {a: _ms(ns) / n for a, (ns, n) in totals.items() if n}


def serve_metrics(
    server: List[Span], client: Dict[int, Tuple[int, int]],
    window: Tuple[int, int], *, late_ms: float, overhead: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of the open-loop phase, joined per request id.

    ``client`` maps request id to its ``(sent_ns, done_ns)`` on the client.
    """
    lo, hi = window
    spans = [s for s in server if lo <= s[3] <= hi]
    # every request served in the window (``client`` holds the timed ones)
    units = sum(1 for s in spans if s[2] == "server.handle_partition")
    trials = sum(s[5] for s in spans if s[2] in _KERNELS)
    selfs = self_time(spans)
    out = _zero()
    out.update(_common(spans, selfs, units, trials))
    out["trace_overhead_frac"] = overhead
    out["loadgen.late_ms"] = late_ms

    def named(name: str) -> List[Span]:
        return [s for s in spans if s[2] == name]

    def us_mean(name: str) -> float:
        return _mean([s[4] - s[3] for s in named(name)]) / 1e3

    out["protocol.parse_us"] = us_mean("protocol.parse")
    out["protocol.encode_us"] = us_mean("protocol.response_payload")
    out["admission.admit_us"] = us_mean("admission.try_admit")
    out["admission.shed"] = sum(
        1 for s in named("admission.try_admit") if s[5] is False) / max(1, units)
    submit_at = {s[5]: s[3] for s in named("batcher.submit")}
    batches = named("batcher.run_batch")
    batch_of = {rid: b for b in batches for rid in b[5]}
    waits = [b[3] - submit_at[rid] for b in batches for rid in b[5]
             if rid in submit_at]
    out["batcher.wait_ms"] = _ms(_mean(waits))
    out["batcher.requests_per_batch"] = _mean([len(b[5]) for b in batches])
    out["batcher.draws_ms_per_request"] = _ms(_mean(
        [s[4] - s[3] for s in named("batcher.request_draws")]))
    handle = {s[5]: s for s in named("server.handle_partition")}
    gaps, total = [], 0
    for rid, (sent, done) in client.items():
        if rid in handle:
            h = handle[rid]
            gaps.append((done - sent) - (h[4] - h[3]))
            total += done - sent
    out["serve.unattributed_ms"] = _ms(_mean(gaps))
    out["unattributed_frac"] = sum(gaps) / total if total else 0.0

    # mean per-request path: where one request's latency goes
    def per_request(name: str) -> float:
        return _ms(_mean([s[4] - s[3] for s in named(name)]))

    batch_ms = _ms(_mean([batch_of[rid][4] - batch_of[rid][3]
                          for rid in client if rid in batch_of]))
    detail = {
        "requests_joined": len(gaps),
        "client_latency_ms": _ms(total / len(gaps)) if gaps else 0.0,
        "path_ms": {
            "protocol.parse": per_request("protocol.parse"),
            "admission.try_admit": per_request("admission.try_admit"),
            "batcher.wait": out["batcher.wait_ms"],
            "batcher.run_batch (whole batch)": batch_ms,
            "server.handle_partition": per_request("server.handle_partition"),
            "server.respond": per_request("server.respond"),
            "unattributed (client - handle)": out["serve.unattributed_ms"],
        },
        "batch_ms": {
            "request_draws (all requests)": _ms(_mean([
                sum(s[4] - s[3] for s in named("batcher.request_draws")
                    if s[5] in b[5]) for b in batches])) if batches else 0.0,
            "execute_chunks": out["checkpoint.dispatch_ms_per_batch"],
            "kernel": _ms(_duration(spans, _KERNELS)) / max(1, len(batches)),
            "response_payload (all requests)":
                _ms(_duration(spans, ("protocol.response_payload",)))
                / max(1, len(batches)),
        },
        "self_ms_per_request": {k: _ms(v) / max(1, units)
                                for k, v in sorted(selfs.items())},
    }
    return out, detail
