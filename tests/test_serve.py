"""Tests for the partitioning service (``repro.serve``).

Unit coverage of the protocol, admission control, circuit breaker and
micro-batching engine, then the two end-to-end guarantees the issue's
robustness archetype is about:

* **chaos e2e** -- a real server with worker SIGKILLs and hangs injected
  into its first batches must give every request a terminal HTTP
  outcome, return ratios bit-identical to a direct
  :func:`repro.experiments.stochastic.trial_ratios` call no matter
  which faults fired or how requests were batched, trip the circuit
  breaker onto the degraded NumPy path, recover through the half-open
  probe, and account for everything in its :class:`ServeReport`.
* **graceful drain** -- SIGTERM on a real subprocess stops the listener,
  flushes in-flight work, writes the report atomically and exits 0.
"""

import asyncio
import dataclasses
import http.client
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import CHAOS_PROFILES, ChaosConfig, ChaosSpec
from repro.core import batch as batch_module
from repro.core.batch import FRONTIER_MAX_N, FRONTIER_MIN_TRIALS
from repro.core.metrics import summarize_ratios
from repro.experiments.stochastic import _trial_factory, draw_rows, trial_ratios
from repro.problems import BetaAlpha, DiscreteAlpha, FixedAlpha, UniformAlpha
from repro.serve.admission import AdmissionController, LatencyWindow
from repro.serve.batcher import (
    BatchEngine,
    BatchFailedError,
    MicroBatcher,
    _fallback_method,
    _Pending,
    request_draws,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.protocol import (
    MAX_N,
    MAX_TRIALS,
    PartitionRequest,
    ProtocolError,
)
from repro.serve.report import ServeReport
from repro.serve.server import PartitionServer, ServeConfig, build_parser
from repro.utils.rng import SeedSequenceFactory

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def expected_ratios(body):
    """What a direct trial_ratios call returns for a request body."""
    ratios = trial_ratios(
        body.get("algorithm", "hf"),
        body["n"],
        FixedAlpha(body.get("alpha", 0.25)),
        n_trials=body.get("trials", 16),
        seed=body.get("seed", 0),
    )
    return summarize_ratios(ratios).as_dict()


async def http_request(host, port, path="/v1/partition", body=None,
                       method=None):
    """One raw HTTP/1.1 exchange; returns (status, payload, headers)."""
    if method is None:
        method = "POST" if body is not None else "GET"
    reader, writer = await asyncio.open_connection(host, port)
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Connection: close\r\nContent-Length: {len(data)}\r\n\r\n"
        ).encode("latin-1")
        + data
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(payload) if payload else {}, headers


async def start_server(**overrides):
    config = ServeConfig(port=0, install_signals=False, **overrides)
    server = PartitionServer(config)
    host, port = await server.start()
    drain_task = asyncio.create_task(server.serve_until_drained())
    return server, host, port, drain_task


def hold_batches(server):
    """Gate the server's engine: no batch runs until the event is set."""
    gate = asyncio.Event()
    run_batch = server.engine.run_batch

    async def gated(items):
        await gate.wait()
        await run_batch(items)

    server.engine.run_batch = gated
    return gate


async def stop_server(server, drain_task):
    server.request_drain()
    await drain_task


def make_request(**overrides):
    kw = dict(
        algorithm="hf", n=32, sampler=FixedAlpha(0.3), n_trials=4, seed=0
    )
    kw.update(overrides)
    return PartitionRequest(**kw)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_defaults(self):
        req = PartitionRequest.parse({"n": 64})
        assert req.algorithm == "hf"
        assert req.n == 64
        assert req.sampler == FixedAlpha(0.25)
        assert req.n_trials == 16
        assert req.seed == 0
        assert req.lam == 1.0
        assert req.deadline_s is None

    def test_alpha_shorthand_and_sampler_dict_agree(self):
        via_alpha = PartitionRequest.parse({"n": 8, "alpha": 0.3})
        via_dict = PartitionRequest.parse(
            {"n": 8, "sampler": {"kind": "fixed", "value": 0.3}}
        )
        assert via_alpha.sampler == via_dict.sampler

    def test_uniform_sampler_dict(self):
        req = PartitionRequest.parse(
            {"n": 8, "sampler": {"kind": "uniform", "low": 0.1, "high": 0.4}}
        )
        assert req.sampler == UniformAlpha(0.1, 0.4)

    def test_alpha_and_sampler_together_rejected(self):
        with pytest.raises(ProtocolError, match="not both"):
            PartitionRequest.parse(
                {"n": 8, "alpha": 0.3, "sampler": {"kind": "fixed", "value": 0.3}}
            )

    def test_deadline_ms_converted_to_seconds(self):
        req = PartitionRequest.parse({"n": 8, "deadline_ms": 250})
        assert req.deadline_s == pytest.approx(0.25)

    def test_group_key_excludes_seed(self):
        a = make_request(seed=1)
        b = make_request(seed=2)
        assert a.group_key == b.group_key

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([1, 2], "JSON object"),
            ({"n": 8, "bogus": 1}, "unknown fields"),
            ({"n": 8, "algorithm": "quicksort"}, "algorithm"),
            ({}, "missing required field 'n'"),
            ({"n": 0}, "n must be in"),
            ({"n": MAX_N + 1}, "n must be in"),
            ({"n": 8.5}, "n must be an integer"),
            ({"n": True}, "n must be an integer"),
            ({"n": 8, "trials": 0}, "trials"),
            ({"n": 8, "trials": MAX_TRIALS + 1}, "trials"),
            ({"n": 8, "alpha": "wide"}, "alpha must be a number"),
            ({"n": 8, "alpha": 0.7}, "invalid sampler"),
            ({"n": 8, "sampler": "fixed"}, "sampler must be an object"),
            ({"n": 8, "sampler": {"kind": "cauchy"}}, "invalid sampler"),
            ({"n": 8, "lam": 0.5}, "lam must be >="),
            ({"n": 8, "lam": float("nan")}, "lam must be >="),
            ({"n": 8, "deadline_ms": 0}, "deadline_ms"),
            ({"n": 8, "deadline_ms": 10_000_000}, "deadline_ms"),
            ({"n": 8, "deadline_ms": "soon"}, "deadline_ms"),
        ],
    )
    def test_invalid_payloads_rejected(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            PartitionRequest.parse(payload)

    def test_request_draws_matches_trial_ratios_input(self):
        """The batcher's per-request draw matrix is the determinism anchor:
        feeding it back through trial_ratios reproduces the direct call."""
        req = make_request(n_trials=6, seed=9)
        draws = request_draws(req)
        assert draws.shape == (6, req.n - 1)
        direct = trial_ratios(
            req.algorithm, req.n, req.sampler, n_trials=6, seed=9
        )
        via_draws = trial_ratios(
            req.algorithm, req.n, req.sampler, n_trials=6, seed=9, draws=draws
        )
        assert (direct == via_draws).all()


# ----------------------------------------------------------------------
# draw rows (the determinism anchor)
# ----------------------------------------------------------------------


def generator_rows(algorithm, n, sampler, *, seed, start, stop, n_draws):
    """The per-trial-generator rows every caller built before draw_rows."""
    factory = _trial_factory(algorithm, n, seed)
    rngs = [factory.generator_for(t) for t in range(start, stop)]
    return sampler.sample_trial_matrix(rngs, n_draws)


SAMPLERS = (
    UniformAlpha(0.1, 0.5),
    FixedAlpha(0.3),
    BetaAlpha(2.0, 5.0),
    DiscreteAlpha(values=(0.1, 0.3, 0.5)),
)


class TestDrawRows:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.describe())
    @pytest.mark.parametrize("start", (0, 5))
    @pytest.mark.parametrize("n", (1, 2, 257))
    def test_bit_identical_to_per_trial_generators(self, sampler, start, n):
        # both widths in use: N-1 (sweeps, serving) and max(1, N-1)
        # (the runtime study)
        for algorithm, n_draws in (("hf", max(0, n - 1)), ("bahf", max(1, n - 1))):
            rows = draw_rows(
                algorithm, n, sampler,
                seed=9, start=start, stop=start + 4, n_draws=n_draws,
            )
            expected = generator_rows(
                algorithm, n, sampler,
                seed=9, start=start, stop=start + 4, n_draws=n_draws,
            )
            assert rows.shape == expected.shape == (4, n_draws)
            assert rows.dtype == expected.dtype
            assert rows.tobytes() == expected.tobytes()

    def test_fixed_alpha_builds_no_generator(self, monkeypatch):
        def no_generator(self, trial):
            raise AssertionError("a generator was built for FixedAlpha")

        monkeypatch.setattr(SeedSequenceFactory, "generator_for", no_generator)
        rows = draw_rows(
            "ba", 64, FixedAlpha(0.25), seed=3, start=5, stop=9, n_draws=63
        )
        assert rows.shape == (4, 63) and (rows == 0.25).all()
        request_draws(make_request(algorithm="bahf", sampler=FixedAlpha(0.25)))
        trial_ratios("hf", 64, FixedAlpha(0.25), n_trials=4, seed=3)

    @pytest.mark.parametrize("sampler", (FixedAlpha(0.3), UniformAlpha(0.1, 0.5)))
    def test_rejects_empty_trial_range_and_negative_width(self, sampler):
        with pytest.raises(ValueError, match="at least one trial"):
            draw_rows("hf", 8, sampler, seed=0, start=3, stop=3, n_draws=7)
        with pytest.raises(ValueError):
            draw_rows("hf", 8, sampler, seed=0, start=0, stop=2, n_draws=-1)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestLatencyWindow:
    def test_empty_window_has_no_quantile(self):
        assert LatencyWindow().p99 is None

    def test_nearest_rank(self):
        window = LatencyWindow(size=10)
        for v in (0.1, 0.2, 0.3, 0.4):
            window.observe(v)
        assert window.quantile(0.0) == 0.1
        assert window.quantile(1.0) == 0.4
        assert window.quantile(0.5) == 0.3

    def test_window_slides(self):
        window = LatencyWindow(size=2)
        for v in (9.0, 1.0, 2.0):
            window.observe(v)
        assert window.quantile(1.0) == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LatencyWindow(size=0)
        with pytest.raises(ValueError):
            LatencyWindow().observe(-1.0)
        with pytest.raises(ValueError):
            LatencyWindow().quantile(1.5)


class TestAdmissionController:
    def test_sheds_at_max_inflight(self):
        ctrl = AdmissionController(max_inflight=2)
        assert ctrl.try_admit().admitted
        assert ctrl.try_admit().admitted
        decision = ctrl.try_admit()
        assert not decision.admitted
        assert "queue full" in decision.reason
        assert decision.retry_after_s > 0
        ctrl.release()
        assert ctrl.try_admit().admitted

    def test_p99_budget_sheds_after_min_samples(self):
        ctrl = AdmissionController(
            p99_budget_s=0.010, min_latency_samples=4
        )
        # below the sample floor the budget never sheds
        for _ in range(3):
            ctrl.try_admit()
            ctrl.release(1.0)
        assert ctrl.try_admit().admitted
        ctrl.release(1.0)
        decision = ctrl.try_admit()
        assert not decision.admitted
        assert "over budget" in decision.reason
        assert decision.retry_after_s <= 10.0

    def test_recovers_once_latencies_fall(self):
        window = LatencyWindow(size=4)
        ctrl = AdmissionController(
            p99_budget_s=0.010, window=window, min_latency_samples=4
        )
        for _ in range(4):
            window.observe(1.0)
        assert not ctrl.try_admit().admitted
        for _ in range(4):
            window.observe(0.001)
        assert ctrl.try_admit().admitted

    def test_unmatched_release_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_after_s", 5.0)
        return CircuitBreaker(clock=clock, **kw), clock

    def test_stays_closed_below_threshold(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow_native()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_trips_at_threshold_and_blocks(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow_native()

    def test_half_open_probe_is_single_permit(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow_native()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow_native()  # second caller waits

    def test_probe_success_closes_and_counts_recovery(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow_native()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert breaker.allow_native()

    def test_probe_failure_reopens_with_fresh_window(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow_native()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.now += 4.9
        assert not breaker.allow_native()
        clock.now += 0.2
        assert breaker.allow_native()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0.0)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


class TestServeReport:
    def test_accounted_requires_terminal_outcomes(self):
        report = ServeReport()
        assert report.accounted
        report.received = 3
        assert not report.accounted
        report.completed = 1
        report.shed = 1
        report.invalid = 1
        assert report.accounted

    def test_note_error_keeps_a_bounded_tail(self):
        report = ServeReport()
        for i in range(20):
            report.note_error(f"e{i}")
        assert len(report.last_errors) == 8
        assert report.last_errors[-1] == "e19"

    def test_as_dict_round_trips_through_json(self):
        report = ServeReport(received=2, completed=2, drained=True)
        payload = json.loads(json.dumps(report.as_dict(extra={"x": 1})))
        assert payload["accounted"] is True
        assert payload["drained"] is True
        assert payload["x"] == 1

    def test_as_dict_keys_are_the_fields_plus_accounted(self):
        report = ServeReport(received=1, last_errors=["boom"])
        payload = report.as_dict()
        names = [f.name for f in dataclasses.fields(ServeReport)]
        assert list(payload) == names + ["accounted"]
        assert payload["last_errors"] == ["boom"]
        assert payload["last_errors"] is not report.last_errors
        assert payload["accounted"] is False


# ----------------------------------------------------------------------
# batch engine
# ----------------------------------------------------------------------


class TestBatchEngine:
    def settle(self, requests, **engine_kw):
        """Submit requests through a MicroBatcher; return their payloads."""

        async def scenario():
            engine_kw.setdefault("report", ServeReport())
            engine = BatchEngine(**engine_kw)
            batcher = MicroBatcher(engine)
            futures = [batcher.submit(r) for r in requests]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.drain()
            return engine, results

        return asyncio.run(scenario())

    def test_mixed_batch_matches_direct_trial_ratios(self):
        requests = [
            make_request(algorithm="hf", n=32, seed=1),
            make_request(algorithm="ba", n=32, seed=2),
            make_request(algorithm="bahf", n=64, seed=3, lam=2.0),
            make_request(algorithm="hf", n=32, seed=4),
        ]
        engine, results = self.settle(requests)
        assert engine.report.batches == 1
        assert engine.report.max_batch_requests == 4
        for req, payload in zip(requests, results):
            direct = trial_ratios(
                req.algorithm, req.n, req.sampler,
                n_trials=req.n_trials, seed=req.seed, lam=req.lam,
            )
            assert payload["ratios"] == summarize_ratios(direct).as_dict()
            assert payload["batched_with"] == 4
            assert not payload["degraded"]

    def test_lone_task_splits_for_the_pool_path(self):
        """With >1 worker a single-group batch is halved so the supervised
        executor's pool path (>= 2 pending chunks) engages; the halves
        must reassemble into exactly the unsplit rows."""

        async def scenario():
            engine = BatchEngine(report=ServeReport(), workers=2)
            items = [
                _Pending(make_request(seed=s), asyncio.get_running_loop()
                         .create_future(), None)
                for s in (1, 2)
            ]
            plain_tasks, _ = engine._build(items, split=False)
            split_tasks, slices = engine._build(items, split=True)
            return plain_tasks, split_tasks, slices

        plain_tasks, split_tasks, slices = asyncio.run(scenario())
        assert len(plain_tasks) == 1 and len(split_tasks) == 2
        rejoined = np.concatenate(
            [split_tasks[0]["draws"], split_tasks[1]["draws"]]
        )
        assert (rejoined == plain_tasks[0]["draws"]).all()
        # every request's slice pieces cover exactly its n_trials rows
        for sl in slices:
            rows = sum(stop - start for _, start, stop in sl.task_idx)
            assert rows == sl.item.request.n_trials

    def test_degraded_path_is_bit_identical(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()  # breaker open: NumPy fallback, inline
        requests = [make_request(seed=7), make_request(algorithm="ba", seed=8)]
        engine, results = self.settle(requests, breaker=breaker, workers=2)
        for req, payload in zip(requests, results):
            assert payload["degraded"]
            direct = trial_ratios(
                req.algorithm, req.n, req.sampler,
                n_trials=req.n_trials, seed=req.seed,
            )
            assert payload["ratios"] == summarize_ratios(direct).as_dict()

    def test_degraded_hf_above_the_frontier_cap(self, monkeypatch):
        """A degraded HF request at N above FRONTIER_MAX_N runs the heapq
        oracle per trial, bit-identical to trial_ratios."""

        def refuse(*args):
            raise AssertionError("the frontier ran above its cap")

        monkeypatch.setattr(batch_module, "_hf_frontier", refuse)
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()  # breaker open: NumPy fallback, inline
        req = make_request(n=FRONTIER_MAX_N + 1, n_trials=16, seed=9)
        _, results = self.settle([req], breaker=breaker)
        assert results[0]["degraded"]
        direct = trial_ratios(
            req.algorithm, req.n, req.sampler,
            n_trials=req.n_trials, seed=req.seed,
        )
        assert results[0]["ratios"] == summarize_ratios(direct).as_dict()

    def test_quarantined_batch_fails_its_requests(self):
        chaos = ChaosSpec(
            config=ChaosConfig(transient_rate=1.0, faulty_attempts=99),
            seed=3,
        )
        engine, results = self.settle(
            [make_request()], chaos=chaos, chaos_batches=1, retries=1,
        )
        assert len(results) == 1
        assert isinstance(results[0], BatchFailedError)
        assert engine.report.quarantined_batches == 1
        assert engine.report.exec_retries >= 1

    def test_hedge_answers_a_straggling_batch(self):
        """A chaos hang longer than the hedge delay makes the inline hedge
        win; the answer is still bit-identical (determinism makes
        first-wins safe) and the hedge is accounted."""
        chaos = ChaosSpec(
            config=ChaosConfig(
                hang_rate=1.0, min_hangs=1, max_hangs=1, hang_seconds=0.8
            ),
            seed=5,
        )
        requests = [make_request(seed=11), make_request(seed=12)]
        engine, results = self.settle(
            requests,
            chaos=chaos,
            chaos_batches=1,
            hedge_after_s=0.05,
        )
        assert engine.report.hedges == 1
        assert engine.report.hedge_wins == 1
        for req, payload in zip(requests, results):
            assert payload["degraded"]  # hedge rode the fallback path
            direct = trial_ratios(
                req.algorithm, req.n, req.sampler,
                n_trials=req.n_trials, seed=req.seed,
            )
            assert payload["ratios"] == summarize_ratios(direct).as_dict()

    def test_fallback_method_selection(self):
        # HF follows the one measured (N, n_trials) rule in core.batch:
        # the frontier iff N / FRONTIER_MAX_N + FRONTIER_MIN_TRIALS / T < 1.
        max_n, min_t = FRONTIER_MAX_N, FRONTIER_MIN_TRIALS
        for algorithm in ("hf", "phf"):
            assert _fallback_method(algorithm, 1, min_t) == "heap"
            assert _fallback_method(algorithm, 1, min_t + 1) == "frontier"
            assert _fallback_method(algorithm, max_n // 2, 2 * min_t) == "heap"
            assert (
                _fallback_method(algorithm, max_n // 2, 2 * min_t + 1)
                == "frontier"
            )
            assert _fallback_method(algorithm, max_n - 1, max_n * min_t) == "heap"
            assert (
                _fallback_method(algorithm, max_n - 1, max_n * min_t + 1)
                == "frontier"
            )
            assert _fallback_method(algorithm, max_n, 1 << 30) == "heap"
        assert _fallback_method("ba", 4096, 256) == "frontier"
        assert _fallback_method("bahf", 4096, 256) == "frontier"


# ----------------------------------------------------------------------
# micro-batcher: idle dispatch, queue-as-next-batch
# ----------------------------------------------------------------------


class NoTimerLoop(asyncio.SelectorEventLoop):
    """An event loop that fails the moment anything arms a timer."""

    def call_at(self, when, callback, *args, context=None):
        raise AssertionError("a timer was armed")


class RecordingEngine:
    """Engine stub: records each batch's seeds and answers with the seed."""

    def __init__(self):
        self.batches = []

    async def run_batch(self, items):
        self.batches.append([item.request.seed for item in items])
        for item in items:
            item.future.set_result(item.request.seed)

    async def drain_background(self):
        pass


class GatedEngine(BatchEngine):
    """The real engine, with its first batch held until ``gate`` is set."""

    def __init__(self, gate):
        super().__init__(report=ServeReport())
        self.gate = gate
        self.batches = []
        self.running = 0
        self.most_running = 0

    async def run_batch(self, items):
        self.batches.append([item.request.seed for item in items])
        self.running += 1
        self.most_running = max(self.most_running, self.running)
        try:
            if len(self.batches) == 1:
                await self.gate.wait()
            await super().run_batch(items)
        finally:
            self.running -= 1


async def until(predicate, limit=100):
    """Yield to the loop until ``predicate()`` holds; return the yields."""
    for yields in range(1, limit + 1):
        await asyncio.sleep(0)
        if predicate():
            return yields
    raise AssertionError("condition never held")


class TestMicroBatcher:
    def test_idle_request_dispatches_after_one_yield_without_a_timer(self):
        async def scenario():
            engine = RecordingEngine()
            batcher = MicroBatcher(engine)
            lone = batcher.submit(make_request(seed=1))
            assert engine.batches == []  # submit never dispatches inline
            # one yield runs the batcher's own sleep(0), the next dispatches
            yields = await until(lambda: engine.batches)
            assert await lone == 1
            # requests submitted in the same loop turn share one batch
            pair = [batcher.submit(make_request(seed=s)) for s in (2, 3)]
            await asyncio.gather(*pair)
            await batcher.drain()
            return engine, yields

        loop = NoTimerLoop()
        try:
            engine, yields = loop.run_until_complete(scenario())
        finally:
            loop.close()
        assert yields == 2
        assert engine.batches == [[1], [2, 3]]

    @pytest.mark.parametrize(
        "max_requests, sizes", [(8, [1, 4]), (3, [1, 3, 1])]
    )
    def test_queue_becomes_the_next_batch(self, max_requests, sizes):
        requests = [
            make_request(algorithm=algo, seed=seed)
            for seed, algo in enumerate(("hf", "ba", "bahf", "hf", "ba"))
        ]

        async def scenario():
            gate = asyncio.Event()
            engine = GatedEngine(gate)
            batcher = MicroBatcher(engine, max_requests=max_requests)
            futures = [batcher.submit(requests[0])]
            await until(lambda: engine.batches)
            futures += [batcher.submit(r) for r in requests[1:]]
            for _ in range(10):
                await asyncio.sleep(0)
            # nothing overtakes the batch in flight: the rest queue
            assert engine.batches == [[0]]
            gate.set()
            results = await asyncio.gather(*futures)
            await batcher.drain()
            return engine, results

        engine, results = asyncio.run(scenario())
        assert [len(b) for b in engine.batches] == sizes
        assert sum(engine.batches, []) == [r.seed for r in requests]
        assert engine.most_running == 1  # batches never overlap
        size_of = {seed: len(b) for b in engine.batches for seed in b}
        for req, payload in zip(requests, results):
            direct = trial_ratios(
                req.algorithm, req.n, req.sampler,
                n_trials=req.n_trials, seed=req.seed,
            )
            assert payload["ratios"] == summarize_ratios(direct).as_dict()
            assert payload["batched_with"] == size_of[req.seed]

    def test_request_settled_while_queued_is_not_dispatched(self):
        async def scenario():
            gate = asyncio.Event()
            engine = GatedEngine(gate)
            batcher = MicroBatcher(engine)
            first = batcher.submit(make_request(seed=0))
            await until(lambda: engine.batches)
            expired = batcher.submit(make_request(seed=1))
            waiting = batcher.submit(make_request(seed=2))
            expired.cancel()  # what asyncio.wait_for does on a deadline
            gate.set()
            await asyncio.gather(first, waiting)
            await batcher.drain()
            return engine

        engine = asyncio.run(scenario())
        assert engine.batches == [[0], [2]]


# ----------------------------------------------------------------------
# server routes (in-process, no chaos)
# ----------------------------------------------------------------------


class TestServerRoutes:
    def test_health_stats_and_errors(self):
        async def scenario():
            server, host, port, drain_task = await start_server()
            out = {}
            out["healthz"] = await http_request(host, port, "/healthz")
            out["readyz"] = await http_request(host, port, "/readyz")
            out["missing"] = await http_request(host, port, "/nope")
            out["get_partition"] = await http_request(
                host, port, "/v1/partition", method="GET"
            )
            out["bad_json"] = await http_request(
                host, port, body="not json"
            )
            out["bad_field"] = await http_request(
                host, port, body={"n": 8, "bogus": 1}
            )
            out["ok"] = await http_request(
                host, port, body={"n": 32, "alpha": 0.3, "trials": 4, "seed": 2}
            )
            out["stats"] = await http_request(host, port, "/stats")
            await stop_server(server, drain_task)
            return server, out

        server, out = asyncio.run(scenario())
        assert out["healthz"][0] == 200
        assert out["readyz"][0] == 200 and out["readyz"][1]["ready"]
        assert out["missing"][0] == 404
        assert out["get_partition"][0] == 405
        assert out["bad_json"][0] == 400
        assert out["bad_field"][0] == 400
        status, payload, _ = out["ok"]
        assert status == 200
        assert payload["ratios"] == expected_ratios(
            {"n": 32, "alpha": 0.3, "trials": 4, "seed": 2}
        )
        assert payload["bound"] > 1.0
        stats = out["stats"][1]
        assert stats["breaker_state"] == CLOSED
        assert stats["received"] == 3  # bad_json + bad_field + ok
        assert stats["invalid"] == 2
        report = server.report
        assert report.accounted and report.drained
        assert report.completed == 1 and report.invalid == 2

    def test_admission_sheds_with_retry_after(self):
        async def scenario():
            # one slot, and a gated engine holds the first request back
            # until the second has arrived
            server, host, port, drain_task = await start_server(max_inflight=1)
            gate = hold_batches(server)
            first = asyncio.create_task(
                http_request(host, port, body={"n": 16, "trials": 2})
            )
            await asyncio.sleep(0.05)
            second = await http_request(
                host, port, body={"n": 16, "trials": 2, "seed": 1}
            )
            gate.set()
            first = await first
            await stop_server(server, drain_task)
            return server, first, second

        server, first, second = asyncio.run(scenario())
        assert first[0] == 200
        status, payload, headers = second
        assert status == 429
        assert "shedding load" in payload["error"]
        assert int(headers["retry-after"]) >= 1
        assert server.report.shed == 1
        assert server.report.accounted

    def test_expired_deadline_is_a_504(self):
        async def scenario():
            server, host, port, drain_task = await start_server()
            gate = hold_batches(server)
            result = await http_request(
                host, port, body={"n": 16, "trials": 2, "deadline_ms": 20}
            )
            gate.set()
            await stop_server(server, drain_task)
            return server, result

        server, (status, payload, _) = asyncio.run(scenario())
        assert status == 504
        assert "deadline" in payload["error"]
        assert server.report.expired == 1
        assert server.report.accounted  # expiry is a terminal outcome

    def test_default_deadline_bounds_the_kernel_attempt(self):
        """A request without deadline_ms still bounds its kernel attempt
        by --default-deadline-s, so a hung pool attempt is cut off."""

        async def scenario():
            server, host, port, drain_task = await start_server(
                default_deadline_s=2.0
            )
            timeouts = []
            dispatch = server.engine._dispatch_blocking

            def recording(tasks, keys, *, native, timeout, chaos):
                timeouts.append(timeout)
                return dispatch(
                    tasks, keys, native=native, timeout=timeout, chaos=chaos
                )

            server.engine._dispatch_blocking = recording
            result = await http_request(
                host, port, body={"n": 16, "trials": 2}
            )
            await stop_server(server, drain_task)
            return result, timeouts

        (status, _, _), timeouts = asyncio.run(scenario())
        assert status == 200
        assert len(timeouts) == 1
        assert timeouts[0] is not None and 0 < timeouts[0] <= 2.0


# ----------------------------------------------------------------------
# the e2e chaos guarantee
# ----------------------------------------------------------------------


class TestChaosEndToEnd:
    def test_deterministic_accounted_and_recovers(self, tmp_path):
        """Worker SIGKILLs + a hang in the first batches: every request
        still reaches a terminal outcome, every 200 is bit-identical to
        the direct computation, the breaker degrades then recovers, and
        the drained report accounts for everything."""
        report_path = tmp_path / "serve_report.json"

        async def scenario():
            server, host, port, drain_task = await start_server(
                workers=2,
                retries=3,
                breaker_threshold=2,
                breaker_reset_s=0.75,
                chaos=ChaosSpec(config=CHAOS_PROFILES["smoke"], seed=1),
                chaos_batches=2,
                report_path=str(report_path),
            )
            algos = ("hf", "ba", "bahf", "hf", "ba", "bahf", "hf", "ba")
            outcomes = []
            for wave in range(4):
                bodies = [
                    {
                        "algorithm": algo,
                        "n": 32,
                        "alpha": 0.3,
                        "trials": 8,
                        "seed": wave * 10 + i,
                    }
                    for i, algo in enumerate(algos)
                ]
                replies = await asyncio.gather(
                    *[http_request(host, port, body=b) for b in bodies]
                )
                outcomes.extend(zip(bodies, replies))
                if wave == 2:
                    # let the breaker's reset window pass so the final
                    # wave rides the half-open probe back to native
                    await asyncio.sleep(0.9)
            await stop_server(server, drain_task)
            return server, outcomes

        server, outcomes = asyncio.run(scenario())

        # no silent drops: every request got a terminal HTTP outcome
        statuses = [status for _, (status, _, _) in outcomes]
        assert len(statuses) == 32
        assert all(status in (200, 500, 504) for status in statuses)

        # determinism: every 200 is bit-identical to the direct call,
        # whether it was served natively, degraded, or mid-fault
        oks = [
            (body, payload)
            for body, (status, payload, _) in outcomes
            if status == 200
        ]
        assert len(oks) >= 24  # faults may 500 a batch, not most of them
        for body, payload in oks:
            assert payload["ratios"] == expected_ratios(body), body

        report = server.report
        assert report.accounted, report.summary()
        assert report.drained
        assert report.received == 32
        assert report.chaos_batches >= 1
        assert report.worker_deaths >= 1, report.summary()
        assert report.breaker_trips >= 1, report.summary()
        assert report.degraded >= 1  # served while the breaker was open
        # the half-open probe restored the native path
        assert report.breaker_recoveries >= 1 or server.breaker.state == CLOSED

        # the drained report was written atomically and agrees
        persisted = json.loads(report_path.read_text())
        assert persisted["accounted"] and persisted["drained"]
        assert persisted["received"] == 32
        assert persisted["breaker_state"] == server.breaker.state


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------


class TestServeCli:
    """An out-of-range number is a usage error (exit 2) at parse time,
    before any socket opens; ``--backend`` no longer exists."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--default-deadline-s", "0"], "--default-deadline-s must be > 0"),
            (["--default-deadline-s", "-1"], "--default-deadline-s must be > 0"),
            (["--breaker-reset-s", "0"], "--breaker-reset-s must be > 0"),
            (["--breaker-threshold", "0"], "--breaker-threshold must be >= 1"),
            (["--hedge-after-ms", "-5"], "--hedge-after-ms must be > 0"),
            (["--hedge-after-ms", "0"], "--hedge-after-ms must be > 0"),
            (["--p99-budget-ms", "-3"], "--p99-budget-ms must be > 0"),
            (["--p99-budget-ms", "0"], "--p99-budget-ms must be > 0"),
            (["--chaos-batches", "-1"], "--chaos-batches must be >= 0"),
            (["--workers", "0"], "--workers must be >= 1"),
            (["--port", "-1"], "--port must be in [0, 65535]"),
            (["--backend", "threads"], "unrecognized arguments: --backend"),
        ],
    )
    def test_bad_flag_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# graceful drain of a real process
# ----------------------------------------------------------------------


class TestSigtermDrain:
    def test_sigterm_drains_writes_report_and_exits_zero(self, tmp_path):
        report_path = tmp_path / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--report", str(report_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            body = {"n": 32, "alpha": 0.3, "trials": 4, "seed": 5}
            conn.request(
                "POST", "/v1/partition", json.dumps(body),
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            conn.close()
            assert resp.status == 200
            assert payload["ratios"] == expected_ratios(body)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        assert rc == 0, stderr
        assert "[serve report]" in stderr
        persisted = json.loads(report_path.read_text())
        assert persisted["accounted"] and persisted["drained"]
        assert persisted["received"] == 1 and persisted["completed"] == 1
