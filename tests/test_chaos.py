"""Tests for the chaos harness and the supervised chunk executor."""

import dataclasses
import os
import pickle
import signal
import threading
import time

import pytest

from repro.chaos import (
    CHAOS_PROFILES,
    FAULT_KINDS,
    ChaosConfig,
    ChaosPlan,
    ChaosSpec,
    ChaosTransientError,
    RunReport,
    chaos_call,
    chaos_plan_for,
)
from repro.chaos.crashpoints import CrashSpec
from repro.experiments.checkpoint import (
    ChunkJournal,
    ChunkQuarantinedError,
    RunCancelledError,
    _backoff_delay,
    execute_chunks,
)

KEYS = [f"cell:{i}" for i in range(30)]
FP = {"kind": "chaos-test", "seed": 1}


def _double(task):
    return task * 2


def _sleepy(task):
    """(duration, value) -> value after sleeping; picklable pool worker."""
    duration, value = task
    time.sleep(duration)
    return value


def _boom(task):
    raise ValueError(f"task {task} always fails")


def _kill_if_worker(task):
    """SIGKILL the process unless it is the parent named in the task.

    A *real* repeat-offender: unlike an injected chaos kill (which fires
    once per scheduled attempt), this dies on every pooled attempt, so it
    exhausts any rebuild budget and forces in-parent degradation.
    """
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


class TestChaosConfig:
    def test_null_by_default(self):
        assert ChaosConfig().is_null

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="probability"):
            ChaosConfig(kill_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            ChaosConfig(kill_rate=0.6, hang_rate=0.6)

    @pytest.mark.parametrize("name", ["hang_seconds", "delay_seconds"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0, "1", True])
    def test_durations_must_be_finite_and_non_negative(self, name, bad):
        # An infinite hang used to pass and then overflow time.sleep in
        # the injector, turning the hang into a generic failed attempt.
        with pytest.raises(
            ValueError, match=f"^{name} must be finite and non-negative, got "
        ):
            ChaosConfig(**{name: bad})

    def test_caps_must_cover_floors(self):
        with pytest.raises(ValueError, match="max_kills"):
            ChaosConfig(min_kills=3, max_kills=1)

    def test_profiles_are_valid(self):
        for name, profile in CHAOS_PROFILES.items():
            assert not profile.is_null, name


class TestChaosPlan:
    def test_deterministic(self):
        config = CHAOS_PROFILES["heavy"]
        a = chaos_plan_for(config, KEYS, seed=42)
        b = chaos_plan_for(config, KEYS, seed=42)
        assert a == b
        assert a.faults == b.faults

    def test_seed_changes_schedule(self):
        config = ChaosConfig(transient_rate=0.5)
        a = chaos_plan_for(config, KEYS, seed=1)
        b = chaos_plan_for(config, KEYS, seed=2)
        assert a.faults != b.faults

    def test_null_config_empty_plan(self):
        plan = chaos_plan_for(ChaosConfig(), KEYS, seed=7)
        assert plan.is_empty
        assert plan.fault_for(KEYS[0], 0) is None

    def test_smoke_profile_guarantees_scenario(self):
        # the acceptance scenario must hold for ANY seed: exactly two
        # kills and one hang (floors == caps in the smoke profile)
        for seed in range(10):
            plan = chaos_plan_for(CHAOS_PROFILES["smoke"], KEYS, seed=seed)
            assert plan.count("kill") == 2, seed
            assert plan.count("hang") == 1, seed

    def test_caps_demote_to_transient(self):
        config = ChaosConfig(kill_rate=1.0, max_kills=2)
        plan = chaos_plan_for(config, KEYS, seed=3)
        assert plan.count("kill") == 2
        assert plan.count("transient") == len(KEYS) - 2

    def test_retry_attempts_never_kill(self):
        config = ChaosConfig(kill_rate=0.9, transient_rate=0.1, faulty_attempts=3)
        plan = chaos_plan_for(config, KEYS, seed=5)
        for key, attempt, kind in plan.faults:
            if attempt >= 1:
                assert kind != "kill", (key, attempt)

    def test_attempts_beyond_budget_are_clean(self):
        config = ChaosConfig(transient_rate=1.0, faulty_attempts=2)
        plan = chaos_plan_for(config, KEYS, seed=5)
        for key in KEYS:
            assert plan.fault_for(key, 0) == "transient"
            assert plan.fault_for(key, 2) is None

    def test_plan_pickles(self):
        plan = chaos_plan_for(CHAOS_PROFILES["smoke"], KEYS, seed=1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        for key in KEYS:
            assert clone.fault_for(key, 0) == plan.fault_for(key, 0)

    def test_describe_counts_every_kind(self):
        plan = chaos_plan_for(CHAOS_PROFILES["smoke"], KEYS, seed=1)
        described = plan.describe()
        assert set(described) == set(FAULT_KINDS)
        assert sum(described.values()) == len(plan.faults)


class TestInjectors:
    def _plan(self, kind, **config_kw):
        config = ChaosConfig(transient_rate=0.1, **config_kw)
        return ChaosPlan(config=config, seed=0, faults=(("k", 0, kind),))

    def test_no_fault_is_transparent(self):
        plan = self._plan("transient")
        assert chaos_call(_double, 21, plan, "other-key", 0, True) == 42
        assert chaos_call(_double, 21, plan, "k", 1, True) == 42

    def test_transient_raises(self):
        plan = self._plan("transient")
        with pytest.raises(ChaosTransientError, match="injected transient"):
            chaos_call(_double, 21, plan, "k", 0, True)

    def test_kill_demoted_in_process(self):
        plan = self._plan("kill")
        with pytest.raises(ChaosTransientError, match="demoted"):
            chaos_call(_double, 21, plan, "k", 0, True)

    def test_delay_returns_late_result(self):
        plan = self._plan("delay", delay_seconds=0.01)
        assert chaos_call(_double, 21, plan, "k", 0, True) == 42

    def test_hang_sleeps_then_computes(self):
        plan = self._plan("hang", hang_seconds=0.05)
        t0 = time.monotonic()
        assert chaos_call(_double, 21, plan, "k", 0, True) == 42
        assert time.monotonic() - t0 >= 0.05


class TestCrashSpec:
    def test_parse_round_trip(self):
        spec = CrashSpec.parse("journal-append:4:9")
        assert spec == CrashSpec(site="journal-append", hit=4, offset=9)
        assert CrashSpec.parse("write-atomic-pre:1").offset == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="site"):
            CrashSpec.parse("nowhere:1")
        with pytest.raises(ValueError, match="integers"):
            CrashSpec.parse("journal-append:x")
        with pytest.raises(ValueError, match="hit"):
            CrashSpec(site="journal-append", hit=0)


class TestBackoff:
    def test_deterministic(self):
        assert _backoff_delay("k", 1, 0.1, 2.0) == _backoff_delay("k", 1, 0.1, 2.0)

    def test_jitter_within_half_to_full(self):
        for attempt in (1, 2, 3):
            raw = min(2.0, 0.1 * 2 ** (attempt - 1))
            delay = _backoff_delay("cell:3", attempt, 0.1, 2.0)
            assert raw / 2 <= delay < raw

    def test_capped(self):
        assert _backoff_delay("k", 30, 0.1, 2.0) < 2.0

    def test_zero_base_disables(self):
        assert _backoff_delay("k", 1, 0.0, 2.0) == 0.0


class TestRunReport:
    def test_as_dict_keys_are_the_fields_plus_accounted(self):
        report = RunReport(n_chunks=2, computed=1, quarantined=["k"],
                           chaos={"kill": 1})
        payload = report.as_dict()
        names = [f.name for f in dataclasses.fields(RunReport)]
        assert list(payload) == names + ["accounted"]
        assert payload["quarantined"] == ["k"]
        assert payload["chaos"] == {"kill": 1}
        assert payload["chaos"] is not report.chaos
        assert payload["accounted"] is True


class TestQuarantine:
    def test_strict_raises_after_completion(self, tmp_path):
        with ChunkJournal.open(tmp_path / "j.jsonl", fingerprint=FP) as journal:
            with pytest.raises(ChunkQuarantinedError, match="always fails") as info:
                execute_chunks(
                    [1, 2, 3],
                    lambda t: _boom(t) if t == 2 else t * 2,
                    keys=["a", "b", "c"],
                    n_jobs=1,
                    retries=1,
                    journal=journal,
                    backoff_base=0.0,
                )
            # the healthy chunks completed (and were journaled) first
            assert set(journal.completed) == {"a", "c"}
            assert info.value.keys == ["b"]
            assert info.value.report.accounted

    def test_non_strict_leaves_none_slot(self):
        report = RunReport()
        out = execute_chunks(
            [1, 2, 3],
            lambda t: _boom(t) if t == 2 else t * 2,
            keys=["a", "b", "c"],
            n_jobs=1,
            retries=0,
            strict=False,
            report=report,
            backoff_base=0.0,
        )
        assert out == [2, None, 6]
        assert report.quarantined == ["b"]
        assert report.accounted
        assert "always fails" in report.errors["b"]


class TestSupervisedPool:
    def _kill_plan(self, keys, victims):
        config = ChaosConfig(kill_rate=0.01)
        return ChaosPlan(
            config=config,
            seed=0,
            faults=tuple((k, 0, "kill") for k in victims),
        )

    def test_pool_rebuilt_after_worker_kill(self, tmp_path):
        keys = [f"k{i}" for i in range(8)]
        plan = self._kill_plan(keys, ["k2", "k5"])
        report = RunReport()
        with ChunkJournal.open(tmp_path / "j.jsonl", fingerprint=FP) as journal:
            out = execute_chunks(
                list(range(8)),
                _double,
                keys=keys,
                n_jobs=2,
                retries=2,
                chaos=plan,
                report=report,
                journal=journal,
                backoff_base=0.0,
            )
            assert out == [i * 2 for i in range(8)]
            assert report.pool_rebuilds >= 1
            assert report.accounted
            assert not report.quarantined
            assert set(journal.completed) == set(keys)
        # no orphans: every worker the run ever spawned is gone
        assert report.worker_pids
        deadline = time.monotonic() + 5.0
        for pid in report.worker_pids:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} still alive after the run")

    def test_rebuild_budget_degrades_to_parent(self):
        # one chunk SIGKILLs every pooled attempt: it breaks the pool,
        # breaks the rebuilt pool, and only succeeds once the exhausted
        # budget degrades execution to the parent process
        parent = os.getpid()
        tasks = [(parent, i) for i in range(6)]
        keys = [f"k{i}" for i in range(6)]
        report = RunReport()
        out = execute_chunks(
            tasks,
            _kill_if_worker,
            keys=keys,
            n_jobs=2,
            retries=6,
            report=report,
            rebuild_budget=1,
            backoff_base=0.0,
        )
        assert out == list(range(6))
        assert report.pool_rebuilds == 1
        assert report.degraded_to_parent
        assert report.in_parent >= 1
        assert report.accounted

    def test_timeout_measured_from_start_not_queue_wait(self):
        # 1 slow chunk + 5 fast ones on 2 workers: total queue wait for
        # the last fast chunk exceeds the deadline, but no fast chunk's
        # own runtime does -- none of them may be charged
        tasks = [(0.9, 0)] + [(0.15, i) for i in range(1, 6)]
        keys = [f"k{i}" for i in range(6)]
        report = RunReport()
        out = execute_chunks(
            tasks,
            _sleepy,
            keys=keys,
            n_jobs=2,
            timeout=0.5,
            retries=0,
            strict=False,
            report=report,
            backoff_base=0.0,
        )
        assert out[1:] == [1, 2, 3, 4, 5]
        assert report.quarantined == ["k0"]
        assert report.timeouts >= 1
        assert report.errors["k0"].startswith("chunk exceeded")

    def test_chunk_queued_for_a_worker_is_not_started(self):
        # two workers: the process pool's call queue holds the third
        # chunk (and reports it running) while the first two execute;
        # only its own 0.3 s may count against the 0.5 s deadline
        report = RunReport()
        out = execute_chunks(
            [(0.3, i) for i in range(3)],
            _sleepy,
            keys=["a", "b", "c"],
            n_jobs=2,
            timeout=0.5,
            retries=0,
            strict=False,
            report=report,
            backoff_base=0.0,
        )
        assert out == [0, 1, 2]
        assert report.timeouts == 0
        assert not report.quarantined


class TestCancellation:
    def test_run_deadline_flushes_journal_first(self, tmp_path):
        tasks = [(0.01, 0), (0.01, 1), (5.0, 2), (5.0, 3)]
        keys = [f"k{i}" for i in range(4)]
        report = RunReport()
        with ChunkJournal.open(tmp_path / "j.jsonl", fingerprint=FP) as journal:
            with pytest.raises(RunCancelledError, match="deadline"):
                execute_chunks(
                    tasks,
                    _sleepy,
                    keys=keys,
                    n_jobs=2,
                    journal=journal,
                    report=report,
                    run_deadline=0.5,
                    backoff_base=0.0,
                )
            assert report.cancelled
            # the fast chunks finished before the deadline and survived
            assert {"k0", "k1"} <= set(journal.completed)

    def test_sigterm_cancels_gracefully(self):
        report = RunReport()
        timer = threading.Timer(
            0.3, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            with pytest.raises(RunCancelledError, match="SIGTERM"):
                execute_chunks(
                    [(1.0, i) for i in range(4)],
                    _sleepy,
                    keys=[f"k{i}" for i in range(4)],
                    n_jobs=2,
                    report=report,
                    cancel_on_sigterm=True,
                    backoff_base=0.0,
                )
        finally:
            timer.cancel()
        assert report.cancelled
        # the handler was restored: SIGTERM behaves normally again
        assert signal.getsignal(signal.SIGTERM) in (
            signal.SIG_DFL,
            signal.default_int_handler,
        ) or callable(signal.getsignal(signal.SIGTERM))


class TestChaosBitIdentity:
    def test_empty_plan_matches_plain_execution(self):
        plan = chaos_plan_for(ChaosConfig(), KEYS[:6], seed=9)
        plain = execute_chunks(list(range(6)), _double, keys=KEYS[:6], n_jobs=1)
        stormy = execute_chunks(
            list(range(6)), _double, keys=KEYS[:6], n_jobs=1, chaos=plan
        )
        assert stormy == plain

    def test_transient_chaos_is_bit_identical(self):
        config = ChaosConfig(transient_rate=0.4, delay_rate=0.2, delay_seconds=0.0)
        plan = chaos_plan_for(config, KEYS[:8], seed=3)
        assert not plan.is_empty
        report = RunReport()
        plain = execute_chunks(list(range(8)), _double, keys=KEYS[:8], n_jobs=1)
        stormy = execute_chunks(
            list(range(8)),
            _double,
            keys=KEYS[:8],
            n_jobs=1,
            retries=2,
            chaos=plan,
            report=report,
            backoff_base=0.0,
        )
        assert stormy == plain
        assert report.retries >= 1
        assert report.accounted
