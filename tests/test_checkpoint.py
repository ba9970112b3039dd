"""Tests for the crash-safe chunk journal and resumable execution."""

import json

import pytest

from repro.experiments.checkpoint import (
    JOURNAL_FORMAT_VERSION,
    ChunkJournal,
    ChunkQuarantinedError,
    JournalError,
    JournalMismatchError,
    _entry_crc,
    compact_journal,
    execute_chunks,
    fingerprint_digest,
    inspect_journal,
    repair_journal,
)
from repro.experiments.config import StochasticConfig
from repro.experiments.runner import run_sweep, sweep_fingerprint

FP = {"kind": "test", "seed": 7}


def _double(task):
    return task * 2


class _Flaky:
    """Fails the first ``n_failures`` calls, then succeeds."""

    def __init__(self, n_failures):
        self.remaining = n_failures

    def __call__(self, task):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("transient")
        return task * 2


class TestChunkJournal:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", {"x": 1})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["format"] == JOURNAL_FORMAT_VERSION
        assert header["sha256"] == fingerprint_digest(FP)
        entry = json.loads(lines[1])
        crc = entry.pop("crc32")
        assert entry == {"kind": "chunk", "key": "a:0", "payload": {"x": 1}}
        assert crc == _entry_crc("a:0", {"x": 1})

    def test_resume_loads_completed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 1.5, "a:8": 2.5}

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "does-not-exist.jsonl"
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {}
        assert path.exists()

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        with path.open("a") as fh:
            fh.write('{"kind": "chunk", "key": "a:8", "pay')
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 1.5}

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        # corrupting a NON-trailing line is real damage, not a torn tail
        text = path.read_text()
        assert '"key":"a:0"' in text
        path.write_text(text.replace('"key":"a:0"', '"key":"a:0'))
        with pytest.raises(JournalError, match="corrupt"):
            ChunkJournal.open(path, fingerprint=FP, resume=True)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ChunkJournal.open(path, fingerprint=FP).close()
        with pytest.raises(JournalMismatchError, match="different run"):
            ChunkJournal.open(
                path, fingerprint={"kind": "test", "seed": 8}, resume=True
            )

    @pytest.mark.parametrize("first_line", ["[1,2]", "7", '"header"', "null"])
    def test_resume_non_object_header_is_a_journal_error(self, tmp_path, first_line):
        """Valid JSON that is not an object fails like ``inspect_journal``."""
        path = tmp_path / "run.jsonl"
        path.write_text(first_line + "\n")
        with pytest.raises(JournalError) as inspected:
            inspect_journal(path)
        with pytest.raises(JournalError) as resumed:
            ChunkJournal.open(path, fingerprint=FP, resume=True)
        assert str(resumed.value) == str(inspected.value)
        assert "does not start with a header" in str(resumed.value)

    @pytest.mark.parametrize("dup_first", [True, False])
    def test_resume_reports_the_first_damaged_line(self, tmp_path, dup_first):
        """A duplicate key and a corrupt line: the earlier one is named."""
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            for i in range(4):
                journal.record(f"a:{i}", float(i))
        lines = path.read_text().splitlines()
        dup, bad = (2, 4) if dup_first else (4, 2)  # 0-based line indexes
        lines[dup] = lines[1]  # repeats key a:0
        lines[bad] = lines[bad].replace('"crc32":"', '"crc32":"f')
        path.write_text("\n".join(lines) + "\n")
        want = (
            "line 3: duplicate chunk key 'a:0'" if dup_first
            else "line 3: checksum mismatch"
        )
        with pytest.raises(JournalError, match=want):
            ChunkJournal.open(path, fingerprint=FP, resume=True)

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            assert journal.completed == {}
        assert len(path.read_text().splitlines()) == 1


class TestJournalFormat2:
    def test_duplicate_record_raises(self, tmp_path):
        with ChunkJournal.open(tmp_path / "j.jsonl", fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            with pytest.raises(JournalError, match="duplicate"):
                journal.record("a:0", 2.5)
            # the guard left the journal untouched
            assert journal.completed == {"a:0": 1.5}

    def test_checksum_detects_payload_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        # flip one payload digit: the line is still valid JSON and a
        # valid chunk shape -- only the checksum can catch it
        text = path.read_text()
        assert '"payload":1.5' in text
        path.write_text(text.replace('"payload":1.5', '"payload":1.6'))
        with pytest.raises(JournalError, match="checksum") as info:
            ChunkJournal.open(path, fingerprint=FP, resume=True)
        assert "line 2" in str(info.value)

    def test_checksum_corruption_on_last_line_is_fatal(self, tmp_path):
        # a torn write is never parseable JSON, so a parseable last line
        # with a bad checksum is bit rot -- NOT a tolerable torn tail
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        text = path.read_text()
        path.write_text(text.replace('"payload":1.5', '"payload":1.6'))
        with pytest.raises(JournalError, match="checksum"):
            ChunkJournal.open(path, fingerprint=FP, resume=True)

    def test_duplicate_key_in_v2_file_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        line = path.read_text().splitlines()[1]
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(JournalError, match="duplicate"):
            ChunkJournal.open(path, fingerprint=FP, resume=True)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {
            "kind": "header",
            "format": 99,
            "fingerprint": FP,
            "sha256": fingerprint_digest(FP),
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="format"):
            ChunkJournal.open(path, fingerprint=FP, resume=True)


def _write_v1_journal(path, fingerprint, entries):
    """Hand-write a format-1 journal (no per-line checksums)."""
    lines = [
        json.dumps(
            {
                "kind": "header",
                "format": 1,
                "fingerprint": fingerprint,
                "sha256": fingerprint_digest(fingerprint),
            }
        )
    ]
    for key, payload in entries:
        lines.append(json.dumps({"kind": "chunk", "key": key, "payload": payload}))
    path.write_text("\n".join(lines) + "\n")


class TestJournalFormat1Compat:
    def test_v1_journal_still_resumes(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        _write_v1_journal(path, FP, [("a:0", 1.5), ("a:8", 2.5)])
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 1.5, "a:8": 2.5}
            assert journal.format_version == 1

    def test_v1_resume_appends_v1_lines(self, tmp_path):
        # one file never mixes formats: appends follow the header
        path = tmp_path / "v1.jsonl"
        _write_v1_journal(path, FP, [("a:0", 1.5)])
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            journal.record("a:8", 2.5)
        last = json.loads(path.read_text().splitlines()[-1])
        assert "crc32" not in last
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 1.5, "a:8": 2.5}

    def test_v1_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        _write_v1_journal(path, FP, [("a:0", 1.5), ("a:0", 9.5)])
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 9.5}


class TestJournalMaintenance:
    def _corrupt_payload(self, path):
        text = path.read_text()
        assert '"payload":1.5' in text
        path.write_text(text.replace('"payload":1.5', '"payload":1.6'))

    def test_inspect_clean_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        status = inspect_journal(path)
        assert status.ok
        assert status.format == JOURNAL_FORMAT_VERSION
        assert (status.n_chunks, status.n_keys) == (2, 2)
        assert not status.torn_tail

    def test_inspect_reports_issue_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        self._corrupt_payload(path)
        status = inspect_journal(path)
        assert not status.ok
        assert [issue.lineno for issue in status.issues] == [2]
        assert "checksum" in status.issues[0].reason

    def test_repair_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        self._corrupt_payload(path)
        before, kept = repair_journal(path)
        assert not before.ok
        assert kept == 1
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:8": 2.5}

    def test_compact_upgrades_v1_to_v2(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        _write_v1_journal(path, FP, [("a:0", 1.5), ("a:0", 9.5), ("a:8", 2.5)])
        _, kept = compact_journal(path)
        assert kept == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == JOURNAL_FORMAT_VERSION
        for line in lines[1:]:
            entry = json.loads(line)
            assert entry["crc32"] == _entry_crc(entry["key"], entry["payload"])
        # loader equivalence: v1 last-wins survived the upgrade
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"a:0": 9.5, "a:8": 2.5}

    def test_journal_cli_verify_and_repair(self, tmp_path, capsys):
        from repro.experiments.journal_cli import journal_main

        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
            journal.record("a:8", 2.5)
        assert journal_main(["verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        self._corrupt_payload(path)
        assert journal_main(["verify", str(path)]) == 1
        assert "checksum" in capsys.readouterr().out
        assert journal_main(["repair", str(path)]) == 0
        capsys.readouterr()
        assert journal_main(["verify", str(path)]) == 0

    def test_journal_cli_status_and_missing_file(self, tmp_path, capsys):
        from repro.experiments.journal_cli import journal_main

        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        assert journal_main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 distinct keys" in out
        assert journal_main(["status", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such journal" in capsys.readouterr().err

    def test_cli_dispatches_journal_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "j.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("a:0", 1.5)
        assert main(["journal", "verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


class TestExecuteChunks:
    def test_results_in_task_order(self):
        out = execute_chunks(
            [3, 1, 2], _double, keys=["k3", "k1", "k2"], n_jobs=1
        )
        assert out == [6, 2, 4]

    def test_journal_replay_skips_completed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            journal.record("k1", 1111)

            def boom(task):
                raise AssertionError("completed chunk must not re-run")

            out = execute_chunks(
                [1], boom, keys=["k1"], n_jobs=1, journal=journal
            )
        assert out == [1111]

    def test_fresh_chunks_are_journaled(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            execute_chunks(
                [1, 2], _double, keys=["k1", "k2"], n_jobs=1, journal=journal
            )
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            assert journal.completed == {"k1": 2, "k2": 4}

    def test_encode_decode_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal.open(path, fingerprint=FP) as journal:
            execute_chunks(
                [1],
                _double,
                keys=["k1"],
                n_jobs=1,
                journal=journal,
                encode=lambda r: {"value": r},
            )
        with ChunkJournal.open(path, fingerprint=FP, resume=True) as journal:
            out = execute_chunks(
                [1],
                _double,
                keys=["k1"],
                n_jobs=1,
                journal=journal,
                decode=lambda p: p["value"],
            )
        assert out == [2]

    def test_retries_transient_failures(self):
        out = execute_chunks(
            [5], _Flaky(2), keys=["k"], n_jobs=1, retries=2
        )
        assert out == [10]

    def test_retries_exhausted_raises(self):
        with pytest.raises(RuntimeError, match="transient"):
            execute_chunks([5], _Flaky(3), keys=["k"], n_jobs=1, retries=2)

    def test_key_count_must_match(self):
        with pytest.raises(ValueError, match="keys"):
            execute_chunks([1, 2], _double, keys=["k1"], n_jobs=1)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            execute_chunks([1], _double, keys=["k1"], n_jobs=1, retries=-1)


class TestSweepResume:
    def config(self, **overrides):
        kw = dict(n_trials=12, n_values=(4, 8), seed=11, chunk_size=4)
        kw.update(overrides)
        return StochasticConfig.paper_table1(**kw)

    def test_journaled_run_matches_plain(self, tmp_path):
        config = self.config()
        plain = run_sweep(config)
        journaled = run_sweep(config, journal_path=tmp_path / "s.jsonl")
        assert journaled.records == plain.records

    def test_truncated_resume_is_bit_identical(self, tmp_path):
        config = self.config()
        plain = run_sweep(config)
        journal = tmp_path / "s.jsonl"
        run_sweep(config, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        keep = 1 + (len(lines) - 1) // 2
        journal.write_text("".join(lines[:keep]) + '{"kind": "chu')
        resumed = run_sweep(config, journal_path=journal, resume=True)
        assert resumed.records == plain.records

    def test_resume_with_different_n_jobs_is_exact(self, tmp_path):
        plain = run_sweep(self.config())
        journal = tmp_path / "s.jsonl"
        run_sweep(self.config(), journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: len(lines) // 2]))
        resumed = run_sweep(
            self.config(n_jobs=4), journal_path=journal, resume=True
        )
        assert resumed.records == plain.records

    def test_fingerprint_excludes_n_jobs(self):
        assert sweep_fingerprint(self.config()) == sweep_fingerprint(
            self.config(n_jobs=4)
        )

    def test_fingerprint_tracks_config(self):
        assert sweep_fingerprint(self.config()) != sweep_fingerprint(
            self.config(seed=12)
        )

    def test_mismatched_config_refuses_resume(self, tmp_path):
        journal = tmp_path / "s.jsonl"
        run_sweep(self.config(), journal_path=journal)
        with pytest.raises(JournalMismatchError):
            run_sweep(
                self.config(seed=12), journal_path=journal, resume=True
            )


class TestStudyResume:
    def test_truncated_resume_is_bit_identical(self, tmp_path):
        import numpy as np

        from repro.experiments.runtime_study import run_study_cells
        from repro.problems.samplers import UniformAlpha

        cells = [("ba-4", "ba", 4, None), ("hf-8", "hf", 8, None)]
        kw = dict(
            cells=cells,
            sampler=UniformAlpha(0.1, 0.5),
            n_trials=6,
            seed=3,
            chunk_size=2,
        )
        plain = run_study_cells(**kw)
        journal = tmp_path / "study.jsonl"
        run_study_cells(**kw, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: 1 + (len(lines) - 1) // 2]))
        resumed = run_study_cells(**kw, journal_path=journal, resume=True)
        assert sorted(plain) == sorted(resumed)
        for key in plain:
            assert np.array_equal(plain[key], resumed[key])


class TestFaultStudyResume:
    def test_truncated_resume_is_bit_identical(self, tmp_path):
        from repro.experiments.fault_study import run_fault_study

        kw = dict(
            algorithms=("ba",),
            n_values=(8,),
            fault_rates=(0.0, 0.2),
            n_trials=6,
            seed=13,
            chunk_size=2,
        )
        plain = run_fault_study(**kw)
        journal = tmp_path / "fault.jsonl"
        run_fault_study(**kw, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: 1 + (len(lines) - 1) // 2]))
        resumed = run_fault_study(**kw, journal_path=journal, resume=True)
        assert [r.as_dict() for r in resumed.records] == [
            r.as_dict() for r in plain.records
        ]
