"""Crash-consistency: SIGKILL *real* runs at injected crash points.

These tests launch a journaled ``run_sweep`` in a subprocess, arm a
crash point via the ``REPRO_CHAOS_CRASH`` environment variable
(:mod:`repro.chaos.crashpoints`), and let the victim die by SIGKILL at
the worst possible byte -- mid-journal-append, or between an atomic
write's fsync and its rename.  The contract under test:

* the surviving journal passes ``journal verify`` (a torn trailing
  line is the accepted crash artifact, never silent corruption);
* a resumed run completes and is **bit-identical** to a run that never
  crashed, for both execution backends;
* ``write_atomic`` never exposes a torn artifact: after a crash before
  the rename, the previous file content is intact.
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.checkpoint import inspect_journal
from repro.experiments.config import StochasticConfig
from repro.experiments.journal_cli import journal_main
from repro.experiments.runner import run_sweep

CONFIG_KW = dict(n_trials=12, n_values=(4, 8), seed=11, chunk_size=4)

VICTIM_SWEEP = textwrap.dedent(
    """
    import sys
    from dataclasses import replace
    from repro.experiments.config import StochasticConfig
    from repro.experiments.runner import run_sweep

    config = StochasticConfig.paper_table1(
        n_trials=12, n_values=(4, 8), seed=11, chunk_size=4
    )
    journal_path, backend, n_jobs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    config = replace(config, n_jobs=n_jobs)
    run_sweep(config, backend=backend, journal_path=journal_path)
    """
)

VICTIM_ATOMIC = textwrap.dedent(
    """
    import sys
    from repro.experiments.io import write_atomic

    write_atomic(sys.argv[1], "old artifact\\n")   # hit 1: survives
    write_atomic(sys.argv[1], "new artifact\\n")   # hit 2: dies pre-rename
    """
)


def _run_victim(code, args, crash_spec):
    """Run a victim script until its injected SIGKILL; returns (rc, stderr).

    The victim runs in its own session: when the parent of a process
    pool is SIGKILLed, its workers are orphaned holding the inherited
    stderr pipe (that unreapable mess is precisely what a real crash
    leaves behind), so the harness must wait on the *child only* and
    then clear the whole process group itself.
    """
    env = dict(os.environ)
    env["REPRO_CHAOS_CRASH"] = crash_spec
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *[str(a) for a in args]],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # no survivors to clean up
        _unlink_victim_segments(proc.pid)
    _, err = proc.communicate(timeout=30)
    return returncode, err.decode()


def _unlink_victim_segments(pid):
    """Unlink the shared-memory draw blocks a SIGKILLed victim published.

    The victim dies before its ``finally`` can release them, so nothing
    else ever would (``repro.experiments.shm`` names them by the
    publisher's pid).
    """
    pattern = os.path.join("/dev/shm", f"repro_draws_{pid}_*")
    for path in glob.glob(pattern):
        os.unlink(path)
    assert not glob.glob(pattern)


class TestJournalCrash:
    @pytest.mark.parametrize("backend,n_jobs", [("processes", 2), ("threads", 2)])
    def test_sigkill_mid_append_resumes_bit_identical(
        self, tmp_path, backend, n_jobs
    ):
        journal = tmp_path / "crash.jsonl"
        returncode, stderr = _run_victim(
            VICTIM_SWEEP, [journal, backend, n_jobs], "journal-append:4:9"
        )
        assert returncode == -9, stderr
        # the journal survived with real, fsynced progress + a torn tail
        status = inspect_journal(journal)
        assert status.ok
        assert status.torn_tail
        assert status.n_keys >= 1
        assert journal_main(["verify", str(journal)]) == 0
        # resume completes the run bit-identically to a crash-free one
        config = StochasticConfig.paper_table1(**CONFIG_KW)
        plain = run_sweep(config)
        resumed = run_sweep(config, journal_path=journal, resume=True)
        assert resumed.records == plain.records

    def test_sigkill_without_torn_bytes(self, tmp_path):
        # offset 0: the process dies before writing any byte of the line
        journal = tmp_path / "crash.jsonl"
        returncode, stderr = _run_victim(
            VICTIM_SWEEP, [journal, "processes", 1], "journal-append:3"
        )
        assert returncode == -9, stderr
        status = inspect_journal(journal)
        assert status.ok
        assert not status.torn_tail
        config = StochasticConfig.paper_table1(**CONFIG_KW)
        plain = run_sweep(config)
        resumed = run_sweep(config, journal_path=journal, resume=True)
        assert resumed.records == plain.records


class TestAtomicWriteCrash:
    def test_crash_before_rename_keeps_old_artifact(self, tmp_path):
        target = tmp_path / "artifact.txt"
        returncode, stderr = _run_victim(VICTIM_ATOMIC, [target], "write-atomic-post:2")
        assert returncode == -9, stderr
        assert target.read_text() == "old artifact\n"

    def test_crash_before_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "artifact.txt"
        returncode, stderr = _run_victim(VICTIM_ATOMIC, [target], "write-atomic-pre:1")
        assert returncode == -9, stderr
        assert not target.exists()
