"""Tests for the repro-experiments CLI."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sorting"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.trials is None
        assert args.jobs == 1
        assert not args.full

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["figure5", "--trials", "5", "--max-n", "64", "--jobs", "2", "--full"]
        )
        assert args.trials == 5 and args.max_n == 64 and args.jobs == 2
        assert args.full


class TestMain:
    def test_table1_smoke(self, capsys):
        assert main(["table1", "--trials", "5", "--max-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "avg" in out

    def test_figure5_smoke(self, capsys):
        assert main(["figure5", "--trials", "5", "--max-n", "64"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_lambda_smoke(self, capsys):
        assert main(["lambda", "--trials", "5", "--max-n", "64"]) == 0
        assert "lam=2" in capsys.readouterr().out

    def test_runtime_smoke(self, capsys):
        assert main(["runtime", "--max-n", "32"]) == 0
        assert "Runtime study" in capsys.readouterr().out

    def test_nonpow2_smoke(self, capsys):
        assert main(["nonpow2", "--trials", "5"]) == 0
        assert "difference" in capsys.readouterr().out

    def test_csv_written(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert (
            main(
                ["table1", "--trials", "5", "--max-n", "64", "--csv", str(target)]
            )
            == 0
        )
        content = target.read_text()
        assert content.startswith("algorithm,")

    def test_bad_max_n_exits(self):
        with pytest.raises(SystemExit):
            main(["table1", "--trials", "5", "--max-n", "2"])

    def test_topology_smoke(self, capsys):
        assert main(["topology", "--max-n", "64"]) == 0
        assert "Topology study" in capsys.readouterr().out

    def test_worstcase_smoke(self, capsys):
        assert main(["worstcase"]) == 0
        assert "tightness" in capsys.readouterr().out

    def test_distributions_smoke(self, capsys):
        assert main(["distributions", "--trials", "5", "--max-n", "32"]) == 0
        assert "uniform" in capsys.readouterr().out

    def test_families_smoke(self, capsys):
        assert main(["families", "--trials", "40"]) == 0
        assert "fe_tree" in capsys.readouterr().out

    def test_variance_smoke(self, capsys):
        assert main(["variance", "--trials", "5", "--max-n", "64"]) == 0
        assert "CV" in capsys.readouterr().out

    def test_intervals_smoke(self, capsys):
        assert main(["intervals", "--trials", "5", "--max-n", "64"]) == 0
        assert "spread" in capsys.readouterr().out

    def test_env_full_scale(self, monkeypatch, capsys):
        # REPRO_FULL picks the paper grid; cap it via --max-n to stay fast
        monkeypatch.setenv("REPRO_FULL", "1")
        assert main(["table1", "--trials", "2", "--max-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out

    def test_fault_smoke(self, capsys):
        assert main(["fault", "--trials", "3", "--max-n", "32"]) == 0
        assert "Fault study" in capsys.readouterr().out

    def test_fault_csv_written(self, tmp_path, capsys):
        target = tmp_path / "fault.csv"
        assert (
            main(
                [
                    "fault",
                    "--trials",
                    "3",
                    "--max-n",
                    "32",
                    "--fault-rates",
                    "0.0,0.2",
                    "--csv",
                    str(target),
                ]
            )
            == 0
        )
        assert target.read_text().startswith("algorithm,")

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "t1.jsonl"
        argv = [
            "table1",
            "--trials",
            "4",
            "--max-n",
            "64",
            "--journal",
            str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestErrorPaths:
    """Bad inputs exit non-zero with a one-line message, no traceback."""

    def _argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_unknown_engine(self, capsys):
        err = self._argparse_error(
            capsys, ["runtime", "--max-n", "32", "--engine", "warp"]
        )
        assert "--engine" in err

    def test_alpha_out_of_range(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--alpha", "0.7"]
        )
        assert "(0, 0.5]" in err

    def test_alpha_not_a_number(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--alpha", "many"]
        )
        assert "(0, 0.5]" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--trials", "-3"], "--trials must be an integer >= 1"),
            (["table1", "--trials", "0"], "--trials must be an integer >= 1"),
            (["table1", "--jobs", "0"], "--jobs must be an integer >= 1"),
            (["table1", "--deadline", "-1"], "--deadline must be a number > 0"),
        ],
    )
    def test_out_of_range_number(self, argv, message, capsys):
        assert message in self._argparse_error(capsys, argv + ["--max-n", "32"])

    def test_fault_rates_out_of_range(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--fault-rates", "0.1,1.5"]
        )
        assert "[0, 1]" in err

    def test_fault_rates_garbage(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--fault-rates", "a,b"]
        )
        assert "comma-separated" in err

    def test_csv_to_missing_dir_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        rc = main(
            ["table1", "--trials", "2", "--max-n", "64", "--csv", str(target)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write csv" in err
        assert "Traceback" not in err

    def test_json_to_missing_dir_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        rc = main(
            ["table1", "--trials", "2", "--max-n", "64", "--json", str(target)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write json" in err
        assert "Traceback" not in err


class TestFlagScope:
    """--journal/--resume and --chaos-profile/--deadline on an experiment
    that cannot honour them are usage errors, not silently dropped."""

    def _usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_fault_rejects_deadline_and_chaos(self, capsys):
        err = self._usage_error(
            capsys,
            ["fault", "--trials", "2", "--deadline", "0.001",
             "--chaos-profile", "smoke"],
        )
        assert "--chaos-profile/--deadline apply only to table1, figure5" in err
        assert "not fault" in err

    def test_runtime_rejects_journal_deadline_and_chaos(self, tmp_path, capsys):
        journal = tmp_path / "rt.jsonl"
        err = self._usage_error(
            capsys,
            ["runtime", "--max-n", "8", "--journal", str(journal),
             "--deadline", "0.001", "--chaos-profile", "smoke"],
        )
        assert "--journal/--resume apply only to table1, figure5, fault" in err
        assert not journal.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["runtime", "--journal", "JOURNAL"],
            ["lambda", "--resume"],
            ["topology", "--journal", "JOURNAL", "--resume"],
            ["all", "--journal", "JOURNAL"],
        ],
    )
    def test_journal_flags_rejected(self, argv, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        argv = [str(journal) if a == "JOURNAL" else a for a in argv]
        err = self._usage_error(capsys, argv)
        assert "--journal/--resume apply only to table1, figure5, fault" in err
        assert not journal.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["runtime", "--deadline", "1"],
            ["fault", "--chaos-profile", "smoke"],
            ["all", "--deadline", "1"],
            ["report", "--chaos-profile", "smoke"],
        ],
    )
    def test_supervise_flags_rejected(self, argv, capsys):
        err = self._usage_error(capsys, argv)
        assert "--chaos-profile/--deadline apply only to table1, figure5" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lambda", "--trials", "5", "--chaos-seed", "3"],
             "--chaos-seed applies only to table1, figure5, not lambda"),
            (["runtime", "--trials", "5"], "--trials applies only to"),
            (["worstcase", "--full"], "--full applies only to"),
            (["worstcase", "--max-n", "64"], "--max-n applies only to"),
            (["families", "--jobs", "4"], "--jobs applies only to"),
            (["table1", "--backend", "threads"], "unrecognized arguments: --backend"),
            (["worstcase", "--engine", "des"],
             "--engine applies only to runtime, topology, all, not worstcase"),
            (["runtime", "--csv", "OUT"], "--csv applies only to"),
            (["lambda", "--json", "OUT"], "--json applies only to"),
            (["table1", "--out", "OUT"], "--out applies only to report"),
            (["table1", "--fault-rates", "0.1"],
             "--fault-rates applies only to fault, all, not table1"),
            (["figure5", "--alpha", "0.3"], "--alpha applies only to fault, all"),
        ],
    )
    def test_unread_flag_rejected(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in argv]
        err = self._usage_error(capsys, argv)
        assert message in err
        assert not out.exists()

    def test_flag_at_its_default_is_accepted(self, capsys):
        assert main(["worstcase", "--jobs", "1", "--engine", "fastpath"]) == 0

    def test_every_flag_has_a_row(self):
        from repro.experiments.cli import FLAG_READERS

        parser = build_parser()
        dests = {
            a.dest for a in parser._actions if a.option_strings and a.dest != "help"
        }
        scoped = {d for group in FLAG_READERS for d in group}
        assert dests - scoped == {"seed"}  # every experiment reads --seed
        assert scoped <= dests
        (experiments,) = [a.choices for a in parser._actions if a.dest == "experiment"]
        # "all" runs every experiment but "report" and accepts a flag one
        # of them reads, except the journal and chaos flags
        unshared = {"journal", "resume", "chaos_profile", "chaos_seed", "deadline"}
        for group, readers in FLAG_READERS.items():
            assert set(readers) <= set(experiments), group
            read_in_all = bool(set(readers) - {"report", "all"})
            assert ("all" in readers) == (
                read_in_all and not set(group) & unshared
            ), group

    def test_help_names_the_honouring_experiments(self):
        text = " ".join(build_parser().format_help().split())
        assert "crash-safe mode for table1/figure5/fault only" in text
        assert "with --journal (table1/figure5/fault only)" in text
        assert "into the table1/figure5 sweep only" in text
        assert "table1/figure5 only: cancel the sweep" in text


class TestCancellation:
    """The --deadline and SIGTERM cancel paths: exit 130, a [run report]
    stderr line, a resume hint, and a bit-identical --resume."""

    GRID = ["table1", "--trials", "256", "--max-n", "4096"]

    def plain_output(self, capsys):
        assert main(list(self.GRID)) == 0
        return capsys.readouterr().out

    def test_deadline_cancels_with_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        # stretch the run with transient chaos + slow retry backoff (the
        # REPRO_BACKOFF_* env knobs) so the deadline reliably strikes
        monkeypatch.setenv("REPRO_BACKOFF_BASE", "0.25")
        monkeypatch.setenv("REPRO_BACKOFF_CAP", "0.5")
        journal = tmp_path / "t1.jsonl"
        rc = main(
            self.GRID
            + [
                "--journal", str(journal),
                "--chaos-profile", "transient",
                "--deadline", "0.15",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 130, captured.err
        assert "run cancelled" in captured.err
        assert "[run report]" in captured.err
        assert "re-run with --resume" in captured.err
        assert journal.exists()

        # the resume completes the run and renders bit-identically
        monkeypatch.delenv("REPRO_BACKOFF_BASE")
        monkeypatch.delenv("REPRO_BACKOFF_CAP")
        assert main(self.GRID + ["--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == self.plain_output(capsys)

    def test_sigterm_cancels_subprocess_with_exit_130(self, tmp_path, capsys):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        journal = tmp_path / "t1.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo_root / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        env["REPRO_BACKOFF_BASE"] = "0.25"
        env["REPRO_BACKOFF_CAP"] = "0.5"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli"]
            + self.GRID
            + ["--journal", str(journal), "--chaos-profile", "transient"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=repo_root,
            env=env,
        )
        try:
            # wait for real progress (journal header + >= 1 chunk), then
            # interrupt mid-sweep
            deadline = time.time() + 30
            while time.time() < deadline:
                if journal.exists() and len(
                    journal.read_text().splitlines()
                ) >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            assert proc.poll() is None, proc.communicate()[1]
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "run cancelled: SIGTERM received" in stderr
        assert "[run report]" in stderr
        assert "re-run with --resume" in stderr

        # completed chunks survive: the resume replays them and finishes
        # bit-identically to an uninterrupted run
        assert main(self.GRID + ["--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == self.plain_output(capsys)
