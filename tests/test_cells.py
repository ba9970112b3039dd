"""The chunked-cell pipeline (``runner.run_cells``) behind the three grid runners.

``run_sweep``, ``run_study_cells`` and ``run_fault_study`` all run their
cells through ``run_cells``.  These tests pin what that shared pipeline
owes each of them:

* a repeated cell is rejected before any chunk runs (it would otherwise
  double a cell's trials or collide in the journal);
* ``tests/data/journals/{sweep,study,fault}.jsonl`` -- complete journals
  written by the runners before they shared ``run_cells`` -- resume
  without recomputing a single chunk and give a fresh run's results;
* serial, pooled (processes, and threads where the runner has a backend)
  and resumed-from-a-torn-journal runs agree exactly.

Regenerate the golden journals (only ever from a tree whose outputs are
trusted) with::

    PYTHONPATH=src python tests/test_cells.py [OUT_DIR]
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from repro.experiments import fault_study, runner, runtime_study
from repro.experiments.config import StochasticConfig
from repro.experiments.fault_study import run_fault_study
from repro.experiments.runner import run_sweep
from repro.experiments.runtime_study import run_study_cells
from repro.problems.samplers import UniformAlpha
from repro.simulator.machine import MachineConfig

JOURNALS = Path(__file__).parent / "data" / "journals"

STUDY_CELLS = [(("ba", 8), "ba", 8, None), (("phf", 8), "phf", 8, MachineConfig())]


# The golden journals were written with exactly these parameters.
def sweep(n_jobs=1, **kw):
    config = StochasticConfig.paper_table1(
        n_trials=6, n_values=(4, 8), seed=11, chunk_size=3, n_jobs=n_jobs
    )
    return run_sweep(config, **kw).records


def study(**kw):
    out = run_study_cells(
        STUDY_CELLS, UniformAlpha(0.1, 0.5), n_trials=4, seed=5, chunk_size=2, **kw
    )
    return {key: matrix.tolist() for key, matrix in out.items()}


def fault(**kw):
    result = run_fault_study(
        algorithms=("hf", "ba"),
        n_values=(8,),
        fault_rates=(0.0, 0.2),
        n_trials=4,
        seed=7,
        chunk_size=2,
        **kw,
    )
    return [rec.as_dict() for rec in result.records]


#: name -> (runner, its chunk worker as (module, attribute))
RUNNERS = {
    "sweep": (sweep, (runner, "_run_chunk")),
    "study": (study, (runtime_study, "_study_chunk")),
    "fault": (fault, (fault_study, "_fault_chunk")),
}


class TestDuplicateCells:
    def test_sweep_rejects_repeated_n(self, tmp_path):
        config = StochasticConfig.paper_table1(
            n_trials=4, n_values=(8, 8), algorithms=("hf",), seed=1
        )
        journal = tmp_path / "s.jsonl"
        with pytest.raises(ValueError, match="duplicate cells: hf:8"):
            run_sweep(config, journal_path=journal)
        assert not journal.exists()

    def test_study_rejects_repeated_cell_key(self, tmp_path):
        cells = [("k", "ba", 8, None), ("k", "hf", 8, None)]
        journal = tmp_path / "s.jsonl"
        with pytest.raises(ValueError, match="duplicate cells: 'k'"):
            run_study_cells(
                cells, UniformAlpha(0.1, 0.5), n_trials=4, seed=1,
                journal_path=journal,
            )
        assert not journal.exists()

    @pytest.mark.parametrize(
        "algorithms, n_values",
        [(("hf",), (8, 8)), (("hf", "HF"), (8,))],
    )
    def test_fault_study_rejects_repeated_cell(self, algorithms, n_values, tmp_path):
        journal = tmp_path / "f.jsonl"
        with pytest.raises(ValueError, match="duplicate cells"):
            run_fault_study(
                algorithms=algorithms, n_values=n_values, fault_rates=(0.0,),
                n_trials=4, seed=1, journal_path=journal,
            )
        assert not journal.exists()

    def test_rejected_before_any_chunk_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fault_study, "_fault_chunk", calls.append)
        with pytest.raises(ValueError, match="duplicate cells"):
            run_fault_study(
                algorithms=("hf",), n_values=(8, 8), fault_rates=(0.0,),
                n_trials=4, seed=1,
            )
        assert calls == []


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_golden_journal_resumes_without_recomputation(name, tmp_path, monkeypatch):
    run, (module, worker) = RUNNERS[name]
    fresh = run()
    journal = tmp_path / f"{name}.jsonl"
    shutil.copy(JOURNALS / f"{name}.jsonl", journal)
    before = journal.read_bytes()

    def no_compute(task):
        raise AssertionError(f"chunk recomputed on resume: {task!r}")

    monkeypatch.setattr(module, worker, no_compute)
    assert run(journal_path=journal, resume=True) == fresh
    assert journal.read_bytes() == before


MODES = [
    (name, mode)
    for name in sorted(RUNNERS)
    for mode in ("processes", "threads", "resume")
    if not (name == "fault" and mode == "threads")  # fault study: no backend
]


@pytest.mark.parametrize("name, mode", MODES)
def test_serial_pooled_and_resumed_runs_agree(name, mode, tmp_path):
    run = RUNNERS[name][0]
    serial = run()
    if mode == "resume":
        journal = tmp_path / f"{name}.jsonl"
        run(journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        keep = 1 + (len(lines) - 1) // 2  # header + half the chunks
        journal.write_text("".join(lines[:keep]) + '{"kind": "chu')  # torn tail
        assert run(n_jobs=2, journal_path=journal, resume=True) == serial
    else:
        kw = {} if mode == "processes" else {"backend": "threads"}
        assert run(n_jobs=2, **kw) == serial


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else JOURNALS
    out.mkdir(parents=True, exist_ok=True)
    for name, (run, _) in RUNNERS.items():
        target = out / f"{name}.jsonl"
        target.unlink(missing_ok=True)
        run(journal_path=target)
        print(f"wrote {target}")
