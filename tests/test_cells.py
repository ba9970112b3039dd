"""The chunked-cell pipeline (``runner.run_cells``) behind the three grid runners.

``run_sweep``, ``run_study_cells`` and ``run_fault_study`` all run their
cells through ``run_cells``.  These tests pin what that shared pipeline
owes each of them:

* a repeated cell is rejected before any chunk runs (it would otherwise
  double a cell's trials or collide in the journal);
* ``tests/data/journals/{sweep,study,fault}.jsonl`` -- complete journals
  written by the runners before they shared ``run_cells`` -- resume
  without recomputing a single chunk and give a fresh run's results;
* serial, pooled and resumed-from-a-torn-journal runs agree exactly;
* a pooled run samples its draws in the workers only: the parent
  samples no row (a serial run, which does, proves the spy is on the
  sampling path) and publishes no ``/dev/shm`` segment, and study
  cells that share ``(algorithm, N)`` across machine configs still give
  the serial matrices byte for byte.

Regenerate the golden journals (only ever from a tree whose outputs are
trusted) with::

    PYTHONPATH=src python tests/test_cells.py [OUT_DIR]
"""

from __future__ import annotations

import glob
import shutil
import sys
from pathlib import Path

import pytest

from repro.core import _native
from repro.experiments import fault_study, runner, runtime_study, stochastic
from repro.experiments.config import StochasticConfig
from repro.experiments.fault_study import run_fault_study
from repro.experiments.runner import run_sweep
from repro.experiments.runtime_study import run_study_cells
from repro.problems.samplers import UniformAlpha
from repro.simulator.machine import MachineConfig
from repro.simulator.topology import RingTopology

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
    for mode in ("processes", "resume")
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
        assert run(n_jobs=2) == serial


POOLED = [(name, "processes") for name in sorted(RUNNERS)]


def _segments():
    return set(glob.glob("/dev/shm/repro_draws_*"))


@pytest.mark.parametrize("name, pool", POOLED)
def test_pooled_runs_sample_in_workers_only(name, pool, monkeypatch):
    calls = {"parent": 0}

    def counted(real):
        def sample(*args, **kwargs):
            # Forked workers count in their own copy of ``calls``, so only
            # the parent process's calls land here.
            calls["parent"] += 1
            return real(*args, **kwargs)
        return sample

    # Rows are sampled by draw_rows, or inside the kernel for the
    # seeded path (UniformAlpha sweeps and complete-network studies with
    # the native kernels, which ask seeded_rows first); the fault study
    # draws lazily from one SyntheticProblem per trial.
    for entry in ("draw_rows", "seeded_rows"):
        spy = counted(getattr(stochastic, entry))
        for module in (stochastic, runner, runtime_study, fault_study):
            if hasattr(module, entry):
                monkeypatch.setattr(module, entry, spy)
    monkeypatch.setattr(
        _native, "seeded_ratios_native", counted(_native.seeded_ratios_native))
    monkeypatch.setattr(
        fault_study, "SyntheticProblem", counted(fault_study.SyntheticProblem))
    at_start = []
    real_execute = runner.execute_chunks

    def execute_chunks(*args, **kwargs):
        at_start.append(_segments())
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(runner, "execute_chunks", execute_chunks)
    before = _segments()
    RUNNERS[name][0](n_jobs=2)
    assert calls["parent"] == 0
    assert at_start and all(live <= before for live in at_start)
    assert _segments() <= before
    RUNNERS[name][0]()
    assert calls["parent"] >= 1  # the spy sits on the sampling path


#: Two machine configs per (algorithm, N): each cell samples its own
#: rows, and both configs must still see the serial run's instances.
SHARED_CELLS = [
    ((algo, topo), algo, 16, MachineConfig(topology=factory))
    for algo in ("ba", "phf")
    for topo, factory in (("complete", None), ("ring", RingTopology))
]


@pytest.mark.parametrize("phf_phase1", ["central", "ba_prime"])
def test_cells_sharing_algorithm_and_n_are_byte_identical(phf_phase1):
    kw = dict(n_trials=6, seed=13, chunk_size=2, phf_phase1=phf_phase1)
    serial = run_study_cells(SHARED_CELLS, UniformAlpha(0.1, 0.5), **kw)
    pooled = run_study_cells(SHARED_CELLS, UniformAlpha(0.1, 0.5), n_jobs=2, **kw)
    assert list(pooled) == list(serial)
    for key, matrix in serial.items():
        assert pooled[key].tobytes() == matrix.tobytes(), key


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else JOURNALS
    out.mkdir(parents=True, exist_ok=True)
    for name, (run, _) in RUNNERS.items():
        target = out / f"{name}.jsonl"
        target.unlink(missing_ok=True)
        run(journal_path=target)
        print(f"wrote {target}")
