"""Command-line entry point: regenerate every table and figure.

Usage (installed as ``repro-experiments``, or ``python -m repro.experiments``):

    repro-experiments table1   [--trials T] [--max-n N] [--jobs J]
                               [--backend processes|threads] [--csv F]
    repro-experiments figure5  [--trials T] [--max-n N] [--jobs J] [--csv F]
    repro-experiments lambda   [--trials T] [--max-n N] [--jobs J]
    repro-experiments variance [--trials T] [--max-n N] [--jobs J]
    repro-experiments intervals [--trials T] [--max-n N] [--jobs J]
    repro-experiments nonpow2  [--trials T] [--jobs J]
    repro-experiments runtime  [--max-n N] [--jobs J] [--engine E]
    repro-experiments fault    [--trials T] [--max-n N] [--fault-rates R,R,..]
    repro-experiments all      [--trials T] [--max-n N] [--jobs J]

``FLAG_READERS`` lists which experiments read each flag.

``--full`` (or ``REPRO_FULL=1``) selects the paper-scale grid
(N up to 2^20, 1000 trials) -- expect hours of compute in pure Python.

``--journal FILE`` makes the table1/figure5 sweeps and the fault study
crash-safe: completed trial chunks are durably appended to FILE and
``--resume`` continues an interrupted run bit-identically.  ``journal
verify|status|repair|compact FILE`` maintains such files (see
:mod:`repro.experiments.journal_cli`).

``--chaos-profile NAME [--chaos-seed S]`` injects a deterministic
OS-level fault schedule (killed workers, hangs, transient errors,
delays; see :mod:`repro.chaos`) into the table1/figure5 sweeps -- the
supervised executor must still produce bit-identical results.  Off by
default; only for testing the harness itself.  ``--deadline SECONDS``
cancels a table1/figure5 sweep gracefully.

An experiment given a flag it does not read (``--journal`` on
``runtime``, ``--backend`` on ``worstcase``, ...) is a usage error
(exit 2), never a silently ignored flag.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments.config import (
    BACKENDS,
    DEFAULT_N_VALUES,
    ENGINES,
    PAPER_N_VALUES,
    full_scale_requested,
)
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.interval_study import (
    render_interval_study,
    run_interval_study,
)
from repro.experiments.lambda_study import render_lambda_study, run_lambda_study
from repro.experiments.nonpow2_study import (
    render_nonpow2_study,
    run_nonpow2_study,
)
from repro.experiments.runtime_study import (
    render_runtime_study,
    run_runtime_study,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.tables import sweep_to_csv
from repro.experiments.variance_study import (
    render_variance_study,
    run_variance_study,
)
from repro.experiments.topology_study import (
    render_topology_study,
    run_topology_study,
)
from repro.experiments.distribution_study import (
    render_distribution_study,
    run_distribution_study,
)
from repro.experiments.worstcase_study import (
    render_worstcase_study,
    run_worstcase_study,
)

__all__ = ["main", "build_parser"]

_GRID_STUDIES = ("table1", "figure5", "lambda", "variance", "intervals")
_SIZED = _GRID_STUDIES + (
    "nonpow2", "fault", "families", "distributions", "report", "all",
)

#: Flag (argparse ``dest``) groups -> the experiments whose branch of
#: :func:`main` reads them.  Any other experiment given one of them at a
#: value other than its default is a usage error (exit 2).  ``all`` runs
#: every experiment but ``report`` and accepts a flag one of them reads,
#: except the journal and chaos flags: an ``all`` run would have every
#: experiment fight over one journal file.  Every experiment reads
#: ``--seed``.
FLAG_READERS = {
    ("journal", "resume"): ("table1", "figure5", "fault"),
    ("chaos_profile", "deadline"): ("table1", "figure5"),
    ("chaos_seed",): ("table1", "figure5"),
    ("trials",): _SIZED,
    ("full",): _SIZED,
    ("max_n",): _GRID_STUDIES
    + ("runtime", "fault", "topology", "distributions", "report", "all"),
    ("jobs",): _GRID_STUDIES
    + ("nonpow2", "runtime", "fault", "topology", "distributions", "report", "all"),
    ("backend",): ("table1", "figure5", "runtime", "topology", "all"),
    ("engine",): ("runtime", "topology", "all"),
    ("csv",): ("table1", "figure5", "fault", "all"),
    ("json",): ("table1", "figure5", "all"),
    ("out",): ("report",),
    ("fault_rates",): ("fault", "all"),
    ("alpha",): ("fault", "all"),
}


def _parse_fault_rates(text: str) -> tuple:
    """Comma-separated floats in [0, 1]; argparse-friendly errors."""
    try:
        rates = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not rates:
        raise argparse.ArgumentTypeError("needs at least one fault rate")
    for rate in rates:
        if rate != rate or not (0.0 <= rate <= 1.0):
            raise argparse.ArgumentTypeError(
                f"fault rates must be in [0, 1], got {rate!r}"
            )
    return rates


def _parse_alpha(text: str) -> float:
    """A bisection guarantee in (0, 1/2]; argparse-friendly errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number in (0, 0.5], got {text!r}"
        ) from None
    if value != value or not (0.0 < value <= 0.5):
        raise argparse.ArgumentTypeError(
            f"alpha must be in (0, 0.5], got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'Parallel Load Balancing for "
            "Problems with Good Bisectors' (IPPS 1999)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "figure5",
            "lambda",
            "variance",
            "intervals",
            "nonpow2",
            "runtime",
            "fault",
            "topology",
            "worstcase",
            "distributions",
            "families",
            "report",
            "all",
        ],
        help=(
            "which artifact to regenerate ('journal verify|status|"
            "repair|compact FILE' maintains chunk journals)"
        ),
    )
    parser.add_argument("--trials", type=int, default=None, help="trials per cell")
    parser.add_argument(
        "--max-n", type=int, default=None, help="largest processor count"
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="processes",
        help=(
            "parallel backend for --jobs > 1 on the chunked runners "
            "(table1/figure5/runtime/topology): worker processes "
            "('processes', default) or an in-process thread pool "
            "('threads'; the native kernels release the GIL).  Results "
            "are bit-identical either way"
        ),
    )
    parser.add_argument("--seed", type=int, default=20260706)
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="fastpath",
        help=(
            "machine-model evaluation engine for the runtime/topology "
            "studies: closed-form batched kernels ('fastpath', default; "
            "bit-identical to the DES) or the discrete-event simulator "
            "('des')"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale grid (N up to 2^20, 1000 trials); hours of compute",
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="also write raw records as CSV"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="also archive the sweep (table1/figure5) as reloadable JSON",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="output path for the 'report' experiment (default REPORT.md)",
    )
    parser.add_argument(
        "--fault-rates",
        type=_parse_fault_rates,
        default=None,
        metavar="R,R,..",
        help=(
            "comma-separated fault rates in [0, 1] for the 'fault' "
            "experiment (default 0.0,0.02,0.05,0.1,0.2)"
        ),
    )
    parser.add_argument(
        "--alpha",
        type=_parse_alpha,
        default=None,
        help=(
            "fix the bisection parameter to a single value in (0, 0.5] "
            "instead of sampling it (fault experiment)"
        ),
    )
    parser.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "crash-safe mode for table1/figure5/fault only: append "
            "completed trial chunks to FILE as they finish"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --journal (table1/figure5/fault only): replay completed "
            "chunks from an existing journal (bit-identical) and compute "
            "only the missing ones"
        ),
    )
    parser.add_argument(
        "--chaos-profile",
        choices=sorted(_chaos_profile_names()),
        default=None,
        help=(
            "inject a deterministic OS-level fault schedule into the "
            "table1/figure5 sweep only (kill/hang/transient/delay; for "
            "testing the supervised executor -- results must stay "
            "bit-identical)"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault schedule (default 0)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "table1/figure5 only: cancel the sweep gracefully after "
            "SECONDS (completed chunks are flushed to the journal first; "
            "exit code 130)"
        ),
    )
    return parser


def _chaos_profile_names() -> List[str]:
    from repro.chaos import CHAOS_PROFILES

    return list(CHAOS_PROFILES)


def _grid(args: argparse.Namespace) -> tuple:
    """(n_values, n_trials) for the chosen scale."""
    full = args.full or full_scale_requested()
    n_values = PAPER_N_VALUES if full else DEFAULT_N_VALUES
    if args.max_n is not None:
        n_values = tuple(n for n in n_values if n <= args.max_n)
        if not n_values:
            raise SystemExit(f"--max-n {args.max_n} removes every N value")
    trials = args.trials if args.trials is not None else (1000 if full else 200)
    return n_values, trials


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "journal":
        from repro.experiments.journal_cli import journal_main

        return journal_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    for dests, readers in FLAG_READERS.items():
        if args.experiment in readers:
            continue
        if any(getattr(args, d) != parser.get_default(d) for d in dests):
            flags = "/".join("--" + d.replace("_", "-") for d in dests)
            verb = "apply" if len(dests) > 1 else "applies"
            parser.error(
                f"{flags} {verb} only to {', '.join(readers)}, "
                f"not {args.experiment}"
            )
    if args.experiment == "report":
        from repro.experiments.report import generate_report

        target = args.out or "REPORT.md"
        n_values, trials = _grid(args)
        path = generate_report(
            target,
            n_trials=trials,
            full=args.full or full_scale_requested(),
            max_n=args.max_n,
            seed=args.seed,
            n_jobs=args.jobs,
        )
        print(f"report written to {path}")
        return 0
    n_values, trials = _grid(args)
    kw = dict(n_trials=trials, n_values=n_values, seed=args.seed, n_jobs=args.jobs)

    outputs: List[str] = []
    csv_payload: Optional[str] = None
    json_sweep = None

    # --journal/--resume apply to the sweeps and the fault study (main
    # rejects them elsewhere; an "all" run would have every experiment
    # fight over one journal file).
    journal_kw = {}
    if args.journal:
        journal_kw = {"journal_path": args.journal, "resume": args.resume}

    # --chaos-profile/--deadline drive the supervised executor on the
    # sweep experiments; a RunReport collects the accounting either way.
    # A journaled sweep also cancels gracefully on SIGTERM (completed
    # chunks are flushed first and the exit message names the resume
    # command), so an operator's `kill` never wastes finished work.
    supervise_kw = {}
    run_report = None
    if args.experiment in ("table1", "figure5") and (
        args.chaos_profile is not None or args.deadline is not None or journal_kw
    ):
        from repro.chaos import CHAOS_PROFILES, ChaosSpec, RunReport

        run_report = RunReport()
        supervise_kw["report"] = run_report
        if args.chaos_profile is not None:
            supervise_kw["chaos"] = ChaosSpec(
                config=CHAOS_PROFILES[args.chaos_profile],
                seed=args.chaos_seed,
            )
        if args.deadline is not None:
            supervise_kw["run_deadline"] = args.deadline
        if args.deadline is not None or journal_kw:
            supervise_kw["cancel_on_sigterm"] = True

    from repro.experiments.checkpoint import RunCancelledError

    try:
        if args.experiment in ("table1", "all"):
            result = run_table1(
                **kw,
                backend=args.backend,
                **journal_kw,
                **supervise_kw,
            )
            outputs.append(render_table1(result))
            csv_payload = sweep_to_csv(result)
            json_sweep = result
        if args.experiment in ("figure5", "all"):
            result = run_figure5(
                **kw,
                backend=args.backend,
                **journal_kw,
                **supervise_kw,
            )
            outputs.append(render_figure5(result))
            if args.experiment == "figure5":
                csv_payload = sweep_to_csv(result)
                json_sweep = result
    except RunCancelledError as exc:
        print(f"run cancelled: {exc}", file=sys.stderr)
        print(f"[run report] {exc.report.summary()}", file=sys.stderr)
        if args.journal:
            print(
                f"[journal] completed chunks are in {args.journal}; "
                "re-run with --resume to continue",
                file=sys.stderr,
            )
        return 130
    finally:
        if run_report is not None and not run_report.cancelled:
            print(f"[run report] {run_report.summary()}", file=sys.stderr)
    if args.experiment in ("lambda", "all"):
        outputs.append(render_lambda_study(run_lambda_study(**kw)))
    if args.experiment in ("variance", "all"):
        outputs.append(render_variance_study(run_variance_study(**kw)))
    if args.experiment in ("intervals", "all"):
        outputs.append(render_interval_study(run_interval_study(**kw)))
    if args.experiment in ("nonpow2", "all"):
        outputs.append(
            render_nonpow2_study(
                run_nonpow2_study(
                    n_trials=trials, seed=args.seed, n_jobs=args.jobs
                )
            )
        )
    if args.experiment in ("runtime", "all"):
        runtime_ns = tuple(
            n for n in (2**k for k in range(2, 11)) if args.max_n is None or n <= args.max_n
        )
        outputs.append(
            render_runtime_study(
                run_runtime_study(
                    n_values=runtime_ns,
                    seed=args.seed,
                    engine=args.engine,
                    n_jobs=args.jobs,
                    backend=args.backend,
                )
            )
        )
    if args.experiment in ("fault", "all"):
        from repro.experiments.fault_study import (
            DEFAULT_FAULT_RATES,
            render_fault_study,
            run_fault_study,
        )
        from repro.problems.samplers import FixedAlpha

        fault_ns = tuple(
            n for n in (32, 64) if args.max_n is None or n <= args.max_n
        )
        if not fault_ns:
            fault_ns = (32,)
        fault_result = run_fault_study(
            n_values=fault_ns,
            fault_rates=args.fault_rates or DEFAULT_FAULT_RATES,
            sampler=FixedAlpha(args.alpha) if args.alpha is not None else None,
            n_trials=min(trials, 50) if args.experiment == "all" else trials,
            seed=args.seed,
            n_jobs=args.jobs,
            **journal_kw,
        )
        outputs.append(render_fault_study(fault_result))
        if args.experiment == "fault":
            header = list(fault_result.records[0].as_dict())
            rows = [
                ",".join(str(rec.as_dict()[k]) for k in header)
                for rec in fault_result.records
            ]
            csv_payload = "\n".join([",".join(header)] + rows) + "\n"
    if args.experiment in ("topology", "all"):
        topo_ns = tuple(
            n for n in (16, 64, 256) if args.max_n is None or n <= args.max_n
        )
        outputs.append(
            render_topology_study(
                run_topology_study(
                    n_values=topo_ns,
                    seed=args.seed,
                    engine=args.engine,
                    n_jobs=args.jobs,
                    backend=args.backend,
                )
            )
        )
    if args.experiment in ("worstcase", "all"):
        outputs.append(render_worstcase_study(run_worstcase_study(seed=args.seed)))
    if args.experiment in ("families", "all"):
        from repro.experiments.families_study import (
            render_families_study,
            run_families_study,
        )

        outputs.append(
            render_families_study(
                run_families_study(
                    n_instances=max(5, trials // 20), seed=args.seed
                )
            )
        )
    if args.experiment in ("distributions", "all"):
        dist_ns = tuple(
            n for n in (32, 128, 512) if args.max_n is None or n <= args.max_n
        )
        outputs.append(
            render_distribution_study(
                run_distribution_study(
                    n_trials=trials, n_values=dist_ns, seed=args.seed, n_jobs=args.jobs
                )
            )
        )

    print("\n\n".join(outputs))
    if args.csv and csv_payload is not None:
        from repro.experiments.io import write_atomic

        try:
            write_atomic(args.csv, csv_payload)
        except OSError as exc:
            print(f"error: cannot write csv to {args.csv}: {exc}", file=sys.stderr)
            return 1
        print(f"\n[csv written to {args.csv}]", file=sys.stderr)
    if args.json and json_sweep is not None:
        from repro.experiments.io import save_sweep

        try:
            save_sweep(json_sweep, args.json)
        except OSError as exc:
            print(f"error: cannot write json to {args.json}: {exc}", file=sys.stderr)
            return 1
        print(f"[json written to {args.json}]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
