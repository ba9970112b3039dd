"""The Monte-Carlo evaluation harness (Section 4 of the paper).

One module per evaluation artifact -- see DESIGN.md §3 for the index:

* :mod:`repro.experiments.table1`         -- Table 1 (T1)
* :mod:`repro.experiments.figure5`        -- Figure 5 (F5)
* :mod:`repro.experiments.lambda_study`   -- λ influence on BA-HF (E1)
* :mod:`repro.experiments.variance_study` -- sample-variance claims (E2)
* :mod:`repro.experiments.interval_study` -- flatness in N per interval (E3)
* :mod:`repro.experiments.nonpow2_study`  -- non-power-of-two N (E4)
* :mod:`repro.experiments.runtime_study`  -- simulated parallel time (E5)
* :mod:`repro.experiments.topology_study` -- concrete interconnects (E7)
* :mod:`repro.experiments.worstcase_study` -- bound validity/tightness (E8)
* :mod:`repro.experiments.distribution_study` -- α̂-shape robustness (E9)

plus the shared machinery: :mod:`config`, :mod:`stochastic`, :mod:`runner`,
:mod:`tables` and the ``repro-experiments`` CLI.
"""

from repro.experiments.config import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_N_VALUES,
    PAPER_N_VALUES,
    StochasticConfig,
    full_scale_requested,
)
from repro.experiments.stochastic import (
    normalize_algorithm,
    sample_ratios,
    trial_ratios,
)
from repro.experiments.runner import SweepRecord, SweepResult, chunk_bounds, run_sweep
from repro.experiments.tables import (
    ascii_chart,
    format_series,
    format_table1,
    sweep_to_csv,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.figure5 import figure5_series, render_figure5, run_figure5
from repro.experiments.lambda_study import (
    LambdaStudyResult,
    render_lambda_study,
    run_lambda_study,
)
from repro.experiments.variance_study import (
    VarianceStudyResult,
    render_variance_study,
    run_variance_study,
)
from repro.experiments.interval_study import (
    IntervalStudyResult,
    render_interval_study,
    run_interval_study,
)
from repro.experiments.nonpow2_study import (
    NonPow2Result,
    render_nonpow2_study,
    run_nonpow2_study,
)
from repro.experiments.runtime_study import (
    METRIC_COLUMNS,
    RuntimeRecord,
    RuntimeStudyResult,
    render_runtime_study,
    run_runtime_study,
    study_trial_metrics,
)
from repro.experiments.topology_study import (
    TOPOLOGIES,
    TopologyStudyResult,
    render_topology_study,
    run_topology_study,
)
from repro.experiments.distribution_study import (
    DistributionStudyResult,
    default_shapes,
    render_distribution_study,
    run_distribution_study,
)
from repro.experiments.worstcase_study import (
    WorstCaseStudyResult,
    render_worstcase_study,
    run_worstcase_study,
)
from repro.experiments.io import (
    load_sweep,
    save_sweep,
    sweep_from_json,
    sweep_to_json,
)
from repro.experiments.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    mean_difference_ci,
    required_trials,
    welch_diff_ci,
)
from repro.experiments.families_study import (
    FAMILY_GENERATORS,
    FamiliesStudyResult,
    render_families_study,
    run_families_study,
)
from repro.experiments.report import REPORT_SECTIONS, generate_report

__all__ = [
    "REPORT_SECTIONS",
    "generate_report",
    "ConfidenceInterval",
    "bootstrap_ci",
    "mean_difference_ci",
    "required_trials",
    "welch_diff_ci",
    "FAMILY_GENERATORS",
    "FamiliesStudyResult",
    "render_families_study",
    "run_families_study",
    "load_sweep",
    "save_sweep",
    "sweep_from_json",
    "sweep_to_json",
    "TOPOLOGIES",
    "TopologyStudyResult",
    "render_topology_study",
    "run_topology_study",
    "DistributionStudyResult",
    "default_shapes",
    "render_distribution_study",
    "run_distribution_study",
    "WorstCaseStudyResult",
    "render_worstcase_study",
    "run_worstcase_study",
    "DEFAULT_N_VALUES",
    "PAPER_N_VALUES",
    "StochasticConfig",
    "full_scale_requested",
    "sample_ratios",
    "trial_ratios",
    "normalize_algorithm",
    "chunk_bounds",
    "DEFAULT_CHUNK_SIZE",
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "ascii_chart",
    "format_series",
    "format_table1",
    "sweep_to_csv",
    "render_table1",
    "run_table1",
    "figure5_series",
    "render_figure5",
    "run_figure5",
    "LambdaStudyResult",
    "render_lambda_study",
    "run_lambda_study",
    "VarianceStudyResult",
    "render_variance_study",
    "run_variance_study",
    "IntervalStudyResult",
    "render_interval_study",
    "run_interval_study",
    "NonPow2Result",
    "render_nonpow2_study",
    "run_nonpow2_study",
    "METRIC_COLUMNS",
    "RuntimeRecord",
    "RuntimeStudyResult",
    "render_runtime_study",
    "run_runtime_study",
    "study_trial_metrics",
]
