"""Core: problem abstraction, the four algorithms, bounds and metrics.

The paper's primary contribution -- parallel load balancing for problem
classes with α-bisectors -- lives here:

* :mod:`repro.core.problem` -- Definition 1 (α-bisectors).
* :mod:`repro.core.hf` -- Algorithm HF (Figure 1, Theorem 2).
* :mod:`repro.core.phf` -- Algorithm PHF (Figure 2, Theorem 3).
* :mod:`repro.core.ba` -- Algorithm BA and BA′ (Figure 3, Theorem 7).
* :mod:`repro.core.bahf` -- Algorithm BA-HF (Figure 4, Theorem 8).
* :mod:`repro.core.bounds` -- all worst-case guarantees.
"""

from repro.core.problem import (
    BisectableProblem,
    bisection_respects_alpha,
    check_alpha,
    normalize_algorithm,
)
from repro.core.tree import BisectionNode, BisectionTree
from repro.core.partition import Partition
from repro.core.metrics import (
    RatioAccumulator,
    RatioSample,
    idle_fraction,
    imbalance,
    normalized_std,
    ratio,
    summarize_ratios,
)
from repro.core.batch import (
    ba_final_weights_batch,
    bahf_final_weights_batch,
    hf_final_weights_batch,
)
from repro.core.bounds import (
    ba_bound,
    ba_small_n_bound,
    ba_step_bound,
    bahf_bound,
    bound_for,
    hf_bound,
    phf_bound,
    phf_phase1_max_depth,
    phf_phase2_max_iterations,
    r_alpha,
)
from repro.core.hf import hf_final_weights, hf_trace, run_hf
from repro.core.ba import ba_final_weights, ba_split, run_ba, run_ba_prime
from repro.core.bahf import bahf_final_weights, bahf_threshold, run_bahf
from repro.core.phf import phf_threshold, run_phf
from repro.core.validation import (
    BisectorReport,
    assert_partition_within_bound,
    probe_bisector_quality,
)
from repro.core.analysis import (
    Lemma4Violation,
    audit_lemma4,
    audit_lemma6,
    audit_phase1_depth,
    level_profile,
    path_contractions,
    tree_statistics,
)
from repro.core.lower_bounds import (
    ADVERSARY_STRATEGIES,
    WorstCaseReport,
    adversarial_draws,
    worst_case_search,
)
from repro.core.variants import SELECTION_STRATEGIES, selection_final_weights
from repro.core.heterogeneous import (
    HeterogeneousPartition,
    run_ba_heterogeneous,
    run_hf_heterogeneous,
    speed_profile,
    split_speed_run,
    weighted_ratio,
)

__all__ = [
    # variants / heterogeneous extension
    "SELECTION_STRATEGIES",
    "selection_final_weights",
    "HeterogeneousPartition",
    "run_ba_heterogeneous",
    "run_hf_heterogeneous",
    "speed_profile",
    "split_speed_run",
    "weighted_ratio",
    # analysis / lower bounds
    "Lemma4Violation",
    "audit_lemma4",
    "audit_lemma6",
    "audit_phase1_depth",
    "level_profile",
    "path_contractions",
    "tree_statistics",
    "ADVERSARY_STRATEGIES",
    "WorstCaseReport",
    "adversarial_draws",
    "worst_case_search",
    # problem / tree / partition
    "BisectableProblem",
    "bisection_respects_alpha",
    "check_alpha",
    "normalize_algorithm",
    "BisectionNode",
    "BisectionTree",
    "Partition",
    # metrics
    "RatioAccumulator",
    "RatioSample",
    "idle_fraction",
    "imbalance",
    "normalized_std",
    "ratio",
    "summarize_ratios",
    # bounds
    "ba_bound",
    "ba_small_n_bound",
    "ba_step_bound",
    "bahf_bound",
    "bound_for",
    "hf_bound",
    "phf_bound",
    "phf_phase1_max_depth",
    "phf_phase2_max_iterations",
    "r_alpha",
    # algorithms
    "run_hf",
    "hf_final_weights",
    "hf_final_weights_batch",
    "ba_final_weights_batch",
    "bahf_final_weights_batch",
    "hf_trace",
    "run_ba",
    "run_ba_prime",
    "ba_split",
    "ba_final_weights",
    "run_bahf",
    "bahf_threshold",
    "bahf_final_weights",
    "run_phf",
    "phf_threshold",
    # validation
    "BisectorReport",
    "assert_partition_within_bound",
    "probe_bisector_quality",
]
