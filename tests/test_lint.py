"""Tests for the repro.lint static-analysis subsystem.

Covers: each rule firing on a minimal bad snippet and staying quiet on
the fixed version, the whole-program passes (R101-R111) over planted
fixture trees, suppression comments (including multi-line statement
span scoping), the result cache, the JSON/github output formats,
strict-vs-relaxed path scoping, pyproject config loading, the CLI exit
codes -- and the repo-wide self-check that gates the tree.
"""

import json
import time
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    LintCache,
    LintPolicy,
    ProjectRule,
    all_rules,
    build_project,
    lint_paths,
    lint_project,
    lint_project_paths,
    lint_source,
    load_policy,
    main,
    policy_hash,
    rule_ids,
)
from repro.lint.ffi import parse_c_exports, parse_ctypes_decls
from repro.lint.policy import DEFAULT_PROFILE_PATHS, PROFILE_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent

STRICT = LintPolicy(forced_profile="strict")

#: a path the default policy maps to the strict profile
CORE_PATH = "src/repro/core/example.py"
#: a path the default policy maps to the relaxed profile
DRIVER_PATH = "src/repro/experiments/example.py"


def rules_hit(source, path=CORE_PATH, policy=STRICT):
    return sorted({f.rule for f in lint_source(source, path, policy)})


def project_findings(files, policy=STRICT):
    """Run the whole-program passes over an in-memory fixture tree."""
    py = {p: s for p, s in files.items() if p.endswith(".py")}
    c = {p: s for p, s in files.items() if p.endswith(".c")}
    return lint_project(build_project(py, c), policy)


def project_rules_hit(files, policy=STRICT):
    return sorted({f.rule for f in project_findings(files, policy)})


# ----------------------------------------------------------------------
# Rule catalog basics
# ----------------------------------------------------------------------


class TestCatalog:
    def test_at_least_sixteen_rules_registered(self):
        assert len(all_rules()) >= 16
        assert rule_ids() == sorted(all_rules())

    def test_every_rule_documents_itself(self):
        for rule_id, rule in all_rules().items():
            assert rule.rule_id == rule_id
            for attr in ("name", "description", "rationale", "bad", "good"):
                assert getattr(rule, attr), f"{rule_id} missing {attr}"

    @staticmethod
    def _fixture_tree(rule, which):
        """Fixture tree for a project rule: multi-file if provided."""
        tree = getattr(rule, f"{which}_tree")
        if tree:
            return dict(tree)
        return {"pkg/mod.py": getattr(rule, which)}

    def test_catalog_bad_snippets_fire_and_good_snippets_are_quiet(self):
        """The docs' own examples are kept honest by the test suite."""
        for rule_id, rule in all_rules().items():
            if isinstance(rule, ProjectRule):
                bad_hits = project_rules_hit(self._fixture_tree(rule, "bad"))
                assert rule_id in bad_hits, f"{rule_id}.bad must fire"
                good = project_findings(self._fixture_tree(rule, "good"))
                assert good == [], (
                    f"{rule_id}.good must be clean:\n"
                    + "\n".join(f.render() for f in good)
                )
            else:
                assert rule_id in rules_hit(rule.bad), f"{rule_id}.bad must fire"
                assert rules_hit(rule.good) == [], f"{rule_id}.good must be clean"


# ----------------------------------------------------------------------
# Per-rule unit tests on fixture snippets
# ----------------------------------------------------------------------


class TestR001UnseededRng:
    def test_unseeded_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_hit(src) == ["R001"]

    def test_explicit_none_seed_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rules_hit(src) == ["R001"]

    def test_seeded_default_rng_quiet(self):
        src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert rules_hit(src) == []

    def test_from_import_alias_resolved(self):
        src = "from numpy.random import default_rng as mk\nrng = mk()\n"
        assert rules_hit(src) == ["R001"]

    def test_module_level_distribution_fires(self):
        src = "import numpy as np\nx = np.random.normal(0, 1)\n"
        assert rules_hit(src) == ["R001"]

    def test_generator_method_quiet(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.normal(0, 1)\n"
        )
        assert rules_hit(src) == []


class TestR002GlobalRandom:
    def test_import_random_fires(self):
        assert rules_hit("import random\n") == ["R002"]

    def test_from_random_import_fires(self):
        assert rules_hit("from random import choice\n") == ["R002"]

    def test_numpy_random_import_quiet(self):
        assert rules_hit("import numpy.random\n") == []

    def test_name_containing_random_quiet(self):
        assert rules_hit("import randomstate_like_lib\n") == []


class TestR003WallClock:
    def test_time_time_fires(self):
        src = "import time\nstamp = time.time()\n"
        assert rules_hit(src) == ["R003"]

    def test_perf_counter_quiet(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert rules_hit(src) == []

    def test_datetime_now_fires_via_from_import(self):
        src = "from datetime import datetime\nnow = datetime.now()\n"
        assert rules_hit(src) == ["R003"]

    def test_aliased_import_resolved(self):
        src = "import time as clock\nstamp = clock.time()\n"
        assert rules_hit(src) == ["R003"]


class TestR004FloatEquality:
    def test_float_literal_eq_fires(self):
        assert rules_hit("ok = x == 1.0\n") == ["R004"]

    def test_float_literal_ne_fires(self):
        assert rules_hit("ok = 0.5 != y\n") == ["R004"]

    def test_ratio_expression_fires(self):
        assert rules_hit("ok = a / b == c\n") == ["R004"]

    def test_int_literal_quiet(self):
        assert rules_hit("ok = x == 1\n") == []

    def test_ordered_comparison_quiet(self):
        assert rules_hit("ok = x <= 1.0\n") == []

    def test_feq_call_quiet(self):
        src = "from repro.utils.mathutils import feq\nok = feq(x, 1.0)\n"
        assert rules_hit(src) == []


class TestR005AlphaValidation:
    def test_unvalidated_alpha_fires(self):
        src = "def depth(alpha):\n    return 2 * alpha\n"
        assert rules_hit(src) == ["R005"]

    def test_check_alpha_quiet(self):
        src = (
            "def depth(alpha):\n"
            "    alpha = check_alpha(alpha)\n"
            "    return 2 * alpha\n"
        )
        assert rules_hit(src) == []

    def test_range_check_quiet(self):
        src = (
            "def depth(alpha):\n"
            "    if not 0 < alpha <= 0.5:\n"
            "        raise ValueError(alpha)\n"
            "    return 2 * alpha\n"
        )
        assert rules_hit(src) == []

    def test_delegation_quiet(self):
        src = "def depth(alpha):\n    return inner(alpha) + 1\n"
        assert rules_hit(src) == []

    def test_is_none_check_alone_still_fires(self):
        src = (
            "class P:\n"
            "    def __init__(self, alpha=None):\n"
            "        if alpha is not None:\n"
            "            self._a = alpha\n"
        )
        assert rules_hit(src) == ["R005"]

    def test_private_function_exempt(self):
        src = "def _helper(alpha):\n    return 2 * alpha\n"
        assert rules_hit(src) == []


class TestR006SeedKeywordOnly:
    def test_positional_seed_fires(self):
        src = "def run(n, seed=0):\n    pass\n"
        assert rules_hit(src) == ["R006"]

    def test_keyword_only_seed_quiet(self):
        src = "def run(n, *, seed=0):\n    pass\n"
        assert rules_hit(src) == []

    def test_seed_as_leading_subject_allowed(self):
        src = "def split_seed(seed, index):\n    return seed ^ index\n"
        assert rules_hit(src) == []

    def test_method_self_is_skipped(self):
        src = (
            "class Factory:\n"
            "    def __init__(self, root, seed=0):\n"
            "        pass\n"
        )
        assert rules_hit(src) == ["R006"]

    def test_private_function_exempt(self):
        src = "def _run(n, seed=0):\n    pass\n"
        assert rules_hit(src) == []


class TestR007SetIteration:
    def test_for_over_set_literal_fires(self):
        assert rules_hit("for x in {3, 1, 2}:\n    pass\n") == ["R007"]

    def test_for_over_set_call_fires(self):
        assert rules_hit("for x in set(items):\n    pass\n") == ["R007"]

    def test_comprehension_over_set_fires(self):
        assert rules_hit("out = [f(x) for x in set(items)]\n") == ["R007"]

    def test_sorted_set_quiet(self):
        assert rules_hit("for x in sorted(set(items)):\n    pass\n") == []

    def test_list_iteration_quiet(self):
        assert rules_hit("for x in [3, 1, 2]:\n    pass\n") == []

    def test_membership_test_quiet(self):
        assert rules_hit("ok = x in {1, 2, 3}\n") == []


class TestR008PoolPicklable:
    POOL_PREFIX = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "with ProcessPoolExecutor() as pool:\n"
    )

    def test_lambda_submission_fires(self):
        src = self.POOL_PREFIX + "    fut = pool.submit(lambda: 1)\n"
        assert rules_hit(src) == ["R008"]

    def test_nested_function_submission_fires(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def driver(xs):\n"
            "    def work(x):\n"
            "        return x + 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, xs))\n"
        )
        assert rules_hit(src) == ["R008"]

    def test_module_level_function_quiet(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + 1\n"
            "def driver(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, xs))\n"
        )
        assert rules_hit(src) == []

    def test_rule_inert_without_process_pools(self):
        # .map on arbitrary objects is not this rule's business unless
        # process-pool machinery is in scope.
        src = "out = thing.map(lambda x: x + 1, xs)\n"
        assert rules_hit(src) == []


class TestR010SharedMemory:
    def test_from_import_fires(self):
        src = "from multiprocessing import shared_memory\n"
        assert rules_hit(src) == ["R010"]

    def test_submodule_from_import_fires(self):
        src = "from multiprocessing.shared_memory import SharedMemory\n"
        assert rules_hit(src) == ["R010"]

    def test_dotted_import_fires(self):
        src = "import multiprocessing.shared_memory\n"
        assert rules_hit(src) == ["R010"]

    def test_attribute_use_fires(self):
        src = (
            "import multiprocessing\n"
            "blk = multiprocessing.shared_memory.SharedMemory(create=True, size=8)\n"
        )
        assert "R010" in rules_hit(src)

    def test_blessed_helper_module_exempt(self):
        src = "from multiprocessing import shared_memory\n"
        path = "src/repro/experiments/shm.py"
        assert rules_hit(src, path=path) == []

    def test_fires_in_relaxed_profile_too(self):
        # Driver code is exactly where ad-hoc shm use would creep in.
        src = "from multiprocessing import shared_memory\n"
        assert rules_hit(src, path=DRIVER_PATH, policy=LintPolicy()) == ["R010"]

    def test_plain_multiprocessing_quiet(self):
        src = "import multiprocessing\nq = multiprocessing.Queue()\n"
        assert rules_hit(src) == []


# ----------------------------------------------------------------------
# Whole-program passes (R101-R111) on planted fixture trees
# ----------------------------------------------------------------------


class TestR101SeedProvenance:
    def test_cross_module_underivable_seed_flagged_at_call_site(self):
        files = {
            "src/pkg/maker.py": (
                "import numpy as np\n"
                "def make_rng(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "src/pkg/driver.py": (
                "import time\n"
                "from pkg.maker import make_rng\n"
                "def run():\n"
                "    return make_rng(time.time_ns())\n"
            ),
        }
        findings = [
            f for f in project_findings(files) if f.rule == "R101"
        ]
        assert findings, "cross-module wall-clock seed must be flagged"
        assert findings[0].path == "src/pkg/driver.py"
        assert findings[0].line == 4

    def test_hash_seed_flagged(self):
        files = {
            "src/pkg/mod.py": (
                "import numpy as np\n"
                "def run(key):\n"
                "    return np.random.default_rng(hash(key))\n"
            )
        }
        assert "R101" in project_rules_hit(files)

    def test_split_seed_provenance_is_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "import numpy as np\n"
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    return np.random.default_rng(split_seed(seed, 3))\n"
            )
        }
        assert project_rules_hit(files) == []

    def test_unknown_expressions_stay_silent(self):
        # conservative: opaque seeds are not findings
        files = {
            "src/pkg/mod.py": (
                "import numpy as np\n"
                "def run(cfg):\n"
                "    return np.random.default_rng(cfg.seed)\n"
            )
        }
        assert project_rules_hit(files) == []


class TestR102DoubleFork:
    def test_textually_identical_forks_fire(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    a = split_seed(seed, 1)\n"
                "    b = split_seed(seed, 1)\n"
                "    return a, b\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R102"]
        assert [f.line for f in findings] == [4]

    def test_probe_overlapping_trial_loop_fires(self):
        # the families_study shape: constant index inside a range loop
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed, n):\n"
                "    probe = split_seed(seed, 0)\n"
                "    return [split_seed(seed, t) for t in range(n)]\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R102"]
        assert [f.line for f in findings] == [3]

    def test_large_tag_constant_is_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "TAG = 0x50524F42\n"
                "def run(seed, n):\n"
                "    probe = split_seed(seed, TAG)\n"
                "    return [split_seed(seed, t) for t in range(n)]\n"
            )
        }
        assert project_rules_hit(files) == []

    def test_distinct_bases_are_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed, n):\n"
                "    probe = split_seed(seed + 1, 0)\n"
                "    return [split_seed(seed, t) for t in range(n)]\n"
            )
        }
        assert project_rules_hit(files) == []


class TestR103RngAcrossPool:
    FILES = {
        "src/pkg/mod.py": (
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(rng):\n"
            "    return rng.random()\n"
            "def run():\n"
            "    rng = np.random.default_rng(7)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, rng).result()\n"
        )
    }

    def test_generator_variable_as_task_arg_fires(self):
        findings = [
            f for f in project_findings(self.FILES) if f.rule == "R103"
        ]
        assert [f.line for f in findings] == [8]

    def test_inline_generator_construction_fires(self):
        files = {
            "src/pkg/mod.py": (
                "import numpy as np\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work(rng):\n"
                "    return rng.random()\n"
                "def run():\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(work, np.random.default_rng(1))\n"
            )
        }
        assert "R103" in project_rules_hit(files)

    def test_passing_plain_seed_is_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "import numpy as np\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work(seed):\n"
                "    return np.random.default_rng(seed).random()\n"
                "def run():\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(work, 7).result()\n"
            )
        }
        assert project_rules_hit(files) == []


class TestR104PoolPayloadPurity:
    def test_transitive_wall_clock_attributed_at_impure_line(self):
        files = {
            "src/pkg/helpers.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/pkg/work.py": (
                "from pkg.helpers import stamp\n"
                "def chunk(task):\n"
                "    return stamp() + task\n"
            ),
            "src/pkg/driver.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from pkg.work import chunk\n"
                "def run(tasks):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(chunk, t).result() for t in tasks]\n"
            ),
        }
        findings = [f for f in project_findings(files) if f.rule == "R104"]
        assert len(findings) == 1
        assert findings[0].path == "src/pkg/helpers.py"
        assert findings[0].line == 3
        assert "chunk" in findings[0].message  # payload chain named

    def test_broker_indirection_is_expanded(self):
        # a function forwarding its own parameter to pool.submit makes
        # its callers' arguments payload roots (the execute_chunks shape)
        files = {
            "src/pkg/broker.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def execute(tasks, worker):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(worker, t).result() for t in tasks]\n"
            ),
            "src/pkg/study.py": (
                "import time\n"
                "from pkg.broker import execute\n"
                "def impure_chunk(task):\n"
                "    return time.time() + task\n"
                "def run(tasks):\n"
                "    return execute(tasks, impure_chunk)\n"
            ),
        }
        findings = [f for f in project_findings(files) if f.rule == "R104"]
        assert [f.path for f in findings] == ["src/pkg/study.py"]
        assert [f.line for f in findings] == [4]

    def test_module_global_write_fires(self):
        files = {
            "src/pkg/mod.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "CACHE = {}\n"
                "def chunk(task):\n"
                "    CACHE[task] = task\n"
                "    return task\n"
                "def run(tasks):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(chunk, t).result() for t in tasks]\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R104"]
        assert [f.line for f in findings] == [4]

    def test_pure_payload_is_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def chunk(task):\n"
                "    local = {}\n"
                "    local[task] = task\n"
                "    return local\n"
                "def run(tasks):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(chunk, t).result() for t in tasks]\n"
            )
        }
        assert project_rules_hit(files) == []


class TestR110FfiPrototype:
    BAD = dict(all_rules()["R110"].bad_tree)

    def test_planted_mismatch_fixture_reports_every_class(self):
        findings = [
            f for f in project_findings(self.BAD) if f.rule == "R110"
        ]
        text = "\n".join(f.render() for f in findings)
        # width mismatch: c_int declared where C takes long
        assert "argument 1 of `demo_add`" in text
        # arity mismatch
        assert "demo_scale` declares 2 argtypes" in text
        # ghost declaration: no such C export
        assert "demo_ghost" in text
        # undeclared export, attributed to the C file
        orphan = [f for f in findings if "demo_orphan" in f.message]
        assert [f.path for f in orphan] == ["pkg/kern.c"]
        assert orphan[0].line == 12

    def test_static_functions_are_not_exports(self):
        findings = project_findings(self.BAD)
        assert not any("demo_helper" in f.message for f in findings)

    def test_pointer_mismatch_fires(self):
        files = {
            "pkg/kern.c": "int f(double *x)\n{\n    return 0;\n}\n",
            "pkg/native.py": (
                "import ctypes\n"
                "def declare(lib):\n"
                "    lib.f.restype = ctypes.c_int\n"
                "    lib.f.argtypes = [ctypes.c_double]\n"
            ),
        }
        findings = [f for f in project_findings(files) if f.rule == "R110"]
        assert len(findings) == 1
        assert "pointer-ness" in findings[0].message

    def test_restype_mismatch_fires(self):
        files = {
            "pkg/kern.c": "void f(long n)\n{\n    (void)n;\n}\n",
            "pkg/native.py": (
                "import ctypes\n"
                "def declare(lib):\n"
                "    lib.f.restype = ctypes.c_int\n"
                "    lib.f.argtypes = [ctypes.c_long]\n"
            ),
        }
        findings = [f for f in project_findings(files) if f.rule == "R110"]
        assert len(findings) == 1
        assert "restype" in findings[0].message

    @pytest.mark.parametrize(
        "py_type, c_param, finding",
        [
            ("c_long", "unsigned long long seed", True),
            ("c_ulonglong", "long seed", True),
            ("c_ulonglong", "unsigned long long seed", False),
        ],
        ids=["long-for-ull", "ull-for-long", "ull-matches"],
    )
    def test_unsigned_long_long_width(self, py_type, c_param, finding):
        """A 64-bit seed must be declared ``c_ulonglong``: ``long`` is
        32-bit on LLP64, so ``c_long`` would truncate it there."""
        files = {
            "pkg/kern.c": f"void f({c_param})\n{{\n    (void)seed;\n}}\n",
            "pkg/native.py": (
                "import ctypes\n"
                "def declare(lib):\n"
                "    lib.f.restype = None\n"
                f"    lib.f.argtypes = [ctypes.{py_type}]\n"
            ),
        }
        findings = [f for f in project_findings(files) if f.rule == "R110"]
        assert bool(findings) == finding
        if finding:
            assert "argument 0 of `f`" in findings[0].message

    def test_real_kernels_exports_fully_covered(self):
        """100%% coverage of _kernels.c symbols by _native.py declarations."""
        c_source = (REPO_ROOT / "src/repro/core/_kernels.c").read_text()
        exports = {d.name for d in parse_c_exports(c_source)}
        assert exports == {
            "repro_hf_batch",
            "repro_ba_batch",
            "repro_bahf_batch",
            "repro_ba_metrics",
            "repro_phf_metrics",
            "repro_seeded_ratios",
            "repro_threading_backend",
            "repro_uniform_row",
        }
        native = REPO_ROOT / "src/repro/core/_native.py"
        project = build_project({str(native): native.read_text()})
        decls = parse_ctypes_decls(project.modules[str(native)])
        assert set(decls) == exports
        for decl in decls.values():
            assert decl.restype is not None
            assert decl.argtypes is not None
            assert all(t is not None for t in decl.argtypes)


class TestR111ResourceLifecycle:
    def test_early_return_leak_fires_at_acquire_line(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.experiments import shm\n"
                "def run(draws, fail):\n"
                "    block = shm.publish_draws(draws)\n"
                "    if fail:\n"
                "        return None\n"
                "    shm.release_draws(block)\n"
                "    return True\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R111"]
        assert [f.line for f in findings] == [3]
        assert "return" in findings[0].message

    def test_missing_release_on_fallthrough_fires(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.experiments.checkpoint import ChunkJournal\n"
                "def run(path):\n"
                "    journal = ChunkJournal.open(path)\n"
                "    journal.append('k', 1)\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R111"]
        assert [f.line for f in findings] == [3]

    def test_try_finally_with_guard_idiom_is_quiet(self):
        # the exact shape of the sweep runners
        files = {
            "src/pkg/mod.py": (
                "from repro.experiments.checkpoint import ChunkJournal\n"
                "def run(path, work):\n"
                "    journal = ChunkJournal.open(path) if path else None\n"
                "    try:\n"
                "        if not work:\n"
                "            return None\n"
                "        return work()\n"
                "    finally:\n"
                "        if journal is not None:\n"
                "            journal.close()\n"
            )
        }
        assert project_rules_hit(files) == []

    def test_ownership_handoff_is_quiet(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.experiments import shm\n"
                "def publish_all(cells, draws):\n"
                "    blocks = {}\n"
                "    for cell in cells:\n"
                "        published = shm.publish_draws(draws[cell])\n"
                "        if published is None:\n"
                "            continue\n"
                "        blocks[cell] = published\n"
                "    return blocks\n"
            )
        }
        assert project_rules_hit(files) == []

    def test_raise_between_open_and_close_fires(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.experiments.checkpoint import ChunkJournal\n"
                "def run(path, n):\n"
                "    journal = ChunkJournal.open(path)\n"
                "    if n < 0:\n"
                "        raise ValueError(n)\n"
                "    journal.close()\n"
            )
        }
        findings = [f for f in project_findings(files) if f.rule == "R111"]
        assert [f.line for f in findings] == [3]
        assert "raise" in findings[0].message


class TestProjectPassMachinery:
    def test_project_findings_respect_suppression_comments(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    a = split_seed(seed, 1)\n"
                "    b = split_seed(seed, 1)  # repro-lint: disable=R102\n"
                "    return a, b\n"
            )
        }
        assert project_rules_hit(files) == []

    def test_project_findings_respect_profile_scoping(self):
        # a custom policy that disables nothing still routes through
        # rules_for(); forcing an unknown-ish path keeps R1xx active in
        # both profiles by design
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    a = split_seed(seed, 1)\n"
                "    b = split_seed(seed, 1)\n"
                "    return a, b\n"
            )
        }
        relaxed = LintPolicy(forced_profile="relaxed")
        assert "R102" in project_rules_hit(files, relaxed)

    def test_syntax_error_modules_are_skipped_not_fatal(self):
        files = {
            "src/pkg/broken.py": "def oops(:\n",
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    a = split_seed(seed, 1)\n"
                "    b = split_seed(seed, 1)\n"
                "    return a, b\n"
            ),
        }
        assert "R102" in project_rules_hit(files)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_disable_suppresses_named_rule(self):
        src = "ok = x == 1.0  # repro-lint: disable=R004\n"
        assert rules_hit(src) == []

    def test_disable_all_suppresses_everything(self):
        src = "import random  # repro-lint: disable=all\n"
        assert rules_hit(src) == []

    def test_disable_other_rule_does_not_suppress(self):
        src = "ok = x == 1.0  # repro-lint: disable=R001\n"
        assert rules_hit(src) == ["R004"]

    def test_comma_separated_list(self):
        src = (
            "import time\n"
            "bad = time.time() == 1.0  # repro-lint: disable=R003, R004\n"
        )
        assert rules_hit(src) == []

    def test_suppression_is_line_scoped(self):
        src = (
            "ok = x == 1.0  # repro-lint: disable=R004\n"
            "bad = y == 2.0\n"
        )
        findings = lint_source(src, CORE_PATH, STRICT)
        assert [f.line for f in findings] == [2]


class TestSuppressionSpan:
    def test_first_line_comment_covers_continuation_lines(self):
        # the finding anchors on line 2; the comment sits on line 1
        src = (
            "ok = (  # repro-lint: disable=R004\n"
            "    x == 1.0\n"
            ")\n"
        )
        assert rules_hit(src) == []

    def test_multiline_call_argument_covered(self):
        src = (
            "import time\n"
            "out = process(  # repro-lint: disable=R003\n"
            "    time.time(),\n"
            "    1,\n"
            ")\n"
        )
        assert rules_hit(src) == []

    def test_sibling_statement_after_span_still_fires(self):
        src = (
            "ok = (  # repro-lint: disable=R004\n"
            "    x == 1.0\n"
            ")\n"
            "bad = y == 2.0\n"
        )
        findings = lint_source(src, CORE_PATH, STRICT)
        assert [f.line for f in findings] == [4]

    def test_comment_on_continuation_line_does_not_govern_span(self):
        # only the *first* line of the statement scopes the whole span;
        # a comment further down covers its own line alone
        src = (
            "import time\n"
            "out = process(\n"
            "    1,  # repro-lint: disable=R003\n"
            "    time.time(),\n"
            ")\n"
        )
        findings = lint_source(src, CORE_PATH, STRICT)
        assert [(f.rule, f.line) for f in findings] == [("R003", 4)]

    def test_span_scoping_applies_to_project_findings_too(self):
        files = {
            "src/pkg/mod.py": (
                "from repro.utils.rng import split_seed\n"
                "def run(seed):\n"
                "    a = split_seed(seed, 1)\n"
                "    b = (  # repro-lint: disable=R102\n"
                "        split_seed(seed, 1)\n"
                "    )\n"
                "    return a, b\n"
            )
        }
        assert project_rules_hit(files) == []


# ----------------------------------------------------------------------
# Policy: profiles, path scoping, baseline, config loading
# ----------------------------------------------------------------------

WALL_CLOCK_SRC = "import time\nstamp = time.time()\n"


class TestPolicyScoping:
    def test_default_profile_map_covers_kernel_and_driver_code(self):
        policy = LintPolicy()
        assert policy.profile_for("src/repro/core/hf.py") == "strict"
        assert policy.profile_for("src/repro/simulator/engine.py") == "strict"
        assert policy.profile_for("src/repro/problems/domain.py") == "strict"
        assert policy.profile_for("src/repro/experiments/report.py") == "relaxed"
        assert policy.profile_for("benchmarks/bench_batch.py") == "relaxed"
        assert policy.profile_for("examples/quickstart.py") == "relaxed"

    def test_unmapped_path_gets_default_profile(self):
        assert LintPolicy().profile_for("scripts/oneoff.py") == "strict"

    def test_relaxed_profile_drops_kernel_purity_rules(self):
        policy = LintPolicy()
        assert lint_source(WALL_CLOCK_SRC, CORE_PATH, policy) != []
        assert lint_source(WALL_CLOCK_SRC, DRIVER_PATH, policy) == []

    def test_relaxed_profile_keeps_seeding_rules(self):
        src = "import random\n"
        assert rules_hit(src, DRIVER_PATH, LintPolicy()) == ["R002"]

    def test_forced_profile_overrides_scoping(self):
        policy = LintPolicy(forced_profile="strict")
        assert lint_source(WALL_CLOCK_SRC, DRIVER_PATH, policy) != []

    def test_profile_rule_sets_are_consistent(self):
        assert PROFILE_RULES["relaxed"] < PROFILE_RULES["strict"]
        assert set(rule_ids()) == set(PROFILE_RULES["strict"])

    def test_baseline_waives_rule_at_matching_path(self):
        policy = LintPolicy(baseline=("R003:src/repro/core/legacy_*.py",))
        assert lint_source(WALL_CLOCK_SRC, "src/repro/core/legacy_x.py", policy) == []
        assert lint_source(WALL_CLOCK_SRC, "src/repro/core/fresh.py", policy) != []


class TestConfigLoading:
    def test_missing_file_yields_defaults(self, tmp_path):
        policy = load_policy(tmp_path / "nope.toml")
        assert policy.profile_paths == DEFAULT_PROFILE_PATHS

    def test_pyproject_section_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "pyproject.toml"
        cfg.write_text(
            "[tool.repro-lint]\n"
            'paths = ["lib"]\n'
            'baseline = ["R004:lib/old/*.py"]\n'
            "[tool.repro-lint.profiles]\n"
            'strict = ["lib/kernel"]\n'
            'relaxed = ["lib/driver"]\n'
        )
        policy = load_policy(cfg)
        assert policy.paths == ("lib",)
        assert policy.profile_for("lib/kernel/a.py") == "strict"
        assert policy.profile_for("lib/driver/a.py") == "relaxed"
        assert policy.is_baselined("R004", "lib/old/junk.py")
        assert not policy.is_baselined("R004", "lib/kernel/a.py")

    def test_unknown_profile_name_rejected(self, tmp_path):
        cfg = tmp_path / "pyproject.toml"
        cfg.write_text(
            "[tool.repro-lint.profiles]\n"
            'lenient = ["lib"]\n'
        )
        with pytest.raises(ValueError, match="unknown profile"):
            load_policy(cfg)

    def test_repo_pyproject_parses(self):
        policy = load_policy(REPO_ROOT / "pyproject.toml")
        assert policy.paths == ("src", "benchmarks", "examples")
        assert policy.profile_for("src/repro/core/hf.py") == "strict"
        assert policy.profile_for("tests/test_hf.py") == "relaxed"


# ----------------------------------------------------------------------
# Lint-result cache
# ----------------------------------------------------------------------

BAD_SRC = "import random\nimport time\nstamp = time.time()\n"


class TestCache:
    def _tree(self, tmp_path):
        target = tmp_path / "proj" / "mod.py"
        target.parent.mkdir()
        target.write_text(BAD_SRC)
        return target

    def test_warm_run_replays_identical_findings(self, tmp_path):
        target = self._tree(tmp_path)
        store = tmp_path / "cache.json"
        cold_cache = LintCache(store, STRICT)
        cold = lint_paths([str(target)], STRICT, cache=cold_cache)
        cold_cache.save()
        assert cold_cache.misses == 1 and cold_cache.hits == 0
        assert store.exists()

        warm_cache = LintCache(store, STRICT)
        warm = lint_paths([str(target)], STRICT, cache=warm_cache)
        assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert warm == cold
        assert all(isinstance(f, Finding) for f in warm)

    def test_content_change_invalidates_entry(self, tmp_path):
        target = self._tree(tmp_path)
        store = tmp_path / "cache.json"
        cache = LintCache(store, STRICT)
        lint_paths([str(target)], STRICT, cache=cache)
        cache.save()

        target.write_text("x = 1\n")
        warm_cache = LintCache(store, STRICT)
        findings = lint_paths([str(target)], STRICT, cache=warm_cache)
        assert warm_cache.misses == 1 and warm_cache.hits == 0
        assert findings == []

    def test_policy_change_invalidates_store(self, tmp_path):
        target = self._tree(tmp_path)
        store = tmp_path / "cache.json"
        cache = LintCache(store, STRICT)
        lint_paths([str(target)], STRICT, cache=cache)
        cache.save()

        relaxed = LintPolicy(forced_profile="relaxed")
        assert policy_hash(relaxed) != policy_hash(STRICT)
        other = LintCache(store, relaxed)
        findings = lint_paths([str(target)], relaxed, cache=other)
        assert other.misses == 1 and other.hits == 0
        # relaxed profile drops the wall-clock rule but keeps R002
        assert [f.rule for f in findings] == ["R002"]

    def test_rules_version_change_invalidates_store(self, tmp_path):
        target = self._tree(tmp_path)
        store = tmp_path / "cache.json"
        cache = LintCache(store, STRICT)
        lint_paths([str(target)], STRICT, cache=cache)
        cache.save()

        stale = LintCache(store, STRICT, version="0123456789abcdef")
        lint_paths([str(target)], STRICT, cache=stale)
        assert stale.misses == 1 and stale.hits == 0

    def test_corrupt_store_is_discarded(self, tmp_path):
        target = self._tree(tmp_path)
        store = tmp_path / "cache.json"
        store.write_text("{not json")
        cache = LintCache(store, STRICT)
        findings = lint_paths([str(target)], STRICT, cache=cache)
        assert cache.misses == 1
        assert [f.rule for f in findings] == ["R002", "R003"]

    def test_whole_program_result_is_cached_by_tree_digest(self, tmp_path):
        root = tmp_path / "src" / "pkg"
        root.mkdir(parents=True)
        (root / "mod.py").write_text(
            "from repro.utils.rng import split_seed\n"
            "def run(seed):\n"
            "    a = split_seed(seed, 1)\n"
            "    b = split_seed(seed, 1)\n"
            "    return a, b\n"
        )
        store = tmp_path / "cache.json"
        cache = LintCache(store, STRICT)
        cold = lint_project_paths([str(root)], STRICT, cache=cache)
        cache.save()
        assert [f.rule for f in cold] == ["R102"]

        warm_cache = LintCache(store, STRICT)
        warm = lint_project_paths([str(root)], STRICT, cache=warm_cache)
        assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert warm == cold

        # touching any file in the tree invalidates the project entry
        (root / "other.py").write_text("x = 1\n")
        third = LintCache(store, STRICT)
        lint_project_paths([str(root)], STRICT, cache=third)
        assert third.hits == 0 and third.misses == 1


# ----------------------------------------------------------------------
# Output formats and CLI behaviour
# ----------------------------------------------------------------------


class TestOutputAndCli:
    def test_finding_is_json_round_trippable(self):
        finding = Finding(
            path="a.py", line=3, col=4, rule="R001", message="m", profile="strict"
        )
        assert json.loads(json.dumps(finding.to_dict())) == {
            "path": "a.py",
            "line": 3,
            "col": 4,
            "rule": "R001",
            "message": "m",
            "profile": "strict",
        }

    def test_json_document_shape(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        monkeypatch.chdir(tmp_path)
        code = main([str(bad), "--format", "json", "--no-config"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == 1
        assert doc["files_checked"] == 1
        assert doc["rules_active"] == rule_ids()
        assert doc["counts"] == {"R002": 1}
        (finding,) = doc["findings"]
        assert finding["rule"] == "R002"
        assert finding["line"] == 1

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--no-config", "--no-cache"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_text_format_lists_location_and_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad), "--no-config", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "bad.py:1:0: R002" in out
        assert "1 finding" in out

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        code = main(
            [str(bad), "--format", "github", "--no-config", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("::error file=")
        assert f"file={bad}" in out
        assert "line=1" in out and "title=R002::" in out

    def test_github_format_escapes_newlines_and_percents(self, capsys):
        from repro.lint.cli import render_github
        import io

        stream = io.StringIO()
        finding = Finding(
            path="a.py", line=1, col=0, rule="R001",
            message="50% of\nthe time", profile="strict",
        )
        render_github([finding], stream)
        line = stream.getvalue()
        assert "50%25 of%0Athe time" in line
        assert "\n" not in line.rstrip("\n")

    def test_whole_program_flag_runs_project_passes(
        self, tmp_path, capsys, monkeypatch
    ):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "from repro.utils.rng import split_seed\n"
            "def run(seed):\n"
            "    a = split_seed(seed, 1)\n"
            "    b = split_seed(seed, 1)\n"
            "    return a, b\n"
        )
        monkeypatch.chdir(tmp_path)
        # without the flag the per-file pass sees nothing
        assert main([str(pkg), "--no-config", "--no-cache"]) == 0
        capsys.readouterr()
        code = main(
            [str(pkg), "--whole-program", "--format", "json",
             "--no-config", "--no-cache"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["counts"] == {"R102": 1}

    def test_cli_writes_and_reuses_cache_file(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(bad), "--no-config"]) == 1
        assert (tmp_path / ".repro-lint-cache.json").exists()
        capsys.readouterr()
        # second run replays from cache and reports identically
        assert main([str(bad), "--no-config"]) == 1
        assert "bad.py:1:0: R002" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/there", "--no-config", "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert main([str(broken), "--no-config", "--no-cache"]) == 1
        assert "E999" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out
        assert "[whole-program]" in out


# ----------------------------------------------------------------------
# Repo-wide self-check: the gate this subsystem exists for
# ----------------------------------------------------------------------


class TestRepoSelfCheck:
    def test_src_benchmarks_examples_are_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        policy = load_policy(REPO_ROOT / "pyproject.toml")
        findings = lint_paths(["src", "benchmarks", "examples"], policy)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tests_directory_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        policy = load_policy(REPO_ROOT / "pyproject.toml")
        findings = lint_paths(["tests"], policy)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_whole_program_passes_are_clean_repo_wide(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        policy = load_policy(REPO_ROOT / "pyproject.toml")
        findings = lint_project_paths(
            ["src", "tests", "benchmarks", "examples"], policy
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_warm_cache_cuts_repo_lint_wall_time(self, tmp_path, monkeypatch):
        """A warm cache must cost <= 25%% of a cold repo-wide run."""
        monkeypatch.chdir(REPO_ROOT)
        policy = load_policy(REPO_ROOT / "pyproject.toml")
        roots = ["src"]
        store = tmp_path / "cache.json"

        cold_cache = LintCache(store, policy)
        t0 = time.perf_counter()
        cold = lint_paths(roots, policy, cache=cold_cache)
        cold += lint_project_paths(roots, policy, cache=cold_cache)
        cold_elapsed = time.perf_counter() - t0
        cold_cache.save()

        warm_cache = LintCache(store, policy)
        t0 = time.perf_counter()
        warm = lint_paths(roots, policy, cache=warm_cache)
        warm += lint_project_paths(roots, policy, cache=warm_cache)
        warm_elapsed = time.perf_counter() - t0

        assert warm_cache.hits > 0 and warm_cache.misses == 0
        assert sorted(warm) == sorted(cold)
        assert warm_elapsed <= 0.25 * cold_elapsed, (
            f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s"
        )
