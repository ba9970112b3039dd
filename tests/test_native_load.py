"""Threading-mode resolution for the native kernels' artifact cache.

``_native._threading_mode`` takes the first mode, in preference order,
whose artifact is already cached or whose flag probes clean.  An
existing artifact proves the flag linked before, so the cache only
skips probes -- it never changes which mode (and so which library) a
process loads.  The unit tests plant empty ``libreprokernels.so`` files
in a private temp directory and never load them; the last test checks
in a fresh interpreter that a warm cache loads without a compile step.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.core import _native

COMPILER = "cc-under-test"
SOURCE = b"int repro_threading_backend(void) { return 0; }\n"
VERSION = "cc (test) 1.0"
PREFERENCE = ("pthread", "openmp")


@pytest.fixture
def probes(monkeypatch, tmp_path):
    """Private artifact cache, cleared memos, and a scripted probe.

    Returns ``(outcomes, calls)``: set ``outcomes[mode]`` to the probe
    result; probing a mode without an outcome fails the test.
    """
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_native, "_thread_probe_cache", {})
    monkeypatch.setattr(_native, "_thread_mode_cache", {})
    monkeypatch.delenv("REPRO_NATIVE_THREAD_MODE", raising=False)
    outcomes, calls = {}, []

    def fake_probe(compiler, mode):
        assert compiler == COMPILER
        calls.append(mode)
        if mode not in outcomes:
            raise AssertionError(f"unexpected probe of {mode!r}")
        return outcomes[mode]

    monkeypatch.setattr(_native, "_probe_thread_flag", fake_probe)
    return outcomes, calls


def _plant(mode):
    cache_dir = _native._cache_dir(SOURCE, VERSION, mode)
    os.makedirs(cache_dir, exist_ok=True)
    open(os.path.join(cache_dir, _native._LIB_BASENAME), "wb").close()


def _resolve():
    return _native._threading_mode(COMPILER, SOURCE, VERSION)


def test_pthread_artifact_skips_every_probe(probes):
    _, calls = probes
    _plant("pthread")
    assert _resolve() == "pthread"
    assert calls == []


def test_openmp_artifact_keeps_pthread_preference(probes):
    outcomes, calls = probes
    _plant("openmp")
    outcomes["pthread"] = True
    assert _resolve() == "pthread"
    assert calls == ["pthread"]


def test_openmp_artifact_chosen_without_probing_openmp(probes):
    outcomes, calls = probes
    _plant("openmp")
    outcomes["pthread"] = False
    assert _resolve() == "openmp"
    assert calls == ["pthread"]


@pytest.mark.parametrize("forced", ["pthread", "openmp"])
def test_forced_mode_with_artifact_skips_probe(probes, monkeypatch, forced):
    _, calls = probes
    monkeypatch.setenv("REPRO_NATIVE_THREAD_MODE", forced)
    _plant(forced)
    assert _resolve() == forced
    assert calls == []


def test_forced_mode_without_artifact_probes_only_it(probes, monkeypatch):
    outcomes, calls = probes
    monkeypatch.setenv("REPRO_NATIVE_THREAD_MODE", "openmp")
    _plant("pthread")
    outcomes["openmp"] = False
    assert _resolve() == "serial"
    assert calls == ["openmp"]


@pytest.mark.parametrize(
    "links,expected,probed",
    [
        ({"pthread": True, "openmp": True}, "pthread", ["pthread"]),
        ({"pthread": False, "openmp": True}, "openmp", ["pthread", "openmp"]),
        ({"pthread": False, "openmp": False}, "serial", ["pthread", "openmp"]),
    ],
)
def test_empty_cache_probes_in_preference_order(probes, links, expected, probed):
    outcomes, calls = probes
    outcomes.update(links)
    assert _resolve() == expected
    assert calls == probed


def test_result_is_memoized_per_compiler(probes):
    outcomes, calls = probes
    outcomes.update(pthread=False, openmp=True)
    assert _resolve() == "openmp"
    assert _resolve() == "openmp"
    assert calls == ["pthread", "openmp"]


@pytest.mark.parametrize(
    "links",
    [dict(zip(PREFERENCE, bits))
     for bits in itertools.product((False, True), repeat=2)],
)
def test_every_cache_state_matches_the_probe_only_choice(
    probes, monkeypatch, tmp_path, links
):
    """Any consistent cache (artifacts only for modes that link) agrees
    with picking the first mode that probes clean."""
    outcomes, _ = probes
    outcomes.update(links)
    expected = next((m for m in PREFERENCE if links[m]), "serial")
    linkable = [m for m in PREFERENCE if links[m]]
    states = [c for r in range(len(linkable) + 1)
              for c in itertools.combinations(linkable, r)]
    for index, cached in enumerate(states):
        monkeypatch.setattr(_native, "_thread_mode_cache", {})
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / f"state{index}"))
        for mode in cached:
            _plant(mode)
        assert _resolve() == expected, cached


WARM_LOAD_CHECK = textwrap.dedent(
    """
    import json
    import subprocess

    run = subprocess.run
    links = []

    def spy(args, *a, **kw):
        if "-shared" in args:
            links.append(list(args))
        return run(args, *a, **kw)

    subprocess.run = spy
    from repro.core import _native

    print(json.dumps({
        "available": _native.native_available(),
        "mode": _native.native_threading_mode(),
        "probes": [list(k) for k in _native._thread_probe_cache],
        "links": links,
    }))
    """
)


def _fresh_load():
    proc = subprocess.run(
        [sys.executable, "-c", WARM_LOAD_CHECK],
        capture_output=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_fresh_process_on_warm_cache_runs_no_compile():
    """The first load in a fresh process (a pool worker) must not probe
    or link when the artifact for the preferred mode is cached."""
    warm = _fresh_load()
    if not warm["available"]:
        pytest.skip("native kernels unavailable")
    if warm["mode"] != "pthread":
        pytest.skip("pthread does not link here, so it is re-probed by design")
    fresh = _fresh_load()
    assert fresh["mode"] == warm["mode"]
    assert fresh["probes"] == []
    assert fresh["links"] == []
