"""Building and loading the native kernels' cached artifact.

``_native._build`` keys the artifact by source text and compiler version
only.  A cached artifact loads without running the compiler; otherwise
the library is built with ``-pthread``, or serial into the same cache
entry when the toolchain rejects that flag.  The unit tests use a
private temp directory; the last test checks in a fresh interpreter that
a warm cache loads without a compile step.
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.core import _native

VERSION = "cc (test) 1.0"


@pytest.fixture
def private_cache(monkeypatch, tmp_path):
    """Point the artifact cache at ``tmp_path`` with fresh memos."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_native, "_compiler_version_cache", {})
    return tmp_path


def _source():
    with open(_native._SOURCE_PATH, "rb") as fh:
        return fh.read()


def test_cached_artifact_loads_without_compiling(private_cache, monkeypatch):
    cache_dir = _native._cache_dir(_source(), VERSION)
    os.makedirs(cache_dir)
    lib_path = os.path.join(cache_dir, _native._LIB_BASENAME)
    open(lib_path, "wb").close()
    loaded = []

    def refuse(*args, **kwargs):
        raise AssertionError("a warm cache must not run the compiler")

    monkeypatch.setattr(_native, "_find_compiler", lambda: "cc-under-test")
    monkeypatch.setattr(_native, "_compiler_version", lambda compiler: VERSION)
    monkeypatch.setattr(_native, "_compile", refuse)
    monkeypatch.setattr(_native.ctypes, "CDLL", lambda path: loaded.append(path))
    monkeypatch.setattr(_native, "_declare", lambda lib: None)
    _native._build()
    assert loaded == [lib_path]


FAKE_CC = """#!/bin/sh
echo "$*" >> "{log}"
if [ "$1" != "--version" ] && [ "{reject}" = yes ]; then
    for arg in "$@"; do
        [ "$arg" = "-pthread" ] && exit 1
    done
fi
exec "{real}" "$@"
"""


@pytest.mark.skipif(_native._find_compiler() is None, reason="no system C compiler")
@pytest.mark.parametrize(
    "reject, mode",
    [(False, "pthread"), (True, "serial")],
    ids=["accepts", "rejects"],
)
def test_empty_cache_builds_pthread_else_serial(
    private_cache, monkeypatch, reject, mode
):
    """A toolchain that rejects ``-pthread`` still yields a loaded library,
    built serial into the one cache entry; one that accepts it is not
    asked twice."""
    log = private_cache / "cc.log"
    fake = private_cache / "fake-cc"
    fake.write_text(FAKE_CC.format(
        log=log, reject="yes" if reject else "no", real=_native._find_compiler()
    ))
    fake.chmod(0o755)
    monkeypatch.setattr(_native, "_find_compiler", lambda: str(fake))

    lib = _native._build()
    backend = _native._THREAD_BACKEND_NAMES[lib.repro_threading_backend()]
    assert backend == mode
    builds = [line for line in log.read_text().splitlines() if "-shared" in line]
    expected = [True, False] if reject else [True]
    assert ["-pthread" in line for line in builds] == expected
    cache_dir = _native._cache_dir(_source(), _native._compiler_version(str(fake)))
    assert os.listdir(cache_dir) == [_native._LIB_BASENAME]


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
    """The first load in a fresh process (a pool worker) must not link
    when the artifact is cached, whichever threading mode it holds."""
    warm = _fresh_load()
    if not warm["available"]:
        pytest.skip("native kernels unavailable")
    fresh = _fresh_load()
    assert fresh["mode"] == warm["mode"]
    assert fresh["links"] == []
