"""``python -m repro.serve`` with the benchmark's span wrappers installed.

``python perfbench/traced_server.py SPAN_DIR [serve arguments...]`` runs
the same ``repro.serve.server.main`` as ``python -m repro.serve`` and
writes this process's spans to ``SPAN_DIR/spans-<pid>.jsonl`` on exit.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer, install  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer(Path(sys.argv[1]))
    install(tracer)
    from repro.serve.server import main

    try:
        code = main(sys.argv[2:])
    finally:
        tracer.flush()
    sys.exit(code)
