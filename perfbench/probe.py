"""Set-up probe: a fresh process that gets ready for a batch workload.

``python perfbench/probe.py WORKLOAD WORK_DIR`` imports the program, loads
the native kernels and starts a worker pool by running the workload's
entry point once on a tiny input, then prints ``ready``.  The parent times
spawn to ``ready``: that is the set-up a user's script pays on every run.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import BATCH  # noqa: E402

if __name__ == "__main__":
    BATCH[sys.argv[1]].probe_job(Path(sys.argv[2]))
    print("ready", flush=True)
