"""Run a probe script under different BLAS thread counts.

OpenBLAS splits long reductions over its threads, and the order of the
partial sums then depends on the thread count.  The tests that call this
check that results do not: each probe prints what it computed, once under
OPENBLAS_NUM_THREADS=1 and once under =2, each in a fresh interpreter (the
variable is read when numpy loads), and the outputs are compared.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def outputs_under_blas_threads(probe: str) -> list[str]:
    """Standard output of `python -c probe` under one and under two BLAS
    threads; each run must exit with 0."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = []
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs
