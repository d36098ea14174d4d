"""Start-up shared by the benchmark's entry points.

Pins BLAS to one thread before numpy loads, and makes `relconn` import
from this checkout's `src/` and nowhere else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class MissingSource(Exception):
    """The checkout holds no relconn source to benchmark."""


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "relconn" / "__init__.py").is_file():
        raise MissingSource(f"no relconn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
