"""Pieces shared by the workloads: the operation record and the statistics."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the workloads are single-client, and on a 2-core machine
# a threaded BLAS start-up once cost 1 s on an N = 128 norm that takes 5 ms.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment():
    """Fix the BLAS thread count and the import path before numpy loads."""
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    """Environment for `conj` subprocesses: same BLAS pinning, no user seed."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("CONJ_SEED", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class Op:
    """One timed call into the program and the check of its result.

    `check` returns None when the result is right, else a one-line reason.
    `known_fault` is the reason a recorded fault of the program gives: a
    failure with that reason counts in `failed` but not against `correct`.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    known_fault: str | None = None


def min_ops_for_tail(p):
    """Fewest samples that leave at least ten beyond the p-th percentile."""
    return math.ceil(10.0 / (1.0 - p / 100.0) - 1e-9)
