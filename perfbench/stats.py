"""Arithmetic shared by run.py, worker.py and the benchmark's tests.

Nothing here imports stpafl, so run.py can use it before it has checked that
the program is present.
"""

from __future__ import annotations

import math
import os
import platform


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - math.ceil(p / 100.0 * n)


def round_intervals(stamps) -> list[float]:
    """Seconds between successive rounds as the CLI saw them.

    stamps[k] is when round k reached the CLI. Round 0 has no interval: its
    time since the run started includes set-up.
    """
    return [b - a for a, b in zip(stamps, stamps[1:])]


def failed_run_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no runs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def machine_info() -> dict:
    """Interpreter, numpy, BLAS and core count that a result was measured on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
