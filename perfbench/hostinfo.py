"""Host facts recorded with every benchmark result.

Kept free of numpy imports at module level: :func:`pin_threads` must run
before numpy (and its BLAS) is loaded.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from typing import Dict

#: every thread-count knob the BLAS/OpenMP builds numpy may ship with
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: iterations of the host-speed probe loop
PROBE_LOOP = 2_000_000


def pin_threads() -> None:
    """One BLAS/OpenMP thread.  OpenBLAS's default threading changes
    the Eq. 8 worst-case searches' floating-point results (8907 instead
    of 8900 simulations on the Table-1 run), so the counts only repeat
    when pinned."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms
    ticks), or since the interpreter loaded this module when /proc is
    unavailable."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _LOADED


_LOADED = time.perf_counter()


def host_speed_probe_s() -> float:
    """Time of a fixed pure-Python loop.  Recorded beside the metrics
    so a reader can tell a slow host from a regression; it is neither a
    metric nor a normaliser."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    elapsed = time.perf_counter() - start
    if total <= 0:  # consumes the loop's result
        raise RuntimeError("host-speed probe loop did not run")
    return elapsed


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process, plus that of its largest
    reaped child when asked (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def library_versions() -> Dict[str, str]:
    import numpy
    import scipy
    versions = {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        versions["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        versions["blas"] = "unknown"
    return versions


def metadata(probe_s: float) -> Dict:
    return {
        "threads": {name: os.environ.get(name)
                    for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "versions": library_versions(),
        "host_speed_probe_s": probe_s,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
