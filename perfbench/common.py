"""Shared helpers: checkout paths, statistics, digests, memory probes.

Importing this module puts the checkout's ``src`` directory on
``sys.path`` so the benchmark drives the program built from the same
source tree; it starts nothing and touches no file.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
#: Everything a run writes lives under here (ignored by git).
WORK_ROOT = os.path.join(BENCH_DIR, "_work")
INPUT_CACHE = os.path.join(WORK_ROOT, "inputs")

if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

#: Dataset shape shared by every workload (the bench chromosomes).
TEMPLATES = 20_000
CHROMOSOMES = (("chr1", 600_000), ("chr2", 400_000))
#: Worker processes / client connections: the machine's core count.
NPROCS = 2

MB = 1e6


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values) -> float | None:
    """(Q3 - Q1) / median, or ``None`` below three samples."""
    if len(values) < 3:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def digest_files(paths) -> str:
    """SHA-256 of the concatenation of *paths*, read in chunks."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                h.update(chunk)
    return h.hexdigest()


def parts_digest(paths) -> str | None:
    """Digest of the part files in order, or ``None`` if one is missing
    or the list is empty."""
    if not paths or not all(os.path.isfile(p) for p in paths):
        return None
    return digest_files(paths)


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Reset a process's ``VmHWM`` to its current RSS (Linux)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB, or 0.0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return 0.0


def fresh_dir(path: str) -> str:
    """Empty directory at *path* (removed first if present)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def environment() -> dict:
    """Host facts recorded with every result."""
    import platform

    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
