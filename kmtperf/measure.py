"""Statistics, resource readings and the environment block shared by every workload.

Nothing here imports the program under test, so the launcher can use it
before it has checked that the program is present.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys

#: Percentiles the tail metric may report, low to high.  The benchmark picks
#: the highest one that leaves at least :data:`TAIL_MIN_BEYOND` designed
#: samples beyond it, so the choice depends on the run's design only.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10
#: Percentile ``paper-cold`` reads its query and pass times at.  On a shared
#: host neighbours slow a CPU by up to half for seconds at a time, so the
#: median of a run's cold queries moves with how long they stayed; the low
#: decile stays with the program's cost on an uncontended CPU.
LOW_Q = 10.0


def median(values):
    return statistics.median(values)


def low(values):
    """The :data:`LOW_Q` nearest-rank percentile of ``values``."""
    return nearest_rank(sorted(values), LOW_Q)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(designed_count):
    """The highest ladder percentile with >= 10 designed samples beyond it.

    ``designed_count`` is how many samples the run was designed to take
    (rate x window for an open loop), not how many it took: a slower program
    that completes fewer requests must not change which percentile is read.
    """
    best = None
    for q in TAIL_LADDER:
        # In hundredths of a percent, so 99.9 leaves exactly 10 of 10000.
        if designed_count * (10000 - round(q * 100)) >= TAIL_MIN_BEYOND * 10000:
            best = q
    if best is None:
        raise ValueError(f"{designed_count} designed samples cannot support a tail")
    return best


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile ``q`` (0-100] of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def peak_rss_mb(pid="self"):
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def source_digest(root):
    """SHA-256 over the program's source files (path and content), in order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, workload, seed, seconds, trace, params):
    """What makes two results comparable: code, host, interpreter and inputs."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "argv": sys.argv[1:],
    }


def cpus():
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(pid, cpu_set):
    """Move every thread of process ``pid`` onto ``cpu_set``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpu_set)
        except ProcessLookupError:
            pass  # the thread ended meanwhile
