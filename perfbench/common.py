"""Shared helpers for the benchmark: statistics, host facts, memory, output.

Metric names and units come from ``BENCHMARK.json`` at the checkout
root, so the benchmark's declared metrics and the numbers this package
prints cannot drift apart.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, bad spec)."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {SPEC_PATH.name}: {exc}") from None


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(
            "no program to measure: src/repro is missing from this checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for a child process running this checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- host speed ----------------------------------------------------------

#: What each reference kernel takes on the host the bounds were set on.
REFERENCE_SECONDS = {"python": 0.005, "numpy": 0.005}


def _python_kernel() -> None:
    total = 0
    for i in range(60_000):
        total += i * i % 7


@functools.cache
def _sort_input():
    import numpy

    return numpy.random.default_rng(0).random(500_000)


def _numpy_kernel() -> None:
    import numpy

    numpy.sort(_sort_input())


def host_speed() -> tuple[float, float]:
    """How slow the host runs right now, relative to the reference host,
    by the wall clock and by this thread's CPU clock.

    Shared hosts speed up and slow down by 20% or more over seconds, as
    neighbours come and go; that swamps any bound a benchmark can hold.
    The benchmark times two fixed kernels, a pure-Python loop and a NumPy
    sort (the program's two kinds of work), between the timed stretches
    of a run, and divides the run's times by the slowness it saw, so
    results read as times on the reference host.  The kernels run in the
    benchmark process while the measured program is idle, so the
    program's own cost never leaks into the correction.  The wall-clock
    slowness also counts time the kernels waited for a core; the CPU
    slowness counts only how fast the core ran, and corrects CPU times.
    """
    wall = cpu = 1.0
    for name, kernel in (("python", _python_kernel), ("numpy", _numpy_kernel)):
        walls, cpus = [], []
        for _ in range(5):
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.thread_time() - c0)
        wall *= median(walls) / REFERENCE_SECONDS[name]
        cpu *= median(cpus) / REFERENCE_SECONDS[name]
    return math.sqrt(wall), math.sqrt(cpu)


def host_slowness() -> float:
    """The wall-clock slowness of :func:`host_speed`."""
    return host_speed()[0]


# -- host and memory -----------------------------------------------------


def host_metadata(seed: int, **flags) -> dict:
    """Facts a reader needs to reproduce a result on another host."""
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **flags,
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


@contextmanager
def work_dir():
    """A private scratch directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def log(message: str) -> None:
    """Progress notes go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)
