"""Host context recorded beside every set of runs, a fixed drift probe, and the
sweep that leaves no process of this one behind."""

from __future__ import annotations

import multiprocessing
import os
import platform
import signal
import subprocess
import time
from pathlib import Path
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional

import numpy as np


def host_context() -> Dict[str, Any]:
    """What the numbers were measured on.  Env knobs are recorded, never set."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        # What ShardedEngine picks when start_method is left at its default.
        "start_method": "fork" if "fork" in methods else methods[0],
        "git_commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None where there is no git or no repository."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def host_probe_s() -> float:
    """Time a fixed pure-Python + gemm loop.

    Recorded before every round so that host drift between two sets of runs
    is visible; never used to rescale a measurement.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(200):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - start


def _child_pids() -> List[int]:
    """Pids whose parent is this process, zombies included, from ``/proc``."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # gone between listdir and open
            if fields[1] == me:  # state, ppid, ...
                pids.append(int(entry))
    return pids


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The engine joins its shard workers itself.  What a sharded run leaves is
    multiprocessing's resource tracker, started with the first ``SharedMemory``
    segment: it ends only once this process has, so it outlives every
    measurement by a moment (for good, as a zombie, where nothing reaps
    orphans).  Closing its pipe makes it clean up and exit; anything else
    still there is killed.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended and reaped in the meantime
