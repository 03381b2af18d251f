"""The compute plane's thread policy: one BLAS thread per process.

Every gemm in this program is small — the paper's 128-64 MLP on 20-sample
minibatches, a 500-sample evaluation, a 17k-element momentum ``ddot`` — so a
BLAS helper thread never pays for its wake-up, and it spins on a core that
the program's *own* parallelism (``--jobs`` workers, shard workers) wants.
Threaded reductions also sum in another order, so the bits of a run would
depend on the host's core count.  The policy is therefore fixed: each
process runs BLAS on :data:`BLAS_THREADS` thread and parallelism comes from
processes only.

It is applied at run time, not through the environment (which is read once,
at library load, and which an exported ``OPENBLAS_NUM_THREADS`` would win):
:func:`pin_blas_threads` finds the BLAS libraries already mapped into the
process and calls their C set-num-threads entry point.  ``threadpoolctl``
does the same job and is deliberately not a dependency.  Where there is no
``/proc`` or no known library (macOS/Accelerate, a static BLAS) both
functions are silent no-ops returning ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["BLAS_THREADS", "blas_threads", "pin_blas_threads", "thread_entry_points"]

#: The thread count of the policy.  A constant, not an option: see above.
BLAS_THREADS = 1

#: ``(setter, getter)`` symbol pairs taking / returning a C ``int`` by value.
#: OpenBLAS builds differ by a symbol prefix (NumPy's wheels: ``scipy_``) and
#: an ILP64 suffix (``64_`` or ``_64``).  The Fortran-convention setters
#: (``..._`` and ``..._64_``) sit beside them in the same library, take a
#: *pointer*, and segfault when handed an int — they are never listed.
_ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    *(
        (f"{prefix}openblas_set_num_threads{suffix}", f"{prefix}openblas_get_num_threads{suffix}")
        for prefix in ("", "scipy_")
        for suffix in ("", "64_", "_64")
    ),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
    ("bli_thread_set_num_threads", "bli_thread_get_num_threads"),
)

_LIBRARY_NAME = re.compile(r"lib(scipy_)?openblas|libmkl_rt|libblis")


def thread_entry_points(library: Any) -> Optional[Tuple[str, str]]:
    """The ``(setter, getter)`` symbol names ``library`` exports, or ``None``.

    ``library`` is anything that resolves symbols by attribute access (a
    :class:`ctypes.CDLL`, or a stand-in in tests).
    """
    for setter, getter in _ENTRY_POINTS:
        if hasattr(library, setter) and hasattr(library, getter):
            return setter, getter
    return None


def _mapped_blas_libraries() -> List[str]:
    """Paths of the BLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            # address perms offset dev inode [path]
            entries = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = {entry[5].strip() for entry in entries if len(entry) == 6}
    return sorted(path for path in paths if _LIBRARY_NAME.match(os.path.basename(path)))


@functools.lru_cache(maxsize=None)
def _entry_points() -> Tuple[Tuple[Callable[[int], None], Callable[[], int]], ...]:
    """The ``(setter, getter)`` C functions of every mapped BLAS library.

    Looked up once per process (reading ``/proc/self/maps`` costs more than
    the rest of a small engine build's bookkeeping): NumPy maps its BLAS at
    import, before any caller can get here, and a forked child shares the
    parent's mappings.
    """
    found = []
    for path in _mapped_blas_libraries():
        try:
            library = ctypes.CDLL(path)  # already mapped: a handle, not a load
        except OSError:
            continue
        names = thread_entry_points(library)
        if names is None:
            continue
        setter, getter = getattr(library, names[0]), getattr(library, names[1])
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        found.append((setter, getter))
    return tuple(found)


def pin_blas_threads() -> Optional[int]:
    """Set every mapped BLAS library to :data:`BLAS_THREADS`; returns
    :func:`blas_threads` afterwards.  Idempotent and cheap — every engine
    and shard build calls it before its first gemm.

    A library already at the count is left alone: OpenBLAS shuts its thread
    pool down across ``fork`` and any call to its setter starts the pool
    again, so a forked shard worker of a pinned coordinator would get a
    helper thread back only for it to spin ~0.1 s and sleep forever.
    """
    for setter, getter in _entry_points():
        if getter() != BLAS_THREADS:
            setter(BLAS_THREADS)
    return blas_threads()


def blas_threads() -> Optional[int]:
    """The BLAS thread count in effect in this process (the largest over the
    mapped libraries), or ``None`` when no known library is mapped."""
    return max((int(getter()) for _, getter in _entry_points()), default=None)
