"""Host-state sampling while a repetition runs, to take host drift out of its times.

The sizing host (a 2-vCPU VM on shared hardware) disturbs a run in two ways,
neither of which medians or minima of raw seconds survive:

* **speed** — identical code runs up to 1.8x slower for seconds to minutes at
  a stretch (three distinct levels, no steal involved);
* **steal** — the hypervisor takes vCPUs away in bursts; a lock-step sharded
  run then stalls for about as long as was stolen (2 s runs reading 7 s).

Ten 15-second measurements of one workload spread 0.06-0.19 (inter-quartile
range / median) in raw seconds in the sets under ``bench/evidence/`` and
twice that in a turbulent quarter of an hour.  Probing the host *between*
repetitions barely helps (correlation 0.6 with the repetition's time): its
state has to be sampled *while* the repetition runs.

Speed: an interval timer interrupts the main thread every ``PERIOD_S`` and
the handler times a fixed spin (:meth:`HostSpeed._spin`) in thread CPU time.
The mean sample over a phase, relative to ``REFERENCE_S``, is the phase's
*slowdown*.
Steal: the ``steal`` column of ``/proc/stat`` is read at every phase boundary.

:attr:`Phase.quiet_wall_s` turns a phase's raw wall seconds into the seconds
the same work takes on an undisturbed reference host: the handler's own time
is subtracted, the wall shrinks by the share of wanted vCPU time that was
stolen (``steal / (cpu + steal)``: one stolen second stalls a single-process
run for one second, a run that keeps two vCPUs busy for half of one), and the
result is divided by the slowdown.  This assumes that BLAS, numpy kernels,
disk writes and IPC waits slow down with the interpreter.  That is an
assumption about the host, tested only by its result: in both ten-seed sets
in ``bench/evidence/`` the unscaled seconds spread wider than the scaled ones
on every workload (1.1 to 5.9 times), the sharded and the checkpointing ones
included.  The unscaled seconds, the slowdown and the stolen share are
reported beside every scaled number (``host.raw_*``, ``host.slowdown``,
``host.stolen_frac``), so a reader can undo the scaling.

``REFERENCE_S`` only fixes the unit.  On another host or interpreter every
scaled second is longer or shorter by one constant factor, as raw seconds
would be; two commits are compared on one host.

The spin is harness code, so no change under ``src/`` can move it.  Shard
workers are forked without the timer (interval timers are not inherited) and
interrupted system calls are retried by the interpreter (PEP 475).  The
program under test must not use ``SIGALRM`` itself; nothing in ``src/`` does.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Any, List, Optional, Type

import numpy as np

PERIOD_S = 0.02
#: One spin on the sizing host in its usual state (CPython 3.11): the unit of "slowdown".
REFERENCE_S = 0.9e-3

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _stolen_s() -> float:
    """vCPU-seconds the hypervisor has withheld from this machine since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / _TICKS_PER_S
    except (OSError, IndexError, ValueError):  # no Linux /proc: nothing to correct
        return 0.0


def _cpu_s() -> float:
    """user+sys CPU of this process plus every reaped child, so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass(frozen=True)
class Mark:
    """Clocks and cumulative sampler state at one instant."""

    at: float
    cpu_s: float
    stolen_s: float
    samples: int
    handler_wall_s: float
    handler_cpu_s: float


@dataclass(frozen=True)
class Phase:
    """What happened between two marks, the handler's own time taken out."""

    wall_s: float
    #: CPU of the process and the children it reaped in the phase.
    cpu_s: float
    #: vCPU-seconds stolen from the machine.
    stolen_s: float
    #: Mean spin time as a multiple of the reference host's.
    slowdown: float

    @property
    def stolen_frac(self) -> float:
        """Share of the vCPU time the phase wanted that the hypervisor withheld."""
        wanted = self.cpu_s + self.stolen_s
        return self.stolen_s / wanted if wanted > 0.0 else 0.0

    @property
    def quiet_wall_s(self) -> float:
        """The phase's wall as seconds on an undisturbed reference host."""
        return self.wall_s * (1.0 - self.stolen_frac) / self.slowdown

    @property
    def quiet_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


class HostSpeed:
    """Context manager: sample the host's state in the main thread while active."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._handler_wall_s = 0.0
        self._handler_cpu_s = 0.0
        self._ticking = False
        self._previous: Any = None
        # Operands of the spin; the values are irrelevant but must stay finite.
        self._cached = np.linspace(0.5, 1.5, 1 << 13)  # 64 KiB: stays in cache
        self._spilled = np.linspace(0.5, 1.5, 1 << 17)  # 1 MiB: does not
        self._matrix = np.linspace(0.5, 1.5, 1 << 10).reshape(32, 32) / 32.0
        self._keys = list(range(1_500))
        self._table = {key: key for key in range(5_000)}

    def _spin(self) -> None:
        """About a millisecond of each kind of work the program does: bytecode,
        numpy kernels in and out of cache, small gemms, object churn.  A host
        that slows one kind more than another (cache or memory contention hits
        numpy, not bytecode) is tracked by the sum better than by any part:
        per-repetition residual 0.04-0.05 against 0.06-0.07 for bytecode alone
        and 0.06-0.10 for no scaling, on four workloads."""
        total = 0
        for i in range(5_000):
            total += i * i % 7
        for _ in range(12):
            out = self._cached * 1.0001
            out += 1.0
        out = self._spilled * 1.0001
        out += 1.0
        product = self._matrix
        for _ in range(25):
            product = product @ self._matrix
        churn = [self._table[key] + 1 for key in self._keys]
        churn.sort(reverse=True)

    def _tick(self, signum: int = 0, frame: Any = None) -> None:
        if self._ticking:  # the timer fired inside a sample: it would be timed twice
            return
        self._ticking = True
        wall = time.perf_counter()
        cpu = time.thread_time()
        self._spin()
        took = time.thread_time() - cpu
        self._samples.append(took)
        self._handler_cpu_s += took
        self._handler_wall_s += time.perf_counter() - wall
        self._ticking = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        """A phase boundary.  Takes one sample after reading the clocks, so the
        phase that begins here, however short, has one."""
        mark = Mark(
            at=time.perf_counter(),
            cpu_s=_cpu_s(),
            stolen_s=_stolen_s(),
            samples=len(self._samples),
            handler_wall_s=self._handler_wall_s,
            handler_cpu_s=self._handler_cpu_s,
        )
        self._tick()
        return mark

    def phase(self, begin: Mark, end: Mark) -> Phase:
        # Through the sample `end` took: it is the closest one to the phase's last moments.
        spins = self._samples[begin.samples : end.samples + 1]
        return Phase(
            wall_s=end.at - begin.at - (end.handler_wall_s - begin.handler_wall_s),
            cpu_s=end.cpu_s - begin.cpu_s - (end.handler_cpu_s - begin.handler_cpu_s),
            stolen_s=end.stolen_s - begin.stolen_s,
            slowdown=sum(spins) / len(spins) / REFERENCE_S,
        )
