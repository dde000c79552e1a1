"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import oracle

#: Causes a failed operation is counted under.
ERROR, TIMEOUT, WRONG, NO_WITNESS = "error", "timeout", "wrong verdict", "no witness"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by linear interpolation."""
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def timed(fn: Callable[[], object]) -> float:
    """Wall seconds of one call of ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def join_children(timeout: float = 60.0) -> None:
    """Wait until every ``multiprocessing`` child of this process has exited;
    kill any that is still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def _child_pids() -> List[int]:
    """Process ids whose parent is this process, read from ``/proc``."""
    pids = []
    me = str(os.getpid())
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The fields after the parenthesised command name: state, ppid, ...
        if stat[stat.rfind(")") + 2:].split()[1] == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 60.0) -> None:
    """End every process this run started and wait for each.

    Pool workers (process ``BatchRunner`` and ``PassivityService`` shut their
    pools down without joining) are joined first; then the shared-memory
    ``resource_tracker`` — whose pipe the workers also held — is stopped and
    waited for, instead of being left to exit after this process.  Any other
    child still found is killed and reaped.
    """
    join_children(timeout)
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


@dataclass
class Tally:
    """Operations attempted and failed, each failure with its cause."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check(self, name: str, truth: Optional[oracle.Truth], passive: Optional[bool],
              cause: Optional[str] = None) -> None:
        """Count one operation; ``passive`` is the program's verdict (None on
        error or timeout, with ``cause`` saying which)."""
        self.attempted += 1
        if cause is not None:
            self.failures[cause] += 1
        elif truth is None:
            self.failures[NO_WITNESS] += 1
        elif passive != (truth.verdict == oracle.PASSIVE):
            self.failures[WRONG] += 1
            print(f"wrong verdict on {name}: program says passive={passive}, "
                  f"oracle: {truth.verdict} ({truth.reason})")


@dataclass
class Result:
    """What a workload run hands back to :mod:`run`."""

    tally: Tally
    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    #: Workload-specific figures printed above the result line.
    notes: List[str] = field(default_factory=list)
