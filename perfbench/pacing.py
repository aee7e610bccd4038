"""Measured windows on an uncontended CPU.

On a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz) each vCPU switches every few
seconds between a fast state and one about 1.7x slower (a neighbour sharing
the physical core); CPU time slows as much as wall time, so neither escapes
it.  A run-wide median mixes the two states in whatever proportion
the run happened to meet, which spread 30% between runs.

So every measured window is bracketed by a fixed pure-Python probe that does
not touch the program under test.  Before the window the probe runs on each
allowed CPU and the window is pinned to the fastest; after it, the probe runs
again on that CPU.  Timings are reported only over windows whose slower probe
is within ``FAST_SLACK`` of the fastest probe of the run, i.e. windows that
ran in the fast state.  Counts (attempts, errors) use every window.
"""

from __future__ import annotations

import os
import time
from typing import Callable, TypeVar

T = TypeVar("T")

FAST_SLACK = 1.2
MIN_KEPT = 3
_MAX_CPUS = 4
_KEYS = [f"k{i}" for i in range(256)]


def probe_seconds() -> float:
    """Wall time of a fixed dict-and-string loop (about 2 ms on a fast core)."""
    t0 = time.perf_counter()
    d: dict[str, int] = {}
    s = 0
    for i in range(6000):
        k = _KEYS[i & 255]
        d[k] = d.get(k, 0) + i
        s += len(k)
    return time.perf_counter() - t0


def _allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))[:_MAX_CPUS]
    except (AttributeError, OSError):
        return []


def _pin(cpus: set[int]) -> bool:
    try:
        os.sched_setaffinity(0, cpus)
        return True
    except (AttributeError, OSError):
        return False


class Pacer:
    """Runs windows and remembers each window's speed index."""

    def __init__(self) -> None:
        self.cpus = _allowed_cpus()
        self.index: list[float] = []

    def window(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` pinned to the fastest CPU; child processes inherit the pin."""
        best_cpu, before = None, None
        for cpu in self.cpus:
            if not _pin({cpu}):
                break
            t = probe_seconds()
            if before is None or t < before:
                best_cpu, before = cpu, t
        if best_cpu is None:
            before = probe_seconds()
        else:
            _pin({best_cpu})
        try:
            return fn()
        finally:
            self.index.append(max(before, probe_seconds()))
            if self.cpus:
                _pin(set(self.cpus))

    def kept(self) -> list[int]:
        """Indices of the windows that ran in the fast state."""
        if not self.index:
            return []
        fastest = min(self.index)
        keep = [i for i, x in enumerate(self.index) if x <= FAST_SLACK * fastest]
        if len(keep) >= min(MIN_KEPT, len(self.index)):
            return keep
        order = sorted(range(len(self.index)), key=self.index.__getitem__)
        return sorted(order[: max(MIN_KEPT, len(self.index) // 4)])
