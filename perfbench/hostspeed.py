"""Host-speed reference for timings taken on a shared, noisy machine.

While a pass runs, a SIGALRM handler on the main thread runs a fixed kernel
every ``INTERVAL_S`` of wall time and records how long it took. The kernel
uses the standard library only (hashing, small tuples, a dict, reads
scattered over a table), so no change to chainotp changes it. Time spent in
the handler is excluded from ``clock()``, which the workloads time
themselves with.

A timing T of a set-up or epoch is corrected to the reference speed as
``T / slowdown``, the slowdown being the mean kernel time during that
set-up or epoch over ``NOMINAL_S``: what T would read on a host that runs
the kernel in ``NOMINAL_S``. On the 2-vCPU Intel Xeon VM the benchmark was
tuned on, load from other tenants moved host speed by up to 2x within
minutes: uncorrected, the interquartile spread of login_per_s over a
sequence of runs reached 47% of its median; corrected, it stayed within
9% on every workload over ten seeds.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

NOMINAL_S = 0.0003
INTERVAL_S = 0.025
_TABLE_BITS = 15


def _kernel(table: list[bytes]) -> int:
    # Small tuples and a dict make it lean on the allocator the way the
    # library does; all of them are freed before it returns.
    mask = len(table) - 1
    d = bytes(32)
    seen = {}
    j = 0
    for _ in range(200):
        j = (j * 1103515245 + 12345) & mask
        d = hashlib.sha256(d + table[j]).digest()
        seen[d[:16]] = (j, d)
    return len(seen)


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._table = [i.to_bytes(8, "big") for i in range(1 << _TABLE_BITS)]
        self._stolen = 0.0

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return perf_counter() - self._stolen

    def _sample(self, _signum, _frame) -> None:
        # With collection paused, the kernel's allocations and frees cancel
        # out in the collector's counts: sampling does not move when the
        # workload's garbage collections happen.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _kernel(self._table)
        end = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self._stolen += perf_counter() - start

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Mean kernel time over NOMINAL_S for samples[start:stop], or for
        all samples if that slice is empty: above 1 means a slower host."""
        return statistics.mean(self.samples[start:stop] or self.samples) / NOMINAL_S
