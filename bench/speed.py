"""Host-speed probe: wall times rescaled to one reference speed.

On a shared virtual machine the CPU this process runs on switches between
speed states within a second, and sometimes stays slow for tens of
seconds, because of work outside this process. The same invocation then
takes up to 1.7x as long. A ``SpeedProbe`` runs a fixed piece of work
(``_work``: small complex matrix products, an eigensolve, a Kronecker
product and a Python loop, the kinds of work paradoxlab does) every
``PERIOD_S`` in a background thread, and records its CPU time.
``rescale(start, seconds)`` multiplies a wall time by ``REFERENCE_S`` over
the probe's mean CPU time in and around that interval, so that it reads as
it would on a host where the probe takes ``REFERENCE_S``.

The probe thread and the measured work must share one CPU, because each
CPU has its own speed state: ``pin_to_one_cpu`` pins this process (and the
processes it starts) to one CPU before the probe starts. The probe's CPU
time (``time.thread_time``) does not count the time it waits for the GIL
or for the CPU, so the measured work slowing the probe down does not pass
for a slow host. The probe costs the measured work about 2% of its time.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# The probe's CPU time in the fast state of the reference host: a 2-vCPU
# KVM guest on an Intel Xeon at 2.0 GHz, numpy 2.4.6, one BLAS thread.
REFERENCE_S = 0.43e-3
PERIOD_S = 0.025
# Probe samples this far either side of an interval also count, so a short
# interval has a few. Speed states can change within a second: on the
# reference host, windows of 0.02-0.05 s tracked them best, and 0.25 s
# or more blurred them.
WINDOW_S = 0.03

_M = np.arange(64).reshape(8, 8) * (1 + 0.5j) / 64
_H = _M + _M.conj().T


def _work() -> int:
    for _ in range(4):
        np.linalg.eigvalsh(_H)
        np.kron(_M[:2, :2], _M[:4, :4])
        _H @ _H
    total = 0
    for i in range(300):
        total += len(str(i)) * (i & 7)
    return total


def pin_to_one_cpu() -> int:
    """Pin this process to the lowest CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the speed of this process's CPU while it is open."""

    def __init__(self):
        self._times: list = []
        self._cpu: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        _work()  # load numpy's lazy parts before the first sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            cpu = time.thread_time()
            at = time.perf_counter()
            _work()
            self._cpu.append(time.thread_time() - cpu)
            self._times.append(at)

    def __len__(self) -> int:
        return len(self._cpu)

    def median_s(self) -> float:
        return statistics.median(self._cpu)

    def rescale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the reference speed."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, start + seconds + WINDOW_S)
        if lo == hi:  # no sample near: take the one just before
            lo = min(max(lo - 1, 0), len(self._times) - 1)
            hi = lo + 1
        return seconds * REFERENCE_S / statistics.fmean(self._cpu[lo:hi])
