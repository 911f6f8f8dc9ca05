"""Host speed measured while an operation runs.

On shared machines the host's speed changes by up to a factor of two within
seconds, with no steal time to show for it. Every PERIOD_S seconds a SIGALRM
handler times a fixed kernel that shares no code with the simulator; an
operation's host time minus the handler's time, times REFERENCE_KERNEL_S over
the mean kernel time, is its time in reference seconds: what it would have
taken at the reference speed. Sampling inside the operation tracks speed
changes that timing a kernel only before and after a long operation misses.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
# About the kernel's time, in its faster phases, on the 2-vCPU Xeon (2.1 GHz)
# virtual machine the benchmark was written on.
REFERENCE_KERNEL_S = 1e-4


class Speedometer:
    """Context manager: samples the kernel time while its block runs."""

    def __init__(self):
        self._vec = np.linspace(0.0, 1.0, 64)
        self._mat = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler
        self.kernel()  # first calls in a fresh process run slower

    def kernel(self) -> float:
        """Interpreter loop, small numpy calls and a small matrix product:
        the mix the workloads run."""
        acc = 0.0
        table = {}
        for i in range(120):
            x = math.hypot(i * 0.5, acc % 7.0)
            table[i & 63] = x
            acc += x * 1e-6
        for _ in range(6):
            acc += float(np.minimum(self._vec, acc % 1.0).sum())
        return acc + float((self._mat @ self._mat)[0, 0])

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self.samples.clear()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one period: sample after it
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def kernel_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def reference_seconds(self, host_seconds: float) -> float:
        """``host_seconds`` of the block, without the handler's share, at
        the reference speed."""
        return (host_seconds - self.spent) * REFERENCE_KERNEL_S / self.kernel_s
