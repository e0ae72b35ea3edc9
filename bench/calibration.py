"""Host-speed calibration of reported times.

On a shared virtual machine the host's speed drifts by tens of percent
over minutes, alike for the program and for a fixed pure-Python loop.
A run times that loop (``kernel``, about 2 ms) throughout its measured
window and reports times scaled by ``REF_S / median loop time``: seconds
on a host where the loop takes ``REF_S``.  Samples must cover the window
the ops ran in, long ops included, so ``during`` samples every
``INTERVAL_S`` from a SIGALRM handler, in the process that runs the ops;
callers keep ``paused``, the time the handler took, out of op latencies.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REF_S = 0.002
INTERVAL_S = 0.25


def kernel() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(20000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


class Calibration:
    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # seconds the SIGALRM handler took, summed

    def sample(self, k: int = 1) -> None:
        self.samples += [kernel() for _ in range(k)]

    @contextmanager
    def during(self):
        def handler(signum, frame):
            start = time.perf_counter()
            self.sample()
            self.paused += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.samples) / REF_S

    def scale(self, metrics: dict) -> dict:
        """Times (``*_s``) divided by the speed, ``ops_per_s`` multiplied."""
        speed = self.speed()
        out = {}
        for name, value in metrics.items():
            if name == "ops_per_s":
                value = value * speed
            elif name.endswith("_s"):
                value = value / speed
            out[name] = value
        return out
