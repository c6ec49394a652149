"""Calibration kernel that scales measured times to a reference machine speed.

The machine the benchmark was built on runs everything up to 2x slower in
phases lasting tens of seconds to minutes (other tenants share its cores).
A fixed pure-Python kernel, timed right before and right after a measured
step, tracks those phases.  Scaling the step's wall time by the kernel time
around it gives the step's time at the reference speed, where the kernel
takes REFERENCE_KERNEL_S.  The kernel calls no ``pamcurate`` code and runs
with the garbage collector off, so the objects the measured program keeps
alive do not change its time.
"""

from __future__ import annotations

import gc
import time

REFERENCE_KERNEL_S = 0.015


def _kernel() -> int:
    table = {i: (i, str(i)) for i in range(50_000)}
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return len(table) + acc


def kernel_seconds() -> float:
    """Fastest of two timed runs of the calibration kernel."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` scaled by the mean kernel time around the step."""
    return seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
