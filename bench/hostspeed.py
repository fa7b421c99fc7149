"""Rescaling of wall-clock times to a nominal host speed.

On a shared host the same code can run twice as slowly from one minute to
the next, because other tenants contend for the core, its caches and its
memory bandwidth.  The benchmark therefore times a fixed pure-Python kernel
right before and right after every timed call and scales the call's wall
time by ``NOMINAL_S / (mean of the two kernel times)``.  The kernel has the
shape of the program's own hot loops (scalar float arithmetic through a
Python function call), so contention slows both alike and the ratio stays
put.  The kernel lives in the benchmark and never changes with the program,
so a faster or slower program still reads as faster or slower.
"""
from __future__ import annotations

import time

ITERATIONS = 4000
# The kernel's time on an idle 2-vCPU Intel Xeon host at 2.1 GHz, so scaled
# times read as wall times on that host when it is idle.
NOMINAL_S = 4.0e-4


def _field(x: float) -> float:
    return ((x * x) - 1.0) / (1.0 + x * x)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    total = x = 0.0
    for _ in range(ITERATIONS):
        total += _field(x)
        x += 1e-4
    return time.perf_counter() - started


def timed(fn, *args, **kwargs):
    """Call ``fn``; returns (result or None, exception or None, wall seconds,
    wall seconds scaled to the nominal host speed)."""
    before = kernel_s()
    started = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - the caller reports it
        result, error = None, exc
    wall = time.perf_counter() - started
    reference = 0.5 * (before + kernel_s())
    return result, error, wall, wall * NOMINAL_S / reference
