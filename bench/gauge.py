"""A speed gauge that puts wall times on one scale across a shared host.

Shared hosts change a core's speed by up to 2x for tens of seconds at a
time.  Timing a fixed piece of interpreter work right before and right
after a measured call tells how fast the core ran meanwhile, and the
call's wall time is scaled to what it would have taken at the reference
speed.  The gauge uses no package code, so a faster program does not move
it.
"""

from __future__ import annotations

import time

# The gauge's time on an uncontended core of the machine the baseline was
# taken on (Python 3.11, x86_64, 2.1 GHz); scaled times read as that machine.
GAUGE_REFERENCE_S = 1.4e-3
# When the gauge slows by a factor s, the workloads slow by about
# s ** SENSITIVITY: fitted per op on each workload, 0.5 to 0.8, and chosen
# to minimise the spread of 20 s medians over all three.
SENSITIVITY = 0.7


def gauge() -> float:
    """Seconds for a fixed piece of interpreter work: dict, float and str ops."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0
    for i in range(6000):
        table[i % 101] = table.get(i % 101, 0.0) + i * 0.5
        acc += len(str(i))
    return time.perf_counter() - start


def to_reference(wall_s: float, gauge_s: float) -> float:
    """Wall seconds measured while the gauge read ``gauge_s``, at reference speed."""
    return wall_s * (GAUGE_REFERENCE_S / gauge_s) ** SENSITIVITY


def timed(fn):
    """Call ``fn()``; return (result, wall seconds, seconds at reference speed)."""
    before = gauge()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = gauge()
    return result, elapsed, to_reference(elapsed, (before + after) / 2)
