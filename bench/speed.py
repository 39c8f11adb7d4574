"""Machine speed, measured by a fixed reference loop between operations.

On a shared machine the speed of one core drifts by up to a factor of
two over seconds to minutes, as other tenants come and go, and a
process's CPU time drifts with it.  The end-to-end times are therefore
reported at a nominal machine speed: each raw time is multiplied by
``REF_S / mean(reference samples taken during the same run)``.  The
reference calls nothing in blowuplab, so a change to the program cannot
move it, while a change in the machine's speed moves it and the
operations alike.  The raw times are printed beside the scaled ones.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.0035  # typical duration of one reference() on a 2-core Xeon VM
REF_EVERY_S = 0.5  # sample after an operation once this much time has passed
REF_SHARE = 0.1  # reference time as a share of the time since the last sample
REF_BURST_S = 0.05  # reference time before a run and around each set-up interpreter

_M = np.eye(3) * 0.5


def reference() -> float:
    """Seconds for a fixed mix of interpreter float arithmetic and small-array work."""
    t0 = perf_counter()
    x = 0.0
    for i in range(20000):
        x = x * 0.999 + i * 1e-6
    a = np.ones(3)
    for _ in range(1000):
        a = _M @ a + 1.0
    return perf_counter() - t0


def burst(budget_s: float) -> list[float]:
    """Reference samples adding up to at least ``budget_s``; at least one."""
    out = [reference()]
    while sum(out) < budget_s:
        out.append(reference())
    return out


def scale(samples: list[float]) -> float:
    """Factor taking a raw time measured among ``samples`` to the nominal machine speed."""
    return REF_S / statistics.mean(samples)
