"""Real-line lemniscatic sine, AGM elliptic integral, and the quarter period.

sl solves (y')^2 = 1 - y^4 with y(0) = 0, y'(0) = 1.  It is realized by a
dense reference table on one quarter period (built once with the order-6
Gauss stepper at fixed small step) plus cubic Hermite interpolation and
symmetry folding: sl is odd, reflects about the quarter period, and flips
sign under a half-period shift.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .integrate import step_gauss6
from .model import State, params_from_coeffs

__all__ = ["LemniscaticTable", "lemniscate_quarter_period", "K_agm", "sl"]


def K_agm(k: float) -> float:
    """Complete elliptic integral of the first kind via the AGM."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {k}")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    # quadratic convergence: machine precision in < 10 sweeps; stop once
    # the gap reaches the last-ulp plateau
    for _ in range(64):
        if abs(a - b) <= 4.0 * sys.float_info.epsilon * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def lemniscate_quarter_period() -> float:
    """First maximum location of sl: integral_0^1 dy / sqrt(1 - y^4).

    The substitution y = sin(x) turns it into
    integral_0^{pi/2} dx / sqrt(1 + sin^2 x) = K(1/sqrt 2) / sqrt 2.
    """
    return K_agm(math.sqrt(0.5)) / math.sqrt(2.0)


@dataclass(frozen=True)
class LemniscaticTable:
    """Dense (t, sl, sl') samples on [0, quarter_period]."""

    quarter_period: float
    t: np.ndarray
    y: np.ndarray
    yp: np.ndarray

    def eval_quarter(self, t: float) -> tuple[float, float]:
        """Cubic Hermite evaluation for t inside [0, quarter_period]."""
        h = self.t[1] - self.t[0]
        i = min(int(t / h), len(self.t) - 2)
        s = (t - self.t[i]) / h
        y0, y1 = self.y[i], self.y[i + 1]
        d0, d1 = self.yp[i] * h, self.yp[i + 1] * h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        val = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
        dh00 = 6 * s * (s - 1)
        dh10 = (1 - s) * (1 - 3 * s)
        dh01 = -dh00
        dh11 = s * (3 * s - 2)
        der = (dh00 * y0 + dh10 * d0 + dh01 * y1 + dh11 * d1) / h
        return float(val), float(der)


@functools.lru_cache(maxsize=1)
def _reference_table(n: int = 4096) -> LemniscaticTable:
    # (y')^2 = 1 - y^4 differentiates to y'' = -2 y^3
    p = params_from_coeffs(0.0, -2.0)
    quarter = lemniscate_quarter_period()
    h = quarter / n
    s = State(0.0, 0.0, 1.0)
    ts = np.empty(n + 1)
    ys = np.empty(n + 1)
    yps = np.empty(n + 1)
    ts[0], ys[0], yps[0] = 0.0, 0.0, 1.0
    for i in range(1, n + 1):
        s = step_gauss6(p, s, h)
        ts[i], ys[i], yps[i] = i * h, s.u, s.v
    return LemniscaticTable(quarter, ts, ys, yps)


def sl(t: float) -> tuple[float, float]:
    """Lemniscatic sine and its derivative at real t."""
    table = _reference_table()
    Q = table.quarter_period
    period = 4.0 * Q
    r = math.fmod(t, period)
    if r < 0:
        r += period
    sign = 1.0
    if r >= 2.0 * Q:  # half-period shift flips sign
        r -= 2.0 * Q
        sign = -1.0
    if r <= Q:
        val, der = table.eval_quarter(r)
    else:  # reflection about the quarter period
        val, der = table.eval_quarter(2.0 * Q - r)
        der = -der
    return sign * val, sign * der
