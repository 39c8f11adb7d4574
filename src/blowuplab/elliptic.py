"""Real-line lemniscatic sine, AGM elliptic integral, and the quarter period.

sl solves (y')^2 = 1 - y^4 with y(0) = 0, y'(0) = 1, equivalently
y'' = -2 y^3.  It is the Jacobi function sd at parameter m = 1/2 with the
argument scaled by sqrt(2), so one scipy.special.ellipj call gives sl and
sl' on scalars and arrays alike.  Its quarter period, the first maximum,
is K(1/sqrt 2) / sqrt 2, evaluated with the arithmetic-geometric mean.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import ellipj

from .errors import DomainError

__all__ = ["lemniscate_quarter_period", "K_agm", "sl"]

_SQRT2 = math.sqrt(2.0)


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


def sl(t: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Lemniscatic sine and its derivative at real t (scalar or array).

    sl(t) = sd(sqrt(2) t | 1/2) / sqrt(2) and sl'(t) = cn / dn^2, with the
    Jacobi functions at parameter m = 1/2 (DLMF 22.2, 22.13).
    """
    sn, cn, dn, _ = ellipj(_SQRT2 * t, 0.5)
    return sn / (_SQRT2 * dn), cn / (dn * dn)
