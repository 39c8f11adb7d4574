"""Real-line lemniscatic sine, elliptic integrals at m = 1/2, quarter period.

sl solves (y')^2 = 1 - y^4 with y(0) = 0, y'(0) = 1, equivalently
y'' = -2 y^3.  It is the Jacobi function sd at parameter m = 1/2 with the
argument scaled by sqrt(2); sn, cn and dn come from the descending Landen
transformation (A&S 16.4, DLMF 22.20), one numpy path for scalars and
arrays alike, with its AGM table built once at import.  The complete
integral K comes from the arithmetic-geometric mean and the incomplete
F(phi | 1/2) from Carlson's R_F, both in plain float arithmetic.  The
quarter period of sl, its first maximum, is K(1/sqrt 2) / sqrt 2.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError

__all__ = ["lemniscate_quarter_period", "K_agm", "F_half", "sl"]

_SQRT2 = math.sqrt(2.0)
# Carlson's stopping factor (3 eps)^(-1/6): once 4^-n times the initial
# spread of the arguments falls below A_n, the fifth-degree series is
# exact to rounding
_RF_SPREAD = (3.0 * sys.float_info.epsilon) ** (-1.0 / 6.0)


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


# K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi)), correctly rounded; K_agm gives
# ...717 and the Gamma expression in floats ...723
_K_HALF = 1.8540746773013719


def lemniscate_quarter_period() -> float:
    """First maximum location of sl: integral_0^1 dy / sqrt(1 - y^4).

    The substitution y = sin(x) turns it into
    integral_0^{pi/2} dx / sqrt(1 + sin^2 x) = K(1/sqrt 2) / sqrt 2.
    """
    return _K_HALF / _SQRT2


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) for x, y, z >= 0, at most
    one of them zero, by the duplication theorem (DLMF 19.36.1)."""
    A = (x + y + z) / 3.0
    Q = _RF_SPREAD * max(abs(A - x), abs(A - y), abs(A - z))
    while Q >= A:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        A = (x + y + z) / 3.0
        Q *= 0.25
    X, Y = 1.0 - x / A, 1.0 - y / A
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0) / math.sqrt(A)


def F_half(phi: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi | 1/2) at real phi.

    With r = phi - j pi and |r| <= pi/2,
    F(phi | 1/2) = 2 j K + sin r R_F(cos^2 r, 1 - sin^2 r / 2, 1)
    (DLMF 19.2.10, 19.25.5); K = K(1/sqrt 2) is a module constant.
    """
    j = round(phi / math.pi)
    r = phi - j * math.pi
    s, c = math.sin(r), math.cos(r)
    return 2.0 * j * _K_HALF + s * _carlson_rf(c * c, 1.0 - 0.5 * s * s, 1.0)


def _landen_table(m: float) -> tuple[tuple[float, ...], float]:
    """Descending Landen table at parameter m (A&S 16.4).

    Returns the ratios c_n / a_n for n = N, ..., 1 and the scale 2^N a_N,
    where N is the first n with c_n <= eps a_n.  Each c_n is formed as
    c_{n-1}^2 / (4 a_n), equal to (a_{n-1} - b_{n-1}) / 2 since
    a^2 - b^2 = c^2, but without its cancellation.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ratios = []
    while c > sys.float_info.epsilon * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        ratios.append(c / a)
    return tuple(reversed(ratios)), 2.0**len(ratios) * a


# m = 1/2 takes N = 5; phi_N = 2^N a_N u with u = sqrt(2) t
_LANDEN_RATIOS, _LANDEN_SCALE = _landen_table(0.5)
_SL_PHI_SCALE = _LANDEN_SCALE * _SQRT2


def sl(t: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Lemniscatic sine and its derivative at real t (scalar or array).

    sl(t) = sd(sqrt(2) t | 1/2) / sqrt(2) and sl'(t) = cn / dn^2, with the
    Jacobi functions at parameter m = 1/2 (DLMF 22.2, 22.13).  The
    amplitude phi = am(u | 1/2) comes from the descending Landen
    recurrence phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2
    (DLMF 22.20(ii)); then sn = sin phi, cn = cos phi and
    2 dn^2 = 2 - sn^2, which lies in [1, 2] and so cancels nowhere.  A
    scalar t gives np.float64 values; a non-finite t gives NaN without a
    warning.
    """
    phi = _SL_PHI_SCALE * np.asarray(t, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # sin(+-inf)
        for ratio in _LANDEN_RATIOS:
            phi = 0.5 * (phi + np.arcsin(ratio * np.sin(phi)))
        sn = np.sin(phi)
    two_dn2 = 2.0 - sn * sn
    return sn / np.sqrt(two_dn2), 2.0 * np.cos(phi) / two_dn2
