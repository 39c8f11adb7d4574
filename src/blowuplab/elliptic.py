"""Real-line lemniscatic sine, elliptic integrals at m = 1/2, quarter period.

sl solves (y')^2 = 1 - y^4 with y(0) = 0, y'(0) = 1, equivalently
y'' = -2 y^3.  It is the Jacobi function sd at parameter m = 1/2 with the
argument scaled by sqrt(2); sn, cn and dn come from the descending Landen
transformation (A&S 16.4, DLMF 22.20), evaluated with the math module
one point at a time; an array call applies the same function to each
element, so only array calls load numpy.  One arithmetic-geometric mean
table serves every quantity: sl runs its Landen recurrence down, the
incomplete F(phi | 1/2) runs the inverse recurrence up (A&S 17.6, DLMF
19.8), both on the m = 1/2 table built once at import, and the complete
integral K is pi / (2 a_N) of the table at its own parameter, all in
plain float arithmetic.  The quarter period of sl, its first maximum, is
K(1/sqrt 2) / sqrt 2, and F(phi | 1/2) gives the escape time of
v' = sqrt(Acoef v^4 + C) in closed form (``quadrature_blowup_time``).
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["lemniscate_quarter_period", "K_agm", "F_half", "quadrature_blowup_time", "sl"]

_SQRT2 = math.sqrt(2.0)


def _agm_table(b: float, c: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Arithmetic-geometric mean table at parameter m = c^2 (A&S 16.4, 17.6).

    From a_0 = 1, b_0 = b, c_0 = c with b^2 + c^2 = 1, returns the ratios
    c_n / a_n for n = N, ..., 1, the ratios b_n / a_n for n = 0, ..., N - 1
    and a_N, where N is the first n with c_n <= eps a_n.  Each c_n is
    formed as c_{n-1}^2 / (4 a_n), equal to (a_{n-1} - b_{n-1}) / 2 since
    a^2 - b^2 = c^2, but without its cancellation.
    """
    a = 1.0
    c_ratios, b_ratios = [], []
    while c > sys.float_info.epsilon * a:
        b_ratios.append(b / a)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        c_ratios.append(c / a)
    return tuple(reversed(c_ratios)), tuple(b_ratios), a


def K_agm(k: float) -> float:
    """Complete elliptic integral of the first kind, pi / (2 a_N) of the AGM table at m = k^2.

    b_0 = sqrt((1 - k)(1 + k)) carries two roundings where sqrt(1 - k^2)
    loses the digits of k^2 to cancellation as k nears 1.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {k}")
    return math.pi / (2.0 * _agm_table(math.sqrt((1.0 - k) * (1.0 + k)), k)[2])


# K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi)), correctly rounded; K_agm gives
# ...717 and the Gamma expression in floats ...723
_K_HALF = 1.8540746773013719


def lemniscate_quarter_period() -> float:
    """First maximum location of sl: integral_0^1 dy / sqrt(1 - y^4).

    The substitution y = sin(x) turns it into
    integral_0^{pi/2} dx / sqrt(1 + sin^2 x) = K(1/sqrt 2) / sqrt 2.
    """
    return _K_HALF / _SQRT2


# m = 1/2 takes N = 5; phi_N = 2^N a_N u with u = sqrt(2) t
_SL_RATIOS, _F_RATIOS, _A_HALF = _agm_table(math.sqrt(0.5), math.sqrt(0.5))
_LANDEN_SCALE = 2.0**len(_F_RATIOS) * _A_HALF
_SL_PHI_SCALE = _LANDEN_SCALE * _SQRT2


def F_half(phi: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi | 1/2) at finite real phi.

    With r = phi - j pi and |r| <= pi/2, F(phi | 1/2) = 2 j K + F(r | 1/2),
    and F(r | 1/2) = r_N / (2^N a_N) after the recurrence
    r_{n+1} = r_n + atan(rho_n tan r_n), rho_n = b_n / a_n, on the AGM table,
    with the arctangent on the branch that puts r_{n+1} near 2 r_n
    (A&S 17.6, DLMF 19.8).  That branch is
    r_{n+1} = 2 r_n + atan((rho_n - 1) sin r_n cos r_n / (cos^2 r_n + rho_n sin^2 r_n)),
    whose denominator is at least rho_n > 0.  K = K(1/sqrt 2) is a module
    constant.
    """
    if not math.isfinite(phi):
        raise DomainError(f"amplitude must be finite, got {phi}")
    j = round(phi / math.pi)
    r = phi - j * math.pi
    for rho in _F_RATIOS:
        s, c = math.sin(r), math.cos(r)
        r += r + math.atan((rho - 1.0) * s * c / (c * c + rho * s * s))
    return 2.0 * j * _K_HALF + r / _LANDEN_SCALE


def quadrature_blowup_time(Acoef: float, C: float, a: float) -> float:
    """T = integral_a^inf dv / sqrt(Acoef v^4 + C).

    This is the escape time of v' = sqrt(Acoef v^4 + C) from v(0) = a.
    A vanishing radicand at the left endpoint is allowed (integrable
    inverse-square-root singularity); a radicand that turns negative
    anywhere on [a, inf), a divergent integral (C = 0, a <= 0) or a
    non-finite argument is a domain error.

    With lam = (|C| / Acoef)^(1/4) and x = a / lam the radicand is
    r_a = |C| (x^4 +- 1) and the integral is an incomplete elliptic
    integral F(phi | 1/2) (DLMF 19.2), evaluated by F_half:
    integral_x^inf dy / sqrt(y^4 + 1) = F(2 atan(1/x) | 1/2) / 2 and
    integral_x^inf dy / sqrt(y^4 - 1) = F(atan(sqrt 2 / sqrt(x^2 - 1)) | 1/2) / sqrt 2.
    Both angles are formed from lam and a, never from a^4, so every finite
    a past the turning point has a value.
    """
    if not (math.isfinite(Acoef) and math.isfinite(C) and math.isfinite(a)):
        raise DomainError(f"arguments must be finite, got Acoef={Acoef}, C={C}, a={a}")
    if Acoef <= 0:
        raise DomainError("quartic coefficient must be positive")
    if C == 0:
        if a <= 0:
            raise DomainError("escape integral diverges for C = 0 and a <= 0")
        return 1.0 / (math.sqrt(Acoef) * a)
    lam = (abs(C) / Acoef) ** 0.25  # the turning point v* when C < 0
    if C > 0:  # atan(1/x) as atan2(lam, a): no overflow for any finite a
        return lam / math.sqrt(C) * F_half(2.0 * math.atan2(lam, a)) / 2.0
    x = a / lam
    if -1.0 < x < 1.0:
        raise DomainError("negative radicand at the left endpoint")
    if x < 1.0:
        raise DomainError("radicand vanishes inside the integration range")
    if x < 2.0:
        # near v*, x^2 - 1 = r_a / (|C| (x^2 + 1)) with r_a formed from a
        # carries fewer roundings than x * x - 1; here a^4 < 16 |C| / Acoef
        r_a = Acoef * a**4 + C
        if r_a < 0:
            raise DomainError("negative radicand at the left endpoint")
        phi = math.atan2(math.sqrt(2.0), math.sqrt(r_a / (-C * (x * x + 1.0))))
    else:
        # sqrt 2 / sqrt(x^2 - 1) = sqrt 2 y / sqrt((1 - y)(1 + y)) with y = 1/x = lam/a <= 1/2
        y = lam / a
        phi = math.atan2(math.sqrt(2.0) * y, math.sqrt((1.0 - y) * (1.0 + y)))
    return lam / math.sqrt(-C) * F_half(phi) / math.sqrt(2.0)


def _sl_point(t: float) -> tuple[float, float]:
    """sl(t) and sl'(t) at one float t; NaN where the scaled argument is not finite."""
    phi = _SL_PHI_SCALE * t
    if not math.isfinite(phi):  # math.sin raises on +-inf
        return math.nan, math.nan
    for ratio in _SL_RATIOS:
        phi = 0.5 * (phi + math.asin(ratio * math.sin(phi)))
    sn = math.sin(phi)
    two_dn2 = 2.0 - sn * sn
    return sn / math.sqrt(two_dn2), 2.0 * math.cos(phi) / two_dn2


def sl(t: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Lemniscatic sine and its derivative at real t (scalar or array).

    sl(t) = sd(sqrt(2) t | 1/2) / sqrt(2) and sl'(t) = cn / dn^2, with the
    Jacobi functions at parameter m = 1/2 (DLMF 22.2, 22.13).  The
    amplitude phi = am(u | 1/2) comes from the descending Landen
    recurrence phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2
    (DLMF 22.20(ii)); then sn = sin phi, cn = cos phi and
    2 dn^2 = 2 - sn^2, which lies in [1, 2] and so cancels nowhere.  A
    Python int or float t gives Python floats without importing numpy;
    any other t is taken as a float64 array and gives float64 arrays of
    its shape, each element the scalar call's value bit for bit.  A
    non-finite t gives NaN without a warning.
    """
    if isinstance(t, (int, float)):
        return _sl_point(float(t))
    import numpy as np  # only array calls pay for numpy

    ts = np.asarray(t, dtype=np.float64)
    pairs = np.array([_sl_point(x) for x in ts.ravel().tolist()], dtype=np.float64).reshape(-1, 2)
    return pairs[:, 0].reshape(ts.shape), pairs[:, 1].reshape(ts.shape)
