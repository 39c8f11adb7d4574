"""Bridge between the u-equation and the third-order conformal-factor ODE.

The substitution u = f'/f turns
    f^2 f''' - 2 (m+1)/(m-2) f f' f'' + m^2/(m-2)^2 f'^3 = 0
into u'' + (m-8)/(m-2) u u' - 2(m-4)/(m-2)^2 u^3 = 0.  This module
reconstructs f = C exp(int u) from a trajectory and checks the
third-order residual directly on f by high-order finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .integrate import Trajectory

__all__ = [
    "ProfileF",
    "reconstruct_f",
    "eq0_residual_from_u",
    "eq0_residual_fd",
]


@dataclass(frozen=True)
class ProfileF:
    """Positive conformal-factor samples f(x) with its scale constant."""

    x: np.ndarray
    f: np.ndarray
    C: float
    source: Trajectory | None = None


def reconstruct_f(traj: Trajectory, C: float, step: float | None = None) -> ProfileF:
    """f(x) = C exp(int_0^x u) on the trajectory's time range.

    The integral is that of the cubic Hermite interpolant of (u, u')
    between recorded states.  With ``step`` given, f is sampled on a
    uniform grid; otherwise at the recorded times, which must increase.
    """
    if traj.termination.kind != "completed":
        raise DomainError(f"trajectory terminated with {traj.termination.kind}")
    if C <= 0:
        raise DomainError("scale constant must be positive")
    t, u, v = traj.t, traj.u, traj.v
    h = np.diff(t)
    if np.any(h <= 0):
        raise DomainError("recorded times must increase")
    # exact integrals of the cubic Hermite interpolant of (u, u') over each step
    F_t = np.concatenate(([0.0], np.cumsum(h * (0.5 * (u[:-1] + u[1:]) + h * (v[:-1] - v[1:]) / 12.0))))
    if step is None:
        x, F = t, F_t
    else:
        n = int(round((t[-1] - t[0]) / step))
        x = t[0] + step * np.arange(n + 1)
        i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(h) - 1)
        hi, s = h[i], (x - t[i]) / h[i]
        s2 = s * s
        s3, s4 = s2 * s, s2 * s2
        # antiderivatives of the Hermite basis functions from 0 to s
        F = F_t[i] + hi * (
            (0.5 * s4 - s3 + s) * u[i]
            + (s3 - 0.5 * s4) * u[i + 1]
            + hi * ((0.25 * s4 - 2.0 * s3 / 3.0 + 0.5 * s2) * v[i] + (0.25 * s4 - s3 / 3.0) * v[i + 1])
        )
    f = C * np.exp(F)
    return ProfileF(x=x, f=f, C=C, source=traj)


def eq0_residual_from_u(m: float, u: float, v: float, a: float) -> float:
    """Second-order-form residual a + (m-8)/(m-2) u v - 2(m-4)/(m-2)^2 u^3.

    ``a`` is the value of u'' (from the right-hand side or finite
    differences); on-shell inputs give zero identically.
    """
    if m <= 2:
        raise DomainError("dimension must exceed 2")
    return a + (m - 8.0) / (m - 2.0) * u * v - 2.0 * (m - 4.0) / (m - 2.0) ** 2 * u**3


def eq0_residual_fd(profile: ProfileF, m: float) -> float:
    """Max normalized third-order residual on a uniform-grid profile.

    Derivatives f', f'', f''' come from fourth-order central differences;
    the residual at each interior point is normalized by
    max(1, f^3 max(1, |f'/f|)^3) so profiles of any magnitude compare.
    """
    x, f = profile.x, profile.f
    if len(x) < 7:
        raise DomainError("need at least 7 uniform samples")
    h = np.diff(x)
    h0 = h[0]
    if np.max(np.abs(h - h0)) > 1e-8 * abs(h0):
        raise DomainError("fourth-order differencing requires a uniform grid")

    i = np.arange(3, len(x) - 3)
    fm3, fm2, fm1 = f[i - 3], f[i - 2], f[i - 1]
    fp1, fp2, fp3 = f[i + 1], f[i + 2], f[i + 3]
    fc = f[i]
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h0)
    d2 = (-fp2 + 16 * fp1 - 30 * fc + 16 * fm1 - fm2) / (12 * h0**2)
    d3 = (-13.0 / 8.0 * (fp1 - fm1) + (fp2 - fm2) - 1.0 / 8.0 * (fp3 - fm3)) / h0**3

    res = fc**2 * d3 - 2.0 * (m + 1.0) / (m - 2.0) * fc * d1 * d2 + m**2 / (m - 2.0) ** 2 * d1**3
    u = d1 / fc
    norm = np.maximum(1.0, fc**3 * np.maximum(1.0, np.abs(u)) ** 3)
    return float(np.max(np.abs(res) / norm))
