"""Scalar diagnostics along solutions: the energy e and the g_k quantities.

e(u) = u'^2/2 - (B/4) u^4 obeys de/dt = A u u'^2, so it is a first
integral when A = 0.  For k solving 2k^2 + A k - B = 0, the quantity
g_k(u) = u' + k u^2 evolves multiplicatively:
g_k(t) = g_k(0) exp((A + 2k) int_0^t u), so its sign is invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NotACharacteristicRoot
from .integrate import Trajectory
from .model import OdeParams, State, rhs

__all__ = [
    "DiagnosticsReport",
    "energy",
    "g_k",
    "check_energy_law",
    "check_gk_identity",
    "energy_drift",
    "cumulative_u_integral",
    "diagnostics_report",
]


def energy(p: OdeParams, s: State) -> float:
    """e = u'^2/2 - (B/4) u^4 of a State, or per row of a record array."""
    return 0.5 * s.v * s.v - 0.25 * p.B * s.u**4


def g_k(s: State, k: float) -> float:
    """g_k = u' + k u^2 of a State, or per row of a record array."""
    return s.v + k * s.u * s.u


@dataclass(frozen=True)
class DiagnosticsReport:
    energy_law_residual_max: float
    gk_identity_residual_max: float
    energy_drift_rel: float  # meaningful only when A = 0


def cumulative_u_integral(p: OdeParams, traj: Trajectory) -> np.ndarray:
    """int_0^{t_i} u ds at every recorded state.

    Each interval uses two-point Hermite quadrature with the recorded
    value and three on-shell derivatives (u', u'', u'''), which is exact
    through degree-7 and keeps the exponential g_k identity testable
    even on blow-up tails.
    """
    t, u, v = traj.t, traj.u, traj.v
    a = rhs(p, traj.states)[1]  # u'' on-shell
    j = p.A * (v * v + u * a) + 3.0 * p.B * u * u * v  # u''' on-shell
    # recover exact step sums: recorded stamps alone cannot resolve tiny
    # near-blow-up steps against an O(1) time origin
    h = np.diff(t) - np.diff(traj.t_residual)
    seg = (
        0.5 * h * (u[:-1] + u[1:])
        + 3.0 * h**2 / 28.0 * (v[:-1] - v[1:])
        + h**3 / 84.0 * (a[:-1] + a[1:])
        + h**4 / 1680.0 * (j[:-1] - j[1:])
    )
    out = np.empty(len(t))
    out[0] = 0.0
    out[1:] = _compensated_cumsum(seg)
    return out


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums of x with the rounding error of each addition added back.

    The exponential g_k identity amplifies even one coherent rounding ulp
    per segment over long trajectories.  The TwoSum error of every
    running-sum step is exact, so adding the cumsum of those errors to
    the float64 cumsum gives each prefix as if summed in twice the
    working precision (Ogita, Rump & Oishi 2005, Algorithm Sum2).
    """
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    x_part = s - prev
    err = (prev - (s - x_part)) + (x - x_part)
    return s + np.cumsum(err)


def check_energy_law(p: OdeParams, traj: Trajectory) -> float:
    """Max interior defect of de/dt = A u u'^2 by centered differences.

    Normalized by max(1, |e|) at each interior state.
    """
    if len(traj.states) < 3:
        raise InsufficientData("energy law check needs at least 3 states")
    t, u, v = traj.t, traj.u, traj.v
    e = energy(p, traj.states)
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    dedt = (
        -h2 / (h1 * (h1 + h2)) * e[:-2]
        + (h2 - h1) / (h1 * h2) * e[1:-1]
        + h1 / (h2 * (h1 + h2)) * e[2:]
    )
    law = p.A * u[1:-1] * v[1:-1] ** 2
    res = np.abs(dedt - law) / np.maximum(1.0, np.abs(e[1:-1]))
    return float(res.max())


def energy_drift(p: OdeParams, traj: Trajectory) -> float:
    """Max relative drift of e along the recorded states.

    The drift at each state is normalized by the magnitude scale of the
    energy's constituent terms there (at least 1), which keeps the
    number meaningful near blow-up where the terms cancel to a small e.
    """
    u, v = traj.u, traj.v
    e = energy(p, traj.states)
    scale = np.maximum(1.0, 0.5 * v * v + 0.25 * abs(p.B) * u**4)
    return float(np.max(np.abs(e - e[0]) / scale))


def check_gk_identity(p: OdeParams, traj: Trajectory, k: float) -> float:
    """Max deviation from g_k(t) = g_k(0) exp((A+2k) int_0^t u).

    Deviation is relative to max(1, |g_k(0)|).  k must be a
    characteristic root.
    """
    if abs(2.0 * k * k + p.A * k - p.B) > 1e-10:
        raise NotACharacteristicRoot(f"k={k} does not solve 2k^2 + Ak - B = 0")
    g = g_k(traj.states, k)
    integral = cumulative_u_integral(p, traj)
    predicted = g[0] * np.exp((p.A + 2.0 * k) * integral)
    dev = np.abs(g - predicted) / max(1.0, abs(g[0]))
    return float(dev.max())


def diagnostics_report(p: OdeParams, traj: Trajectory) -> DiagnosticsReport:
    gk_res = 0.0
    for k in (p.k_minus, p.k_plus):
        if k is not None:
            gk_res = max(gk_res, check_gk_identity(p, traj, k))
    return DiagnosticsReport(
        energy_law_residual_max=check_energy_law(p, traj),
        gk_identity_residual_max=gk_res,
        energy_drift_rel=energy_drift(p, traj) if p.A == 0.0 else math.nan,
    )
