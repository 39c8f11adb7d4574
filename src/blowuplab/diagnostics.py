"""Scalar diagnostics along solutions: the energy e and the g_k quantities.

e(u) = u'^2/2 - (B/4) u^4 obeys de/dt = A u u'^2, so it is a first
integral when A = 0.  For every root k of 2k^2 + A k - B = 0, complex
roots included, the quantity g_k(u) = u' + k u^2 evolves multiplicatively:
g_k(t) = g_k(0) exp((A + 2k) int_0^t u).  That law is exact for every
(A, B), so it is the one check of a run's accuracy; for a real k it also
keeps the sign of g_k invariant.  numpy loads in the functions that
build arrays, so the scalar energy and g_k run without it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .integrate import Trajectory
from .model import OdeParams, State, _Record, _set, is_characteristic_root, rhs

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiagnosticsReport",
    "energy",
    "g_k",
    "check_gk_identity",
    "energy_drift",
    "cumulative_u_integral",
    "diagnostics_report",
]


def energy(p: OdeParams, s: State) -> float:
    """e = u'^2/2 - (B/4) u^4 of a State, or per row of a record array; inf or NaN past floats, as IEEE gives."""
    try:
        u4 = s.u**4
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        u4 = math.inf
    return 0.5 * s.v * s.v - 0.25 * p.B * u4


def g_k(s: State, k: complex) -> complex:
    """g_k = u' + k u^2 of a State, or per row of a record array."""
    return s.v + k * s.u * s.u


class DiagnosticsReport(_Record):
    __slots__ = ("gk_identity_residual_max", "energy_drift_rel")

    def __init__(self, gk_identity_residual_max: float, energy_drift_rel: float):
        _set(self, "gk_identity_residual_max", gk_identity_residual_max)
        _set(self, "energy_drift_rel", energy_drift_rel)  # meaningful only when A = 0


def cumulative_u_integral(p: OdeParams, traj: Trajectory) -> np.ndarray:
    """int_0^{t_i} u ds at every recorded state.

    Each interval uses two-point Hermite quadrature with the recorded
    value and three on-shell derivatives (u', u'', u'''), which is exact
    through degree-7 and keeps the exponential g_k identity testable
    even on blow-up tails.
    """
    import numpy as np

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
    import numpy as np

    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    x_part = s - prev
    err = (prev - (s - x_part)) + (x - x_part)
    return s + np.cumsum(err)


def energy_drift(p: OdeParams, traj: Trajectory) -> float:
    """Max relative drift of e along the recorded states.

    The drift at each state is normalized by the magnitude scale of the
    energy's constituent terms there (at least 1), which keeps the
    number meaningful near blow-up where the terms cancel to a small e.
    """
    import numpy as np

    u, v = traj.u, traj.v
    e = energy(p, traj.states)
    scale = np.maximum(1.0, 0.5 * v * v + 0.25 * abs(p.B) * u**4)
    return float(np.max(np.abs(e - e[0]) / scale))


def check_gk_identity(p: OdeParams, traj: Trajectory, k: complex) -> float:
    """Max deviation from g_k(t) = g_k(0) exp((A+2k) int_0^t u).

    Deviation is relative to max(1, |g_k(0)|).  k must be a
    characteristic root, real or complex.
    """
    return _gk_deviation(p, traj, k, cumulative_u_integral(p, traj))


def _gk_deviation(p: OdeParams, traj: Trajectory, k: complex, integral: np.ndarray) -> float:
    """check_gk_identity's deviation, given int_0^t u at the recorded states."""
    import numpy as np

    if not is_characteristic_root(p, k):
        raise DomainError(f"k={k} does not solve 2k^2 + Ak - B = 0")
    g = g_k(traj.states, k)
    predicted = g[0] * np.exp((p.A + 2.0 * k) * integral)
    dev = np.abs(g - predicted) / max(1.0, abs(g[0]))
    return float(dev.max())


def diagnostics_report(p: OdeParams, traj: Trajectory) -> DiagnosticsReport:
    """The g_k law's largest deviation over the roots, and the energy drift when A = 0.

    The law is checked at k_minus and k_plus when disc >= 0, and at
    k = (-A + i sqrt(-disc)) / 4 when disc < 0, whose conjugate root's
    law is the conjugate of its own.  Every root shares one int_0^t u.
    """
    if p.disc >= 0.0:
        roots = (p.k_minus, p.k_plus)
    else:
        roots = (complex(-p.A / 4.0, math.sqrt(-p.disc) / 4.0),)
    integral = cumulative_u_integral(p, traj)
    return DiagnosticsReport(
        gk_identity_residual_max=max(_gk_deviation(p, traj, k, integral) for k in roots),
        energy_drift_rel=energy_drift(p, traj) if p.A == 0.0 else math.nan,
    )
