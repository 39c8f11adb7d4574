"""Time-steppers and the adaptive driver with blow-up event detection.

Two steppers are provided: the classical explicit Runge-Kutta method of
order 4 and the 3-stage Gauss-Legendre collocation method of order 6.
The driver uses step-doubling (Richardson) local error control, caps the
step near blow-up by the natural time scale 1/|u|, and records a
termination verdict instead of raising when a solution escapes.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import F_half
from .errors import DomainError, FitFailure, NonFiniteError, StageSolveFailure
from .model import OdeParams, State, params_from_coeffs

__all__ = [
    "IntegratorKind",
    "IntegrateOptions",
    "Termination",
    "Trajectory",
    "step_rk4",
    "step_gauss6",
    "integrate",
    "estimate_blowup_time",
    "quadrature_blowup_time",
]


class IntegratorKind(enum.Enum):
    RK4 = "rk4"
    GAUSS6 = "gauss6"


@dataclass(frozen=True)
class IntegrateOptions:
    """Driver parameters; all thresholds strictly positive."""

    h0: float = 1e-3
    t_end: float = 1.0
    blowup_threshold: float = 1e8
    local_tol: float = 1e-10
    h_min: float = 1e-14
    max_steps: int = 10**7
    record_every: int = 1
    h_cap_factor: float = 0.1  # step cap h <= h_cap_factor/|u| near blow-up
    h_max: float | None = None  # optional global step-size ceiling

    def __post_init__(self):
        if self.h0 <= 0 or self.blowup_threshold <= 0 or self.local_tol <= 0 or self.h_min <= 0:
            raise DomainError("h0, blowup_threshold, local_tol and h_min must be positive")
        if self.h_cap_factor <= 0:
            raise DomainError("h_cap_factor must be positive")
        if self.h_max is not None and self.h_max <= 0:
            raise DomainError("h_max must be positive when given")
        if self.max_steps < 1 or self.record_every < 1:
            raise DomainError("max_steps and record_every must be >= 1")


@dataclass(frozen=True)
class Termination:
    """How a run ended: Completed, BlowUp, StepUnderflow or MaxSteps."""

    kind: str  # "completed" | "blowup" | "step_underflow" | "max_steps"
    t_estimate: float | None = None  # blow-up time estimate
    direction: int | None = None  # +1 forward in t, -1 backward
    t_last: float | None = None


@dataclass
class Trajectory:
    params: OdeParams
    # one row per recorded state, float64 fields t, u, v; a row reads like
    # a State (row.t, row.u, row.v) and .t/.u/.v are views of the columns
    states: np.recarray
    termination: Termination
    integrator: IntegratorKind
    options: IntegrateOptions
    n_steps: int = 0
    # low-order residuals of the recorded times: the exact step-sum time
    # of states[i] is t[i] - t_residual[i].  Recorded separately because
    # a float64 time stamp alone cannot resolve steps of size ~1e-5 near
    # blow-up to the accuracy the exponential g_k diagnostic needs.
    t_residual: np.ndarray | None = None  # None means all zeros

    def __post_init__(self):
        if self.t_residual is None:
            self.t_residual = np.zeros(len(self.states))

    @property
    def t(self) -> np.ndarray:
        return self.states["t"]

    @property
    def u(self) -> np.ndarray:
        return self.states["u"]

    @property
    def v(self) -> np.ndarray:
        return self.states["v"]


# ---------------------------------------------------------------------------
# steppers

def _check_finite(u: float, v: float) -> None:
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteError("stage value overflowed")


# Stepper contract: increment(p, u, v, h) -> (du, dv) returns a finite
# increment with u + du, v + dv finite, or raises NonFiniteError or
# StageSolveFailure; the driver then halves h.


def _rk4_increment(p: OdeParams, u: float, v: float, h: float) -> tuple[float, float]:
    """State increment of one classical fourth-order Runge-Kutta step.

    A non-finite stage reaches du or dv, so one check at the end suffices.
    """
    f = lambda u, v: (v, p.A * u * v + p.B * u * u * u)
    k1u, k1v = f(u, v)
    k2u, k2v = f(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
    k3u, k3v = f(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
    k4u, k4v = f(u + h * k3u, v + h * k3v)
    du = (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    dv = (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    _check_finite(u + du, v + dv)
    return du, dv


def step_rk4(p: OdeParams, s: State, h: float) -> State:
    """One classical fourth-order Runge-Kutta step."""
    if h == 0.0:
        raise DomainError("step size must be nonzero")
    du, dv = _rk4_increment(p, s.u, s.v, h)
    return State(s.t + h, s.u + du, s.v + dv)


# 3-point Gauss-Legendre collocation tableau
_SQ15 = math.sqrt(15.0)
_A11, _A12, _A13 = 5.0 / 36.0, 2.0 / 9.0 - _SQ15 / 15.0, 5.0 / 36.0 - _SQ15 / 30.0
_A21, _A22, _A23 = 5.0 / 36.0 + _SQ15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _SQ15 / 24.0
_A31, _A32, _A33 = 5.0 / 36.0 + _SQ15 / 30.0, 2.0 / 9.0 + _SQ15 / 15.0, 5.0 / 36.0
_B1, _B2 = 5.0 / 18.0, 4.0 / 9.0
_C1, _C3 = 0.5 - _SQ15 / 10.0, 0.5 + _SQ15 / 10.0
# a sweep change within 4 eps of the stage scale is rounding noise
_STAGE_RTOL = 4.0 * sys.float_info.epsilon
# fixed-point sweeps allowed per step; a step that needs more is too long
# for the iteration to contract, and the driver halves it
_GAUSS6_MAX_SWEEPS = 40


def _gauss6_increment(p: OdeParams, u: float, v: float, h: float) -> tuple[float, float]:
    """State increment of one 3-stage Gauss-Legendre (order 6) step.

    The stage increments Z_i = Y_i - y0 are solved by fixed-point
    iteration seeded with the Euler prediction.  A component has
    converged when its sweep change is within a few ulps of
    max(1, |y0|, |Z_i|): rounding noise of that size never goes away,
    so an absolute tolerance would never be met once |y| is large.
    """
    A, B = p.A, p.B
    fv = A * u * v + B * u * u * u
    _check_finite(v, fv)
    # Euler prediction along the nodes
    z1u, z1v = _C1 * h * v, _C1 * h * fv
    z2u, z2v = 0.5 * h * v, 0.5 * h * fv
    z3u, z3v = _C3 * h * v, _C3 * h * fv
    su, sv = max(1.0, abs(u)), max(1.0, abs(v))
    converged = False
    for _ in range(_GAUSS6_MAX_SWEEPS):
        y1u, y1v = u + z1u, v + z1v
        y2u, y2v = u + z2u, v + z2v
        y3u, y3v = u + z3u, v + z3v
        f1u, f1v = y1v, A * y1u * y1v + B * y1u * y1u * y1u
        f2u, f2v = y2v, A * y2u * y2v + B * y2u * y2u * y2u
        f3u, f3v = y3v, A * y3u * y3v + B * y3u * y3u * y3u
        if converged:  # the increment uses f at the converged stages
            break
        n1u = h * (_A11 * f1u + _A12 * f2u + _A13 * f3u)
        n1v = h * (_A11 * f1v + _A12 * f2v + _A13 * f3v)
        n2u = h * (_A21 * f1u + _A22 * f2u + _A23 * f3u)
        n2v = h * (_A21 * f1v + _A22 * f2v + _A23 * f3v)
        n3u = h * (_A31 * f1u + _A32 * f2u + _A33 * f3u)
        n3v = h * (_A31 * f1v + _A32 * f2v + _A33 * f3v)
        converged = (
            abs(n1u - z1u) <= _STAGE_RTOL * max(su, abs(n1u))
            and abs(n1v - z1v) <= _STAGE_RTOL * max(sv, abs(n1v))
            and abs(n2u - z2u) <= _STAGE_RTOL * max(su, abs(n2u))
            and abs(n2v - z2v) <= _STAGE_RTOL * max(sv, abs(n2v))
            and abs(n3u - z3u) <= _STAGE_RTOL * max(su, abs(n3u))
            and abs(n3v - z3v) <= _STAGE_RTOL * max(sv, abs(n3v))
        )
        if not converged and not all(map(math.isfinite, (n1u, n1v, n2u, n2v, n3u, n3v))):
            raise NonFiniteError("stage iteration overflowed")
        z1u, z1v, z2u, z2v, z3u, z3v = n1u, n1v, n2u, n2v, n3u, n3v
    else:
        raise StageSolveFailure(f"stage iteration did not converge in {_GAUSS6_MAX_SWEEPS} sweeps")
    du = h * (_B1 * (f1u + f3u) + _B2 * f2u)
    dv = h * (_B1 * (f1v + f3v) + _B2 * f2v)
    _check_finite(u + du, v + dv)
    return du, dv


def step_gauss6(p: OdeParams, s: State, h: float) -> State:
    """One step of the 3-stage Gauss-Legendre method (order 6)."""
    if h == 0.0:
        raise DomainError("step size must be nonzero")
    du, dv = _gauss6_increment(p, s.u, s.v, h)
    return State(s.t + h, s.u + du, s.v + dv)


# increment function and order of each method
_STEPPERS = {IntegratorKind.RK4: (_rk4_increment, 4), IntegratorKind.GAUSS6: (_gauss6_increment, 6)}


# ---------------------------------------------------------------------------
# driver

def integrate(p: OdeParams, s0: State, kind: IntegratorKind, opts: IntegrateOptions) -> Trajectory:
    """March from s0 toward opts.t_end with step-doubling error control.

    Backward targets are handled by integrating the time-reversed system
    (t -> -t, v -> -v, A -> -A) forward and mapping the result back, so a
    single forward driver serves both directions.
    """
    t0, u0, v0 = float(s0.t), float(s0.u), float(s0.v)
    if opts.t_end >= t0:
        return _integrate_forward(p, t0, u0, v0, kind, opts, direction=+1)
    p_rev = params_from_coeffs(-p.A, p.B)
    opts_rev = replace(opts, t_end=-opts.t_end)
    traj = _integrate_forward(p_rev, -t0, u0, -v0, kind, opts_rev, direction=-1)
    term = traj.termination
    if term.kind == "blowup" and term.t_estimate is not None:
        term = replace(term, t_estimate=-term.t_estimate)
    if term.t_last is not None:
        term = replace(term, t_last=-term.t_last)
    states = np.rec.fromarrays([-traj.t, traj.u, -traj.v], names="t,u,v")
    return Trajectory(p, states, term, kind, opts, traj.n_steps, t_residual=-traj.t_residual)


def _kahan_add(x: float, comp: float, inc: float) -> tuple[float, float]:
    """Compensated accumulation x += inc; returns the new (x, comp)."""
    y = inc - comp
    t = x + y
    comp = (t - x) - y
    return t, comp


def _integrate_forward(
    p: OdeParams, t: float, u: float, v: float, kind: IntegratorKind, opts: IntegrateOptions,
    direction: int,
) -> Trajectory:
    increment, order = _STEPPERS[kind]
    gain = 1.0 / (2**order - 1.0)
    # state accumulated by compensated summation of step increments, so
    # long runs do not pick up one coherent rounding ulp per step
    ct = cu = cv = 0.0
    h = opts.h0
    rows = [(t, u, v, 0.0)]  # t, u, v and the t residual of each recorded state
    n_acc = 0
    termination = None  # stays None on blow-up
    while True:
        if t >= opts.t_end - 1e-15 * max(1.0, abs(opts.t_end)):
            termination = Termination("completed")
            break
        if n_acc >= opts.max_steps:
            termination = Termination("max_steps", t_last=t)
            break
        # natural time scale near blow-up is 1/|u|
        if abs(u) > 1.0:
            h = min(h, opts.h_cap_factor / abs(u))
        if opts.h_max is not None:
            h = min(h, opts.h_max)
        h = min(h, opts.t_end - t)
        if h < opts.h_min:
            termination = Termination("step_underflow", t_last=t)
            break
        try:
            dfu, dfv = increment(p, u, v, h)
            d1u, d1v = increment(p, u, v, 0.5 * h)
            d2u, d2v = increment(p, u + d1u, v + d1v, 0.5 * h)
        except (NonFiniteError, StageSolveFailure):
            h *= 0.5
            continue
        du, dv = d1u + d2u, d1v + d2v
        err = gain * max(
            abs(dfu - du) / max(1.0, abs(u + du)),
            abs(dfv - dv) / max(1.0, abs(v + dv)),
        )
        if err > opts.local_tol:
            h *= max(0.2, 0.9 * (opts.local_tol / err) ** (1.0 / (order + 1)))
            continue
        u, cu = _kahan_add(u, cu, du)
        v, cv = _kahan_add(v, cv, dv)
        t, ct = _kahan_add(t, ct, h)
        n_acc += 1
        if n_acc % opts.record_every == 0:
            rows.append((t, u, v, ct))
        if abs(u) > opts.blowup_threshold or abs(v) > opts.blowup_threshold**2:
            break
        if err > 0:
            h *= min(5.0, max(0.2, 0.9 * (opts.local_tol / err) ** (1.0 / (order + 1))))
        else:
            h *= 5.0
    if n_acc % opts.record_every:  # the last accepted state is always kept
        rows.append((t, u, v, ct))
    cols = np.array(rows).T
    states = np.rec.fromarrays(cols[:3], names="t,u,v")
    if termination is None:
        try:
            t_est = _blowup_time(cols[0], cols[1])
        except FitFailure:
            t_est = t
        termination = Termination("blowup", t_estimate=t_est, direction=direction)
    return Trajectory(p, states, termination, kind, opts, n_acc, t_residual=cols[3])


def _blowup_time(t: np.ndarray, u: np.ndarray, min_u: float = 1e3) -> float:
    """Fit 1/u affine in t on the blow-up tail and return its root."""
    tail = np.flatnonzero(np.abs(u) >= min_u)[-20:]
    if len(tail) < 4:
        raise FitFailure(f"only {len(tail)} tail samples with |u| >= {min_u}")
    slope, intercept = np.polyfit(t[tail], 1.0 / u[tail], 1)
    if slope == 0.0 or not math.isfinite(slope) or not math.isfinite(intercept):
        raise FitFailure("degenerate blow-up tail fit")
    return float(-intercept / slope)


def estimate_blowup_time(traj: Trajectory) -> float:
    """Blow-up time from the asymptotic model u ~ c/(T - t)."""
    if traj.termination.kind != "blowup":
        raise FitFailure("trajectory did not terminate in blow-up")
    return _blowup_time(traj.t, traj.u)


def quadrature_blowup_time(Acoef: float, C: float, a: float) -> float:
    """T = integral_a^inf dv / sqrt(Acoef v^4 + C).

    This is the escape time of v' = sqrt(Acoef v^4 + C) from v(0) = a.
    A vanishing radicand at the left endpoint is allowed (integrable
    inverse-square-root singularity); a radicand that turns negative
    anywhere on [a, inf), or a divergent integral (C = 0, a <= 0), is a
    domain error.

    With lam = (|C| / Acoef)^(1/4) and x = a / lam the integral is an
    incomplete elliptic integral F(phi | 1/2) (DLMF 19.2), evaluated by
    elliptic.F_half:
    integral_x^inf dy / sqrt(y^4 + 1) = F(2 atan(1/x) | 1/2) / 2 and
    integral_x^inf dy / sqrt(y^4 - 1) = F(atan(sqrt 2 / sqrt(x^2 - 1)) | 1/2) / sqrt 2.
    """
    if Acoef <= 0:
        raise DomainError("quartic coefficient must be positive")
    r_a = Acoef * a**4 + C
    if r_a < 0:
        raise DomainError("negative radicand at the left endpoint")
    if C == 0:
        if a <= 0:
            raise DomainError("escape integral diverges for C = 0 and a <= 0")
        return 1.0 / (math.sqrt(Acoef) * a)
    lam = (abs(C) / Acoef) ** 0.25  # the turning point v* when C < 0
    if C < 0 and a < lam:
        raise DomainError("radicand vanishes inside the integration range")
    x = a / lam
    if C > 0:
        return lam / math.sqrt(C) * F_half(2.0 * math.atan2(1.0, x)) / 2.0
    # x^2 - 1 = r_a / (|C| (x^2 + 1)) carries fewer roundings than x * x - 1 near v*
    phi = math.atan2(math.sqrt(2.0), math.sqrt(r_a / (-C * (x * x + 1.0))))
    return lam / math.sqrt(-C) * F_half(phi) / math.sqrt(2.0)
