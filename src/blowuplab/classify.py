"""Qualitative classification of initial conditions with numeric checks.

The decision tree is keyed on the signs of A, B and the discriminant
A^2 + 8B, plus the invariant-parabola quantity g_k = u' + k u^2.  Two
exact conjugacies fold mirrored sign patterns onto proved cases:
u(-t) solves the ODE with A replaced by -A, and -u(-t) solves the same
ODE; both swap the time direction of any blow-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import m4_constant_C
from .errors import DomainError, Inconclusive
from .integrate import (
    IntegrateOptions,
    IntegratorKind,
    Trajectory,
    estimate_blowup_time,
    integrate,
    step_gauss6,
)
from .model import OdeParams, State, params_from_coeffs

__all__ = ["Verdict", "PeriodReport", "VerdictCheck", "classify", "verify_verdict", "detect_period"]

TRIVIAL = "trivial"
STATIONARY = "stationary"
GLOBAL_BOUNDED = "global_bounded"
BLOWUP_FORWARD = "blowup_forward"
BLOWUP_BACKWARD = "blowup_backward"
NO_GLOBAL = "no_global_solution"
UNCLASSIFIED = "unclassified"

# relative slack on a t_bound comparison: a fitted blow-up time misses the
# true one by about 1e-10 relative (criterion 4), and on the invariant
# parabola the bound is the exact blow-up time
_T_BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class Verdict:
    kind: str
    basis: str
    detail: dict | None = None


@dataclass(frozen=True)
class PeriodReport:
    periodic: bool
    period: float | None
    closure_error: float


def _swap_direction(v: Verdict) -> Verdict:
    if v.kind == BLOWUP_FORWARD:
        kind = BLOWUP_BACKWARD
    elif v.kind == BLOWUP_BACKWARD:
        kind = BLOWUP_FORWARD
    else:
        return v
    detail = v.detail
    if detail and "t_bound" in detail:
        detail = {**detail, "t_bound": -detail["t_bound"]}
    return Verdict(kind, v.basis + "+time-reversal", detail)


def classify(p: OdeParams, u0: float, v0: float) -> Verdict:
    A, B = p.A, p.B
    if u0 == 0.0 and v0 == 0.0:
        return Verdict(TRIVIAL, "fixed-point")
    if A < 0.0:
        # u(-t) solves the A -> -A equation; classify the mirror and swap
        mirrored = classify(params_from_coeffs(-A, B), u0, -v0)
        return _swap_direction(mirrored)

    if B == 0.0:
        if v0 == 0.0:
            # the whole u-axis is stationary when B = 0
            return Verdict(STATIONARY, "stationary-line")
        if A == 0.0:
            return Verdict(UNCLASSIFIED, "linear-drift")  # u'' = 0: global but unbounded
        C = m4_constant_C(u0, v0, A)
        if C < 0.0 and u0 * u0 < -C:
            b = math.sqrt(-C)
            return Verdict(
                GLOBAL_BOUNDED,
                "tanh-family",
                {"b": b, "c": -math.atanh(u0 / b), "decays": False},
            )
        if C > 0.0:
            return Verdict(NO_GLOBAL, "tan-branch", {"branch": "tan"})
        if C == 0.0:
            # u = -u0 / ((A/2) u0 t - 1), pole at t = 2/(A u0)
            return Verdict(NO_GLOBAL, "rational-branch", {"branch": "rational", "t_pole": 2.0 / (A * u0)})
        return Verdict(NO_GLOBAL, "reciprocal-tanh-branch", {"branch": "recip-tanh"})

    if B > 0.0:
        if A == 0.0:
            e0 = 0.5 * v0 * v0 - 0.25 * B * u0**4
            branch = "zero-energy-rational" if e0 == 0.0 else "conserved-energy-escape"
            return Verdict(NO_GLOBAL, branch, {"e0": e0})
        k_plus = p.k_plus
        g = v0 + k_plus * u0 * u0
        if v0 >= 0.0:
            if u0 >= 0.0:
                return Verdict(BLOWUP_FORWARD, "monotone-escape")
            return Verdict(BLOWUP_BACKWARD, "monotone-escape+time-reversal")
        if g <= 0.0:
            detail = None
            if u0 != 0.0:
                detail = {"t_bound": -1.0 / (k_plus * u0)}
            basis = "invariant-parabola-bound"
            if u0 <= 0.0:
                return Verdict(BLOWUP_FORWARD, basis, detail)
            return Verdict(BLOWUP_BACKWARD, basis + "+time-reversal", detail)
        if u0 < 0.0:
            return Verdict(BLOWUP_FORWARD, "logistic-comparison")
        return Verdict(BLOWUP_BACKWARD, "logistic-comparison+time-reversal")

    # B < 0, A >= 0
    if p.disc < 0.0:
        return Verdict(UNCLASSIFIED, "periodicity-conjecture")
    if A == 0.0:
        return Verdict(UNCLASSIFIED, "periodicity-conjecture")
    k1 = p.k_plus  # larger root; both roots negative here
    if u0 == 0.0 and v0 != 0.0:
        return Verdict(GLOBAL_BOUNDED, "turning-point-then-decay", {"decays": True})
    if v0 >= 0.0 and v0 + k1 * u0 * u0 < 0.0:
        return Verdict(GLOBAL_BOUNDED, "decay-to-origin", {"decays": True})
    if v0 < 0.0:
        return Verdict(GLOBAL_BOUNDED, "turning-point-then-decay", {"decays": True})
    return Verdict(UNCLASSIFIED, "outside-proved-region")


# ---------------------------------------------------------------------------
# numeric confirmation


@dataclass(frozen=True)
class VerdictCheck:
    passed: bool
    reason: str
    t_blow_forward: float | None = None
    t_blow_backward: float | None = None
    max_abs_u: float | None = None


def _run(p: OdeParams, u0: float, v0: float, t_end: float) -> Trajectory:
    opts = IntegrateOptions(h0=1e-3, t_end=t_end, local_tol=1e-10)
    return integrate(p, State(0.0, u0, v0), IntegratorKind.RK4, opts)


def verify_verdict(p: OdeParams, u0: float, v0: float, verdict: Verdict, horizon: float) -> VerdictCheck:
    """Integrate both time directions and confirm what the verdict claims."""
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    kind = verdict.kind
    t_bound = (verdict.detail or {}).get("t_bound")
    # a claimed blow-up is checked out to its own bound, even past the horizon
    t_fwd_end, t_bwd_end = horizon, -horizon
    if kind == BLOWUP_FORWARD and t_bound is not None:
        t_fwd_end = max(horizon, t_bound * (1.0 + _T_BOUND_SLACK))
    if kind == BLOWUP_BACKWARD and t_bound is not None:
        t_bwd_end = min(-horizon, t_bound * (1.0 + _T_BOUND_SLACK))
    fwd = _run(p, u0, v0, t_fwd_end)
    bwd = _run(p, u0, v0, t_bwd_end)
    for traj in (fwd, bwd):
        if traj.termination.kind in ("step_underflow", "max_steps"):
            raise Inconclusive(f"integration ended with {traj.termination.kind}")
    t_fwd = estimate_blowup_time(fwd) if fwd.termination.kind == "blowup" else None
    t_bwd = estimate_blowup_time(bwd) if bwd.termination.kind == "blowup" else None
    max_u = max(float(abs(fwd.u).max()), float(abs(bwd.u).max()))

    if kind in (TRIVIAL, STATIONARY):
        ok = fwd.termination.kind == "completed" and bwd.termination.kind == "completed"
        drift = max(float(abs(fwd.u - u0).max()), float(abs(bwd.u - u0).max()))
        ok = ok and drift <= 1e-8
        return VerdictCheck(ok, "stationary drift", t_fwd, t_bwd, max_u)
    if kind == GLOBAL_BOUNDED:
        ok = fwd.termination.kind == "completed" and bwd.termination.kind == "completed"
        reason = "completed both directions"
        if ok and verdict.detail and verdict.detail.get("decays"):
            ok = abs(fwd.u[-1]) <= 0.05 and abs(bwd.u[-1]) <= 0.05
            reason = "decay at horizon"
        if ok and verdict.detail and "b" in verdict.detail:
            b, c = verdict.detail["b"], verdict.detail["c"]
            rate = p.A * b / 2.0
            err = max(
                abs(fwd.u[-1] + b * math.tanh(rate * fwd.t[-1] + c)),
                abs(bwd.u[-1] + b * math.tanh(rate * bwd.t[-1] + c)),
            )
            ok = err <= 1e-6
            reason = f"closed-form endpoint error {err:.2e}"
        return VerdictCheck(ok, reason, t_fwd, t_bwd, max_u)
    if kind == BLOWUP_FORWARD:
        ok = t_fwd is not None
        if ok and t_bound is not None:
            ok = 0.0 < t_fwd <= t_bound + _T_BOUND_SLACK * abs(t_bound)
        return VerdictCheck(ok, "forward blow-up", t_fwd, t_bwd, max_u)
    if kind == BLOWUP_BACKWARD:
        ok = t_bwd is not None
        if ok and t_bound is not None:
            ok = t_bound - _T_BOUND_SLACK * abs(t_bound) <= t_bwd < 0.0
        return VerdictCheck(ok, "backward blow-up", t_fwd, t_bwd, max_u)
    if kind == NO_GLOBAL:
        ok = t_fwd is not None or t_bwd is not None
        return VerdictCheck(ok, "blow-up in some direction", t_fwd, t_bwd, max_u)
    return VerdictCheck(True, "nothing claimed", t_fwd, t_bwd, max_u)


# ---------------------------------------------------------------------------
# periodic-orbit detection


def detect_period(p: OdeParams, s0: State, t_max: float, tol: float = 1e-5) -> PeriodReport:
    """Return-map search on the section through s0.

    The section is u = u0 crossed with the sign of v matching v0 (or
    v = 0 with matching acceleration sign when v0 = 0).  Crossing times
    are refined by bisection on the bracketing accepted step.
    """
    if t_max <= 0 or tol <= 0:
        raise DomainError("t_max and tol must be positive")
    opts = IntegrateOptions(h0=1e-3, t_end=s0.t + t_max, local_tol=1e-12, record_every=1)
    traj = integrate(p, s0, IntegratorKind.GAUSS6, opts)
    if traj.termination.kind == "blowup":
        raise Inconclusive("orbit blew up before returning to the section")

    if s0.v != 0.0:
        section = lambda s: s.u - s0.u
        orient = lambda s: s.v
        o_ref = s0.v
    else:
        section = lambda s: s.v
        orient = lambda s: p.A * s.u * s.v + p.B * s.u**3
        o_ref = p.A * s0.u * s0.v + p.B * s0.u**3

    rows = traj.states
    sec = section(rows)  # the section function on every recorded state at once
    # a return counts only after the orbit has left the section
    away = np.flatnonzero(np.abs(sec[1:]) > 1e-8) + 1
    armed = away[0] if len(away) else len(sec)
    brackets = np.flatnonzero((sec[:-1] != 0.0) & (sec[:-1] * sec[1:] <= 0.0)) + 1
    best_closure = math.inf
    for i in brackets[brackets > armed]:
        a = State(*rows[i - 1].tolist())
        crossing = _refine_crossing(p, a, float(rows.t[i]) - a.t, section)
        if orient(crossing) * o_ref <= 0.0:
            continue
        closure = math.sqrt(
            (crossing.u - s0.u) ** 2 + (crossing.v - s0.v) ** 2 / max(1.0, s0.v**2)
        )
        if closure <= tol:
            return PeriodReport(True, crossing.t - s0.t, closure)
        best_closure = min(best_closure, closure)
    return PeriodReport(False, None, best_closure)


def _refine_crossing(p: OdeParams, start: State, h: float, section) -> State:
    f_lo = section(start)
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s_mid = step_gauss6(p, start, mid) if mid > 0 else start
        f_mid = section(s_mid)
        if f_mid == 0.0:
            return s_mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, h):
            break
    return step_gauss6(p, start, 0.5 * (lo + hi))
