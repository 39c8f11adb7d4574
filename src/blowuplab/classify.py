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
from .diagnostics import energy, g_k
from .model import OdeParams, State, params_from_coeffs, rhs

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
        s0 = State(0.0, u0, v0)
        if A == 0.0:
            e0 = energy(p, s0)
            branch = "zero-energy-rational" if e0 == 0.0 else "conserved-energy-escape"
            return Verdict(NO_GLOBAL, branch, {"e0": e0})
        if u0 < 0.0 <= v0 or v0 < 0.0 < u0:
            # -u(-t) solves the same equation; classify the mirror and swap
            return _swap_direction(classify(p, -u0, v0))
        # u0 and v0 of one sign: every blow-up below is forward
        if v0 >= 0.0:
            return Verdict(BLOWUP_FORWARD, "monotone-escape")
        if g_k(s0, p.k_plus) <= 0.0:
            detail = {"t_bound": -1.0 / (p.k_plus * u0)} if u0 != 0.0 else None
            return Verdict(BLOWUP_FORWARD, "invariant-parabola-bound", detail)
        return Verdict(BLOWUP_FORWARD, "logistic-comparison")

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
    detail = verdict.detail or {}
    t_bound = detail.get("t_bound")
    claimed = {BLOWUP_FORWARD: 1.0, BLOWUP_BACKWARD: -1.0}.get(kind)  # direction of a claimed blow-up
    runs = {}  # direction -> trajectory
    for d in (1.0, -1.0):
        t_end = horizon
        if d == claimed and t_bound is not None:
            # a claimed blow-up is checked out to its own bound, even past the horizon
            t_end = max(horizon, d * t_bound * (1.0 + _T_BOUND_SLACK))
        runs[d] = traj = _run(p, u0, v0, d * t_end)
        if traj.termination.kind in ("step_underflow", "max_steps"):
            raise Inconclusive(f"integration ended with {traj.termination.kind}")
    t_blow = {d: estimate_blowup_time(r) if r.termination.kind == "blowup" else None for d, r in runs.items()}
    max_u = max(float(abs(r.u).max()) for r in runs.values())

    def check(ok: bool, reason: str) -> VerdictCheck:
        return VerdictCheck(ok, reason, t_blow[1.0], t_blow[-1.0], max_u)

    completed = all(r.termination.kind == "completed" for r in runs.values())
    if kind in (TRIVIAL, STATIONARY):
        drift = max(float(abs(r.u - u0).max()) for r in runs.values())
        return check(completed and drift <= 1e-8, "stationary drift")
    if kind == GLOBAL_BOUNDED:
        ok, reason = completed, "completed both directions"
        if ok and detail.get("decays"):
            ok, reason = all(abs(r.u[-1]) <= 0.05 for r in runs.values()), "decay at horizon"
        if ok and "b" in detail:
            b, c = detail["b"], detail["c"]
            rate = p.A * b / 2.0
            err = max(abs(r.u[-1] + b * math.tanh(rate * r.t[-1] + c)) for r in runs.values())
            ok, reason = err <= 1e-6, f"closed-form endpoint error {err:.2e}"
        return check(ok, reason)
    if claimed is not None:
        t = t_blow[claimed]
        ok = t is not None
        if ok and t_bound is not None:
            # 0 < |t| <= |t_bound| plus slack, with signs taken along the claimed direction
            ok = 0.0 < claimed * t <= claimed * t_bound + _T_BOUND_SLACK * abs(t_bound)
        return check(ok, ("forward" if claimed > 0 else "backward") + " blow-up")
    if kind == NO_GLOBAL:
        return check(any(t is not None for t in t_blow.values()), "blow-up in some direction")
    return check(True, "nothing claimed")


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
        section, axis = (lambda s: s.u - s0.u), 0
    else:
        section, axis = (lambda s: s.v), 1
    # a return must cross the section the way s0 does: same sign of u' (axis 0) or u'' (axis 1)
    orient = lambda s: rhs(p, s)[axis]
    o_ref = orient(s0)

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
