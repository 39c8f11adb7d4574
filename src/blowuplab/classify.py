"""Qualitative classification of initial conditions with numeric checks.

For disc = A^2 + 8B >= 0 each time direction is decided by the end-root
rule of ``exact.blows_up``: in p = u'/u^2 the direction ends at one root
-k of 2k^2 + A k - B = 0 and blows up iff that root's exponent is
positive.  A bound is the nearest pole of an invariant-parabola
comparison, or at B = 0 the nearest exact pole of the Riccati closed form.
disc < 0, A = B = 0 and roots lost to rounding stay unclassified.  A
verdict is verified by RK4 runs against the exact times and states of
``exact``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import Riccati, riccati_poles
from .errors import DomainError, Inconclusive
from .exact import blows_up, escape_time, parabola_pole, state_at
from .integrate import IntegrateOptions, IntegratorKind, integrate, step_gauss6
from .diagnostics import g_k
from .model import OdeParams, State, rhs

__all__ = ["Verdict", "PeriodReport", "VerdictCheck", "classify", "verify_verdict", "detect_period"]

TRIVIAL = "trivial"
STATIONARY = "stationary"
GLOBAL_BOUNDED = "global_bounded"
BLOWUP_FORWARD = "blowup_forward"
BLOWUP_BACKWARD = "blowup_backward"
NO_GLOBAL = "no_global_solution"
UNCLASSIFIED = "unclassified"


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


def classify(p: OdeParams, u0: float, v0: float) -> Verdict:
    A, B = p.A, p.B
    if u0 == 0.0 and v0 == 0.0:
        return Verdict(TRIVIAL, "fixed-point")
    if B == 0.0 and v0 == 0.0:  # u'' = A u u': the u-axis is a line of rest points
        return Verdict(STATIONARY, "stationary-line")
    if A == 0.0 and B == 0.0:  # u'' = 0: a global but unbounded drift
        return Verdict(UNCLASSIFIED, "linear-drift")
    if p.disc < 0.0:
        return Verdict(UNCLASSIFIED, "periodicity-conjecture")

    # at B = 0, k = -A/2 is the root whose Riccati closed form u is
    k, k_other = (p.k_minus, p.k_plus) if p.k_minus < 0.0 else (p.k_plus, p.k_minus)
    if not 0.0 < abs(k * k_other if B != 0.0 else k) < math.inf:  # k k' = -B/2, and k = -A/2 at B = 0
        return Verdict(UNCLASSIFIED, "root-out-of-range")  # a root lost to under- or overflow has no sign to read
    forward, backward = blows_up(p, u0, v0, 1.0), blows_up(p, u0, v0, -1.0)
    if B == 0.0:  # u' + k u^2 is constant, so u is the Riccati closed form and its poles are exact
        poles = [t for t in riccati_poles(Riccati(k, u0, v0)) if t is not None] if k * u0 != 0.0 else []
    else:
        # g_kappa keeps its sign, so where d kappa u0 < 0 and d u0 g_kappa(0) >= 0 (for one d
        # iff kappa g_kappa(0) <= 0), z = sign(u0) u(d tau) obeys z' >= |kappa| z^2 and escapes
        # by the pole -1/(kappa u0), exactly then if g_kappa(0) = 0; no two poles face apart
        s0 = State(0.0, u0, v0)
        poles = [-1.0 / (kappa * u0) for kappa in (k, k_other)
                 if kappa * u0 != 0.0 and kappa * g_k(s0, kappa) <= 0.0]  # none at u0 = 0, nor where kappa u0 underflows
    t_bound = min(poles, key=abs) if poles else math.inf
    detail = {"t_bound": t_bound} if abs(t_bound) < math.inf else None  # none, or lost to overflow
    if forward and backward:
        return Verdict(NO_GLOBAL, "w-equation", detail)
    if forward or backward:
        return Verdict(BLOWUP_FORWARD if forward else BLOWUP_BACKWARD, "w-equation", detail)
    # at B = 0 u tends to a non-zero constant; the detail names the Riccati root k
    return Verdict(GLOBAL_BOUNDED, "w-equation", {"k": k} if B == 0.0 else {"decays": True})


# ---------------------------------------------------------------------------
# numeric confirmation


@dataclass(frozen=True)
class VerdictCheck:
    """The outcome of ``verify_verdict``.

    ``t_blow_forward`` and ``t_blow_backward`` are each run's last time plus
    the exact remaining time from its last state; ``None`` where that
    direction was not run or its last state's direction is global.
    ``max_abs_u`` is the largest ``|u|`` over the runs made, ``None`` when
    the verdict needed none.
    """

    passed: bool
    reason: str
    t_blow_forward: float | None = None
    t_blow_backward: float | None = None
    max_abs_u: float | None = None


# A run stops at |u| = 1e3 and adds the exact remainder.  The gates are about
# 30 times the worst RK4 error (local_tol 1e-10) measured on the verify
# census, the verify_grid_rk4 mix and seeded sets at horizon 50: 3.6e-8 in
# a blow-up time relative, 2.8e-9 in an end state per component relative to
# max(1, |exact|).  _T_ACCURACY bounds exact.py's error in T, measured at
# 1.3e-14 or less for every exponent (tests/test_exact.py).
_RUN_STOP, _T_GATE, _STATE_GATE, _T_ACCURACY = 1e3, 1e-6, 1e-7, 1e-12


def _run(p: OdeParams, u0: float, v0: float, t_end: float):
    """The RK4 run from (u0, v0) at t = 0 to t_end or |u| = 1e3, and its ``t_estimate`` (last time plus exact remaining time)."""
    opts = IntegrateOptions(h0=1e-3, t_end=t_end, local_tol=1e-10, blowup_threshold=_RUN_STOP)
    traj = integrate(p, State(0.0, u0, v0), IntegratorKind.RK4, opts)
    if traj.termination.kind in ("step_underflow", "max_steps"):
        raise Inconclusive(f"integration ended with {traj.termination.kind}")
    return traj, traj.termination.t_estimate


def _judge(p: OdeParams, u0: float, v0: float, d: float, traj, t_blow, blowup: bool, bound) -> str:
    """Why direction d's run fails the claim against the exact answer, or "" where it holds.

    A claimed blow-up needs escape_time's T, the run's blow-up time within
    _T_GATE of T relative and 0 < d T <= d bound within _T_ACCURACY; a
    claimed global direction needs the exact rule to agree and the end
    state within _STATE_GATE of ``state_at``'s.
    """
    T = escape_time(p, u0, v0, d)
    if (T is not None) != blowup:
        return "exact rule: " + ("blows up" if T is not None else "global")
    if not blowup:
        u, v = state_at(p, u0, v0, float(traj.t[-1]))
        err = max(abs(float(traj.u[-1]) - u) / max(1.0, abs(u)), abs(float(traj.v[-1]) - v) / max(1.0, abs(v)))
        return "" if err <= _STATE_GATE else f"end state error {err:.2e}"
    if t_blow is None or not abs(t_blow - T) <= _T_GATE * abs(T):
        return f"blow-up time {t_blow!r} against exact {T!r}"
    if bound is not None and not 0.0 < d * T <= d * bound * (1.0 + _T_ACCURACY):
        return f"exact blow-up time {T!r} past t_bound {bound!r}"
    return ""


def verify_verdict(p: OdeParams, u0: float, v0: float, verdict: Verdict, horizon: float) -> VerdictCheck:
    """Run in RK4 the time directions the verdict's claim concerns, and hold each to the exact answer.

    A start on an invariant parabola (``exact.parabola_pole``) runs nothing
    and must claim the blow-up at its pole, as ``t_bound``.  ``trivial`` and
    ``stationary`` (checked by their drift) and ``global_bounded`` run both
    directions; a blow-up claim the direction of its ``t_bound``'s sign or
    of its kind; ``no_global_solution`` without a bound first the direction
    where ``|u|`` grows, then the other only if the first confirmed no
    blow-up; ``unclassified`` none.  Each run stops at the horizon or at
    ``|u| = 1e3`` (``_run``) and is judged by ``_judge``; a run direction
    whose exact kind contradicts the verdict fails it.  A direction not run
    reports ``t_blow_* = None``; an ``Inconclusive`` run raises.
    """
    if not 0.0 < horizon < math.inf:  # false for NaN too
        raise DomainError("horizon must be positive and finite")
    kind = verdict.kind
    blowup_claim = kind in (BLOWUP_FORWARD, BLOWUP_BACKWARD, NO_GLOBAL)
    t_bound = (verdict.detail or {}).get("t_bound") if blowup_claim else None
    pole = parabola_pole(p, u0, v0) if kind != UNCLASSIFIED else None
    if pole is not None:
        exact = kind == (BLOWUP_FORWARD if pole > 0.0 else BLOWUP_BACKWARD) and t_bound == pole
        return VerdictCheck(exact, "invariant-parabola pole", *((pole, None) if pole > 0.0 else (None, pole)))
    claimed = {BLOWUP_FORWARD: 1.0, BLOWUP_BACKWARD: -1.0}.get(kind)  # direction of a claimed blow-up
    if t_bound is not None:
        claimed = math.copysign(1.0, t_bound)  # a bound claims the blow-up in its own direction
    if claimed is not None:
        directions = (claimed,)
    elif kind == NO_GLOBAL:
        first = -1.0 if u0 * v0 < 0.0 else 1.0  # where |u| grows
        directions = (first, -first)
    elif kind in (TRIVIAL, STATIONARY, GLOBAL_BOUNDED):
        directions = (1.0, -1.0)
    else:
        return VerdictCheck(True, "nothing claimed")
    runs, t_blow, failed = {}, {1.0: None, -1.0: None}, {}  # per direction: run, blow-up time, failure or ""
    for d in directions:
        runs[d], t_blow[d] = _run(p, u0, v0, d * horizon)
        if kind not in (TRIVIAL, STATIONARY):
            failed[d] = _judge(p, u0, v0, d, runs[d], t_blow[d], blowup_claim, t_bound if d == claimed else None)
            if blowup_claim and not failed[d]:
                break  # one blow-up settles a no_global_solution claim
    failures = "; ".join(f"{'forward' if d > 0 else 'backward'}: {r}" for d, r in failed.items() if r)
    if kind in (TRIVIAL, STATIONARY):
        drift = max(float(abs(r.u - u0).max()) for r in runs.values())
        ok = all(r.termination.kind == "completed" for r in runs.values()) and drift <= 1e-8
        reason = "stationary drift"
    elif kind == GLOBAL_BOUNDED:
        ok, reason = not failures, failures or "exact end states both directions"
    else:
        ok = "" in failed.values() and "exact rule: global" not in failed.values()
        what = "blow-up in some direction" if claimed is None else ("forward" if claimed > 0 else "backward") + " blow-up"
        reason = what if ok else failures
    return VerdictCheck(ok, reason, t_blow[1.0], t_blow[-1.0], max(float(abs(r.u).max()) for r in runs.values()))


# ---------------------------------------------------------------------------
# periodic-orbit detection


def detect_period(p: OdeParams, s0: State, t_max: float, tol: float = 1e-5) -> PeriodReport:
    """Return-map search on the section through s0.

    The section is u = u0 crossed with the sign of v matching v0 (or
    v = 0 with matching acceleration sign when v0 = 0).  Crossing times
    are refined by bisection on the bracketing accepted step.
    """
    if not 0.0 < t_max < math.inf:  # false for NaN too
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
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
