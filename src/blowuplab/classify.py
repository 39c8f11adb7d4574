"""Qualitative classification of initial conditions with numeric checks.

For disc = A^2 + 8B >= 0 each time direction is decided by the signs of
w'' = a w^q, where w = exp(k int u) for a root k of 2k^2 + A k - B = 0
(for m-derived coefficients, the conformal factor (f/f(0))^(-2/(m-2)));
at B = 0, q = 1 and a bound is the nearest exact pole of the Riccati
closed form.  disc < 0, A = B = 0 and roots lost to rounding stay unclassified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import PoleAt, Riccati, eval_closed_form, riccati_poles
from .errors import DomainError, Inconclusive
from .integrate import (
    IntegrateOptions,
    IntegratorKind,
    estimate_blowup_time,
    integrate,
    quadrature_blowup_time,
    step_gauss6,
)
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

# relative slack on a t_bound comparison: a fitted blow-up time misses the
# true one by about 1e-10 relative (criterion 4), and a bound can be the
# exact blow-up time (an A = 0 energy bound) or within rounding of it (a
# start within rounding of an invariant parabola)
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


def _blows_up(p: OdeParams, k: float, G: float, e: float, u0: float, d: float) -> bool:
    """Whether u blows up in time direction d: whether w = exp(k int_0^t u) reaches 0 or infinity.

    w'' = a w^q with w(0) = 1, w'(0) = k u0, a = k G and q = 3 + A/k, so
    q - 1 = B/k^2 has the sign of B, B = 0 gives k = -A/2 and q = 1 (also
    where A^2 underflows to disc = 0), and otherwise disc = 0 gives q = -1;
    e has the sign of the conserved E = w'^2/2 - a w^(q+1)/(q+1).
    """
    inward = d * k * u0 < 0.0  # w starts towards 0
    if G == 0.0:  # a = 0: w is linear, u = u0/(1 + k u0 t)
        return inward
    if k * G < 0.0:  # a < 0: w is pulled to 0 and reaches it with w'^2 >= 2E > 0
        return True
    if p.disc == 0.0 and p.B != 0.0:  # q = -1: -a ln w keeps w from 0; w'^2 ~ 2a ln w takes infinite time out
        return False
    if inward and e > 0.0:  # w'^2 >= 2E > 0 all the way to 0
        return True
    if inward and e == 0.0:  # w'^2 ~ w^(q+1): w reaches 0 in finite time iff q < 1
        return p.B < 0.0
    # outward, or turning back out at the root of w'^2 (E < 0): w escapes in finite time iff q > 1
    return p.B > 0.0


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

    # q + 1 > 0 for k_minus if it is negative, else for k_plus; E = -k^2 g_k'(0)/(4k + A)
    # on the other root k', and 4k + A is -sqrt(disc) for k_minus, +sqrt(disc) for k_plus
    s0, low = State(0.0, u0, v0), p.k_minus < 0.0
    k, k_other = (p.k_minus, p.k_plus) if low else (p.k_plus, p.k_minus)
    if not 0.0 < abs(k * k_other if B != 0.0 else k) < math.inf:  # k k' = -B/2, and k = -A/2 at B = 0
        return Verdict(UNCLASSIFIED, "root-out-of-range")  # a root lost to under- or overflow has no sign to read
    G, G_other = g_k(s0, k), g_k(s0, k_other)
    forward, backward = (_blows_up(p, k, G, G_other if low else -G_other, u0, d) for d in (1.0, -1.0))
    if B == 0.0:  # u' + k u^2 is constant, so u is the Riccati closed form and its poles are exact
        poles = [t for t in riccati_poles(Riccati(k, u0, v0)) if t is not None] if k * u0 != 0.0 else []
    else:
        # g_kappa keeps its sign, so where d kappa u0 < 0 and d u0 g_kappa(0) >= 0 (for one d
        # iff kappa g_kappa(0) <= 0), z = sign(u0) u(d tau) obeys z' >= |kappa| z^2 and escapes
        # by the pole -1/(kappa u0), exactly then if g_kappa(0) = 0; no two poles face apart
        poles = [-1.0 / (kappa * u0) for kappa, g in ((k, G), (k_other, G_other))
                 if kappa * u0 != 0.0 and kappa * g <= 0.0]  # none at u0 = 0, nor where kappa u0 underflows
    t_bound = min(poles, key=abs) if poles else math.inf
    detail = {"t_bound": t_bound} if abs(t_bound) < math.inf else None  # none, or lost to overflow
    if forward and backward:
        return Verdict(NO_GLOBAL, "w-equation", detail)
    if forward or backward:
        return Verdict(BLOWUP_FORWARD if forward else BLOWUP_BACKWARD, "w-equation", detail)
    # at B = 0 (q = 1) u tends to a non-zero constant; the Riccati closed form is checked instead
    return Verdict(GLOBAL_BOUNDED, "w-equation", {"k": k} if B == 0.0 else {"decays": True})


# ---------------------------------------------------------------------------
# numeric confirmation


@dataclass(frozen=True)
class VerdictCheck:
    """The outcome of ``verify_verdict``.

    ``t_blow_forward`` and ``t_blow_backward`` are the fitted blow-up times
    of the runs made; ``None`` means that direction ran to its end without
    a blow-up or was not run.  ``max_abs_u`` is the largest ``|u|`` over the
    runs made, ``None`` when the verdict needed none.
    """

    passed: bool
    reason: str
    t_blow_forward: float | None = None
    t_blow_backward: float | None = None
    max_abs_u: float | None = None


def _run(p: OdeParams, u0: float, v0: float, t_end: float, kind=IntegratorKind.RK4, local_tol=1e-10):
    """The run from (u0, v0) at t = 0 to t_end, and its fitted blow-up time or None."""
    traj = integrate(p, State(0.0, u0, v0), kind, IntegrateOptions(h0=1e-3, t_end=t_end, local_tol=local_tol))
    if traj.termination.kind in ("step_underflow", "max_steps"):
        raise Inconclusive(f"integration ended with {traj.termination.kind}")
    return traj, estimate_blowup_time(traj) if traj.termination.kind == "blowup" else None


def _escape_bound(p: OdeParams, u0: float, v0: float, d: float) -> float | None:
    """A bound on the blow-up time in direction d from energy comparison, or None.

    With s = sign(u0) (sign(d v0) at u0 = 0), z(tau) = s u(d tau) solves
    z'' = s d A z z' + B z^3.
    When B > 0 and z(0), z'(0) and s d A are >= 0, z and z' never decrease,
    so z'^2 >= (B/2) z^4 + C with C = v0^2 - (B/2) u0^4, and z escapes no
    later than v' = sqrt((B/2) v^4 + C) does from |u0|; for A = 0 the two
    times are equal.
    """
    s = math.copysign(1.0, u0 if u0 != 0.0 else d * v0)
    if not (p.B > 0.0 and s * d * v0 >= 0.0 and s * d * p.A >= 0.0):
        return None
    try:
        quartic = p.B / 2.0 * abs(u0) ** 4  # as quadrature_blowup_time forms it, so its radicand is >= 0
        t = quadrature_blowup_time(p.B / 2.0, max(v0 * v0 - quartic, -quartic), abs(u0))
    except (DomainError, OverflowError):  # v0 = 0: a turning point at |u0| rounded past it; u0^4 overflows
        return None
    return d * t if math.isfinite(t) else None


def _parabola_pole(p: OdeParams, u0: float, v0: float) -> float | None:
    """The pole -1/(kappa u0) when (u0, v0) lies on an invariant parabola, else None.

    A root kappa with kappa u0^2 != 0 and v0 + kappa u0^2 == 0 in floats makes
    g_kappa vanish for all time, so u' = -kappa u^2 and u = u0 / (1 + kappa u0 t)
    exactly; a pole lost to overflow gives None.
    """
    for kappa in (p.k_minus, p.k_plus) if p.disc >= 0.0 else ():
        if kappa * u0 * u0 != 0.0 and v0 + kappa * u0 * u0 == 0.0:
            pole = -1.0 / (kappa * u0)
            return pole if math.isfinite(pole) else None
    return None


def _confirms(d: float, t: float | None, bound: float | None) -> bool:
    """A blow-up, at 0 < d t <= d bound plus slack when there is a bound."""
    return t is not None and (bound is None or 0.0 < d * t <= d * bound + _T_BOUND_SLACK * abs(bound))


def verify_verdict(p: OdeParams, u0: float, v0: float, verdict: Verdict, horizon: float) -> VerdictCheck:
    """Integrate in RK4 the time directions the verdict's claim concerns, and confirm it.

    A start on an invariant parabola (see ``_parabola_pole``) runs nothing:
    ``u = u0 / (1 + kappa u0 t)`` exactly, so the verdict must be the blow-up
    in the direction of the pole with that pole as its ``t_bound``; the
    pole is that direction's ``t_blow_*``.  Otherwise ``trivial``,
    ``stationary`` and ``global_bounded`` run both directions to the
    horizon.  A blow-up claim with a ``t_bound`` runs the direction of
    its sign alone, as ``blowup_forward`` and ``blowup_backward`` without one
    run their own; ``no_global_solution`` without one runs first the
    direction in which ``|u|`` grows, then the other only if the first
    confirmed no blow-up; ``unclassified`` runs nothing.  A blow-up run goes
    out to its bound when that lies past the horizon: the ``t_bound``, else
    the energy bound of ``_escape_bound`` where one applies; the fitted time
    must not pass the bound, and a bound RK4 cannot confirm, such as the
    energy bound that is exact at A = 0, is settled by one Gauss6 run.  A
    direction not run reports ``t_blow_* = None``, and ``max_abs_u`` covers
    the runs made; an ``Inconclusive`` run raises.
    """
    if not 0.0 < horizon < math.inf:  # false for NaN too
        raise DomainError("horizon must be positive and finite")
    kind = verdict.kind
    detail = verdict.detail or {}
    blowup_claim = kind in (BLOWUP_FORWARD, BLOWUP_BACKWARD, NO_GLOBAL)
    t_bound = detail.get("t_bound") if blowup_claim else None
    pole = _parabola_pole(p, u0, v0) if kind != UNCLASSIFIED else None
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
        directions = ()
    runs, t_blow = {}, {1.0: None, -1.0: None}  # direction -> trajectory and fitted blow-up time
    confirmed = {}  # direction -> a blow-up within its bound
    for d in directions:
        bound = t_bound if d == claimed else None
        if bound is None and blowup_claim:
            bound = _escape_bound(p, u0, v0, d)
        # a claimed blow-up is checked out to its bound, even past the horizon
        t_end = horizon if bound is None else max(horizon, d * bound * (1.0 + _T_BOUND_SLACK))
        runs[d], t_blow[d] = _run(p, u0, v0, d * t_end)
        if not blowup_claim:
            continue
        if bound is not None and not _confirms(d, t_blow[d], bound):
            # RK4 at 1e-10 can fit a pole at an exact bound (the A = 0 energy bound) late by more
            # than the slack, or step across it; Gauss6 at 1e-12 fits such poles to about 1e-13
            t_blow[d] = _run(p, u0, v0, d * t_end, IntegratorKind.GAUSS6, 1e-12)[1]
        confirmed[d] = _confirms(d, t_blow[d], bound)
        if confirmed[d]:
            break  # one blow-up settles a no_global_solution claim
    max_u = max((float(abs(r.u).max()) for r in runs.values()), default=None)

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
        if ok and "k" in detail:
            cf = Riccati(detail["k"], u0, v0)
            exact = [(r.u[-1], eval_closed_form(cf, p, r.t[-1])) for r in runs.values()]
            err = max(math.inf if isinstance(e, PoleAt) else abs(u - e[0]) for u, e in exact)
            ok, reason = err <= 1e-6, f"closed-form endpoint error {err:.2e}"
        return check(ok, reason)
    if claimed is not None:
        return check(confirmed[claimed], ("forward" if claimed > 0 else "backward") + " blow-up")
    if kind == NO_GLOBAL:
        return check(any(confirmed.values()), "blow-up in some direction")
    return check(True, "nothing claimed")


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
