"""Qualitative classification of initial conditions with numeric checks.

For disc = A^2 + 8B >= 0 each time direction is decided and timed by
``exact.escape_time``: in p = u'/u^2 the direction ends at one root -k of
2k^2 + A k - B = 0 and blows up iff that root's exponent is positive, at
the time the leg integrals give.  A blow-up verdict carries the nearer
blow-up time as ``t_bound``, none where both overflow.  disc < 0 (whose
closed orbits ``exact.period`` times), A = B = 0 and roots lost to
rounding stay unclassified.  A verdict is verified by RK4 runs against the
exact times and states of ``exact``.
"""
from __future__ import annotations

import math

from .errors import DomainError, Inconclusive
from .exact import escape_time, parabola_pole, state_at
from .integrate import IntegrateOptions, IntegratorKind, _march
from .model import OdeParams, State, _Record, _set

__all__ = ["Verdict", "VerdictCheck", "classify", "verify_verdict"]

TRIVIAL = "trivial"
STATIONARY = "stationary"
GLOBAL_BOUNDED = "global_bounded"
BLOWUP_FORWARD = "blowup_forward"
BLOWUP_BACKWARD = "blowup_backward"
NO_GLOBAL = "no_global_solution"
UNCLASSIFIED = "unclassified"


class Verdict(_Record):
    __slots__ = ("kind", "basis", "detail")

    def __init__(self, kind: str, basis: str, detail: dict | None = None):
        _set(self, "kind", kind)
        _set(self, "basis", basis)
        _set(self, "detail", detail)


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
    # k_minus k_plus = -B/2, and at B = 0 the roots are -A/2 and 0
    if not 0.0 < abs(p.k_minus * p.k_plus if B != 0.0 else p.k_minus + p.k_plus) < math.inf:
        return Verdict(UNCLASSIFIED, "root-out-of-range")  # a root lost to under- or overflow has no sign to read
    forward, backward = escape_time(p, u0, v0, 1.0), escape_time(p, u0, v0, -1.0)
    if forward is None and backward is None:
        return Verdict(GLOBAL_BOUNDED, "w-equation")
    # the nearer finite time; a tie (as at u0 = 0, where u is odd) goes to the
    # direction sign(u0) sign(v0), which both conjugacies reverse
    tie = math.copysign(1.0, u0) * math.copysign(1.0, v0)
    times = [t for t in (forward, backward) if t is not None and abs(t) < math.inf]
    detail = {"t_bound": min(times, key=lambda t: (abs(t), t * tie < 0.0))} if times else None
    if forward is not None and backward is not None:
        return Verdict(NO_GLOBAL, "w-equation", detail)
    return Verdict(BLOWUP_FORWARD if forward is not None else BLOWUP_BACKWARD, "w-equation", detail)


# ---------------------------------------------------------------------------
# numeric confirmation


class VerdictCheck(_Record):
    """The outcome of ``verify_verdict``.

    ``t_blow_forward`` and ``t_blow_backward`` are each run's last time plus
    the exact remaining time from its last state; ``None`` where that
    direction was not run or its last state's direction is global.
    ``max_abs_u`` is the largest ``|u|`` over the runs made, ``None`` when
    the verdict needed none.
    """

    __slots__ = ("passed", "reason", "t_blow_forward", "t_blow_backward", "max_abs_u")

    def __init__(self, passed: bool, reason: str, t_blow_forward: float | None = None,
                 t_blow_backward: float | None = None, max_abs_u: float | None = None):
        _set(self, "passed", passed)
        _set(self, "reason", reason)
        _set(self, "t_blow_forward", t_blow_forward)
        _set(self, "t_blow_backward", t_blow_backward)
        _set(self, "max_abs_u", max_abs_u)


# A run stops at |u| = 1e3 and adds the exact remainder.  The gates are about
# 30 times the worst RK4 error (local_tol 1e-10) measured on the verify
# census, the verify_grid_rk4 mix and seeded sets at horizon 50: 3.6e-8 in
# a blow-up time relative, 2.8e-9 in an end state per component relative to
# max(1, |exact|).
_RUN_STOP, _T_GATE, _STATE_GATE = 1e3, 1e-6, 1e-7


def _run(p: OdeParams, u0: float, v0: float, t_end: float) -> tuple[list, float | None]:
    """The RK4 run from (u0, v0) at t = 0 to t_end or |u| = 1e3.

    Returns its flat rows (``integrate._march``) and its ``t_estimate``, the
    last time plus the exact remaining time.
    """
    opts = IntegrateOptions(h0=1e-3, t_end=t_end, local_tol=1e-10, blowup_threshold=_RUN_STOP)
    rows, _, termination = _march(p, State(0.0, u0, v0), IntegratorKind.RK4, opts)
    if termination.kind in ("step_underflow", "max_steps"):
        raise Inconclusive(f"integration ended with {termination.kind}")
    return rows, termination.t_estimate


def _end_state_error(p: OdeParams, u0: float, v0: float, rows: list, t_blow) -> str:
    """Why a run claimed global fails, or "": its last state must be global and within _STATE_GATE of ``state_at``'s."""
    if t_blow is not None:
        return f"blows up at {t_blow!r}"
    t_last, u_last, v_last = rows[-4:-1]
    u, v = state_at(p, u0, v0, t_last)
    err = max(abs(u_last - u) / max(1.0, abs(u)), abs(v_last - v) / max(1.0, abs(v)))
    return "" if err <= _STATE_GATE else f"end state error {err:.2e}"


def verify_verdict(p: OdeParams, u0: float, v0: float, verdict: Verdict, horizon: float) -> VerdictCheck:
    """Run in RK4 the time directions the verdict's claim concerns, and hold each to the exact answer.

    A start on an invariant parabola (``exact.parabola_pole``) runs nothing
    and must claim the blow-up at its pole, as ``t_bound``.  ``trivial`` and
    ``stationary`` need a rest point (u'0 = 0 and B u0 = 0), and then, like
    ``global_bounded``, run both directions, and each run's last state must
    be global and within _STATE_GATE of ``exact.state_at``'s.  A blow-up claim runs one direction, that of its
    ``t_bound``'s sign (of its kind without one, forward for
    ``no_global_solution``), and the run's ``t_estimate`` must lie within
    _T_GATE of ``t_bound`` relative; a claim without a finite ``t_bound``
    (its exact times overflow) needs the run's ``t_estimate`` to exist.
    ``unclassified`` runs nothing.  Each run stops at the horizon or at
    ``|u| = 1e3`` (``_run``).  A direction not run reports
    ``t_blow_* = None``; an ``Inconclusive`` run raises.
    """
    if not 0.0 < horizon < math.inf:  # false for NaN too
        raise DomainError("horizon must be positive and finite")
    kind = verdict.kind
    if kind == UNCLASSIFIED:
        return VerdictCheck(True, "nothing claimed")
    blowup_claim = kind in (BLOWUP_FORWARD, BLOWUP_BACKWARD, NO_GLOBAL)
    t_bound = (verdict.detail or {}).get("t_bound") if blowup_claim else None
    pole = parabola_pole(p, u0, v0)
    if pole is not None:
        exact = kind == (BLOWUP_FORWARD if pole > 0.0 else BLOWUP_BACKWARD) and t_bound == pole
        return VerdictCheck(exact, "invariant-parabola pole", *((pole, None) if pole > 0.0 else (None, pole)))
    t_blow = {1.0: None, -1.0: None}
    if not blowup_claim:
        if kind in (TRIVIAL, STATIONARY) and not (v0 == 0.0 and (u0 == 0.0 or p.B == 0.0)):
            return VerdictCheck(False, "not a rest point")
        runs, failed = [], []
        for d in (1.0, -1.0):
            rows, t_blow[d] = _run(p, u0, v0, d * horizon)
            runs.append(rows)
            why = _end_state_error(p, u0, v0, rows, t_blow[d])
            if why:
                failed.append(f"{'forward' if d > 0.0 else 'backward'}: {why}")
        ok, reason = not failed, "; ".join(failed) or "exact end states both directions"
    else:
        d = math.copysign(1.0, t_bound) if t_bound is not None else (-1.0 if kind == BLOWUP_BACKWARD else 1.0)
        rows, t_blow[d] = _run(p, u0, v0, d * horizon)
        runs, what = [rows], ("forward" if d > 0.0 else "backward") + " blow-up"
        if t_bound is None:
            ok = t_blow[d] is not None
            reason = f"{what} at {t_blow[d]!r}, no finite t_bound" if ok else f"{what} not seen: the run's last state is global"
        else:  # false for a NaN or infinite t_bound too
            ok = t_blow[d] is not None and abs(t_blow[d] - t_bound) <= _T_GATE * abs(t_bound) < math.inf
            reason = what if ok else f"blow-up time {t_blow[d]!r} against t_bound {t_bound!r}"
    return VerdictCheck(ok, reason, t_blow[1.0], t_blow[-1.0], max(max(map(abs, rows[1::4])) for rows in runs))
