"""Exact solution families of u'' = A u u' + B u^3, used as test oracles.

Families:
  * ``Riccati`` -- solutions of u' = g - k u^2 with g = u'(0) + k u(0)^2,
    for a root k of 2k^2 + A k - B = 0.  g is constant along the solution
    when A + 2k = 0 (B = 0, k = -A/2) or when g = 0 (an invariant
    parabola u' = -k u^2); ``riccati_poles`` gives its poles.
  * ``Lemniscatic`` -- scaled lemniscatic sine for A = 0, B < 0

Poles are data, not errors: evaluation past a singularity returns a
``PoleAt`` carrying the pole location, so sweep-style callers can compare
blow-up estimates against exact pole positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .elliptic import sl
from .errors import DomainError
from .model import OdeParams, is_characteristic_root

__all__ = ["Riccati", "Lemniscatic", "ClosedForm", "PoleAt", "eval_closed_form", "riccati_poles"]


@dataclass(frozen=True)
class Riccati:
    """The solution through (u(0), u'(0)) = (u0, v0) of u' = g - k u^2."""

    k: float
    u0: float
    v0: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k, self.u0, self.v0))) or self.k == 0.0:
            raise DomainError(f"Riccati family requires finite fields and k != 0, got {self}")


@dataclass(frozen=True)
class Lemniscatic:
    Cc: float
    kappa: float
    t0: float


ClosedForm = Union[Riccati, Lemniscatic]


@dataclass(frozen=True)
class PoleAt:
    t_pole: float


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def riccati_poles(cf: Riccati) -> tuple[float | None, float | None]:
    """The zeros of w (see ``_eval_riccati``) nearest to t = 0 before and after it, or None."""
    k, u0, v0 = cf.k, cf.u0, cf.v0
    a = (v0 + k * u0 * u0) * k
    om = math.sqrt(abs(a))
    poles = ()
    if a > 0.0:
        # w = P e^x + M e^-x with P + M = 1: the one of P, M formed from
        # k v0 / a is negative when |s| > 1, and w = 0 where e^{2x} = -M/P
        s = k * u0 / om
        small = (k * v0 / a) / (2.0 * (1.0 + abs(s)))
        if small < 0.0:
            poles = (-math.copysign(0.5 * math.log1p(-1.0 / small), s) / om,)
    elif a < 0.0:
        # w = cos x + s sin x, zero at x = atan(s) -/+ pi/2
        s = k * u0 / om
        poles = (math.atan2(-1.0, s) / om, math.atan2(1.0, -s) / om)
    elif u0 != 0.0:  # w = 1 + k u0 t
        poles = (-1.0 / (k * u0),)
    before = max((t for t in poles if t < 0.0), default=None)
    after = min((t for t in poles if t > 0.0), default=None)
    return before, after


def _eval_riccati(cf: Riccati, t: float) -> tuple[float, float] | PoleAt:
    """u = w'/(k w) and u' = v0/w^2, where w'' = a w, a = k g, w(0) = 1, w'(0) = k u0.

    a w^2 - w'^2 is conserved and starts at k v0, which gives u' without
    the cancellation of g - k u^2 in a decaying tail.  With x = om t and
    om = sqrt|a|, w = e^{|x|} ws in the cosh case, so nothing overflows:
    u = (om/k) dws/ws and u' = v0 r/ws^2, r = e^{-2|x|} underflowing to 0.
    """
    k, u0, v0 = cf.k, cf.u0, cf.v0
    if v0 == 0.0:  # u = u0 at rest: g = k u0^2, so u' = k (u0^2 - u^2)
        return u0, 0.0
    for t_pole in riccati_poles(cf):
        if t_pole is not None and (0.0 < t_pole <= t or t <= t_pole < 0.0):
            return PoleAt(t_pole)
    a = (v0 + k * u0 * u0) * k
    om = math.sqrt(abs(a))
    x = om * t
    if a > 0.0:
        # w = cosh x + s sinh x = P e^x + M e^-x, with P + M = 1 and
        # 4 P M = 1 - s^2 = k v0 / a; the larger of P, M is formed from s
        # and the other from k v0 / a, so that neither cancels
        s, q = k * u0 / om, k * v0 / a
        big = (1.0 + abs(s)) / 2.0
        small = q / (4.0 * big)
        P, M = (big, small) if s >= 0.0 else (small, big)
        r = math.exp(-2.0 * abs(x))
        ws, dws = (P + M * r, P - M * r) if x >= 0.0 else (P * r + M, P * r - M)
        return om / k * dws / ws, v0 * r / (ws * ws)
    if a < 0.0:
        s = k * u0 / om
        c, sn = math.cos(x), math.sin(x)
        ws = c + s * sn
        return om / k * (s * c - sn) / ws, v0 / (ws * ws)
    ws = 1.0 + k * u0 * t
    return u0 / ws, v0 / (ws * ws)


def eval_closed_form(cf: ClosedForm, params: OdeParams, t: float) -> tuple[float, float] | PoleAt:
    """Exact (u, u') of the family at time t, or the pole it hit."""
    A, B = params.A, params.B

    if isinstance(cf, Riccati):
        _require(is_characteristic_root(params, cf.k), "k must satisfy 2k^2 + A k - B = 0")
        _require(A + 2.0 * cf.k == 0.0 or cf.v0 + cf.k * cf.u0 * cf.u0 == 0.0,
                 "u' + k u^2 is constant only for A + 2k = 0 or u'(0) = -k u(0)^2")
        return _eval_riccati(cf, t)

    if isinstance(cf, Lemniscatic):
        _require(A == 0.0 and B < 0.0, "lemniscatic family requires A = 0, B < 0")
        _require(abs(cf.kappa**4 + B) <= 1e-10 * max(1.0, abs(B)), "kappa must satisfy kappa^4 = -B")
        # u = Cc * sl(rate (t + t0)) solves u'' = -kappa^4 u^3 with
        # rate = kappa^2 Cc / sqrt(2), since sl'' = -2 sl^3
        rate = cf.kappa**2 * cf.Cc / math.sqrt(2.0)
        y, yp = sl(rate * (t + cf.t0))
        return cf.Cc * y, cf.Cc * rate * yp

    raise TypeError(f"unknown closed form {cf!r}")
