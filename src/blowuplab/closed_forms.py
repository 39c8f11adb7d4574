"""The lemniscatic family of u'' = A u u' + B u^3, A = 0, B < 0, used as a test and demo oracle.

``Lemniscatic(Cc, kappa, t0)`` is u = Cc sl(rate (t + t0)) with kappa^4 =
-B.  B = 0 and the invariant parabolas, whose solutions are closed forms
too, are timed and placed by ``exact``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import sl
from .errors import DomainError
from .model import OdeParams

__all__ = ["Lemniscatic", "eval_closed_form"]


@dataclass(frozen=True)
class Lemniscatic:
    Cc: float
    kappa: float
    t0: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.Cc, self.kappa, self.t0))):
            raise DomainError(f"lemniscatic family requires finite fields, got {self}")


def eval_closed_form(cf: Lemniscatic, params: OdeParams, t: float) -> tuple[float, float]:
    """Exact (u, u') of the family at time t."""
    if not (params.A == 0.0 and params.B < 0.0):
        raise DomainError("lemniscatic family requires A = 0, B < 0")
    if not abs(cf.kappa**4 + params.B) <= 1e-10 * max(1.0, abs(params.B)):
        raise DomainError("kappa must satisfy kappa^4 = -B")
    # u = Cc * sl(rate (t + t0)) solves u'' = -kappa^4 u^3 with
    # rate = kappa^2 Cc / sqrt(2), since sl'' = -2 sl^3
    rate = cf.kappa**2 * cf.Cc / math.sqrt(2.0)
    y, yp = sl(rate * (t + cf.t0))
    return cf.Cc * y, cf.Cc * rate * yp
