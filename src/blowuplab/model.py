"""The ODE family u'' = A u u' + B u^3 and its coefficient algebra.

Coefficients may be given directly or derived from a real dimension
parameter m > 2, in which case A = (8-m)/(m-2) and B = 2(m-4)/(m-2)^2.
The characteristic roots k of 2k^2 + A k - B = 0 organize the phase
portrait (the parabolas u' = -k u^2 are invariant manifolds).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonFiniteError

__all__ = ["OdeParams", "State", "params_from_dimension", "params_from_coeffs", "rhs"]


@dataclass(frozen=True)
class OdeParams:
    """Coefficients of u'' = A u u' + B u^3 with derived quantities.

    ``disc`` is A^2 + 8B, the discriminant of 2k^2 + A k - B = 0.
    ``k_minus <= k_plus`` are the real roots, present iff disc >= 0.
    ``m`` is the source dimension when the parameters came from one.
    """

    A: float
    B: float
    m: float | None = None
    disc: float = 0.0
    k_minus: float | None = None
    k_plus: float | None = None


@dataclass(frozen=True)
class State:
    """A point (t, u, u') in extended phase space.  All fields finite."""

    t: float
    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.u) and math.isfinite(self.v)):
            raise NonFiniteError(f"non-finite state ({self.t}, {self.u}, {self.v})")


def _make_params(A: float, B: float, m: float | None) -> OdeParams:
    disc = A * A + 8.0 * B
    if disc >= 0.0:
        # roots of 2k^2 + A k - B = 0, computed cancellation-free
        sq = math.sqrt(disc)
        k1 = (-A - sq) / 4.0
        k2 = (-A + sq) / 4.0
        # refine the smaller-magnitude root through the product k1*k2 = -B/2
        if B != 0.0:
            if abs(k1) >= abs(k2):
                k2 = (-B / 2.0) / k1
            else:
                k1 = (-B / 2.0) / k2
        k_minus, k_plus = min(k1, k2), max(k1, k2)
    else:
        k_minus = k_plus = None
    return OdeParams(A=A, B=B, m=m, disc=disc, k_minus=k_minus, k_plus=k_plus)


def params_from_dimension(m: float) -> OdeParams:
    """Coefficients for source dimension m > 2."""
    if m <= 2.0:
        raise DomainError(f"dimension must exceed 2, got {m}")
    A = (8.0 - m) / (m - 2.0)
    B = 2.0 * (m - 4.0) / (m - 2.0) ** 2
    return _make_params(A, B, m)


def params_from_coeffs(A: float, B: float) -> OdeParams:
    """Coefficients given directly; no dimension attached."""
    return _make_params(float(A), float(B), None)


def rhs(p: OdeParams, s: State) -> tuple[float, float]:
    """Right-hand side of the first-order system: (u', u'').

    ``s`` is a State or anything with ``.u`` and ``.v``, such as a
    trajectory's record array, which gives the columns.
    """
    return s.v, p.A * s.u * s.v + p.B * s.u**3
