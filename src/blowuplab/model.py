"""The ODE family u'' = A u u' + B u^3 and its coefficient algebra.

Coefficients may be given directly or derived from a real dimension
parameter m > 2, in which case A = (8-m)/(m-2) and B = 2(m-4)/(m-2)^2.
The characteristic roots k of 2k^2 + A k - B = 0 organize the phase
portrait (the parabolas u' = -k u^2 are invariant manifolds).
"""
from __future__ import annotations

import math

from .errors import DomainError, NonFiniteError

__all__ = ["OdeParams", "State", "params_from_dimension", "params_from_coeffs", "is_characteristic_root", "rhs"]

_set = object.__setattr__  # how a record's constructor writes its fields


def _restore(cls, values):
    """The record of type ``cls`` with these field values, its constructor bypassed, as unpickling restores it."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(self, name, value)
    return self


class _Record:
    """Base of the record types: fields in ``__slots__``, immutable and hashable.

    It behaves as a frozen dataclass without loading ``dataclasses``:
    field-wise ``==`` between records of one type, the same ``hash`` and
    ``repr`` text, and ``AttributeError`` on assignment or deletion.
    ``_asdict`` gives the fields in order.  A subclass sets its fields with
    ``_set``; a mutable one puts back ``object``'s ``__setattr__`` and
    ``__delattr__`` and sets ``__hash__`` to None.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a slotted object's default state is restored through __setattr__
        return _restore, (type(self), self._astuple())


class OdeParams(_Record):
    """Coefficients of u'' = A u u' + B u^3 with derived quantities.

    ``disc`` is A^2 + 8B, the discriminant of 2k^2 + A k - B = 0.
    ``k_minus <= k_plus`` are the real roots, present iff disc >= 0.
    ``m`` is the source dimension when the parameters came from one.
    The derived fields are computed, never passed.
    """

    __slots__ = ("A", "B", "m", "disc", "k_minus", "k_plus")

    def __init__(self, A: float, B: float, m: float | None = None):
        if not (math.isfinite(A) and math.isfinite(B)):
            raise DomainError(f"coefficients must be finite, got A={A}, B={B}")
        # A A's rounding error (Veltkamp's split at 2^27 + 1, Dekker's product; math.fma needs
        # Python 3.13) makes disc round once where A A + 8B cancels; NaN or inf where A A overflows
        c = 134217729.0 * A
        hi = c - (c - A)
        lo = A - hi
        err = ((hi * hi - A * A) + 2.0 * hi * lo) + lo * lo
        disc = A * A + 8.0 * B + (err if math.isfinite(err) else 0.0)
        k_minus = k_plus = None
        if disc >= 0.0:
            # roots of 2k^2 + A k - B = 0, the smaller-magnitude one refined through k1*k2 = -B/2;
            # at B = 0 they are -A/2 and 0 even where A^2 or A + A under- or overflows, and at
            # A = +-0 they are -sq/4 and sq/4, -+sqrt(B/2) correctly rounded, so k_minus == -k_plus
            sq = math.sqrt(disc) if B != 0.0 else abs(A)
            k1 = -A / 4.0 - sq / 4.0
            k2 = -A / 4.0 + sq / 4.0
            if A != 0.0 and B != 0.0:
                if abs(k1) >= abs(k2):
                    k2 = (-B / 2.0) / k1
                else:
                    k1 = (-B / 2.0) / k2
            k_minus, k_plus = min(k1, k2), max(k1, k2)
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "m", m)
        _set(self, "disc", disc)
        _set(self, "k_minus", k_minus)
        _set(self, "k_plus", k_plus)


class State(_Record):
    """A point (t, u, u') in extended phase space.  All fields finite."""

    __slots__ = ("t", "u", "v")

    def __init__(self, t: float, u: float, v: float):
        if not (math.isfinite(t) and math.isfinite(u) and math.isfinite(v)):
            raise NonFiniteError(f"non-finite state ({t}, {u}, {v})")
        _set(self, "t", t)
        _set(self, "u", u)
        _set(self, "v", v)


def params_from_dimension(m: float) -> OdeParams:
    """Coefficients for a finite source dimension m > 2."""
    if not 2.0 < m < math.inf:  # false for NaN too
        raise DomainError(f"dimension must be finite and exceed 2, got {m}")
    # (m - 2)(m - 2) is inf past 1.3e154, where B is 0.0 (** would raise
    # OverflowError); doubling after the division is exact and keeps
    # 2 (m - 4) from overflowing to inf / inf = NaN past 9e307
    A = (8.0 - m) / (m - 2.0)
    B = 2.0 * ((m - 4.0) / ((m - 2.0) * (m - 2.0)))
    return OdeParams(A, B, m)


def params_from_coeffs(A: float, B: float) -> OdeParams:
    """Coefficients given directly; no dimension attached."""
    return OdeParams(float(A), float(B))


def is_characteristic_root(p: OdeParams, k: complex) -> bool:
    """Whether k, real or complex, solves 2k^2 + A k - B = 0 to 1e-10 relative to max(1, |B|, 2|k^2|)."""
    return abs(2.0 * k * k + p.A * k - p.B) <= 1e-10 * max(1.0, abs(p.B), 2.0 * abs(k * k))


def rhs(p: OdeParams, s: State) -> tuple[float, float]:
    """Right-hand side of the first-order system: (u', u'').

    ``s`` is a State or anything with ``.u`` and ``.v``, such as a
    trajectory's record array, which gives the columns.
    """
    return s.v, p.A * s.u * s.v + p.B * s.u**3
