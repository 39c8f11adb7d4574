"""Exact blow-up rule, times and states for disc = A^2 + 8B >= 0, and periods for disc < 0.

The scaling invariant p = u'/u^2 reduces u'' = A u u' + B u^3 to a flow in
one variable: with z = 1/u and Q(p) = 2p^2 - A p - B = 2(p - r1)(p - r2),

    dp/dt = -u Q(p),    d ln|z| / dp = p / Q(p),    dt = -z dp / Q(p).

The roots r = -k of Q are the invariant parabolas g_k = u' + k u^2 =
u^2 (p - r) = 0.  For disc > 0, r1 = -k_plus < r2 = -k_minus, D = r2 - r1 =
sqrt(disc)/2 and |z| = K |p - r1|^a1 |p - r2|^a2 with a1 = k_plus/(2D),
a2 = -k_minus/(2D), a1 + a2 = 1/2, and K = |g_kplus|^-a1 |g_kminus|^-a2 a
first integral.  p is monotone while u keeps its sign, and u crosses 0
where p passes through infinity, at most once; so each time direction ends
at one root, the end root, and it blows up (in finite time) iff the end
root's exponent is positive.  Backward is forward under A -> -A, u' -> -u',
and u -> -u with A -> -A maps a start onto (-u, -u') with the same times;
both negate and swap the roots.  So every start is taken to a forward
frame in which it ends at r2: from above r2 (first crossing u = 0 where
u < 0) or from between the roots with u > 0, and it blows up iff a2 > 0.
A start whose u^2 would overflow is scaled first: 2^-e u(2^-e t) is a
solution where u(t) is.

Each leg of p takes (K/(2 sqrt D)) int t^(a2-1) (1-t)^(b-1) dt, an
incomplete beta integral (DLMF 8.17): above r2 x = (p - r2)/(p - r1) with
b = 1/2, between the roots x = (r2 - p)/D with b = a1, and the crossing
leg the same integrand in 1 - x.  Every x and 1 - x is formed from the
g_k, never from a rounded p - r, and kept in logs.  One series sums
every beta leg time, escape_time's and state_at's alike: the binomial
series in x below 1/2 and in 1 - x above, with ln(K/(2 sqrt D)) taken
into each term (``log_series``, ``log_beta``), so a time stays finite
however far x, 1 - x or K lie past the float range.  state_at finds
the point of a leg at time t in ln(x/(1 - x)), from a closed-form guess
by safeguarded Halley steps on short pieces of the leg, which double
their way out to a bracket where the guess fails (``inversion``), so
states keep their digits at both ends of a leg
(u0 = 0, or a start near a parabola, and x or 1 - x past the float
range), and u' = u^2 p takes p from the nearest of r2, r1 and the
start's p0.  Where an exponent exceeds _ALPHA_MAX (disc -> 0+, where
a = +-k/sqrt(disc) grows without bound and the beta series cancel) and at
disc = 0, the legs are instead integrals in w = ln((p - r1)/(p - r2))/D
(1/(p - r) at disc = 0), whose integrand is smooth and tends to the
double root's as disc -> 0+, taken by adaptive Gauss-Legendre quadrature
(``_NearDouble``), whose u' takes p from r2 or p0 in the same way.
Either way the kind is read from signs alone, and the times agree with
40-digit mpmath within 1e-13 relative at every exponent tested: worst
1.3e-14 for the beta series, 3e-15 for the quadrature
(tests/test_exact.py).  Near disc = 0 the time is ill-conditioned in its
inputs: the large exponents amplify the rounding of the g_k and of the
roots, whose disc OdeParams rounds once (worst 4.1e-13 against mpmath at
disc 1e-12 to 1e-9 and exponents up to 6e5; 2.1e-11 with A A rounded).

For disc < 0, p sweeps the real line once for each sign of u and every
orbit but (0, 0) closes, with the period ``period`` gives; escape_time and
state_at raise DomainError there, as for A = B = 0 (u'' = 0, no root to
end at).  A run can stop early and add the exact remainder from its last
state (Stuart & Floater, Eur. J. Appl. Math. 1 (1990) 47-71).  Stdlib only.
"""
from __future__ import annotations

import copy
import heapq
import math
import sys
from functools import cached_property, lru_cache

from .errors import DomainError
from .model import OdeParams

__all__ = ["escape_time", "state_at", "parabola_pole", "period"]

# the largest |exponent| handled by the beta series; above it (and at
# disc = 0) _NearDouble's quadrature takes over
_ALPHA_MAX = 12.0
_TINY = 2.0**-56  # a series stops once its term is below this share of the sum
_MAX_TERMS = 2000  # a bound on a series' terms: about 60 plus 2 |a| are needed up to _ALPHA_MAX
_LN2 = math.log(2.0)
_NEAR_END = math.log(2.0**-7)  # a leg time between points within 2^-7 of an end is a series in x (or 1 - x)
# ln(2^(5/2) pi^(3/2)), the constant factor of the period
_LN_PERIOD = 2.5 * _LN2 + 1.5 * math.log(math.pi)
# Stirling's series for ln Gamma(z): B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..8 (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def escape_time(p: OdeParams, u0: float, v0: float, d: float) -> float | None:
    """The blow-up time T (of sign d = +-1) from (u0, u'0) at t = 0, inf past floats, or None where direction d is global."""
    if d != 1.0 and d != -1.0:  # true for NaN too
        raise DomainError(f"direction d must be 1 or -1, got {d}")
    if u0 == 0.0 and v0 == 0.0:
        return None
    legs, _, e = _legs(p, u0, v0, d)
    return d * math.ldexp(legs.escape(), -e) if legs.blows else None


def state_at(p: OdeParams, u0: float, v0: float, t: float) -> tuple[float, float]:
    """The exact (u, u') at time t of the solution from (u0, u'0) at t = 0.

    Raises DomainError where t lies at or past the blow-up time.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t == 0.0 or (u0 == 0.0 and v0 == 0.0):
        return u0, v0
    d = 1.0 if t > 0.0 else -1.0
    legs, flip, e = _legs(p, u0, v0, d)
    T = math.ldexp(legs.escape(), -e) if legs.blows else math.inf
    if abs(t) >= T:
        raise DomainError(f"t = {t} lies at or past the blow-up time {d * T}")
    frame_t, u = _ldexp(abs(t), e), None
    if frame_t < math.inf:
        uf, vf = legs.state(frame_t)
        u, v = _ldexp(uf, e), _ldexp(vf, 2 * e)
        if not e or min(abs(uf), abs(vf)) >= sys.float_info.min:
            return flip * u, d * flip * v
    try:  # a scaled start whose frame time or frame state leaves the float range: the state in the start's scale
        u, v = legs.state(abs(t), e)
    except OverflowError:  # u' past floats there: the frame's, scaled back
        if u is None:
            raise
    return flip * u, d * flip * v


def parabola_pole(p: OdeParams, u0: float, v0: float) -> float | None:
    """The pole -1/(kappa u0) where (u0, u'0) lies on an invariant parabola, else None.

    On g_kappa = u' + kappa u^2 = 0 as evaluated (``_on_parabola``),
    u = u0/(1 + kappa u0 t) exactly; a rest point (kappa u0^2 = 0) and a
    pole lost to overflow give None.
    """
    kappa = _on_parabola(p.k_minus, p.k_plus, u0, v0) if p.disc >= 0.0 else None
    if kappa is None or kappa * u0 * u0 == 0.0:
        return None
    pole = -1.0 / (kappa * u0)
    return pole if math.isfinite(pole) else None


def period(p: OdeParams, u0: float, v0: float) -> float:
    """The period of the closed orbit through (u0, u'0) where disc < 0, inf past floats.

    With s = sqrt(-disc), c = A/(2s) and theta = atan((4p - A)/s), |z| =
    K Q(p)^(1/4) e^(c theta) for the first integral ln K = -ln(2u'^2 -
    A u^2 u' - B u^4)/4 - c atan2(4u' - A u^2, s u^2).  So T = 2K int
    Q^(-3/4) e^(c theta) dp over the real line, which 4p - A = s tan theta
    makes a beta function (Gradshteyn & Ryzhik 3.892):

        T = 2K 8^(3/4)/4 s^(-1/2) pi^(3/2) sqrt(2) / |Gamma(3/4 + ic/2)|^2.

    In X = s u^2 and Y = 4u' - A u^2, 2u'^2 - A u^2 u' - B u^4 is
    (X^2 + Y^2)/8.  As disc -> 0-, -2 ln |Gamma| = pi |c|/2 + O(ln |c|)
    cancels against -c atan2(Y, X); the pi |c|/2 is taken out of both, as
    |c| atan2(X, sgn(c) Y) and ``_log_gamma``.  (u0, u'0) is first scaled
    by a power of 2, so that u^2 and 4u' cannot overflow.  Against 40-digit
    mpmath (tests/test_exact.py) T is within 1.5e-14 relative for |c| <= 22
    and 1.5e-14 + 1.1e-15 |ln T| out to disc = -1e-12 (|c| to 1.5e6), the
    exponent's rounding, where the cancelling sum loses eps pi |c|/2.  The
    rest point, disc >= 0 (A = B = 0 included) and non-finite input raise
    DomainError.
    """
    if not -math.inf < p.disc < 0.0:
        raise DomainError(f"exact periods need a finite disc = A^2 + 8B < 0, got disc = {p.disc}")
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise DomainError(f"non-finite state ({u0}, {v0})")
    if u0 == 0.0 and v0 == 0.0:
        raise DomainError("the rest point (0, 0) has no period")
    s = math.sqrt(-p.disc)
    c = p.A / (2.0 * s)  # finite: |c| <= 2^52, as a nonzero disc is at least A^2 2^-106 in size
    u, v, e = _scaled(u0, v0)  # rho scales by 4^e
    x, y = s * u * u, math.copysign(1.0, c) * (4.0 * v - p.A * u * u)
    log_t = (_LN_PERIOD - 0.5 * (math.log(s) + math.log(math.hypot(x, y))) - e * _LN2
             + abs(c) * math.atan2(x, y) - 2.0 * _log_gamma(0.5 * abs(c)))
    try:
        return math.exp(log_t)
    except OverflowError:
        return math.inf


def _scaled(u: float, v: float) -> tuple[float, float, int]:
    """(u 2^-e, u' 4^-e, e) with max(|u|, sqrt|u'|) in [1/2, 1); 2^-e u(2^-e t) is a solution where u(t) is."""
    e = math.frexp(max(abs(u), math.sqrt(abs(v))))[1]
    return math.ldexp(u, -e), math.ldexp(v, -2 * e), e


def _ldexp(x: float, e: int) -> float:
    """x 2^e, +-inf past floats."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _log_gamma(y: float) -> float:
    """ln |Gamma(3/4 + iy)| + pi y/2 for y >= 0.

    Gamma(z + 1) = z Gamma(z) up to |z| >= 8, then Stirling's series, whose
    pi y/2 - y arg z is formed as y atan2(x, y).
    """
    z, prod = complex(0.75, y), 1.0
    while abs(z) < 8.0:
        prod *= z
        z += 1.0
    w = 1.0 / z
    w2, series = w * w, 0.0
    for coef in reversed(_STIRLING):
        series = series * w2 + coef
    x = z.real
    return ((x - 0.5) * math.log(abs(z)) + y * math.atan2(x, y) - x + 0.5 * math.log(2.0 * math.pi)
            + (series * w).real - math.log(abs(prod)))


# ---------------------------------------------------------------------------
# leg integrals


def log_series(a: float, b: float, llo: float, lhi: float, log_c: float) -> float:
    """e^log_c int_lo^hi t^(a-1) (1-t)^(b-1) dt for 0 <= lo <= hi <= 1/2, from llo = ln lo (-inf at lo = 0) and lhi = ln hi.

    The binomial series (1-t)^(b-1) = sum c_n t^n, c_n = (1-b)_n/n!,
    integrated term by term: hi^s (1 - (lo/hi)^s)/s with s = n + a, formed
    as -expm1(s L)/s, L = ln(lo/hi), so that a = 0 or a negative integer
    (s = 0, the term is -L) and a tiny s lose nothing; at lo = 0 (a > 0) it
    is hi^s/s.  The terms shrink by about hi per step once n passes -a and
    -b.  e^log_c is taken into each term's power of hi, so that a leg time
    stays finite wherever the time is, however far x, 1 - x or the
    integral alone lie past the float range; a term with s < 0 is formed
    from lo^s, the larger power.  An overflow raises OverflowError.  From
    lo below _NEAR_END to hi = 1/2 the integral is cut there: its upper
    part depends on a and b alone (``_upper_half``), and the lower
    converges as 2^-7n.
    """
    if llo == lhi:
        return 0.0
    if lhi == -_LN2 and llo < _NEAR_END:
        try:
            return math.exp(log_c) * _upper_half(a, b) + log_series(a, b, llo, _NEAR_END, log_c)
        except OverflowError:
            pass
    L, hi = llo - lhi, math.exp(lhi)
    total, c, n = 0.0, 1.0, 0
    while n + a < 0.0 and c != 0.0:  # s < 0 < lo: hi^s (1 - (lo/hi)^s) = lo^s ((hi/lo)^s - 1)
        s = n + a
        total += c * math.exp(log_c + s * llo) * math.expm1(-s * L) / s
        c *= (n + 1 - b) / (n + 1)
        n += 1
    if c == 0.0:
        return total
    past, s = max(-a, -b, 0.0), n + a
    ch = c * math.exp(log_c + s * lhi)  # c_n hi^s
    for n in range(n, _MAX_TERMS):
        if s * L < -40.0:  # (lo/hi)^s is below rounding, and at lo = 0 exactly 0
            term = ch / s
        else:
            term = ch * (-L if s == 0.0 else -math.expm1(s * L) / s)
        total += term
        if n >= past and abs(term) <= _TINY * abs(total):  # also once c_n is 0
            break
        ch *= hi * (n + 1 - b) / (n + 1)
        s += 1.0
    return total


@lru_cache(maxsize=256)
def _upper_half(a: float, b: float) -> float:
    """int_(2^-7)^(1/2) t^(a-1) (1-t)^(b-1) dt, shared by every leg time from below 2^-7 to 1/2 at these exponents."""
    return log_series(a, b, _NEAR_END, -_LN2, 0.0)


def log_beta(a: float, b: float, lx0: float, lx0c: float, lx1: float, lx1c: float, log_c: float) -> float:
    """e^log_c int_x0^x1 t^(a-1) (1-t)^(b-1) dt for 0 <= x0 <= x1 <= 1, from the logs of x0, 1 - x0, x1 and 1 - x1.

    The part below 1/2 is summed in t, the part above in s = 1 - t, each
    by ``log_series``, so each series converges at least as 2^-n.  x0 = 0
    needs a > 0, and x1 = 1 needs b > 0.  An overflow raises OverflowError.
    """
    total = 0.0
    if lx0 < -_LN2:
        total += log_series(a, b, lx0, min(lx1, -_LN2), log_c)
    if lx1 > -_LN2:
        total += log_series(b, a, lx1c, min(lx0c, -_LN2), log_c)
    return total


def _leg_time(a: float, b: float, lx0: float, lx0c: float, log_c: float) -> float:
    """The time e^log_c int_0^x0 t^(a-1) (1-t)^(b-1) dt of a leg to its end, inf past floats."""
    try:
        return log_beta(a, b, -math.inf, 0.0, lx0, lx0c, log_c)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# the legs of one direction, in its forward frame
#
# A direction is a crossing leg (to p = +inf, where u crosses 0 from below;
# only above r2 with u < 0) and a final leg to r2, or the final leg alone.
# Each class below takes (u, u') in the frame, decides ``blows`` and
# ``crosses`` by signs alone, and gives ``escape()``, the blow-up time, and
# ``state(t)``, the (u, u') at time t >= 0 before it.


def _legs(p: OdeParams, u: float, v: float, d: float):
    """The legs of direction d from (u, v), (u, v) not both 0, with the sign flip and binary scale e of their frame.

    The frame runs forward, and ends at r2: backward is forward under
    A -> -A, u' -> -u', and a start that ends at r1 (below r1, or between
    the roots with u < 0) is mirrored to (-u, -u') under A -> -A, which
    keeps every time.  Both maps negate and swap the roots.  Where the
    g_k or D u^2 would overflow, (u, u') is scaled to (u 2^-e, u' 4^-e)
    (``_scaled``): the frame's times are then 2^e times the start's, and
    its states (2^-e, 4^-e) times.
    """
    if not p.disc >= 0.0 or not (math.isfinite(p.k_minus) and math.isfinite(p.k_plus)):
        raise DomainError(f"exact times need disc = A^2 + 8B >= 0 and finite roots, got disc = {p.disc}")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"non-finite state ({u}, {v})")
    km, kp, flip, e = p.k_minus, p.k_plus, 1.0, 0
    if d < 0.0:
        km, kp, v = -kp, -km, -v
    if not math.isfinite(abs(v) + 2.0 * max(abs(km), abs(kp)) * u * u):  # bounds |g_k| and D u^2
        u, v, e = _scaled(u, v)
    if v + kp * u * u < 0.0 or (u < 0.0 and v + km * u * u < 0.0):  # below r1, or between with u < 0
        km, kp, u, v, flip = -kp, -km, -u, -v, -1.0
    kappa = _on_parabola(km, kp, u, v)
    if kappa is not None:
        return _Parabola(kappa, u), flip, e
    if km == kp or max(abs(km), abs(kp)) > 2.0 * _ALPHA_MAX * (kp - km):
        return _NearDouble(km, kp, u, v), flip, e
    return _TwoRoots(km, kp, u, v), flip, e


def _on_parabola(km: float, kp: float, u: float, v: float) -> float | None:
    """The first root kappa of (km, kp) with u != 0 and v + kappa u^2 == 0 in floats, else None."""
    for kappa in (km, kp):
        if u != 0.0 and v + kappa * u * u == 0.0:
            return kappa
    return None


class _Parabola:
    """g_kappa = 0 as evaluated: u = u0/(1 + kappa u0 t) exactly; kappa = 0 (at B = 0) is a rest point."""

    def __init__(self, kappa: float, u: float):
        self.kappa, self.u = kappa, u
        self.blows = kappa * u < 0.0

    def escape(self) -> float:
        return -1.0 / (self.kappa * self.u)

    def state(self, t: float, shift: int = 0) -> tuple[float, float]:
        """(u, u') at time t, in the frame's scale, or at shift > 0 at time t 2^shift in the scale 2^shift larger."""
        u0 = _ldexp(self.u, shift)
        u = u0 / (1.0 + self.kappa * u0 * t)
        return u, -self.kappa * u * u


class _TwoRoots:
    """disc > 0: incomplete beta legs in x, with x -> 0 at r2."""

    def __init__(self, km: float, kp: float, u: float, v: float):
        D = kp - km
        a1, a2 = kp / (2.0 * D), -km / (2.0 * D)
        g1, g2 = v + kp * u * u, v + km * u * u
        self.D, self.a1, self.a2, self.r1, self.r2 = D, a1, a2, -kp, -km
        self.u, self.v, self.g1, self.g2 = u, v, g1, g2
        self.log_k = -a1 * math.log(g1) - a2 * math.log(abs(g2))  # ln K
        self.log_c = self.log_k - math.log(2.0) - 0.5 * math.log(D)  # ln (K / (2 sqrt D))
        self.above = g2 > 0.0
        # the leg integrand is x^(a2 - 1) (1 - x)^(b - 1): above r2 x = (p - r2)/(p - r1),
        # and u = 0 with u' > 0 starts at x = 1; between, with u > 0, x = (r2 - p)/D
        self.b = 0.5 if self.above else a1
        self.crosses = self.above and u < 0.0
        self.blows = a2 > 0.0  # r2's exponent

    @cached_property
    def cross(self) -> float:
        """The time to the crossing: 1 - x falls from its start to 0, with the exponents swapped."""
        lx0, lx0c = self.logs
        return _leg_time(self.b, self.a2, lx0c, lx0, self.log_c) if self.crosses else 0.0

    @cached_property
    def final(self) -> float:
        """The time along the final leg, from the start (x = 1 past a crossing) to r2."""
        lx0, lx0c = (0.0, -math.inf) if self.crosses else self.logs
        return _leg_time(self.a2, self.b, lx0, lx0c, self.log_c)

    def escape(self) -> float:
        return self.cross + self.final

    @cached_property
    def logs(self) -> tuple[float, float]:
        """(ln x, ln(1 - x)) at the start, with D u^2 in logs, which keeps a start near u = 0 off x = 1."""
        g1, g2, u = self.g1, self.g2, self.u
        ldu2 = math.log(self.D) + 2.0 * math.log(abs(u)) if u != 0.0 else -math.inf
        if self.above:
            return math.log(g2) - math.log(g1), ldu2 - math.log(g1)
        return math.log(-g2) - ldu2, math.log(g1) - ldu2

    def state(self, t: float, shift: int = 0) -> tuple[float, float]:
        """(u, u') at time t; at shift > 0 (the frame's float range left) at time t 2^shift, in the scale 2^shift larger."""
        from .inversion import Leg, newton  # compiled on the first state_at only

        a, b, log_c, (lx0, lx0c) = self.a2, self.b, self.log_c - shift * _LN2, self.logs
        cross = _ldexp(self.cross, -shift)  # escape's, so that t < T holds in both
        if self.crosses and t < cross:  # on the crossing leg, in y = 1 - x, which falls to 0 at u = 0
            ly, lyc, dly, dlyc = newton(Leg(b, a, log_c, lx0c, lx0, cross), t)
            return self._state(lyc, ly, -1.0, dlyc, dly, shift)
        # escape's time less cross: t - cross shares its rounding, so the time left is T - t as escape reads T
        total = _ldexp(self.escape(), -shift) - cross if self.blows else None
        if self.crosses:  # the final leg starts at x = 1, u = 0
            lx, lxc, _, _ = newton(Leg(a, b, log_c, 0.0, -math.inf, total), t - cross)
            return self._state(lx, lxc, 1.0, None, None, shift)
        lx, lxc, dlx, dlxc = newton(Leg(a, b, log_c, lx0, lx0c, total), t)
        return self._state(lx, lxc, 1.0, dlx, dlxc, shift)

    def _state(self, lx: float, lxc: float, sign: float, dlx: float | None = None, dlxc: float | None = None,
               shift: int = 0) -> tuple[float, float]:
        """(u, u') at the point x = e^lx (1 - x = e^lxc) of a leg, where u has the given sign.

        With d1 = p - r1 and d2 = |p - r2|, |u| = K^-1 d1^-a1 d2^-a2, and
        u^2 d2 = K^-2 (d2/d1)^(2 a1) and u^2 d1 = K^-2 (d2/d1)^(-2 a2), as
        a1 + a2 = 1/2; all are formed in logs, so u = 0 (x = 1 above r2)
        and 1 - x below the float range need no case of their own.  On the
        start's leg, where dlx and dlxc (the changes of ln x and ln(1 - x)
        from the start) are given, u is the start's u times its change
        where that has the smaller logarithms, and so the smaller rounding.
        u' = u^2 p takes p from whichever of r2, r1 and the start's p0 it
        lies nearest, so that p keeps its digits where it is small against
        the roots.  At shift > 0 the state comes in the scale 2^shift larger
        than the frame's, in which K is 2^-shift times.
        """
        D, a1, a2, lk = self.D, self.a1, self.a2, self.log_k - shift * _LN2
        if self.above:  # d1 = D/(1 - x) and d2/d1 = x
            ld1, lr = math.log(D) - lxc, lx
        else:  # d1 = D (1 - x) and d2/d1 = x/(1 - x)
            ld1, lr = math.log(D) + lxc, lx - lxc
        u = sign * math.exp(-lk - 0.5 * ld1 - a2 * lr)
        near = (abs(self.r2) + math.exp(min(ld1 + lr, 709.0)), abs(self.r1) + math.exp(min(ld1, 709.0)))
        if dlx is not None and shift == 0 and self.u * self.u > 0.0:
            w1, w2 = (0.5, -a2) if self.above else (-a1, -a2)  # ln |u| moves by -a1 (d ln d1) - a2 (d ln d2)
            if abs(w1 * dlxc) + abs(w2 * dlx) < abs(lk) + abs(0.5 * ld1) + abs(a2 * lr):
                u = self.u * math.exp(w1 * dlxc + w2 * dlx)
            rise = math.expm1(dlx - dlxc if self.above else dlx)  # p - p0 = +-(d2 - d2(0)), u0^2 d2(0) = +-g2
            if abs(self.v) + abs(self.g2 * rise) < min(near) * self.u * self.u:
                rho = u / self.u
                return u, rho * rho * (self.v + self.g2 * rise)
        if near[0] <= near[1]:
            u2d2 = math.exp(2.0 * (a1 * lr - lk))
            return u, u * u * self.r2 + (u2d2 if self.above else -u2d2)
        return u, u * u * self.r1 + math.exp(-2.0 * (a2 * lr + lk))


class _NearDouble:
    """disc = 0, or an exponent past _ALPHA_MAX: the legs in w by Gauss-Legendre quadrature.

    With c = (r1 + r2)/2 and delta = D/2, w = ln((p - r1)/(p - r2))/D
    (1/(p - r) at D = 0) moves as dw/dt = 2u, and

        |z| = |z0| e^(-c (w - w0)/2) sqrt(R(w0)/R(w)),    dt = |z| |dw|/2,

    with R = sinh(delta w)/delta (w at D = 0) above r2 and R = cosh(delta w)
    between.  As disc -> 0+ the integrand tends to the double root's, so no
    series cancels however large the exponents grow.  Above r2, w = s^2
    falls to 0 (p = +inf, u = 0) on the crossing leg and then rises again,
    and the time is int F ds with
    F = |z| s = e^(ln P0 - c (s^2 - s0^2)/2) (delta s^2/sinh(delta s^2))^1/2,
    smooth through s = 0 and taken in e = s - s0; between, w rises from w0
    by omega >= 0 towards r2.  Every time is an integral from the start
    (``_integral``).
    """

    def __init__(self, km: float, kp: float, u: float, v: float):
        if km == kp == 0.0:
            raise DomainError("A = B = 0 has no root to end at")
        D = kp - km
        g1, g2, Du2 = v + kp * u * u, v + km * u * u, D * u * u
        self.D, self.delta, self.lam = D, 0.5 * D, -0.25 * (km + kp)  # lam = c/2
        self.r1, self.r2 = -kp, -km
        self.between = g2 < 0.0
        self.blows = km < 0.0  # r2's exponent
        if self.between:
            self.w0, self.log_z0, self.crosses = (math.log(g1) - math.log(-g2)) / D, -math.log(u), False
            return
        y = Du2 / g2  # 1 + y = g1/g2 = (p - r1)/(p - r2)
        if y == 0.0:
            q0 = 1.0 / g2
        else:
            q0 = math.log1p(y) / (y * g2) if y <= 0.5 else (math.log(g1) - math.log(g2)) / Du2
        self.s0 = math.sqrt(q0) * abs(u)  # w0 = q0 u^2 and s0 = sqrt(w0), both 0 at u = 0
        self.log_p0 = 0.5 * math.log(q0) + 0.5 * _log_shc(self.delta * self.s0 * self.s0)  # ln(|z0| sqrt R(w0))
        self.start = (u, v, g1) if self.s0 > 0.0 else None  # u0, v0 and u0^2 (p0 - r1), for u' near p0
        self.crosses = u < 0.0

    def _log_f(self, e: float) -> float:
        """ln F at s = s0 + e above r2; e, not s, carries the precision near the start."""
        s = self.s0 + e
        if s * s == math.inf:  # ln F is -(lam + delta/2) s^2 to leading order, and |lam| > delta/2
            return -math.copysign(math.inf, self.lam)
        return self.log_p0 - self.lam * e * (e + 2.0 * self.s0) - 0.5 * _log_shc(self.delta * s * s)

    def _log_g(self, omega: float) -> float:
        """ln(|z|/2) between, omega past w0 towards r2."""
        return (self.log_z0 - _LN2 - self.lam * omega
                + 0.5 * (_log_cosh(self.delta * self.w0) - _log_cosh(self.delta * (self.w0 + omega))))

    def _span(self, a: float, b: float) -> float:
        """int_a^b of F in e (above r2) or of |z|/2 in omega (between), cut where the integrand is below e^-50 of its peak.

        Its exponent is monotone, falling along the leg at rate at least
        lam in s^2 (in omega, less delta/2) where it blows up and rising at
        least as fast where it is global, so the peak is at one end and the
        cut follows from lam; the quadrature then spans about 50 e-folds
        however far the ends lie apart.  The cut in s, c/(s + sqrt(s^2 +- c)),
        does not cancel at a large s; where it leaves no float between the
        ends, the peak lies 2^52 e-folds or more from the start, and a time
        that falls from it is below the float range, one that rises to it past.
        """
        if not a < b:
            return 0.0
        lam = self.lam
        rate = abs(lam) - 0.5 * self.delta
        if self.between:
            a, b = (a, min(b, a + 50.0 / rate)) if lam > 0.0 else (max(a, b - 50.0 / rate), b)
        elif lam > 0.0:
            s, c = self.s0 + a, 50.0 / lam
            b = min(b, a + c / (s + math.sqrt(s * s + c)))
        else:
            s, c = self.s0 + b, 50.0 / rate
            a = max(a, b - c / (s + math.sqrt(max(0.0, s * s - c))))
        if a < b:
            log_f = self._log_g if self.between else self._log_f
            return _integral(lambda x: math.exp(log_f(x)), a, b)
        return 0.0 if lam > 0.0 else math.inf

    @cached_property
    def cross(self) -> float:
        return self._span(-self.s0, 0.0) if self.crosses else 0.0

    def _time(self, x: float) -> float:
        """The time from the start to e = x on the final leg (above r2) or to omega = x (between)."""
        if self.between:
            return self._span(0.0, x)
        return self.cross + self._span(-self.s0 if self.crosses else 0.0, x)

    @cached_property
    def end(self) -> float:
        """The time from the start to the end of the direction, which ``state`` takes the time left from."""
        return self._time(math.inf)

    def escape(self) -> float:
        return self.end

    def state(self, t: float, shift: int = 0) -> tuple[float, float]:
        """(u, u') at time t; at shift > 0 at time t 2^shift, in the scale 2^shift larger."""
        if shift:  # the same legs with |z| in that scale, 2^-shift times the frame's: so are their times and states
            twin = copy.copy(self)
            twin.__dict__.pop("cross", None)
            twin.__dict__.pop("end", None)
            if self.between:
                twin.log_z0 -= shift * _LN2
            else:
                twin.log_p0 -= shift * _LN2
                twin.start = None  # u' from p0 in the frame's scale only, as on the beta legs
            return twin.state(t)
        if self.between:
            return self._state_between(self._rise(t))
        if not self.crosses:
            return self._state_outside(self._rise(t), 1.0)
        if t < self.cross:
            return self._state_outside(self._fall(t), -1.0)
        # past the crossing s rises through the values it fell through: at
        # s <= s0 the time is 2 cross - (the time from s to s0)
        back = 2.0 * self.cross - t
        e = self._fall(back) if back > 0.0 else (self._rise(-back, 2.0 * self.cross) if back < 0.0 else 0.0)
        return self._state_outside(e, 1.0)

    def _rise(self, t: float, before: float = 0.0) -> float:
        """The e > 0 (omega > 0 between) whose span from 0 takes time t, where e = 0 lies ``before`` past the start."""
        from .inversion import WLeg, newton

        return newton(WLeg(self, False, self.end - before if self.blows else None), t)[0]

    def _fall(self, t: float) -> float:
        """The e in [-s0, 0] whose span to 0 takes time t."""
        from .inversion import WLeg, newton

        return newton(WLeg(self, True), t)[0]

    def _dlog_f(self, e: float) -> float:
        """d ln F / de above r2: -s (2 lam + delta (coth y - 1/y)), y = delta s^2."""
        s = self.s0 + e
        y = self.delta * s * s
        return -s * (2.0 * self.lam + self.delta * (y / 3.0 if y < 1e-4 else 1.0 / math.tanh(y) - 1.0 / y))

    def _dlog_g(self, omega: float) -> float:
        """d ln(|z|/2) / d omega between the roots."""
        return -self.lam - 0.5 * self.delta * math.tanh(self.delta * (self.w0 + omega))

    def _state_outside(self, e: float, sign: float) -> tuple[float, float]:
        """(u, u') at s = s0 + e above r2, u of the given sign: |u| = s/F and u' = u^2 r2 + 1/(F^2 E(D s^2)), E(x) = expm1(x)/x.

        (p - r2)/u^2 is formed from s, never from p: p - r2 = 1/(w E(D w)).
        As on the beta legs, u is |u0| rho, rho = (s/s0) F(0)/F(s) from the
        change of ln F, where that has the smaller logarithms; and where p
        lies nearer the start's p0 than r2, u' = rho^2 (v0 + u0^2 (p - p0)),
        which keeps the digits of a p small against r2.  No term forms u0^2,
        which may underflow: with g1 = u0^2 (p0 - r1) and w - w0 =
        e (e + 2 s0), u0^2 (p - p0) = -g1 (w - w0) E(D (w - w0))/(w E(D w)).
        """
        s, log_f = self.s0 + e, self._log_f(e)
        ls = math.log(s) if s > 0.0 else -math.inf
        u = sign * math.exp(ls - log_f)
        x = self.D * s * s
        log_e = 0.0 if x == 0.0 else (x - math.log(x) if x > 700.0 else math.log(math.expm1(x) / x))
        if self.start is not None and s > 0.0:
            u0, v0, g1 = self.start
            dw = e * (e + 2.0 * self.s0)
            l_rho = (math.log(s / self.s0) + self.lam * dw
                     + 0.5 * (_log_shc(self.delta * s * s) - _log_shc(self.delta * self.s0 * self.s0)))
            if abs(l_rho) < abs(ls) + abs(log_f):
                u = sign * abs(u0) * math.exp(l_rho)
            y = self.D * dw
            if y < 700.0:
                log_ey = 0.0 if y == 0.0 else math.log(math.expm1(y) / y)
                dp = -g1 * (e / s) * ((e + 2.0 * self.s0) / s) * math.exp(log_ey - log_e)  # u0^2 (p - p0)
                # |p0| + |p - p0| against |r2| + (p - r2), both in units of u0^2
                if abs(v0) + abs(dp) < abs(u0 * u0 * self.r2) + math.exp(2.0 * (math.log(abs(u0)) - ls) - log_e):
                    return u, math.exp(2.0 * l_rho) * (v0 + dp)
        return u, u * u * self.r2 + math.exp(-2.0 * log_f - log_e)  # u^2 r2 + u^2 (p - r2)

    def _state_between(self, omega: float) -> tuple[float, float]:
        """(u, u') at omega: u = 1/|z|, and p from the nearer root, p - r1 = D/(1 + e^(-D w)), r2 - p = D/(1 + e^(D w))."""
        w = self.w0 + omega
        u = 0.5 * math.exp(-self._log_g(omega))
        near = self.D * math.exp(-self.D * abs(w)) / (1.0 + math.exp(-self.D * abs(w)))  # the distance to the nearer root
        return u, u * u * (self.r2 - near if w > 0.0 else self.r1 + near)


def _log_shc(x: float) -> float:
    """ln(sinh(x)/x) for x >= 0."""
    if x == 0.0:
        return 0.0
    if x > 20.0:
        return x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x) / x)


def _log_cosh(x: float) -> float:
    x = abs(x)
    return x - _LN2 + math.log1p(math.exp(-2.0 * x))


def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], by Newton on P_n from Tricomi's first guesses."""
    rule = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        rule += [(x, 2.0 / ((1.0 - x * x) * dp * dp)), (-x, 2.0 / ((1.0 - x * x) * dp * dp))]
    return rule


_GAUSS20 = _gauss_legendre(20)


def _integral(f, a: float, b: float) -> float:
    """int_a^b f for a smooth f >= 0: 20-point Gauss-Legendre panels, globally adaptive.

    A panel's error is taken as the change from it to its two halves, or 0
    once that is within 1e-14 of them (rounding); the panel of largest
    error is halved until the errors sum to 1e-14 of the integral
    (QUADPACK's QAG strategy, Piessens et al. 1983), so an f that spans
    hundreds of e-folds spends no panels where it is negligible.
    """
    def panel(a: float, b: float) -> float:
        m, h = 0.5 * (a + b), 0.5 * (b - a)
        return h * sum(w * f(m + h * x) for x, w in _GAUSS20)

    def halved(a: float, b: float, whole: float):
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        err = abs(left + right - whole)
        return (0.0 if err <= 1e-14 * (left + right) else -err, a, b, left, right)

    try:
        heap = [halved(a, b, panel(a, b))]
        for _ in range(500):
            if -sum(h[0] for h in heap) <= 1e-14 * sum(h[3] + h[4] for h in heap):
                break
            _, a, b, left, right = heapq.heappop(heap)
            m = 0.5 * (a + b)
            heapq.heappush(heap, halved(a, m, left))
            heapq.heappush(heap, halved(m, b, right))
    except OverflowError:  # a time past floats
        return math.inf
    return math.fsum(h[3] + h[4] for h in heap)
