"""The point of an exact leg at a given time: the inversion behind ``exact.state_at``.

``exact`` times each leg of p = u'/u^2 as an incomplete beta integral
(``_TwoRoots``), by the one series in logs that escape_time sums too
(``exact.log_beta``), or as a quadrature in w (``_NearDouble``); state_at
needs the converse, the point of a leg at time t.  It is found in
L = ln(x/(1 - x)), which holds x and 1 - x alike to rounding, carried as
ln x and ln(1 - x) so that either may lie past the float range, and as
the change from the start where the point lies near it (``Leg``).

``newton`` starts from a closed-form guess (``Leg.aim``): the start's
exponential law in L near t = 0, the power law of the end the point lies
towards, or past half of a blow-up the time left to it, solved for in
place of the time from the start.  Its safeguarded Halley steps take each
iterate's time as an anchor's plus the short piece between them, a series
in the relative step (``beta_piece``), so that one to three full leg
times (``log_beta``) serve a call, where a doubling bracket search took
10 to 39.  Where the guess fails, the same loop doubles its way out from
the start of the leg until it brackets the point.  ``WLeg`` does the same
for the quadrature legs, with the exponential law in e or omega and one
10-point panel for a short piece.

exact imports this module on the first state_at, so a process that only
times escapes (integrate, classify) never compiles it.
"""
from __future__ import annotations

import math
import struct

from .exact import _LN2, _MAX_TERMS, _NEAR_END, _TINY, _NearDouble, _gauss_legendre, log_beta, log_series

_STEPS = 128  # a bound on newton's steps: 64 doublings reach past 2^64, and 64 halvings close any bracket
_GAUSS10 = _gauss_legendre(10)
_SIGN = 1 << 63  # a float's sign bit


def beta_piece(a: float, b: float, lxa: float, lxca: float, dlx: float, dlxc: float, log_c: float) -> float | None:
    """e^log_c int_xa^x t^(a-1) (1-t)^(b-1) dt for x near xa, or None where x lies too far for the series.

    xa is given by ln xa and ln(1 - xa), and x by the changes dlx and dlxc
    of ln x and ln(1 - x) from them.  With t = xa (1 + e) on the side of
    1/2 where xa lies (in s = 1 - t on the other), the integrand is
    xa^(a-1) (1-xa)^(b-1) g(e), g = (1 + e)^(a-1) (1 - r e)^(b-1) with
    r = xa/(1 - xa) <= 1, and (1 + e)(1 - r e) g' = ((a-1)(1 - r e) -
    (b-1) r (1 + e)) g gives g's Taylor coefficients by a three-term
    recurrence.  The series in e converges for |e| < 1, by about a factor
    |e| a term, so a short step takes a few terms where a full leg time
    takes dozens; it is cut at |e| <= 1/2, and at |e| max(|a-1|, r |b-1|)
    <= 1, where its terms would cancel.  A series rather than a few-point
    Gauss-Legendre rule, because its length follows the step (the last
    steps of a solve take 3 to 6 terms) and its terms need no exp or log,
    where each node of a rule needs two.
    """
    if lxa <= -_LN2:
        e, sign = math.expm1(dlx), 1.0
    else:
        a, b, lxa, lxca, e, sign = b, a, lxca, lxa, math.expm1(dlxc), -1.0
    r = math.exp(lxa - lxca)
    if not abs(e) * max(2.0, abs(a - 1.0), r * abs(b - 1.0)) <= 1.0:
        return None
    al, be, cr = (a - 1.0) - (b - 1.0) * r, -r * (a + b - 2.0), 1.0 - r
    g_prev, g, power, total, small, tiny2 = 0.0, 1.0, e, 0.0, 0, _TINY * _TINY
    for k in range(_MAX_TERMS):
        term = g * power / (k + 1)
        total += term
        small = small + 1 if term * term <= tiny2 * total * total else 0
        if small == 2:
            break
        g_prev, g = g, ((al - cr * k) * g + (be + r * (k - 1)) * g_prev) / (k + 1)
        power *= e
    return sign * math.exp(log_c + a * lxa + (b - 1.0) * lxca) * total


def logaddexp(x: float, y: float) -> float:
    """ln(e^x + e^y)."""
    hi, lo = max(x, y), min(x, y)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


class Leg:
    """One beta leg, on which x falls from x0 towards 0 in the time e^log_c int_x^x0 t^(a-1) (1-t)^(b-1) dt.

    Its points are L = ln(x/(1 - x)), kept as (ln x, ln(1 - x)) and their
    changes from the start (None at x0 = 1: u = 0 above r2, and past a
    crossing).  Where the point sought lies nearer the start than its L is
    large, the variable is d = L - L0 <= 0 instead, from which x and 1 - x
    are formed without L0's rounding, so a point 1e-300 from the start
    keeps its digits.  ``total`` is the time to x = 0, or None where that
    time is infinite; past half of it the leg is timed from its end,
    total - t, which keeps its digits as t -> total.  ``newton`` drives it.
    """

    def __init__(self, a: float, b: float, log_c: float, lx0: float, lx0c: float, total: float | None):
        self.a, self.b, self.log_c, self.total = a, b, log_c, total
        self.lx0, self.lx0c, self.x0 = lx0, lx0c, math.exp(lx0)
        self.L0 = lx0 - lx0c  # inf at x0 = 1
        self.relative = self.from_end = False
        self.hi, self.start = self.L0, None

    def point(self, d: float) -> tuple:
        """(ln x, ln(1 - x), and their changes from the start, or None at x0 = 1) at d (or L)."""
        if not self.relative:
            lx, lxc = logistic(d)
            return (lx, lxc, lx - self.lx0, lxc - self.lx0c) if self.L0 < math.inf else (lx, lxc, None, None)
        if d >= -1.0:  # x/x0 = 1/(x0 + x0c e^-d), (1 - x)/x0c = 1/(x0c + x0 e^d)
            dlx, dlxc = -math.log1p(math.exp(self.lx0c) * math.expm1(-d)), -math.log1p(self.x0 * math.expm1(d))
        else:
            dlx, dlxc = -logaddexp(self.lx0, self.lx0c - d), -logaddexp(self.lx0c, self.lx0 + d)
        return self.lx0 + dlx, self.lx0c + dlxc, dlx, dlxc

    def density(self, pt: tuple) -> tuple[float, float]:
        """The time per unit of L at a point, and its logarithmic derivative a(1 - x) - b x."""
        lx, lxc = pt[0], pt[1]
        return math.exp(self.log_c + self.a * lx + self.b * lxc), self.a * math.exp(lxc) - self.b * math.exp(lx)

    def full(self, pt: tuple) -> float:
        """The leg time of a point, from the start or (``from_end``) to the end."""
        if self.from_end:
            return log_beta(self.a, self.b, -math.inf, 0.0, pt[0], pt[1], self.log_c)
        return log_beta(self.a, self.b, pt[0], pt[1], self.lx0, self.lx0c, self.log_c)

    def piece(self, anchor: tuple, pt: tuple) -> float | None:
        """The leg time of a point from that of a nearby anchor (point, time) by ``beta_piece``, or None.

        None too where the time falls below a quarter of the anchor's, as
        the anchor's rounding would then swamp it.
        """
        pa, time = anchor
        i = 2 if self.relative else 0
        dlx, dlxc = pt[i] - pa[i], pt[i + 1] - pa[i + 1]
        a, b, lc = self.a, self.b, self.log_c
        if max(abs(dlx), abs(dlxc)) <= 0.5:
            step = beta_piece(a, b, pa[0], pa[1], dlx, dlxc, lc)
        elif max(pa[0], pt[0]) <= _NEAR_END:  # both near x = 0: the series in x converges at once
            step = math.copysign(log_series(a, b, min(pa[0], pt[0]), max(pa[0], pt[0]), lc), dlx)
        elif max(pa[1], pt[1]) <= _NEAR_END:  # both near x = 1: in 1 - x
            step = math.copysign(log_series(b, a, min(pa[1], pt[1]), max(pa[1], pt[1]), lc), -dlxc)
        else:
            return None
        if step is None:
            return None
        new = time + (step if self.from_end else -step)
        return new if new >= 0.25 * time else None  # a time far below the anchor's would cancel its digits

    def aim(self, t: float) -> tuple[float, float, float]:
        """(first guess, the time solved for, the sign of its slope) for the point at time t; picks the variable.

        Near the end of a blow-up the time left, total - t = C x^a/a
        (1 + O(x)), is solved for.  Otherwise the time from the start is:
        from x0 = 1 by the law t = C (1 - x)^b/b (1 + O(1 - x)); within two
        e-folds of the density from the start by its exponential law in L,
        t = h0 (1 - e^(q0 (L - L0)))/q0, one Newton step from the start as
        q0 t/h0 -> 0; past them by the power law towards x = 0,
        C (x^a - x0^a)/(-a), ln(x0/x) C at a = 0, or the time left at a > 0.
        """
        a, b, lc, L0 = self.a, self.b, self.log_c, self.L0
        self.from_end = self.total is not None and t > 0.5 * self.total
        target, sign = (self.total - t, 1.0) if self.from_end else (t, -1.0)
        d = None  # the start's law gives L - L0 itself, whose digits L would lose
        try:
            L = math.nan
            if self.from_end:
                L = self._L((math.log(a * target) - lc) / a)
            elif L0 == math.inf:
                lxc = (math.log(b * t) - lc) / b
                if lxc < -_LN2:
                    L = math.log1p(-math.exp(lxc)) - lxc
            else:
                h, q = self.density((self.lx0, self.lx0c))
                z = q * t / h
                if z < 0.5:
                    d = -t / h if z == 0.0 else t / h * (math.log1p(-z) / z)  # t/h z would underflow past t ~ 1e-154
                    if abs(q * d) > 2.0:  # a few e-folds of the density out, its slope there rules
                        d = None
                    else:
                        L = L0 + d
            if L != L:  # past the start's law
                if a < 0.0:
                    L = self._L(logaddexp(a * self.lx0, math.log(-a * t) - lc) / a)
                elif a == 0.0:
                    L = self._L(self.lx0 - math.exp(math.log(t) - lc))
                else:
                    L = self._L((math.log(a * (self.total - t)) - lc) / a)
        except (OverflowError, ValueError, ZeroDivisionError):  # no guess: newton doubles its way out from the start
            L = math.nan
        self.relative = L0 < math.inf and abs(L - L0) < max(1.0, abs(L))
        if L0 < math.inf:
            self.hi = 0.0 if self.relative else L0
            self.start = (self.point(self.hi), 0.0)
        return ((L - L0 if d is None else d) if self.relative else L), target, sign

    def _L(self, lx: float) -> float:
        """L at x = e^lx, x kept below x0 and 1/2."""
        lx = min(lx, self.lx0, -_LN2)
        return lx - math.log1p(-math.exp(lx))


class WLeg:
    """A ``_NearDouble`` leg for ``newton``, in the protocol of ``Leg``.

    e rises from 0 (omega between the roots) in L = -ln e, or (``fall``)
    falls from 0 to -s0 on the crossing leg in L = kappa ln(s/s0); kappa =
    max(1, 2 |lam| s0^2) makes a unit of L about an e-fold of F near s0,
    so Newton's tolerance in L holds the time there to rounding.  A point
    is (e, ln F(e)); the piece between two points whose ln F differ by at
    most 2 is a 10-point Gauss-Legendre panel, and any other time a full
    ``_span`` from 0, or (``from_end``) to the end.  ``total`` is the time
    from e = 0 to the end of a rise that blows up, else None.
    """

    def __init__(self, nd: _NearDouble, fall: bool, total: float | None = None):
        self.nd, self.fall, self.total, self.from_end = nd, fall, total, False
        self.log_f, self.dlog_f = (nd._log_f, nd._dlog_f) if nd.above else (nd._log_g, nd._dlog_g)
        self.kappa = max(1.0, 2.0 * abs(nd.lam) * nd.s0 * nd.s0) if fall else 1.0
        self.hi = 0.0 if fall else math.inf
        self.start = ((0.0, self.log_f(0.0)), 0.0)

    def point(self, L: float) -> tuple[float, float]:
        e = self.nd.s0 * math.expm1(L / self.kappa) if self.fall else math.exp(-L)
        return e, self.log_f(e)

    def density(self, pt: tuple) -> tuple[float, float]:
        """The time per unit of L, and its logarithmic derivative in L."""
        e, lf = pt
        if self.fall:
            s = self.nd.s0 + e
            return math.exp(lf) * s / self.kappa, (s * self.dlog_f(e) + 1.0) / self.kappa
        return math.exp(lf) * e, -(e * self.dlog_f(e) + 1.0)

    def full(self, pt: tuple) -> float:
        e = pt[0]  # the time to the start on the crossing leg, to the end, or from the start
        return self.nd._span(e, 0.0 if self.fall else math.inf) if self.fall or self.from_end else self.nd._span(0.0, e)

    def piece(self, anchor: tuple, pt: tuple) -> float | None:
        (ea, lfa), time = anchor
        e, lf = pt
        if not abs(lf - lfa) <= 2.0:
            return None
        m, h = 0.5 * (e + ea), 0.5 * (e - ea)
        step = h * sum(w * math.exp(self.log_f(m + h * x)) for x, w in _GAUSS10)
        new = time - step if self.fall or self.from_end else time + step
        return new if new >= 0.25 * time else None  # a time far below the anchor's would cancel its digits

    def aim(self, t: float) -> tuple[float, float, float]:
        """(first guess L, the time solved for, the sign of its slope), from the start's exponential law in e.

        That is t = F0 (1 - e^(-q0 e))/q0, or past half of a blow-up, where
        the time left is solved for as in ``Leg.aim``, total - t = F0
        e^(-q0 e)/q0.  The point's own law, t or total - t = F/|d ln F/de|,
        refines it for the time left, and on a rise where F at the guess has
        grown by more than e^2: the start's law takes F's rate at the start
        for its rate all the way, which on a rise from a small s0, where F
        is flat, puts the guess many e-folds past the point.
        """
        lf0, q0 = self.start[0][1], -self.dlog_f(0.0)
        self.from_end = self.total is not None and 0.5 * self.total < t < self.total
        target, sign = (self.total - t, 1.0) if self.from_end else (t, -1.0)
        try:
            if self.from_end:
                e = (lf0 - math.log(q0 * target)) / q0
            else:
                z = q0 * t * math.exp(-lf0)
                e = t * math.exp(-lf0) * (1.0 if z == 0.0 else -math.log1p(-min(z, 0.9)) / z)
            if self.from_end or (not self.fall and self.log_f(e) - lf0 > 2.0):
                for _ in range(12):  # Newton on ln F(e) - ln |d ln F/de| = ln target, a guess only
                    dlf = self.dlog_f(e)
                    step = max(-0.5 * e, -(self.log_f(e) - math.log(abs(dlf)) - math.log(target)) / dlf)
                    e += step
                    if abs(step) <= 1e-3 * e:
                        break
            if self.fall:
                e = min(e, 0.5 * self.nd.s0)  # at most half way to u = 0 (s = s0 - e), which the law may pass
                return self.kappa * math.log1p(-e / self.nd.s0), target, sign
            return -math.log(e), target, sign
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.nan, target, sign


def logistic(L: float) -> tuple[float, float]:
    """(ln x, ln(1 - x)) at x = 1/(1 + e^-L), L = ln(x/(1 - x)): neither x nor 1 - x is formed from the other."""
    s = math.log1p(math.exp(-abs(L)))
    return min(L, 0.0) - s, -max(L, 0.0) - s


def midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo and hi in the order of the floats, so that 64 halvings close any bracket.

    Within a binade it is the mean; across binades it halves the gap in
    the exponent, so that a point a subnormal away from 0 is reached from 1
    in 64 halvings where the mean takes 1074 (Roots.jl's Bisection bisects
    the same way).
    """
    a, b = (struct.unpack("<Q", struct.pack("<d", x))[0] for x in (lo, hi))
    m = ((a if a < _SIGN else _SIGN - a) + (b if b < _SIGN else _SIGN - b)) // 2  # -|x| bits for x < 0
    return struct.unpack("<d", struct.pack("<Q", m if m >= 0 else _SIGN - m))[0]


def newton(leg, t: float) -> tuple:
    """The point of a leg (``Leg``, ``WLeg``) at time t > 0: safeguarded Halley steps from a first guess.

    ``leg.aim`` gives the first guess from a closed-form law of the leg
    and the time to solve for: from the start, or to the end past half of
    a blow-up.  Each iterate's time is that of an anchor plus the short
    piece between them (``leg.piece``), the anchor being the start and then
    each iterate in turn; where the piece is too long for it, the time is a
    full evaluation (``leg.full``).  The steps are Halley's on ln time -
    ln t, whose second derivative the leg's density gives in closed form,
    inside the bracket the iterates build up, a time past the float range
    (an overflow, or its inf - inf) counting as past t.  A step that leaves
    the bracket, or fails to halve the step before it, bisects, as in Press
    et al.'s rtsafe (Numerical Recipes), at the ``midpoint`` of the floats
    in between; while one side is still open it doubles its way out from
    the known side instead, as does a missing guess or one off the leg.  It
    stops once a step moves ln time by at most 1e-15, or once cubic
    convergence from the step before predicts that the next one will
    (step^4/last^3), or once the variable can move no further than to the
    next float: a step that reaches no further, or a bracket with no float
    strictly inside.  Every iterate keeps the leg's variable, and its
    choice of the time from the start or to the end.
    """
    d, target, sign = leg.aim(t)
    log_t = math.log(target)
    lo, hi = -math.inf, leg.hi
    anchor = leg.start if sign < 0.0 else None
    last, halley, reach = math.inf, 0.0, 1.0  # the last step, the last Halley step (0 before the first), the next doubling
    if not lo < d < hi:  # no guess on the leg: out from its start
        d = hi - reach if hi < math.inf else 0.0
    for _ in range(_STEPS):
        try:
            pt = leg.point(d)
            time = leg.piece(anchor, pt) if anchor is not None else None
            if time is None:
                time = leg.full(pt)
            h, q = leg.density(pt)
        except OverflowError:
            time = h = q = math.nan
        if math.isnan(time) or math.isnan(h):  # past the float range (an overflow, or inf - inf): a time past t
            val = math.inf
        else:
            anchor = (pt, time)
            val = math.log(time) - log_t if time > 0.0 else -math.inf
        if val == 0.0:
            return pt
        if (val > 0.0) == (sign < 0.0):
            lo = d
        else:
            hi = d
        g = sign * h / time if time > 0.0 else math.inf  # d val / dd
        n = math.nan
        if math.isfinite(val) and h > 0.0:  # val/g, or val time/h at a time so small that g overflows
            n = val / g if abs(g) < math.inf else sign * val * time / h
        c = 0.5 * n * (q - g)
        step = -(n / (1.0 - c) if abs(c) < 0.5 else n)
        # done once ln time moves by at most 1e-15: by this step, or by the
        # next as cubic convergence from the last step predicts (step^4/last^3),
        # or where the step reaches no further than the next float
        tol = 1e-15 / abs(g) if g != 0.0 else 0.0
        nxt = d + step
        if abs(step) <= tol or (abs(step) <= halley and step**4 <= 0.1 * tol * halley**3) or math.nextafter(d, nxt) == nxt:
            return leg.point(nxt)
        bounded = math.isfinite(lo) and math.isfinite(hi)
        halley = abs(step)
        if not (lo < nxt < hi and (2.0 * abs(step) <= last or not bounded)):
            if bounded:
                nxt = midpoint(lo, hi)
            else:
                nxt, reach = (hi - reach if hi < math.inf else lo + reach), 2.0 * reach
            halley = 0.0
            if not lo < nxt < hi:  # no float left between the bracket's ends: either is the point to rounding
                return leg.point(d if val < math.inf else (hi if d == lo else lo))
        last = abs(nxt - d)
        d = nxt
    return leg.point(d)
