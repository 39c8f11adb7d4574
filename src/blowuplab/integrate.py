"""Time-steppers and the adaptive driver with blow-up event detection.

Two steppers are provided: the classical explicit Runge-Kutta method of
order 4 and the 3-stage Gauss-Legendre collocation method of order 6.
The driver uses step-doubling (Richardson) local error control, caps the
step near blow-up by the natural time scale 1/|u|, and records a
termination verdict instead of raising when a solution escapes.

u'' = A u u' + B u^3 and the cap are invariant under u(t) -> lam u(lam t)
(the rescaled time ds = |u| dt of Stuart & Floater, Eur. J. Appl. Math. 1,
1990; Budd, Leimkuhler & Piggott, Appl. Numer. Math. 39, 2001), so where
two cap-bound Gauss6 steps in a row start at the same shape u'/u^2, the
second is a scaled copy of the first.  The driver then seeds its stage
solves with the first one's converged stages, scaled by the ratio of the
start accelerations.  On the cap-bound steps of escapes to |u| = 1e8 at
m = 8 and at A = 0, B = 2 the Taylor seed is off by 7e-6 to 8e-4
relative; the scaled stages are off by 0.02-0.09 |d(u'/u^2)| / |u'/u^2|,
at most 6e-10 past |u| = 100 and 6e-14 past |u| = 1000.  The seed is used
only where the shape moved by at most 2^-26 relative.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .elliptic import F_half
from .errors import DomainError, NonFiniteError, StageSolveFailure
from .exact import escape_time
from .model import OdeParams, State

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegratorKind",
    "IntegrateOptions",
    "Termination",
    "Trajectory",
    "step_rk4",
    "step_gauss6",
    "integrate",
    "estimate_blowup_time",
    "quadrature_blowup_time",
]


class IntegratorKind(enum.Enum):
    RK4 = "rk4"
    GAUSS6 = "gauss6"


@dataclass(frozen=True)
class IntegrateOptions:
    """Driver parameters; t_end finite, all thresholds positive and finite, both counts ints >= 1."""

    h0: float = 1e-3
    t_end: float = 1.0
    blowup_threshold: float = 1e8
    local_tol: float = 1e-10
    h_min: float = 1e-14
    max_steps: int = 10**7
    record_every: int = 1
    h_cap_factor: float = 0.1  # step cap h <= h_cap_factor/|u| near blow-up
    h_max: float | None = None  # optional global step-size ceiling

    def __post_init__(self):
        positive = (self.h0, self.blowup_threshold, self.local_tol, self.h_min, self.h_cap_factor)
        if not all(0.0 < x < math.inf for x in positive):  # false for NaN too
            raise DomainError("h0, blowup_threshold, local_tol, h_min, h_cap_factor must be positive and finite")
        if self.h_max is not None and not 0.0 < self.h_max < math.inf:
            raise DomainError("h_max must be positive and finite when given")
        if not math.isfinite(self.t_end):
            raise DomainError("t_end must be finite")
        counts = (self.max_steps, self.record_every)
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in counts):
            raise DomainError("max_steps and record_every must be ints")
        if self.max_steps < 1 or self.record_every < 1:
            raise DomainError("max_steps and record_every must be >= 1")


@dataclass(frozen=True)
class Termination:
    """How a run ended: Completed, BlowUp, StepUnderflow or MaxSteps."""

    kind: str  # "completed" | "blowup" | "step_underflow" | "max_steps"
    # the last time plus the exact remaining time from the last state, for every
    # kind of end; None where disc < 0 or the exact rule calls the direction from
    # the last state global (at a blow-up, separatrix rounding)
    t_estimate: float | None = None
    direction: int | None = None  # +1 forward in t, -1 backward
    t_last: float | None = None


@dataclass
class Trajectory:
    params: OdeParams
    # one row per recorded state, float64 fields t, u, v; a row reads like
    # a State (row.t, row.u, row.v) and .t/.u/.v are views of the columns
    states: np.recarray
    termination: Termination
    integrator: IntegratorKind
    options: IntegrateOptions
    n_steps: int = 0
    # low-order residuals of the recorded times: the exact step-sum time
    # of states[i] is t[i] - t_residual[i].  Recorded separately because
    # a float64 time stamp alone cannot resolve steps of size ~1e-5 near
    # blow-up to the accuracy the exponential g_k diagnostic needs.
    t_residual: np.ndarray | None = None  # None means all zeros

    def __post_init__(self):
        if self.t_residual is None:
            import numpy as np

            self.t_residual = np.zeros(len(self.states))

    @property
    def t(self) -> np.ndarray:
        return self.states["t"]

    @property
    def u(self) -> np.ndarray:
        return self.states["u"]

    @property
    def v(self) -> np.ndarray:
        return self.states["v"]


# ---------------------------------------------------------------------------
# steppers

# Increment contract: increment(A, B, u, v, h) -> (du, dv) returns a
# finite increment with u + du, v + dv finite, or raises NonFiniteError or
# StageSolveFailure.  x * 0.0 is 0.0 for every finite x and NaN for an
# infinite or NaN one, so a sum of such products tests finiteness exactly
# without overflowing.
#
# Attempt contract, the driver's: attempt(A, B, u, v, h, tol, prev) ->
# (dfu, dfv, du, dv, stages) returns the full step's increment and the sum
# of the two half steps' increments, or raises where one of them raises;
# the driver then halves h and drops the stages it carries.  tol is the
# run's local_tol, or 0 for none; RK4 ignores it.  stages is Gauss6's nine
# converged stage accelerations (full step, first half, second half) and
# its two start accelerations f and f_mid, or None for RK4; prev is the
# stages of the last accepted attempt, or None.  The driver passes prev
# only where the cap h_cap_factor/|u| set this step and the last accepted
# one and the shape u'/u^2 moved by at most _SEED_SHAPE_RTOL between their
# starts: under u(t) -> lam u(lam t) this attempt is then the image of that
# one, and Gauss6 seeds its full and first half step with prev's stages
# times f/f_prev and its second half step with prev's times f_mid/f_mid_prev,
# in place of the Taylor and quartic seeds.  RK4 ignores prev.
# Each method has one routine, its attempt, with its arithmetic written
# out; the increment that step_rk4 and step_gauss6 take is the attempt's
# full step alone (full_only).  RK4's full step is thus bit for bit
# increment(h), its half steps increment(h/2) and increment(h/2) from the
# midpoint.  At tol = 0 (and wherever _FULL_KAPPA tol <= 4 eps) Gauss6's
# full step is bit for bit increment(h), and its half steps solve the
# same stage equations from another seed, so they agree with those
# increments to the stage tolerance, not bit for bit.  A larger tol
# loosens the half steps' stop to _STAGE_KAPPA tol and the full step's to
# _FULL_KAPPA tol.  Gauss6's one sweep loop solves the full step and then
# both half steps, in Nystrom form on the three stage accelerations, and
# calls no function per solve.


def _rk4_attempt(
    A: float, B: float, u: float, v: float, h: float, tol: float, prev: tuple | None = None, full_only: bool = False,
) -> tuple:
    """One step-doubling attempt of RK4, the classical fourth-order Runge-Kutta step written out; tol and prev are unused.

    The full and the first half step share k1v.  0.5 * h * v evaluates as
    (0.5 * h) * v, so taking the sub-step factors once changes no bit.  A
    non-finite stage reaches its step's increment, and a non-finite
    midpoint (u1, v1) makes u1 + d2u or v1 + d2v non-finite, so testing
    the full step's and the second half step's end states decides what
    the three increments' tests decide.  It returns no stages (None).
    With full_only the full step alone is taken and (du, dv) returned.
    """
    k1v = A * u * v + B * u * u * u
    # full step over h
    c = 0.5 * h
    a, k2u = u + c * v, v + c * k1v
    k2v = A * a * k2u + B * a * a * a
    a, k3u = u + c * k2u, v + c * k2v
    k3v = A * a * k3u + B * a * a * a
    a, k4u = u + h * k3u, v + h * k3v
    k4v = A * a * k4u + B * a * a * a
    w = h / 6.0
    dfu = w * (v + 2.0 * k2u + 2.0 * k3u + k4u)
    dfv = w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if full_only:
        if (u + dfu) * 0.0 + (v + dfv) * 0.0 != 0.0:
            raise NonFiniteError("stage value overflowed")
        return dfu, dfv
    # first half step over c
    q = 0.5 * c
    a, k2u = u + q * v, v + q * k1v
    k2v = A * a * k2u + B * a * a * a
    a, k3u = u + q * k2u, v + q * k2v
    k3v = A * a * k3u + B * a * a * a
    a, k4u = u + c * k3u, v + c * k3v
    k4v = A * a * k4u + B * a * a * a
    w = c / 6.0
    d1u = w * (v + 2.0 * k2u + 2.0 * k3u + k4u)
    d1v = w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    # second half step over c from the midpoint
    u1, v1 = u + d1u, v + d1v
    k1v = A * u1 * v1 + B * u1 * u1 * u1
    a, k2u = u1 + q * v1, v1 + q * k1v
    k2v = A * a * k2u + B * a * a * a
    a, k3u = u1 + q * k2u, v1 + q * k2v
    k3v = A * a * k3u + B * a * a * a
    a, k4u = u1 + c * k3u, v1 + c * k3v
    k4v = A * a * k4u + B * a * a * a
    d2u = w * (v1 + 2.0 * k2u + 2.0 * k3u + k4u)
    d2v = w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if (u + dfu) * 0.0 + (v + dfv) * 0.0 + (u1 + d2u) * 0.0 + (v1 + d2v) * 0.0 != 0.0:
        raise NonFiniteError("stage value overflowed")
    return dfu, dfv, d1u + d2u, d1v + d2v, None


# 3-point Gauss-Legendre collocation tableau
_SQ15 = math.sqrt(15.0)
_A11, _A12, _A13 = 5.0 / 36.0, 2.0 / 9.0 - _SQ15 / 15.0, 5.0 / 36.0 - _SQ15 / 30.0
_A21, _A22, _A23 = 5.0 / 36.0 + _SQ15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _SQ15 / 24.0
_A31, _A32, _A33 = 5.0 / 36.0 + _SQ15 / 30.0, 2.0 / 9.0 + _SQ15 / 15.0, 5.0 / 36.0
_B1, _B2 = 5.0 / 18.0, 4.0 / 9.0
_C1, _C3 = 0.5 - _SQ15 / 10.0, 0.5 + _SQ15 / 10.0
# (A^2)_ij, the weight of F_j in the u-stage Y_iu = u + c_i h v + h^2 sum_j (A^2)_ij F_j
_A_ROWS = ((_A11, _A12, _A13), (_A21, _A22, _A23), (_A31, _A32, _A33))
(_Q11, _Q12, _Q13), (_Q21, _Q22, _Q23), (_Q31, _Q32, _Q33) = (
    tuple(sum(row[k] * _A_ROWS[k][j] for k in range(3)) for j in range(3)) for row in _A_ROWS
)


def _lagrange_weights(s: float) -> tuple[float, ...]:
    """Lagrange weights at s of the quartic through the nodes 0, c_1, c_2 = 1/2, c_3, 1."""
    c = (0.0, _C1, 0.5, _C3, 1.0)
    return tuple(math.prod((s - c[k]) / (c[j] - c[k]) for k in range(5) if k != j) for j in range(5))


# Seeds of the half steps' stage accelerations, one row per seed: the
# quartic through the full step's (0, f), (c_i, F_i) and (1, f_end), in
# units of its h, at the first half step's nodes s = c_i/2, then the
# second's s = 1/2 + c_i/2
_HALF_SEEDS = tuple(_lagrange_weights(s) for s in (
    0.5 * _C1, 0.25, 0.5 * _C3, 0.5 + 0.5 * _C1, 0.75, 0.5 + 0.5 * _C3,
))
# a sweep change within 4 eps of the stage scale is rounding noise
_STAGE_RTOL = 4.0 * sys.float_info.epsilon
# the attempt's half steps scale their absolute stage tolerances with
# max(4 eps, kappa local_tol): a stage solve need not resolve what the error
# test cannot see (Hairer & Wanner, Solving ODEs II, IV.8, stop the
# iteration at kappa Tol, kappa in 1e-2 to 1e-1)
_STAGE_KAPPA = 5e-2
# the full step enters the error estimate |full - half| / (2^6 - 1) and
# seeds the half steps, nothing else, so its stop may be 2^6 - 1 times
# looser: it then moves the estimate by no more than the half steps' stop
# moves the solution
_FULL_KAPPA = (2**6 - 1) * _STAGE_KAPPA
# u'' = A u u' + B u^3 and the cap h = h_cap_factor/|u| are invariant under
# u(t) -> lam u(lam t), which leaves the shape p = u'/u^2 alone: two
# cap-bound steps whose starts share p are images of each other, stages
# and all.  The previous step's stages then seed this one's solves to
# about 0.02-0.09 |dp/p|; the seed is used only where p moved by at most
# sqrt(eps) relative, because a stage solve stopped at its loose tolerance
# keeps part of its seed's error: with no guard the m = 8 escape at
# local_tol 1e-6 moved its blow-up time by 5e-10 relative, at a guard of
# 1e-4 by 1e-10, and at 2^-26 not beyond its 1.1e-11 without the seed
_SEED_SHAPE_RTOL = 2.0**-26
# fixed-point sweeps allowed per step; a step that needs more is too long
# for the iteration to contract, and the driver halves it
_GAUSS6_MAX_SWEEPS = 40


def _gauss6_seed(
    A: float, B: float, u: float, v: float, f: float, h: float, C1=_C1, C3=_C3,
) -> tuple[float, float, float]:
    """Seeds of a full step's stage accelerations from (u, v), f = u'' there: (F1, F2, F3).

    F_i = f + x (f1 + x (f2 + x f3)) at x = c_i h is the Taylor polynomial
    of u'' at the node, from the on-shell derivatives f1 = u''',
    f2 = u''''/2 and f3 = u'''''/6, so each seed is within O(h^4) of the
    stage acceleration (Hairer & Wanner, Solving ODEs II, IV.8, starting
    values).  The derivative terms can overflow where f does not; where a
    seed is not finite, every stage starts from f, the Euler seed.
    """
    f1 = A * (v * v + u * f) + 3.0 * B * u * u * v  # u'''
    d4 = A * (3.0 * v * f + u * f1) + 3.0 * B * u * (2.0 * v * v + u * f)  # u''''
    d5 = A * (3.0 * f * f + 4.0 * v * f1 + u * d4) + 3.0 * B * (2.0 * v * v * v + 6.0 * u * v * f + u * u * f1)
    f2 = 0.5 * d4
    f3 = d5 / 6.0
    x = C1 * h
    F1 = f + x * (f1 + x * (f2 + x * f3))
    x = 0.5 * h
    F2 = f + x * (f1 + x * (f2 + x * f3))
    x = C3 * h
    F3 = f + x * (f1 + x * (f2 + x * f3))
    if F1 * 0.0 + F2 * 0.0 + F3 * 0.0 != 0.0:
        return f, f, f
    return F1, F2, F3


def _gauss6_attempt(
    A: float, B: float, u: float, v: float, h: float, tol: float, prev: tuple | None = None, full_only: bool = False,
    A11=_A11, A12=_A12, A13=_A13, A21=_A21, A22=_A22, A23=_A23, A31=_A31, A32=_A32, A33=_A33,
    Q11=_Q11, Q12=_Q12, Q13=_Q13, Q21=_Q21, Q22=_Q22, Q23=_Q23, Q31=_Q31, Q32=_Q32, Q33=_Q33,
    B1=_B1, B2=_B2, C1=_C1, C3=_C3, K=_STAGE_KAPPA, KF=_FULL_KAPPA, R=_STAGE_RTOL,
    W00=_HALF_SEEDS[0][0], W01=_HALF_SEEDS[0][1], W02=_HALF_SEEDS[0][2], W03=_HALF_SEEDS[0][3], W04=_HALF_SEEDS[0][4],
    W10=_HALF_SEEDS[1][0], W11=_HALF_SEEDS[1][1], W12=_HALF_SEEDS[1][2], W13=_HALF_SEEDS[1][3], W14=_HALF_SEEDS[1][4],
    W20=_HALF_SEEDS[2][0], W21=_HALF_SEEDS[2][1], W22=_HALF_SEEDS[2][2], W23=_HALF_SEEDS[2][3], W24=_HALF_SEEDS[2][4],
    W30=_HALF_SEEDS[3][0], W31=_HALF_SEEDS[3][1], W32=_HALF_SEEDS[3][2], W33=_HALF_SEEDS[3][3], W34=_HALF_SEEDS[3][4],
    W40=_HALF_SEEDS[4][0], W41=_HALF_SEEDS[4][1], W42=_HALF_SEEDS[4][2], W43=_HALF_SEEDS[4][3], W44=_HALF_SEEDS[4][4],
    W50=_HALF_SEEDS[5][0], W51=_HALF_SEEDS[5][1], W52=_HALF_SEEDS[5][2], W53=_HALF_SEEDS[5][3], W54=_HALF_SEEDS[5][4],
) -> tuple[float, ...]:
    """One step-doubling attempt of Gauss6: three stage solves through one sweep loop.

    Each solve is a 3-stage Gauss-Legendre (order 6) step over k from a
    start state (u, v), its stages solved in Nystrom form (Hairer, Norsett
    & Wanner, Solving ODEs I, II.14): a fixed-point iteration on the stage
    accelerations F_i.  A sweep forms Y_iv = v + k sum_j a_ij F_j and
    Y_iu = u + c_i k v + k^2 sum_j (A^2)_ij F_j and takes F_i = u'' at
    (Y_iu, Y_iv), so every u-stage is built from the latest accelerations.
    An F_i has converged when its sweep change is within
    min(r sv/|k|, r su/k^2) or R |F_i|, su, sv = max(1, |u|), max(1, |v|):
    that bounds the change of each stage increment by r su or r sv, a few
    ulps of the start state at r = R (the rounding noise that never goes
    away once |y| is large) or a fraction of local_tol, or by a few ulps of
    the acceleration itself.  The solve's increment is
    du = k sum_i b_i Y_iv, dv = k sum_i b_i F_i at the last stages Y_i.
    The finiteness of the iterates is tested once, when the sweeps run out.

    The full step (k = h) and the first half step (k = h/2) start from
    (u, v) and share its start state; the second half step starts from the
    midpoint.  The full step is seeded by _gauss6_seed.  Each half step is
    seeded with the quartic through the full step's (0, f), its converged
    (c_i, F_i) and (1, f_end), f_end = u'' at the full step's end, at the
    half step's own nodes: the full step's collocation values (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, VIII.6) with both
    ends on shell added.  Where one of the six half-step seeds is not
    finite, each half step starts from the Euler seed, u'' at its own
    start.  Given prev, the stages of an attempt this one is the scaled
    image of, the full and the first half step start from prev's stages
    times f/f_prev, and the second half step from prev's times
    f_mid/f_mid_prev, with no Taylor seed or quartic; where f_prev or
    f_mid_prev is zero or not finite, or one of the six start seeds is not
    finite, the attempt seeds as without prev, and where the second half
    step's seeds are not finite it starts from its Euler seed.  The half
    steps solve at r = max(R, K tol), the full step at r = max(R, KF tol),
    so where KF tol <= R the attempt is the one at tol = 0.  It returns
    (dfu, dfv, du, dv, stages), stages the nine converged stage
    accelerations of the three solves and f and f_mid.  With full_only the
    full step alone is solved and (du, dv, F1, F2, F3) returned.  The
    tableau and the half-seed weights W_ij = _HALF_SEEDS[i][j] are bound as
    default arguments, which read as locals.
    """
    rh = K * tol
    if rh < R:
        rh = R
    r = KF * tol
    if r < R:
        r = R
    k = h
    seeded = False
    solve = 0  # 0 the full step, 1 the first half step, 2 the second
    while True:
        if solve != 1:
            # the start state at (u, v): f = u'' there, tested finite, and the stage scales
            f = A * u * v + B * u * u * u
            if v * 0.0 + f * 0.0 != 0.0:
                raise NonFiniteError("stage value overflowed")
            su, sv = abs(u), abs(v)
            su = su if su > 1.0 else 1.0
            sv = sv if sv > 1.0 else 1.0
            if solve == 0:
                f0 = f
                if prev is not None:
                    P1, P2, P3, g1, g2, g3, H1, H2, H3, fp, fm = prev
                    if fp != 0.0 and fm != 0.0 and fp * 0.0 + fm * 0.0 == 0.0:
                        x = f / fp
                        F1, F2, F3, g1, g2, g3 = x * P1, x * P2, x * P3, x * g1, x * g2, x * g3
                        seeded = F1 * 0.0 + F2 * 0.0 + F3 * 0.0 + g1 * 0.0 + g2 * 0.0 + g3 * 0.0 == 0.0
                if not seeded:
                    F1, F2, F3 = _gauss6_seed(A, B, u, v, f, h)
            elif seeded:
                x = f / fm
                F1, F2, F3 = x * H1, x * H2, x * H3
                if F1 * 0.0 + F2 * 0.0 + F3 * 0.0 != 0.0:
                    F1 = F2 = F3 = f
            elif euler:
                F1 = F2 = F3 = f
            else:
                F1, F2, F3 = g4, g5, g6
        w1 = (C1 * k) * v
        w2 = (0.5 * k) * v
        w3 = (C3 * k) * v
        kk = k * k
        # min(r sv/|k|, r su/k^2), in two divisions by |k| that cannot
        # divide by a zero k^2; dividing by |k| > 0 is monotone, so it
        # commutes with min
        ak = abs(k)
        t = r * su / ak
        tv = r * sv
        if tv < t:
            t = tv
        t /= ak
        mt = -t
        for _ in range(_GAUSS6_MAX_SWEEPS):
            y1v = v + k * (A11 * F1 + A12 * F2 + A13 * F3)
            y2v = v + k * (A21 * F1 + A22 * F2 + A23 * F3)
            y3v = v + k * (A31 * F1 + A32 * F2 + A33 * F3)
            y1u = u + (w1 + kk * (Q11 * F1 + Q12 * F2 + Q13 * F3))
            y2u = u + (w2 + kk * (Q21 * F1 + Q22 * F2 + Q23 * F3))
            y3u = u + (w3 + kk * (Q31 * F1 + Q32 * F2 + Q33 * F3))
            n1 = A * y1u * y1v + B * y1u * y1u * y1u
            n2 = A * y2u * y2v + B * y2u * y2u * y2u
            n3 = A * y3u * y3v + B * y3u * y3u * y3u
            # |d| <= max(t, R |n|) is the same decision as |d| <= t or
            # |d| <= R |n|; n3, the acceleration that fails first, is tested first
            converged = (
                (mt <= (d := n3 - F3) <= t or abs(d) <= R * abs(n3))
                and (mt <= (d := n2 - F2) <= t or abs(d) <= R * abs(n2))
                and (mt <= (d := n1 - F1) <= t or abs(d) <= R * abs(n1))
            )
            F1, F2, F3 = n1, n2, n3
            if converged:
                break
        else:
            # Every Y_iv depends on every F_j (no a_ij is 0) and every F_i on
            # its Y_iu and Y_iv, so once one acceleration is non-finite all are
            # from the next sweep on and stay so: testing the last ones decides
            # what a test after every sweep would.  Non-finite accelerations
            # that pass the convergence test (inf <= R inf) reach the end-state
            # test below.
            if F1 * 0.0 + F2 * 0.0 + F3 * 0.0 != 0.0:
                raise NonFiniteError("stage iteration overflowed")
            raise StageSolveFailure(f"stage iteration did not converge in {_GAUSS6_MAX_SWEEPS} sweeps")
        du = k * (B1 * (y1v + y3v) + B2 * y2v)
        dv = k * (B1 * (F1 + F3) + B2 * F2)
        if (u + du) * 0.0 + (v + dv) * 0.0 != 0.0:
            raise NonFiniteError("stage value overflowed")
        if solve == 0:
            if full_only:
                return du, dv, F1, F2, F3
            dfu, dfv = du, dv
            P1, P2, P3 = F1, F2, F3
            if seeded:
                F1, F2, F3 = g1, g2, g3
            else:
                a, b = u + du, v + dv
                fe = A * a * b + B * a * a * a
                g1 = W00 * f + W01 * F1 + W02 * F2 + W03 * F3 + W04 * fe
                g2 = W10 * f + W11 * F1 + W12 * F2 + W13 * F3 + W14 * fe
                g3 = W20 * f + W21 * F1 + W22 * F2 + W23 * F3 + W24 * fe
                g4 = W30 * f + W31 * F1 + W32 * F2 + W33 * F3 + W34 * fe
                g5 = W40 * f + W41 * F1 + W42 * F2 + W43 * F3 + W44 * fe
                g6 = W50 * f + W51 * F1 + W52 * F2 + W53 * F3 + W54 * fe
                euler = g1 * 0.0 + g2 * 0.0 + g3 * 0.0 + g4 * 0.0 + g5 * 0.0 + g6 * 0.0 != 0.0
                if euler:
                    F1 = F2 = F3 = f
                else:
                    F1, F2, F3 = g1, g2, g3
            k = 0.5 * h
            r = rh
            solve = 1
        elif solve == 1:
            Q1, Q2, Q3 = F1, F2, F3
            d1u, d1v = du, dv
            u, v = u + du, v + dv
            solve = 2
        else:
            return dfu, dfv, d1u + du, d1v + dv, (P1, P2, P3, Q1, Q2, Q3, F1, F2, F3, f0, f)


def _rk4_increment(A: float, B: float, u: float, v: float, h: float) -> tuple[float, float]:
    """State increment of one classical fourth-order Runge-Kutta step: the attempt's full step alone."""
    return _rk4_attempt(A, B, u, v, h, 0.0, None, True)


def _gauss6_increment(A: float, B: float, u: float, v: float, h: float) -> tuple[float, float]:
    """State increment of one Gauss6 step: the attempt's full step alone, at tol = 0."""
    du, dv, _, _, _ = _gauss6_attempt(A, B, u, v, h, 0.0, None, True)
    return du, dv


def _step(increment, p: OdeParams, s: State, h: float) -> State:
    if h == 0.0 or h * 0.0 != 0.0:  # h * 0.0 is NaN for an infinite or NaN h
        raise DomainError("step size must be nonzero and finite")
    du, dv = increment(p.A, p.B, s.u, s.v, h)
    return State(s.t + h, s.u + du, s.v + dv)


def step_rk4(p: OdeParams, s: State, h: float) -> State:
    """One classical fourth-order Runge-Kutta step."""
    return _step(_rk4_increment, p, s, h)


def step_gauss6(p: OdeParams, s: State, h: float) -> State:
    """One step of the 3-stage Gauss-Legendre method (order 6), its stages solved from Taylor seeds."""
    return _step(_gauss6_increment, p, s, h)


# step-doubling attempt and order of each method
_STEPPERS = {IntegratorKind.RK4: (_rk4_attempt, 4), IntegratorKind.GAUSS6: (_gauss6_attempt, 6)}


# ---------------------------------------------------------------------------
# driver

def integrate(p: OdeParams, s0: State, kind: IntegratorKind, opts: IntegrateOptions) -> Trajectory:
    """March from s0 toward opts.t_end with step-doubling error control (``_march``).

    The recorded states are packed into the trajectory's record array.
    """
    rows, n_acc, termination = _march(p, s0, kind, opts)
    import numpy as np  # only here: import blowuplab and its scalar functions load no numpy

    cols = np.fromiter(rows, float, len(rows)).reshape(-1, 4).T
    states = np.rec.fromarrays(cols[:3], names="t,u,v")
    return Trajectory(p, states, termination, kind, opts, n_acc, t_residual=cols[3])


def _march(p: OdeParams, s0: State, kind: IntegratorKind, opts: IntegrateOptions) -> tuple[list, int, Termination]:
    """The driver of ``integrate``: (rows, n_steps, termination), no numpy.

    rows is flat, t, u, u' and the t residual of each recorded state as
    Python floats; callers that only read the states take it in place of
    a Trajectory.  One loop serves both time directions d = +-1: it runs
    forward in the frame (d t, u, d u', d A), where the equation keeps its
    form, and where d = -1 the recorded t, u' and t residuals are negated
    once at the end (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, V.1).
    """
    d = 1 if opts.t_end >= s0.t else -1
    attempt, order = _STEPPERS[kind]
    A, B = d * p.A, p.B
    t, u, v = d * float(s0.t), float(s0.u), d * float(s0.v)
    gain = 1.0 / (2**order - 1.0)
    expo = 1.0 / (order + 1)
    tol, h_min, h_cap, t_end = opts.local_tol, opts.h_min, opts.h_cap_factor, d * opts.t_end
    every, max_steps = opts.record_every, opts.max_steps
    h_max = math.inf if opts.h_max is None else opts.h_max
    t_done = t_end - 1e-15 * (abs(t_end) if abs(t_end) > 1.0 else 1.0)
    # u_big * u_big is inf past 1.3e154, which turns the |v| test off;
    # ** would raise OverflowError there
    u_big = opts.blowup_threshold
    v_big = u_big * u_big
    # state accumulated by compensated (Kahan) summation of step
    # increments, so long runs do not pick up one coherent rounding ulp per step
    ct = cu = cv = 0.0
    h = opts.h0
    uabs = abs(u)  # |u| from the blow-up test, read by the next step's cap
    rows = [t, u, v, 0.0]  # flat: t, u, v and the t residual of each recorded state
    n_acc = 0
    # (u, v, stages) at the start of the last accepted step where the cap
    # set that step (h = h_cap/|u| after the cuts), else None
    carry = None
    end = "blowup"
    while True:
        if t >= t_done:
            end = "completed"
            break
        if n_acc >= max_steps:
            end = "max_steps"
            break
        # h = min(h, h_cap/|u|, h_max, t_end - t); 1/|u| is the natural
        # time scale near blow-up
        if uabs > 1.0 and (hc := h_cap / uabs) < h:
            h = hc
        if h_max < h:
            h = h_max
        if t_end - t < h:
            h = t_end - t
        if h < h_min:
            end = "step_underflow"
            break
        # two cap-bound steps in a row whose starts share the shape u'/u^2:
        # this one is the last one's image under u(t) -> lam u(lam t)
        prev = None
        if carry is not None and uabs > 1.0 and h == h_cap / uabs:
            up, vp, stages = carry
            if vp != 0.0:
                q = up / u
                if abs(v / vp * (q * q) - 1.0) <= _SEED_SHAPE_RTOL:
                    prev = stages
        try:
            dfu, dfv, du, dv, stages = attempt(A, B, u, v, h, tol, prev)
        except (NonFiniteError, StageSolveFailure):
            h *= 0.5
            carry = None
            continue
        au, av = abs(u + du), abs(v + dv)
        eu = abs(dfu - du) / (au if au > 1.0 else 1.0)
        ev = abs(dfv - dv) / (av if av > 1.0 else 1.0)
        err = gain * (ev if ev > eu else eu)
        if err > tol:
            f = 0.9 * (tol / err) ** expo
            h *= f if f > 0.2 else 0.2
            continue
        if stages is not None:  # Gauss6: carry the stages of a step the cap set
            carry = (u, v, stages) if uabs > 1.0 and h == h_cap / uabs else None
        # u += du, v += dv, t += h, each compensated
        yu, yv, yt = du - cu, dv - cv, h - ct
        su, sv, st = u + yu, v + yv, t + yt
        cu, cv, ct = (su - u) - yu, (sv - v) - yv, (st - t) - yt
        u, v, t = su, sv, st
        n_acc += 1
        if n_acc % every == 0:
            rows += (t, u, v, ct)
        if (uabs := abs(u)) > u_big or abs(v) > v_big:
            break
        if err > 0:
            # tol/err >= 1 here, so f >= 0.9 and only the cap 5 can bind
            f = 0.9 * (tol / err) ** expo
            h *= f if f < 5.0 else 5.0
        else:
            h *= 5.0
    if n_acc % every:  # the last accepted state is always kept
        rows += (t, u, v, ct)
    if d < 0:  # back to the caller's frame: -x negates signed zeros too
        for i in (0, 2, 3):
            rows[i::4] = [-x for x in rows[i::4]]
        t, v = -t, -v
    try:  # the last time plus the exact remaining time: none for disc < 0 or a root lost to rounding
        rest = escape_time(p, u, v, d)
    except DomainError:
        rest = None
    termination = Termination(end, t_estimate=None if rest is None else t + rest,
                              direction=d if end == "blowup" else None,
                              t_last=t if end in ("max_steps", "step_underflow") else None)
    return rows, n_acc, termination


def estimate_blowup_time(traj: Trajectory) -> float:
    """The driver's blow-up time: the last time plus the exact remaining time from the last state."""
    term = traj.termination
    if term.kind != "blowup":
        raise DomainError("trajectory did not terminate in blow-up")
    if term.t_estimate is None:
        raise DomainError("no exact blow-up time: disc < 0, or the last state's direction is global")
    return term.t_estimate


def quadrature_blowup_time(Acoef: float, C: float, a: float) -> float:
    """T = integral_a^inf dv / sqrt(Acoef v^4 + C).

    This is the escape time of v' = sqrt(Acoef v^4 + C) from v(0) = a.
    A vanishing radicand at the left endpoint is allowed (integrable
    inverse-square-root singularity); a radicand that turns negative
    anywhere on [a, inf), a divergent integral (C = 0, a <= 0) or a
    non-finite argument is a domain error.

    With lam = (|C| / Acoef)^(1/4) and x = a / lam the radicand is
    r_a = |C| (x^4 +- 1) and the integral is an incomplete elliptic
    integral F(phi | 1/2) (DLMF 19.2), evaluated by elliptic.F_half:
    integral_x^inf dy / sqrt(y^4 + 1) = F(2 atan(1/x) | 1/2) / 2 and
    integral_x^inf dy / sqrt(y^4 - 1) = F(atan(sqrt 2 / sqrt(x^2 - 1)) | 1/2) / sqrt 2.
    Both angles are formed from lam and a, never from a^4, so every finite
    a past the turning point has a value.
    """
    if not (math.isfinite(Acoef) and math.isfinite(C) and math.isfinite(a)):
        raise DomainError(f"arguments must be finite, got Acoef={Acoef}, C={C}, a={a}")
    if Acoef <= 0:
        raise DomainError("quartic coefficient must be positive")
    if C == 0:
        if a <= 0:
            raise DomainError("escape integral diverges for C = 0 and a <= 0")
        return 1.0 / (math.sqrt(Acoef) * a)
    lam = (abs(C) / Acoef) ** 0.25  # the turning point v* when C < 0
    if C > 0:  # atan(1/x) as atan2(lam, a): no overflow for any finite a
        return lam / math.sqrt(C) * F_half(2.0 * math.atan2(lam, a)) / 2.0
    x = a / lam
    if -1.0 < x < 1.0:
        raise DomainError("negative radicand at the left endpoint")
    if x < 1.0:
        raise DomainError("radicand vanishes inside the integration range")
    if x < 2.0:
        # near v*, x^2 - 1 = r_a / (|C| (x^2 + 1)) with r_a formed from a
        # carries fewer roundings than x * x - 1; here a^4 < 16 |C| / Acoef
        r_a = Acoef * a**4 + C
        if r_a < 0:
            raise DomainError("negative radicand at the left endpoint")
        phi = math.atan2(math.sqrt(2.0), math.sqrt(r_a / (-C * (x * x + 1.0))))
    else:
        # sqrt 2 / sqrt(x^2 - 1) = sqrt 2 y / sqrt((1 - y)(1 + y)) with y = 1/x = lam/a <= 1/2
        y = lam / a
        phi = math.atan2(math.sqrt(2.0) * y, math.sqrt((1.0 - y) * (1.0 + y)))
    return lam / math.sqrt(-C) * F_half(phi) / math.sqrt(2.0)
