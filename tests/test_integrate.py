import hashlib
import math
import sys
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import (
    DomainError,
    F_half,
    IntegrateOptions,
    IntegratorKind,
    State,
    Trajectory,
    estimate_blowup_time,
    integrate,
    params_from_coeffs,
    params_from_dimension,
    quadrature_blowup_time,
    step_gauss6,
    step_rk4,
)
from blowuplab.errors import NonFiniteError, StageSolveFailure
from blowuplab.exact import escape_time
from blowuplab.integrate import (
    _A11, _A12, _A13, _A21, _A22, _A23, _A31, _A32, _A33, _B1, _B2, _C1, _C3, _HALF_SEEDS,
    _Q11, _Q12, _Q13, _Q21, _Q22, _Q23, _Q31, _Q32, _Q33,
    _GAUSS6_MAX_SWEEPS, _STAGE_KAPPA, _STAGE_RTOL, _STEPPERS, _gauss6_attempt, _gauss6_increment,
    _gauss6_seed, _rk4_attempt, _rk4_increment,
)

# the module, which the package's function integrate shadows as an attribute
integrate_module = import_module("blowuplab.integrate")

# tanh-sinh quadrature oracle for integral_0^inf dw / sqrt(1 + w^4)
ESCAPE_TIME_UNIT_QUARTIC = 1.85407467730137191843385


def exact_tanh(t):
    # u = -tanh(t) solves the m=4 equation u'' = 2 u u'
    return -math.tanh(t), -1.0 / math.cosh(t) ** 2


def test_single_step_accuracy_orders():
    p = params_from_dimension(4.0)
    s0 = State(0.0, 0.0, -1.0)
    h = 0.1
    u_exact, v_exact = exact_tanh(h)
    s_rk4 = step_rk4(p, s0, h)
    s_g6 = step_gauss6(p, s0, h)
    err_rk4 = max(abs(s_rk4.u - u_exact), abs(s_rk4.v - v_exact))
    err_g6 = max(abs(s_g6.u - u_exact), abs(s_g6.v - v_exact))
    assert err_rk4 < 1e-5
    assert err_g6 < 1e-8
    assert err_g6 < err_rk4


def test_step_rejects_zero_h_and_bad_tol():
    p = params_from_dimension(4.0)
    s0 = State(0.0, 0.5, 0.5)
    for h in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            step_rk4(p, s0, h)
        with pytest.raises(DomainError):
            step_gauss6(p, s0, h)


@pytest.mark.parametrize("stepper", [step_rk4, step_gauss6])
@pytest.mark.parametrize("u, v", [(1e60, 0.0), (1.0, 1e200)])
def test_steppers_raise_nonfinite_on_overflow(stepper, u, v):
    # one contract for both steppers: an overflowing step is a
    # NonFiniteError, never a bare OverflowError from u**3
    p = params_from_coeffs(0.0, 2.0)
    with pytest.raises(NonFiniteError):
        stepper(p, State(0.0, u, v), 1.0)


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("u, v", [(1e60, 0.0), (1.0, 1e200)])
def test_increment_raises_instead_of_overflowing(kind, u, v):
    # the driver calls the step-doubling attempts directly and halves h on
    # NonFiniteError, so an attempt never returns a non-finite increment
    attempt, _ = _STEPPERS[kind]
    with pytest.raises(NonFiniteError):
        attempt(0.0, 2.0, u, v, 1.0, 0.0)


def test_gauss6_stage_solve_at_escape_states():
    # on the way to |u| = 1e8, |v| grows past 1e15; the stage iteration
    # must converge at every recorded state with the driver's cap step
    p = params_from_coeffs(0.0, 2.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=1e8)
    traj = integrate(p, State(0.0, 0.0, 1.0), IntegratorKind.GAUSS6, opts)
    assert traj.termination.kind == "blowup"
    assert traj.termination.t_estimate == pytest.approx(ESCAPE_TIME_UNIT_QUARTIC, rel=1e-4)
    assert np.max(np.abs(traj.v)) > 1e15
    for s in traj.states:
        step_gauss6(p, s, opts.h_cap_factor / max(1.0, abs(s.u)))


def test_gauss6_escape_times_match_quadrature():
    # the escape_gauss6 benchmark shape: m = 8 and (A, B) = (0, 2), escape
    # to |u| = 1e8 at local_tol 1e-10.  Both have A = 0, which conserves
    # e = v^2/2 - B u^4/4, so T is the escape time of v' = sqrt((B/2) v^4 + 2e).
    # Worst relative error of the fitted time over these 40 runs: 5.67e-11,
    # before and after the Nystrom stage solve; gated at about 5 times that.
    rng = np.random.default_rng(2024)
    opts = IntegrateOptions(t_end=50.0, blowup_threshold=1e8, local_tol=1e-10)
    params = (params_from_dimension(8.0), params_from_coeffs(0.0, 2.0))
    worst = 0.0
    for i in range(40):
        u0, v0 = 0.5 + rng.random(), rng.random()
        p = params[1 if i % 5 == 4 else 0]
        traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
        e0 = 0.5 * v0 * v0 - 0.25 * p.B * u0**4
        t_ref = quadrature_blowup_time(p.B / 2.0, 2.0 * e0, u0)
        worst = max(worst, abs(estimate_blowup_time(traj) - t_ref) / t_ref)
    assert worst <= 3e-10


# Worst relative error of the fitted escape time over the three initial
# conditions below at each local_tol, with the stage tolerance set by
# local_tol; the same to two digits as with stage tolerances at 4 eps
# whatever local_tol (1.50e-8, 7.72e-10, 3.90e-11, 1.23e-12), and with the
# half steps stopped at 5e-2 local_tol and the full step at 63 times that
# (1.52e-8, 7.70e-10, 3.91e-11, 1.23e-12).  Gated at 3 times.
_ESCAPE_TOL_WORST = {1e-6: 1.49e-8, 1e-8: 7.70e-10, 1e-10: 3.90e-11, 1e-12: 1.23e-12}


@pytest.mark.parametrize("local_tol", sorted(_ESCAPE_TOL_WORST, reverse=True))
def test_gauss6_escape_time_follows_local_tol(local_tol):
    # m = 8 escapes to |u| = 1e8 against the quadrature time of the
    # conserved energy: a stage solve stopped at a fraction of local_tol
    # must not cost the estimate more than the step-size control does
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=50.0, blowup_threshold=1e8, local_tol=local_tol)
    worst = 0.0
    for u0, v0 in ((1.0, 1.0), (0.5, 0.25), (1.25, 0.75)):
        traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
        e0 = 0.5 * v0 * v0 - 0.25 * p.B * u0**4
        t_ref = quadrature_blowup_time(p.B / 2.0, 2.0 * e0, u0)
        worst = max(worst, abs(estimate_blowup_time(traj) - t_ref) / t_ref)
    assert worst <= 3.0 * _ESCAPE_TOL_WORST[local_tol]


def test_gauss6_converges_when_stage_increment_dwarfs_state():
    # from v = 0 the v-stage increments h B u^3 are far larger than v
    # itself; their rounding noise must not be measured against |v| alone
    rng = np.random.default_rng(5)
    n = 2000
    A, B = rng.uniform(-3.0, 3.0, (2, n))
    u = 10.0 ** rng.uniform(0.0, 7.0, n) * rng.choice([-1.0, 1.0], n)
    frac = rng.uniform(0.01, 1.0, n)
    for a, b, x, f in zip(A, B, u, frac):
        rate = abs(a * x) + math.sqrt(abs(3.0 * b * x * x))
        step_gauss6(params_from_coeffs(a, b), State(0.0, x, 0.0), 0.25 * f / rate)


@st.composite
def contracting_steps(draw):
    """(params, u, v, h) with |h| times the local rate at most 0.25.

    The rate is the Jacobian's scale plus the transport rate |v|/|u|:
    without the latter, a tiny B lets one step carry u across decades,
    where no fixed-point iteration contracts.
    """
    A = draw(st.floats(-3.0, 3.0))
    B = draw(st.floats(-3.0, 3.0))
    u = draw(st.floats(-1e7, 1e7))
    v_max = max(1.0, u * u)
    v = draw(st.floats(-v_max, v_max))
    rate = abs(A * u) + math.sqrt(abs(A * v + 3.0 * B * u * u)) + abs(v) / max(1.0, abs(u))
    h = draw(st.floats(1e-6, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return params_from_coeffs(A, B), u, v, h * 0.25 / max(rate, 0.25)


# Reference increments in their plain formulation: the RHS as a lambda in
# RK4; in Gauss6 the Nystrom iteration on the stage accelerations written
# with lists, max() and math.isfinite, testing finiteness after every
# sweep.  The single-step increments and the driver's step-doubling
# attempts in _STEPPERS must agree with them bit for bit.


def _check_finite_ref(u, v):
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteError("stage value overflowed")


def _rk4_increment_ref(p, u, v, h):
    f = lambda u, v: (v, p.A * u * v + p.B * u * u * u)
    k1u, k1v = f(u, v)
    k2u, k2v = f(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
    k3u, k3v = f(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
    k4u, k4v = f(u + h * k3u, v + h * k3v)
    du = (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    dv = (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    _check_finite_ref(u + du, v + dv)
    return du, dv


_A_REF = ((_A11, _A12, _A13), (_A21, _A22, _A23), (_A31, _A32, _A33))
_A2_REF = ((_Q11, _Q12, _Q13), (_Q21, _Q22, _Q23), (_Q31, _Q32, _Q33))
_C_REF = (_C1, 0.5, _C3)


def _gauss6_start_ref(p, u, v):
    fv = p.A * u * v + p.B * u * u * u
    _check_finite_ref(v, fv)
    return fv


def _gauss6_solve_ref(p, u, v, h, F, R=_STAGE_RTOL):
    # Y_iv = v + h sum_j a_ij F_j, Y_iu = u + c_i h v + h^2 sum_j (A^2)_ij F_j,
    # F_i <- u''(Y_iu, Y_iv) until every change is within
    # max(min(tv/|h|, tu/h^2), 4 eps |F_i|) with tu, tv = R max(1, |y|);
    # returns (du, dv, F)
    A, B = p.A, p.B
    tu, tv = R * max(1.0, abs(u)), R * max(1.0, abs(v))
    tol = min(tv / abs(h), tu / abs(h) / abs(h))
    for _ in range(_GAUSS6_MAX_SWEEPS):
        yv = [v + h * (a[0] * F[0] + a[1] * F[1] + a[2] * F[2]) for a in _A_REF]
        yu = [u + (c * h * v + h * h * (q[0] * F[0] + q[1] * F[1] + q[2] * F[2])) for c, q in zip(_C_REF, _A2_REF)]
        new = [A * y_u * y_v + B * y_u * y_u * y_u for y_u, y_v in zip(yu, yv)]
        converged = all(abs(n - f) <= max(tol, _STAGE_RTOL * abs(n)) for n, f in zip(new, F))
        if not converged and not all(map(math.isfinite, new)):
            raise NonFiniteError("stage iteration overflowed")
        F = new
        if converged:
            break
    else:
        raise StageSolveFailure(f"stage iteration did not converge in {_GAUSS6_MAX_SWEEPS} sweeps")
    du = h * (_B1 * (yv[0] + yv[2]) + _B2 * yv[1])
    dv = h * (_B1 * (F[0] + F[2]) + _B2 * F[1])
    _check_finite_ref(u + du, v + dv)
    return du, dv, F


def _gauss6_taylor_seeds_ref(p, u, v, f, h):
    # u'' at the nodes to O(h^4): f + x (u''' + x (u''''/2 + x u'''''/6)) at
    # x = c_i h, from the on-shell derivatives at (u, v); the Euler seed f at
    # every stage where any of these seeds is not finite
    A, B = p.A, p.B
    d3 = A * (v * v + u * f) + 3.0 * B * u * u * v
    d4 = A * (3.0 * v * f + u * d3) + 3.0 * B * u * (2.0 * v * v + u * f)
    d5 = A * (3.0 * f * f + 4.0 * v * d3 + u * d4) + 3.0 * B * (2.0 * v * v * v + 6.0 * u * v * f + u * u * d3)
    seeds = [f + c * h * (d3 + c * h * (d4 / 2.0 + c * h * (d5 / 6.0))) for c in _C_REF]
    return seeds if all(map(math.isfinite, seeds)) else [f, f, f]


def _gauss6_increment_ref(p, u, v, h):
    fv = _gauss6_start_ref(p, u, v)
    du, dv, _ = _gauss6_solve_ref(p, u, v, h, _gauss6_taylor_seeds_ref(p, u, v, fv, h))
    return du, dv


def _gauss6_euler_increment_ref(p, u, v, h):
    # the Euler seed: every stage acceleration starts at u''(u, v)
    fv = _gauss6_start_ref(p, u, v)
    du, dv, _ = _gauss6_solve_ref(p, u, v, h, [fv, fv, fv])
    return du, dv


def _stage_tols_ref(tol):
    # the attempt's stage tolerances: the half steps' max(4 eps, kappa tol)
    # and the full step's max(4 eps, (2^6 - 1) kappa tol)
    return max(_STAGE_RTOL, _STAGE_KAPPA * tol), max(_STAGE_RTOL, 63.0 * _STAGE_KAPPA * tol)


def _gauss6_attempt_ref(p, u, v, h, R, Rf):
    # the full step from the Taylor seeds, stopped at Rf; each half step,
    # stopped at R, seeded with the quartic through the full step's (0, f),
    # (c_i, F_i) and (1, f_end) at its own nodes, or from its own Euler seed
    # where any of the six is not finite
    fv = _gauss6_start_ref(p, u, v)
    dfu, dfv, F = _gauss6_solve_ref(p, u, v, h, _gauss6_taylor_seeds_ref(p, u, v, fv, h), Rf)
    ue, ve = u + dfu, v + dfv
    y = [fv, *F, p.A * ue * ve + p.B * ue * ue * ue]
    seeds = [w[0] * y[0] + w[1] * y[1] + w[2] * y[2] + w[3] * y[3] + w[4] * y[4] for w in _HALF_SEEDS]
    euler = not all(map(math.isfinite, seeds))
    d1u, d1v, _ = _gauss6_solve_ref(p, u, v, 0.5 * h, [fv] * 3 if euler else seeds[:3], R)
    u1, v1 = u + d1u, v + d1v
    fv1 = _gauss6_start_ref(p, u1, v1)
    d2u, d2v, _ = _gauss6_solve_ref(p, u1, v1, 0.5 * h, [fv1] * 3 if euler else seeds[3:], R)
    return dfu, dfv, d1u + d2u, d1v + d2v


def _step_doubling_ref(increment, p, u, v, h):
    # the full step, and the two half steps summed, as the driver compares them
    dfu, dfv = increment(p, u, v, h)
    d1u, d1v = increment(p, u, v, 0.5 * h)
    d2u, d2v = increment(p, u + d1u, v + d1v, 0.5 * h)
    return dfu, dfv, d1u + d2u, d1v + d2v


_REFERENCE_INCREMENTS = {IntegratorKind.RK4: _rk4_increment_ref, IntegratorKind.GAUSS6: _gauss6_increment_ref}
_REFERENCE_ATTEMPTS = {
    IntegratorKind.RK4: lambda p, u, v, h, tol: _step_doubling_ref(_rk4_increment_ref, p, u, v, h),
    IntegratorKind.GAUSS6: lambda p, u, v, h, tol: _gauss6_attempt_ref(p, u, v, h, *_stage_tols_ref(tol)),
}
# the increments step_rk4 and step_gauss6 take
_INCREMENTS = {IntegratorKind.RK4: _rk4_increment, IntegratorKind.GAUSS6: _gauss6_increment}


@st.composite
def increment_inputs(draw):
    """(params, u, v, h) over blow-up magnitudes, h at and around the driver's cap 0.1/|u|.

    v is drawn on its own, or as w max(1, u^2) as on the blow-up branches;
    with small A and B a stage increment can then outgrow the state while
    the iteration still contracts.  Some draws overflow.
    """
    coef = st.floats(-5.0, 5.0) | st.floats(-1e-3, 1e-3)
    A, B = draw(coef), draw(coef)
    u = draw(st.floats(-1e8, 1e8) | st.floats(1e8, 1e200) | st.sampled_from((0.0, 1.0, -1.0)))
    v = draw(
        st.floats(-1e16, 1e16) | st.floats(-1e3, 1e3).map(lambda w: w * max(1.0, u * u))
        | st.floats(-1e300, -1e16) | st.just(0.0)
    )
    cap = 0.1 / max(1.0, abs(u))
    factor = draw(st.sampled_from((1.0, 0.5, 0.25)) | st.floats(1e-3, 4.0) | st.floats(4.0, 1e12))
    h = cap * factor * draw(st.sampled_from((1.0, -1.0)))
    return params_from_coeffs(A, B), u, v, h


def _outcome(fn, *args):
    # an attempt's increments, without the stages it returns last
    try:
        return tuple(x.hex() for x in fn(*args)[:4])
    except (NonFiniteError, StageSolveFailure) as exc:
        return type(exc)


@pytest.mark.parametrize("kind", list(IntegratorKind))
@settings(max_examples=1500, deadline=None)
@given(case=increment_inputs())
def test_increment_matches_reference_bitwise(kind, case):
    # same (du, dv) to the last bit and the sign of zero, or the same exception type
    p, u, v, h = case
    want = _outcome(_REFERENCE_INCREMENTS[kind], p, u, v, h)
    assert _outcome(_INCREMENTS[kind], p.A, p.B, u, v, h) == want


@pytest.mark.parametrize("kind", list(IntegratorKind))
@settings(max_examples=1500, deadline=None)
@given(case=increment_inputs(), tol=st.sampled_from((0.0, 1e-13, 1e-10, 1e-6)))
def test_attempt_matches_reference_step_doubling_bitwise(kind, case, tol):
    # (dfu, dfv, du, dv) to the last bit and the sign of zero, or the same
    # exception type, as the reference attempt: three RK4 reference
    # increments composed by step doubling, or the Gauss6 full step and the
    # two half steps from its quadratic seeds, at the stage tolerance tol sets
    p, u, v, h = case
    attempt, _ = _STEPPERS[kind]
    want = _outcome(_REFERENCE_ATTEMPTS[kind], p, u, v, h, tol)
    assert _outcome(attempt, p.A, p.B, u, v, h, tol) == want


# Worst difference of the Gauss6 attempt from the Euler-seeded step
# doubling, |d - d_ref| / max(1, |y|, |y + d_ref|), over 4 x 20000 draws of
# increment_inputs (44,796 where both return): 5.67 eps (1.3e-15) for the
# Taylor-seeded full step and 3.32 eps for the quartic-seeded half steps
# (4.33 eps with the half steps seeded by the quadratic through the F_i).
# Gated at about 2.8 times the worst.  Without |y| in the scale a step that
# cancels most of y reads up to 79 eps: the stage tolerance is set by |y|,
# not by |y + d|.
_HALF_SEED_GATE = 16.0 * sys.float_info.epsilon


@settings(max_examples=1500, deadline=None)
@given(case=increment_inputs())
def test_gauss6_attempt_is_close_to_euler_seeded_step_doubling(case):
    # the full step and the half steps solve the same stage equations as
    # Euler-seeded increments from other seeds, so all three agree with
    # those to the stage tolerance.  Where either side raises there is
    # nothing to compare: at the edge of contraction a solve may converge
    # from one seed and not from the other.
    p, u, v, h = case
    attempt, _ = _STEPPERS[IntegratorKind.GAUSS6]
    want = _outcome(_step_doubling_ref, _gauss6_euler_increment_ref, p, u, v, h)
    got = _outcome(attempt, p.A, p.B, u, v, h, 0.0)
    if not (isinstance(want, tuple) and isinstance(got, tuple)):
        return
    for d, r, y in zip(map(float.fromhex, got), map(float.fromhex, want), (u, v, u, v)):
        assert abs(d - r) <= _HALF_SEED_GATE * max(1.0, abs(y), abs(y + r))


# Worst difference of the Gauss6 attempt at local_tol tau from the attempt
# at tau = 0, |d - d_0| / max(1, |y|, |y + d_0|) in units of the stop of the
# solves that made d, in 4 x 20000 draws of increment_inputs with tau in
# each of 1e-12, 1e-10, 1e-8, 1e-6 and 1e-4 (44,612 where both return): 0.261
# for the full step's increments in units of max(4 eps, 63 kappa tau), 0.448
# for the half steps' sum in units of max(4 eps, kappa tau).  The error
# estimate (full - half) / 63 moved by at most 0.261 kappa tau in the same
# scale.  Each gated at about 3.4 times its worst (one gate of 2 at 3.4 times
# 0.59 while all three solves stopped at max(4 eps, 5e-3 tau)).
_FULL_TOL_GATE = 0.9
_HALF_TOL_GATE = 1.5
_ESTIMATE_TOL_GATE = 0.9


def _attempts_at(case, tau):
    """The Gauss6 attempt at local_tol tau and at 0, as floats, or None where either raises."""
    p, u, v, h = case
    attempt, _ = _STEPPERS[IntegratorKind.GAUSS6]
    want = _outcome(attempt, p.A, p.B, u, v, h, 0.0)
    got = _outcome(attempt, p.A, p.B, u, v, h, tau)
    if not (isinstance(want, tuple) and isinstance(got, tuple)):
        return None
    return [float.fromhex(x) for x in got], [float.fromhex(x) for x in want]


@settings(max_examples=1500, deadline=None)
@given(case=increment_inputs(), tau=st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6, 1e-4)))
def test_gauss6_attempt_moves_within_its_stage_tolerance(case, tau):
    # a stage solve stopped at the absolute tolerance R max(1, |y|) per unit
    # of h moves its increment by less than that tolerance: the iteration
    # contracts, so the change it skips is smaller than the last one it
    # made.  R is the full step's max(4 eps, 63 kappa tau) and the half
    # steps' max(4 eps, kappa tau).  Where either side raises there is
    # nothing to compare.
    pair = _attempts_at(case, tau)
    if pair is None:
        return
    (got, want), (_, u, v, _) = pair, case
    rh, rf = _stage_tols_ref(tau)
    units = (_FULL_TOL_GATE * rf,) * 2 + (_HALF_TOL_GATE * rh,) * 2
    for d, r, y, unit in zip(got, want, (u, v, u, v), units):
        assert abs(d - r) <= unit * max(1.0, abs(y), abs(y + r))


@settings(max_examples=1500, deadline=None)
@given(case=increment_inputs(), tau=st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6, 1e-4)))
def test_gauss6_error_estimate_moves_within_kappa_tau(case, tau):
    # the full step's looser stop moves the error estimate (full - half) / 63
    # by no more than the half steps' stop moves the solution: at most a
    # small multiple of kappa tau max(1, |y|, |y + d_0|), d_0 the half steps'
    # sum at tau = 0
    pair = _attempts_at(case, tau)
    if pair is None:
        return
    (got, want), (_, u, v, _) = pair, case
    unit = _ESTIMATE_TOL_GATE * _stage_tols_ref(tau)[0]
    for i, y in enumerate((u, v)):
        moved = (got[i] - got[i + 2]) / 63.0 - (want[i] - want[i + 2]) / 63.0
        assert abs(moved) <= unit * max(1.0, abs(y), abs(y + want[i + 2]))


def test_gauss6_nystrom_tables():
    # (A^2)_ij is the square of the Gauss tableau; each half-step seed row
    # is the Lagrange basis at its node on the nodes 0, c_1, 1/2, c_3, 1, so
    # it reproduces every quartic
    a = np.array([[_A11, _A12, _A13], [_A21, _A22, _A23], [_A31, _A32, _A33]])
    q = np.array([[_Q11, _Q12, _Q13], [_Q21, _Q22, _Q23], [_Q31, _Q32, _Q33]])
    assert np.max(np.abs(q - a @ a)) <= 1e-16
    c = np.array([0.0, _C1, 0.5, _C3, 1.0])
    nodes = np.concatenate([0.5 * c[1:4], 0.5 + 0.5 * c[1:4]])
    assert np.shape(_HALF_SEEDS) == (6, 5)
    for poly in np.eye(5).tolist() + [[-0.7, 2.5, 3.0, -1.5, 0.8]]:
        want = np.polyval(poly[::-1], nodes)
        got = np.array(_HALF_SEEDS) @ np.polyval(poly[::-1], c)
        assert np.max(np.abs(got - want)) <= 4e-15


def test_gauss6_pinned_runs_fit_in_their_sweep_budgets(monkeypatch):
    # the worst stage solve of the pinned escape run takes 3 passes and that
    # of the pinned gk run 2, with the scaled seed on cap-bound steps and
    # before it: each keeps its digest at that budget and moves at one less
    # (3 and 3 while every stage solve of the attempt stopped at
    # max(4 eps, 5e-3 local_tol); 4 and 6 while the full step started from
    # the Euler seed and the half steps from the quadratic through its F_i;
    # 5 and 6 while the absolute stage tolerance stayed at 4 eps whatever
    # local_tol; 8 held both before).  The Euler-seeded iteration on the
    # stage increments took 9.3 passes on average on escape runs and changed
    # the escape run's steps at a budget of 8
    for run, budget in zip(PINNED_RUNS[:2], (3, 2)):
        monkeypatch.setattr(integrate_module, "_GAUSS6_MAX_SWEEPS", budget)
        test_whole_runs_are_pinned(*run)
        # one sweep less moves the digest, so the budget reaches the sweep loop
        monkeypatch.setattr(integrate_module, "_GAUSS6_MAX_SWEEPS", budget - 1)
        m, kind, ic, options, _, digest = run
        traj = integrate(params_from_dimension(m), State(0.0, *ic), kind, IntegrateOptions(**options))
        assert _run_digest(traj) != digest


def test_gauss6_taylor_seeds_are_fourth_order():
    # the Taylor seed's distance from the converged stage accelerations
    # falls 16-fold per halving of h (O(h^4)), the Euler seed's 2-fold
    # (O(h)): a wrong derivative coefficient would cost sweeps, not bits
    p = params_from_dimension(5.0)
    u, v = 0.5, 0.1
    fv = p.A * u * v + p.B * u**3
    taylor, euler = [], []
    for h in (0.08, 0.04, 0.02, 0.01, 0.005):
        seeds = _gauss6_seed(p.A, p.B, u, v, fv, h)
        # the full step alone, solved from these seeds at the stage scales 4 eps (|u|, |v| < 1)
        _, _, *F = _gauss6_attempt(p.A, p.B, u, v, h, 0.0, full_only=True)
        taylor.append(max(abs(s - f) for s, f in zip(seeds, F)))
        euler.append(max(abs(fv - f) for f in F))
    for big, small in zip(taylor, taylor[1:]):
        assert 15.0 < big / small < 17.0
    for big, small in zip(euler, euler[1:]):
        assert 1.9 < big / small < 2.1


# States where the Taylor seeds overflow although u'' does not: (params, u,
# v, h, whether f_end and the half-step seeds overflow too).  The first is a
# Hypothesis draw of increment_inputs where 2 v^2 overflows although
# u'' = 0; without the fallback the attempt raised NonFiniteError there.
# The second is an m = 5 state at the driver's cap h = 0.1/|u|.  In the
# third u'' grows past float max between the full step's last node and its
# end, while every stage solve stays finite.
_SEED_OVERFLOWS = [
    (params_from_coeffs(0.0, 0.0), 0.0, -9.480751908109177e153, 0.1, False),
    (params_from_dimension(5.0), 1e100, 1e200, 1e-101, False),
    (params_from_coeffs(0.0, 2.11e8), -5e98, 1e210, 1e-110, True),
]


@pytest.mark.parametrize("p, u, v, h, half", _SEED_OVERFLOWS)
def test_gauss6_seeds_fall_back_to_euler_where_they_overflow(p, u, v, h, half):
    # where a Taylor seed is not finite every stage of the full step starts
    # from the Euler seed, and where a half-step seed is not finite each
    # half step starts from its own: the increment and the attempt are then
    # the Euler-seeded ones bit for bit
    A, B = p.A, p.B
    fv = A * u * v + B * u * u * u
    assert math.isfinite(fv) and _gauss6_seed(A, B, u, v, fv, h) == (fv, fv, fv)
    want = _outcome(_gauss6_euler_increment_ref, p, u, v, h)
    assert isinstance(want, tuple)
    assert _outcome(_gauss6_increment, A, B, u, v, h) == want
    attempt, _ = _STEPPERS[IntegratorKind.GAUSS6]
    got = _outcome(attempt, A, B, u, v, h, 0.0)
    assert got == _outcome(_step_doubling_ref, _gauss6_euler_increment_ref, p, u, v, h)
    ue, ve = u + float.fromhex(got[0]), v + float.fromhex(got[1])
    assert math.isinf(A * ue * ve + B * ue * ue * ue) is half


@pytest.mark.parametrize("A, B, u, v, h, error", [
    # the stage iteration overflows
    (2.0, -2.0, -1.0, 1.0, 5.029693851315909, NonFiniteError),
    (2.0, 0.5, 1e6, 1.0, 443.4082330195883, NonFiniteError),
    # the iterates stay finite but do not converge in _GAUSS6_MAX_SWEEPS sweeps
    (-1.0, 1.0, 1e6, 0.0, 1.8e-06, StageSolveFailure),
])
def test_gauss6_stage_solve_failures_are_told_apart(A, B, u, v, h, error):
    # the stage solver tests its iterates' finiteness once, when the sweeps
    # run out; an overflow must still raise NonFiniteError, and a finite
    # failure to converge StageSolveFailure
    attempt, _ = _STEPPERS[IntegratorKind.GAUSS6]
    assert _outcome(_gauss6_increment, A, B, u, v, h) is error
    assert _outcome(attempt, A, B, u, v, h, 0.0) is error
    assert _outcome(step_gauss6, params_from_coeffs(A, B), State(0.0, u, v), h) is error


@settings(max_examples=500, deadline=None)
@given(contracting_steps())
def test_gauss6_is_symmetric(case):
    # Gauss collocation is a symmetric method: step(h) then step(-h) is
    # the identity up to rounding, at the magnitude the round trip visits
    p, u, v, h = case
    s1 = step_gauss6(p, State(0.0, u, v), h)
    s2 = step_gauss6(p, s1, -h)
    assert abs(s2.u - u) <= 1e-12 * max(1.0, abs(u), abs(s1.u))
    assert abs(s2.v - v) <= 1e-12 * max(1.0, abs(v), abs(s1.v))


@settings(max_examples=500, deadline=None)
@given(contracting_steps())
def test_gauss6_respects_u_to_minus_u_of_minus_t(case):
    # if u(t) solves the ODE so does -u(-t): the step from (-u, v) over -h
    # lands exactly on the mirror image of the step from (u, v) over h
    p, u, v, h = case
    s1 = step_gauss6(p, State(0.0, u, v), h)
    m1 = step_gauss6(p, State(0.0, -u, v), -h)
    assert (m1.u, m1.v) == (-s1.u, s1.v)


def _signed(lo, hi):
    """+-10^x for x in [lo, hi]: never subnormal."""
    return st.builds(lambda x, sign: sign * 10.0**x, st.floats(lo, hi), st.sampled_from((1.0, -1.0)))


@st.composite
def scaling_inputs(draw, u_exp=-3.0):
    """(A, B, u, v, h, lam, tol): a step at and around the cap 0.1/|u|, and lam = 2^j for j in {-3, 2, 5}.

    No input is subnormal, so u -> lam u, v -> lam^2 v, h -> h/lam scales
    every operation of an attempt by a power of 2, exactly, where nothing
    over- or underflows.  |u| is 10^x for x in [u_exp, 8], or 0 or 1.
    """
    coef = st.just(0.0) | _signed(-3.0, 0.7)
    A, B = draw(coef), draw(coef)
    u = draw(_signed(u_exp, 8.0) | st.sampled_from((0.0, 1.0, -1.0)))
    v = draw(_signed(-3.0, 16.0) | _signed(-2.0, 1.0).map(lambda w: w * max(1.0, u * u)) | st.just(0.0))
    factor = draw(st.sampled_from((1.0, 0.5, 0.25)) | st.floats(1e-3, 4.0))
    h = 0.1 / max(1.0, abs(u)) * factor * draw(st.sampled_from((1.0, -1.0)))
    lam = 2.0 ** draw(st.sampled_from((-3, 2, 5)))
    return A, B, u, v, h, lam, draw(st.sampled_from((0.0, 1e-13, 1e-10, 1e-6)))


def _returns(attempt, *args):
    """An attempt's result, or None where it raises."""
    try:
        return attempt(*args)
    except (NonFiniteError, StageSolveFailure):
        return None


def _scaled_hex(lam, d):
    """The increments (dfu, dfv, du, dv) of the image under u(t) -> lam u(lam t), as hex."""
    return (lam * d[0]).hex(), (lam * lam * d[1]).hex(), (lam * d[2]).hex(), (lam * lam * d[3]).hex()


@settings(max_examples=600, deadline=None)
@given(case=scaling_inputs())
def test_rk4_attempt_respects_the_scaling_symmetry(case):
    # if u(t) solves the ODE so does lam u(lam t): the attempt from
    # (lam u, lam^2 v) over h/lam returns the one from (u, v) over h scaled
    # by lam and lam^2, to the bit, wherever neither raises (the float
    # range is not scale invariant)
    A, B, u, v, h, lam, tol = case
    base = _returns(_rk4_attempt, A, B, u, v, h, tol)
    image = _returns(_rk4_attempt, A, B, lam * u, lam * lam * v, h / lam, tol)
    if base is not None and image is not None:
        assert tuple(x.hex() for x in image[:4]) == _scaled_hex(lam, base)


@settings(max_examples=600, deadline=None)
@given(case=scaling_inputs(u_exp=1.25))
def test_gauss6_attempt_respects_the_scaling_symmetry(case):
    # the same for Gauss6, unseeded and seeded with the images of the same
    # stages, wherever the stage scales max(1, |u|) and max(1, |v|) are |u|
    # and |v| at both starts (the step's and the midpoint) in both frames:
    # each stop is then lam^3 times the other frame's, and so is every
    # stage.  Where a clamp binds the stops differ: 429 of 2648 such draws
    # differed, and none of the 1112 selected.  The midpoint is taken from
    # the increment over h/2, whose own stop moves it by far less than the
    # factor 2 spared here.
    A, B, u, v, h, lam, tol = case
    base = _returns(_gauss6_attempt, A, B, u, v, h, tol)
    image = _returns(_gauss6_attempt, A, B, lam * u, lam * lam * v, h / lam, tol)
    mid = _returns(_gauss6_increment, A, B, u, v, 0.5 * h)
    if base is None or image is None or mid is None:
        return
    lo = min(1.0, lam)
    if not (min(abs(u), abs(u + mid[0])) * lo >= 2.0 and min(abs(v), abs(v + mid[1])) * lo * lo >= 2.0):
        return
    cube = lam * lam * lam
    assert tuple(x.hex() for x in image[:4]) == _scaled_hex(lam, base)
    assert image[4] == tuple(cube * x for x in base[4])
    seeded = _returns(_gauss6_attempt, A, B, u, v, h, tol, base[4])
    image = _returns(_gauss6_attempt, A, B, lam * u, lam * lam * v, h / lam, tol, image[4])
    assert (seeded is None) == (image is None)
    if seeded is not None:
        assert tuple(x.hex() for x in image[:4]) == _scaled_hex(lam, seeded)
        assert image[4] == tuple(cube * x for x in seeded[4])


def _cap_bound_states():
    """(A, B, u, v) in the driver's frame at every third recorded state past |u| = 16, |v| = 128 of four escapes.

    A = 0 and A != 0, forward and backward: the m = 8 escape to |u| = 1e8,
    the m = 5 escape from (1, 1), a backward m = 9 escape and the A = 0,
    B = 2 escape from (0, 1).
    """
    states = []
    for p, ic, t_end in ((params_from_dimension(8.0), (1.0, 1.0), 10.0), (params_from_dimension(5.0), (1.0, 1.0), 10.0),
                         (params_from_dimension(9.0), (-0.5, 1.0), -20.0), (params_from_coeffs(0.0, 2.0), (0.0, 1.0), 10.0)):
        d = math.copysign(1.0, t_end)
        traj = integrate(p, State(0.0, *ic), IntegratorKind.GAUSS6, IntegrateOptions(t_end=t_end))
        assert traj.termination.kind == "blowup"
        states += [(d * p.A, p.B, float(u), d * float(v)) for u, v in zip(traj.u[::3], traj.v[::3])
                   if abs(u) >= 16.0 and abs(v) >= 128.0]
    return states


def test_scaled_seed_converges_in_one_sweep(monkeypatch):
    # seeded with the converged stages of its image under u(t) -> lam u(lam
    # t), an attempt scales them by f/f_prev = lam^3, exactly, onto its own
    # converged stages: one sweep per solve meets every stop.  From the
    # Taylor and quartic seeds one sweep meets none of the stops at tol = 0
    states = _cap_bound_states()
    assert len(states) >= 300
    for A, B, u, v in states:
        h = 0.1 / abs(u)
        for tol in (0.0, 1e-10, 1e-6):
            stages = _gauss6_attempt(A, B, u, v, h, tol)[4]
            monkeypatch.setattr(integrate_module, "_GAUSS6_MAX_SWEEPS", 1)
            for lam in (0.125, 4.0, 32.0):
                image = (A, B, lam * u, lam * lam * v, h / lam, tol)
                _gauss6_attempt(*image, stages)  # StageSolveFailure if a solve takes a second sweep
                assert tol > 0.0 or _returns(_gauss6_attempt, *image) is None
            monkeypatch.setattr(integrate_module, "_GAUSS6_MAX_SWEEPS", _GAUSS6_MAX_SWEEPS)


@pytest.mark.parametrize("slot", [9, 10])
@pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
def test_scaled_seed_falls_back_where_the_start_accelerations_cannot_scale(slot, bad):
    # the carried stages are scaled by f/f_prev and f_mid/f_mid_prev; where
    # f_prev (slot 9) or f_mid_prev (slot 10) is zero or not finite the
    # attempt takes the Taylor and quartic seeds, bit for bit
    A, B, u, v = 0.0, 2.0, 1e3, 1e6
    h = 0.1 / u
    plain = _gauss6_attempt(A, B, u, v, h, 1e-10)
    assert _gauss6_attempt(A, B, u, v, h, 1e-10, plain[4])[:4] != plain[:4]  # the seed moves the last bits
    prev = list(plain[4])
    prev[slot] = bad
    got = _gauss6_attempt(A, B, u, v, h, 1e-10, tuple(prev))
    assert tuple(x.hex() for x in got[:4]) == tuple(x.hex() for x in plain[:4]) and got[4] == plain[4]


def _record_attempts(monkeypatch, kind, raise_at=()):
    """Every attempt the driver makes, as [u, v, h, prev, stages]; stages is None where it raised.

    The attempts numbered in raise_at raise StageSolveFailure instead.
    """
    attempt, order = _STEPPERS[kind]
    calls = []

    def recorder(A, B, u, v, h, tol, prev):
        calls.append([u, v, h, prev, None])
        if len(calls) - 1 in raise_at:
            raise StageSolveFailure("raised by the test")
        out = attempt(A, B, u, v, h, tol, prev)
        calls[-1][4] = out[4]
        return out

    monkeypatch.setitem(_STEPPERS, kind, (recorder, order))
    return calls


def _check_seeds(calls, h_cap):
    """Assert that the driver seeded exactly the attempts inside the guard; return their number.

    An attempt is seeded when the cap set its step, the cap set the last
    accepted step and no attempt raised since, and the shape u'/u^2 moved
    by at most 2^-26 between their starts.  It is then given the very
    stages that accepted attempt returned.  An attempt was accepted where
    the next one starts elsewhere, or where it is the run's last.
    """
    last, seeded = None, 0
    for i, (u, v, h, prev, stages) in enumerate(calls):
        want = None
        if last is not None and abs(u) > 1.0 and h == h_cap / abs(u):
            up, vp, hp, _, carried = last
            q = up / u
            if abs(up) > 1.0 and hp == h_cap / abs(up) and vp != 0.0 and abs(v / vp * (q * q) - 1.0) <= 2.0**-26:
                want = carried
        assert prev is want, i
        seeded += prev is not None
        if stages is None:
            last = None
        elif i + 1 == len(calls) or calls[i + 1][:2] != [u, v]:
            last = calls[i]
    return seeded


def _shape_change(a, b):
    return abs(b[1] / a[1] * (a[0] / b[0]) ** 2 - 1.0)


def test_driver_seeds_only_inside_the_guard(monkeypatch):
    G = IntegratorKind.GAUSS6
    p3, p5, p8 = (params_from_dimension(m) for m in (3.0, 5.0, 8.0))

    def run(p, ic, kind=G, **options):
        calls = _record_attempts(monkeypatch, kind)
        opts = IntegrateOptions(**options)
        traj = integrate(p, State(0.0, *ic), kind, opts)
        return traj, calls, _check_seeds(calls, opts.h_cap_factor)

    # the m = 8 escape: most steps past the first cap-bound ones are seeded
    traj, calls, seeded = run(p8, (1.0, 1.0), t_end=10.0)
    assert traj.termination.kind == "blowup" and seeded > 0.7 * len(calls)
    # the cap sets the first steps of an m = 3 run from (2, 1), where the
    # shape moves by about 3e-2 a step: no step is seeded
    traj, calls, seeded = run(p3, (2.0, 1.0), t_end=10.0)
    capped = [c for c in calls if abs(c[0]) > 1.0 and c[2] == 0.1 / abs(c[0])]
    assert len(capped) >= 10 and seeded == 0
    assert 2e-2 < _shape_change(capped[0], capped[1]) < 5e-2
    # at m = 5 from (1, 1) the first cap-bound steps move the shape by 7e-2
    # down to 2e-2 and are not seeded; it settles towards blow-up, where they are
    traj, calls, seeded = run(p5, (1.0, 1.0), t_end=10.0)
    capped = [c for c in calls if abs(c[0]) > 1.0 and c[2] == 0.1 / abs(c[0])]
    assert seeded > 0 and all(c[3] is None for c in capped[:6])
    assert all(_shape_change(a, b) > 1e-2 for a, b in zip(capped[:6], capped[1:7]))
    # the gk_gauss6 shape: the h_max ceiling sets the steps up to
    # |u| = h_cap/h_max; none of them is seeded, the cap-bound ones past it are
    traj, calls, seeded = run(p5, (-1.25, 0.75), t_end=20.0, blowup_threshold=1e3, local_tol=1e-13,
                              h_max=5e-3, h_cap_factor=0.015)
    assert seeded > 0 and all(c[3] is None for c in calls if c[2] == 5e-3)
    # a run cut by t_end short of its blow-up: the cut last step is not seeded
    t_blow = quadrature_blowup_time(p8.B / 2.0, 1.0 - 0.5 * p8.B, 1.0)
    traj, calls, seeded = run(p8, (1.0, 1.0), t_end=t_blow * (1.0 - 1e-7))
    assert traj.termination.kind == "completed" and calls[-2][3] is not None and calls[-1][3] is None
    # a zero v_prev: the first two steps, from (2, 0), are cap-bound
    traj, calls, seeded = run(p8, (2.0, 0.0), t_end=10.0, h0=1.0)
    assert [c[2] for c in calls[:2]] == [0.1 / abs(c[0]) for c in calls[:2]] and calls[0][:2] != calls[1][:2]
    assert calls[0][1] == 0.0 and calls[1][3] is None and seeded > 0
    # RK4 returns no stages, so no RK4 attempt is seeded
    for p, ic in ((p8, (1.0, 1.0)), (p5, (1.0, 1.0))):
        traj, calls, seeded = run(p, ic, IntegratorKind.RK4, t_end=10.0)
        assert traj.termination.kind == "blowup" and seeded == 0 and all(c[4] is None for c in calls)


def test_stage_failure_clears_the_carried_stages(monkeypatch):
    # a NonFiniteError or StageSolveFailure drops the carried stages: no
    # attempt is seeded again before a cap-bound attempt has been accepted.
    # The halved step after a failure is below the cap, so it would not be
    # seeded from stages the driver kept either; this checks the behaviour
    p = params_from_dimension(8.0)
    plain = _record_attempts(monkeypatch, IntegratorKind.GAUSS6)
    integrate(p, State(0.0, 1.0, 1.0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=10.0))
    at = [i for i, c in enumerate(plain) if c[3] is not None][50:200:50]
    calls = _record_attempts(monkeypatch, IntegratorKind.GAUSS6, raise_at=set(at))
    traj = integrate(p, State(0.0, 1.0, 1.0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=10.0))
    assert traj.termination.kind == "blowup" and _check_seeds(calls, 0.1) > 0
    for i in at:
        assert calls[i][4] is None and calls[i + 1][3] is None and calls[i + 2][3] is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["t_end", "h0", "local_tol", "h_min", "blowup_threshold", "h_cap_factor", "h_max"]
)
def test_options_reject_non_finite(name, value):
    # a run toward a NaN t_end would never complete, only blow up or hit max_steps
    with pytest.raises(DomainError):
        IntegrateOptions(**{name: value})


def test_options_validation():
    with pytest.raises(DomainError):
        IntegrateOptions(h0=0.0)
    with pytest.raises(DomainError):
        IntegrateOptions(local_tol=-1e-10)
    with pytest.raises(DomainError):
        IntegrateOptions(record_every=0)
    with pytest.raises(DomainError):
        IntegrateOptions(h_cap_factor=0.0)
    with pytest.raises(DomainError):
        IntegrateOptions(h_max=-0.1)


@pytest.mark.parametrize("name", ["max_steps", "record_every"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_options_reject_counts_that_are_not_ints(name, value):
    # the driver tests n % record_every and n >= max_steps: record_every = 2.5
    # kept rows after steps 5 and 10 of a 13-step run, max_steps = 2.5 stopped
    # after 3 steps, and True passed for 1
    with pytest.raises(DomainError):
        IntegrateOptions(**{name: value})


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_blowup_threshold_beyond_the_square_root_of_float_max(kind):
    # 1e160 squared overflows to inf, which switches the |v| test off;
    # the run must still return a trajectory, not raise OverflowError
    opts = IntegrateOptions(t_end=1.0, blowup_threshold=1e160)
    traj = integrate(params_from_dimension(5.0), State(0.0, 0.5, 0.0), kind, opts)
    assert isinstance(traj, Trajectory)
    assert traj.termination.kind == "completed"


def test_forward_tanh_endpoint():
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(t_end=5.0, local_tol=1e-10)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "completed"
    u_exact, v_exact = exact_tanh(traj.t[-1])
    assert abs(traj.u[-1] - u_exact) < 1e-8
    assert abs(traj.v[-1] - v_exact) < 1e-8


def test_backward_tanh_endpoint():
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(t_end=-5.0, local_tol=1e-10)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, opts)
    assert traj.termination.kind == "completed"
    assert traj.t[-1] == pytest.approx(-5.0, abs=1e-12)
    u_exact, _ = exact_tanh(traj.t[-1])
    assert abs(traj.u[-1] - u_exact) < 1e-8
    # times decrease on a backward run
    assert traj.t[0] > traj.t[-1]


def test_backward_run_mirrors_forward_symmetric_ic():
    # from (0, -0.5) the solution is odd: u(-t) = -u(t) exactly
    p = params_from_dimension(3.0)
    fwd = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.RK4, IntegrateOptions(t_end=5.0))
    bwd = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.RK4, IntegrateOptions(t_end=-5.0))
    assert fwd.termination.kind == "completed"
    assert bwd.termination.kind == "completed"
    assert abs(bwd.u[-1] + fwd.u[-1]) < 1e-9
    assert abs(bwd.v[-1] - fwd.v[-1]) < 1e-9


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype="<f8").tobytes()


# the paper's m = 3, 5, 8, 9, then A = 2, B = -4 (disc < 0: no exact time) and
# A = 1, B = -1/8 (disc = 0)
CONJUGACY_PARAMS = [params_from_dimension(m) for m in (3.0, 5.0, 8.0, 9.0)] + [
    params_from_coeffs(2.0, -4.0), params_from_coeffs(1.0, -0.125)]


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_backward_runs_are_conjugate_to_forward_runs(kind):
    # (t, u', A) -> (-t, -u', -A) and u(t) -> -u(-t) map solutions onto
    # solutions, and the driver's arithmetic is odd under each, so a backward
    # run is the mirrored forward run bit for bit; the exact remainder comes
    # from escape_time in the caller's frame, so t_estimate need only agree to
    # test_exact's 1e-13; on these 48 pairs per method it is negated exactly
    rng = np.random.default_rng(25)
    worst = 0.0
    for p in CONJUGACY_PARAMS:
        mirror = params_from_coeffs(-p.A, p.B)
        for u0, v0 in rng.uniform(-2.0, 2.0, size=(2, 2)):
            for t0 in (0.0, 0.75):
                def run(q, t, u, v, t_end):
                    return integrate(q, State(t, u, v), kind, IntegrateOptions(t_end=t_end, blowup_threshold=1e6))

                bwd = run(p, t0, u0, v0, t0 - 5.0)
                pairs = (
                    (bwd, run(mirror, -t0, u0, -v0, -t0 + 5.0), (-1.0, 1.0, -1.0)),  # (t, u', A) -> -(t, u', A)
                    (run(p, -t0, -u0, v0, -t0 - 5.0), run(p, t0, u0, v0, t0 + 5.0), (-1.0, -1.0, 1.0)),  # u -> -u(-t)
                )
                for back, fwd, (st, su, sv) in pairs:
                    assert _bits(back.t) == _bits(st * fwd.t) and _bits(back.t_residual) == _bits(st * fwd.t_residual)
                    assert _bits(back.u) == _bits(su * fwd.u) and _bits(back.v) == _bits(sv * fwd.v)
                    eb, ef = back.termination, fwd.termination
                    assert (back.n_steps, eb.kind) == (fwd.n_steps, ef.kind)
                    assert eb.t_last == (None if ef.t_last is None else -ef.t_last)
                    assert eb.direction == (None if ef.direction is None else -ef.direction)
                    assert (eb.t_estimate is None) == (ef.t_estimate is None)
                    if ef.t_estimate is not None:
                        worst = max(worst, abs(eb.t_estimate + ef.t_estimate) / abs(ef.t_estimate))
    assert worst <= 1e-13


def test_blowup_detection_and_estimate():
    # u = 3/(3 - t): pole at t = 3
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=1e8)
    traj = integrate(p, State(0.0, 1.0, 1.0 / 3.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    assert traj.termination.direction == 1
    assert abs(traj.u[-1]) > 1e8
    t_est = estimate_blowup_time(traj)
    assert t_est == pytest.approx(3.0, rel=1e-4)
    assert traj.termination.t_estimate == pytest.approx(t_est, rel=1e-12)


def test_backward_blowup_estimate_is_negative():
    # u = 3/(3 + t): regular forward, pole at t = -3
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=-10.0, blowup_threshold=1e8)
    traj = integrate(p, State(0.0, 1.0, -1.0 / 3.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    assert traj.termination.direction == -1
    assert traj.termination.t_estimate == pytest.approx(-3.0, rel=1e-4)


def test_estimate_requires_blowup_termination():
    p = params_from_dimension(4.0)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, IntegrateOptions(t_end=1.0))
    assert traj.termination.t_estimate is None  # u = -tanh t is global
    with pytest.raises(DomainError, match="did not terminate in blow-up"):
        estimate_blowup_time(traj)
    # a run that completes short of its blow-up carries the exact time all the same
    p5 = params_from_dimension(5.0)
    traj = integrate(p5, State(0.0, 1.0, 1.0), IntegratorKind.RK4, IntegrateOptions(t_end=0.5))
    assert traj.termination.kind == "completed"
    assert traj.termination.t_estimate == pytest.approx(escape_time(p5, 1.0, 1.0, 1.0), rel=1e-9)
    with pytest.raises(DomainError, match="did not terminate in blow-up"):
        estimate_blowup_time(traj)


def test_short_blowup_tail_has_the_exact_estimate():
    # the run stops at |u| > 500 (no state reaches 1e3); the estimate is its
    # last time plus the exact remaining time, here within 7.2e-10 of the
    # quadrature time of the conserved energy (A = 0)
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=500.0)
    traj = integrate(p, State(0.0, 1.0, 1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    t_ref = quadrature_blowup_time(p.B / 2.0, 1.0 - 0.5 * p.B, 1.0)
    assert estimate_blowup_time(traj) == pytest.approx(t_ref, rel=5e-9)
    # disc < 0 never blows up: a run stopped by a low threshold has no estimate
    q = params_from_coeffs(0.0, -2.0)
    traj = integrate(q, State(0.0, 0.0, 1.0), IntegratorKind.RK4, IntegrateOptions(t_end=10.0, blowup_threshold=0.5))
    assert traj.termination.kind == "blowup"
    assert traj.termination.t_estimate is None
    with pytest.raises(DomainError, match="no exact blow-up time"):
        estimate_blowup_time(traj)


def test_estimate_is_the_drivers_fit():
    # estimate_blowup_time refits nothing: it reports the termination's estimate
    p = params_from_dimension(5.0)
    for u0, t_end in ((1.0, 10.0), (-1.0, -10.0)):
        traj = integrate(p, State(0.0, u0, 1.0), IntegratorKind.RK4, IntegrateOptions(t_end=t_end))
        assert traj.termination.kind == "blowup"
        assert estimate_blowup_time(traj) == traj.termination.t_estimate
        states = traj.states.copy()
        states.u[-1] *= 2.0  # a refit on the states would move the estimate
        edited = Trajectory(p, states, traj.termination, traj.integrator, traj.options)
        assert estimate_blowup_time(edited) == traj.termination.t_estimate


def test_step_underflow_termination():
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(h0=1e-3, h_min=1e-2, t_end=1.0)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "step_underflow"
    assert traj.termination.t_last is not None


def test_max_steps_termination():
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(h0=1e-3, t_end=100.0, max_steps=5)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "max_steps"
    assert traj.n_steps == 5


@pytest.mark.parametrize("d", [1.0, -1.0])
def test_t_last_is_the_last_recorded_time(d):
    # max_steps and step_underflow report their last time, in the caller's
    # frame; 40 and the underflow's step counts are no multiples of 7, so the
    # last state falls between records.  Only a blow-up has a direction.
    p4, p8 = params_from_dimension(4.0), params_from_dimension(8.0)
    runs = {
        "max_steps": (p4, State(0.75, 0.0, -1.0), dict(t_end=0.75 + d * 100.0, max_steps=40)),
        # u = 3/(3 - (t - 0.75) d) at m = 8: the step cap 0.1/|u| falls below h_min near the pole
        "step_underflow": (p8, State(0.75, 1.0, d / 3.0), dict(t_end=0.75 + d * 10.0, h_min=1e-4)),
        "blowup": (p8, State(0.75, 1.0, d / 3.0), dict(t_end=0.75 + d * 10.0)),
        "completed": (p4, State(0.75, 0.0, -1.0), dict(t_end=0.75 + d * 2.0)),
    }
    for want, (p, s0, options) in runs.items():
        traj = integrate(p, s0, IntegratorKind.RK4, IntegrateOptions(record_every=7, **options))
        end = traj.termination
        assert end.kind == want
        if want in ("max_steps", "step_underflow"):
            assert traj.n_steps % 7 and float(traj.t[-1]).hex() == end.t_last.hex()
        else:
            assert end.t_last is None
        assert end.direction == (d if want == "blowup" else None)


def test_record_every_thins_output():
    p = params_from_dimension(4.0)
    dense = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, IntegrateOptions(t_end=2.0))
    thin = integrate(
        p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, IntegrateOptions(t_end=2.0, record_every=10)
    )
    assert thin.n_steps == dense.n_steps
    assert len(thin.states) < len(dense.states)
    # final state is recorded regardless of the stride
    assert thin.t[-1] == pytest.approx(2.0, abs=1e-12)


def test_time_residuals_recorded():
    p = params_from_dimension(4.0)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=3.0))
    assert traj.t_residual is not None
    assert len(traj.t_residual) == len(traj.states)
    assert traj.t_residual[0] == 0.0
    assert max(abs(r) for r in traj.t_residual) < 1e-9


# sha256 of the little-endian float64 bytes of t, then u, then v.  The
# columns are built from +, -, *, / alone, apart from the libm power in the
# step-size factor (tol/err)^(1/(order+1)); a change in them is a change in
# the integrator.
PINNED_TRAJECTORIES = [
    # (m, method, (u0, v0), t_end, record_every, termination, sha256)
    (4.0, IntegratorKind.RK4, (0.0, -1.0), 5.0, 1, "completed",
     "9120611313c05d739e045e1664df287ff7a516622bbb97b74146434befb41ff5"),
    (5.0, IntegratorKind.RK4, (-1.0, 1.0), -10.0, 5, "blowup",
     "1c6b16241145e3aced87a23045a679a095f2b65d54f701fe304f884963439a67"),
    (5.0, IntegratorKind.GAUSS6, (1.0, 1.0), 10.0, 1, "blowup",
     "039a37bd4b1955bc9add564565fc68ad1bebe566ddb07a9b19e112e5abc8f7bf"),
    (4.0, IntegratorKind.GAUSS6, (0.0, -1.0), -5.0, 3, "completed",
     "f8e8a4accc738031f5cc858ef35c7a6a81cc5f3ed97544ff35cc674deb5aa77e"),
]


def _pin_id(row) -> str:
    """A pinned run's test id, (m, method, start): it stays when the digest is re-pinned."""
    m, kind, (u0, v0) = row[:3]
    return f"m{m:g}-{kind.value}-({u0:g},{v0:g})"


@pytest.mark.parametrize("m, kind, ic, t_end, every, term, digest", PINNED_TRAJECTORIES,
                         ids=[_pin_id(r) for r in PINNED_TRAJECTORIES])
def test_trajectory_bits_are_pinned(m, kind, ic, t_end, every, term, digest):
    opts = IntegrateOptions(t_end=t_end, record_every=every)
    traj = integrate(params_from_dimension(m), State(0.0, *ic), kind, opts)
    assert traj.termination.kind == term
    h = hashlib.sha256()
    for col in (traj.t, traj.u, traj.v):
        h.update(np.ascontiguousarray(col, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


# Whole-run pins, for the paths the pins above miss: the digest covers
# t, u, v and t_residual, then the line "kind direction t_last n_steps"
# (t_estimate, the exact remaining time through libm, is left out).
PINNED_RUNS = [
    # (m, method, (u0, v0), options, termination, sha256)
    # escape to |u| = 1e8, where a stage solve takes at most 3 passes (9.3 on
    # average before the Nystrom iteration and the seeds)
    (8.0, IntegratorKind.GAUSS6, (1.0, 1.0), dict(t_end=10.0), "blowup",
     "0af9218722fdfb690b3db67be7627da78d1ff73cc84f453df13f1c5ddd27fc70"),
    # the gk_gauss6 benchmark shape at m = 5: step ceiling, cap 0.01/max|k|, tight tolerance
    (5.0, IntegratorKind.GAUSS6, (-1.25, 0.75),
     dict(t_end=20.0, blowup_threshold=1e3, local_tol=1e-13, h_max=5e-3, h_cap_factor=0.015), "blowup",
     "72730e92db695efe981b7b2031f548fbcda7fbe09b23b8778759e83ae0e2300f"),
    (3.0, IntegratorKind.GAUSS6, (0.75, -1.25), dict(t_end=-20.0, h_max=0.01, max_steps=400), "max_steps",
     "99011b2ceb2610607f49c419bc0b2923aedf29e107ccb4d46d102686d89c47bd"),
    # 818 accepted steps: the last state falls between records
    (8.0, IntegratorKind.RK4, (-1.0, 0.5),
     dict(t_end=-10.0, record_every=7, blowup_threshold=1e6, h_cap_factor=0.05), "blowup",
     "7d8610e9625b30f2b473a24494a081344e2e322cb27682b3a4f61030adb717bc"),
]


@pytest.mark.parametrize("m, kind, ic, options, term, digest", PINNED_RUNS, ids=[_pin_id(r) for r in PINNED_RUNS])
def test_whole_runs_are_pinned(m, kind, ic, options, term, digest):
    traj = integrate(params_from_dimension(m), State(0.0, *ic), kind, IntegrateOptions(**options))
    assert traj.termination.kind == term
    assert _run_digest(traj) == digest


def _run_digest(traj):
    h = hashlib.sha256()
    for col in (traj.t, traj.u, traj.v, traj.t_residual):
        h.update(np.ascontiguousarray(col, dtype="<f8").tobytes())
    end = traj.termination
    h.update(f"{end.kind} {end.direction} {end.t_last!r} {traj.n_steps}".encode())
    return h.hexdigest()


def test_h_max_ceiling_is_respected():
    p = params_from_dimension(4.0)
    traj = integrate(
        p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, IntegrateOptions(t_end=1.0, h_max=0.01)
    )
    dt = [b - a for a, b in zip(traj.t[:-1], traj.t[1:])]
    assert max(dt) <= 0.01 + 1e-12


def test_roundtrip_m4():
    p = params_from_dimension(4.0)
    fwd = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=2.0))
    back = integrate(p, fwd.states[-1], IntegratorKind.GAUSS6, IntegrateOptions(t_end=0.0))
    assert back.termination.kind == "completed"
    assert abs(back.u[-1] - 0.0) < 1e-9
    assert abs(back.v[-1] + 1.0) < 1e-9


def test_roundtrip_m3():
    p = params_from_dimension(3.0)
    opts = IntegrateOptions(t_end=10.0, local_tol=1e-12)
    fwd = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.GAUSS6, opts)
    back = integrate(p, fwd.states[-1], IntegratorKind.GAUSS6, IntegrateOptions(t_end=0.0, local_tol=1e-12))
    assert abs(back.u[-1]) < 1e-6
    assert abs(back.v[-1] + 0.5) < 1e-6


def test_quadrature_blowup_time_exact_case():
    # integral_1^inf dv / sqrt(v^4 / 9) = 3
    assert quadrature_blowup_time(1.0 / 9.0, 0.0, 1.0) == pytest.approx(3.0, rel=1e-10)


def test_quadrature_blowup_time_oracle():
    t = quadrature_blowup_time(1.0, 1.0, 0.0)
    assert t == pytest.approx(ESCAPE_TIME_UNIT_QUARTIC, rel=1e-10)


def test_quadrature_blowup_time_domain_errors():
    with pytest.raises(DomainError):
        quadrature_blowup_time(-1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        quadrature_blowup_time(1.0, -16.0, 1.0)  # radicand negative at v = 1
    with pytest.raises(DomainError):
        quadrature_blowup_time(1.0, -1.0, 0.5)  # radicand vanishes inside the range
    # C = 0: integral_a^inf dv / (sqrt(A) v^2) diverges for every a <= 0
    for a in (0.0, -1.0, -1e-3):
        with pytest.raises(DomainError):
            quadrature_blowup_time(1.0, 0.0, a)
    # a non-finite argument, here and in F_half
    for args in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
                 (1.0, -math.inf, 1.0), (1.0, 1.0, math.inf), (1.0, -1.0, -math.inf)):
        with pytest.raises(DomainError):
            quadrature_blowup_time(*args)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            F_half(phi)


def _escape_time_cases(n=200, seed=11):
    """Seeded (Acoef, C, a) over Acoef, |C| in [1e-3, 1e3] and all signs of C.

    C > 0 takes left endpoints on both sides of 0; C < 0 takes endpoints
    from the turning point v* = (|C|/Acoef)^(1/4) outward, a quarter of
    them within 1e-8 relative of v*.  Closer in, one rounding of a moves
    T by about 0.4 eps / sqrt(a/v* - 1) relative (the integral's own
    condition number), which exceeds 1e-12 below a/v* - 1 ~ 1e-9.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        Acoef = 10.0 ** rng.uniform(-3.0, 3.0)
        C = 10.0 ** rng.uniform(-3.0, 3.0)
        lam = (C / Acoef) ** 0.25
        kind = i % 4
        if kind == 0:
            cases.append((Acoef, 0.0, lam * 10.0 ** rng.uniform(-2.0, 2.0)))
        elif kind == 1:
            cases.append((Acoef, C, lam * rng.uniform(-5.0, 5.0)))
        elif kind == 2:
            cases.append((Acoef, -C, lam * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0))))
        else:
            cases.append((Acoef, -C, lam * (1.0 + 10.0 ** rng.uniform(-9.0, -8.0))))
    return cases


def test_quadrature_blowup_time_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    worst = 0.0
    try:
        for Acoef, C, a in _escape_time_cases():
            A_, C_, a_ = mp.mpf(Acoef), mp.mpf(C), mp.mpf(a)
            if C < 0:
                # v = a + s^2 removes the inverse-square-root endpoint singularity
                r_a = A_ * a_**4 + C_
                s_knee = mp.sqrt(mp.sqrt(r_a / (4 * A_ * a_**3)))
                ref = mp.quad(
                    lambda s: 2 * s / mp.sqrt(A_ * (a_ + s * s) ** 4 + C_),
                    [0, s_knee, mp.sqrt(a_), mp.inf],
                )
            else:
                ref = mp.quad(lambda v: 1 / mp.sqrt(A_ * v**4 + C_), [a_, max(a_, 0) + 1, mp.inf])
            got = quadrature_blowup_time(Acoef, C, a)
            worst = max(worst, float(abs(got - ref) / ref))
    finally:
        mp.dps = 15
    assert worst < 1e-12


def test_quadrature_blowup_time_at_huge_endpoints_matches_mpmath():
    # a up to 1e300: a^4 overflows past 1e77, so the radicand test and the
    # angles must not form it.  The reference substitutes w = 1/v:
    # integral_|a|^inf dv / sqrt(Acoef v^4 + C) = integral_0^(1/|a|) dw / sqrt(Acoef + C w^4),
    # and for C > 0 and a < 0 it is the whole line's integral minus that tail
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    rng = np.random.default_rng(17)
    worst = 0.0
    try:
        for i in range(120):
            Acoef, C = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            a = 10.0 ** rng.uniform(2.0, 300.0)
            C, a = ((C, a), (C, -a), (0.0, a), (-C, a))[i % 4]
            A_, C_ = mp.mpf(Acoef), mp.mpf(C)
            ref = mp.quad(lambda w: 1 / mp.sqrt(A_ + C_ * w**4), [0, 1 / abs(mp.mpf(a))])
            if a < 0:
                ref = 2 * mp.quad(lambda v: 1 / mp.sqrt(A_ * v**4 + C_), [0, 1, mp.inf]) - ref
            got = quadrature_blowup_time(Acoef, C, a)
            worst = max(worst, float(abs(got - ref) / ref))
    finally:
        mp.dps = 15
    assert worst < 1e-12
