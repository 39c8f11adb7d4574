import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import (
    DomainError,
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
from blowuplab.errors import FitFailure, NonFiniteError
from blowuplab.integrate import _STEPPERS, _blowup_time

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
    with pytest.raises(DomainError):
        step_rk4(p, s0, 0.0)
    with pytest.raises(DomainError):
        step_gauss6(p, s0, 0.0)


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
    # the driver calls the increments directly and halves h on
    # NonFiniteError, so an increment never returns a non-finite state
    increment, _ = _STEPPERS[kind]
    with pytest.raises(NonFiniteError):
        increment(params_from_coeffs(0.0, 2.0), u, v, 1.0)


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
    with pytest.raises(FitFailure):
        estimate_blowup_time(traj)


def test_short_blowup_tail_has_no_estimate():
    # the run stops at |u| > 500, so fewer than 4 states reach |u| >= 1e3
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=500.0)
    traj = integrate(p, State(0.0, 1.0, 1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    assert traj.termination.t_estimate is None
    with pytest.raises(FitFailure):
        estimate_blowup_time(traj)


def test_blowup_fit_needs_a_time_span():
    # near |t| = 7.6e12 steps of 1e-8 leave t unchanged, so the tail has no slope
    u = np.geomspace(1e3, 1e8, 20)
    assert _blowup_time(np.full(20, 7.6e12), u) is None
    assert _blowup_time(np.linspace(1.0, 2.0, 20), u) is not None


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
     "3ebf643cf8989ee8e673c38efb654427bfbf054135714e4d61eaa0e82c612503"),
    (4.0, IntegratorKind.GAUSS6, (0.0, -1.0), -5.0, 3, "completed",
     "b586bffeeda027e352bc933f23bb8ceb3c8b93585dfbfb8b461a648cce21378f"),
]


@pytest.mark.parametrize("m, kind, ic, t_end, every, term, digest", PINNED_TRAJECTORIES)
def test_trajectory_bits_are_pinned(m, kind, ic, t_end, every, term, digest):
    opts = IntegrateOptions(t_end=t_end, record_every=every)
    traj = integrate(params_from_dimension(m), State(0.0, *ic), kind, opts)
    assert traj.termination.kind == term
    h = hashlib.sha256()
    for col in (traj.t, traj.u, traj.v):
        h.update(np.ascontiguousarray(col, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


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
