"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS line on success; a failing guarantee
shows up as an ordinary pytest failure for that line.
"""
import math
import time

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    ProfileF,
    State,
    check_gk_identity,
    classify,
    energy_drift,
    eq0_residual_fd,
    eq0_residual_from_u,
    estimate_blowup_time,
    integrate,
    K_agm,
    lemniscate_quarter_period,
    params_from_coeffs,
    params_from_dimension,
    period,
    quadrature_blowup_time,
    reconstruct_f,
    rhs,
    sl,
    step_gauss6,
    step_rk4,
)
from blowuplab.integrate import Trajectory

# tanh-sinh quadrature oracles, computed independently and frozen
QUARTER_PERIOD = 1.31102877714605990523235  # integral_0^1 dy / sqrt(1 - y^4)
ESCAPE_TIME_UNIT_QUARTIC = 1.85407467730137191843385  # integral_0^inf dw / sqrt(1 + w^4)


def test_criterion_01_m4_closed_form_reproduction():
    t_start = time.perf_counter()
    p = params_from_dimension(4.0)
    opts_f = IntegrateOptions(t_end=5.0, local_tol=1e-10)
    opts_b = IntegrateOptions(t_end=-5.0, local_tol=1e-10)
    fwd = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, opts_f)
    bwd = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.RK4, opts_b)
    assert fwd.termination.kind == "completed"
    assert bwd.termination.kind == "completed"
    worst = 0.0
    for traj in (fwd, bwd):
        worst = max(worst, float(np.max(np.abs(traj.u + np.tanh(traj.t)))))
    assert worst <= 1e-7

    # one increasing-time trajectory spanning [-5, 5] for reconstruction
    states = np.concatenate((bwd.states[::-1][:-1], fwd.states)).view(np.recarray)
    both = Trajectory(p, states, fwd.termination, fwd.integrator, fwd.options)
    prof = reconstruct_f(both, C=1.0)
    f = prof.f / prof.f[np.argmin(np.abs(prof.x))]  # normalize at t = 0
    exact = 1.0 / np.cosh(prof.x)
    rel = np.max(np.abs(f - exact) / exact)
    assert rel <= 1e-6
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: tanh error {worst:.2e}, profile error {rel:.2e}, {elapsed:.2f}s")


def test_criterion_02_m8_energy_conservation():
    t_start = time.perf_counter()
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=50.0, blowup_threshold=1e3, local_tol=1e-12)
    traj = integrate(p, State(0.0, 1.0, 0.0), IntegratorKind.GAUSS6, opts)
    assert traj.termination.kind == "blowup"
    assert abs(traj.u[-1]) > 1e3
    drift = energy_drift(p, traj)
    assert drift <= 1e-10
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    print(f"\ncriterion 2 PASS: energy drift {drift:.2e}, {elapsed:.2f}s")


def test_criterion_03_rational_blowup_time():
    t_start = time.perf_counter()
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=1e8, local_tol=1e-10)
    traj = integrate(p, State(0.0, 1.0, 1.0 / 3.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    t_est = estimate_blowup_time(traj)
    assert abs(t_est - 3.0) / 3.0 <= 0.01
    t_quad = quadrature_blowup_time(p.B / 2.0, 0.0, 1.0)
    assert abs(t_est - t_quad) / t_quad <= 0.01
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    print(f"\ncriterion 3 PASS: estimate {t_est:.6f} vs quadrature {t_quad:.6f}, {elapsed:.2f}s")


def test_criterion_04_blowup_time_vs_quadrature_oracle():
    t_start = time.perf_counter()
    # (w')^2 = 1 + w^4 from w = 0 integrated as w'' = 2 w^3, w'(0) = 1
    p = params_from_coeffs(0.0, 2.0)
    opts = IntegrateOptions(t_end=5.0, blowup_threshold=1e8, local_tol=1e-11)
    traj = integrate(p, State(0.0, 0.0, 1.0), IntegratorKind.RK4, opts)
    assert traj.termination.kind == "blowup"
    t_est = estimate_blowup_time(traj)
    rel = abs(t_est - ESCAPE_TIME_UNIT_QUARTIC) / ESCAPE_TIME_UNIT_QUARTIC
    assert rel <= 1e-4
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    print(f"\ncriterion 4 PASS: escape time {t_est:.10f}, rel error {rel:.2e}, {elapsed:.2f}s")


def test_criterion_05_lemniscatic_constants():
    Q = lemniscate_quarter_period()
    assert abs(Q - QUARTER_PERIOD) <= 1e-12

    # first positive zero of sl, expected at 2Q
    lo, hi = 1.5 * Q, 2.5 * Q
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sl(lo)[0] * sl(mid)[0] <= 0.0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert abs(zero - 2.0 * Q) <= 1e-6

    ident = K_agm(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
    assert abs(ident - Q) <= 1e-10
    print(f"\ncriterion 5 PASS: quarter period {Q:.15f}, zero at {zero:.9f}")


def test_criterion_06_m3_global_decay():
    t_start = time.perf_counter()
    p = params_from_dimension(3.0)
    opts = IntegrateOptions(t_end=200.0, local_tol=1e-10)
    fwd = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.RK4, opts)
    assert fwd.termination.kind == "completed"
    assert float(np.max(np.abs(fwd.u))) <= 1.0
    assert abs(fwd.u[-1]) <= 1e-2
    g = fwd.v + p.k_minus * fwd.u**2
    assert np.all(g < 0.0)  # g_{k_minus}(0) = -0.5: sign never flips

    # the initial data is odd-symmetric, so the backward branch mirrors
    bwd = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.RK4,
                    IntegrateOptions(t_end=-200.0, local_tol=1e-10))
    assert bwd.termination.kind == "completed"
    assert abs(bwd.u[-1] + fwd.u[-1]) <= 1e-8
    assert abs(bwd.v[-1] - fwd.v[-1]) <= 1e-8
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    print(f"\ncriterion 6 PASS: |u(200)| = {abs(fwd.u[-1]):.2e}, {elapsed:.2f}s")


def test_criterion_07_gk_exponential_law():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (3.0, 5.0, 9.0):
        p = params_from_dimension(m)
        k_big = max(abs(p.k_minus), abs(p.k_plus))
        opts = IntegrateOptions(
            t_end=20.0,
            blowup_threshold=1e3,
            local_tol=1e-13,
            h_max=5e-3,
            h_cap_factor=0.01 / k_big,
        )
        for _ in range(10):
            u0, v0 = rng.uniform(-1.5, 1.5, size=2)
            traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
            # restrict to the recorded states with |u| <= 1e3
            absu = np.abs(traj.u)
            if absu.max() > 1e3:
                n = int(np.argmax(absu > 1e3))
            else:
                n = len(traj.states)
            sub = Trajectory(
                p, traj.states[:n], traj.termination, traj.integrator, traj.options,
                t_residual=traj.t_residual[:n],
            )
            for k in (p.k_minus, p.k_plus):
                worst = max(worst, check_gk_identity(p, sub, k))
    assert worst <= 1e-6
    print(f"\ncriterion 7 PASS: worst g_k deviation {worst:.2e}")


def test_criterion_08_universal_blowup_m_ge_5():
    t_start = time.perf_counter()
    grid = np.linspace(-2.0, 2.0, 8)
    opts_tpl = dict(blowup_threshold=1e8, local_tol=1e-8)
    checked = 0
    for m in (5.0, 8.0, 9.0):
        p = params_from_dimension(m)
        for u0 in grid:
            for v0 in grid:
                verdict = classify(p, float(u0), float(v0))
                assert verdict.kind != "global_bounded"
                # prefer the direction the verdict names: its t_bound's, which a
                # no_global_solution verdict may carry backward, else its kind's
                bound = (verdict.detail or {}).get("t_bound")
                first = -1.0 if verdict.kind == "blowup_backward" else 1.0
                if bound is not None:
                    first = math.copysign(1.0, bound)
                t_est = None
                for sign in (first, -first):
                    opts = IntegrateOptions(t_end=sign * 50.0, **opts_tpl)
                    traj = integrate(p, State(0.0, float(u0), float(v0)),
                                     IntegratorKind.RK4, opts)
                    if traj.termination.kind == "blowup":
                        t_est = traj.termination.t_estimate
                        break
                assert t_est is not None, f"m={m} ({u0},{v0}) never blew up within |t|<=50"
                assert abs(t_est) <= 50.0
                if bound is not None:
                    if bound > 0:
                        assert 0.0 < t_est <= bound * (1.0 + 1e-6)
                    else:
                        assert bound * (1.0 + 1e-6) <= t_est < 0.0
                checked += 1
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(f"\ncriterion 8 PASS: {checked} initial conditions, {elapsed:.1f}s")


def test_criterion_09_no_periodic_orbits_m3():
    t_start = time.perf_counter()
    # m = 3 has disc = 9 > 0: no orbit closes, so the exact period is refused,
    # and u crosses 0 at most once, here at the start: each decay run keeps
    # the sign of v0 out to t = 30
    p3 = params_from_dimension(3.0)
    opts = IntegrateOptions(h0=1e-3, t_end=30.0, local_tol=1e-12)
    for v0 in np.linspace(-1.0, -0.1, 10).tolist():
        with pytest.raises(DomainError, match=r"disc = A\^2 \+ 8B < 0, got disc = 9"):
            period(p3, 0.0, v0)
        traj = integrate(p3, State(0.0, 0.0, v0), IntegratorKind.GAUSS6, opts)
        assert traj.termination.kind == "completed"
        assert np.all(traj.u[1:] * v0 > 0.0)

    # negative-discriminant coefficients: one exact period closes the orbit;
    # the closure read 1.2e-11 (the return-map search it replaced, 2.9e-12)
    p = params_from_coeffs(2.0, -4.0)
    T = period(p, 0.0, 1.0)
    traj = integrate(p, State(0.0, 0.0, 1.0), IntegratorKind.GAUSS6,
                     IntegrateOptions(h0=1e-3, t_end=T, local_tol=1e-12))
    assert traj.termination.kind == "completed" and traj.t[-1] == T
    closure = math.hypot(traj.u[-1], traj.v[-1] - 1.0)
    assert closure <= 1e-5
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"\ncriterion 9 PASS: period {T:.6f}, closure {closure:.2e}, {elapsed:.1f}s")


def test_criterion_10_integrator_orders():
    # u = -3 tanh(3t): steep enough that the finest Gauss6 error stays
    # well above rounding
    p = params_from_dimension(4.0)
    hs = (0.1, 0.05, 0.025)
    errs = {IntegratorKind.RK4: [], IntegratorKind.GAUSS6: []}
    for kind in errs:
        stepper = step_rk4 if kind is IntegratorKind.RK4 else step_gauss6
        for h in hs:
            s = State(0.0, 0.0, -9.0)
            n = int(round(1.0 / h))
            for _ in range(n):
                s = stepper(p, s, h)
            u_exact = -3.0 * math.tanh(3.0 * s.t)
            v_exact = -9.0 / math.cosh(3.0 * s.t) ** 2
            errs[kind].append(max(abs(s.u - u_exact), abs(s.v - v_exact)))
    order_rk4 = float(np.polyfit(np.log(hs), np.log(errs[IntegratorKind.RK4]), 1)[0])
    order_g6 = float(np.polyfit(np.log(hs), np.log(errs[IntegratorKind.GAUSS6]), 1)[0])
    assert abs(order_rk4 - 4.0) <= 0.3
    assert abs(order_g6 - 6.0) <= 0.3
    print(f"\ncriterion 10 PASS: fitted orders rk4 {order_rk4:.2f}, gauss6 {order_g6:.2f}")


def test_criterion_11_third_order_bridge():
    # sech profile solves the m = 4 third-order equation
    x = np.arange(-3.0, 3.0 + 0.5e-3, 1e-3)
    prof = ProfileF(x=x, f=1.0 / np.cosh(x), C=1.0)
    res_sech = eq0_residual_fd(prof, 4.0)
    assert res_sech <= 1e-5

    # reconstructed profile from the m = 3 global decay solution; the
    # step ceiling keeps cubic-Hermite resampling error below the
    # third-order differencing floor
    p3 = params_from_dimension(3.0)
    opts = IntegrateOptions(t_end=15.0, local_tol=1e-10, h_max=1e-3)
    traj = integrate(p3, State(0.0, 0.0, -0.5), IntegratorKind.RK4, opts)
    prof3 = reconstruct_f(traj, C=1.0, step=1e-3)
    res_m3 = eq0_residual_fd(prof3, 3.0)
    assert res_m3 <= 1e-5

    # second-order form: algebraic identity on-shell, zero to rounding
    rng = np.random.default_rng(23)
    worst = 0.0
    for m in (3.0, 4.0, 5.0, 8.0, 9.0):
        p = params_from_dimension(m)
        for _ in range(20):
            u, v = rng.uniform(-5.0, 5.0, size=2)
            _, a = rhs(p, State(0.0, u, v))
            scale = max(1.0, abs(u * v) + abs(u) ** 3)
            worst = max(worst, abs(eq0_residual_from_u(m, u, v, a)) / scale)
    assert worst <= 1e-12
    print(
        f"\ncriterion 11 PASS: sech residual {res_sech:.2e}, "
        f"reconstructed residual {res_m3:.2e}, on-shell {worst:.1e}"
    )
