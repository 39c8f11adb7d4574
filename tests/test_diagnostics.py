import math
from dataclasses import replace

import numpy as np
import pytest

from blowuplab import (
    IntegrateOptions,
    IntegratorKind,
    State,
    check_gk_identity,
    cumulative_u_integral,
    diagnostics_report,
    energy,
    energy_drift,
    g_k,
    integrate,
    params_from_coeffs,
    params_from_dimension,
)
from blowuplab.errors import DomainError
from blowuplab.integrate import Termination, Trajectory


def test_energy_and_gk_values():
    p = params_from_dimension(8.0)
    s = State(0.0, 2.0, 3.0)
    assert energy(p, s) == pytest.approx(4.5 - 0.25 * (2.0 / 9.0) * 16.0, rel=1e-15)
    assert g_k(s, 0.5) == pytest.approx(3.0 + 0.5 * 4.0, rel=1e-15)


def test_gk_rejects_non_root():
    p = params_from_dimension(5.0)
    traj = integrate(p, State(0.0, 0.1, 0.0), IntegratorKind.RK4, IntegrateOptions(t_end=1.0))
    with pytest.raises(DomainError, match=r"does not solve 2k\^2 \+ Ak - B = 0"):
        check_gk_identity(p, traj, 0.5)


def test_gk_accepts_the_roots_of_large_coefficients():
    # 2k^2 + A k - B leaves 1.16e-10 at the computed k_plus of B = 1e6, so
    # the root test (model.is_characteristic_root) is relative to the size of its terms
    p = params_from_coeffs(0.0, 1e6)
    traj = integrate(p, State(0.0, 1e-3, 0.0), IntegratorKind.RK4, IntegrateOptions(t_end=1e-2))
    for k in (p.k_minus, p.k_plus):
        assert check_gk_identity(p, traj, k) < 1e-8
    with pytest.raises(DomainError, match=r"does not solve 2k\^2 \+ Ak - B = 0"):
        check_gk_identity(p, traj, p.k_plus * (1.0 + 1e-6))


# the four disc < 0 runs: (A, B), (u0, v0) and t_end
DISC_NEGATIVE_RUNS = (
    ((2.0, -4.0), (0.0, 1.0), 20.0),
    ((-3.0, -2.0), (1.0, 1.0), 30.0),
    ((0.0, -2.0), (0.0, 1.0), 20.0),
    ((1.0, -1.0), (1.0, 0.0), 30.0),
)


def test_gk_identity_at_the_complex_root():
    # the law holds at k = (-A + i sqrt(-disc)) / 4 too, and is then the
    # only exact check of a disc < 0 run; the report gives its residual
    for (A, B), (u0, v0), t_end in DISC_NEGATIVE_RUNS:
        p = params_from_coeffs(A, B)
        assert p.disc < 0.0
        k = complex(-A / 4.0, math.sqrt(-p.disc) / 4.0)
        for kind, tol, gate in ((IntegratorKind.GAUSS6, 1e-12, 1e-9), (IntegratorKind.RK4, 1e-10, 1e-7)):
            traj = integrate(p, State(0.0, u0, v0), kind, IntegrateOptions(t_end=t_end, local_tol=tol))
            assert traj.termination.kind == "completed"
            res = check_gk_identity(p, traj, k)
            assert 0.0 < res < gate, (A, B, kind, res)
            assert diagnostics_report(p, traj).gk_identity_residual_max == res
            assert check_gk_identity(p, traj, k.conjugate()) == pytest.approx(res, rel=1e-12)
        with pytest.raises(DomainError, match=r"does not solve 2k\^2 \+ Ak - B = 0"):
            check_gk_identity(p, traj, k * (1.0 + 1e-6))


def test_diagnostics_report_flags_a_corrupted_state():
    # one state off the solution breaks the g_k law far above its gate, for
    # disc < 0 (the complex root) as for disc >= 0
    for p, u0, v0 in ((params_from_coeffs(2.0, -4.0), 0.0, 1.0), (params_from_dimension(3.0), 0.0, -0.5)):
        opts = IntegrateOptions(t_end=20.0, local_tol=1e-12)
        traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
        assert diagnostics_report(p, traj).gk_identity_residual_max < 1e-9
        states = traj.states.copy()
        states.v[len(states) // 2] += 1e-3
        bad = diagnostics_report(p, replace(traj, states=states))
        assert bad.gk_identity_residual_max > 1e-4


def test_cumulative_integral_matches_log_cosh():
    # for u = -tanh t the integral is -log cosh t
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(t_end=3.0, local_tol=1e-12)
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, opts)
    I = cumulative_u_integral(p, traj)
    exact = -np.log(np.cosh(traj.t))
    assert I[0] == 0.0
    assert np.max(np.abs(I - exact)) < 1e-10


def test_cumulative_integral_matches_fsum_prefixes():
    # with A = B = 0 and constant u' every higher Hermite term is exactly
    # zero, so segment i is 0.5 h_i (u_i + u_{i+1}); values spread over 16
    # decades make a plain float64 running sum miss by many ulps
    p = params_from_coeffs(0.0, 0.0)
    rng = np.random.default_rng(3)
    n = 2000
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))))
    u = 10.0 ** rng.uniform(-8.0, 8.0, n)
    states = np.rec.fromarrays([t, u, np.ones(n)], names="t,u,v")
    traj = Trajectory(p, states, Termination("completed"), IntegratorKind.RK4, IntegrateOptions())
    seg = 0.5 * np.diff(t) * (u[:-1] + u[1:])
    ref = np.array([math.fsum(seg[:i]) for i in range(n)])
    ulp = np.spacing(ref)
    assert np.all(np.abs(cumulative_u_integral(p, traj) - ref) <= ulp)
    plain = np.concatenate(([0.0], np.cumsum(seg)))
    assert np.max(np.abs(plain - ref) / ulp) > 10.0


def test_energy_drift_conserved_when_A_zero():
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=1e6, local_tol=1e-12)
    traj = integrate(p, State(0.0, 1.0, 0.0), IntegratorKind.GAUSS6, opts)
    assert energy_drift(p, traj) < 1e-11


def test_gk_identity_forward_m5():
    p = params_from_dimension(5.0)
    opts = IntegrateOptions(
        t_end=20.0,
        blowup_threshold=1e3,
        local_tol=1e-13,
        h_max=5e-3,
        h_cap_factor=0.01 / max(abs(p.k_minus), abs(p.k_plus)),
    )
    traj = integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, opts)
    assert check_gk_identity(p, traj, p.k_plus) < 1e-6
    assert check_gk_identity(p, traj, p.k_minus) < 1e-6


def test_gk_identity_decay_m3():
    p = params_from_dimension(3.0)
    opts = IntegrateOptions(t_end=50.0, local_tol=1e-12)
    traj = integrate(p, State(0.0, 0.0, -0.5), IntegratorKind.GAUSS6, opts)
    assert check_gk_identity(p, traj, p.k_minus) < 1e-6
    assert check_gk_identity(p, traj, p.k_plus) < 1e-6


def test_gk_zero_on_separatrix_stays_zero():
    # initial data on the parabola v = -k u^2 makes g_k vanish identically
    p = params_from_dimension(5.0)
    u0 = 1.0
    v0 = -p.k_plus * u0 * u0
    opts = IntegrateOptions(t_end=2.0, blowup_threshold=1e6, local_tol=1e-12)
    traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
    g = traj.v + p.k_plus * traj.u**2
    assert np.max(np.abs(g)) < 1e-9


def test_gk_sign_preserved_random_ics():
    rng = np.random.default_rng(11)
    for m in (3.0, 5.0, 8.0, 9.0):
        p = params_from_dimension(m)
        for _ in range(10):
            u0, v0 = rng.uniform(-1.5, 1.5, size=2)
            opts = IntegrateOptions(t_end=5.0, blowup_threshold=1e6, local_tol=1e-11)
            traj = integrate(p, State(0.0, u0, v0), IntegratorKind.RK4, opts)
            for k in (p.k_minus, p.k_plus):
                g = traj.v + k * traj.u**2
                if abs(g[0]) < 1e-8:
                    continue  # on (or numerically on) the separatrix
                # once g contracts into the numerical noise of v + k u^2
                # every later sign is inherited noise, so the check stops
                # at the first unresolvable value
                floor = 1e-6 * np.maximum(1.0, np.abs(traj.v) + abs(k) * traj.u**2)
                bad = np.nonzero(np.abs(g) <= floor)[0]
                stop = int(bad[0]) if len(bad) else len(g)
                assert np.all(np.sign(g[:stop]) == np.sign(g[0]))


def test_diagnostics_report_fields():
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=2.0, local_tol=1e-12, h_max=1e-2)
    traj = integrate(p, State(0.0, 0.5, 0.0), IntegratorKind.GAUSS6, opts)
    rep = diagnostics_report(p, traj)
    assert rep.gk_identity_residual_max < 1e-8
    assert rep.energy_drift_rel < 1e-11
    p3 = params_from_dimension(3.0)
    traj3 = integrate(p3, State(0.0, 0.0, -0.5), IntegratorKind.GAUSS6, opts)
    rep3 = diagnostics_report(p3, traj3)
    assert math.isnan(rep3.energy_drift_rel)  # only meaningful when A = 0
    # for disc >= 0 the report is the larger check of k_minus and k_plus,
    # bit for bit, although it integrates u once for both
    for q, tr in ((p, traj), (p3, traj3)):
        assert q.disc >= 0.0
        want = max(check_gk_identity(q, tr, q.k_minus), check_gk_identity(q, tr, q.k_plus))
        assert diagnostics_report(q, tr).gk_identity_residual_max == want
