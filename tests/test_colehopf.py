import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from blowuplab import (
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    ProfileF,
    State,
    eq0_residual_fd,
    eq0_residual_from_u,
    integrate,
    params_from_dimension,
    reconstruct_f,
    rhs,
)


def _m4_traj(t_end=3.0, tol=1e-12):
    # h_max keeps the recorded grid fine enough that the cubic Hermite
    # resampling inside reconstruct_f is not the accuracy bottleneck
    p = params_from_dimension(4.0)
    opts = IntegrateOptions(t_end=t_end, local_tol=tol, h_max=0.02)
    return p, integrate(p, State(0.0, 0.0, -1.0), IntegratorKind.GAUSS6, opts)


def test_reconstruct_matches_sech():
    # u = -tanh t integrates to f = 1/cosh t
    p, traj = _m4_traj()
    prof = reconstruct_f(traj, C=1.0)
    exact = 1.0 / np.cosh(prof.x)
    assert np.max(np.abs(prof.f - exact) / exact) < 1e-8
    assert prof.C == 1.0
    assert prof.source is traj


def test_reconstruct_uniform_resampling():
    p, traj = _m4_traj()
    prof = reconstruct_f(traj, C=2.0, step=1e-2)
    dx = np.diff(prof.x)
    assert np.max(np.abs(dx - 1e-2)) < 1e-12
    exact = 2.0 / np.cosh(prof.x)
    assert np.max(np.abs(prof.f - exact) / exact) < 1e-8


def test_reconstruct_rejects_blowup_and_bad_scale():
    p = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=10.0, blowup_threshold=1e6)
    traj = integrate(p, State(0.0, 1.0, 1.0), IntegratorKind.RK4, opts)
    with pytest.raises(DomainError, match="trajectory terminated with blowup"):
        reconstruct_f(traj, C=1.0)
    _, good = _m4_traj(t_end=1.0)
    with pytest.raises(DomainError):
        reconstruct_f(good, C=0.0)
    backward = integrate(params_from_dimension(4.0), State(0.0, 0.0, -1.0), IntegratorKind.RK4,
                         IntegrateOptions(t_end=-1.0))
    with pytest.raises(DomainError):
        reconstruct_f(backward, C=1.0)


def test_reconstruct_matches_scipy_hermite_spline():
    # scipy's CubicHermiteSpline antiderivative integrates the same interpolant
    p, traj = _m4_traj()
    F = CubicHermiteSpline(traj.t, traj.u, traj.v).antiderivative()
    for step in (None, 1e-2, 7e-3):
        prof = reconstruct_f(traj, C=1.0, step=step)
        ref = np.exp(F(prof.x) - F(traj.t[0]))
        assert np.max(np.abs(prof.f - ref) / ref) < 1e-13


def test_onshell_residual_vanishes():
    rng = np.random.default_rng(17)
    for m in (3.0, 4.0, 5.0, 8.0, 9.0):
        p = params_from_dimension(m)
        for _ in range(20):
            u, v = rng.uniform(-5.0, 5.0, size=2)
            _, a = rhs(p, State(0.0, u, v))
            res = eq0_residual_from_u(m, u, v, a)
            scale = max(1.0, abs(u * v) + abs(u) ** 3)
            assert abs(res) < 1e-12 * scale


def test_onshell_residual_domain():
    with pytest.raises(DomainError):
        eq0_residual_from_u(2.0, 1.0, 1.0, 1.0)


def test_residual_fd_sech_profile():
    x = np.arange(-3.0, 3.0 + 0.5e-3, 1e-3)
    prof = ProfileF(x=x, f=1.0 / np.cosh(x), C=1.0)
    assert eq0_residual_fd(prof, 4.0) < 1e-6


def test_residual_fd_detects_wrong_dimension():
    x = np.arange(-3.0, 3.0 + 0.5e-3, 1e-3)
    prof = ProfileF(x=x, f=1.0 / np.cosh(x), C=1.0)
    # the sech profile does not solve the third-order equation for m = 6
    assert eq0_residual_fd(prof, 6.0) > 1e-3


def test_residual_fd_grid_requirements():
    x = np.array([0.0, 1e-3, 2e-3, 3.5e-3, 4e-3, 5e-3, 6e-3])
    prof = ProfileF(x=x, f=np.ones_like(x), C=1.0)
    with pytest.raises(DomainError, match="fourth-order differencing requires a uniform grid"):
        eq0_residual_fd(prof, 4.0)
    short = ProfileF(x=x[:5], f=np.ones(5), C=1.0)
    with pytest.raises(DomainError, match="need at least 7 uniform samples"):
        eq0_residual_fd(short, 4.0)


def test_log_derivative_roundtrip():
    # f'/f recovered by differencing matches the source trajectory's u
    p, traj = _m4_traj()
    h = 1e-3
    prof = reconstruct_f(traj, C=1.0, step=h)
    f = prof.f
    d1 = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    u_rec = d1 / f[2:-2]
    u_exact = -np.tanh(prof.x[2:-2])
    assert np.max(np.abs(u_rec - u_exact)) < 1e-8

