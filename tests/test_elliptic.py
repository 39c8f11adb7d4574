import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ellipj, ellipkinc

from blowuplab import (
    DomainError,
    F_half,
    IntegrateOptions,
    IntegratorKind,
    K_agm,
    State,
    integrate,
    lemniscate_quarter_period,
    params_from_coeffs,
    sl,
)
from blowuplab.elliptic import _K_HALF

# tanh-sinh quadrature oracles
QUARTER_PERIOD = 1.31102877714605990523235  # integral_0^1 dy / sqrt(1 - y^4)
K_099 = 3.35660052336119237603347  # K(0.99)
K_HALF = 1.8540746773013719  # K(1/sqrt 2), correctly rounded
EPS = sys.float_info.epsilon


def test_K_agm_special_values():
    assert K_agm(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert K_agm(0.99) == pytest.approx(K_099, rel=1e-14)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()  # a private 40-digit context
    mp.dps = 40
    for k, rel in ((0.5, 1e-15), (0.999999, 1e-14)):
        assert K_agm(k) == pytest.approx(float(mp.ellipk(mp.mpf(k) ** 2)), rel=rel)


def test_K_half_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    assert K_HALF == float(mpmath.ellipk(0.5))
    assert _K_HALF == float(mpmath.ellipk(0.5))


def test_K_agm_domain():
    with pytest.raises(DomainError):
        K_agm(1.0)
    with pytest.raises(DomainError):
        K_agm(-0.1)
    with pytest.raises(DomainError):
        K_agm(1.5)


def test_quarter_period_value():
    assert abs(lemniscate_quarter_period() - QUARTER_PERIOD) < 1e-12


def test_sl_at_origin_and_quarter_period():
    y, dy = sl(0.0)
    assert y == 0.0 and dy == 1.0
    Q = lemniscate_quarter_period()
    y, dy = sl(Q)
    assert abs(y - 1.0) < 1e-10
    assert abs(dy) < 1e-14


def test_sl_is_odd():
    for t in (0.3, 0.9, 1.7, 2.5):
        y_pos, dy_pos = sl(t)
        y_neg, dy_neg = sl(-t)
        assert abs(y_neg + y_pos) < 1e-12
        assert abs(dy_neg - dy_pos) < 1e-12


def test_sl_half_period_antisymmetry():
    Q = lemniscate_quarter_period()
    for t in (0.2, 0.7, 1.1):
        y, dy = sl(t)
        y2, dy2 = sl(t + 2.0 * Q)
        assert abs(y2 + y) < 1e-12
        assert abs(dy2 + dy) < 1e-12


def test_sl_periodicity():
    Q = lemniscate_quarter_period()
    for t in (0.0, 0.4, 1.3, 2.2):
        y, dy = sl(t)
        y2, dy2 = sl(t + 4.0 * Q)
        assert abs(y2 - y) < 1e-12
        assert abs(dy2 - dy) < 1e-12


def test_sl_first_integral():
    # (sl')^2 + sl^4 = 1 everywhere
    rng = np.random.default_rng(5)
    for t in rng.uniform(-10.0, 10.0, size=50):
        y, dy = sl(float(t))
        assert abs(dy * dy + y**4 - 1.0) < 1e-12
        assert abs(y) <= 1.0 + 1e-9


def test_sl_first_positive_zero():
    # bisection for the zero expected at twice the quarter period
    Q = lemniscate_quarter_period()
    lo, hi = 1.5 * Q, 2.5 * Q
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sl(lo)[0] * sl(mid)[0] <= 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - 2.0 * Q) < 1e-6


def test_sl_solves_its_ode():
    # sl is the solution of y'' = -2 y^3 from (y, y') = (0, 1); compare
    # with the Gauss6 trajectory over one full period
    p = params_from_coeffs(0.0, -2.0)
    opts = IntegrateOptions(t_end=4.0 * lemniscate_quarter_period(), local_tol=1e-12, h_max=1e-2)
    traj = integrate(p, State(0.0, 0.0, 1.0), IntegratorKind.GAUSS6, opts)
    assert traj.termination.kind == "completed"
    y, dy = sl(traj.t)
    assert np.max(np.abs(y - traj.u)) < 1e-12
    assert np.max(np.abs(dy - traj.v)) < 1e-12


def test_sl_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()  # a private 40-digit context
    mp.dps = 40
    rng = np.random.default_rng(8)
    ts = rng.uniform(-10.0, 10.0, size=300)
    y, dy = sl(ts)
    half, root2 = mp.mpf(1) / 2, mp.sqrt(2)
    for t, yi, dyi in zip(ts, y, dy):
        u = root2 * mp.mpf(float(t))
        sn, cn, dn = (mp.ellipfun(kind, u, m=half) for kind in ("sn", "cn", "dn"))
        assert abs(yi - float(sn / (root2 * dn))) <= 2e-14
        assert abs(dyi - float(cn / dn**2)) <= 2e-14


def test_sl_matches_ellipj():
    # against 40-digit mpmath, ellipj itself is off by up to 8.2e-14 near
    # |t| = 27.5 on this grid and sl by at most 2.5e-14
    ts = np.linspace(-30.0, 30.0, 20001)
    sn, cn, dn, _ = ellipj(math.sqrt(2.0) * ts, 0.5)
    y, dy = sl(ts)
    assert np.max(np.abs(y - sn / (math.sqrt(2.0) * dn))) <= 1e-13
    assert np.max(np.abs(dy - cn / (dn * dn))) <= 1e-13


def test_sl_scalar_and_array_calls_agree_bitwise():
    ts = np.linspace(-30.0, 30.0, 2001)
    y, dy = sl(ts)
    for n in (1, 2, 3, 7, 8, 9, 17):  # lengths around the SIMD vector widths
        y_n, dy_n = sl(ts[3 : 3 + n])
        assert np.array_equal(y_n, y[3 : 3 + n]) and np.array_equal(dy_n, dy[3 : 3 + n])
    for t, yi, dyi in zip(ts, y, dy):
        ys, dys = sl(float(t))
        assert type(ys) is float and type(dys) is float
        assert (ys, dys) == (yi, dyi)


def test_sl_non_finite_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, dy = sl(np.array([math.inf, -math.inf, math.nan]))
    assert np.all(np.isnan(y)) and np.all(np.isnan(dy))


def test_F_half_matches_ellipkinc():
    # both sides carry rounding error: against 40-digit mpmath, F_half is
    # within 3.2 eps and ellipkinc (scipy 1.17) within 2.7 eps on this
    # range, and their difference reaches 4.1 eps
    phis = np.concatenate([np.linspace(-7.0, 7.0, 100001), 0.5 * math.pi * np.arange(-4, 5)])
    ref = ellipkinc(phis, 0.5)
    got = np.array([F_half(float(phi)) for phi in phis])
    assert np.all(got[ref == 0.0] == 0.0)
    nz = ref != 0.0
    assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])) <= 5.0 * EPS


def test_F_half_complete_value_and_symmetries():
    K = K_HALF
    assert F_half(0.5 * math.pi) == pytest.approx(K, rel=2.0 * EPS, abs=0.0)
    assert F_half(math.pi) == 2.0 * K
    for phi in np.linspace(-7.0, 7.0, 1001):
        phi = float(phi)
        assert F_half(-phi) == -F_half(phi)
        shifted = F_half(phi + math.pi)
        assert abs(shifted - (F_half(phi) + 2.0 * K)) <= 4.0 * EPS * (abs(F_half(phi)) + 2.0 * K)
