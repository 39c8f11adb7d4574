import math

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    Lemniscatic,
    PoleAt,
    Riccati,
    State,
    estimate_blowup_time,
    eval_closed_form,
    integrate,
    params_from_coeffs,
    params_from_dimension,
    riccati_poles,
)

P4 = params_from_dimension(4.0)  # A = 2, B = 0: k = -1 gives the B = 0 branches
P8 = params_from_dimension(8.0)  # A = 0, B = 2/9: k = -/+1/3
PLEM = params_from_coeffs(0.0, -2.0)

RECIP_TANH_POLE = 0.7603459963009463  # (2/(A beta)) atanh(beta/u0), A=2, C=-3, u0=2

# u = -b tanh((A b/2) t + c) on P4 from its initial state, b = 1.5, c = 0.3
TANH = Riccati(-1.0, -1.5 * math.tanh(0.3), -2.25 / math.cosh(0.3) ** 2)
# u' = (A/2)(u^2 + C) on P4 with u(0) = u0: C = 2, u0 = 0.5 (tan) and C = -3, u0 = 2 (reciprocal tanh)
TAN = Riccati(-1.0, 0.5, 2.25)
RECIP_TANH = Riccati(-1.0, 2.0, 1.0)
# the zero-energy rational solution u = 3/(3 - t) on P8, on the parabola u' = -k u^2
RATIONAL = Riccati(P8.k_minus, 1.0, -P8.k_minus)


def _logistic(g0, k, w0):
    """w' = g0 - k w^2 from w(0) = w0, and the B = 0 coefficients it solves."""
    return Riccati(k, w0, g0 - k * w0 * w0), params_from_coeffs(-2.0 * k, 0.0)


def _ode_residual(p, cf, ts, h=1e-3):
    """Max of |u'' - A u u' - B u^3| / max(1, |u|^3) by central differences."""
    worst = 0.0
    for t in ts:
        vals = [eval_closed_form(cf, p, t + k * h) for k in (-2, -1, 0, 1, 2)]
        if any(isinstance(v, PoleAt) for v in vals):
            continue
        u = [uv[0] for uv in vals]
        v0 = vals[2][1]
        d2 = (-u[4] + 16 * u[3] - 30 * u[2] + 16 * u[1] - u[0]) / (12 * h * h)
        d1 = (-u[4] + 8 * u[3] - 8 * u[1] + u[0]) / (12 * h)
        res = abs(d2 - p.A * u[2] * v0 - p.B * u[2] ** 3)
        res = max(res, abs(d1 - v0))
        worst = max(worst, res / max(1.0, abs(u[2]) ** 3))
    return worst


def test_tanh_family_satisfies_ode():
    ts = np.linspace(-4.0, 4.0, 100)
    assert _ode_residual(P4, TANH, ts) < 1e-6


def test_tanh_values():
    cf = Riccati(-1.0, 0.0, -1.0)  # u = -tanh t
    u, v = eval_closed_form(cf, P4, 0.7)
    assert u == pytest.approx(-math.tanh(0.7), rel=1e-15)
    assert v == pytest.approx(-1.0 / math.cosh(0.7) ** 2, rel=1e-15)
    assert riccati_poles(cf) == (None, None)


@pytest.mark.parametrize("t", [400.0, 1e3, -1e3])
def test_tanh_family_is_finite_far_out(t):
    # cosh(t)**2 overflows here; u' underflows to a signed zero instead
    u, v = eval_closed_form(Riccati(-1.0, 0.0, -1.0), P4, t)
    assert u == -math.copysign(1.0, t)
    assert v == 0.0 and math.copysign(1.0, v) == -1.0


def test_rational_family_satisfies_ode():
    ts = np.linspace(-5.0, 2.8, 100)
    assert _ode_residual(P8, RATIONAL, ts) < 1e-6


def test_rational_family_pole_and_values():
    # u = 3/(3 - t), pole at t = 3, u'(2) = 3
    u, v = eval_closed_form(RATIONAL, P8, 2.0)
    assert u == pytest.approx(3.0, rel=1e-12)
    assert v == pytest.approx(3.0, rel=1e-12)
    res = eval_closed_form(RATIONAL, P8, 3.0)
    assert isinstance(res, PoleAt)
    assert res.t_pole == pytest.approx(3.0, rel=1e-12)
    assert isinstance(eval_closed_form(RATIONAL, P8, 5.0), PoleAt)
    assert riccati_poles(RATIONAL) == (None, res.t_pole)


def test_tan_branch_satisfies_ode():
    rate = math.sqrt(2.0)  # A sqrt(C) / 2
    c = math.atan(0.5 / math.sqrt(2.0))
    t_hi = (math.pi / 2.0 - c) / rate
    t_lo = (-math.pi / 2.0 - c) / rate
    ts = np.linspace(t_lo + 0.1, t_hi - 0.1, 100)
    assert _ode_residual(P4, TAN, ts) < 1e-6
    hi, lo = eval_closed_form(TAN, P4, t_hi + 0.1), eval_closed_form(TAN, P4, t_lo - 0.1)
    assert isinstance(hi, PoleAt) and hi.t_pole == pytest.approx(t_hi, rel=1e-12)
    assert isinstance(lo, PoleAt) and lo.t_pole == pytest.approx(t_lo, rel=1e-12)
    assert riccati_poles(TAN) == (lo.t_pole, hi.t_pole)


def test_recip_tanh_branch_satisfies_ode():
    ts = np.linspace(-3.0, RECIP_TANH_POLE - 0.15, 100)
    assert _ode_residual(P4, RECIP_TANH, ts) < 1e-6


def test_recip_tanh_pole_location():
    res = eval_closed_form(RECIP_TANH, P4, 1.0)
    assert isinstance(res, PoleAt)
    assert res.t_pole == pytest.approx(RECIP_TANH_POLE, rel=1e-12)
    assert riccati_poles(RECIP_TANH) == (None, res.t_pole)
    assert riccati_poles(Riccati(-1.0, -2.0, 1.0)) == (-res.t_pole, None)  # -u(-t)
    u, v = eval_closed_form(RECIP_TANH, P4, 0.0)
    assert u == pytest.approx(2.0, rel=1e-12)
    assert v == pytest.approx(1.0, rel=1e-12)  # v = (A/2)(u^2 + C)


def test_lemniscatic_satisfies_ode():
    cf = Lemniscatic(Cc=1.3, kappa=2.0**0.25, t0=0.2)
    ts = np.linspace(-5.0, 5.0, 100)
    assert _ode_residual(PLEM, cf, ts) < 1e-6


def test_lemniscatic_amplitude():
    cf = Lemniscatic(Cc=1.3, kappa=2.0**0.25, t0=0.0)
    u0, v0 = eval_closed_form(cf, PLEM, 0.0)
    assert u0 == 0.0
    assert v0 == pytest.approx(1.3 * 2.0**0.5 * 1.3 / math.sqrt(2.0), rel=1e-12)
    us = [eval_closed_form(cf, PLEM, t)[0] for t in np.linspace(0.0, 20.0, 400)]
    assert max(abs(u) for u in us) <= 1.3 * (1.0 + 1e-9)
    assert max(abs(u) for u in us) > 1.29


def test_logistic_branches():
    # interior branch: w -> sqrt(g0/k)
    cf, p = _logistic(1.0, 2.0, 0.3)
    w, dw = eval_closed_form(cf, p, 0.0)
    assert w == pytest.approx(0.3, rel=1e-12)
    assert dw == pytest.approx(1.0 - 2.0 * 0.09, rel=1e-12)
    w_inf, _ = eval_closed_form(cf, p, 50.0)
    assert w_inf == pytest.approx(math.sqrt(0.5), rel=1e-9)
    # equilibrium branch, also where tanh x = -1 makes a tanh ratio 0/0
    cf, p = _logistic(1.0, 1.0, 1.0)
    for t in (3.0, 1e3, -1e3):
        w, dw = eval_closed_form(cf, p, t)
        assert w == 1.0 and dw == 0.0
    # exterior branch has a backward pole
    cf, p = _logistic(1.0, 1.0, 2.0)
    w, dw = eval_closed_form(cf, p, 0.0)
    assert w == pytest.approx(2.0, rel=1e-12)
    res = eval_closed_form(cf, p, -10.0)
    assert isinstance(res, PoleAt)
    assert res.t_pole < 0.0


def test_logistic_satisfies_comparison_ode():
    cf, p = _logistic(1.0, 2.0, 0.3)
    h = 1e-4
    for t in np.linspace(0.0, 3.0, 50):
        wm, _ = eval_closed_form(cf, p, t - h)
        w0, dw = eval_closed_form(cf, p, t)
        wp, _ = eval_closed_form(cf, p, t + h)
        assert abs((wp - wm) / (2 * h) - dw) < 1e-6
        assert abs(dw - (1.0 - 2.0 * w0 * w0)) < 1e-12


def test_branch_mismatch_errors():
    with pytest.raises(DomainError, match="k must satisfy"):
        eval_closed_form(Riccati(-1.0, 0.0, -1.0), params_from_dimension(3.0), 0.0)  # k not a root
    with pytest.raises(DomainError, match="k must satisfy"):
        eval_closed_form(Riccati(P8.k_plus, 1.0, -P8.k_plus), P4, 0.0)  # k not a root
    with pytest.raises(DomainError, match="is constant only for A \\+ 2k = 0"):
        # k a root of P8, but A + 2k != 0 and (1, 1) is off the parabola u' = -k u^2
        eval_closed_form(Riccati(P8.k_minus, 1.0, 1.0), P8, 0.0)
    with pytest.raises(DomainError, match="kappa must satisfy"):
        eval_closed_form(Lemniscatic(1.0, 1.0, 0.0), PLEM, 0.0)  # kappa^4 != -B
    with pytest.raises(DomainError, match="lemniscatic family requires A = 0, B < 0"):
        eval_closed_form(Lemniscatic(1.0, 2.0**0.25, 0.0), P8, 0.0)


def test_constructor_domain_errors():
    with pytest.raises(DomainError):
        Riccati(0.0, 1.0, 1.0)  # the root k = 0 of B = 0: u' = g is not w'/(k w)
    with pytest.raises(DomainError):
        Riccati(math.nan, 1.0, 1.0)
    with pytest.raises(DomainError):
        Riccati(-1.0, math.inf, 1.0)
    with pytest.raises(DomainError):
        Riccati(-1.0, 1.0, -math.inf)


@pytest.mark.parametrize("kind, local_tol, gate", [
    # 10x the worst relative error of these 40 seeded cases: 4.06e-8 and 1.69e-13
    (IntegratorKind.RK4, 1e-10, 4.1e-7),
    (IntegratorKind.GAUSS6, 1e-12, 1.7e-12),
])
def test_fitted_blowup_time_on_invariant_parabolas(kind, local_tol, gate):
    # on u' = -k u^2, u = u0/(1 + k u0 t) blows up at T = -1/(k u0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(40):
        p = params_from_dimension(20.0 - 16.0 * rng.random())  # m in (4, 20]
        k = p.k_minus if i % 2 else p.k_plus
        T = rng.uniform(1.0, 200.0) * rng.choice([-1.0, 1.0])
        u0 = -1.0 / (k * T)
        pole = eval_closed_form(Riccati(k, u0, -k * u0 * u0), p, 2.0 * T)
        assert isinstance(pole, PoleAt)
        opts = IntegrateOptions(t_end=2.0 * pole.t_pole, local_tol=local_tol)
        traj = integrate(p, State(0.0, u0, -k * u0 * u0), kind, opts)
        worst = max(worst, abs(estimate_blowup_time(traj) - pole.t_pole) / abs(pole.t_pole))
    assert worst < gate
