"""The textbook closed forms of u'' = A u u' + B u^3 against ``exact``, and the lemniscatic family.

At B = 0 every solution solves the Riccati equation u' = g - k u^2 with
k = -A/2 and g = u'(0) + k u(0)^2 constant: the tanh, tan, rational and
reciprocal-tanh shapes.  On an invariant parabola u' = -k u^2 of any
(A, B), u = u0/(1 + k u0 t).  exact.state_at, escape_time and
parabola_pole must give them; each formula is written out where it is used.
"""
import math

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    Lemniscatic,
    State,
    estimate_blowup_time,
    eval_closed_form,
    integrate,
    params_from_coeffs,
    params_from_dimension,
)
from blowuplab.exact import escape_time, parabola_pole, state_at

P4 = params_from_dimension(4.0)  # A = 2, B = 0: k = -1 gives the B = 0 branches
P8 = params_from_dimension(8.0)  # A = 0, B = 2/9: k = -/+1/3
PLEM = params_from_coeffs(0.0, -2.0)

RECIP_TANH_POLE = 0.7603459963009463  # (2/(A beta)) atanh(beta/u0), A=2, C=-3, u0=2

# u = -b tanh((A b/2) t + c) on P4 from its initial state, b = 1.5, c = 0.3
TANH = (-1.5 * math.tanh(0.3), -2.25 / math.cosh(0.3) ** 2)
# u' = (A/2)(u^2 + C) on P4 with u(0) = u0: C = 2, u0 = 0.5 (tan) and C = -3, u0 = 2 (reciprocal tanh)
TAN = (0.5, 2.25)
RECIP_TANH = (2.0, 1.0)
# the zero-energy rational solution u = 3/(3 - t) on P8, on the parabola u' = -k u^2
RATIONAL = (1.0, -P8.k_minus)


def _exact(p, start):
    """t -> exact.state_at from start, or None at or past a blow-up."""
    def at(t):
        try:
            return state_at(p, *start, t)
        except DomainError:
            return None
    return at


def _logistic(g0, k, w0):
    """w' = g0 - k w^2 from w(0) = w0: its start, and the B = 0 coefficients it solves."""
    return (w0, g0 - k * w0 * w0), params_from_coeffs(-2.0 * k, 0.0)


def _ode_residual(p, at, ts, h=1e-3):
    """Max of |u'' - A u u' - B u^3| / max(1, |u|^3) by central differences of at(t) = (u, u')."""
    worst = 0.0
    for t in ts:
        vals = [at(t + k * h) for k in (-2, -1, 0, 1, 2)]
        if any(v is None for v in vals):
            continue
        u = [uv[0] for uv in vals]
        v0 = vals[2][1]
        d2 = (-u[4] + 16 * u[3] - 30 * u[2] + 16 * u[1] - u[0]) / (12 * h * h)
        d1 = (-u[4] + 8 * u[3] - 8 * u[1] + u[0]) / (12 * h)
        res = abs(d2 - p.A * u[2] * v0 - p.B * u[2] ** 3)
        res = max(res, abs(d1 - v0))
        worst = max(worst, res / max(1.0, abs(u[2]) ** 3))
    return worst


def _formula_error(at, formula, ts):
    """Max error of at(t) against the closed form's (u, u'), each relative to max(1, its size)."""
    return max(abs(g - w) / max(1.0, abs(w)) for t in ts for g, w in zip(at(t), formula(t)))


def test_tanh_family_satisfies_ode():
    ts = np.linspace(-4.0, 4.0, 100)
    assert _ode_residual(P4, _exact(P4, TANH), ts) < 1e-6
    # measured worst 8.9e-16
    tanh = lambda t: (-1.5 * math.tanh(1.5 * t + 0.3), -2.25 / math.cosh(1.5 * t + 0.3) ** 2)
    assert _formula_error(_exact(P4, TANH), tanh, ts) < 1e-13


def test_tanh_values():
    u, v = state_at(P4, 0.0, -1.0, 0.7)  # u = -tanh t
    assert u == pytest.approx(-math.tanh(0.7), rel=1e-15)
    assert v == pytest.approx(-1.0 / math.cosh(0.7) ** 2, rel=1e-15)
    assert escape_time(P4, 0.0, -1.0, 1.0) is None and escape_time(P4, 0.0, -1.0, -1.0) is None


@pytest.mark.parametrize("t", [400.0, 1e3, -1e3])
def test_tanh_family_is_finite_far_out(t):
    # cosh(t)**2 overflows here; u' underflows to a signed zero instead
    u, v = state_at(P4, 0.0, -1.0, t)
    assert u == -math.copysign(1.0, t)
    assert v == 0.0 and math.copysign(1.0, v) == -1.0


def test_rational_family_satisfies_ode():
    ts = np.linspace(-5.0, 2.8, 100)
    assert _ode_residual(P8, _exact(P8, RATIONAL), ts) < 1e-6
    # measured worst 1.4e-15
    assert _formula_error(_exact(P8, RATIONAL), lambda t: (3.0 / (3.0 - t), 3.0 / (3.0 - t) ** 2), ts) < 1e-13


def test_rational_family_pole_and_values():
    # u = 3/(3 - t), pole at t = 3, u'(2) = 3
    u, v = state_at(P8, *RATIONAL, 2.0)
    assert u == pytest.approx(3.0, rel=1e-12)
    assert v == pytest.approx(3.0, rel=1e-12)
    T = escape_time(P8, *RATIONAL, 1.0)
    assert T == pytest.approx(3.0, rel=1e-12) and parabola_pole(P8, *RATIONAL) == T
    assert escape_time(P8, *RATIONAL, -1.0) is None
    for t in (3.0, 5.0):
        with pytest.raises(DomainError):
            state_at(P8, *RATIONAL, t)


def test_tan_branch_satisfies_ode():
    rate = math.sqrt(2.0)  # A sqrt(C) / 2
    c = math.atan(0.5 / math.sqrt(2.0))
    t_hi = (math.pi / 2.0 - c) / rate
    t_lo = (-math.pi / 2.0 - c) / rate
    ts = np.linspace(t_lo + 0.1, t_hi - 0.1, 100)
    assert _ode_residual(P4, _exact(P4, TAN), ts) < 1e-6
    # u = sqrt(C) tan(rate t + c), u' = u^2 + C; measured worst 2.8e-15
    tan = lambda t: (rate * math.tan(rate * t + c), 2.0 * math.tan(rate * t + c) ** 2 + 2.0)
    assert _formula_error(_exact(P4, TAN), tan, ts) < 1e-13
    assert escape_time(P4, *TAN, 1.0) == pytest.approx(t_hi, rel=1e-12)
    assert escape_time(P4, *TAN, -1.0) == pytest.approx(t_lo, rel=1e-12)
    assert _exact(P4, TAN)(t_hi + 0.1) is None and _exact(P4, TAN)(t_lo - 0.1) is None


def test_recip_tanh_branch_satisfies_ode():
    ts = np.linspace(-3.0, RECIP_TANH_POLE - 0.15, 100)
    assert _ode_residual(P4, _exact(P4, RECIP_TANH), ts) < 1e-6
    # u = beta coth(beta (T - t)), u' = u^2 - beta^2, beta = sqrt(3); measured worst 2.9e-15
    beta = math.sqrt(3.0)
    coth = lambda t: beta / math.tanh(beta * (RECIP_TANH_POLE - t))
    assert _formula_error(_exact(P4, RECIP_TANH), lambda t: (coth(t), coth(t) ** 2 - 3.0), ts) < 1e-13


def test_recip_tanh_pole_location():
    T = escape_time(P4, *RECIP_TANH, 1.0)
    assert T == pytest.approx(RECIP_TANH_POLE, rel=1e-12)
    assert _exact(P4, RECIP_TANH)(1.0) is None
    assert escape_time(P4, *RECIP_TANH, -1.0) is None
    # -u(-t)
    assert (escape_time(P4, -2.0, 1.0, -1.0), escape_time(P4, -2.0, 1.0, 1.0)) == (-T, None)
    u, v = state_at(P4, *RECIP_TANH, 0.5)
    assert v == pytest.approx(u * u - 3.0, rel=1e-12)  # v = (A/2)(u^2 + C)


def test_lemniscatic_satisfies_ode():
    cf = Lemniscatic(Cc=1.3, kappa=2.0**0.25, t0=0.2)
    ts = np.linspace(-5.0, 5.0, 100)
    assert _ode_residual(PLEM, lambda t: eval_closed_form(cf, PLEM, t), ts) < 1e-6


def test_lemniscatic_amplitude():
    cf = Lemniscatic(Cc=1.3, kappa=2.0**0.25, t0=0.0)
    u0, v0 = eval_closed_form(cf, PLEM, 0.0)
    assert u0 == 0.0
    assert v0 == pytest.approx(1.3 * 2.0**0.5 * 1.3 / math.sqrt(2.0), rel=1e-12)
    us = [eval_closed_form(cf, PLEM, t)[0] for t in np.linspace(0.0, 20.0, 400)]
    assert max(abs(u) for u in us) <= 1.3 * (1.0 + 1e-9)
    assert max(abs(u) for u in us) > 1.29


def test_logistic_branches():
    # interior branch: w = sqrt(g0/k) tanh(sqrt(g0 k) t + c) -> sqrt(g0/k), global both ways
    start, p = _logistic(1.0, 2.0, 0.3)
    w_inf, _ = state_at(p, *start, 50.0)
    assert w_inf == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert escape_time(p, *start, 1.0) is None and escape_time(p, *start, -1.0) is None
    # equilibrium branch, also where tanh x = -1 makes a tanh ratio 0/0
    start, p = _logistic(1.0, 1.0, 1.0)
    for t in (3.0, 1e3, -1e3):
        w, dw = state_at(p, *start, t)
        assert w == 1.0 and dw == 0.0
    # exterior branch: w = coth(t + atanh(1/2)) has a backward pole
    start, p = _logistic(1.0, 1.0, 2.0)
    assert escape_time(p, *start, -1.0) == pytest.approx(-math.atanh(0.5), rel=1e-12)
    assert escape_time(p, *start, 1.0) is None
    assert _exact(p, start)(-10.0) is None


def test_logistic_satisfies_comparison_ode():
    start, p = _logistic(1.0, 2.0, 0.3)
    h = 1e-4
    for t in np.linspace(0.0, 3.0, 50):
        wm, _ = state_at(p, *start, t - h)
        w0, dw = state_at(p, *start, t)
        wp, _ = state_at(p, *start, t + h)
        assert abs((wp - wm) / (2 * h) - dw) < 1e-6
        assert abs(dw - (1.0 - 2.0 * w0 * w0)) < 1e-12


def test_branch_mismatch_errors():
    with pytest.raises(DomainError, match="kappa must satisfy"):
        eval_closed_form(Lemniscatic(1.0, 1.0, 0.0), PLEM, 0.0)  # kappa^4 != -B
    with pytest.raises(DomainError, match="lemniscatic family requires A = 0, B < 0"):
        eval_closed_form(Lemniscatic(1.0, 2.0**0.25, 0.0), P8, 0.0)


def test_constructor_domain_errors():
    # a non-finite field would give (nan, nan) or a non-finite time silently
    for fields in ((math.nan, 2.0**0.25, 0.0), (math.inf, 2.0**0.25, 0.0), (1.0, math.nan, 0.0),
                   (1.0, 2.0**0.25, math.inf), (1.0, 2.0**0.25, -math.inf)):
        with pytest.raises(DomainError, match="requires finite fields"):
            Lemniscatic(*fields)


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
        pole = parabola_pole(p, u0, -k * u0 * u0)
        assert pole == -1.0 / (k * u0)
        opts = IntegrateOptions(t_end=2.0 * pole, local_tol=local_tol)
        traj = integrate(p, State(0.0, u0, -k * u0 * u0), kind, opts)
        worst = max(worst, abs(estimate_blowup_time(traj) - pole) / abs(pole))
    assert worst < gate
