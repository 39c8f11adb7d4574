"""The exact module against 40-digit mpmath, the package's own oracles and the ODE's symmetries."""
import math

import mpmath as mp
import numpy as np
import pytest

from blowuplab import (
    IntegrateOptions,
    IntegratorKind,
    K_agm,
    State,
    classify,
    integrate,
    lemniscate_quarter_period,
    params_from_coeffs,
    params_from_dimension,
    quadrature_blowup_time,
)
from blowuplab import exact, inversion
from blowuplab.errors import DomainError
from blowuplab.exact import _ALPHA_MAX, _GAUSS20, escape_time, parabola_pole, period, state_at

HALF = mp.mpf(1) / 2


def _mp_forward_time(A, B, u0, v0):
    """The forward blow-up time at 40 digits (mpmath betainc, erf), or None: the reduction in p = u'/u^2."""
    with mp.workdps(40):
        A, B, u0, v0 = (mp.mpf(x) for x in (A, B, u0, v0))
        disc = A * A + 8 * B
        if disc == 0:
            k = -A / 4
            r, g = -k, v0 + k * u0**2
            if g == 0:
                return -1 / (k * u0) if k * u0 < 0 else None
            if r * g <= 0:
                return None
            y, c = r * u0**2 / (2 * g), 1 / mp.sqrt(2 * abs(r * g))
            if u0 * g < 0:
                return c * mp.sqrt(mp.pi) * mp.exp(y) * (1 + mp.erf(mp.sqrt(y)))
            return c * mp.sqrt(mp.pi) * mp.exp(y) * mp.erfc(mp.sqrt(y))
        sq = mp.sqrt(disc)
        kp, km = (-A + sq) / 4, (-A - sq) / 4
        D = sq / 2
        a1, a2 = kp / (2 * D), -km / (2 * D)
        g1, g2 = v0 + kp * u0**2, v0 + km * u0**2
        for kappa, g in ((km, g2), (kp, g1)):
            if g == 0 and u0 != 0:
                return -1 / (kappa * u0) if kappa * u0 < 0 else None
        C = abs(g1) ** (-a1) * abs(g2) ** (-a2) / (2 * mp.sqrt(D))
        if g2 > 0:  # above r2
            x, a, crosses = g2 / g1, a2, u0 < 0
        elif g1 < 0:  # below r1
            x, a, crosses = g1 / g2, a1, u0 > 0
        elif u0 > 0:  # between, up to r2
            return C * mp.betainc(a1, a2, g1 / (D * u0**2), 1) if a2 > 0 else None
        else:
            return C * mp.betainc(a1, a2, 0, g1 / (D * u0**2)) if a1 > 0 else None
        if a <= 0:
            return None
        if crosses:
            return C * (mp.betainc(a, HALF, x, 1) + mp.beta(a, HALF))
        return C * mp.betainc(a, HALF, 0, x)


def mp_escape_time(p, u0, v0, d):
    """escape_time's 40-digit reference; backward is forward under A -> -A, u' -> -u'."""
    t = _mp_forward_time(p.A, p.B, u0, v0) if d > 0 else _mp_forward_time(-p.A, p.B, u0, -v0)
    return None if t is None else d * float(t)


def _states(rng, n, lo=0.3, hi=3.0):
    """n states (rho cos th, rho^2 sin th): every direction, one scale each."""
    th = rng.uniform(-math.pi, math.pi, n)
    rho = rng.uniform(lo, hi, n)
    return list(zip((rho * np.cos(th)).tolist(), (rho * rho * np.sin(th)).tolist()))


def _max_alpha(p):
    return max(abs(p.k_minus), abs(p.k_plus)) / (2.0 * (p.k_plus - p.k_minus))


# ROADMAP re-anchor 5's reference values: (params, u0, v0, d, T to the digits given)
REFERENCE_TIMES = [
    (params_from_dimension(3.0), 0.0, 0.7, 1.0, 1.26238020379),
    (params_from_dimension(3.0), 0.0, 0.7, -1.0, -1.26238020379),
    (params_from_dimension(3.0), 1.0, 0.6, 1.0, 0.93467406781),
    (params_from_dimension(5.0), 1e-5, -3.33e-11, 1.0, 932022.18496),
    (params_from_dimension(5.0), 1e-5, -3.33e-11, -1.0, -552256.50672),
    (params_from_dimension(8.0), -0.030497883397175962, 0.0007917138562474335, 1.0, 160.13979794667),
    (params_from_dimension(8.0), -0.030497883397175962, 0.0007917138562474335, -1.0, -77.82267285707),
    (params_from_dimension(8.0), 0.033684937989015395, 0.0019283492347536013, 1.0, 56.10646958759),
    (params_from_dimension(8.0), 0.033684937989015395, 0.0019283492347536013, -1.0, -91.59484481686),
    (params_from_coeffs(-1.0, 2.0), -1.6, 2.0, 1.0, 8.910981048569),
    (params_from_dimension(5.0), 0.03, -4.5e-5, 1.0, 93.713053127780),
    (params_from_dimension(5.0), 0.03, -4.5e-5, -1.0, -214.163296954990),
]


@pytest.mark.parametrize("p, u0, v0, d, want", REFERENCE_TIMES)
def test_reference_times(p, u0, v0, d, want):
    digits = len(repr(abs(want)).replace(".", "").lstrip("0"))
    assert escape_time(p, u0, v0, d) == pytest.approx(want, rel=10.0 ** (1 - digits))


def test_escape_time_matches_mpmath():
    # Seeded disc > 0 (m-derived, every m in (2.05, 30), and (A, B) in
    # [-4, 4] x [-1, 3]), disc = 0 and B = 0 (exponents 0 and 1/2) cases,
    # both directions: the kind must be mpmath's and the time within 1e-13
    # relative where every exponent is at most 12 in size.  Larger exponents
    # lie near disc = 0; test_handover_near_the_double_root measures them.
    rng = np.random.default_rng(2031)
    params = [params_from_dimension(m) for m in rng.uniform(2.05, 30.0, 60).tolist()]
    params += [params_from_coeffs(A, B) for A, B in zip(rng.uniform(-4, 4, 60).tolist(), rng.uniform(-1, 3, 60).tolist())]
    params += [params_from_coeffs(A, -A * A / 8.0) for A in (1.0, 2.0, -1.0, 3.0, -0.5)]
    params += [params_from_coeffs(A, 0.0) for A in (2.0, -2.0, 0.5, -3.0)]
    checked = {"blow-up": 0, "global": 0}
    worst = 0.0
    for p in params:
        if p.disc < 0.0 or (p.disc > 0.0 and _max_alpha(p) > 12.0):
            continue
        for u0, v0 in _states(rng, 4):
            for d in (1.0, -1.0):
                got, want = escape_time(p, u0, v0, d), mp_escape_time(p, u0, v0, d)
                assert (got is None) == (want is None), (p.A, p.B, u0, v0, d, got, want)
                if got is None:
                    checked["global"] += 1
                    continue
                checked["blow-up"] += 1
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-13, worst
    assert min(checked.values()) > 100, checked


def test_handover_near_the_double_root():
    # B -> -A^2/8 from above: the exponents k/(2D) grow like 1/sqrt(disc).
    # Past _ALPHA_MAX = 12 (and at disc = 0) the quadrature in w takes over
    # from the beta series; the kind must be mpmath's and the time within
    # 1e-13 relative on both sides of the handover, up to exponents of 1e7.
    # Measured worst: 1.3e-14 (beta, |a| = 8), 3e-15 (quadrature, any |a|).
    # (1, 0.24999) lies between the roots at A = 1, where the mean root
    # would call the forward blow-up global.
    assert _ALPHA_MAX == 12.0
    rng = np.random.default_rng(7)
    states = [(float(s * rng.uniform(0.3, 2.0)), float(rng.uniform(-2.0, 2.0))) for s in (1.0, -1.0) for _ in range(5)]
    states += [(1.0, 0.24999), (-1.0, 0.24999), (0.0, 1.0), (0.0, -1.0)]
    for A in (1.0, -1.0, 2.5):
        for alpha in (8.0, 12.5, 32.0, 64.0, 200.0, 1e4, 1e7, math.inf):
            p = _near_double(A, alpha)
            if alpha < 1e7:
                assert _max_alpha(p) == pytest.approx(alpha + 0.25, rel=1e-6)  # |k_minus| = |k| + D/2
            worst, n = 0.0, 0
            for u0, v0 in states:
                for d in (1.0, -1.0):
                    got, want = escape_time(p, u0, v0, d), mp_escape_time(p, u0, v0, d)
                    assert (got is None) == (want is None), (A, alpha, u0, v0, d, got, want)
                    if got is not None:
                        worst, n = max(worst, abs(got - want) / abs(want)), n + 1
            assert n >= 8 and worst <= 1e-13, (A, alpha, worst)


def _mp_state(A, B, u0, v0, t):
    """(u, u') at t > 0 by mpmath's Taylor-series ODE solver at 20 digits."""
    with mp.workdps(20):
        A, B = mp.mpf(A), mp.mpf(B)
        sol = mp.odefun(lambda s, y: [y[1], A * y[0] * y[1] + B * y[0] ** 3], 0, [mp.mpf(u0), mp.mpf(v0)])
        u, v = sol(t)
        return float(u), float(v)


@pytest.mark.parametrize("A, B, u0, v0, t", [
    # k_plus = -2, k_minus = -3: the end root r1 = 2 has exponent -1 exactly,
    # where the series meets a term n + a = 0 (a logarithm)
    (10.0, -12.0, -1.0, -2.5, 3.0),
    # B = 0: the end root p = 0 has exponent 0, and u tends to a constant
    (2.0, 0.0, 1.0, -0.5, 5.0),
    # disc = 0, global: Dawson's integral
    (1.0, -0.125, 1.0, -0.5, 10.0),
])
def test_state_at_matches_mpmath(A, B, u0, v0, t):
    p = params_from_coeffs(A, B)
    assert escape_time(p, u0, v0, 1.0) is None
    u, v = state_at(p, u0, v0, t)
    ur, vr = _mp_state(A, B, u0, v0, t)
    assert u == pytest.approx(ur, rel=1e-13)
    assert v == pytest.approx(vr, rel=1e-13)
    # backward is the forward solution of A -> -A with u' -> -u'
    u, v = state_at(params_from_coeffs(-A, B), u0, -v0, -t)
    assert (u, -v) == (pytest.approx(ur, rel=1e-13), pytest.approx(vr, rel=1e-13))


def _mp_state_near_parabola(u0, v0, t):
    """(u, u') at t from (u0, v0) with u0 > 0 below the double root 1/4 of A = 1, B = -1/8, at 40 digits.

    At disc = 0 the leg time is int |z|/2 |dw| with w = 1/(p - 1/4) and
    |z| = |z0| e^(-(w - w0)/8) sqrt(w0/w); u crosses 0 at w = 0 and w then
    falls from 0 below w0 again.  mpmath's quad and findroot solve for the
    w where the time is t.
    """
    with mp.workdps(40):
        u0, v0 = mp.mpf(u0), mp.mpf(v0)
        w0 = u0**2 / (v0 - u0**2 / 4)
        z = lambda w: mp.exp(-(w - w0) / 8) * mp.sqrt(w0 / w) / u0
        near = lambda w: [w, w + 1, w + 10, w + 100, w / 2, 0]
        cross = mp.quad(lambda w: z(w) / 2, near(w0))
        w1 = mp.findroot(lambda w: cross + mp.quad(lambda x: z(x) / 2, near(w)) - t, (w0 - 30, w0 - 3), solver="anderson")
        u = -1 / z(w1)
        return float(u), float(u**2 * (mp.mpf(1) / 4 + 1 / w1))


@pytest.mark.parametrize("u0, v0, t", [(1.0, 0.24999, 10.0), (1.0, 0.24999, 50.0), (0.5, 0.0625 * (1.0 - 1e-6), 50.0)])
def test_state_at_hugging_the_double_roots_parabola(u0, v0, t):
    # within 1e-5 and 1e-6 of g = 0 at disc = 0: u rides the parabola to a
    # maximum near e^12499 (from (1, 0.24999), just past t = 4), falls
    # through 0 to near -e^12499 and then decays, which no float run can
    # follow; a unit of the leg variable is 500 e-folds there
    u, v = state_at(params_from_coeffs(1.0, -0.125), u0, v0, t)
    ur, vr = _mp_state_near_parabola(u0, v0, t)
    assert u == pytest.approx(ur, rel=1e-13) and v == pytest.approx(vr, rel=1e-13)


def test_state_at_matches_gauss6():
    # Gauss6 at local_tol 1e-12 with h_max 0.01 against state_at, through
    # zero crossings, disc = 0 and disc -> 0+ blow-up and global legs, B = 0 and m = 3.5,
    # whose decay x falls to 1e-16 by t = 50; relative to max(1e-3, |exact|)
    cases = [
        (params_from_dimension(3.5), -1.0, -0.5, 50.0), (params_from_dimension(3.5), -2.0, -3.0, 50.0),
        (params_from_dimension(3.0), 1.0, 0.1, 10.0), (params_from_dimension(3.0), 1.0, 0.1, -10.0),
        (params_from_dimension(3.0), 0.0, -0.5, 20.0), (params_from_dimension(4.0), 0.0, -1.0, -5.0),
        (params_from_coeffs(1.0, -0.125), 0.0, -1.0, 30.0), (params_from_coeffs(1.0, -0.125), 1.0, 0.5, 2.0),
        (params_from_coeffs(1.0, -0.125), 1.0, 0.5, -2.0), (params_from_dimension(5.0), 0.03, -4.5e-5, 50.0),
        (params_from_dimension(8.0), -1.0, 0.5, -1.0), (params_from_coeffs(-3.0, -1.0), 1.0, -0.4, -20.0),
        # exponents near 2800 (quadrature in w): between the roots both ways,
        # and outside through the crossing u = 0 towards a blow-up and a global end
        (params_from_coeffs(1.0, -0.125 + 1e-9), 1.0, 0.24999, 3.0), (params_from_coeffs(1.0, -0.125 + 1e-9), 1.0, 0.24999, -3.0),
        (params_from_coeffs(1.0, -0.125 + 1e-9), -1.0, 0.5, 8.0), (params_from_coeffs(-1.0, -0.125 + 1e-9), 0.5, 2.0, -0.9),
    ]
    for p, u0, v0, t in cases:
        u, v = state_at(p, u0, v0, t)
        opts = IntegrateOptions(t_end=t, local_tol=1e-12, h_max=0.01)
        traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
        assert traj.termination.kind == "completed"
        err = max(abs(u - traj.u[-1]) / max(1e-3, abs(u)), abs(v - traj.v[-1]) / max(1e-3, abs(v)))
        assert err <= 1e-11, (p.A, p.B, u0, v0, t, err)


def test_agrees_with_quadrature_at_A0():
    # A = 0 conserves e = u'^2/2 - B u^4/4: where u and u' share a sign
    # along the direction, T is the escape time of v' = sqrt((B/2) v^4 + 2e)
    rng = np.random.default_rng(11)
    worst = 0.0
    for B in (2.0, 0.5, 2.0 / 9.0):
        p = params_from_coeffs(0.0, B)
        for u0, v0 in _states(rng, 20):
            d = math.copysign(1.0, u0 * v0)
            want = quadrature_blowup_time(B / 2.0, v0 * v0 - 0.5 * B * u0**4, abs(u0))
            worst = max(worst, abs(escape_time(p, u0, v0, d) - d * want) / want)
    assert worst <= 1e-13, worst


def _mp_b0_state(A, u0, v0, t):
    """(u, u') at t where B = 0, at 40 digits: the Riccati equation u' = g - k u^2, k = -A/2, g = u0' + k u0^2.

    u = w'/(k w) linearises it to w'' = a w, a = k g, with w(0) = 1 and
    w'(0) = k u0; a w^2 - w'^2 = k u0' is conserved, so u' = u0'/w^2.
    """
    with mp.workdps(40):
        k, u0, v0, t = -mp.mpf(A) / 2, mp.mpf(u0), mp.mpf(v0), mp.mpf(t)
        a = k * (v0 + k * u0**2)
        om = mp.sqrt(abs(a))
        if a > 0:
            w, dw = mp.cosh(om * t) + k * u0 * mp.sinh(om * t) / om, om * mp.sinh(om * t) + k * u0 * mp.cosh(om * t)
        elif a < 0:
            w, dw = mp.cos(om * t) + k * u0 * mp.sin(om * t) / om, -om * mp.sin(om * t) + k * u0 * mp.cos(om * t)
        else:
            w, dw = 1 + k * u0 * t, k * u0
        return float(dw / (k * w)), float(v0 / w**2)


def test_agrees_with_riccati_at_B0():
    # B = 0: u solves a Riccati equation, whose linearisation in w gives
    # the states at 40 digits (_mp_b0_state), and the blow-up times are
    # mpmath's (mp_escape_time)
    rng = np.random.default_rng(13)
    worst_t = worst_s = 0.0
    for A in (2.0, -2.0, 0.5, -3.0):
        p = params_from_coeffs(A, 0.0)
        for u0, v0 in _states(rng, 20):
            for d in (-1.0, 1.0):
                T, want = escape_time(p, u0, v0, d), mp_escape_time(p, u0, v0, d)
                assert (T is None) == (want is None), (A, u0, v0, d)
                if T is not None:
                    worst_t = max(worst_t, abs(T - want) / abs(want))
                t = 0.5 * d * (abs(T) if T is not None else 4.0)
                u, v = state_at(p, u0, v0, t)
                ue, ve = _mp_b0_state(A, u0, v0, t)
                worst_s = max(worst_s, abs(u - ue) / max(1.0, abs(ue)), abs(v - ve) / max(1.0, abs(ve)))
    assert worst_t <= 1e-13 and worst_s <= 1e-12, (worst_t, worst_s)


def test_parabola_pole_is_exact():
    # on g_kappa = 0 in floats u = u0/(1 + kappa u0 t): T = -1/(kappa u0)
    for p, u0, v0, kappa in (
        (params_from_dimension(8.0), 1.0, 1.0 / 3.0, params_from_dimension(8.0).k_minus),
        (params_from_dimension(3.0), 2.0, 2.0, params_from_dimension(3.0).k_plus),
        (params_from_coeffs(0.5, 0.25), -2.0, -1.0, 0.25),
    ):
        assert v0 + kappa * u0 * u0 == 0.0
        T = -1.0 / (kappa * u0)
        d = math.copysign(1.0, T)
        assert escape_time(p, u0, v0, d) == T == parabola_pole(p, u0, v0)
        assert escape_time(p, u0, v0, -d) is None
        assert state_at(p, u0, v0, 0.5 * T) == (u0 / (1.0 + kappa * u0 * 0.5 * T), pytest.approx(-kappa * (2.0 * u0) ** 2))
        with pytest.raises(DomainError):
            state_at(p, u0, v0, T)
    # off the parabolas, at a rest point (B = 0, u' = 0), at u0 = 0 and for disc < 0: no pole
    for p, u0, v0 in ((params_from_dimension(8.0), 1.0, 0.3), (params_from_coeffs(2.0, 0.0), 1.5, 0.0),
                      (params_from_dimension(3.0), 0.0, 0.0), (params_from_coeffs(2.0, -4.0), 1.0, 0.5)):
        assert parabola_pole(p, u0, v0) is None


def test_gauss_legendre_rule():
    # the quadrature's 20-point rule, computed at import, against the roots
    # of P_20 and the weights 2/((1 - x^2) P_20'(x)^2) at 40 digits
    with mp.workdps(40):
        for x, w in _GAUSS20:
            r = mp.findroot(lambda t: mp.legendre(20, t), mp.mpf(x))
            ref = 2 / ((1 - r**2) * mp.diff(lambda t: mp.legendre(20, t), r) ** 2)
            assert abs(x - r) <= 2e-16 and abs(w / ref - 1) <= 2e-14, (x, w)


def _near_double(A, alpha):
    """(A, B) whose largest exponent |k|/sqrt(disc) is about alpha: B -> -A^2/8 from above."""
    return params_from_coeffs(A, A * A * ((1.0 / (4.0 * alpha)) ** 2 - 1.0) / 8.0)


def test_conjugacies():
    # (A, u', t) -> (-A, -u', -t) and u -> -u(-t) map solutions onto
    # solutions, and both give the same bits: the first maps the roots onto
    # their exact negatives, the second is the fold onto the side that ends
    # at r2, which the exact module makes for every start that ends at r1
    rng = np.random.default_rng(17)
    for p in (params_from_dimension(3.0), params_from_dimension(5.0), params_from_dimension(9.0),
              params_from_coeffs(1.0, -0.125), params_from_coeffs(2.0, 0.0), params_from_coeffs(-3.0, -1.0),
              _near_double(1.0, 32.0), _near_double(-2.5, 32.0), _near_double(1.0, 1e4), _near_double(-2.5, 1e4)):
        mirror = params_from_coeffs(-p.A, p.B)
        for u0, v0 in _states(rng, 10):
            for d in (1.0, -1.0):
                T = escape_time(p, u0, v0, d)
                for other in (escape_time(mirror, u0, -v0, -d), escape_time(p, -u0, v0, -d)):
                    assert (other is None) == (T is None)
                    assert T is None or other == -T, (p.A, p.B, u0, v0, d, T, other)
                t = 0.5 * d * (abs(T) if T is not None else 10.0)
                u, v = state_at(p, u0, v0, t)
                um, vm = state_at(mirror, u0, -v0, -t)
                us, vs = state_at(p, -u0, v0, -t)
                assert (um, -vm) == (u, v) and (-us, vs) == (u, v), (p.A, p.B, u0, v0, t)


def test_time_reversal_is_exact_at_zero_A():
    # (A, u', t) -> (-A, -u', -t) at A = 0: the backward time is the exact
    # negation of the mirrored forward time, as the roots are exact negatives
    rng = np.random.default_rng(62)
    for B, u0, v0 in zip(rng.uniform(1e-3, 10.0, 4000).tolist(), *rng.uniform(-2.0, 2.0, (2, 4000)).tolist()):
        T = escape_time(params_from_coeffs(0.0, B), u0, v0, -1.0)
        other = escape_time(params_from_coeffs(-0.0, B), u0, -v0, 1.0)
        assert (other is None) == (T is None) and (T is None or T == -other), (B, u0, v0)


def test_domain():
    for p in (params_from_coeffs(2.0, -4.0), params_from_coeffs(0.0, 0.0)):  # disc < 0; u'' = 0
        for call in (escape_time, lambda p, u, v, d: state_at(p, u, v, d)):
            with pytest.raises(DomainError):
                call(p, 1.0, 0.5, 1.0)
    p5 = params_from_dimension(5.0)
    T = escape_time(p5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        state_at(p5, 1.0, 1.0, T)
    with pytest.raises(DomainError):
        state_at(p5, 1.0, 1.0, math.nan)
    assert escape_time(p5, 0.0, 0.0, 1.0) is None and state_at(p5, 0.0, 0.0, 5.0) == (0.0, 0.0)
    assert state_at(p5, 1.0, 1.0, 0.0) == (1.0, 1.0)
    # the B = 0 rest point u' = 0 stays put; B = 1e-300 blows up at about -1e300
    assert state_at(params_from_coeffs(2.0, 0.0), 1.5, 0.0, 7.0) == (1.5, 0.0)
    assert escape_time(params_from_coeffs(1.0, 1e-300), 1.0, -0.2, -1.0) < -1e299


def _taylor(p, u0, v0, t):
    """(u, u') at small t by the on-shell Taylor polynomial of u through t^3."""
    u2 = p.A * u0 * v0 + p.B * u0**3
    u3 = p.A * (v0 * v0 + u0 * u2) + 3.0 * p.B * u0 * u0 * v0
    return u0 + t * (v0 + t * (u2 / 2.0 + t * u3 / 6.0)), v0 + t * (u2 + t * u3 / 2.0)


@pytest.mark.parametrize("m", [3.0, 5.0, 8.0])
def test_state_at_small_times_near_u0_zero_and_the_parabolas(m):
    # from u0 = 0 the leg starts at x = 1 and 1 - x grows like u^2, and
    # within 1e-6 to 1e-14 of a parabola one end of the leg is as near
    # (x or 1 - x near 0): state_at must still follow the Taylor
    # polynomial to 1e-13 per component, both ways in time
    p = params_from_dimension(m)
    cases = [((u0, v0), t) for u0 in (0.0, 1e-200, -1e-200) for v0 in (1.0, -1.0) for t in (1e-6, 1e-9, 1e-12, 1e-100)]
    cases += [((u0, -k * u0 * u0 + gap), t) for k in (p.k_minus, p.k_plus) for u0 in (1.0, -1.0)
              for gap in (1e-6, -1e-6, 1e-10, -1e-10, 1e-14, -1e-14) for t in (1e-6, 1e-9)]
    for (u0, v0), h in cases:
        for t in (h, -h):
            u, v = state_at(p, u0, v0, t)
            ut, vt = _taylor(p, u0, v0, t)
            assert abs(u - ut) <= 1e-13 * abs(ut) and abs(v - vt) <= 1e-13 * abs(vt), (m, u0, v0, t, u, v, ut, vt)


@pytest.mark.parametrize("m", [5.0, 8.0])
def test_starts_whose_square_overflows(m):
    # u -> 2^k u(2^k t) maps solutions onto solutions: a start whose u0^2
    # (and so g_k) overflows keeps the times and states of its scaled copy
    p = params_from_dimension(m)
    k = 513
    for u0, v0 in ((0.75, 0.01), (-0.75, 0.01), (0.875, -0.02), (-0.8125, -0.01)):
        big = (math.ldexp(u0, k), math.ldexp(v0, 2 * k))
        for d in (1.0, -1.0):
            T = escape_time(p, u0, v0, d)
            assert escape_time(p, *big, d) == (None if T is None else math.ldexp(T, -k))
            t = 0.1 * d * (abs(T) if T is not None else 3.0)  # where u' 4^k stays finite
            u, v = state_at(p, u0, v0, t)
            assert state_at(p, *big, math.ldexp(t, -k)) == (math.ldexp(u, k), math.ldexp(v, 2 * k))
    assert escape_time(p, 2e154, 1.0, 1.0) == pytest.approx(0.5 * escape_time(p, 1e154, 1.0, 1.0), rel=1e-13)
    # at t = 1e-200 the state barely moves from (1e160, 1); u' is held here
    # to eps u^2, about 1e-16 u^2 (its Taylor value to 1e-13 relative in
    # test_state_at_u_prime_keeps_its_digits_where_p_is_small)
    u, v = state_at(p, 1e160, 1.0, 1e-200)
    vt = 1.0 + p.A * 1e160 * 1e-200 + p.B * 1e160 * (1e160 * (1e160 * 1e-200))  # u'' t, with B u0^3 t kept finite
    assert u == pytest.approx(1e160, rel=1e-15) and abs(v - vt) / u / u <= 1e-15, (u, v, vt)
    # p0 = u'0/u0^2 = 1e-320 is (1, 0)'s p0 = 0 to every digit
    verdict = classify(p, 1e160, 1.0)
    assert verdict.kind == "no_global_solution"
    T = escape_time(p, 1e160, 1.0, 1.0)
    assert verdict.detail["t_bound"] == T == pytest.approx(escape_time(p, 1.0, 0.0, 1.0) / 1e160, rel=1e-15)


@pytest.mark.parametrize("d", [0.0, 2.0, -2.0, 0.5, math.nan, math.inf, -math.inf])
def test_escape_time_takes_only_the_directions_plus_and_minus_one(d):
    # d signs the time and picks the frame, so any other d would scale the time or make it NaN
    p5 = params_from_dimension(5.0)
    for u0, v0 in ((1.0, 1.0), (0.0, 0.0)):
        with pytest.raises(DomainError):
            escape_time(p5, u0, v0, d)
    assert escape_time(p5, 1.0, 1.0, 1) == escape_time(p5, 1.0, 1.0, 1.0) > 0.0
    assert escape_time(p5, 1.0, 1.0, -1) == escape_time(p5, 1.0, 1.0, -1.0)


def test_state_at_past_the_float_range_of_x_and_1_minus_x():
    # A leg point whose x or 1 - x lies past the float range.  From u0 = 0,
    # 1 - x grows like u^2 and underflows while |t| < about 1e-154; these
    # small times follow the Taylor polynomial, within the rounding of
    # ln(1 - x), near -1400 at t = 1e-300 (measured worst 1.4e-13, gate
    # 3e-13).  On a global leg x falls as a power of t, and u = -1/(r t +
    # c + o(1)) towards the end root r, so r t u -> -1 to every digit at
    # t = 1e200 (the m = 3 legs below end at r = 1/2).  From (1e160, 1) the
    # frame's time 2^532 t is past floats too, and the legs are timed in
    # the start's scale, to the rounding of logs near 700 again
    for m in (3.0, 5.0, 8.0):
        p = params_from_dimension(m)
        for v0 in (1.0, -1.0):
            for h in (1e-200, 1e-250, 1e-300):
                for t in (h, -h):
                    u, v = state_at(p, 0.0, v0, t)
                    ut, vt = _taylor(p, 0.0, v0, t)
                    assert abs(u - ut) <= 3e-13 * abs(ut) and abs(v - vt) <= 3e-13 * abs(vt), (m, v0, t, u, v)
    p3 = params_from_dimension(3.0)
    assert -p3.k_plus == 0.5
    for u0, v0, t in ((1.0, -1.0, 1e200), (1.0, -1.0, 1e300), (1e160, 1.0, 1e300), (1e160, 1.0, -1e300),
                      (1e160, 1.0, 1e250), (-2.0, 0.5, 1e280)):
        u, _ = state_at(p3, u0, v0, t)
        assert abs(0.5 * t * u + 1.0) <= 3e-13, (u0, v0, t, u)
    # u' = 1/(r t^2) there, which the frame's 4^-532 scale would take below
    # the float range: such a state is formed in the start's scale
    for t in (1e10, 1e100, -1e150):
        u, v = state_at(p3, 1e160, 1.0, t)
        assert abs(0.5 * t * u + 1.0) <= 3e-13 and abs(0.5 * t * t * v - 1.0) <= 3e-13, (t, u, v)
    # so also at disc = 0 and near it, against u -> 2^300 u(2^300 t) from
    # the unscaled start (2^-300 u0, 4^-300 u'0)
    for p in (p3, params_from_coeffs(1.0, -0.125), params_from_coeffs(-1.0, -0.125 + 1e-9)):
        for u0, v0, t in ((1e160, 1.0, 1e50), (1e160, 1.0, -1e50), (-1e160, -1e300, 1e60), (1e160, 1.0, 1e150)):
            u, v = state_at(p, u0, v0, t)
            us, vs = state_at(p, math.ldexp(u0, -300), math.ldexp(v0, -600), math.ldexp(t, 300))
            assert abs(u - math.ldexp(us, 300)) <= 3e-13 * abs(u), (p.A, p.B, u0, v0, t, u, us)
            if vs != 0.0:  # the unscaled start's own u' underflows at t = 1e150
                assert abs(v - math.ldexp(vs, 600)) <= 3e-13 * abs(v), (p.A, p.B, u0, v0, t, v, vs)


def test_state_at_far_out_on_global_legs_follows_the_end_roots_power_law():
    # on a global leg 1/u = -r t + c + O(t^(1 + 1/a)) towards the end root
    # r of exponent a < 0, so r t u -> -1 to every digit by t = 1e200 at
    # |a| <= 12, where x lies far below the float range (solved for in x
    # rather than in its logs, the point raised ValueError or came out near
    # 1e-309 there).  Measured worst 2.4e-13
    rng = np.random.default_rng(4242)
    params = [params_from_dimension(m) for m in rng.uniform(2.05, 30.0, 30).tolist()]
    params += [params_from_coeffs(A, B) for A, B in zip(rng.uniform(-4, 4, 60).tolist(), rng.uniform(-1, 3, 60).tolist())]
    n = 0
    for p in params:
        if not p.disc > 0.0 or p.B == 0.0 or _max_alpha(p) > 12.0:
            continue
        for u0, v0 in _states(rng, 10):
            for d in (1.0, -1.0):
                if escape_time(p, u0, v0, d) is not None:
                    continue
                for t in (d * 1e200, d * 1e300):
                    u, _ = state_at(p, u0, v0, t)
                    assert min(abs(u * t * r + 1.0) for r in (-p.k_minus, -p.k_plus)) <= 1e-12, (p.A, p.B, u0, v0, t, u)
                    n += 1
    assert n >= 60, n


def test_state_at_u_prime_keeps_its_digits_where_p_is_small():
    # where p = u'/u^2 is small against the roots, u' = u^2 p must not carry
    # an error of eps |r| u^2 from a p formed from a root: near the start p
    # is formed from the start's own p0
    for m in (3.0, 5.0, 9.0):
        p = params_from_dimension(m)
        for u0 in (1.0, -1.0, 0.5):
            for v0 in (1e-20, -1e-20, 1e-12, -3e-14):
                for h in (1e-30, 1e-24, 1e-20):
                    for t in (h, -h):
                        u, v = state_at(p, u0, v0, t)
                        ut, vt = _taylor(p, u0, v0, t)
                        assert abs(u - ut) <= 1e-13 * abs(ut) and abs(v - vt) <= 1e-13 * abs(vt), (m, u0, v0, t, v, vt)
    # from (1e160, 1) at t = 1e-200, u'' t = B u0^3 t is 2.2e279
    p5 = params_from_dimension(5.0)
    u, v = state_at(p5, 1e160, 1.0, 1e-200)
    vt = 1.0 + p5.A * 1e160 * 1e-200 + p5.B * 1e160 * (1e160 * (1e160 * 1e-200))
    assert abs(v - vt) <= 1e-13 * vt, (v, vt)


def test_state_at_u_prime_keeps_its_digits_at_tiny_times_on_every_leg():
    # on the legs in w (disc = 0 and near it) p is formed from p0 as well:
    # at A = 1, B = -1/8 from (1, 0) u' = u^2 r2 + u^2 (p - r2) lost its
    # digits as t -> 0 (2.1e-2 relative at t = 1e-14).  And on the beta
    # legs the start's law gave the first guess t/h z/z, which underflowed
    # to 0 past t ~ 1e-154: at m = 5 from (1, 0) u' stuck at 4.1e-62
    cases = [(params_from_coeffs(A, B), u0, v0, h) for A, B in ((1.0, -0.125), (1.0, -0.125 + 1e-9), (-2.5, -0.78125 + 1e-6))
             for u0 in (1.0, -0.5) for v0 in (0.0, 1e-20, -3e-14) for h in (1e-8, 1e-12, 1e-14, 1e-30)]
    cases += [(params_from_dimension(m), 1.0, 0.0, h) for m in (3.0, 5.0, 9.0) for h in (1e-154, 1e-200, 1e-300)]
    # and from starts whose u0^2 underflows (1e-204) or is subnormal (1e-159):
    # u' = u^2 p0 + u^2 (p - p0) in floats gave 0 for 1e-100, and 1.3e-6 off
    cases += [(params_from_coeffs(A, B), u0, v0, h) for A, B in ((1.0, -0.125), (1.0, -0.125 + 1e-9), (-2.5, -0.78125 + 1e-6))
              for u0, v0 in ((1e-204, 1e-100), (-1e-204, 1e-100), (1e-159, 1e-10), (1e-159, -1e-10)) for h in (1e-300, 1e-110, 1e-30)]
    for p, u0, v0, h in cases:
        for t in (h, -h):
            u, v = state_at(p, u0, v0, t)
            ut, vt = _taylor(p, u0, v0, t)
            assert abs(u - ut) <= 1e-13 * abs(ut) and abs(v - vt) <= 1e-13 * abs(vt), (p.A, p.B, u0, v0, t, v, vt)
    # and at subnormal |t|, to one subnormal more: the variable is then
    # subnormal too, and a stop at 1e-15 in it, or bisection at the mean,
    # gave u' = -4.4e-16 at A = 1, B = -1/8 from (1, 0) at t = 5e-324, and
    # 4.1e-62 at m = 5 at t = 1e-320 (28 of the 108 near-double calls failed)
    cases = [(params_from_coeffs(A, B), u0, v0, h) for A, B in ((1.0, -0.125), (1.0, -0.125 + 1e-9), (-2.5, -0.78125 + 1e-6))
             for u0 in (1.0, -0.5) for v0 in (0.0, 1e-20, -3e-14) for h in (1e-310, 1e-320, 5e-324)]
    cases += [(params_from_dimension(m), 1.0, 0.0, h) for m in (3.0, 5.0, 9.0) for h in (1e-310, 1e-320, 5e-324)]
    for p, u0, v0, h in cases:
        for t in (h, -h):
            u, v = state_at(p, u0, v0, t)
            ut, vt = _taylor(p, u0, v0, t)
            assert abs(u - ut) <= 1e-13 * abs(ut) + 5e-324 and abs(v - vt) <= 1e-13 * abs(vt) + 5e-324, (p.A, p.B, u0, v0, t, v, vt)


def _budget_calls(p, rng):
    """state_at's arguments: seeded starts at t = +-1e-6, +-1 and +-50 before any blow-up, and T/2 and T (1 - 1e-9)."""
    calls = []
    for u0, v0 in _states(rng, 20):
        for d in (1.0, -1.0):
            T = escape_time(p, u0, v0, d)
            calls += [(u0, v0, d * h) for h in (1e-6, 1.0, 50.0) if T is None or h < abs(T)]
            if T is not None:
                calls += [(u0, v0, 0.5 * T), (u0, v0, T * (1.0 - 1e-9))]
    return calls


def test_state_at_evaluation_budget(monkeypatch):
    # a full leg time (the one leg series exact.log_beta, under its name in
    # exact and in inversion, or _integral; escape's included)
    # and a piece from an anchor are counted per call; before the guesses
    # and anchors state_at took 16.7-18.8 full evaluations a call on the
    # beta sets below and 14.9 on the quadrature sets (the T (1 - 1e-9)
    # points the costliest), and now takes 1.4-2.3 and 1.3.  No one call
    # may take more than twice the most measured: 3 full leg times on the
    # beta sets, 5 and 4 on the quadrature sets, where a fallback on a
    # doubling bracket search took up to 39 and 11.  At T (1 - 1e-9) on the
    # quadrature sets a call took up to 14 full times and pieces together
    # while WLeg solved for the time from the start, and takes 4 solving
    # for the time left; no such call may take more than twice that.  From
    # (0.1559, -7.8955) at A = 1, B = -1/8, a global direction that crosses
    # u = 0, the rise past the crossing at t = 50 took 5 full times and 6
    # pieces while its first guess came from the start's exponential law
    # (F is flat at the start's small s0: the guess lay at e = 78, the
    # point at 6.5); from the point's own law it takes 2 and 2, and may
    # take no more than twice that
    far, seen_far = (0.15591089603211472, -7.895512169284174, 50.0), False
    counts = {"full": 0, "piece": 0}

    def counted(f, key):
        def g(*args):
            counts[key] += 1
            return f(*args)
        return g

    for module, name in ((exact, "log_beta"), (exact, "_integral"), (inversion, "log_beta")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), "full"))
    for leg in (inversion.Leg, inversion.WLeg):
        monkeypatch.setattr(leg, "piece", counted(leg.piece, "piece"))
    rng = np.random.default_rng(2024)
    for p, full, pieces, most, near_end in (
            (params_from_dimension(3.0), 4.0, 4.0, 6, None), (params_from_dimension(5.0), 4.0, 4.0, 6, None),
            (params_from_dimension(9.0), 4.0, 4.0, 6, None), (params_from_coeffs(1.0, -0.125), 7.4, 6.0, 10, 8),
            (params_from_coeffs(1.0, -0.125 + 1e-9), 7.4, 6.0, 8, 8)):
        calls = _budget_calls(p, rng)
        ends = {(u0, v0, t) for u0, v0, t in calls if t == (escape_time(p, u0, v0, math.copysign(1.0, t)) or 0.0) * (1.0 - 1e-9)}
        counts.update(full=0, piece=0)
        worst = worst_end = 0
        for u0, v0, t in calls:
            before, both = counts["full"], counts["full"] + counts["piece"]
            state_at(p, u0, v0, t)
            worst = max(worst, counts["full"] - before)
            if (u0, v0, t) in ends:
                worst_end = max(worst_end, counts["full"] + counts["piece"] - both)
            if (p.A, p.B, u0, v0, t) == (1.0, -0.125, *far):
                assert counts["full"] + counts["piece"] - both <= 8, counts
                seen_far = True
        assert counts["full"] <= full * len(calls) and counts["piece"] <= pieces * len(calls), (p.A, p.B, counts, len(calls))
        assert worst <= most, (p.A, p.B, worst)
        assert near_end is None or (len(ends) >= 10 and worst_end <= near_end), (p.A, p.B, len(ends), worst_end)
    assert seen_far


def test_state_at_near_blow_up_keeps_the_time_left():
    # at t = 0.6 T, 0.9 T and T (1 - 1e-9) on the budget sets and on one
    # more set of legs in w, crossing u = 0 or not, the state returned must
    # itself blow up after T - t, as escape_time reads T.  Solving for the
    # time left, its escape time reads 5.8e-15 at worst on the beta legs and
    # 1.5e-14 on the legs in w.  A doubling bracket timed from the start read
    # 3.3e-8 at m = 9; a crossing beta leg, whose time to the end did not
    # share the rounding of t - cross, 1.6e-7; and the legs in w, timed
    # from the start to the rounding of the quadrature's T, 1.9e-6
    rng = np.random.default_rng(2024)
    n, worst = {exact._TwoRoots: 0, exact._NearDouble: 0}, {exact._TwoRoots: 0.0, exact._NearDouble: 0.0}
    for p in (params_from_dimension(3.0), params_from_dimension(5.0), params_from_dimension(9.0), params_from_coeffs(1.0, -0.125),
              params_from_coeffs(1.0, -0.125 + 1e-9), params_from_coeffs(-2.5, -0.78125 + 1e-6)):
        for u0, v0 in _states(rng, 20):
            for d in (1.0, -1.0):
                T = escape_time(p, u0, v0, d)
                legs = exact._legs(p, u0, v0, d)[0]
                if T is None or isinstance(legs, exact._Parabola):
                    continue
                for t in (0.6 * T, 0.9 * T, T * (1.0 - 1e-9)):
                    u, v = state_at(p, u0, v0, t)
                    left = escape_time(p, u, v, d)
                    worst[type(legs)] = max(worst[type(legs)], abs(left - (T - t)) / abs(T - t))
                    n[type(legs)] += 1
    assert max(worst.values()) <= 1e-13 and min(n.values()) >= 100, (worst, n)


def test_span_does_not_fall_as_its_end_moves_out():
    # _span(0, x) is the time from the start to e = x (omega = x between):
    # it may not fall as x grows, and past the float range it is inf.  A
    # window cut to 50 e-folds below the peak rounded to no width once s^2
    # was far above 50/rate, and timed e = 1e10 on a global leg as 0.0
    cases = [(-1.0, -0.125 + 1e-9, 1.0, 1.0), (-1.0, -0.125, 1.0, 0.1), (1.0, -0.125, 1.0, 0.1),
             (1.0, -0.125 + 1e-9, 1.0, 1.0), (1.0, -0.125, -1.0, 1.0),
             (-2.5, -0.78125 + 1e-6, 1.0, -0.625), (2.5, -0.78125 + 1e-6, 1.0, -0.625)]
    kinds = set()
    for A, B, u0, v0 in cases:
        for d in (1.0, -1.0):
            legs = exact._legs(params_from_coeffs(A, B), u0, v0, d)[0]
            assert isinstance(legs, exact._NearDouble)
            kinds.add((not legs.above, legs.blows))
            times = [legs._span(0.0, 10.0**k) for k in range(301)]
            assert all(b >= a for a, b in zip(times, times[1:])), (A, B, u0, v0, d, times)
            assert (times[-1] == math.inf) == (not legs.blows), (A, B, u0, v0, d, times[-1])
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}, kinds


def test_state_at_from_a_guess_far_past_the_point(monkeypatch):
    # a first guess 30 units of the leg variable past the point: the steps
    # back take pieces that would cancel the far anchor's time, and so a
    # full leg time each, and must find the same states
    rng = np.random.default_rng(9)
    cases = [c for c in _flow_cases(rng) if c[3] != 0.0][::3]
    want = [state_at(p, u0, v0, t) for p, u0, v0, t, _ in cases]
    for leg in (inversion.Leg, inversion.WLeg):
        monkeypatch.setattr(leg, "aim", lambda self, t, aim=leg.aim: (lambda d, *rest: (d - 30.0, *rest))(*aim(self, t)))
    worst = max(_rel(state_at(p, u0, v0, t), w) for (p, u0, v0, t, _), w in zip(cases, want))
    assert worst <= 1e-12, worst


def test_crossing_leg_guesses_lie_on_the_leg():
    # WLeg(nd, True).aim solves t = F0 (1 - e^(-q0 e))/q0 for the fall e of
    # s below s0; an e at or past s0 would put the guess at or past u = 0
    # (log1p(-e/s0) raised, or gave -inf): 120 of these 800 guesses did
    rng = np.random.default_rng(7)
    n = 0
    for A, B in ((1.0, -0.125), (1.0, -0.125 + 1e-9), (-2.5, -0.78125 + 1e-6), (2.0, -0.5), (1.0, -0.125 + 1e-4)):
        p = params_from_coeffs(A, B)
        for u0, v0 in rng.uniform(-2.0, 2.0, (40, 2)).tolist():
            for d in (1.0, -1.0):
                legs = exact._legs(p, u0, v0, d)[0]
                if not isinstance(legs, exact._NearDouble) or not legs.crosses:
                    continue
                for f in (0.1, 0.5, 0.9, 0.99, 0.999999):
                    L = inversion.WLeg(legs, True).aim(f * legs.cross)[0]
                    assert math.isfinite(L) and L < 0.0, (A, B, u0, v0, d, f, L)
                    n += 1
    assert n >= 400, n


def _flow_cases(rng):
    """(p, u0, v0, t1, t2) with t1 and t1 + t2 before any blow-up: seeded m-family and (A, B) sets, both signs of t1 and t2."""
    params = [params_from_dimension(m) for m in (3.0, 3.5, 5.0, 8.0, 9.0)]
    params += [params_from_coeffs(A, B) for A, B in ((-1.0, 2.0), (2.0, 0.0), (-3.0, -1.0), (1.0, -0.125),
                                                   (1.0, -0.125 + 1e-9), (-2.5, -0.78125 + 1e-6))]
    cases = []
    for p in params:
        starts = _states(rng, 6)
        # on and near both parabolas, through u = 0 where u crosses it
        starts += [(u0, -k * u0 * u0 + gap) for k in (p.k_minus, p.k_plus) for u0 in (1.0, -0.5) for gap in (1e-3, -1e-3)]
        starts += [(0.0, 1.0), (0.0, -1.0)]
        for u0, v0 in starts:
            tf, tb = escape_time(p, u0, v0, 1.0), escape_time(p, u0, v0, -1.0)
            tf, tb = (20.0 if tf is None else min(tf, 50.0)), (-20.0 if tb is None else max(tb, -50.0))
            for f1, f2 in zip(rng.uniform(-0.9, 0.9, 4).tolist(), rng.uniform(-0.9, 0.9, 4).tolist()):
                t1 = f1 * (tf if f1 > 0.0 else -tb)
                end = f2 * (tf if f2 > 0.0 else -tb)
                cases.append((p, u0, v0, t1, end - t1))
    return cases


def _rel(got, want):
    """The larger error of u and u', each relative to max(1e-3, its size)."""
    return max(abs(g - w) / max(1e-3, abs(w)) for g, w in zip(got, want))


def test_state_at_flow_property():
    # state_at(state_at(s, t1), t2) = state_at(s, t1 + t2): the inversion
    # paths (guesses, anchored pieces, the time to the end, crossings)
    # meet each other from two starts.  The state at t1 is rounded to
    # floats, and near a parabola a flow can magnify that a millionfold, so
    # the gate adds the change that one ulp of it makes (sens).  Measured
    # worst: 9.9e-14 where sens < 1e-14, and at most 42 sens + 1e-15;
    # the gate is 1e-12 + 100 sens
    for p, u0, v0, t1, t2 in _flow_cases(np.random.default_rng(55)):
        if t1 == 0.0 or t2 == 0.0:
            continue
        u1, v1 = state_at(p, u0, v0, t1)
        got = state_at(p, u1, v1, t2)
        sens = max(_rel(state_at(p, math.nextafter(u1, math.inf), v1, t2), got),
                   _rel(state_at(p, u1, math.nextafter(v1, math.inf), t2), got))
        err = _rel(got, state_at(p, u0, v0, t1 + t2))
        assert err <= 1e-12 + 100.0 * sens, (p.A, p.B, u0, v0, t1, t2, err, sens)


def test_state_at_without_a_guess_takes_the_doubling_bracket(monkeypatch):
    # a guess that fails leaves newton to double its way out from the start
    # of the leg until it brackets the point: it must find the same states
    rng = np.random.default_rng(8)
    cases = [c for c in _flow_cases(rng) if c[3] != 0.0][::3]
    want = [state_at(p, u0, v0, t) for p, u0, v0, t, _ in cases]
    for leg in (inversion.Leg, inversion.WLeg):
        monkeypatch.setattr(leg, "aim", lambda self, t, aim=leg.aim: (math.nan, *aim(self, t)[1:]))
    worst = max(_rel(state_at(p, u0, v0, t), w) for (p, u0, v0, t, _), w in zip(cases, want))
    assert worst <= 1e-12, worst


# ---------------------------------------------------------------------------
# the disc < 0 period


def _mp_log_k(A, B, u0, v0, s, c):
    """ln K of the first integral at mpmath's working precision."""
    return -mp.log(2 * v0**2 - A * u0**2 * v0 - B * u0**4) / 4 - c * mp.atan2(4 * v0 - A * u0**2, s * u0**2)


def _mp_period(A, B, u0, v0):
    """The period at 40 digits: 2K int Q(p)^(-3/4) e^(c atan((4p - A)/s)) dp over the real line, by mpmath quad."""
    with mp.workdps(40):
        A, B, u0, v0 = (mp.mpf(x) for x in (A, B, u0, v0))
        s = mp.sqrt(-(A * A + 8 * B))
        c = A / (2 * s)
        f = lambda q: (2 * q * q - A * q - B) ** mp.mpf(-0.75) * mp.exp(c * mp.atan((4 * q - A) / s))
        return float(2 * mp.exp(_mp_log_k(A, B, u0, v0, s, c)) * mp.quad(f, [-mp.inf, A / 4, mp.inf]))


def _mp_period_theta(A, B, u0, v0):
    """_mp_period after 4p - A = s tan theta: 2K 8^(3/4)/4 s^(-1/2) int cos^(-1/2) theta e^(c theta) over (-pi/2, pi/2).

    In p the integrand turns over within s of A/4, too sharply for the
    quadrature as disc -> 0-; in theta it is smooth but at the ends.
    """
    with mp.workdps(40):
        A, B, u0, v0 = (mp.mpf(x) for x in (A, B, u0, v0))
        s = mp.sqrt(-(A * A + 8 * B))
        c = A / (2 * s)
        integral = mp.quad(lambda th: mp.cos(th) ** mp.mpf(-0.5) * mp.exp(c * th), [-mp.pi / 2, 0, mp.pi / 2])
        return float(2 * mp.exp(_mp_log_k(A, B, u0, v0, s, c)) * mp.mpf(8) ** mp.mpf(0.75) / 4 / mp.sqrt(s) * integral)


def _negative_disc(A, disc):
    return params_from_coeffs(A, (disc - A * A) / 8.0)


def test_period_matches_mpmath():
    # seeded A in [-4, 4] (both signs) and A = 0, disc in [-24, -8e-3]
    # log-uniform, two states each: within 1e-13 relative; 200 such sets
    # measured 1.5e-14 at worst
    rng = np.random.default_rng(2027)
    params = [_negative_disc(A, -(10.0 ** rng.uniform(math.log10(8e-3), math.log10(24.0))))
              for A in [*rng.uniform(-4.0, 4.0, 10).tolist(), 0.0]]
    assert min(p.A for p in params) < 0.0 < max(p.A for p in params)
    worst = 0.0
    for p in params:
        for u0, v0 in _states(rng, 2):
            want = _mp_period(p.A, p.B, u0, v0)
            worst = max(worst, abs(period(p, u0, v0) - want) / want)
    assert worst <= 1e-13, worst


def test_period_near_the_double_root():
    # disc -> 0-: |c| = |A|/(2 sqrt(-disc)) reaches 1.5e6 at disc = -1e-12,
    # and nothing cancels: the error stayed below 1.5e-14 + 1.1e-15 |ln T|
    # on 192 seeded sets (the exponent's rounding; ln T is |c| atan2 plus
    # O(ln |c|)).  The gate is twice that.  A period past floats is inf.
    rng = np.random.default_rng(29)
    finite = 0
    for disc in (-1e-3, -1e-6, -1e-9, -1e-12):
        for A in (-1.5, 2.0):
            p = _negative_disc(A, disc)
            # from (0, sgn A) the angle atan2(X, sgn(c) Y) is 0, where the
            # naive sum cancels most; the seeded states take any angle
            for u0, v0 in [(0.0, math.copysign(1.0, A)), *_states(rng, 2)]:
                got = period(p, u0, v0)
                if got == math.inf:
                    continue
                finite += 1
                want = _mp_period_theta(p.A, p.B, u0, v0)
                assert abs(got - want) / want <= 3e-14 + 2.2e-15 * abs(math.log(got)), (A, disc, u0, v0, got, want)
    assert finite >= 12, finite


def test_period_at_zero_A_against_the_lemniscate_oracles():
    # u'' = -2 u^3 from (0, 1) is sl, of period four quarter periods, and
    # (1, 0) lies on the same orbit; K_agm gives the same period as
    # 4 K(1/sqrt2)/sqrt2.  Both starts read 5.2441151085842534.
    p = params_from_coeffs(0.0, -2.0)
    for u0, v0 in ((0.0, 1.0), (1.0, 0.0)):
        T = period(p, u0, v0)
        assert T == pytest.approx(4.0 * lemniscate_quarter_period(), rel=1e-13)
        assert T == pytest.approx(4.0 * K_agm(1.0 / math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-13)


def test_period_conjugacies():
    # (A, u') -> (-A, -u') and u -> -u map orbits onto orbits of the same
    # period; both give the same bits, as the state enters through u^2 and
    # sgn(A) (4u' - A u^2)
    rng = np.random.default_rng(31)
    for A, B in ((2.0, -4.0), (-3.0, -2.0), (0.0, -2.0), (-0.0, -0.5), (1.0, -1.0), (3.5, -1.6)):
        p, mirror = params_from_coeffs(A, B), params_from_coeffs(-A, B)
        for u0, v0 in _states(rng, 20):
            T = period(p, u0, v0)
            assert period(mirror, u0, -v0) == T and period(p, -u0, v0) == T, (A, B, u0, v0)


# disc < 0 runs: (A, B), (u0, v0) and t_end
PERIODIC_RUNS = (
    ((2.0, -4.0), (0.0, 1.0), 20.0),
    ((-3.0, -2.0), (1.0, 1.0), 30.0),
    ((0.0, -2.0), (0.0, 1.0), 20.0),
    ((1.0, -1.0), (1.0, 0.0), 30.0),
)


def test_period_is_constant_along_a_gauss6_run():
    # the period is a function of the orbit: from every state of a Gauss6
    # run at local_tol 1e-12 it is the start's within 1e-10, about 7 times
    # the worst measured, 1.5e-11 (at A = 0)
    for (A, B), (u0, v0), t_end in PERIODIC_RUNS:
        p = params_from_coeffs(A, B)
        T = period(p, u0, v0)
        traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=t_end, local_tol=1e-12))
        assert traj.t[-1] > 2.0 * T
        for u, v in zip(traj.u.tolist(), traj.v.tolist()):
            assert period(p, u, v) == pytest.approx(T, rel=1e-10), (A, B, u, v)


def test_period_domain():
    p = params_from_coeffs(2.0, -4.0)
    # disc = 9 (m = 3), m = 5's blow-ups, disc = 0 and A = B = 0: no closed orbit
    for q in (params_from_dimension(3.0), params_from_dimension(5.0), params_from_coeffs(1.0, -0.125),
              params_from_coeffs(0.0, 0.0)):
        with pytest.raises(DomainError, match=r"disc = A\^2 \+ 8B < 0"):
            period(q, 0.0, 1.0)
    with pytest.raises(DomainError, match="rest point"):
        period(p, 0.0, 0.0)
    for u0, v0 in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(DomainError, match="non-finite state"):
            period(p, u0, v0)
    # past floats: at disc = -1e-6, A = -1 the orbit from (0, 1) takes about
    # e^(500 pi); the reverse start (0, -1) has a period of order 1
    q = _negative_disc(-1.0, -1e-6)
    assert period(q, 0.0, 1.0) == math.inf and 1.0 < period(q, 0.0, -1.0) < 10.0
    # u -> lam u, u' -> lam^2 u' divides the period by lam, out to where u^2
    # and 4u' (or the period) leave the float range
    for u0, v0, lam in ((0.75, 0.0, 2.0**-600), (0.75, 0.0, 2.0**600), (0.75, 0.5, 2.0**-300), (0.75, 0.5, 2.0**512)):
        assert period(p, u0 * lam, v0 * lam * lam) == pytest.approx(period(p, u0, v0) / lam, rel=1e-13)
    assert period(p, 1e-310, 0.0) == math.inf
