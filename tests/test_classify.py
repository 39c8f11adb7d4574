import hashlib
import importlib
import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from blowuplab import (
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    State,
    Verdict,
    classify,
    g_k,
    integrate,
    lemniscate_quarter_period,
    params_from_coeffs,
    params_from_dimension,
    period,
    quadrature_blowup_time,
    verify_verdict,
)
from blowuplab.exact import escape_time

classify_module = importlib.import_module("blowuplab.classify")  # the package's classify is the function

P3 = params_from_dimension(3.0)
P4 = params_from_dimension(4.0)
P5 = params_from_dimension(5.0)
P8 = params_from_dimension(8.0)
P9 = params_from_dimension(9.0)


def test_trivial_fixed_point():
    for p in (P3, P4, P5, P8, P9):
        assert classify(p, 0.0, 0.0).kind == "trivial"


def test_m4_stationary_line():
    assert classify(P4, 3.0, 0.0).kind == "stationary"
    assert classify(P4, -0.2, 0.0).kind == "stationary"


def test_m4_tanh_family():
    # at B = 0 u tends to a non-zero constant; a global verdict carries no
    # detail, and verify_verdict holds both runs to exact.state_at
    v = classify(P4, 0.0, -1.0)
    assert v.kind == "global_bounded"
    assert v.basis == "w-equation"
    assert v.detail is None


def test_m4_non_global_branches():
    # u' + k u^2 = g is constant for k = -A/2 = -1: the tan branch (g > 0) has
    # poles on both sides, the nearer one the bound, the rational (g = 0) and
    # reciprocal-tanh (g < 0, u0^2 > -g) branches one exact pole each
    v = classify(P4, 0.5, 1.0)
    assert (v.kind, v.basis) == ("no_global_solution", "w-equation")
    assert v.detail == {"t_bound": pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-12)}
    v = classify(P4, 2.0, 1.0)
    assert (v.kind, v.basis) == ("blowup_forward", "w-equation")
    assert v.detail["t_bound"] == pytest.approx(0.7603459963009463, rel=1e-12)
    v = classify(P4, 1.0, 1.0)
    assert (v.kind, v.basis) == ("blowup_forward", "w-equation")
    assert v.detail["t_bound"] == 1.0
    v = classify(params_from_coeffs(-2.0, 0.0), 2.0, -1.0)
    assert (v.kind, v.basis) == ("blowup_backward", "w-equation")
    assert v.detail == {"t_bound": pytest.approx(-0.7603459963009463, rel=1e-12)}
    for u0, v0 in ((2.0, 1.0), (1.0, 1.0), (-2.0, 1.0)):
        assert verify_verdict(P4, u0, v0, classify(P4, u0, v0), horizon=50.0).passed


def test_linear_drift_unclassified():
    p = params_from_coeffs(0.0, 0.0)
    assert classify(p, 1.0, 0.5).kind == "unclassified"


# disc = 0: k = -1/4 and q = -1; and a B < 0 pair whose roots 1/2 and 1 are
# both positive, so the rule takes k = k_plus
P_DISC0 = params_from_coeffs(1.0, -0.125)
P_KPLUS = params_from_coeffs(-3.0, -1.0)
P_A_B0 = params_from_coeffs(-2.0, 0.0)  # the A -> -A mirror of m = 4

# (params, u0, v0, kind, t_bound): forward and backward take the branches of
# the w-equation rule named in the comment (inward: d k u0 < 0; q > 1 iff
# B > 0, q = 1 at B = 0; E has the sign of g_kplus(0) when k = k_minus,
# which at B = 0 is v0 for A > 0 and -v0 for A < 0).  t_bound is the nearer
# exact blow-up time: a pole -1/(k u0) on a parabola (G = 0), a Riccati
# pole at B = 0, 40-digit mpmath's (ROADMAP item 15) for m = 3 and the far
# m = 5 start, else exact.escape_time's, which tests/test_exact.py holds to
# mpmath within 1e-13
RULE_TABLE = [
    (P8, 1.0, 1.0 / 3.0, "blowup_forward", 3.0),  # G = 0: inward blows up at -1/(k u0), outward is global
    (P5, 1.0, 1.0, "no_global_solution", 1.327297248983794),  # a < 0 both ways
    (P5, 1.0, -0.05, "no_global_solution", 2.811391593833385),  # a > 0: inward with E > 0; outward with q > 1
    (P3, 1.0, 0.6, "blowup_forward", 0.9346740678055715),  # a > 0: inward with E > 0; outward with q < 1 is global
    (P3, -1.0, 0.6, "blowup_backward", -0.9346740678055715),  # the mirror -u(-t) of the row above
    (P3, 2.0, 2.0, "blowup_forward", 1.0),  # a > 0: inward with E = 0, q < 1: the parabola's pole
    (P5, -1.0, -P5.k_plus, "blowup_forward", 6.0),  # a > 0: inward with E = 0, q > 1 is global; outward
    (P5, 1e-5, -3.33e-11, "no_global_solution", -552256.5067186183),  # a > 0: inward with E < 0, q > 1; outward
    (P3, 1.0, 0.1, "global_bounded", None),  # a > 0: inward with E < 0, q < 1; outward with q < 1
    (P3, 0.0, 0.7, "no_global_solution", 1.2623802037891),  # a < 0 at u0 = 0: u is odd, and the tie goes forward
    (P3, 0.0, -0.5, "global_bounded", None),  # a > 0 at u0 = 0: outward both ways, q < 1
    (P_DISC0, 1.0, 0.5, "no_global_solution", 2.622718169675194),  # disc = 0, a < 0
    (P_DISC0, 1.0, -0.5, "global_bounded", None),  # disc = 0, a > 0
    (P_DISC0, 2.0, 1.0, "blowup_forward", 2.0),  # disc = 0, G = 0
    (P_KPLUS, 1.0, -0.6, "blowup_backward", -1.3819660112501053),  # k = k_plus, a > 0: inward with E > 0; outward
    (P_KPLUS, 1.0, -0.4, "global_bounded", None),  # k = k_plus, a > 0: inward with E < 0; outward
    # B = 0, k = -A/2, q = 1: the nearer exact Riccati pole
    (P4, 0.5, 1.0, "no_global_solution", 2.0 * math.pi / (3.0 * math.sqrt(3.0))),  # a < 0 both ways
    (P4, 1.0, 1.0, "blowup_forward", 1.0),  # G = 0: inward at -1/(k u0); outward is global
    (P4, 2.0, 1.0, "blowup_forward", 0.7603459963009463),  # a > 0: inward with E > 0; outward with q = 1
    (P_A_B0, 2.0, -1.0, "blowup_backward", -0.7603459963009463),  # the A -> -A mirror of the row above
    (P4, 1.0, -0.5, "global_bounded", None),  # a > 0: inward with E < 0; outward with q = 1
    (P_A_B0, 1.0, 0.5, "global_bounded", None),  # k = k_plus = 1, a > 0: the mirror of the row above
]


def test_w_equation_rule_table():
    for p, u0, v0, kind, t_bound in RULE_TABLE:
        v = classify(p, u0, v0)
        assert (v.kind, v.basis) == (kind, "w-equation"), (p.A, p.B, u0, v0)
        if t_bound is None:
            assert v.detail is None, (p.A, p.B, u0, v0)
        else:
            assert v.detail == {"t_bound": pytest.approx(t_bound, rel=1e-12)}, (p.A, p.B, u0, v0)
    # at disc = 0 a direction blows up iff r g > 0, the same both ways: from
    # (1, -0.5), g = -0.75 < 0 < r = 1/4, and from (1, 0.5) g = 0.25 > 0
    for d in (1.0, -1.0):
        assert escape_time(P_DISC0, 1.0, -0.5, d) is None
        assert escape_time(P_DISC0, 1.0, 0.5, d) is not None
    # at B = 0 the root k = 0 has exponent 0: u tends to a constant, and
    # classify settles the line of rest points u' = 0 first
    assert classify(P4, 1.0, 0.0).basis == "stationary-line"
    assert escape_time(P4, 1.0, -0.5, 1.0) is None and escape_time(P4, 1.0, -0.5, -1.0) is None


def test_w_equation_reference_points():
    # m = 3 from (1, 0.6) was left unclassified by the decision tree; it
    # blows up at 0.9346740678055715 (40-digit mpmath), its t_bound, and so does RK4
    v = classify(P3, 1.0, 0.6)
    assert (v.kind, v.detail) == ("blowup_forward", {"t_bound": pytest.approx(0.9346740678055715, rel=1e-12)})
    check = verify_verdict(P3, 1.0, 0.6, v, horizon=50.0)
    assert check.passed
    assert check.t_blow_forward == pytest.approx(0.93467406781, rel=1e-7)
    # on the parabola u' = u^2/2 the bound is the exact pole of u = 2/(1 - t)
    assert classify(P3, 2.0, 2.0).detail["t_bound"] == 1.0
    assert classify(P8, 1.0, 1.0 / 3.0).detail["t_bound"] == 3.0


def test_m5_direction_table():
    # m = 5 is above 4: off both parabolas every state blows up both ways,
    # and the mirror -u(-t) negates the nearer exact time (escape_time's;
    # the other times are -4.8313 and -6.4249)
    for u0, v0, t_bound in ((1.0, 1.0, 1.327297248983794), (-1.0, 1.0, -1.327297248983794),
                            (-1.0, -0.05, -2.811391593833385), (1.0, -0.05, 2.811391593833385)):
        v = classify(P5, u0, v0)
        assert (v.kind, v.basis) == ("no_global_solution", "w-equation"), (u0, v0)
        assert v.detail == {"t_bound": pytest.approx(t_bound, rel=1e-12)}
        assert classify(P5, -u0, v0).detail["t_bound"] == -v.detail["t_bound"]
        assert verify_verdict(P5, u0, v0, v, horizon=50.0).passed, (u0, v0)


def test_m5_parabola_bound():
    # (-+1/2, -1) lies off the parabolas; the comparison with the parabola
    # on the side where kappa g_kappa(0) <= 0 bounds the blow-up by its
    # pole 12 = -1/(k u0), and the exact time 5.3927 lies well inside it
    for u0, t_bound in ((-0.5, 5.3926951474984035), (0.5, -5.3926951474984035)):
        v = classify(P5, u0, -1.0)
        assert (v.kind, v.basis) == ("no_global_solution", "w-equation")
        assert v.detail["t_bound"] == pytest.approx(t_bound, rel=1e-12)
        assert abs(v.detail["t_bound"]) < 12.0
        assert verify_verdict(P5, u0, -1.0, v, horizon=50.0).passed, u0


def test_m8_energy_branches():
    # on the parabola (G = 0) only the inward direction blows up, at the exact
    # pole 3; off it (E > 0) both directions do, the nearer at the escape time
    # of the conserved energy (A = 0: u'^2 = (B/2) u^4 + 1 - B/2 from (1, 1))
    v = classify(P8, 1.0, 1.0 / 3.0)
    assert (v.kind, v.basis, v.detail) == ("blowup_forward", "w-equation", {"t_bound": 3.0})
    v = classify(P8, 1.0, 1.0)
    assert (v.kind, v.basis) == ("no_global_solution", "w-equation")
    assert v.detail["t_bound"] == pytest.approx(quadrature_blowup_time(P8.B / 2.0, 1.0 - P8.B / 2.0, 1.0), rel=1e-13)
    for v0 in (1.0 / 3.0, 1.0):
        assert verify_verdict(P8, 1.0, v0, classify(P8, 1.0, v0), horizon=50.0).passed, v0


def test_m3_decay_region():
    # below the parabola (E < 0, q < 1) the state decays both ways; above it
    # u blows up inward, and from u0 = 0 with v0 > 0 both ways, at the
    # 40-digit mpmath times +-1.2623802037891 (the tie goes to sign(u0) sign(v0))
    for u0, v0 in ((0.0, -0.5), (1.0, 0.1), (1.0, -0.1)):
        v = classify(P3, u0, v0)
        assert (v.kind, v.basis, v.detail) == ("global_bounded", "w-equation", None), (u0, v0)
    v = classify(P3, 0.0, 0.7)
    assert (v.kind, v.basis) == ("no_global_solution", "w-equation")
    assert v.detail == {"t_bound": pytest.approx(1.2623802037891, rel=1e-12)}
    assert classify(P3, -0.0, 0.7).detail == {"t_bound": -v.detail["t_bound"]}
    v = classify(P3, 1.0, 0.6)
    assert (v.kind, v.basis, v.detail) == ("blowup_forward", "w-equation", {"t_bound": pytest.approx(0.9346740678055715, rel=1e-12)})
    for u0, v0 in ((0.0, -0.5), (1.0, 0.1), (1.0, -0.1), (1.0, 0.6)):
        assert verify_verdict(P3, u0, v0, classify(P3, u0, v0), horizon=50.0).passed, (u0, v0)


def _blows(kind: str, d: float) -> bool:
    return kind == "no_global_solution" or kind == ("blowup_forward" if d > 0 else "blowup_backward")


def _seeded_states(rng, n):
    """n states (u0, v0) = (rho cos th, rho^2 sin th), rho in [1/2, 2]: one scale, every direction."""
    th = rng.uniform(-math.pi, math.pi, n)
    rho = rng.uniform(0.5, 2.0, n)
    return list(zip((rho * np.cos(th)).tolist(), (rho * rho * np.sin(th)).tolist()))


def test_no_global_solution_for_m_above_4_off_the_parabolas():
    # the abstract's claim (a), for every real m > 4: off both invariant
    # parabolas every solution blows up both ways
    rng = np.random.default_rng(41)
    checked = 0
    for m in rng.uniform(4.0, 50.0, 400).tolist():
        p = params_from_dimension(m)
        for u0, v0 in _seeded_states(rng, 25):
            s0 = State(0.0, u0, v0)
            if g_k(s0, p.k_minus) != 0.0 and g_k(s0, p.k_plus) != 0.0:
                assert classify(p, u0, v0).kind == "no_global_solution", (m, u0, v0)
                checked += 1
    assert checked > 9000


def test_m_between_2_and_4_blows_up_by_the_sign_rule():
    # direction d blows up iff g_kminus(0) > 0, or d u0 > 0 and g_kplus(0) >= 0
    rng = np.random.default_rng(43)
    seen = {True: 0, False: 0}
    for m in rng.uniform(2.0, 4.0, 400).tolist():
        p = params_from_dimension(m)
        for u0, v0 in _seeded_states(rng, 25):
            s0 = State(0.0, u0, v0)
            kind = classify(p, u0, v0).kind
            for d in (1.0, -1.0):
                want = g_k(s0, p.k_minus) > 0.0 or (d * u0 > 0.0 and g_k(s0, p.k_plus) >= 0.0)
                assert _blows(kind, d) == want, (m, u0, v0, d, kind)
                seen[want] += 1
    assert min(seen.values()) > 1000, seen


def test_w_equation_rule_agrees_with_gauss6():
    # each direction's kind against a Gauss6 run at local_tol 1e-12 out to
    # |t| = 200, on seeded m in (2, 4) and (4, 20] and on disc = 0 sets.
    # Near a separatrix the exact blow-up time grows without bound (at a
    # relative distance 3.6e-7 from the parabola, m = 9.26 blows up past
    # t = 200), so states within 1% of either parabola in g_k(0) / (|v0| +
    # |k| u0^2) are left out; at disc = 0 the turn at w* = exp(E/|a|) puts
    # blow-ups with |a| < 0.1 past t = 200 (|a| = 5.5e-4 at A = -1), so
    # those are left out too
    rng = np.random.default_rng(47)
    cases = []
    for m in (*rng.uniform(2.0, 4.0, 10).tolist(), *rng.uniform(4.0, 20.0, 8).tolist()):
        p = params_from_dimension(m)
        for u0, v0 in _seeded_states(rng, 2):
            s0 = State(0.0, u0, v0)
            near = min(abs(g_k(s0, k)) / (abs(v0) + abs(k) * u0 * u0) for k in (p.k_minus, p.k_plus))
            if near >= 0.01:
                cases.append((p, u0, v0))
    for A in (2.0, -1.0, 3.0):
        p = params_from_coeffs(A, -A * A / 8.0)
        assert p.disc == 0.0
        for u0, v0 in _seeded_states(rng, 4):
            if abs(A / 4.0 * g_k(State(0.0, u0, v0), -A / 4.0)) >= 0.1:
                cases.append((p, u0, v0))
    assert len(cases) >= 30
    kinds = set()
    for p, u0, v0 in cases:
        kind = classify(p, u0, v0).kind
        kinds.add(kind)
        for d in (1.0, -1.0):
            opts = IntegrateOptions(h0=1e-3, t_end=d * 200.0, local_tol=1e-12)
            traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6, opts)
            assert (traj.termination.kind == "blowup") == _blows(kind, d), (p.A, p.B, u0, v0, d, kind)
    assert kinds >= {"no_global_solution", "global_bounded", "blowup_forward", "blowup_backward"}, kinds


def _b0_poles(A, u0, v0):
    """The blow-up times before and after t = 0 where B = 0, or None, from 40-digit closed forms.

    u' = g - k u^2 with k = -A/2 and g = u0' + k u0^2 is u = w'/(k w) with
    w'' = a w, a = k g, w(0) = 1 and w'(0) = k u0, and u blows up where w
    = 0.  With x = sqrt|a| t and s = k u0/sqrt|a|: w = cosh x + s sinh x
    (a > 0) is 0 where tanh x = -1/s, once where 1 - s^2 = k u0'/a < 0;
    w = cos x + s sin x (a < 0) where x = atan s -+ pi/2; and w = 1 + k u0 t
    (a = 0) at -1/(k u0).
    """
    with mp.workdps(40):
        k, u0, v0 = -mp.mpf(A) / 2, mp.mpf(u0), mp.mpf(v0)
        a = k * (v0 + k * u0**2)
        om = mp.sqrt(abs(a))
        if a > 0:
            poles = [-mp.atanh(om / (k * u0)) / om] if k * v0 / a < 0 else []
        elif a < 0:
            poles = [(mp.atan(k * u0 / om) + h) / om for h in (-mp.pi / 2, mp.pi / 2)]
        else:
            poles = [-1 / (k * u0)] if u0 != 0 else []
        poles = [float(t) for t in poles]
    return max((t for t in poles if t < 0.0), default=None), min((t for t in poles if t > 0.0), default=None)


def test_b0_rule_agrees_with_riccati_poles():
    # at B = 0 u solves a Riccati equation with k = -A/2, whose poles
    # (_b0_poles, an independent reading) are the blow-up times: the rule's
    # kind must name exactly the directions that have a pole, and t_bound must
    # be the nearer pole within 1e-13, at u0 = 0 (where u is odd) the one in
    # the direction sign(u0) sign(v0).  u0 scales with |A|^(-1/2), which
    # keeps k u0^2 / v0, so the last three A, where A^2 under- or overflows,
    # meet the same cases
    want = {(False, False): "global_bounded", (True, False): "blowup_backward",
            (False, True): "blowup_forward", (True, True): "no_global_solution"}
    rng = np.random.default_rng(53)
    grid = np.linspace(-2.0, 2.0, 9).tolist()
    kinds = set()
    for A in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 7.0, 1e-170, -1e-155, 1e200):
        p = params_from_coeffs(A, 0.0)
        for u0, v0 in [*_seeded_states(rng, 60), *((u, v) for u in grid for v in grid if v != 0.0)]:
            u0 /= math.sqrt(abs(A))
            v = classify(p, u0, v0)
            before, after = _b0_poles(A, u0, v0)
            assert v.kind == want[before is not None, after is not None], (A, u0, v0)
            poles = [t for t in (before, after) if t is not None]
            tie = math.copysign(1.0, u0) * math.copysign(1.0, v0)
            nearest = min(poles, key=lambda t: (abs(t), t * tie < 0.0)) if poles else None
            got = (v.detail or {}).get("t_bound")
            assert got == (None if nearest is None else pytest.approx(nearest, rel=1e-13)), (A, u0, v0, got, nearest)
            kinds.add(v.kind)
    assert len(kinds) == 4, kinds


SWAP = {"blowup_forward": "blowup_backward", "blowup_backward": "blowup_forward"}
# B = 0 coefficients: every blow-up carries its nearest exact pole
B0 = [params_from_coeffs(A, 0.0) for A in (2.0, -2.0, 0.5, -0.5)]


def _assert_conjugate(a, b) -> int:
    """b is the verdict of a's conjugate solution: blow-ups swap direction and t_bound negates."""
    assert b.kind == SWAP.get(a.kind, a.kind)
    if a.detail and "t_bound" in a.detail:
        assert b.detail["t_bound"] == -a.detail["t_bound"]
        return 1
    return 0


def test_m9_mirrors_m5_with_swapped_directions():
    # u(-t) solves the A -> -A equation, reversing blow-up direction
    rng = np.random.default_rng(3)
    bounds = 0
    for p in (P5, P9, P3, P_KPLUS, P_DISC0, *B0):
        mirror = params_from_coeffs(-p.A, p.B)
        for _ in range(25):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            bounds += _assert_conjugate(classify(mirror, u0, -v0), classify(p, u0, v0))
    # m = 4 at u0 = 0: the poles -+pi/(2 om) tie, and the tie goes to sign(u0) sign(v0)
    for v0 in (1.0, -1.0):
        bounds += _assert_conjugate(classify(P_A_B0, 0.0, -v0), classify(P4, 0.0, v0))
    assert bounds > 0


def test_sign_conjugacy_swaps_direction():
    # -u(-t) solves the same equation; data (-u0, v0), directions swapped
    rng = np.random.default_rng(4)
    bounds = 0
    for p in (P5, P9, P3, P_KPLUS, P_DISC0, *B0):
        for _ in range(25):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            if abs(u0) < 1e-3:
                continue
            bounds += _assert_conjugate(classify(p, u0, v0), classify(p, -u0, v0))
    for v0 in (1.0, -1.0):  # m = 4 at u0 = 0, where -u0 is -0.0
        bounds += _assert_conjugate(classify(P4, 0.0, v0), classify(P4, -0.0, v0))
    assert bounds > 0


def test_verify_m3_odd_escape():
    # g_k = v0 > 0 keeps its sign, so u blows up forward, and u is odd: the
    # blow-ups are at t = +-1.26238 from (0, 0.7) and +-33.399 from (0, 1e-3)
    for v0, t_blow in ((0.7, 1.26238), (1e-3, 33.399)):
        v = classify(P3, 0.0, v0)
        check = verify_verdict(P3, 0.0, v0, v, horizon=50.0)
        assert check.passed
        assert check.t_blow_forward == pytest.approx(t_blow, rel=1e-4)


def test_negative_discriminant_is_conjectural():
    p = params_from_coeffs(2.0, -4.0)
    assert p.disc < 0
    assert classify(p, 0.0, 1.0).basis == "periodicity-conjecture"
    p = params_from_coeffs(0.0, -2.0)
    assert classify(p, 0.0, 1.0).basis == "periodicity-conjecture"


def test_underflowed_root_or_pole_gives_no_bound():
    # k_plus underflows to 0 at B = 5e-324 (to -0.0 at B = -5e-324), A^2
    # overflows at A = 1e200, and -A/2 rounds to -0.0 at A = 5e-324, B = 0:
    # a lost root has no sign to read, so no verdict is taken from it
    for A, B in ((1.0, 5e-324), (1.0, -5e-324), (1e200, 1.0), (5e-324, 0.0)):
        p = params_from_coeffs(A, B)
        for u0, v0 in ((1.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (1.0, -0.2), (-1.0, 0.5), (0.5, -2.0), (0.0, 1.0)):
            if B != 0.0 or v0 != 0.0:
                assert classify(p, u0, v0) == Verdict("unclassified", "root-out-of-range"), (A, B, u0, v0)
    # at B = 1e-320 k_plus is subnormal: from (1, 1) the nearer time is the
    # Riccati pole pi/2 of k = -1/2; from (1, -0.2) both exact times overflow,
    # so the verdict carries none; and the sign of g_kplus still decides
    # (+-1, 0), where u'' = u u' + B u^3 blows up both ways, the nearer time
    # within 3.2e-7 of 800-digit mpmath's 737.520388 (k_plus keeps 11 bits)
    p = params_from_coeffs(1.0, 1e-320)
    assert classify(p, 1.0, 1.0).detail == {"t_bound": pytest.approx(math.pi / 2.0, rel=1e-13)}
    assert classify(p, 1.0, -0.2) == Verdict("no_global_solution", "w-equation")
    for u0 in (1.0, -1.0):
        v = classify(p, u0, 0.0)
        assert (v.kind, v.basis) == ("no_global_solution", "w-equation"), u0
        assert v.detail["t_bound"] == pytest.approx(u0 * 737.520388071534, rel=1e-6)
    # at B = 0 the roots -A/2 and 0 stay exact where A + A overflows
    p = params_from_coeffs(1e308, 0.0)
    assert (p.k_minus, p.k_plus) == (-5e307, 0.0)
    assert classify(p, 1e-154, 0.0).kind == "stationary"


def test_verify_tanh_verdict():
    v = classify(P4, 0.0, -1.0)
    check = verify_verdict(P4, 0.0, -1.0, v, horizon=5.0)
    assert check.passed
    assert check.max_abs_u <= 1.0 + 1e-6


def test_verify_stationary():
    v = classify(P4, 2.0, 0.0)
    assert verify_verdict(P4, 2.0, 0.0, v, horizon=3.0).passed


def test_verify_rejects_rest_claims_off_rest_points():
    # a trivial or stationary claim needs a rest point, as the runs' end-state
    # gate alone would pass any global start; at disc < 0, where the exact
    # state is not defined, such a claim fails before any run
    for p, u0, v0 in ((P3, 1.0, 0.1), (P4, 2.0, 0.5), (params_from_coeffs(0.0, -2.0), 0.0, 1.0)):
        for kind in ("trivial", "stationary"):
            check = verify_verdict(p, u0, v0, Verdict(kind, "fixed-point"), horizon=3.0)
            assert (check.passed, check.reason, check.max_abs_u) == (False, "not a rest point", None), (p.A, u0, v0, kind)
    assert verify_verdict(params_from_coeffs(0.0, -2.0), 0.0, 0.0, Verdict("trivial", "fixed-point"), horizon=3.0).passed


def test_verify_parabola_bound_respected():
    v = classify(P5, -0.5, -1.0)
    check = verify_verdict(P5, -0.5, -1.0, v, horizon=20.0)
    assert check.passed
    assert check.t_blow_forward is not None
    assert 0.0 < check.t_blow_forward <= v.detail["t_bound"]


def test_verify_parabola_points_at_exact_bound():
    # on the invariant parabola v = -u^2/6 the bound -1/(k u0) is the exact
    # blow-up time, which the fitted estimate misses by about 4e-11; as
    # evaluated, g_kplus(0) is -1.1e-16, not 0, so E < 0 and the inward
    # direction blows up as well (RK4: at -+30.02): no_global_solution, whose
    # t_bound claims the outward pole
    for u0, d in ((-2.0, 1.0), (2.0, -1.0)):
        v = classify(P5, u0, -2.0 / 3.0)
        assert v.kind == "no_global_solution"
        assert v.detail["t_bound"] == pytest.approx(d * 3.0, rel=1e-15)
        assert verify_verdict(P5, u0, -2.0 / 3.0, v, horizon=50.0).passed
        assert classify_module._run(P5, u0, -2.0 / 3.0, -d * 50.0)[1] == pytest.approx(-d * 30.02, rel=1e-3)


def test_verify_exact_parabola_bound_past_the_horizon():
    # on v = -kappa u^2, u = u0 / (1 + kappa u0 t) exactly, so verify_verdict
    # runs nothing and takes the pole -1/(kappa u0), the verdict's t_bound, as
    # the blow-up time.  At m = 6 and 7 the pole lies past the horizon, where
    # RK4 at local_tol 1e-10 put it past t_bound (1 + 1e-8); at m = 3 RK4
    # stepped across the pole at t = 1 and Gauss6 fitted it 0.8% early
    for p, u0, v0, t_bound in (
        (params_from_dimension(6.0), -0.011876724742972744, -3.526414765508525e-05, 336.79318891066595),
        (params_from_dimension(7.0), 0.02292329390047332, -0.00015764322097424317, -145.41249385039325),
        (P3, 2.0, 2.0, 1.0),
        (P3, -2.0, 2.0, -1.0),
        (params_from_coeffs(0.5, 0.25), -2.0, -1.0, 2.0),
        (params_from_coeffs(0.5, 0.25), 2.0, -1.0, -2.0),
    ):
        v = classify(p, u0, v0)
        assert v.kind == ("blowup_forward" if t_bound > 0.0 else "blowup_backward")
        assert v.detail["t_bound"] == t_bound
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed
        t_blow, t_other = (check.t_blow_forward, check.t_blow_backward)[:: 1 if t_bound > 0.0 else -1]
        assert t_blow == t_bound and t_other is None and check.max_abs_u is None


def test_verify_rejects_bound_below_blowup_time():
    for p, u0, v0 in ((P5, -2.0, -2.0 / 3.0), (P5, 2.0, -2.0 / 3.0), (P3, 2.0, 2.0), (P3, -2.0, 2.0)):
        v = classify(p, u0, v0)
        shrunk = replace(v, detail={"t_bound": v.detail["t_bound"] * (1.0 - 1e-6)})
        assert not verify_verdict(p, u0, v0, shrunk, horizon=50.0).passed


def test_verify_blowup_bound_beyond_horizon():
    # t_bound lies past the horizon of 50; the run stops there and adds the
    # exact remaining time.  The references are 40-digit mpmath's
    # (tests/test_exact.py's mp_escape_time)
    for m, u0, v0, t_exact in (
        (5.0, 0.017425351017666624, -0.0007791294921964953, -183.9873737759236),
        (9.0, 0.002390275606063308, 0.0022000072518919556, 75.4553322909001),
        (8.0, -0.030497883397175962, 0.0007917138562474335, -77.82267285707145),
        (8.0, 0.033684937989015395, 0.0019283492347536013, 56.106469587587306),
        (8.0, 0.01959198550545671, -0.00013550917209603774, -151.34905957654522),
        (9.0, -0.024760670114000294, -0.0006506120489702116, 84.00497419923799),
    ):
        p = params_from_dimension(m)
        v = classify(p, u0, v0)
        assert v.kind == "no_global_solution"
        bound = v.detail["t_bound"]
        assert abs(bound) > 50.0
        assert bound == pytest.approx(t_exact, rel=1e-12)
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed, (m, u0, v0, check)
        t_blow = check.t_blow_forward if bound > 0 else check.t_blow_backward
        assert t_blow == pytest.approx(t_exact, rel=1e-7)


def test_verify_backward_blowup_far_from_origin():
    # the blow-up lies near t = -552256, far past the horizon: the run stops
    # at t = -50 and adds the exact remaining time from its state there.  The
    # exact time is -552256.5067186183 by 40-digit mpmath (betainc), and
    # exact.escape_time's is the verdict's t_bound; RK4 run out to the blow-up
    # had fitted -552256.245, and the parabola comparison bounded it by -6e5
    v = classify(P5, 1e-5, -3.33e-11)
    assert v.kind == "no_global_solution"
    assert v.detail["t_bound"] == pytest.approx(-552256.5067186183, rel=1e-12)
    assert escape_time(P5, 1e-5, -3.33e-11, -1.0) == pytest.approx(-552256.50672, rel=1e-11)
    check = verify_verdict(P5, 1e-5, -3.33e-11, v, horizon=50.0)
    assert check.passed
    assert check.t_blow_forward is None  # a backward t_bound claims no forward blow-up, so none is run
    assert check.t_blow_backward == pytest.approx(-552256.50672, rel=1e-10)


def test_verify_runs_only_the_claimed_directions(monkeypatch):
    signs = []
    run = classify_module._run

    def recording_run(p, u0, v0, t_end):
        signs.append("+" if t_end > 0.0 else "-")
        return run(p, u0, v0, t_end)

    monkeypatch.setattr(classify_module, "_run", recording_run)
    m8_far = (-0.030497883397175962, 0.0007917138562474335)  # blow-ups at 160.14 and -77.82
    for p, u0, v0, kind, horizon, want in (
        (P4, 0.0, 0.0, "trivial", 5.0, "+-"),
        (P4, 2.0, 0.0, "stationary", 5.0, "+-"),
        (P4, 0.0, -1.0, "global_bounded", 5.0, "+-"),
        (P5, 1.0, 1.0, "no_global_solution", 10.0, "+"),  # t_bound 1.5
        (P5, -1.0, 1.0, "no_global_solution", 10.0, "-"),  # t_bound -1.5
        (P3, 1.0, 0.6, "blowup_forward", 10.0, "+"),
        (params_from_coeffs(2.0, -4.0), 1.0, 0.6, "unclassified", 10.0, ""),
        (P8, 1.0, 1.0 / 3.0, "blowup_forward", 10.0, ""),  # on the parabola v = u^2/3: the exact pole
        # t_bound 2.81, nearer than the backward blow-up at -6.42, where |u| grows
        (P5, 1.0, -0.05, "no_global_solution", 5.0, "+"),
        (P8, *m8_far, "no_global_solution", 100.0, "-"),  # t_bound -77.82
        # both exact times overflow: no t_bound, and the run goes forward
        (params_from_coeffs(1.0, 1e-320), 1.0, -0.2, "no_global_solution", 10.0, "+"),
    ):
        v = classify(p, u0, v0)
        assert v.kind == kind
        signs.clear()
        check = verify_verdict(p, u0, v0, v, horizon=horizon)
        assert check.passed, (kind, check)
        assert "".join(signs) == want, (kind, signs)
        assert (check.max_abs_u is None) == (want == "")
        if (u0, v0) == m8_far:
            assert check.t_blow_forward is None
            assert check.t_blow_backward == pytest.approx(-77.82267285707, rel=1e-7)


def test_verify_blowups_past_the_horizon_without_t_bound():
    # the parabola comparison gave these verdicts no bound (g_kminus(0) < 0 <
    # g_kplus(0)); each now carries its nearer exact time, past the horizon
    # of 50, and the run in its direction stops there and adds the exact
    # remaining time.  The times are 40-digit mpmath's: among them m = 5,
    # which failed before in its backward run (to -214.163, checked below),
    # and the m = 9 point that failed a verify_grid_rk4 operation at seed 100
    for m, u0, v0, d, t_blow in (
        (8.0, 0.03, -4.5e-05, -1.0, -124.26515225845424),
        (8.0, 0.03, 1.8e-05, 1.0, 128.21572286017755),
        (9.0, 0.03, -4.5e-05, -1.0, -119.6083369278181),
        (5.0, 0.03, -4.5e-05, 1.0, 93.71305312777953),
        (9.0, 0.0598, 0.000456, 1.0, 65.63468388496041),
    ):
        p = params_from_dimension(m)
        v = classify(p, u0, v0)
        assert (v.kind, v.detail) == ("no_global_solution", {"t_bound": pytest.approx(t_blow, rel=1e-12)})
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed, (m, u0, v0, check)
        assert (check.t_blow_forward, check.t_blow_backward)[d < 0] == pytest.approx(t_blow, rel=1e-7)
        assert (check.t_blow_forward, check.t_blow_backward)[d > 0] is None
    # the m = 5 point's farther blow-up, claimed by a backward t_bound: the
    # backward run stops at -50 and its estimate meets the exact time
    t_back = escape_time(P5, 0.03, -4.5e-05, -1.0)
    assert t_back == pytest.approx(-214.16329695499036, rel=1e-12)
    check = verify_verdict(P5, 0.03, -4.5e-05, Verdict("no_global_solution", "w-equation", {"t_bound": t_back}), horizon=50.0)
    assert check.passed, check
    assert (check.t_blow_forward, check.t_blow_backward) == (None, pytest.approx(-214.16329695499036, rel=1e-7))


def test_verify_global_decay_at_m_3_5():
    # u decays like 6/t, so u(50) is about 0.11: global_bounded verdicts are
    # checked by the exact end state, not by a decay threshold
    p = params_from_dimension(3.5)
    for u0, v0 in ((1.0, -0.5), (-1.0, -0.5), (-2.0, -3.0)):
        v = classify(p, u0, v0)
        assert v.kind == "global_bounded"
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed, (u0, v0, check)
        assert check.max_abs_u > 0.05


def test_verify_disc0_grid():
    # disc = 0, where u decays like 1/(|k| t) up to logarithms: every verdict
    # of the 9 x 9 grid verifies, the 48 global_bounded rows among them
    grid = np.linspace(-2.0, 2.0, 9).tolist()
    kinds = []
    for u0 in grid:
        for v0 in grid:
            v = classify(P_DISC0, u0, v0)
            kinds.append(v.kind)
            assert verify_verdict(P_DISC0, u0, v0, v, horizon=50.0).passed, (u0, v0, v)
    assert kinds.count("global_bounded") == 48


def test_nearly_double_roots():
    # A = 1, B = -1/8 + 1e-9: the roots r1 < r2 lie 4.5e-5 apart about 1/4,
    # with exponents near 2800.  From (1, 0.24999), between them with u > 0,
    # forward ends at r2 and blows up, backward is global; the mean root
    # 1/4 would call both global.  On the mean root's parabola u' = u^2/4
    # (between the roots too) the kinds are the same, with no division by
    # its g = 0.
    p = params_from_coeffs(1.0, -0.125 + 1e-9)
    for u0, v0 in ((1.0, 0.24999), (1.0, 0.25), (2.0, 1.0)):
        assert -p.k_plus < v0 / u0**2 < -p.k_minus
        v = classify(p, u0, v0)
        assert v.kind == "blowup_forward", (u0, v0, v)
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed, (u0, v0, check)
        assert check.t_blow_forward == pytest.approx(escape_time(p, u0, v0, 1.0), rel=1e-6)
    assert classify(p, -1.0, 0.25).kind == "blowup_backward"


def test_verify_near_disc0_grid():
    # B = -1/8 + 1e-7: exponents near 900, past the beta series, where the
    # exact times and states come from the quadrature in w; every verdict of
    # the 9 x 9 grid verifies against them
    p = params_from_coeffs(1.0, -0.125 + 1e-7)
    grid = np.linspace(-2.0, 2.0, 9).tolist()
    kinds = []
    for u0 in grid:
        for v0 in grid:
            v = classify(p, u0, v0)
            kinds.append(v.kind)
            assert verify_verdict(p, u0, v0, v, horizon=50.0).passed, (u0, v0, v)
    assert kinds.count("global_bounded") == 48


def test_verify_huge_t_bound_without_running_to_it():
    # at B = 1e-300 (k_plus = 1e-300) both exact times are 8.4515425472852e299
    # in size (800-digit mpmath: equal to 30 digits, and equal in floats), so
    # the tie goes to sign(u0) sign(v0), backward; the run stops at the
    # horizon and adds the exact remaining time
    p = params_from_coeffs(1.0, 1e-300)
    v = classify(p, 1.0, -0.2)
    assert v.detail["t_bound"] == pytest.approx(-8.4515425472852e299, rel=1e-12)
    assert v.detail["t_bound"] == -escape_time(p, 1.0, -0.2, 1.0)
    start = time.perf_counter()
    check = verify_verdict(p, 1.0, -0.2, v, horizon=50.0)
    assert time.perf_counter() - start < 1.0
    assert check.passed, check
    assert -1e300 <= check.t_blow_backward < -1e299


def _census():
    """(p, u0, v0) on a 21 x 21 grid of [-2, 2]^2 for seven dimensions and twenty (A, B) pairs."""
    grid = np.linspace(-2.0, 2.0, 21).tolist()
    params = [params_from_dimension(m) for m in (3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 9.0)]
    params += [params_from_coeffs(A, B) for A in (-2, -1, 0, 1, 2) for B in (-1, 0, 0.5, 2)]
    return [(p, u0, v0) for p in params for u0 in grid for v0 in grid]


def test_verdict_census_is_pinned():
    # sha256 over every verdict of the census: any change to the rule or
    # to its exact times changes the digest.  Re-pinned when escape_time's
    # beta legs moved to the series in logs that state_at sums: 5883 of
    # the 7546 t_bound values moved, by at most 1.27e-15 relative, and no
    # kind or basis changed
    h = hashlib.sha256()
    for p, u0, v0 in _census():
        v = classify(p, u0, v0)
        h.update(repr((p.A, p.B, u0, v0, v.kind, v.basis, v.detail)).encode())
    assert h.hexdigest() == "35b376620842391b2c9496aa0b3acbfc9f6942d4024a478b38c744d91f8b95c6"


def _comparison_bound(p, u0, v0):
    """The bound classify took before exact times: the nearer Riccati pole at B = 0 (none at u0 = 0), else the nearer pole -1/(kappa u0) over the roots with kappa g_kappa(0) <= 0."""
    k = p.k_minus if p.k_minus < 0.0 else p.k_plus  # -A/2 at B = 0
    if p.B == 0.0:
        poles = [t for t in _b0_poles(p.A, u0, v0) if t is not None] if k * u0 != 0.0 else []
    else:
        s0 = State(0.0, u0, v0)
        poles = [-1.0 / (kappa * u0) for kappa in (p.k_minus, p.k_plus) if kappa * u0 != 0.0 and kappa * g_k(s0, kappa) <= 0.0]
    return min(poles, key=abs) if poles else None


def test_exact_time_is_never_looser_than_the_comparison_bound():
    # wherever the parabola comparison (or the Riccati pole) bounded a
    # blow-up verdict, the verdict's exact t_bound lies no further out
    compared = 0
    for p, u0, v0 in _census():
        v = classify(p, u0, v0)
        if v.kind not in ("blowup_forward", "blowup_backward", "no_global_solution"):
            continue
        bound = _comparison_bound(p, u0, v0)
        if bound is not None and abs(bound) < math.inf:
            assert abs(v.detail["t_bound"]) <= abs(bound) * (1.0 + 1e-12), (p.A, p.B, u0, v0, v.detail, bound)
            compared += 1
    assert compared == 4766


def test_verify_blowup_claim_without_a_finite_t_bound():
    # at B = 1e-320 from (1, -0.2) both exact times overflow: the verdict
    # carries no t_bound, and its forward run must end with an exact time,
    # here past floats too; a claim without t_bound whose run direction is
    # global fails, and so does a t_bound of NaN or inf
    p = params_from_coeffs(1.0, 1e-320)
    v = classify(p, 1.0, -0.2)
    check = verify_verdict(p, 1.0, -0.2, v, horizon=10.0)
    assert check.passed and "no finite t_bound" in check.reason, check
    assert check.t_blow_forward == math.inf and check.t_blow_backward is None
    check = verify_verdict(P3, 1.0, 0.1, Verdict("blowup_forward", "w-equation"), horizon=10.0)
    assert not check.passed and "not seen" in check.reason, check
    for bad in (math.nan, math.inf, -math.inf):
        assert not verify_verdict(P3, 1.0, 0.6, Verdict("blowup_forward", "w-equation", {"t_bound": bad}), 10.0).passed


def test_verify_no_global_m8():
    v = classify(P8, 1.0, 1.0 / 3.0)
    check = verify_verdict(P8, 1.0, 1.0 / 3.0, v, horizon=10.0)
    assert check.passed
    assert check.t_blow_forward == pytest.approx(3.0, rel=1e-2)


def test_verify_rejects_bad_horizon():
    v = classify(P4, 0.0, -1.0)
    for horizon in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            verify_verdict(P4, 0.0, -1.0, v, horizon=horizon)


# The period tests below keep the names of the return-map period search that
# exact.period replaced; each checks the same property of the closed-form
# period, and an integration over one period stands in for the return map.

def _closure_over_one_period(p, u0, v0):
    T = period(p, u0, v0)
    traj = integrate(p, State(0.0, u0, v0), IntegratorKind.GAUSS6,
                     IntegrateOptions(h0=1e-3, t_end=T, local_tol=1e-12))
    assert traj.termination.kind == "completed" and traj.t[-1] == T
    return T, math.hypot(traj.u[-1] - u0, traj.v[-1] - v0)


def test_detect_period_lemniscatic():
    # u'' = -2 u^3 from (0, 1) is the lemniscatic sine itself
    p = params_from_coeffs(0.0, -2.0)
    T, closure = _closure_over_one_period(p, 0.0, 1.0)
    assert closure <= 1e-5
    assert T == pytest.approx(4.0 * lemniscate_quarter_period(), abs=1e-6)


def test_detect_period_from_a_turning_point():
    # v0 = 0: the start (1, 0) lies on the same orbit as (0, 1)
    p = params_from_coeffs(0.0, -2.0)
    T, closure = _closure_over_one_period(p, 1.0, 0.0)
    assert closure <= 1e-5
    assert T == pytest.approx(4.0 * lemniscate_quarter_period(), abs=1e-6)


def test_detect_period_m3_decay_is_aperiodic():
    # disc = 9: no period, and the decay run never comes back to u = 0
    with pytest.raises(DomainError, match=r"disc = A\^2 \+ 8B < 0"):
        period(P3, 0.0, -0.5)
    traj = integrate(P3, State(0.0, 0.0, -0.5), IntegratorKind.GAUSS6, IntegrateOptions(t_end=20.0))
    assert traj.termination.kind == "completed"
    assert np.all(traj.u[1:] < 0.0)


def test_detect_period_inconclusive_on_blowup():
    # m = 5 blows up from (1, 1): no period is given for it
    with pytest.raises(DomainError, match=r"disc = A\^2 \+ 8B < 0"):
        period(P5, 1.0, 1.0)
    traj = integrate(P5, State(0.0, 1.0, 1.0), IntegratorKind.GAUSS6, IntegrateOptions(t_end=10.0))
    assert traj.termination.kind == "blowup"


def test_detect_period_arg_validation():
    p = params_from_coeffs(0.0, -2.0)
    with pytest.raises(DomainError, match="rest point"):
        period(p, 0.0, 0.0)
    for u0, v0 in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(DomainError, match="non-finite state"):
            period(p, u0, v0)
    for q in (P3, params_from_coeffs(1.0, -0.125), params_from_coeffs(0.0, 0.0)):
        with pytest.raises(DomainError, match=r"disc = A\^2 \+ 8B < 0"):
            period(q, 0.0, 1.0)
