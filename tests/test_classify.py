import hashlib
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    IntegratorKind,
    State,
    classify,
    detect_period,
    lemniscate_quarter_period,
    params_from_coeffs,
    params_from_dimension,
    verify_verdict,
)
from blowuplab.errors import Inconclusive

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
    v = classify(P4, 0.0, -1.0)
    assert v.kind == "global_bounded"
    assert v.basis == "riccati"
    assert v.detail == {"k": -1.0}


def test_m4_non_global_branches():
    # u' + k u^2 = g is constant for k = -A/2 = -1: the tan branch (g > 0) has
    # poles on both sides, the rational (g = 0) and reciprocal-tanh (g < 0,
    # u0^2 > -g) branches one exact pole each
    v = classify(P4, 0.5, 1.0)
    assert (v.kind, v.basis, v.detail) == ("no_global_solution", "riccati", {"k": -1.0})
    v = classify(P4, 2.0, 1.0)
    assert (v.kind, v.basis) == ("blowup_forward", "riccati")
    assert v.detail["t_bound"] == pytest.approx(0.7603459963009463, rel=1e-12)
    v = classify(P4, 1.0, 1.0)
    assert (v.kind, v.basis) == ("blowup_forward", "riccati")
    assert v.detail["t_bound"] == 1.0
    v = classify(params_from_coeffs(-2.0, 0.0), 2.0, -1.0)
    assert (v.kind, v.basis) == ("blowup_backward", "riccati")
    assert v.detail == {"k": 1.0, "t_bound": pytest.approx(-0.7603459963009463, rel=1e-12)}
    for u0, v0 in ((2.0, 1.0), (1.0, 1.0), (-2.0, 1.0)):
        assert verify_verdict(P4, u0, v0, classify(P4, u0, v0), horizon=50.0).passed


def test_linear_drift_unclassified():
    p = params_from_coeffs(0.0, 0.0)
    assert classify(p, 1.0, 0.5).kind == "unclassified"


def test_m5_direction_table():
    assert classify(P5, 1.0, 1.0).kind == "blowup_forward"
    assert classify(P5, -1.0, 1.0).kind == "blowup_backward"
    assert classify(P5, -1.0, -0.05).kind == "blowup_forward"
    assert classify(P5, 1.0, -0.05).kind == "blowup_backward"


def test_m5_parabola_bound():
    v = classify(P5, -0.5, -1.0)
    assert v.kind == "blowup_forward"
    assert v.detail["t_bound"] == pytest.approx(12.0, rel=1e-12)
    v = classify(P5, 0.5, -1.0)
    assert v.kind == "blowup_backward"
    assert v.detail["t_bound"] == pytest.approx(-12.0, rel=1e-12)


def test_m8_energy_branches():
    v = classify(P8, 1.0, 1.0 / 3.0)
    assert v.kind == "no_global_solution"
    assert v.basis == "zero-energy-rational"
    v = classify(P8, 1.0, 1.0)
    assert v.basis == "conserved-energy-escape"
    assert v.detail["e0"] > 0.0


SWAP = {"blowup_forward": "blowup_backward", "blowup_backward": "blowup_forward"}
# B = 0 coefficients: the Riccati verdicts, one exact pole per one-sided blow-up
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
    p_pos = params_from_coeffs(1.0, P9.B)
    for _ in range(25):
        u0, v0 = rng.uniform(-2.0, 2.0, size=2)
        v9 = classify(P9, u0, v0)
        v_mirror = classify(p_pos, u0, -v0)
        assert v9.kind == SWAP.get(v_mirror.kind, v_mirror.kind)
    bounds = 0
    for p in B0:
        mirror = params_from_coeffs(-p.A, p.B)
        for _ in range(25):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            bounds += _assert_conjugate(classify(mirror, u0, -v0), classify(p, u0, v0))
    assert bounds > 0


def test_sign_conjugacy_swaps_direction():
    # -u(-t) solves the same equation; data (-u0, v0), directions swapped
    rng = np.random.default_rng(4)
    bounds = 0
    for p in (P5, P9, *B0):
        for _ in range(25):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            if abs(u0) < 1e-3:
                continue
            bounds += _assert_conjugate(classify(p, u0, v0), classify(p, -u0, v0))
    assert bounds > 0


def test_m3_decay_region():
    assert classify(P3, 0.0, -0.5).kind == "global_bounded"
    v = classify(P3, 0.0, 0.7)
    assert v.kind == "no_global_solution"
    assert v.basis == "odd-escape"
    v = classify(P3, 1.0, 0.1)
    assert v.kind == "global_bounded"
    assert v.basis == "decay-to-origin"
    assert classify(P3, 1.0, -0.1).kind == "global_bounded"
    assert classify(P3, 1.0, 0.6).kind == "unclassified"


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


def test_verify_tanh_verdict():
    v = classify(P4, 0.0, -1.0)
    check = verify_verdict(P4, 0.0, -1.0, v, horizon=5.0)
    assert check.passed
    assert check.max_abs_u <= 1.0 + 1e-6


def test_verify_stationary():
    v = classify(P4, 2.0, 0.0)
    assert verify_verdict(P4, 2.0, 0.0, v, horizon=3.0).passed


def test_verify_parabola_bound_respected():
    v = classify(P5, -0.5, -1.0)
    check = verify_verdict(P5, -0.5, -1.0, v, horizon=20.0)
    assert check.passed
    assert check.t_blow_forward is not None
    assert 0.0 < check.t_blow_forward <= v.detail["t_bound"]


def test_verify_parabola_points_at_exact_bound():
    # on the invariant parabola v = -u^2/6 the bound -1/(k u0) is the exact
    # blow-up time, which the fitted estimate misses by about 4e-11
    for u0, kind in ((-2.0, "blowup_forward"), (2.0, "blowup_backward")):
        v = classify(P5, u0, -2.0 / 3.0)
        assert v.kind == kind
        assert abs(v.detail["t_bound"]) == pytest.approx(3.0, rel=1e-15)
        assert verify_verdict(P5, u0, -2.0 / 3.0, v, horizon=50.0).passed


def test_verify_exact_parabola_bound_past_the_horizon():
    # on v = -k_plus u^2 the bound is the exact blow-up time, here past the
    # horizon; RK4 at local_tol 1e-10 puts the pole past t_bound (1 + 1e-8),
    # so the claim is settled by Gauss6
    for m, u0, v0, kind in (
        (6.0, -0.011876724742972744, -3.526414765508525e-05, "blowup_forward"),
        (7.0, 0.02292329390047332, -0.00015764322097424317, "blowup_backward"),
    ):
        p = params_from_dimension(m)
        v = classify(p, u0, v0)
        assert v.kind == kind
        assert abs(v.detail["t_bound"]) > 50.0
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed
        t_blow = check.t_blow_forward if kind == "blowup_forward" else check.t_blow_backward
        assert t_blow == pytest.approx(v.detail["t_bound"], rel=1e-12)


def test_verify_rejects_bound_below_blowup_time():
    for u0 in (-2.0, 2.0):
        v = classify(P5, u0, -2.0 / 3.0)
        shrunk = replace(v, detail={"t_bound": v.detail["t_bound"] * (1.0 - 1e-6)})
        assert not verify_verdict(P5, u0, -2.0 / 3.0, shrunk, horizon=50.0).passed


def test_verify_blowup_bound_beyond_horizon():
    # t_bound lies past the horizon of 50; the claimed blow-up is checked
    # out to the bound (it happens at about -184.0 and 75.5)
    for p, u0, v0, kind in (
        (P5, 0.017425351017666624, -0.0007791294921964953, "blowup_backward"),
        (P9, 0.002390275606063308, 0.0022000072518919556, "blowup_forward"),
    ):
        v = classify(p, u0, v0)
        assert v.kind == kind
        assert abs(v.detail["t_bound"]) > 50.0
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed
        t_blow = check.t_blow_forward if kind == "blowup_forward" else check.t_blow_backward
        assert 50.0 < abs(t_blow) < abs(v.detail["t_bound"])


def test_verify_backward_blowup_far_from_origin():
    # the blow-up tail lies near t = -552256, where the tail times share
    # their leading digits; an uncentred fit of 1/u put the root at +552256
    v = classify(P5, 1e-5, -3.33e-11)
    assert v.kind == "blowup_backward"
    assert v.detail["t_bound"] == pytest.approx(-6e5, rel=1e-12)
    check = verify_verdict(P5, 1e-5, -3.33e-11, v, horizon=50.0)
    assert check.passed
    assert check.t_blow_forward is None  # a backward claim runs no forward integration
    assert check.t_blow_backward == pytest.approx(-552256.245, rel=1e-8)


def test_verify_runs_only_the_claimed_directions(monkeypatch):
    signs = []
    run = classify_module._run

    def recording_run(p, u0, v0, t_end, *args):
        signs.append("+" if t_end > 0.0 else "-")
        return run(p, u0, v0, t_end, *args)

    monkeypatch.setattr(classify_module, "_run", recording_run)
    m8_far = (-0.030497883397175962, 0.0007917138562474335)  # blow-ups at 160.14 and -77.82
    for p, u0, v0, kind, horizon, want in (
        (P4, 0.0, 0.0, "trivial", 5.0, "+-"),
        (P4, 2.0, 0.0, "stationary", 5.0, "+-"),
        (P4, 0.0, -1.0, "global_bounded", 5.0, "+-"),
        (P5, 1.0, 1.0, "blowup_forward", 10.0, "+"),
        (P5, -1.0, 1.0, "blowup_backward", 10.0, "-"),
        (P3, 1.0, 0.6, "unclassified", 10.0, ""),
        (P8, 1.0, 1.0 / 3.0, "no_global_solution", 10.0, "+"),
        (P8, *m8_far, "no_global_solution", 100.0, "+-"),
    ):
        v = classify(p, u0, v0)
        assert v.kind == kind
        signs.clear()
        check = verify_verdict(p, u0, v0, v, horizon=horizon)
        assert check.passed, (kind, check)
        assert "".join(signs) == want, (kind, signs)
        assert (check.max_abs_u is None) == (want == "")
    assert check.t_blow_forward is None
    assert check.t_blow_backward == pytest.approx(-77.82, rel=1e-3)


def test_verify_blowups_past_the_horizon_without_t_bound():
    # none of these verdicts has a t_bound, and each blow-up lies past the
    # horizon of 50; the energy bound of _escape_bound takes the run out to it
    for m, u0, v0, kind, d, t_blow in (
        (8.0, -0.030497883397175962, 0.0007917138562474335, "no_global_solution", -1.0, -77.82267285707),
        (8.0, 0.033684937989015395, 0.0019283492347536013, "no_global_solution", 1.0, 56.10646958759),
        # RK4 steps across this exact bound, so Gauss6 settles it
        (8.0, 0.01959198550545671, -0.00013550917209603774, "no_global_solution", -1.0, -151.349059576545),
        (9.0, -0.024760670114000294, -0.0006506120489702116, "blowup_forward", 1.0, 84.00497420143),
    ):
        p = params_from_dimension(m)
        v = classify(p, u0, v0)
        assert v.kind == kind and "t_bound" not in (v.detail or {})
        check = verify_verdict(p, u0, v0, v, horizon=50.0)
        assert check.passed, (m, u0, v0, check)
        assert (check.t_blow_forward if d > 0 else check.t_blow_backward) == pytest.approx(t_blow, rel=1e-7)


def test_escape_bound_is_an_upper_bound_and_exact_at_A0():
    rng = np.random.default_rng(17)
    seen = {"exact": 0, "strict": 0, "none": 0}
    for p in (P5, P8, P9, params_from_coeffs(-1.0, 0.5), params_from_coeffs(0.0, 2.0)):
        for u0, v0 in rng.uniform(-2.0, 2.0, size=(8, 2)).tolist():
            for d in (1.0, -1.0):
                bound = classify_module._escape_bound(p, u0, v0, d)
                if bound is None:
                    seen["none"] += 1
                    continue
                _, t = classify_module._run(p, u0, v0, bound * (1.0 + 1e-6), IntegratorKind.GAUSS6, 1e-12)
                assert t is not None and 0.0 < d * t <= d * bound * (1.0 + 1e-11), (p, u0, v0, d)
                if p.A == 0.0:
                    assert t == pytest.approx(bound, rel=1e-11)
                    seen["exact"] += 1
                else:
                    seen["strict"] += 1
    assert min(seen.values()) > 0, seen
    assert classify_module._escape_bound(P3, 0.0, 0.7, 1.0) is None  # B < 0
    assert classify_module._escape_bound(P5, 1e200, 1.0, 1.0) is None  # u0^4 overflows


def test_verdict_census_is_pinned():
    # sha256 over every verdict on a 21 x 21 grid of [-2, 2]^2 for seven
    # dimensions and twenty (A, B) pairs: any change to the decision tree,
    # its conjugacy folds or its t_bound arithmetic changes the digest
    h = hashlib.sha256()
    grid = np.linspace(-2.0, 2.0, 21).tolist()
    params = [params_from_dimension(m) for m in (3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 9.0)]
    params += [params_from_coeffs(A, B) for A in (-2, -1, 0, 1, 2) for B in (-1, 0, 0.5, 2)]
    for p in params:
        for u0 in grid:
            for v0 in grid:
                v = classify(p, u0, v0)
                h.update(repr((p.A, p.B, u0, v0, v.kind, v.basis, v.detail)).encode())
    assert h.hexdigest() == "5ecaa73896776013238b5a7a3656851b57a81cf5679b645379bc1f9bfedfe6e2"


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


def test_detect_period_lemniscatic():
    # u'' = -2 u^3 from (0, 1) is the lemniscatic sine itself
    p = params_from_coeffs(0.0, -2.0)
    rep = detect_period(p, State(0.0, 0.0, 1.0), t_max=10.0)
    assert rep.periodic
    assert rep.closure_error <= 1e-5
    assert rep.period == pytest.approx(4.0 * lemniscate_quarter_period(), abs=1e-6)


def test_detect_period_from_a_turning_point():
    # v0 = 0: the section is u' = 0, crossed with u'' of the sign it has at s0
    p = params_from_coeffs(0.0, -2.0)
    rep = detect_period(p, State(0.0, 1.0, 0.0), t_max=10.0)
    assert rep.periodic
    assert rep.period == pytest.approx(4.0 * lemniscate_quarter_period(), abs=1e-6)


def test_detect_period_m3_decay_is_aperiodic():
    rep = detect_period(P3, State(0.0, 0.0, -0.5), t_max=20.0)
    assert not rep.periodic
    assert rep.period is None
    assert math.isfinite(rep.closure_error) or rep.closure_error == math.inf


def test_detect_period_inconclusive_on_blowup():
    with pytest.raises(Inconclusive):
        detect_period(P5, State(0.0, 1.0, 1.0), t_max=10.0)


def test_detect_period_arg_validation():
    with pytest.raises(DomainError):
        detect_period(P3, State(0.0, 0.0, 1.0), t_max=-1.0)
    with pytest.raises(DomainError):
        detect_period(P3, State(0.0, 0.0, 1.0), t_max=1.0, tol=0.0)
    for t_max in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError, match="t_max"):
            detect_period(P3, State(0.0, 0.0, 1.0), t_max=t_max)
    for tol in (math.nan, -1e-5):
        with pytest.raises(DomainError, match="tol"):
            detect_period(P3, State(0.0, 0.0, 1.0), t_max=1.0, tol=tol)
