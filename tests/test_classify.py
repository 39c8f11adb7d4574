import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    State,
    classify,
    detect_period,
    lemniscate_quarter_period,
    params_from_coeffs,
    params_from_dimension,
    verify_verdict,
)
from blowuplab.errors import Inconclusive

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
    assert v.basis == "tanh-family"
    assert v.detail["b"] == pytest.approx(1.0, rel=1e-12)
    assert v.detail["c"] == pytest.approx(0.0, abs=1e-15)


def test_m4_non_global_branches():
    # C = v0 - u0^2 for A = 2
    assert classify(P4, 0.5, 1.0).detail["branch"] == "tan"
    assert classify(P4, 2.0, 1.0).detail["branch"] == "recip-tanh"
    v = classify(P4, 1.0, 1.0)
    assert v.detail["branch"] == "rational"
    assert v.detail["t_pole"] == pytest.approx(1.0, rel=1e-12)
    for u0, v0 in ((0.5, 1.0), (2.0, 1.0), (1.0, 1.0)):
        assert classify(P4, u0, v0).kind == "no_global_solution"


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


def test_m9_mirrors_m5_with_swapped_directions():
    # u(-t) solves the A -> -A equation, reversing blow-up direction
    swap = {"blowup_forward": "blowup_backward", "blowup_backward": "blowup_forward"}
    rng = np.random.default_rng(3)
    p_pos = params_from_coeffs(1.0, P9.B)
    for _ in range(25):
        u0, v0 = rng.uniform(-2.0, 2.0, size=2)
        v9 = classify(P9, u0, v0)
        v_mirror = classify(p_pos, u0, -v0)
        assert v9.kind == swap.get(v_mirror.kind, v_mirror.kind)


def test_sign_conjugacy_swaps_direction():
    # -u(-t) solves the same equation; data (-u0, v0), directions swapped
    swap = {"blowup_forward": "blowup_backward", "blowup_backward": "blowup_forward"}
    rng = np.random.default_rng(4)
    for p in (P5, P9):
        for _ in range(25):
            u0, v0 = rng.uniform(-2.0, 2.0, size=2)
            if abs(u0) < 1e-3:
                continue
            a = classify(p, u0, v0)
            b = classify(p, -u0, v0)
            assert b.kind == swap.get(a.kind, a.kind)


def test_m3_decay_region():
    assert classify(P3, 0.0, -0.5).kind == "global_bounded"
    assert classify(P3, 0.0, 0.7).kind == "global_bounded"
    v = classify(P3, 1.0, 0.1)
    assert v.kind == "global_bounded"
    assert v.basis == "decay-to-origin"
    assert classify(P3, 1.0, -0.1).kind == "global_bounded"
    assert classify(P3, 1.0, 0.6).kind == "unclassified"


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
    assert check.t_blow_forward is None
    assert check.t_blow_backward == pytest.approx(-552256.245, rel=1e-8)


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
    assert h.hexdigest() == "fe33244226f856f18dffc846c9321031b301ee3bf41d11ef84a295aa950df1fe"


def test_verify_no_global_m8():
    v = classify(P8, 1.0, 1.0 / 3.0)
    check = verify_verdict(P8, 1.0, 1.0 / 3.0, v, horizon=10.0)
    assert check.passed
    assert check.t_blow_forward == pytest.approx(3.0, rel=1e-2)


def test_verify_rejects_bad_horizon():
    v = classify(P4, 0.0, -1.0)
    with pytest.raises(DomainError):
        verify_verdict(P4, 0.0, -1.0, v, horizon=0.0)


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
