import math
import pickle

import mpmath as mp
import numpy as np
import pytest

from blowuplab import (
    DomainError,
    NonFiniteError,
    OdeParams,
    State,
    params_from_coeffs,
    params_from_dimension,
    rhs,
)


def test_coefficients_from_dimension():
    p = params_from_dimension(3.0)
    assert p.A == 5.0 and p.B == -2.0 and p.m == 3.0
    p = params_from_dimension(4.0)
    assert p.A == 2.0 and p.B == 0.0
    p = params_from_dimension(5.0)
    assert p.A == 1.0 and abs(p.B - 2.0 / 9.0) < 1e-16
    p = params_from_dimension(8.0)
    assert p.A == 0.0 and abs(p.B - 2.0 / 9.0) < 1e-16
    p = params_from_dimension(9.0)
    assert p.A == pytest.approx(-1.0 / 7.0, rel=1e-15)
    assert abs(p.B - 10.0 / 49.0) < 1e-16


def test_discriminant_value():
    # A^2 + 8B collapses to (m/(m-2))^2, always positive for m > 2
    for m in (2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 12.0):
        p = params_from_dimension(m)
        expected = (m / (m - 2.0)) ** 2
        assert p.disc == pytest.approx(expected, rel=1e-14)
        assert p.disc > 0.0


def test_roots_solve_characteristic_quadratic():
    for m in (2.5, 3.0, 4.0, 5.0, 6.5, 8.0, 9.0, 20.0):
        p = params_from_dimension(m)
        assert p.k_minus is not None and p.k_plus is not None
        assert p.k_minus <= p.k_plus
        for k in (p.k_minus, p.k_plus):
            assert abs(2.0 * k * k + p.A * k - p.B) < 1e-14


def test_known_root_values():
    p = params_from_dimension(3.0)
    assert p.k_minus == pytest.approx(-2.0, abs=1e-15)
    assert p.k_plus == pytest.approx(-0.5, abs=1e-15)
    p = params_from_dimension(5.0)
    assert p.k_minus == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert p.k_plus == pytest.approx(1.0 / 6.0, abs=1e-15)
    p = params_from_dimension(4.0)
    assert p.k_minus == -1.0 and p.k_plus == 0.0
    p = params_from_dimension(8.0)
    assert p.k_minus == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert p.k_plus == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_roots_at_zero_A_are_exact_negatives():
    # at A = +-0 the roots are -+sqrt(B/2); refining one of them through
    # k1 k2 = -B/2 broke the tie k_minus == -k_plus in the last ulp
    rng = np.random.default_rng(61)
    for B in (*rng.uniform(1e-3, 10.0, 2000).tolist(), 1e-300, 1.0, 3.0, 2.0 / 9.0):
        for A in (0.0, -0.0):
            p = params_from_coeffs(A, B)
            assert p.k_minus == -p.k_plus == -math.sqrt(B / 2.0), (A, B)


def test_negative_discriminant_has_no_roots():
    p = params_from_coeffs(1.0, -1.0)
    assert p.disc < 0.0
    assert p.k_minus is None and p.k_plus is None


def test_small_root_is_cancellation_free():
    # near-degenerate quadratic: the small root must come out accurate
    p = params_from_coeffs(1e8, 1.0)
    small = min(abs(p.k_minus), abs(p.k_plus))
    assert small == pytest.approx(1e-8, rel=1e-12)


def test_root_gap_near_double_root():
    # near disc = 0, A A + 8B cancels: rounded A A would leave disc, and the
    # gap k_plus - k_minus = sqrt(disc)/2, off by up to 3e-2 relative at
    # disc = 1e-14; with A A error-free the worst of 2000 seeded cases is 2e-9
    rng = np.random.default_rng(29)
    worst, n = 0.0, 0
    with mp.workdps(40):
        while n < 2000:
            A = float(rng.uniform(-4.0, 4.0))
            B = (10.0 ** rng.uniform(-14.0, -6.0) - A * A) / 8.0
            disc = mp.mpf(A) ** 2 + 8 * mp.mpf(B)
            if not 1e-14 <= disc <= 1e-6:
                continue
            p, want, n = params_from_coeffs(A, B), mp.sqrt(disc) / 2, n + 1
            worst = max(worst, float(abs((p.k_plus - p.k_minus) - want) / want))
    assert worst <= 1e-8, worst


def test_params_from_coeffs_has_no_dimension():
    p = params_from_coeffs(2.0, -4.0)
    assert p.m is None
    assert p.A == 2.0 and p.B == -4.0


def test_dimension_domain_error():
    with pytest.raises(DomainError):
        params_from_dimension(2.0)
    with pytest.raises(DomainError):
        params_from_dimension(-1.0)
    with pytest.raises(DomainError):
        params_from_dimension(math.nan)
    with pytest.raises(DomainError):
        params_from_dimension(math.inf)


@pytest.mark.parametrize("A, B", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
def test_coefficients_must_be_finite(A, B):
    with pytest.raises(DomainError):
        params_from_coeffs(A, B)


def test_derived_fields_are_computed_not_passed():
    # disc, k_minus and k_plus follow from A and B and cannot be passed
    p = OdeParams(1.0, 2.0)
    assert p == params_from_coeffs(1.0, 2.0)
    assert p.disc == 17.0
    assert (p.k_minus, p.k_plus) == (pytest.approx(-1.2807764064044151), pytest.approx(0.7807764064044151))
    assert p._asdict() == {"A": 1.0, "B": 2.0, "m": None, "disc": 17.0, "k_minus": p.k_minus, "k_plus": p.k_plus}
    assert list(p._asdict()) == ["A", "B", "m", "disc", "k_minus", "k_plus"]
    assert pickle.loads(pickle.dumps(p)) == p
    for name in ("disc", "k_minus", "k_plus"):
        with pytest.raises(TypeError):
            OdeParams(1.0, 2.0, **{name: 0.0})
    with pytest.raises(DomainError):
        OdeParams(math.nan, 1.0)


@pytest.mark.parametrize("m", [1e155, 1e200, 1e308, 1.7976931348623157e308])
def test_huge_dimension_has_no_overflow(m):
    # (m - 2)^2 is past float max here: B rounds to 0.0 instead of raising
    # OverflowError or turning NaN
    p = params_from_dimension(m)
    assert (p.A, p.B, p.m) == (-1.0, 0.0, m)


def test_state_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        State(0.0, math.inf, 0.0)
    with pytest.raises(NonFiniteError):
        State(0.0, 0.0, math.nan)
    with pytest.raises(NonFiniteError):
        State(math.nan, 0.0, 0.0)


def test_rhs_values():
    p = OdeParams(A=5.0, B=-2.0)
    du, dv = rhs(p, State(0.0, 2.0, 3.0))
    assert du == 3.0
    assert dv == 5.0 * 2.0 * 3.0 - 2.0 * 8.0
