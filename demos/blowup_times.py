"""Measure finite-time blow-up and check the estimates against exact times.

Three comparisons:
  * the m = 8 rational solution u = 3/(3 - t) on the invariant parabola
    u' = -k u^2, whose pole exact.parabola_pole gives at t = 3,
  * the quadrature formula T = int_a^inf dv / sqrt((B/2) v^4 + C),
  * the m = 4 reciprocal-tanh branch at B = 0, timed by exact.escape_time.

Exits 1 when an estimate misses an exact time by more than ten times the
relative error measured for it: 1.15e-9 (m = 8), 4.8e-12 (A = 0) and
1.94e-9 (m = 4).
"""
import sys

import blowuplab as bl
from blowuplab.exact import escape_time, parabola_pole


def _misses(t_est, t_exact, gate):
    """[a line naming the miss] where t_est is not within gate of t_exact, relative, else []."""
    err = abs(t_est - t_exact) / abs(t_exact)
    return [] if err <= gate else [f"estimate {t_est!r} misses {t_exact!r} by {err:.2e}, past {gate:.2e}"]


def main():
    misses = []
    # exact rational solution for m = 8
    p8 = bl.params_from_dimension(8.0)
    opts = bl.IntegrateOptions(t_end=10.0, blowup_threshold=1e8)
    traj = bl.integrate(p8, bl.State(0.0, 1.0, 1.0 / 3.0), bl.IntegratorKind.RK4, opts)
    t_est = bl.estimate_blowup_time(traj)
    t_quad = bl.quadrature_blowup_time(p8.B / 2.0, 0.0, 1.0)
    pole = parabola_pole(p8, 1.0, -p8.k_minus)
    print("m = 8 from (u, u') = (1, 1/3):   u = 3/(3 - t)")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  quadrature prediction  {t_quad:.9f}")
    print(f"  exact pole             {pole:.9f}\n")
    misses += _misses(t_est, pole, 1.15e-8) + _misses(t_est, t_quad, 1.15e-8)

    # conserved-energy escape: (w')^2 = 1 + w^4 from w = 0
    p = bl.params_from_coeffs(0.0, 2.0)
    opts = bl.IntegrateOptions(t_end=5.0, blowup_threshold=1e8, local_tol=1e-11)
    traj = bl.integrate(p, bl.State(0.0, 0.0, 1.0), bl.IntegratorKind.GAUSS6, opts)
    t_est = bl.estimate_blowup_time(traj)
    t_quad = bl.quadrature_blowup_time(1.0, 1.0, 0.0)
    print("w'' = 2 w^3 from (0, 1):   escape time of (w')^2 = 1 + w^4")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  quadrature prediction  {t_quad:.9f}\n")
    misses += _misses(t_est, t_quad, 4.8e-11)

    # m = 4 reciprocal-tanh branch: B = 0, so u' + k u^2 is constant for k = -A/2
    p4 = bl.params_from_dimension(4.0)
    pole = escape_time(p4, 2.0, 1.0, 1.0)
    opts = bl.IntegrateOptions(t_end=2.0, blowup_threshold=1e8)
    traj = bl.integrate(p4, bl.State(0.0, 2.0, 1.0), bl.IntegratorKind.RK4, opts)
    t_est = bl.estimate_blowup_time(traj)
    print("m = 4 from (2, 1): reciprocal-tanh branch")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  exact blow-up time     {pole:.9f}")
    misses += _misses(t_est, pole, 1.94e-8)

    for m in misses:
        print(m, file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
