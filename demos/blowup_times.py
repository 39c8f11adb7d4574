"""Measure finite-time blow-up and check the estimates against oracles.

Three comparisons:
  * the m = 8 rational solution u = 3/(3 - t) on the invariant parabola
    u' = -k u^2, whose Riccati closed form has its pole at t = 3,
  * the quadrature formula T = int_a^inf dv / sqrt((B/2) v^4 + C),
  * the m = 4 reciprocal-tanh branch, the Riccati closed form for B = 0.
"""
import blowuplab as bl


def main():
    # exact rational solution for m = 8
    p8 = bl.params_from_dimension(8.0)
    opts = bl.IntegrateOptions(t_end=10.0, blowup_threshold=1e8)
    traj = bl.integrate(p8, bl.State(0.0, 1.0, 1.0 / 3.0), bl.IntegratorKind.RK4, opts)
    t_est = bl.estimate_blowup_time(traj)
    t_quad = bl.quadrature_blowup_time(p8.B / 2.0, 0.0, 1.0)
    pole = bl.eval_closed_form(bl.Riccati(k=p8.k_minus, u0=1.0, v0=-p8.k_minus), p8, 10.0)
    print("m = 8 from (u, u') = (1, 1/3):   u = 3/(3 - t)")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  quadrature prediction  {t_quad:.9f}")
    print(f"  closed-form pole       {pole.t_pole:.9f}\n")

    # conserved-energy escape: (w')^2 = 1 + w^4 from w = 0
    p = bl.params_from_coeffs(0.0, 2.0)
    opts = bl.IntegrateOptions(t_end=5.0, blowup_threshold=1e8, local_tol=1e-11)
    traj = bl.integrate(p, bl.State(0.0, 0.0, 1.0), bl.IntegratorKind.GAUSS6, opts)
    t_est = bl.estimate_blowup_time(traj)
    t_quad = bl.quadrature_blowup_time(1.0, 1.0, 0.0)
    print("w'' = 2 w^3 from (0, 1):   escape time of (w')^2 = 1 + w^4")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  quadrature prediction  {t_quad:.9f}\n")

    # m = 4 reciprocal-tanh branch: B = 0, so u' + k u^2 is constant for k = -A/2
    p4 = bl.params_from_dimension(4.0)
    pole = bl.eval_closed_form(bl.Riccati(k=-p4.A / 2.0, u0=2.0, v0=1.0), p4, 10.0)
    opts = bl.IntegrateOptions(t_end=2.0, blowup_threshold=1e8)
    traj = bl.integrate(p4, bl.State(0.0, 2.0, 1.0), bl.IntegratorKind.RK4, opts)
    t_est = bl.estimate_blowup_time(traj)
    print("m = 4 from (2, 1): reciprocal-tanh branch")
    print(f"  run + exact remainder  {t_est:.9f}")
    print(f"  closed-form pole       {pole.t_pole:.9f}")


if __name__ == "__main__":
    main()
