"""Periodic orbits for A = 0, B < 0 and the lemniscatic sine behind them.

u'' = -2 u^3 from (0, 1) is exactly the lemniscatic sine sl, periodic
with period four times the quarter period int_0^1 dy / sqrt(1 - y^4).
``period`` gives the period of any disc < 0 orbit in closed form, and a
Gauss6 run over exactly that period closes up.  At m = 3 (disc = 9) the
exact rule decides every orbit and none closes, so ``period`` refuses it.
"""
import math

import blowuplab as bl


def main():
    Q = bl.lemniscate_quarter_period()
    print(f"quarter period      {Q:.15f}")
    print(f"(1/sqrt2) K(1/sqrt2) {bl.K_agm(1 / math.sqrt(2)) / math.sqrt(2):.15f}")

    p = bl.params_from_coeffs(0.0, -2.0)
    T = bl.period(p, 0.0, 1.0)
    print("\nu'' = -2 u^3 from (0, 1):")
    print(f"  exact period    {T:.15f}")
    print(f"  4 x quarter     {4.0 * Q:.15f}")

    # one Gauss6 run over exactly that period returns to the start
    opts = bl.IntegrateOptions(h0=1e-3, t_end=T, local_tol=1e-12)
    traj = bl.integrate(p, bl.State(0.0, 0.0, 1.0), bl.IntegratorKind.GAUSS6, opts)
    closure = math.hypot(traj.u[-1], traj.v[-1] - 1.0)
    print(f"  closure after one period {closure:.2e} ({traj.termination.kind} at t = {traj.t[-1]:.15f})")

    # the same orbit written through the closed-form family
    cf = bl.Lemniscatic(Cc=1.0, kappa=2.0**0.25, t0=0.0)
    u, v = bl.eval_closed_form(cf, p, 1.234)
    y, yp = bl.sl(1.234)
    print(f"\nclosed form vs sl at t = 1.234: u = {u:.12f}, sl = {y:.12f}")

    # m = 3: the exact rule decides the orbit, and no orbit closes
    p3 = bl.params_from_dimension(3.0)
    verdict = bl.classify(p3, 0.0, -0.5)
    try:
        bl.period(p3, 0.0, -0.5)
    except bl.DomainError as exc:
        print(f"\nm = 3 decay from (0, -0.5): {verdict.kind} ({verdict.basis}), no period: {exc}")


if __name__ == "__main__":
    main()
