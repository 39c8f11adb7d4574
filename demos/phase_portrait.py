"""Classify a grid of initial conditions and tally verdicts per dimension.

For m >= 5 every solution off the two invariant parabolas blows up in
both time directions, and on them in one; for m = 3 a region of initial
data decays to zero in both directions, and the rest blows up one way or
both.  The grid summary makes the contrast visible, and a few verdicts are
confirmed by direct integration.
"""
from collections import Counter

import numpy as np

import blowuplab as bl


def main():
    grid = np.linspace(-2.0, 2.0, 9)
    for m in (3.0, 5.0, 8.0, 9.0):
        p = bl.params_from_dimension(m)
        tally = Counter()
        for u0 in grid:
            for v0 in grid:
                tally[bl.classify(p, float(u0), float(v0)).kind] += 1
        parts = ", ".join(f"{kind}: {n}" for kind, n in sorted(tally.items()))
        print(f"m = {m:g}  ({len(grid)**2} points)  {parts}")

    print("\nspot checks (verdict vs direct integration):")
    cases = [
        (5.0, -0.5, -1.0),  # blow-up both ways, with a forward time bound
        (5.0, 1.0, 1.0),    # a < 0 in w'' = a w^q: w is pulled to 0 both ways
        (3.0, 1.0, 0.6),    # a forward blow-up only, with its time bound
        (3.0, 1.0, 0.1),    # global, decaying to the origin both ways
    ]
    for m, u0, v0 in cases:
        p = bl.params_from_dimension(m)
        verdict = bl.classify(p, u0, v0)
        check = bl.verify_verdict(p, u0, v0, verdict, horizon=60.0)
        print(
            f"  m={m:g} ({u0:+.1f},{v0:+.1f}): {verdict.kind:16s} "
            f"[{verdict.basis}] -> {'confirmed' if check.passed else 'NOT confirmed'}"
            + (f", t_blow = {check.t_blow_forward:.4f}" if check.t_blow_forward else "")
        )


if __name__ == "__main__":
    main()
