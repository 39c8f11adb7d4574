"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload yields operations from a seeded generator, runs one
operation through the public API (``run``), checks the result against
an oracle (``check``) and, in the traced run only, probes the layers the
operation passed through (``probe``).  A run stops only after a whole
``cycle`` of operations, so every run of a workload has the same mix of
coefficients, lattice points and subcommands.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from blowuplab import (
    IntegrateOptions,
    IntegratorKind,
    State,
    Trajectory,
    check_gk_identity,
    classify,
    cumulative_u_integral,
    estimate_blowup_time,
    integrate,
    params_from_coeffs,
    params_from_dimension,
    quadrature_blowup_time,
    step_gauss6,
    verify_verdict,
)
from blowuplab.errors import NonFiniteError, StageSolveFailure
from speed import REF_BURST_S, REF_EVERY_S, REF_SHARE, burst, scale

GAUSS6, RK4 = IntegratorKind.GAUSS6, IntegratorKind.RK4
EPS = sys.float_info.epsilon  # an error below one ulp counts as one ulp
GATE_SL = 1e-9  # |y'^2 + y^4 - 1| allowed for a printed sl value
SL_FIRST_INTEGRAL = 1.0


@dataclass
class Outcome:
    passed: bool
    wrong: bool = False  # the program reported success but the oracle disagrees
    margin: float | None = None  # log10(gate / error) where a numeric gate applies
    note: str = ""


def gated(gate: float, err: float, what: str) -> Outcome:
    ok = err <= gate
    return Outcome(ok, not ok, math.log10(gate / max(err, EPS)), f"{what} {err:.3e} vs gate {gate:g}")


def prefix(traj: Trajectory, limit: float) -> Trajectory:
    """The recorded states before |u| first exceeds ``limit``."""
    absu = np.abs(traj.u)
    n = int(np.argmax(absu > limit)) if absu.max() > limit else len(traj.states)
    return Trajectory(
        traj.params, traj.states[:n], traj.termination, traj.integrator, traj.options,
        t_residual=traj.t_residual[:n],
    )


def roots(p) -> tuple[float, float]:
    """The k of g_k = u' + k u^2 whose exponential law the check tests."""
    return p.k_minus, p.k_plus


def stage_fail_probe(p, traj: Trajectory, opts: IntegrateOptions, tr) -> None:
    """One step_gauss6 at every recorded state, at the step cap integrate applies there."""
    fails = 0
    with tr.span("probe.gauss6_stage"):
        for s in traj.states:
            h = opts.h_cap_factor / max(abs(s.u), 1.0)
            if opts.h_max is not None:
                h = min(h, opts.h_max)
            try:
                step_gauss6(p, s, h)
            except StageSolveFailure:
                fails += 1
            except NonFiniteError:
                pass  # an overflowing step is not a stage-solve failure
    tr.count("integrate.gauss6_stage_probes", len(traj.states))
    tr.count("integrate.gauss6_stage_fails", fails)


class EscapeGauss6:
    """Gauss6 blow-up to |u| = 1e8 for A = 0, B > 0, against the energy quadrature."""

    name = "escape_gauss6"
    # four m = 8 runs (about 3.5 s each) for one (A, B) = (0, 2) run (about
    # 6.5 s), so the median falls inside one cluster of latencies
    cycle = 5
    gate = 1e-4  # criterion 4's gate on the relative blow-up-time error
    opts = IntegrateOptions(t_end=50.0, blowup_threshold=1e8, local_tol=1e-10)

    def __init__(self, workdir: Path, src: Path):
        self.params = (params_from_dimension(8.0), params_from_coeffs(0.0, 2.0))

    def ops(self, rng):
        for i in itertools.count():
            u0, v0 = 0.5 + rng.random(), rng.random()
            yield {"i": i, "p": self.params[1 if i % 5 == 4 else 0], "u0": u0, "v0": v0}

    def run(self, op, tr):
        p, u0, v0 = op["p"], op["u0"], op["v0"]
        traj = tr.call("integrate.integrate", integrate, p, State(0.0, u0, v0), GAUSS6, self.opts)
        tr.count("integrate.accepted_steps", traj.n_steps)
        t_est = tr.call("integrate.estimate_blowup_time", estimate_blowup_time, traj)
        # A = 0 conserves e = v^2/2 - B u^4/4, so v = sqrt((B/2) u^4 + 2e) while u grows
        e0 = 0.5 * v0 * v0 - 0.25 * p.B * u0**4
        t_ref = tr.call("integrate.quadrature_blowup_time", quadrature_blowup_time, p.B / 2.0, 2.0 * e0, u0)
        return {"traj": traj, "error": abs(t_est - t_ref) / t_ref}

    def check(self, op, res) -> Outcome:
        return gated(self.gate, res["error"], "blow-up time rel. error")

    def probe(self, op, res, tr) -> None:
        stage_fail_probe(op["p"], res["traj"], self.opts, tr)


class GkGauss6:
    """Criterion 7's g_k law on seeded initial conditions, Gauss6 in its smooth regime."""

    name = "gk_gauss6"
    gate = 1e-6  # criterion 7's gate on the g_k deviation
    limit = 1e3  # the identity is checked on the |u| <= 1e3 prefix
    # An operation's cost follows its time to |u| = 1e3 (or t = 20), which
    # jumps twentyfold across the separatrices. This lattice in [-1.5, 1.5]^2
    # keeps every point at least 0.125 from such a jump for all three m, so
    # a seeded jitter of up to 0.05 moves a cycle's cost little. A cycle
    # visits the corners and the centre for m = 3 and m = 5, and two opposite
    # corners for m = 9, whose runs blow up soonest; eight slow runs and four
    # fast ones keep the median latency inside the slow cluster.
    lattice = (-1.25, -0.25, 0.75)
    jitter = 0.05
    plan = [(k, c) for c in (0, 2, 4, 6, 8) for k in range(3) if k < 2 or c in (0, 8)]
    cycle = len(plan)

    def __init__(self, workdir: Path, src: Path):
        self.params = [params_from_dimension(m) for m in (3.0, 5.0, 9.0)]
        self.opts = [
            IntegrateOptions(
                t_end=20.0, blowup_threshold=self.limit, local_tol=1e-13, h_max=5e-3,
                h_cap_factor=0.01 / max(abs(p.k_minus), abs(p.k_plus)),
            )
            for p in self.params
        ]

    def ops(self, rng):
        for i in itertools.count():
            k, cell = self.plan[i % self.cycle]
            u0, v0 = (np.array([self.lattice[cell // 3], self.lattice[cell % 3]])
                      + rng.uniform(-self.jitter, self.jitter, size=2)).tolist()
            yield {"i": i, "k": k, "u0": u0, "v0": v0}

    def run(self, op, tr):
        p, opts = self.params[op["k"]], self.opts[op["k"]]
        traj = tr.call("integrate.integrate", integrate, p, State(0.0, op["u0"], op["v0"]), GAUSS6, opts)
        tr.count("integrate.accepted_steps", traj.n_steps)
        sub = prefix(traj, self.limit)
        dev = 0.0
        for k in roots(p):
            dev = max(dev, tr.call("diagnostics.check_gk_identity", check_gk_identity, p, sub, k))
            tr.count("diagnostics.gk_states", len(sub.states))
        return {"traj": traj, "sub": sub, "error": dev}

    def check(self, op, res) -> Outcome:
        return gated(self.gate, res["error"], "g_k deviation")

    def probe(self, op, res, tr) -> None:
        p = self.params[op["k"]]
        stage_fail_probe(p, res["traj"], self.opts[op["k"]], tr)
        tr.call("diagnostics.cumulative_u_integral", cumulative_u_integral, p, res["sub"])
        tr.count("diagnostics.cumint_states", len(res["sub"].states))


class VerifyGridRk4:
    """classify then verify_verdict over seeded grids, both time directions in RK4."""

    name = "verify_grid_rk4"
    cycle = 66  # one pass: the two parabola points, then a 4 x 4 grid for each m
    horizon = 50.0
    # m = 5 points on the invariant parabola v = -k_plus u^2 (k_plus = 1/6).
    # verify_verdict compares their fitted blow-up time with t_bound = 3
    # without slack and fails them; they run once in every pass.
    parabola = ((2.0, -2.0 / 3.0), (-2.0, -2.0 / 3.0))

    def __init__(self, workdir: Path, src: Path):
        self.params = [params_from_dimension(m) for m in (3.0, 5.0, 8.0, 9.0)]

    def ops(self, rng):
        i = itertools.count()
        while True:
            for u0, v0 in self.parabola:
                yield {"i": next(i), "p": self.params[1], "u0": u0, "v0": v0}
            for p in self.params:
                # a 4 x 4 grid over [-2, 2)^2 shifted by a seeded offset
                us = -2.0 + np.arange(4) + rng.random()
                vs = -2.0 + np.arange(4) + rng.random()
                for u0 in us:
                    for v0 in vs:
                        yield {"i": next(i), "p": p, "u0": float(u0), "v0": float(v0)}

    def run(self, op, tr):
        p, u0, v0 = op["p"], op["u0"], op["v0"]
        verdict = tr.call("classify.classify", classify, p, u0, v0)
        return tr.call("classify.verify_verdict", verify_verdict, p, u0, v0, verdict, self.horizon)

    def check(self, op, res) -> Outcome:
        return Outcome(res.passed, note=f"m={op['p'].m:g} ({op['u0']!r}, {op['v0']!r}): {res.reason}")

    def probe(self, op, res, tr) -> None:
        # the two runs and fits verify_verdict makes, outside it, so its self
        # time is its span minus these
        for sign in (1.0, -1.0):
            opts = IntegrateOptions(h0=1e-3, t_end=sign * self.horizon, local_tol=1e-10)
            traj = tr.call("integrate.integrate", integrate, op["p"], State(0.0, op["u0"], op["v0"]), RK4, opts)
            tr.count("integrate.accepted_steps", traj.n_steps)
            if traj.termination.kind == "blowup":
                tr.call("integrate.estimate_blowup_time", estimate_blowup_time, traj)


class CliCold:
    """One fresh ``python -m blowuplab.cli`` process per operation."""

    name = "cli_cold"
    # integrate and portrait take about 0.8 s, elliptic and classify 1.1 to
    # 1.5 s; integrate twice in each group of five keeps the median inside
    # the faster cluster rather than in the gap between the two
    kinds = ("elliptic", "integrate", "classify", "portrait", "integrate")
    cycle = 15  # three groups, classify once for each m
    dims = (3.0, 5.0, 8.0, 9.0)
    classify_dims = (5.0, 8.0, 9.0)  # m = 5 puts two grid points on the invariant parabola

    def __init__(self, workdir: Path, src: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def ops(self, rng):
        for i in itertools.count():
            kind = self.kinds[i % len(self.kinds)]
            op = {"i": i, "kind": kind, "out": f"{kind}_{i}.csv"}
            if op["kind"] == "elliptic":
                op["argv"] = ["elliptic", "--sl", f"--t={rng.uniform(-10.0, 10.0)!r}"]
            elif op["kind"] == "integrate":
                m = self.dims[rng.integers(4)]
                op["u0"], op["v0"] = rng.uniform(-1.0, 1.0, size=2).tolist()
                op["argv"] = ["integrate", f"--m={m:g}", f"--u0={op['u0']!r}", f"--v0={op['v0']!r}",
                              "--t-end=5", "--integrator=rk4", f"--out={op['out']}"]
            elif op["kind"] == "classify":
                m = self.classify_dims[(i // len(self.kinds)) % 3]
                op["argv"] = ["classify", f"--m={m:g}", "--grid", "-2:2:4", "-2:2:4", "--verify",
                              f"--out={op['out']}"]
            else:
                m = self.dims[rng.integers(4)]
                lo_u, lo_v = rng.uniform(-2.0, -0.5, size=2).tolist()
                hi_u, hi_v = rng.uniform(0.5, 2.0, size=2).tolist()
                op["argv"] = ["portrait", f"--m={m:g}", "--grid", f"{lo_u!r}:{hi_u!r}:3",
                              f"{lo_v!r}:{hi_v!r}:3", "--horizon=5", f"--out={op['out']}"]
            yield op

    def run(self, op, tr):
        cmd = [sys.executable, "-m", "blowuplab.cli", *op["argv"]]
        with tr.span("cli." + op["kind"]):
            return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=150)

    def check(self, op, proc) -> Outcome:
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return Outcome(False, note=f"{' '.join(op['argv'])}: exit {proc.returncode}: {last}")
        try:
            return getattr(self, "_check_" + op["kind"])(op, proc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(False, True, note=f"{' '.join(op['argv'])}: unreadable output: {exc!r}")

    def probe(self, op, res, tr) -> None:
        pass  # the layers inside a CLI process are not visible from here

    def _rows(self, op) -> list[dict]:
        with open(self.workdir / op["out"], newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def _sidecar(self, op) -> dict:
        return json.loads((self.workdir / op["out"]).with_suffix(".json").read_text(encoding="utf-8"))

    def _check_elliptic(self, op, proc) -> Outcome:
        y, dy = (float(x) for x in proc.stdout.strip().splitlines()[-1].split(","))
        return gated(GATE_SL, abs(dy * dy + y**4 - SL_FIRST_INTEGRAL), "sl first-integral defect")

    def _check_integrate(self, op, proc) -> Outcome:
        rows, side = self._rows(op), self._sidecar(op)
        want = side["n_steps"] + 1  # record_every = 1: the initial state plus every accepted step
        first = (float(rows[0]["t"]), float(rows[0]["u"]), float(rows[0]["du"]))
        ok = len(rows) == want and first == (0.0, op["u0"], op["v0"])
        return Outcome(ok, not ok, note=f"{len(rows)} rows, sidecar n_steps {side['n_steps']}")

    def _check_classify(self, op, proc) -> Outcome:
        rows = self._rows(op)
        ok = len(rows) == 16 and all(r["verified"] == "pass" for r in rows)
        return Outcome(ok, not ok, note=f"{len(rows)} rows of 16")

    def _check_portrait(self, op, proc) -> Outcome:
        rows, side = self._rows(op), self._sidecar(op)
        want = portrait_rows(op["argv"])
        ok = len(rows) == want and side["n_trajectories"] == 9
        return Outcome(ok, not ok, note=f"{len(rows)} rows, expected {want}")


def portrait_rows(argv: list[str]) -> int:
    """Rows ``portrait`` must write: the same runs in-process, with its default options."""
    m = float(argv[1].split("=")[1])
    grids = [np.linspace(float(lo), float(hi), int(n)) for lo, hi, n in (g.split(":") for g in argv[3:5])]
    horizon = float(argv[5].split("=")[1])
    p = params_from_dimension(m)
    total = 0
    for u0 in grids[0]:
        for v0 in grids[1]:
            for t_end in (horizon, -horizon):
                opts = IntegrateOptions(h0=1e-3, t_end=t_end, blowup_threshold=1e8, record_every=10)
                total += len(integrate(p, State(0.0, float(u0), float(v0)), RK4, opts).states)
    return total


WORKLOADS = {w.name: w for w in (EscapeGauss6, GkGauss6, VerifyGridRk4, CliCold)}


@dataclass
class Run:
    results: list  # [(op, latency_s, Outcome)]
    wall: float  # the loop's wall time without the reference samples
    scale: float  # factor to nominal machine speed for the whole run
    op_scales: list[float]  # the same, from the samples on either side of each operation


def run_ops(wl, ops, tr, seconds: float | None = None, cycle: int = 1, probe: bool = False) -> Run:
    """Closed loop: one operation at a time until ``seconds`` have passed.

    Stops only after a multiple of ``cycle`` operations, and always runs
    at least one cycle; with ``seconds=None`` runs all of ``ops``.  Only
    ``run`` is inside an operation's latency; the check and the probes
    are not.  Reference samples (see ``speed``) are taken before the
    first operation and after an operation once ``REF_EVERY_S`` has
    passed.
    """
    results, before = [], []
    bursts = [burst(REF_BURST_S)]
    start = last_ref = perf_counter()
    ref_s = 0.0  # reference time inside the loop
    for op in ops:
        if (results and len(results) % cycle == 0 and seconds is not None
                and perf_counter() - start - ref_s >= seconds):
            break
        tr.op = op["i"]
        res = error = None
        t0 = perf_counter()
        with tr.span("op"):
            try:
                res = wl.run(op, tr)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
        latency = perf_counter() - t0
        if error is not None:
            outcome = Outcome(False, note=f"op {op['i']}: {error!r}")
        else:
            outcome = wl.check(op, res)
            if probe:
                with tr.span("probe"):
                    wl.probe(op, res, tr)
        results.append((op, latency, outcome))
        before.append(len(bursts) - 1)
        since = perf_counter() - last_ref
        if since >= REF_EVERY_S:
            bursts.append(burst(REF_SHARE * since))
            ref_s += sum(bursts[-1])
            last_ref = perf_counter()
    wall = perf_counter() - start - ref_s
    if before[-1] == len(bursts) - 1:
        bursts.append(burst(REF_SHARE * (perf_counter() - last_ref)))
    op_scales = [scale(bursts[b] + bursts[b + 1]) for b in before]
    return Run(results, wall, scale([x for b in bursts for x in b]), op_scales)
