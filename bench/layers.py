"""Per-layer metrics of the traced run.

Two sources.  Spans and counts recorded around the public calls of the
workload's own operations (and of the workload's probes) give the
layer costs that depend on the workload; a layer the workload never
calls reads 0.  Standalone probes that do not depend on the workload
(package import, one stepper increment, ``sl`` cold and warm, and the
acceptance-gate margins) run in every traced run.
"""
from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np

from blowuplab import (
    IntegrateOptions,
    State,
    energy_drift,
    estimate_blowup_time,
    integrate,
    params_from_coeffs,
    params_from_dimension,
    step_gauss6,
    step_rk4,
)
from spans import NullTracer
from workloads import GAUSS6, RK4, GkGauss6

# criterion 4's frozen tanh-sinh oracle: integral_0^inf dw / sqrt(1 + w^4)
ESCAPE_TIME_UNIT_QUARTIC = 1.85407467730137191843385

_SL_PROBE = """
import json, time
from blowuplab import sl
t0 = time.perf_counter(); sl(0.5); cold = time.perf_counter() - t0
ts = [0.001 * i for i in range(4000)]
t0 = time.perf_counter()
for t in ts:
    sl(t)
print(json.dumps({"cold": cold, "warm": (time.perf_counter() - t0) / len(ts)}))
"""


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=150, check=True)


def import_times(env: dict, repeats: int = 3) -> dict:
    """Cumulative import time of blowuplab and scipy.integrate from ``-X importtime``.

    A module the package no longer imports reads 0.
    """
    samples = {"blowuplab": [], "scipy.integrate": []}
    for _ in range(repeats):
        err = _python(["-X", "importtime", "-c", "import blowuplab"], env).stderr
        for line in err.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] in samples:
                samples[fields[2]].append(int(fields[1]) * 1e-6)
    return {
        f"import.{name.replace('.', '_')}_s": statistics.median(times) if times else 0.0
        for name, times in samples.items()
    }


def sl_times(env: dict) -> dict:
    out = json.loads(_python(["-c", _SL_PROBE], env).stdout)
    return {"elliptic.sl_cold_s": out["cold"], "elliptic.sl_warm_us": out["warm"] * 1e6}


def _per_call(fn, n: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def step_times() -> dict:
    """One increment of each stepper at a smooth state (m = 5, h = 1e-3)."""
    p, s = params_from_dimension(5.0), State(0.0, 0.5, 0.1)
    return {
        "integrate.gauss6_step_us": _per_call(lambda: step_gauss6(p, s, 1e-3), 200) * 1e6,
        "integrate.rk4_step_us": _per_call(lambda: step_rk4(p, s, 1e-3), 5000) * 1e6,
    }


def margins(gk: GkGauss6) -> dict:
    """Acceptance criteria 2, 4 and 7, as log10(gate / measured), by the same calls."""
    p8 = params_from_dimension(8.0)
    opts = IntegrateOptions(t_end=50.0, blowup_threshold=1e3, local_tol=1e-12)
    drift = energy_drift(p8, integrate(p8, State(0.0, 1.0, 0.0), GAUSS6, opts))

    p = params_from_coeffs(0.0, 2.0)
    opts = IntegrateOptions(t_end=5.0, blowup_threshold=1e8, local_tol=1e-11)
    t_est = estimate_blowup_time(integrate(p, State(0.0, 0.0, 1.0), RK4, opts))
    rel = abs(t_est - ESCAPE_TIME_UNIT_QUARTIC) / ESCAPE_TIME_UNIT_QUARTIC

    # criterion 7: seed 7, ten initial conditions for each m in (3, 5, 9)
    rng, tr, worst = np.random.default_rng(7), NullTracer(), 0.0
    for k in range(3):
        for _ in range(10):
            u0, v0 = rng.uniform(-1.5, 1.5, size=2)
            worst = max(worst, gk.run({"k": k, "u0": u0, "v0": v0}, tr)["error"])
    return {
        "margin.c2_energy_drift_dec": math.log10(1e-10 / drift),
        "margin.c4_escape_time_dec": math.log10(1e-4 / rel),
        "margin.c7_gk_dec": math.log10(1e-6 / worst),
    }


def span_metrics(tr, n_ops: int) -> dict:
    """Layer costs of the traced operations, from their spans and counts."""
    c = tr.counts
    integ, _ = tr.total("integrate.integrate")
    op_time, _ = tr.total("op")
    est, n_est = tr.total("integrate.estimate_blowup_time")
    quad, n_quad = tr.total("integrate.quadrature_blowup_time")
    gk, _ = tr.total("diagnostics.check_gk_identity")
    cumint, _ = tr.total("diagnostics.cumulative_u_integral")
    cls, n_cls = tr.total("classify.classify")
    ver, n_ver = tr.total("classify.verify_verdict")
    # the probe of verify_grid_rk4 repeats verify_verdict's own runs and fits
    replica, _ = tr.total("probe") if n_ver else (0.0, 0)
    out = {
        "integrate.us_per_accepted_step": _ratio(integ, c["integrate.accepted_steps"]) * 1e6,
        "integrate.gauss6_stage_fail_frac": _ratio(c["integrate.gauss6_stage_fails"], c["integrate.gauss6_stage_probes"]),
        "integrate.accepted_steps": _ratio(c["integrate.accepted_steps"], n_ops),
        "integrate.time_share": _ratio(integ, op_time),
        "integrate.estimate_us": _ratio(est, n_est) * 1e6,
        "integrate.quadrature_us": _ratio(quad, n_quad) * 1e6,
        "diagnostics.gk_check_us_per_state": _ratio(gk, c["diagnostics.gk_states"]) * 1e6,
        "diagnostics.cumint_us_per_state": _ratio(cumint, c["diagnostics.cumint_states"]) * 1e6,
        "classify.classify_us": _ratio(cls, n_cls) * 1e6,
        "classify.verify_self_ms": _ratio(ver - replica, n_ver) * 1e3,
    }
    for kind in ("elliptic", "integrate", "classify", "portrait"):
        total, n = tr.total("cli." + kind)
        out[f"cli.{kind}_s"] = _ratio(total, n)
    return out
