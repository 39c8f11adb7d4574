"""Benchmark of blowuplab: four seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload escape_gauss6 --seed 1 --seconds 10 --trace 0

Workloads: escape_gauss6, gk_gauss6, verify_grid_rk4, cli_cold (see
bench/RECORD.md for why each exists and what it should show).  With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it prints its per-layer metrics from a traced run.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  End-to-end times are scaled to a nominal machine
speed measured by a reference loop between operations (``speed.py``);
the raw values are printed too.  An operation fails when the program
reports a failure or its output misses the oracle; ``correct`` is false
when the program reported success on an output the oracle rejects.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    ld = np.finfo(np.longdouble)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # Gauss6 stages and cumulative_u_integral run in longdouble
        "longdouble": {"precision": int(ld.precision), "nmant": int(ld.nmant), "eps": float(ld.eps)},
    }


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that set the workload up and exit,
    with reference samples (see ``speed``) taken around them."""
    from speed import REF_BURST_S, burst

    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs += burst(REF_BURST_S)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=150)
        samples.append(time.perf_counter() - t0)
    refs += burst(REF_BURST_S)
    return samples, refs


def end_to_end(workload: str, seed: int, run) -> tuple[dict, list[str]]:
    import numpy as np

    from speed import scale

    setup, setup_refs = setup_samples(workload, seed)
    k_setup = scale(setup_refs)
    lat_ms = [latency * 1e3 for _, latency, _ in run.results]
    scaled_ms = [x * k for x, k in zip(lat_ms, run.op_scales)]
    outcomes = [o for _, _, o in run.results]
    n, passed = len(outcomes), sum(o.passed for o in outcomes)
    # the highest percentile with at least ten samples above it, between p50 and p90
    q = min(90.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": passed / run.wall,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, q)),
    }
    metrics = {
        "setup_s": raw["setup_s"] * k_setup,
        "ops_per_s": raw["ops_per_s"] / run.scale,
        "op_p50_ms": float(np.percentile(scaled_ms, 50)),
        "op_p90_ms": float(np.percentile(scaled_ms, q)),
    }
    notes = [
        f"times at nominal machine speed: run x {run.scale:.4f}, operations x {min(run.op_scales):.4f}"
        f" to {max(run.op_scales):.4f}, setup_s x {k_setup:.4f}; raw values {json.dumps(raw)}",
        f"setup_s: median of {len(setup)} fresh interpreters {[round(s, 4) for s in setup]} s raw",
        f"ops_per_s: {passed} passed of {n} attempted in {run.wall:.3f} s raw",
        f"op_p50_ms: n={n}",
        f"op_p90_ms: p{q:.0f} of n={n}" + ("" if q == 90.0 else " (p90 needs at least 100 ops)"),
        f"failed_frac: {(n - passed) / n:.6g} ({n - passed} of {n})",
    ]
    if n <= 30:
        notes.append(f"op latencies in order, ms raw: {[round(x) for x in lat_ms]}")
    margins = [o.margin for o in outcomes if o.margin is not None]
    if margins:
        notes.append(f"accuracy_margin_dec: {min(margins):.6g} dec (min over {len(margins)} ops of log10(gate/error))")
    return metrics, notes


def traced(wl, seed: int, seconds: float) -> tuple[dict, list, list[str]]:
    """Untraced for half the time, the same operations again traced, then the probes."""
    import numpy as np

    import layers
    from spans import NullTracer, Tracer
    from workloads import GkGauss6, run_ops

    base = run_ops(wl, wl.ops(np.random.default_rng(seed)), NullTracer(), seconds / 2.0)
    tr = Tracer()
    run = run_ops(wl, [op for op, _, _ in base.results], tr, probe=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    metrics = layers.span_metrics(tr, len(run.results))
    # both passes at nominal machine speed, so drift between them is not read as overhead
    untraced_s = sum(latency * k for (_, latency, _), k in zip(base.results, base.op_scales))
    traced_s = sum(latency * k for (_, latency, _), k in zip(run.results, run.op_scales))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics.update(layers.import_times(env))
    metrics.update(layers.sl_times(env))
    metrics.update(layers.step_times())
    metrics.update(layers.margins(GkGauss6(OUT, SRC)))
    path = OUT / f"trace-{wl.name}-{seed}.json"
    tr.write(path)
    notes = [f"traced the first {len(run.results)} ops of the seed, untraced then traced; spans in {path}"]
    return metrics, base.results + run.results, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        print(f"error: no blowuplab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from spans import NullTracer
    from workloads import WORKLOADS, run_ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](workdir, SRC)
    ops = wl.ops(np.random.default_rng(args.seed))
    if args.setup_only:
        next(ops)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, results, notes = traced(wl, args.seed, args.seconds)
        else:
            run = run_ops(wl, ops, NullTracer(), args.seconds, wl.cycle)
            results = run.results
            metrics, notes = end_to_end(args.workload, args.seed, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for name, value in metrics.items():
        print(f"{name:36s} {value:<14.6g} {units[name]}")
    for note in notes:
        print("  " + note)
    outcomes = [o for _, _, o in results]
    failures = sorted({o.note for o in outcomes if not o.passed})
    for note in failures[:8]:
        print("  failed: " + note)
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
