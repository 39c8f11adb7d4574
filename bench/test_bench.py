"""Tests of the benchmark itself: tiny runs of every workload.

Run from the repository root (not part of the package's test suite):

    python3 -m pytest -q bench/test_bench.py
"""
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from blowuplab import Verdict  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=175)


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_its_unit(name, trace, section):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for key in want:  # the human-readable lines name every metric with its unit
        assert any(ln.split()[:1] == [key] and ln.split()[-1] == want[key] for ln in lines)
    if trace == "0":
        assert any("failed_frac:" in ln for ln in lines)
        assert any(ln.startswith("env ") and '"longdouble"' in ln for ln in lines)


def _one_op(name, skip=0):
    workdir = ROOT / ".bench_out" / "test"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](workdir, ROOT / "src")
    ops = list(itertools.islice(wl.ops(np.random.default_rng(3)), skip, skip + 1))
    try:
        run = workloads.run_ops(wl, ops, NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return [o for _, _, o in run.results]


_quadrature = workloads.quadrature_blowup_time

WRONG_ORACLES = {
    # name: (attribute of workloads, wrong value, operations to skip)
    "escape_gauss6": ("quadrature_blowup_time", lambda *a: _quadrature(*a) * (1 + 1e-3), 0),
    "gk_gauss6": ("roots", lambda p: (p.k_minus + 1e-3, p.k_plus), 0),
    # the first two operations of a pass are the invariant-parabola points,
    # which fail without help; the third is an ordinary grid point
    "verify_grid_rk4": ("classify", lambda p, u0, v0: Verdict("blowup_forward", "wrong", {"t_bound": 1e-6}), 2),
    "cli_cold": ("SL_FIRST_INTEGRAL", 1.01, 0),
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_oracle_is_counted_as_failed(name, monkeypatch):
    attr, wrong, skip = WRONG_ORACLES[name]
    assert [o.passed for o in _one_op(name, skip)] == [True]
    monkeypatch.setattr(workloads, attr, wrong)
    (outcome,) = _one_op(name, skip)
    assert not outcome.passed, outcome.note


def test_invariant_parabola_points_run_in_every_pass():
    wl = workloads.VerifyGridRk4(ROOT, ROOT / "src")
    ops = list(itertools.islice(wl.ops(np.random.default_rng(3)), 2 * 66))
    on_parabola = [op["i"] for op in ops if (abs(op["u0"]), op["v0"]) == (2.0, -2.0 / 3.0)]
    assert on_parabola == [0, 1, 66, 67]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
