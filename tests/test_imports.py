import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter: pytest and the other test modules have
# already loaded scipy into this one
PROBE = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
import blowuplab, blowuplab.cli
loaded = {name: name in sys.modules for name in ("scipy", "multiprocessing", "concurrent.futures.process")}
blowuplab.quadrature_blowup_time(1.0, 1.0, 0.3)
loaded["scipy after quadrature_blowup_time"] = "scipy" in sys.modules
from blowuplab.exact import escape_time, state_at
p5 = blowuplab.params_from_dimension(5.0)
escape_time(p5, 0.03, -4.5e-5, -1.0)
state_at(blowuplab.params_from_dimension(3.5), -1.0, -0.5, 50.0)
state_at(blowuplab.params_from_coeffs(1.0, -0.125), 1.0, -0.5, 50.0)
loaded["scipy or mpmath after the exact module"] = "scipy" in sys.modules or "mpmath" in sys.modules
p = blowuplab.params_from_dimension(4.0)
opts = blowuplab.IntegrateOptions(t_end=1.0)
traj = blowuplab.integrate(p, blowuplab.State(0.0, 0.0, -1.0), blowuplab.IntegratorKind.RK4, opts)
blowuplab.reconstruct_f(traj, C=1.0, step=0.1)
loaded["scipy after reconstruct_f"] = "scipy" in sys.modules
blowuplab.sl(0.5)
blowuplab.sl(np.linspace(-3.0, 3.0, 7))
loaded["scipy after sl"] = "scipy" in sys.modules
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    codes = [
        blowuplab.cli.main(["elliptic", "--sl", "--t=0.5"]),
        blowuplab.cli.main(["elliptic", "--table", "--out", os.path.join(tmp, "sl.csv")]),
    ]
loaded["cli elliptic exit codes"] = codes
loaded["scipy after cli elliptic"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_runtime_never_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "scipy": False,
        "multiprocessing": False,
        "concurrent.futures.process": False,
        "scipy after quadrature_blowup_time": False,
        "scipy or mpmath after the exact module": False,
        "scipy after reconstruct_f": False,
        "scipy after sl": False,
        "cli elliptic exit codes": [0, 0],
        "scipy after cli elliptic": False,
    }


# the inversion behind state_at is compiled on its first call only: the
# verdicts and an RK4 run, which time escapes, never load it
INVERSION_PROBE = """
import json, sys
import blowuplab
loaded = []
for p in (blowuplab.params_from_dimension(5.0), blowuplab.params_from_coeffs(1.0, -0.125)):
    for u0, v0 in ((1.0, 0.0), (-1.0, 0.5), (0.5, -2.0)):
        blowuplab.classify(p, u0, v0)
opts = blowuplab.IntegrateOptions(t_end=10.0)
traj = blowuplab.integrate(blowuplab.params_from_dimension(8.0), blowuplab.State(0.0, 1.0, 1.0), blowuplab.IntegratorKind.RK4, opts)
loaded.append([traj.termination.kind, traj.termination.t_estimate is not None])
loaded.append("blowuplab.inversion" in sys.modules)
from blowuplab.exact import state_at
state_at(blowuplab.params_from_dimension(5.0), 1.0, 0.0, 0.1)
loaded.append("blowuplab.inversion" in sys.modules)
print(json.dumps(loaded))
"""


def test_inversion_loads_on_the_first_state_at():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", INVERSION_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["blowup", True], False, True]


# the record types are slotted classes, so no subcommand loads dataclasses
# (and with it inspect, ast and dis); integrate, classify and portrait leave
# the elliptic module unloaded too
NO_DATACLASSES_PROBE = """
import contextlib, io, json, os, sys, tempfile
import blowuplab, blowuplab.cli
WATCHED = ("dataclasses", "inspect", "blowuplab.elliptic")
RUNS = [  # (name, argv)
    ("integrate rk4", ["integrate", "--m", "5", "--u0", "0.5", "--v0", "-0.3", "--t-end", "5", "--out", "rk4.csv"]),
    ("integrate gauss6", ["integrate", "--m", "9", "--u0", "-0.5", "--v0", "1", "--t-end", "-20",
                          "--integrator", "gauss6", "--out", "gauss6.csv"]),
    ("classify --verify", ["classify", "--m", "5", "--grid", "-2:2:4", "-2:2:4", "--verify", "--out", "classify.csv"]),
    ("portrait 3x3", ["portrait", "--m", "8", "--grid", "-1:1:3", "-1:1:3", "--horizon", "3", "--out", "portrait.csv"]),
    ("elliptic --sl", ["elliptic", "--sl", "--t=0.5"]),
    ("elliptic --table", ["elliptic", "--table", "--n", "33", "--out", "sl.csv"]),
]
report = {"import blowuplab": [m for m in WATCHED if m in sys.modules]}
home = os.getcwd()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    os.chdir(tmp)
    for name, argv in RUNS:
        report[name] = [blowuplab.cli.main(argv), *(m for m in WATCHED if m in sys.modules)]
    report["files"] = sorted(os.listdir())
    os.chdir(home)
print(json.dumps(report))
"""


def test_no_subcommand_loads_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NO_DATACLASSES_PROBE], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each run's exit code, then the watched modules loaded after it
    assert json.loads(proc.stdout) == {
        "import blowuplab": [],
        "integrate rk4": [0],
        "integrate gauss6": [0],
        "classify --verify": [0],
        "portrait 3x3": [0],
        "elliptic --sl": [0, "blowuplab.elliptic"],
        "elliptic --table": [0, "blowuplab.elliptic"],
        "files": ["classify.csv", "gauss6.csv", "gauss6.json", "portrait.csv", "portrait.json", "rk4.csv", "rk4.json",
                  "sl.csv"],
    }


# numpy blocked as a missing install blocks it; the block is lifted at the
# end, so every export can load.  integrate (RK4 forward, Gauss6 backward),
# classify --verify, portrait (3x3 in-process and 6x6, which a machine of 2
# or more CPUs runs through a pool) and elliptic --table run blocked, then
# again with numpy loaded, and must write the same bytes; the exact period
# of sl's orbit is taken blocked too.
NO_NUMPY_PROBE = """
import contextlib, io, json, os, sys, tempfile
sys.modules["numpy"] = None
import blowuplab
import blowuplab.cli, blowuplab.integrate, blowuplab.classify

RUNS = [  # (argv, output file)
    (["integrate", "--m", "5", "--u0", "0.5", "--v0", "-0.3", "--t-end", "5"], "rk4_forward.csv"),
    (["integrate", "--m", "9", "--u0", "-0.5", "--v0", "1", "--t-end", "-20", "--integrator", "gauss6",
      "--record-every", "3"], "gauss6_backward.csv"),
    (["classify", "--m", "5", "--grid", "-2:2:4", "-2:2:4", "--verify"], "classify.csv"),
    (["portrait", "--m", "8", "--grid", "-1:1:3", "-1:1:3", "--horizon", "3"], "portrait_3x3.csv"),
    (["portrait", "--m", "8", "--grid", "-1:1:6", "-1:1:6", "--horizon", "3"], "portrait_6x6.csv"),
    (["elliptic", "--table", "--n", "33"], "sl.csv"),
]

def run_subcommands():
    codes, files = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv, name in RUNS:
            codes.append(blowuplab.cli.main([*argv, "--out", os.path.join(tmp, name)]))
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    return codes, files

out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [blowuplab.cli.main(argv) for argv in
             (["elliptic", "--sl", "--t=0.5"], ["elliptic", "--K", "0.99"], ["elliptic", "--quarter-period"])]
blocked_codes, blocked_files = run_subcommands()
report = {
    "cli exit codes": codes,
    "cli lines": len(out.getvalue().splitlines()),
    "subcommand exit codes": blocked_codes,
    "files": sorted(blocked_files),
    "sl": [type(x).__name__ for x in blowuplab.sl(0.5)],
    "K_agm": blowuplab.K_agm(0.5) > 1.0,
    "F_half": blowuplab.F_half(1.0) > 1.0,
    "classify": blowuplab.classify(blowuplab.params_from_dimension(5.0), 1.0, 1.0).kind,
    "period": abs(blowuplab.period(blowuplab.params_from_coeffs(0.0, -2.0), 0.0, 1.0)
                  / (4.0 * blowuplab.lemniscate_quarter_period()) - 1.0) < 1e-13,
    "functions": [type(f).__name__ for f in (blowuplab.integrate, blowuplab.classify)],
}
del sys.modules["numpy"]
import numpy
report["same with numpy"] = run_subcommands() == (blocked_codes, blocked_files)
report["unresolved"] = [name for name in blowuplab.__all__ if not hasattr(blowuplab, name)]
report["not in dir"] = sorted(set(blowuplab.__all__) - set(dir(blowuplab)))
report["leaf modules"] = [blowuplab.diagnostics.g_k is blowuplab.g_k, blowuplab.colehopf.__name__]
try:
    blowuplab.no_such_name
except AttributeError as exc:
    report["unknown name"] = str(exc)
print(json.dumps(report))
"""


def test_import_and_scalar_paths_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "cli exit codes": [0, 0, 0],
        "cli lines": 3,
        "subcommand exit codes": [0, 0, 0, 0, 0, 0],
        "files": ["classify.csv", "gauss6_backward.csv", "gauss6_backward.json", "portrait_3x3.csv",
                  "portrait_3x3.json", "portrait_6x6.csv", "portrait_6x6.json", "rk4_forward.csv", "rk4_forward.json", "sl.csv"],
        "sl": ["float", "float"],
        "K_agm": True,
        "F_half": True,
        "classify": "no_global_solution",
        "period": True,
        "functions": ["function", "function"],
        "same with numpy": True,
        "unresolved": [],
        "not in dir": [],
        "leaf modules": [True, "blowuplab.colehopf"],
        "unknown name": "module 'blowuplab' has no attribute 'no_such_name'",
    }
