import concurrent.futures
import csv
import json
import math

import pytest

from blowuplab import sl
from blowuplab.cli import _fmt, main


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_integrate_tanh(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(
        [
            "integrate",
            "--m", "4",
            "--v0", "-1",
            "--t-end", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0]["t"] == "0"
    last = rows[-1]
    assert abs(float(last["u"]) + math.tanh(float(last["t"]))) < 1e-6
    side = json.loads((tmp_path / "traj.json").read_text())
    assert side["params"]["m"] == 4.0
    assert side["termination"]["kind"] == "completed"
    assert side["verdict"]["kind"] == "global_bounded"
    assert side["n_steps"] > 0


def test_integrate_csv_columns_roundtrip(tmp_path):
    out = tmp_path / "traj.csv"
    main(["integrate", "--m", "8", "--u0", "0.5", "--t-end", "2", "--out", str(out)])
    rows = _read_csv(out)
    assert list(rows[0]) == ["t", "u", "du", "e", "g_kminus", "g_kplus"]
    B = 2.0 / 9.0
    for row in rows[:: max(1, len(rows) // 20)]:
        u, du = float(row["u"]), float(row["du"])
        e = 0.5 * du * du - 0.25 * B * u**4
        assert abs(float(row["e"]) - e) < 1e-12
        assert abs(float(row["g_kplus"]) - (du + u * u / 3.0)) < 1e-12


def test_integrate_blowup_sidecar(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(
        ["integrate", "--m", "8", "--u0", "1", "--v0", "0.33333333333333331",
         "--t-end", "10", "--out", str(out)]
    )
    assert rc == 0
    side = json.loads((tmp_path / "b.json").read_text())
    assert side["termination"]["kind"] == "blowup"
    assert abs(side["blowup_estimate"] - 3.0) < 0.01


def test_integrate_missing_roots_leaves_columns_empty(tmp_path):
    out = tmp_path / "nr.csv"
    rc = main(["integrate", "--A", "2", "--B", "-4", "--v0", "1",
               "--t-end", "1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0]["g_kminus"] == "" and rows[0]["g_kplus"] == ""


def test_integrate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["integrate", "--m", "5", "--u0", "0.3", "--v0", "-0.2", "--t-end", "4"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # both --m and --A/--B
    assert main(["integrate", "--m", "4", "--A", "1", "--B", "0",
                 "--t-end", "1", "--out", out]) == 2
    # neither
    assert main(["integrate", "--t-end", "1", "--out", out]) == 2
    # missing --t-end
    assert main(["integrate", "--m", "4", "--out", out]) == 2
    # malformed grid
    assert main(["portrait", "--m", "5", "--grid", "0:1", "0:1:3", "--out", out]) == 2
    # unknown config key
    cfg = tmp_path / "c.cfg"
    cfg.write_text("no_such_option = 3\n")
    assert main(["integrate", "--m", "4", "--t-end", "1", "--config", str(cfg),
                 "--out", out]) == 2
    capsys.readouterr()


def test_config_file_fills_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nt_end = 5\nv0 = -1\nintegrator = gauss6\n")
    out = tmp_path / "c.csv"
    rc = main(["integrate", "--m", "4", "--config", str(cfg), "--t-end", "2",
               "--out", str(out)])
    assert rc == 0
    side = json.loads((tmp_path / "c.json").read_text())
    assert side["integrator"] == "gauss6"  # from config
    assert side["initial"]["du"] == -1.0  # from config
    rows = _read_csv(out)
    assert abs(float(rows[-1]["t"]) - 2.0) < 1e-9  # flag beats config


def test_config_loses_to_abbreviated_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("local_tol = 1e-3\nintegrator = gauss6\n")
    base = ["integrate", "--m", "5", "--u0", "0.5", "--t-end", "1"]
    main(base + ["--local-tol", "1e-12", "--out", str(tmp_path / "ref.csv")])
    rc = main(base + ["--config", str(cfg), "--local", "1e-12", "--integ", "rk4",
                      "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    ref = json.loads((tmp_path / "ref.json").read_text())
    side = json.loads((tmp_path / "c.json").read_text())
    assert side["integrator"] == "rk4"
    assert side["n_steps"] == ref["n_steps"]


def test_config_flag_values(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("quarter_period = yes\n")
    assert main(["elliptic", "--config", str(cfg)]) == 0
    assert abs(float(capsys.readouterr().out) - 1.31102877714605990523235) < 1e-12


@pytest.mark.parametrize("command, line", [
    (["integrate", "--m", "4", "--t-end", "1"], "func = 3"),
    (["integrate", "--m", "4", "--t-end", "1"], "command = portrait"),
    (["elliptic"], "K = 0.5"),
    (["classify", "--m", "5", "--grid", "0:0:1", "0:0:1"], "verify = ture"),
])
def test_config_rejects_non_option_keys(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.split()[0] in err


def test_portrait_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_THREADS", "1")
    out = tmp_path / "p.csv"
    rc = main(["portrait", "--m", "8", "--grid", "-1:1:3", "-1:1:3",
               "--horizon", "3", "--blowup-threshold", "1e6", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert list(rows[0]) == ["traj_id", "branch", "t", "u", "du", "terminated"]
    ids = {row["traj_id"] for row in rows}
    assert len(ids) == 9
    assert {row["branch"] for row in rows} == {"fwd", "bwd"}
    manifest = json.loads((tmp_path / "p.json").read_text())
    assert manifest["n_trajectories"] == 9
    sep = manifest["separatrices"]
    # separatrix parabolas du = -k u^2 with k = +-1/3 for m = 8
    assert sep["du_kplus"][0] == pytest.approx(-(1.0 / 3.0), rel=1e-10)
    assert sep["du_kminus"][0] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_portrait_negative_grid_bounds_parse(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_THREADS", "1")
    out = tmp_path / "p2.csv"
    rc = main(["portrait", "--m", "4", "--grid", "-2:2:2", "-0.5:0.5:2",
               "--horizon", "1", "--out", str(out)])
    assert rc == 0


def test_portrait_pool_matches_serial(tmp_path, monkeypatch):
    outputs = []
    for threads in ("2", "1"):
        monkeypatch.setenv("BLOWUPLAB_THREADS", threads)
        out = tmp_path / f"p{threads}.csv"
        assert main(["portrait", "--m", "5", "--grid", "-1:1:3", "-1:1:3",
                     "--horizon", "3", "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"p{threads}.json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("horizon", ["-2", "0", "nan"])
def test_portrait_rejects_non_positive_horizon(tmp_path, capsys, horizon):
    out = tmp_path / "p.csv"
    assert main(["portrait", "--m", "5", "--grid", "0:1:2", "0:1:2",
                 "--horizon", horizon, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--h0", "--local-tol"])
def test_portrait_rejects_inert_driver_flags(tmp_path, capsys, flag):
    # portrait always integrates with the default h0 and local tolerance
    with pytest.raises(SystemExit) as exc:
        main(["portrait", "--m", "5", "--grid", "0:1:2", "0:1:2", flag, "0.5",
              "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs tasks inline."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("threads, cpus, grid, workers", [
    ("64", 1, "0:1:2", [4]),  # BLOWUPLAB_THREADS capped at the 4 tasks
    ("", 64, "0:1:2", [4]),  # so is the CPU count
    ("3", 1, "0:1:2", [3]),
    ("64", 1, "0:0:1", []),  # one task runs in-process
])
def test_portrait_caps_workers_at_task_count(tmp_path, monkeypatch, threads, cpus, grid, workers):
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    monkeypatch.setenv("BLOWUPLAB_THREADS", threads)
    out = tmp_path / "p.csv"
    assert main(["portrait", "--m", "5", "--grid", grid, grid, "--horizon", "1", "--out", str(out)]) == 0
    assert _InlinePool.max_workers == workers
    monkeypatch.setenv("BLOWUPLAB_THREADS", "1")
    assert main(["portrait", "--m", "5", "--grid", grid, grid, "--horizon", "1",
                 "--out", str(tmp_path / "serial.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_classify_grid_with_verification(tmp_path):
    out = tmp_path / "cls.csv"
    rc = main(["classify", "--m", "8", "--grid", "-1:1:3", "-1:1:3",
               "--verify", "--horizon", "30", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 9
    for row in rows:
        u0, v0 = float(row["u0"]), float(row["v0"])
        if u0 == 0.0 and v0 == 0.0:
            assert row["verdict"] == "trivial"
        else:
            assert row["verdict"] == "no_global_solution"
        assert row["verified"] == "pass"


def test_classify_without_verification_leaves_column_empty(tmp_path):
    out = tmp_path / "cls2.csv"
    rc = main(["classify", "--m", "3", "--grid", "0:0:1", "-1:-0.2:3", "--out", str(out)])
    assert rc == 0
    for row in _read_csv(out):
        assert row["verified"] == ""
        assert row["verdict"] == "global_bounded"


def test_elliptic_constants(capsys):
    rc = main(["elliptic", "--quarter-period", "--K", "0", "--K", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert abs(float(lines[0]) - 1.31102877714605990523235) < 1e-12
    assert abs(float(lines[1]) - math.pi / 2.0) < 1e-14


def test_elliptic_sl_and_table(tmp_path, capsys):
    rc = main(["elliptic", "--sl", "--t", "0.5"])
    assert rc == 0
    y, dy = (float(x) for x in capsys.readouterr().out.strip().split(","))
    assert abs(dy * dy + y**4 - 1.0) < 1e-10
    out = tmp_path / "sl.csv"
    rc = main(["elliptic", "--table", "--n", "33", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 33
    assert float(rows[0]["sl"]) == 0.0
    # the vectorised table agrees bitwise with scalar evaluation
    for row in rows:
        y, dy = sl(float(row["t"]))
        assert (row["sl"], row["dsl"]) == (_fmt(y), _fmt(dy))


def test_elliptic_requires_a_request(capsys):
    assert main(["elliptic"]) == 2
    assert main(["elliptic", "--sl"]) == 2
    capsys.readouterr()
