"""Command-line surface emitting machine-readable datasets.

Four subcommands: ``integrate`` (one trajectory as CSV + JSON sidecar),
``portrait`` (a grid of forward/backward trajectories), ``classify``
(verdict table over a grid, optionally numerically verified) and
``elliptic`` (lemniscatic constants and tables).  All floats are written
with 17 significant digits so files round-trip exactly; identical
arguments produce byte-identical output.  Every subcommand runs without
numpy: trajectories are read as the driver's flat rows of Python floats,
and grids and the ``sl`` table's times come from ``_linspace``.

Exit codes: 0 success, 1 verification or inconclusive-integration
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace

from .classify import classify, verify_verdict
from .elliptic import K_agm, lemniscate_quarter_period, sl
from .errors import BlowupLabError, Inconclusive
from .integrate import IntegrateOptions, IntegratorKind, _march
from .model import OdeParams, State, params_from_coeffs, params_from_dimension

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` bit for bit, with its error for n < 0: i step + lo, then the last point set to hi."""
    if n < 0:
        raise ValueError(f"Number of samples, {n}, must be non-negative.")
    if n == 0:
        return []
    delta = hi - lo
    if n == 1:  # numpy's 0 * delta + lo: -0.0 becomes 0.0 where delta >= 0
        return [0.0 * delta + lo]
    div = n - 1
    step = delta / div
    if step == 0.0:  # a subnormal span whose step underflows: numpy scales i/div by delta
        xs = [(i / div) * delta + lo for i in range(n)]
    else:
        xs = [i * step + lo for i in range(n)]
    xs[-1] = hi
    return xs


def _parse_grid(spec: str) -> list[float]:
    """Parse ``lo:hi:n`` into n equally spaced points, endpoints included."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} is not of the form lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not math.isfinite(hi - lo):  # false for a NaN or infinite endpoint too
        raise ValueError(f"grid spec {spec!r}: endpoints and their span hi - lo must be finite")
    if n < 1:
        raise ValueError(f"grid spec {spec!r}: need at least one point")
    return _linspace(lo, hi, n)


def _load_config(path: str) -> dict[str, str]:
    """Read a key=value config file; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# the values a config file may give a flag, in any case
_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """Option defaults of subcommand ``sub`` read from a --config file.

    Each value is converted by its option's type (a flag takes
    1/true/yes/on or 0/false/no/off, in any case); keys that are not
    single-valued options of ``sub``, and other flag values, are errors.
    """
    actions = {a.dest: a for a in sub._actions if a.option_strings}
    defaults = {}
    for key, raw in _load_config(path).items():
        action = actions.get(key)
        if isinstance(action, argparse._StoreTrueAction):
            if raw.lower() not in _FLAG_VALUES:
                raise ValueError(f"config key {key!r}: {raw!r} is not one of {'/'.join(_FLAG_VALUES)}")
            defaults[key] = _FLAG_VALUES[raw.lower()]
        elif isinstance(action, argparse._StoreAction) and action.nargs is None:
            defaults[key] = action.type(raw) if action.type else raw
        else:
            raise ValueError(f"config key {key!r} is not a single-valued option of this command")
    return defaults


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let grid specs like -2:2:9, and -inf, -infinity and -nan in any
        # case, parse as option values, not flags
        self._negative_number_matcher = re.compile(r"^-(?:[\d.:e+-]|inf(?:inity)?|nan)+$", re.IGNORECASE)


def _params_from_args(args: argparse.Namespace) -> OdeParams:
    has_m = args.m is not None
    has_ab = args.A is not None or args.B is not None
    if has_m == has_ab:
        raise ValueError("give exactly one of --m or the pair --A/--B")
    if has_m:
        return params_from_dimension(args.m)
    if args.A is None or args.B is None:
        raise ValueError("both --A and --B are required when --m is absent")
    return params_from_coeffs(args.A, args.B)


def _sidecar_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    if ext.lower() == ".json":
        raise ValueError(f"--out {csv_path!r}: the CSV needs another suffix than .json, the name of its sidecar")
    return root + ".json"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args: argparse.Namespace) -> int:
    from .diagnostics import energy, g_k

    if args.t_end is None:
        raise ValueError("--t-end is required (flag or config file)")
    sidecar = _sidecar_path(args.out)
    p = _params_from_args(args)
    kind = IntegratorKind(args.integrator)
    opts = IntegrateOptions(
        h0=args.h0, t_end=args.t_end, blowup_threshold=args.blowup_threshold,
        local_tol=args.local_tol, record_every=args.record_every,
    )
    rows, n_steps, termination = _march(p, State(args.t0, args.u0, args.v0), kind, opts)

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,u,du,e,g_kminus,g_kplus\n")
        # scalar energy and g_k on the driver's Python floats: numpy's array
        # u**4 can differ from Python's by one ulp
        for s in itertools.starmap(State, zip(rows[0::4], rows[1::4], rows[2::4])):
            gm = _fmt(g_k(s, p.k_minus)) if p.k_minus is not None else ""
            gp = _fmt(g_k(s, p.k_plus)) if p.k_plus is not None else ""
            fh.write(f"{_fmt(s.t)},{_fmt(s.u)},{_fmt(s.v)},{_fmt(energy(p, s))},{gm},{gp}\n")

    verdict = classify(p, args.u0, args.v0)
    payload = {
        "params": asdict(p),
        "initial": {"t": args.t0, "u": args.u0, "du": args.v0},
        "integrator": kind.value,
        "termination": asdict(termination),
        "blowup_estimate": termination.t_estimate,
        "verdict": asdict(verdict),
        "n_steps": n_steps,
    }
    _write_json(sidecar, payload)
    if termination.kind in ("step_underflow", "max_steps"):
        print(f"integration inconclusive: {termination.kind}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# portrait


def _portrait_one(p: OdeParams, opts: IntegrateOptions, task: tuple[int, float, float]) -> list[tuple]:
    """Rows of trajectory ``idx`` from (u0, v0), forward to opts.t_end and backward to its negative."""
    idx, u0, v0 = task
    rows = []
    for branch, t_end in (("fwd", opts.t_end), ("bwd", -opts.t_end)):
        states, _, termination = _march(p, State(0.0, u0, v0), IntegratorKind.RK4, replace(opts, t_end=t_end))
        kind = termination.kind
        rows += [(idx, branch, t, u, v, kind) for t, u, v in zip(states[0::4], states[1::4], states[2::4])]
    return rows


_POINTS_PER_WORKER = 16  # grid points each pool worker must have; see cmd_portrait


def cmd_portrait(args: argparse.Namespace) -> int:
    if not 0.0 < args.horizon < math.inf:
        raise ValueError(f"--horizon must be positive and finite, got {args.horizon}")
    sidecar = _sidecar_path(args.out)
    p = _params_from_args(args)
    u_grid, v_grid = _parse_grid(args.grid[0]), _parse_grid(args.grid[1])
    opts = IntegrateOptions(
        t_end=args.horizon, blowup_threshold=args.blowup_threshold, record_every=args.record_every
    )
    run = functools.partial(_portrait_one, p, opts)
    tasks = [(idx, u0, v0) for idx, (u0, v0) in enumerate(itertools.product(u_grid, v_grid))]

    # 16 points a worker: on 2 CPUs serial won on 3x3 grids, 4x4 and 5x5 were
    # mixed and 2 workers won from 6x6 up.  Only the affinity mask's CPUs count.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(tasks) // _POINTS_PER_WORKER)
    if workers > 1:
        # loads multiprocessing, about 27 ms that serial runs need not pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(run, tasks, chunksize=4))
    else:
        all_rows = list(map(run, tasks))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("traj_id,branch,t,u,du,terminated\n")
        for rows in all_rows:
            for idx, branch, t, u, v, kind in rows:
                fh.write(f"{idx},{branch},{_fmt(t)},{_fmt(u)},{_fmt(v)},{kind}\n")

    manifest = {
        "params": asdict(p),
        "grid": {"u": u_grid, "du": v_grid},
        "horizon": args.horizon,
        "n_trajectories": len(tasks),
    }
    if p.disc >= 0 and p.B >= 0:
        # separatrix parabolas du = -k u^2 organizing the blow-up portraits
        us = _linspace(u_grid[0], u_grid[-1], 201)
        manifest["separatrices"] = {
            "u": us,
            "du_kplus": [-p.k_plus * x * x for x in us],
            "du_kminus": [-p.k_minus * x * x for x in us],
        }
    _write_json(sidecar, manifest)
    return 0


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args: argparse.Namespace) -> int:
    # checked before --out is opened, so a bad horizon leaves no file behind
    if args.verify and not 0.0 < args.horizon < math.inf:
        raise ValueError(f"--horizon must be positive and finite, got {args.horizon}")
    p = _params_from_args(args)
    u_grid, v_grid = _parse_grid(args.grid[0]), _parse_grid(args.grid[1])
    failures = 0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u0,v0,verdict,basis,verified\n")
        for u0 in u_grid:
            for v0 in v_grid:
                verdict = classify(p, u0, v0)
                verified = ""
                if args.verify:
                    try:
                        check = verify_verdict(p, u0, v0, verdict, args.horizon)
                        verified = "pass" if check.passed else "fail"
                    except Inconclusive:
                        verified = "inconclusive"
                    if verified != "pass":
                        failures += 1
                fh.write(f"{_fmt(u0)},{_fmt(v0)},{verdict.kind},{verdict.basis},{verified}\n")
    if failures:
        print(f"{failures} verified rows failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# elliptic


def cmd_elliptic(args: argparse.Namespace) -> int:
    did_something = False
    if args.quarter_period:
        print(_fmt(lemniscate_quarter_period()))
        did_something = True
    if args.K is not None:
        for k in args.K:
            print(_fmt(K_agm(k)))
        did_something = True
    if args.sl:
        if args.t is None:
            print("--sl requires --t", file=sys.stderr)
            return 2
        if not math.isfinite(args.t):
            raise ValueError(f"--t must be finite, got {args.t}")
        y, dy = sl(args.t)
        print(f"{_fmt(y)},{_fmt(dy)}")
        did_something = True
    if args.table:
        ts = _linspace(0.0, 4.0 * lemniscate_quarter_period(), args.n)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,sl,dsl\n")
            for t in ts:
                y, dy = sl(t)
                fh.write(f"{_fmt(t)},{_fmt(y)},{_fmt(dy)}\n")
        did_something = True
    if not did_something:
        print("nothing to do: give --quarter-period, --K, --sl or --table", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=float, default=None, help="source dimension (m > 2)")
    sp.add_argument("--A", type=float, default=None, help="coefficient of u u'")
    sp.add_argument("--B", type=float, default=None, help="coefficient of u^3")
    sp.add_argument("--config", type=str, default=None, help="key=value file of option defaults")


def _add_driver_flags(sp: argparse.ArgumentParser, record_every: int) -> None:
    sp.add_argument("--blowup-threshold", type=float, default=1e8)
    sp.add_argument("--record-every", type=int, default=record_every)


def build_parser() -> _Parser:
    parser = _Parser(prog="blowuplab")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    sp = sub.add_parser("integrate", help="integrate one initial condition")
    _add_model_flags(sp)
    sp.add_argument("--u0", type=float, default=0.0)
    sp.add_argument("--v0", type=float, default=0.0)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--integrator", choices=["rk4", "gauss6"], default="rk4")
    sp.add_argument("--h0", type=float, default=1e-3)
    sp.add_argument("--local-tol", type=float, default=1e-10)
    _add_driver_flags(sp, record_every=1)
    sp.add_argument("--out", type=str, default="trajectory.csv")
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("portrait", help="grid of forward/backward trajectories")
    _add_model_flags(sp)
    sp.add_argument("--grid", nargs=2, metavar=("U0_GRID", "V0_GRID"), required=True,
                    help="two lo:hi:n specs for u0 and du0")
    sp.add_argument("--horizon", type=float, default=20.0)
    _add_driver_flags(sp, record_every=10)
    sp.add_argument("--out", type=str, default="portrait.csv")
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("classify", help="verdict table over a grid")
    _add_model_flags(sp)
    sp.add_argument("--grid", nargs=2, metavar=("U0_GRID", "V0_GRID"), required=True)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--horizon", type=float, default=50.0)
    sp.add_argument("--out", type=str, default="classify.csv")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("elliptic", help="lemniscatic constants and tables")
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--quarter-period", action="store_true")
    sp.add_argument("--K", type=float, action="append", default=None,
                    help="modulus for the complete elliptic integral (repeatable)")
    sp.add_argument("--sl", action="store_true", help="evaluate the lemniscatic sine")
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--table", action="store_true", help="write sl over one period as CSV")
    sp.add_argument("--n", type=int, default=512)
    sp.add_argument("--out", type=str, default="sl_table.csv")
    sp.set_defaults(func=cmd_elliptic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults; a second parse
            # lets every flag given on the command line override them
            sub = parser.commands[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (BlowupLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
