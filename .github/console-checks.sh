#!/usr/bin/env bash
# Checks of the installed blowuplab console script: every subcommand runs,
# K(0.99) matches its quadrature value, sl(1.5) keeps its first integral,
# the m = 8 escapes blow up at the quadrature time of their energy, which
# the verdict's t_bound gives too, a backward Gauss6 m = 9 escape and an
# m = 5 escape at local_tol 1e-6 blow up at their verdicts' t_bound, a
# Gauss6 m = 4 run stays within 1e-9 of
# -tanh t both ways, a start whose u^4 overflows writes its row, the
# m = 3 parabola start, the disc = 0 grid, an m = 3.5 decay and a t_bound
# of -8.45e299 verify, (1, 0) at A = 1e10, B = 1e-310, whose backward
# end exponent underflows, reads no_global_solution, non-finite input
# exits with status 2 and an error: line, and a grid whose span overflows
# is refused by its spec before any file is written, as is an --out whose
# suffix .json is the name of its own sidecar.
# Usage: bash .github/console-checks.sh [work directory]
set -eu
unset PYTHONPATH  # the installed package, not the source tree
cd "${1:-$(mktemp -d)}"
blowuplab elliptic --quarter-period
blowuplab elliptic --K 0.5 --K 0.99 | tee K.txt
python - <<'PY'
K = [float(line) for line in open("K.txt")]
ref = 3.35660052336119237603347  # K(0.99) by tanh-sinh quadrature
if len(K) != 2 or not abs(K[1] - ref) <= 1e-14 * ref:
    raise SystemExit(f"elliptic --K 0.99: want {ref} within 1e-14 relative, got {K}")
PY
blowuplab elliptic --sl --t 1.5 | tee sl.txt
python - <<'PY'
# sl solves y'^2 + y^4 = 1; the defect read 4.4e-16 at t = 1.5 and at most
# 1.3e-15 on [-15, 15]
y, dy = (float(x) for x in open("sl.txt").read().split(","))
defect = abs(dy * dy + y**4 - 1.0)
if not defect <= 2e-15:
    raise SystemExit(f"elliptic --sl --t 1.5: want |y'^2 + y^4 - 1| <= 2e-15, got {defect}")
PY
blowuplab elliptic --table --out sl.csv
blowuplab integrate --m 5 --u0 0.5 --v0 0 --t-end 1 --out t.csv
blowuplab integrate --integrator gauss6 --m 5 --u0 1 --v0 1 --t-end 10 --out g.csv
blowuplab integrate --integrator gauss6 --m 8 --u0 1 --v0 1 --t-end 10 --out g8.csv
# the same escape at looser local_tols: the half steps' stage solves stop at
# 5e-2 of it, the full step's at 63 times that, at 1e-6 the loosest stop
blowuplab integrate --integrator gauss6 --m 8 --u0 1 --v0 1 --t-end 10 --local-tol 1e-8 --out g8t.csv
blowuplab integrate --integrator gauss6 --m 8 --u0 1 --v0 1 --t-end 10 --local-tol 1e-6 --out g8l.csv
# each m = 8 escape must blow up at the quadrature time of its conserved energy
python - <<'PY'
import json
from blowuplab import params_from_dimension, quadrature_blowup_time
B = params_from_dimension(8.0).B
t_ref = quadrature_blowup_time(B / 2.0, 1.0 - 0.5 * B, 1.0)  # u0 = v0 = 1: 2e = 1 - B/2
# g8l's error was 1.1e-11 relative; its gate is about 4.5 times that
for name, gate in (("g8", 1e-8), ("g8t", 1e-9), ("g8l", 5e-11)):
    side = json.load(open(name + ".json"))
    print(name, "termination", side["termination"]["kind"], "estimate", side["blowup_estimate"], "quadrature", t_ref)
    if side["termination"]["kind"] != "blowup" or not abs(side["blowup_estimate"] - t_ref) <= gate * t_ref:
        raise SystemExit(f"{name}: want a blowup within {gate:g} relative of the quadrature time")
# the verdict's t_bound is exact.escape_time's, 2e-16 from the quadrature time
t_bound = json.load(open("g8.json"))["verdict"]["detail"]["t_bound"]
print("g8 verdict t_bound", t_bound)
if not abs(t_bound - t_ref) <= 1e-13 * t_ref:
    raise SystemExit("g8: want the verdict's t_bound within 1e-13 relative of the quadrature time")
PY
# a backward Gauss6 escape: the driver runs it forward in t -> -t, and its
# estimate lay 1.05e-11 relative from the verdict's t_bound
blowuplab integrate --integrator gauss6 --m 9 --u0 -0.5 --v0 1 --t-end -20 --out g9b.csv
python - <<'PY'
import json
side = json.load(open("g9b.json"))
end, est, t_bound = side["termination"], side["blowup_estimate"], side["verdict"]["detail"]["t_bound"]
print("g9b termination", end["kind"], "direction", end["direction"], "estimate", est, "t_bound", t_bound)
if end["kind"] != "blowup" or end["direction"] != -1 or not abs(est - t_bound) <= 1e-9 * abs(t_bound):
    raise SystemExit("g9b: want a backward blowup (direction -1) within 1e-9 relative of the verdict's t_bound")
PY
# the m = 5 Gauss6 escape (A != 0) at the loosest stop: the cap-bound steps
# there start their stage solves from the previous step's stages, scaled
# through u(t) -> lam u(lam t), and its estimate lay 6.6e-11 relative from
# the verdict's t_bound; its gate is about 4.5 times that
blowuplab integrate --integrator gauss6 --m 5 --u0 1 --v0 1 --t-end 10 --local-tol 1e-6 --out g5l.csv
python - <<'PY'
import json
side = json.load(open("g5l.json"))
end, est, t_bound = side["termination"], side["blowup_estimate"], side["verdict"]["detail"]["t_bound"]
print("g5l termination", end["kind"], "estimate", est, "t_bound", t_bound)
if end["kind"] != "blowup" or not abs(est - t_bound) <= 3e-10 * abs(t_bound):
    raise SystemExit("g5l: want a blowup within 3e-10 relative of the verdict's t_bound")
PY
# Gauss6 on the exact m = 4 solution u = -tanh t, u' = -sech^2 t, forward and backward
blowuplab integrate --integrator gauss6 --m 4 --u0 0 --v0 -1 --t-end 5 --out tanh_f.csv
blowuplab integrate --integrator gauss6 --m 4 --u0 0 --v0 -1 --t-end -5 --out tanh_b.csv
python - <<'PY'
import csv
import math
for name in ("tanh_f", "tanh_b"):
    rows = list(csv.DictReader(open(name + ".csv")))
    eu = max(abs(float(r["u"]) + math.tanh(float(r["t"]))) for r in rows)
    ev = max(abs(float(r["du"]) + 1.0 / math.cosh(float(r["t"])) ** 2) for r in rows)
    print(name, "rows", len(rows), "t_last", rows[-1]["t"], "max abs error u", eu, "u'", ev)
    if len(rows) < 2 or abs(abs(float(rows[-1]["t"])) - 5.0) > 1e-12 or not max(eu, ev) <= 1e-9:
        raise SystemExit(f"{name}: want a run to |t| = 5 within 1e-9 of -tanh t and -sech^2 t")
PY
blowuplab integrate --m 5 --u0 0.5 --v0 0 --t-end 1 --blowup-threshold 1e200 --out big.csv
# a start whose u^4 overflows a float: the run caps its step below h_min at
# once and exits 1 as inconclusive, with its start row written, not a traceback
status=0
blowuplab integrate --m 5 --u0 1e200 --v0 1e200 --t-end 1 --out huge.csv 2> err.txt || status=$?
cat err.txt huge.csv
if [ "$status" -ne 1 ] || ! grep -q "^integration inconclusive: step_underflow$" err.txt \
    || ! grep -q "^0,9.9999999999999997e+199,9.9999999999999997e+199,nan," huge.csv; then
  echo "blowuplab integrate from (1e200, 1e200): want exit status 1, an inconclusive line and the start row, got $status"
  exit 1
fi
blowuplab portrait --m 5 --grid -1:1:3 -1:1:3 --horizon 3 --out p.csv
blowuplab classify --m 5 --grid -2:2:4 -2:2:4 --verify --out c.csv
blowuplab classify --m 4 --grid -2:2:9 -2:2:9 --verify --out c4.csv
blowuplab classify --A -2 --B 0 --grid -2:2:8 -2:2:8 --verify --out c0.csv
blowuplab classify --m 3 --grid 0:0:1 -1:1:5 --verify --out m3.csv
blowuplab classify --m 3 --grid -2:2:9 -2:2:9 --verify --out m3g.csv
# (2, 2) lies on the invariant parabola u' = u^2/2, whose exact pole t = 1 the verdict must claim
blowuplab classify --m 3 --grid 2:2:1 2:2:1 --verify --out m3p.csv
cat m3p.csv
if ! grep -q ",pass$" m3p.csv; then
  echo "blowuplab classify --m 3 from (2, 2): want the verdict verified as pass"
  exit 1
fi
# the exact module checks every verdict: all 81 rows at disc = 0 (48 of them
# global_bounded), an m = 3.5 global_bounded row, whose u decays like 6/t, and
# at B = 1e-300 the exact times +-8.4515e299, equal in floats, whose tie goes
# backward to t_bound -8.4515e299, checked from the horizon without a run to it
blowuplab classify --A 1 --B -0.125 --grid -2:2:9 -2:2:9 --verify --out d0.csv
blowuplab classify --m 3.5 --grid 1:1:1 -0.5:-0.5:1 --verify --out m35.csv
timeout 20 blowuplab classify --A 1 --B 1e-300 --grid 1:1:1 -0.2:-0.2:1 --verify --out tiny.csv
cat m35.csv tiny.csv
for name in d0 m35 tiny; do
  if grep -v ",pass$" "$name.csv" | grep -qv "^u0,"; then
    echo "blowuplab classify --verify: every row of $name.csv must read pass"
    exit 1
  fi
done
if ! grep -q ",global_bounded,.*,pass$" m35.csv; then
  echo "blowuplab classify --m 3.5 from (1, -0.5): want a global_bounded row that passes"
  exit 1
fi
# at A = 1e10, B = 1e-310 the backward end root's exponent k_plus/(2D)
# underflows to 0; the kind is read from k_plus's sign, so (1, 0), which
# blows up forward at 7.6e-8 and backward past floats, has no global solution
blowuplab classify --A 1e10 --B 1e-310 --grid 1:1:1 0:0:1 --out und.csv
cat und.csv
if [ "$(awk -F, 'NR == 2 {print $3}' und.csv)" != no_global_solution ]; then
  echo "blowuplab classify --A 1e10 --B 1e-310 from (1, 0): want the verdict no_global_solution"
  exit 1
fi
# a subnormal B underflows the root k_plus to 0, which leaves the verdict unclassified
blowuplab classify --A 1 --B 5e-324 --grid -1:1:3 -1:1:3 --out sub.csv
blowuplab integrate --A 1 --B 5e-324 --u0 1 --v0 1 --t-end 1 --out sub_t.csv

rm -f c.csv  # a rejected grid must leave none
for args in "integrate --m nan --u0 1 --v0 1 --t-end 1 --out x.csv" "elliptic --sl --t nan" \
    "classify --m 5 --grid nan:1:2 0:1:2 --out c.csv" \
    "integrate --A 1 --B -inf --u0 1 --v0 1 --t-end 1 --out x.csv"; do
  status=0
  blowuplab $args 2> err.txt || status=$?
  cat err.txt
  if [ "$status" -ne 2 ] || ! grep -q "^error: " err.txt; then
    echo "blowuplab $args: want exit status 2 and an error: line, got $status"
    exit 1
  fi
done
if [ -e c.csv ]; then
  echo "blowuplab classify with a NaN grid left c.csv behind"
  exit 1
fi
# finite endpoints whose span hi - lo overflows
for cmd in classify portrait; do
  status=0
  blowuplab $cmd --m 5 --grid -1e308:1e308:3 0:1:2 --out span.csv 2> err.txt || status=$?
  cat err.txt
  if [ "$status" -ne 2 ] || ! grep -q "^error: grid spec '-1e308:1e308:3'" err.txt || [ -e span.csv ] || [ -e span.json ]; then
    echo "blowuplab $cmd with an overflowing grid span: want exit status 2, a grid spec error: line and no file, got $status"
    exit 1
  fi
done
# the JSON sidecar takes the CSV's name with the suffix .json, so it would
# overwrite a CSV of that name
for args in "integrate --m 5 --u0 0.5 --v0 0.1 --t-end 0.01 --out o.json" \
    "portrait --m 5 --grid -1:1:3 -1:1:3 --horizon 3 --out o.JSON"; do
  status=0
  blowuplab $args 2> err.txt || status=$?
  cat err.txt
  if [ "$status" -ne 2 ] || ! grep -q "^error: --out" err.txt || [ -e o.json ] || [ -e o.JSON ]; then
    echo "blowuplab $args: want exit status 2, an error: --out line and no file, got $status"
    exit 1
  fi
done
