#!/usr/bin/env bash
# CLI smoke test; run it from the repository root: bash .github/cli-smoke.sh
#
# The end-to-end path at the stress setting: build, query the cache, sweep
# every algorithm, verify; a malformed flag must exit 1, not the exit 2 of a
# straddling range; then verify at P_cri = 0.9999, where band 1 needs 45
# phases.  The next three lines sit on band edges: a lambda one ulp below
# band 2, a table for that lambda0, and a P_cri just above Q_8(1).  A fixed
# phase of 1e-9 must still reach P > 0.99, and one of 5e-324, whose iteration
# count is not finite, must exit 1 with an error line, no traceback; a sweep
# with such a phase must print nothing on stdout.  Then --help for the program
# and each command and two usage errors, which build the argparse parser that
# a well-formed command line never loads.  Two damaged headline caches must
# each be a miss (exit 0, a warning line, no traceback): band 1 stored as the
# one phase pi, whose certificate once divided by zero at lambda = 1, and band
# 1's second boundary set to NaN with the residual the certificate derives for
# it, which once loaded and served a phase whose P fell below P_cri.  Last, a
# table, plan and verify down to lambda0 = 1e-6 (785 bands) and to lambda0 =
# 1e-8 (7,854 bands, nearly all with one phase; the narrowest is 2.5e-12 wide,
# near lambda_tol = 1e-12).
#
# At the phase cap: a table and verify at P_cri = 0.99995, where band 1 needs
# exactly max_nk = 64 phases, and a table at 0.99998, which band 1 cannot reach
# within it: exit 4 with the one error line that says so.
set -euo pipefail
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cli() { python -m cmqsearch.cli "$@"; }
# runs a command and fails unless it exits with the given code
exits() { local want=$1 code=0; shift; "$@" || code=$?; test "$code" -eq "$want"; }

stress=(--pcri 0.99 --lambda0 1e-3 --cache "$tmp/plans.json")
cli table "${stress[@]}" > /dev/null
cli plan --lambda 0.002 "${stress[@]}"
cli compare --lambda 0.002 "${stress[@]}"
cli plan --range 0.002..0.0020001 --format csv "${stress[@]}"
exits 1 cli plan --lambda abc --cache "$tmp/plans.json"
cli sweep --grid 1000 --algorithms ours,grover,fixed,long,yoder_bound "${stress[@]}" > /dev/null
cli verify "${stress[@]}"
cli verify --pcri 0.9999 --lambda0 1e-2 --cache "$tmp/p9999.json"
cli plan --lambda 0.09549150281252626 --cache "$tmp/edge.json"
cli sweep --lambda0 0.09549150281252626 --grid 10 --cache "$tmp/edge-sweep.json" > /dev/null
cli table --pcri 0.9904114249724051 --cache "$tmp/edge-pcri.json" > /dev/null
cli compare --lambda 0.5 --phi 1e-9 --cache "$tmp/phi.json" \
  | python -c "import json, sys; assert float(json.load(sys.stdin)['p_fixed']) > 0.99"
exits 1 cli compare --lambda 0.5 --phi 5e-324 --cache "$tmp/phi.json" 2> "$tmp/phi.err"
grep -q "^error: " "$tmp/phi.err"
if grep -q Traceback "$tmp/phi.err"; then exit 1; fi
exits 1 cli sweep --algorithms fixed --phi 1e-310 --grid 3 --cache "$tmp/phi.json" \
  > "$tmp/sweep.out" 2> "$tmp/sweep.err"
test ! -s "$tmp/sweep.out"
grep -q "^error: " "$tmp/sweep.err"
for cmd in "" table plan sweep verify compare; do cli $cmd --help > /dev/null; done
for bad in "--lambda=abc" "--lam 0.1"; do exits 1 cli plan $bad --cache "$tmp/plans.json"; done
cli table --cache "$tmp/headline.json" > /dev/null
for case in band1_pi nan_boundary; do
  python -c '
import json, sys
from cmqsearch.optimizer import PhasePlan, SolverConfig, _check_guarantee
src, case, dst = sys.argv[1:]
doc = json.load(open(src))
band1 = doc["plans"][0]
bounds = band1["boundaries"]
if case == "band1_pi":
    band1.update(n_k=1, phases=[repr(3.141592653589793)], boundaries=[bounds[0], bounds[-1]])
else:
    bounds[1] = "nan"
    plan = PhasePlan(1, 0.9, tuple(map(float, band1["phases"])), tuple(map(float, bounds)),
                     None, None)
    band1["level_residual"] = repr(_check_guarantee(plan, SolverConfig())[-1])
json.dump(doc, open(dst, "w"))
' "$tmp/headline.json" "$case" "$tmp/$case.json"
  cli plan --lambda 0.3 --cache "$tmp/$case.json" > /dev/null 2> "$tmp/$case.err"
  grep -q "^warning: " "$tmp/$case.err"
  if grep -q Traceback "$tmp/$case.err"; then exit 1; fi
done
deep=(--pcri 0.99 --lambda0 1e-6 --cache "$tmp/deep.json")
cli table "${deep[@]}" > /dev/null
cli plan --lambda 2e-6 "${deep[@]}"
cli verify "${deep[@]}"
deepest=(--pcri 0.99 --lambda0 1e-8 --cache "$tmp/deepest.json")
cli table "${deepest[@]}" > /dev/null
cli plan --lambda 2e-8 "${deepest[@]}"
cli verify "${deepest[@]}"
cap=(--pcri 0.99995 --lambda0 1e-2 --cache "$tmp/cap.json")
cli table "${cap[@]}" > /dev/null
cli verify "${cap[@]}"
exits 4 cli table --pcri 0.99998 --lambda0 1e-2 --cache "$tmp/over-cap.json" 2> "$tmp/cap.err"
test "$(cat "$tmp/cap.err")" = "error: p_cri=0.99998 not reachable on band 1 within max_nk=64"
