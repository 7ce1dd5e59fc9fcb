#!/usr/bin/env bash
# CLI smoke test; run it from the repository root: bash .github/cli-smoke.sh
#
# The end-to-end path at the stress setting: build, query the cache (a cache
# that table has just written loads with nothing on stderr), query it under
# other phase caps (the cap limits a run, not a table, so a cap of 5, the
# table's largest n_k, or of 200 is served the cache and leaves it byte for
# byte as it was, and a cap of 4 exits 4 with the one error line that a build
# under it gives, before any write), sweep every
# algorithm, verify; a malformed flag must exit 1, not the exit 2 of a
# straddling range; verify piped into `head -n 1`, which must print the oracle
# line alone, with no traceback.  That verify exits 0 when its output reached
# the pipe before head left and 1 when head had already gone (a closed
# stdout), so the script records its code and accepts 0 or 1, never 120 or any
# other; pipefail would fail the script on the race.  Then verify at P_cri =
# 0.9999, where band 1 needs 45 phases.  The next three lines sit on band edges: a lambda one ulp below
# band 2, a table for that lambda0, and a P_cri just above Q_8(1).  A fixed
# phase of 1e-9 must still reach P > 0.99, and one of 5e-324, whose iteration
# count is not finite, must exit 1 with an error line, no traceback; a sweep
# with such a phase must print nothing on stdout.  Then --help for the program
# and each command and two usage errors, which build the argparse parser that
# a well-formed command line never loads.  Four damaged headline caches, their
# floats JSON numbers as since schema 10, must each be a miss (exit 0, exactly one
# warning line, no traceback): band 1 stored as the one phase pi, whose
# certificate once divided by zero at lambda = 1; band 1's second boundary set
# to NaN with the residual the certificate derives for it, which once loaded
# and served a phase whose P fell below P_cri; band 1 with a key that
# table_to_doc does not write, since a cache is served only when it is the
# document of its own certified plans; and band 1's upper edge 1.0 stored as
# the integer 1, a value of another JSON type.  Last, a
# table, plan and verify down to lambda0 = 1e-6 (785 bands) and to lambda0 =
# 1e-8 (7,854 bands, nearly all with one phase; the narrowest is 2.5e-12 wide,
# which each boundary solve resolves to the last float).  There the oracle runs
# the plans of 28 of the 7,867 segments: those a register of at most 10 qubits
# reaches, which verify's oracle line reports as 28/7867.
#
# At the phase cap: a table and verify at P_cri = 0.99995, where band 1 needs
# exactly max_nk = 64 phases, and a table at 0.99998, which band 1 cannot reach
# within it: exit 4 with the one error line that says so.
#
# verify exits with its first failing suite's own code, not the exit 5 of a
# failed check: 4 when --max-nk 1 cannot build the table, and 1 when the
# table's directory is missing, so the table cannot be written.  Each prints
# one error line and no traceback on stderr, and the second names the cache
# path, not the random name of its temp file.  A cap that the table fits
# passes every suite: at --max-nk 2 and P_cri = 0.8, monotonicity compares
# Q(k, n) for n = 1 and 2 alone, so verify exits 0.  The bracket-width flags
# --lambda-tol and --phase-tol are gone (schema 8), and so is --level-tol, now
# the constant LEVEL_TOL (schema 9): each is a usage error that writes no cache.
# So is a flag that its command does not read: --seed is verify's alone, and
# sweep and verify take no --format.
#
# The statevector's readings keep every bit on each supported Python: the five
# pinned trajectory digests in tests/oracles.py, which imports no numpy, are
# recomputed on this interpreter.
#
# A command checks every value it reads before it reads, builds or writes the
# cache: a --phi outside (0, pi] on compare and on a fixed-phase sweep, plan
# given both --lambda and --range, compare at lambda 2, and a sweep from a
# lambda0 so small (3e-309) that 1/lambda0 overflows, and a fixed phase whose
# iteration count is not finite at the command's smallest lambda (compare's
# lambda, a sweep's lambda0) must each exit 1 with exactly one error line,
# nothing on stdout and no cache file.
#
# A cache path that exists and is not a regular file is an error before any
# read or build: plan with a FIFO (whose open would block; timeout ends the
# run with 124 if it does) and with a directory as the cache must each exit 1
# with one error line (no warning line), nothing on stdout and no traceback.
set -euo pipefail
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cli() { python -m cmqsearch.cli "$@"; }
# runs a command and fails unless it exits with the given code
exits() { local want=$1 code=0; shift; "$@" || code=$?; test "$code" -eq "$want"; }

PYTHONPATH=src:tests python -c '
import oracles
for key, want in oracles.TRAJECTORY_SHA256.items():
    assert oracles.trajectory_sha256(*key) == want, key
'
stress=(--pcri 0.99 --lambda0 1e-3 --cache "$tmp/plans.json")
cli table "${stress[@]}" > /dev/null
cli plan --lambda 0.002 "${stress[@]}" 2> "$tmp/fresh.err"
test ! -s "$tmp/fresh.err"
cp "$tmp/plans.json" "$tmp/plans.copy"
for cap in 5 200; do
  cli plan --lambda 0.002 --max-nk "$cap" "${stress[@]}" > /dev/null
  cmp "$tmp/plans.json" "$tmp/plans.copy"
done
exits 4 cli plan --lambda 0.002 --max-nk 4 "${stress[@]}" 2> "$tmp/cap4.err"
test "$(cat "$tmp/cap4.err")" = "error: p_cri=0.99 not reachable on band 1 within max_nk=4"
cmp "$tmp/plans.json" "$tmp/plans.copy"
cli compare --lambda 0.002 "${stress[@]}"
cli plan --range 0.002..0.0020001 --format csv "${stress[@]}"
exits 1 cli plan --lambda abc --cache "$tmp/plans.json"
exits 1 cli table --lambda-tol 1e-12 --cache "$tmp/tol.json" 2> /dev/null
exits 1 cli table --phase-tol 1e-12 --cache "$tmp/tol.json" 2> /dev/null
exits 1 cli table --level-tol 1e-9 --cache "$tmp/tol.json" 2> /dev/null
test ! -e "$tmp/tol.json"
exits 1 cli plan --seed 1 --lambda 0.002 --cache "$tmp/seed.json" 2> /dev/null
test ! -e "$tmp/seed.json"
exits 1 cli verify --format csv --cache "$tmp/format.json" 2> /dev/null
test ! -e "$tmp/format.json"
cli sweep --grid 1000 --algorithms ours,grover,fixed,long,yoder_bound "${stress[@]}" > /dev/null
cli verify "${stress[@]}"
{ code=0; cli verify "${stress[@]}" 2> "$tmp/head.err" || code=$?; echo "$code" > "$tmp/head.code"; } \
  | head -n 1 > "$tmp/head.out"
grep -qx "[01]" "$tmp/head.code"
grep -q "^oracle_equivalence: PASS (" "$tmp/head.out"
test "$(wc -l < "$tmp/head.out")" -eq 1
if grep -q Traceback "$tmp/head.err"; then exit 1; fi
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
for case in band1_pi nan_boundary extra_key int_edge; do
  python -c '
import json, sys
from cmqsearch.optimizer import _check_guarantee
src, case, dst = sys.argv[1:]
doc = json.load(open(src))
band1 = doc["plans"][0]
bounds = band1["boundaries"]
if case == "band1_pi":
    band1.update(n_k=1, phases=[3.141592653589793], boundaries=[bounds[0], bounds[-1]])
elif case == "nan_boundary":
    bounds[1] = float("nan")
    band1["level_residual"] = _check_guarantee(1, 0.9, band1["phases"], bounds)[-1]
elif case == "extra_key":
    band1["solver"] = "illinois"
else:
    bounds[-1] = band1["band"][1] = 1
json.dump(doc, open(dst, "w"))
' "$tmp/headline.json" "$case" "$tmp/$case.json"
  cli plan --lambda 0.3 --cache "$tmp/$case.json" > /dev/null 2> "$tmp/$case.err"
  test "$(grep -c "^warning: " "$tmp/$case.err")" -eq 1
  if grep -q Traceback "$tmp/$case.err"; then exit 1; fi
done
deep=(--pcri 0.99 --lambda0 1e-6 --cache "$tmp/deep.json")
cli table "${deep[@]}" > /dev/null
cli plan --lambda 2e-6 "${deep[@]}"
cli verify "${deep[@]}"
deepest=(--pcri 0.99 --lambda0 1e-8 --cache "$tmp/deepest.json")
cli table "${deepest[@]}" > /dev/null
cli plan --lambda 2e-8 "${deepest[@]}"
cli verify "${deepest[@]}" > "$tmp/deepest.out"
grep -q "^oracle_equivalence: PASS (.*, 28/7867 segments reached)$" "$tmp/deepest.out"
cap=(--pcri 0.99995 --lambda0 1e-2 --cache "$tmp/cap.json")
cli table "${cap[@]}" > /dev/null
cli verify "${cap[@]}"
exits 4 cli table --pcri 0.99998 --lambda0 1e-2 --cache "$tmp/over-cap.json" 2> "$tmp/cap.err"
test "$(cat "$tmp/cap.err")" = "error: p_cri=0.99998 not reachable on band 1 within max_nk=64"
exits 4 cli verify --max-nk 1 --cache "$tmp/nk1.json" > /dev/null 2> "$tmp/nk1.err"
exits 0 cli verify --max-nk 2 --pcri 0.8 --cache "$tmp/nk2.json"
exits 1 cli verify --cache "$tmp/missing/plans.json" > /dev/null 2> "$tmp/missing.err"
for err in "$tmp/nk1.err" "$tmp/missing.err"; do
  test "$(grep -c "^error: " "$err")" -eq 1
  if grep -q Traceback "$err"; then exit 1; fi
done
if grep -q '\.tmp' "$tmp/missing.err"; then exit 1; fi
for args in "compare --lambda 0.3 --phi 4" "sweep --grid 2 --algorithms fixed --phi 0" \
    "plan --lambda 0.3 --range 0.2..0.4" "compare --lambda 2" \
    "sweep --grid 3 --lambda0 3e-309 --algorithms grover" \
    "compare --lambda 0.5 --phi 5e-324" "sweep --algorithms ours,fixed --phi 1e-310 --grid 3"; do
  exits 1 cli $args --cache "$tmp/value.json" > "$tmp/value.out" 2> "$tmp/value.err"
  test ! -s "$tmp/value.out"
  test "$(wc -l < "$tmp/value.err")" -eq 1
  grep -q "^error: " "$tmp/value.err"
  test ! -e "$tmp/value.json"
done
mkfifo "$tmp/fifo"
mkdir "$tmp/dir"
for path in fifo dir; do
  exits 1 timeout 10 python -m cmqsearch.cli plan --lambda 0.5 --cache "$tmp/$path" \
    > "$tmp/$path.out" 2> "$tmp/$path.err"
  test ! -s "$tmp/$path.out"
  test "$(wc -l < "$tmp/$path.err")" -eq 1
  grep -q "^error: " "$tmp/$path.err"
  if grep -q Traceback "$tmp/$path.err"; then exit 1; fi
done
