#!/bin/sh
# Determinism of the fuzz loop's ordered stream: campaign journals and
# repro files must be byte-identical at MPCP_THREADS=1 and 4, and a
# campaign cut short by --time-budget must have journaled a contiguous
# r0..rk-1 prefix that --resume completes to the uncut journal's bytes.
# $1 = mpcp_fuzz binary. Works in its own mktemp -d directory.
set -eu
fuzz="$1"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
mkdir c1 c4 m1 m4 k

# fuzz_ok THREADS ARGS...: exit 1 only means "findings were reported";
# anything else is an error.
fuzz_ok() {
  threads=$1
  shift
  MPCP_THREADS=$threads MPCP_BENCH_DIR=. "$fuzz" "$@" >>log 2>&1 ||
    [ $? -eq 1 ]
}

common="--runs 120 --seed 7 --horizon-cap 20000"
for t in 1 4; do
  fuzz_ok $t $common --campaign "J$t" --corpus-dir "c$t"
  # A seeded mutation makes findings, so shrinking, dedupe and repro
  # writing go through the fold too.
  fuzz_ok $t $common --mutate gcs-ceiling-base --max-findings 3 \
    --campaign "M$t" --corpus-dir "m$t"
done
cmp J1 J4 || { echo "FAIL: journals differ at 1 and 4 threads" >&2; exit 1; }
cmp M1 M4 || {
  echo "FAIL: mutation journals differ at 1 and 4 threads" >&2; exit 1; }
diff -r c1 c4 || {
  echo "FAIL: repro files differ at 1 and 4 threads" >&2; exit 1; }
ls m1/*.repro >/dev/null || {
  echo "FAIL: the mutation wrote no repro file" >&2; exit 1; }
diff -r m1 m4 || {
  echo "FAIL: mutation repro files differ at 1 and 4 threads" >&2; exit 1; }

# Budget cut: whatever k the clock allows, the journal holds the meta
# record and then exactly done r0..r(k-1), in order.
fuzz_ok 4 $common --time-budget 0.25s --campaign K --corpus-dir k
awk 'NR == 1 { if ($2 != "meta") bad = 1; next }
     { if ($2 != "done" || $3 != "r" (NR - 2)) bad = 1 }
     END { exit bad }' K || {
  echo "FAIL: budget-cut journal is not a contiguous r0..rk-1 prefix" >&2
  cat K >&2
  exit 1
}
echo "budget cut after $(($(wc -l <K) - 1)) of 120 runs"
fuzz_ok 4 $common --campaign K --resume --corpus-dir k
cmp J1 K || {
  echo "FAIL: resumed journal differs from the uncut one" >&2; exit 1; }
echo OK
