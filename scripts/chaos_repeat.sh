#!/usr/bin/env sh
# The fault_matrix bench, many times, on a busy host: every run must equal
# crates/bench/baselines/fault_matrix.json, so no chaos cell's digest,
# rollback count or fault count may depend on how the host schedules the
# run. What-if fault rolls come off one shared counter, so this held only
# while nothing under a tuning round drew them from more than one thread; no
# thread is spawned there any more (scripts/verify.sh greps for it), and
# this step keeps the consequence observable. Execution and DDL rolls are
# still counters (ROADMAP item 5).
#
#   scripts/chaos_repeat.sh [runs]     # 50
#
# Runs beside two `yes` processes; every fifth run is pinned to CPU 0. The
# first failing run's output (the differing JSON paths) is printed.
set -u

cd "$(dirname "$0")/.."

RUNS=${1:-50}
BENCH=$(cargo bench --offline -p autoindex-bench --bench fault_matrix --no-run 2>&1 |
    sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
[ -x "$BENCH" ] || { echo "could not build the fault_matrix bench" >&2; exit 2; }

yes > /dev/null &
NOISE1=$!
yes > /dev/null &
NOISE2=$!
trap 'kill $NOISE1 $NOISE2 2>/dev/null' EXIT INT TERM

i=1
while [ "$i" -le "$RUNS" ]; do
    PIN=
    if [ $((i % 5)) -eq 0 ] && command -v taskset > /dev/null; then
        PIN="taskset -c 0"
    fi
    if ! OUT=$($PIN "$BENCH" 2>&1); then
        printf '%s\n' "$OUT" >&2
        echo "CHAOS REPEAT FAILED: run $i of $RUNS" >&2
        exit 1
    fi
    i=$((i + 1))
done
echo "CHAOS REPEAT OK: $RUNS runs of the fault_matrix bench, each equal to its baseline"
