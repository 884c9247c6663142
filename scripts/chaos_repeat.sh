#!/usr/bin/env sh
# One chaos cell, many times, on a busy host: the cell's `CHAOS` line —
# digests at 1 and 4 workers, rollback and leak counts — must not depend on
# how the host schedules the run. What-if fault rolls come off one shared
# counter, so this held only while nothing under a tuning round drew them
# from more than one thread; no thread is spawned there any more
# (scripts/verify.sh greps for it), and this step keeps the consequence
# observable. Execution and DDL rolls are still counters (ROADMAP item 5).
#
#   scripts/chaos_repeat.sh [workload] [rate] [runs]     # saas 0.20 50
#
# Runs beside two `yes` processes; every fifth run is pinned to CPU 0.
# Environment:
#   REPRO  path to a prebuilt repro binary (default: target/release/repro)
set -u

cd "$(dirname "$0")/.."

WORKLOAD=${1:-saas}
RATE=${2:-0.20}
RUNS=${3:-50}
REPRO=${REPRO:-target/release/repro}
[ -x "$REPRO" ] || { echo "not an executable: $REPRO (build it: cargo build --release --offline -p autoindex-bench --bin repro)" >&2; exit 2; }

yes > /dev/null &
NOISE1=$!
yes > /dev/null &
NOISE2=$!
trap 'kill $NOISE1 $NOISE2 2>/dev/null' EXIT INT TERM

LINES=$(
    i=1
    while [ "$i" -le "$RUNS" ]; do
        if [ $((i % 5)) -eq 0 ] && command -v taskset > /dev/null; then
            taskset -c 0 "$REPRO" chaos "$WORKLOAD" "$RATE" 2>&1 | grep '^CHAOS '
        else
            "$REPRO" chaos "$WORKLOAD" "$RATE" 2>&1 | grep '^CHAOS '
        fi
        i=$((i + 1))
    done
)
COUNT=$(printf '%s\n' "$LINES" | grep -c '^CHAOS ')
DISTINCT=$(printf '%s\n' "$LINES" | sort -u)
printf '%s\n' "$DISTINCT"
if [ "$COUNT" -ne "$RUNS" ] || [ "$(printf '%s\n' "$DISTINCT" | wc -l)" -ne 1 ]; then
    echo "CHAOS REPEAT FAILED: $COUNT of $RUNS runs printed a CHAOS line, $(printf '%s\n' "$DISTINCT" | wc -l) distinct" >&2
    exit 1
fi
case $DISTINCT in
    *result=PASS*) echo "CHAOS REPEAT OK: $RUNS runs of $WORKLOAD @ $RATE, one distinct line" ;;
    *) echo "CHAOS REPEAT FAILED: the cell itself fails" >&2; exit 1 ;;
esac
