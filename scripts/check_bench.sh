#!/usr/bin/env sh
# Serving-throughput regression check for autoindex-rs (PR 5 + PR 6).
#
# Stage 1 (PR 5): compares the freshly written BENCH_PR5.json against the
# committed baseline scripts/bench_baseline_pr5.json, row by row (one row
# per worker count in the sweep). Only *simulated-domain* numbers are
# compared — simulated_qps and speedup_vs_1 — never wall_ms, so the check
# is host independent: the simulation is deterministic and any drift
# means the pipeline's behaviour changed, not the machine.
#
# Stage 2 (PR 6): checks BENCH_PR6.json against
# scripts/bench_baseline_pr6.json. Its execution rows live in the same
# simulated domain and get the same tolerance-band comparison (the fast
# path must not change what executes — see docs/PERFORMANCE.md), and the
# measured front-end speedup (wall-clock qps of scan+bind vs
# parse+extract, a ratio of two rates on the same host and therefore host
# independent) must clear a hard floor.
#
# Knobs (environment):
#   BENCH_TOLERANCE_PCT   allowed relative drift per compared value,
#                         percent (default 5; the sweep is deterministic,
#                         so real drift should be ~0 — the band only
#                         absorbs float formatting)
#   BENCH_CURRENT         path to the fresh PR 5 results
#                         (default BENCH_PR5.json at the repo root)
#   BENCH_BASELINE        path to the committed PR 5 baseline
#                         (default scripts/bench_baseline_pr5.json)
#   BENCH_CURRENT_PR6     path to the fresh PR 6 results
#                         (default BENCH_PR6.json at the repo root)
#   BENCH_BASELINE_PR6    path to the committed PR 6 baseline
#                         (default scripts/bench_baseline_pr6.json)
#   BENCH_CURRENT_PR8     path to the fresh PR 8 fleet results
#                         (default BENCH_PR8.json at the repo root)
#   BENCH_BASELINE_PR8    path to the committed PR 8 baseline
#                         (default scripts/bench_baseline_pr8.json)
#   BENCH_CURRENT_PR9     path to the fresh PR 9 drift-matrix results
#                         (default BENCH_PR9.json at the repo root)
#   BENCH_BASELINE_PR9    path to the committed PR 9 baseline
#                         (default scripts/bench_baseline_pr9.json)
#   BENCH_CURRENT_PR10    path to the fresh PR 10 sort-surface results
#                         (default BENCH_PR10.json at the repo root)
#   BENCH_BASELINE_PR10   path to the committed PR 10 baseline
#                         (default scripts/bench_baseline_pr10.json)
#   BANDIT_WINS_FLOOR     minimum scenarios where the bandit beats/ties
#                         greedy cumulative regret (default 2)
#   FLEET_SPEEDUP_FLOOR_4 minimum fleet speedup at 4 workers (default 3.5)
#   FLEET_SPEEDUP_FLOOR_8 minimum fleet speedup at 8 workers (default 6)
#   FRONTEND_SPEEDUP_FLOOR  minimum fastpath-on/off front-end qps ratio
#                         (default 10)
#
# Exit status: 0 when every row is inside the band and the front-end floor
# holds, 1 otherwise. CI runs this as a separate, non-blocking job
# (continue-on-error) so a perf regression is *reported* on every push
# without blocking the merge — refresh the baselines deliberately when a
# change is intentional:
#
#   cargo bench --offline -p autoindex-bench --bench throughput
#   cp BENCH_PR5.json scripts/bench_baseline_pr5.json
#   cp BENCH_PR6.json scripts/bench_baseline_pr6.json
set -eu

cd "$(dirname "$0")/.."

CURRENT="${BENCH_CURRENT:-BENCH_PR5.json}"
BASELINE="${BENCH_BASELINE:-scripts/bench_baseline_pr5.json}"
CURRENT6="${BENCH_CURRENT_PR6:-BENCH_PR6.json}"
BASELINE6="${BENCH_BASELINE_PR6:-scripts/bench_baseline_pr6.json}"
CURRENT8="${BENCH_CURRENT_PR8:-BENCH_PR8.json}"
BASELINE8="${BENCH_BASELINE_PR8:-scripts/bench_baseline_pr8.json}"
CURRENT9="${BENCH_CURRENT_PR9:-BENCH_PR9.json}"
BASELINE9="${BENCH_BASELINE_PR9:-scripts/bench_baseline_pr9.json}"
CURRENT10="${BENCH_CURRENT_PR10:-BENCH_PR10.json}"
BASELINE10="${BENCH_BASELINE_PR10:-scripts/bench_baseline_pr10.json}"
WINS_FLOOR="${BANDIT_WINS_FLOOR:-2}"
FLOOR="${FRONTEND_SPEEDUP_FLOOR:-10}"
FLEET4="${FLEET_SPEEDUP_FLOOR_4:-3.5}"
FLEET8="${FLEET_SPEEDUP_FLOOR_8:-6}"
TOL="${BENCH_TOLERANCE_PCT:-5}"

if [ ! -f "$CURRENT" ]; then
    echo "ERROR: $CURRENT not found — run: cargo bench --offline -p autoindex-bench --bench throughput" >&2
    exit 1
fi
if [ ! -f "$BASELINE" ]; then
    echo "ERROR: baseline $BASELINE not found" >&2
    exit 1
fi
if [ ! -f "$CURRENT6" ]; then
    echo "ERROR: $CURRENT6 not found — run: cargo bench --offline -p autoindex-bench --bench throughput" >&2
    exit 1
fi
if [ ! -f "$BASELINE6" ]; then
    echo "ERROR: baseline $BASELINE6 not found" >&2
    exit 1
fi
if [ ! -f "$CURRENT8" ]; then
    echo "ERROR: $CURRENT8 not found — run: cargo bench --offline -p autoindex-bench --bench fleet" >&2
    exit 1
fi
if [ ! -f "$BASELINE8" ]; then
    echo "ERROR: baseline $BASELINE8 not found" >&2
    exit 1
fi
if [ ! -f "$CURRENT9" ]; then
    echo "ERROR: $CURRENT9 not found — run: cargo bench --offline -p autoindex-bench --bench drift_matrix" >&2
    exit 1
fi
if [ ! -f "$BASELINE9" ]; then
    echo "ERROR: baseline $BASELINE9 not found" >&2
    exit 1
fi
if [ ! -f "$CURRENT10" ]; then
    echo "ERROR: $CURRENT10 not found — run: cargo bench --offline -p autoindex-bench --bench sort_surface" >&2
    exit 1
fi
if [ ! -f "$BASELINE10" ]; then
    echo "ERROR: baseline $BASELINE10 not found" >&2
    exit 1
fi

# Extract "workers qps speedup det" rows from the pretty-printed JSON.
# The in-repo Json printer emits one "key": value pair per line inside
# each row object, keys sorted alphabetically, so a line-oriented awk
# pass is reliable here.
extract() {
    awk '
        /"deterministic_match":/ { gsub(/[",]/, ""); det = $2 }
        /"simulated_qps":/       { gsub(/[",]/, ""); qps = $2 }
        /"speedup_vs_1":/        { gsub(/[",]/, ""); spd = $2 }
        /"workers":/             { gsub(/[",]/, ""); printf "%s %s %s %s\n", $2, qps, spd, det }
    ' "$1"
}

# Pull one scalar "key": value out of a pretty-printed JSON file.
scalar() {
    awk -v key="\"$2\":" '$1 == key { gsub(/[",]/, ""); print $2; exit }' "$1"
}

trap 'rm -f /tmp/bench_current.$$ /tmp/bench_baseline.$$' EXIT

# Row-by-row simulated-domain comparison of one results file against one
# baseline. Appends to the global FAILED flag.
compare_rows() {
    CUR="$1"
    BASE="$2"
    extract "$CUR" >/tmp/bench_current.$$
    extract "$BASE" >/tmp/bench_baseline.$$
    echo "workers      qps(base)      qps(now)    drift%   speedup(now)  deterministic"
    while read -r W BQ BS BD; do
        LINE=$(grep "^$W " /tmp/bench_current.$$ || true)
        if [ -z "$LINE" ]; then
            echo "  $W: MISSING from $CUR"
            FAILED=1
            continue
        fi
        CQ=$(printf '%s' "$LINE" | awk '{print $2}')
        CS=$(printf '%s' "$LINE" | awk '{print $3}')
        CD=$(printf '%s' "$LINE" | awk '{print $4}')
        OK=$(awk -v a="$BQ" -v b="$CQ" -v t="$TOL" 'BEGIN {
            d = (a > 0) ? (b - a) / a * 100 : 0;
            printf "%.2f %d", d, (d <= t && d >= -t) ? 1 : 0
        }')
        DRIFT=${OK% *}
        PASS=${OK#* }
        STATUS="ok"
        if [ "$PASS" != "1" ]; then STATUS="DRIFT"; FAILED=1; fi
        if [ "$CD" != "true" ]; then STATUS="NONDET"; FAILED=1; fi
        printf '%7s %13s %13s %9s %14s %14s  %s\n' \
            "$W" "$BQ" "$CQ" "$DRIFT" "$CS" "$CD" "$STATUS"
        : "$BS" "$BD"
    done </tmp/bench_baseline.$$
}

FAILED=0
echo "bench check [PR5 $CURRENT]: tolerance ±${TOL}% (simulated domain; wall-clock ignored)"
compare_rows "$CURRENT" "$BASELINE"

echo "bench check [PR6 $CURRENT6]: execution rows, tolerance ±${TOL}%"
compare_rows "$CURRENT6" "$BASELINE6"

# PR 6 front end: serve-level fast-path engagement plus the wall-clock
# speedup floor. Both current values come from BENCH_PR6.json; the
# committed baseline documents the reference run.
FP_HITS=$(scalar "$CURRENT6" "hits")
OFF_IDENT=$(scalar "$CURRENT6" "off_transcript_identical")
SPEEDUP=$(scalar "$CURRENT6" "frontend_speedup")
if [ -z "$FP_HITS" ] || [ "$FP_HITS" -le 0 ] 2>/dev/null; then
    echo "  frontend: serve fastpath hits = ${FP_HITS:-missing}  FAIL (must be > 0)"
    FAILED=1
else
    echo "  frontend: serve fastpath hits = $FP_HITS  ok"
fi
if [ "$OFF_IDENT" != "true" ]; then
    echo "  frontend: fastpath-off transcript identical = ${OFF_IDENT:-missing}  FAIL"
    FAILED=1
else
    echo "  frontend: fastpath-off transcript identical = true  ok"
fi
if [ -z "$SPEEDUP" ] || ! awk -v s="$SPEEDUP" -v f="$FLOOR" 'BEGIN { exit !(s + 0 >= f + 0) }'; then
    echo "  frontend: speedup = ${SPEEDUP:-missing}x  FAIL (floor ${FLOOR}x)"
    FAILED=1
else
    echo "  frontend: speedup = ${SPEEDUP}x (floor ${FLOOR}x)  ok"
fi

# PR 8 multi-tenant fleet: sweep rows get the usual simulated-domain
# tolerance band; the fleet's deterministic fields — admission counts,
# shed/executed totals and the transcript digest over fleet + all tenant
# transcripts — are exact (admission is a pure function of config and
# streams, so a single changed byte means behaviour changed). The
# work-stealing scaling floors are re-checked from the recorded speedups.
echo "bench check [PR8 $CURRENT8]: fleet sweep rows, tolerance ±${TOL}%"
compare_rows "$CURRENT8" "$BASELINE8"
for KEY8 in tenants statements executed shed shed_slices deferred_slices \
    tuning_visits slo_violations fleet_epochs transcript_digest; do
    BASEV=$(scalar "$BASELINE8" "$KEY8")
    CURV=$(scalar "$CURRENT8" "$KEY8")
    if [ -z "$CURV" ] || [ "$CURV" != "$BASEV" ]; then
        echo "  fleet: $KEY8 = ${CURV:-missing} (baseline $BASEV)  FAIL"
        FAILED=1
    else
        echo "  fleet: $KEY8 = $CURV  ok"
    fi
done
SP4=$(scalar "$CURRENT8" "speedup_at_4")
SP8=$(scalar "$CURRENT8" "speedup_at_8")
if [ -z "$SP4" ] || ! awk -v s="$SP4" -v f="$FLEET4" 'BEGIN { exit !(s + 0 >= f + 0) }'; then
    echo "  fleet: speedup_at_4 = ${SP4:-missing}x  FAIL (floor ${FLEET4}x)"
    FAILED=1
else
    echo "  fleet: speedup_at_4 = ${SP4}x (floor ${FLEET4}x)  ok"
fi
if [ -z "$SP8" ] || ! awk -v s="$SP8" -v f="$FLEET8" 'BEGIN { exit !(s + 0 >= f + 0) }'; then
    echo "  fleet: speedup_at_8 = ${SP8:-missing}x  FAIL (floor ${FLEET8}x)"
    FAILED=1
else
    echo "  fleet: speedup_at_8 = ${SP8}x (floor ${FLEET8}x)  ok"
fi

# PR 9 drift matrix: every field in the file is either a config echo or
# a simulated-domain result (regret curves, recovery rounds, digests) —
# deterministic by construction — except wall_ms. The comparison is
# therefore byte-exact after stripping wall_ms lines; on top of that the
# bandit-vs-greedy win floor and every cell's recovery requirement are
# re-checked from the current file.
echo "bench check [PR9 $CURRENT9]: drift-matrix fields, exact match (wall_ms ignored)"
if grep -v '"wall_ms":' "$CURRENT9" >/tmp/bench_current.$$ \
    && grep -v '"wall_ms":' "$BASELINE9" >/tmp/bench_baseline.$$ \
    && cmp -s /tmp/bench_current.$$ /tmp/bench_baseline.$$; then
    echo "  drift: all simulated fields byte-identical to baseline  ok"
else
    echo "  drift: simulated fields differ from baseline  FAIL"
    diff /tmp/bench_baseline.$$ /tmp/bench_current.$$ | head -20 || true
    FAILED=1
fi
rm -f /tmp/bench_current.$$ /tmp/bench_baseline.$$
WINS=$(scalar "$CURRENT9" "bandit_wins_vs_greedy")
if [ -z "$WINS" ] || [ "$WINS" -lt "$WINS_FLOOR" ] 2>/dev/null; then
    echo "  drift: bandit_wins_vs_greedy = ${WINS:-missing}  FAIL (floor $WINS_FLOOR)"
    FAILED=1
else
    echo "  drift: bandit_wins_vs_greedy = $WINS (floor $WINS_FLOOR)  ok"
fi
INVAR=$(scalar "$CURRENT9" "fleet_bandit_invariant")
if [ "$INVAR" != "true" ]; then
    echo "  drift: fleet_bandit_invariant = ${INVAR:-missing}  FAIL"
    FAILED=1
else
    echo "  drift: fleet_bandit_invariant = true  ok"
fi
RECOV=$(awk '
    /"post_rounds":/     { gsub(/[",]/, ""); p = $2 }
    /"recovery_rounds":/ { gsub(/[",]/, ""); if ($2 + 0 >= p + 0) bad++ }
    END { print bad + 0 }
' "$CURRENT9")
if [ "$RECOV" != "0" ]; then
    echo "  drift: $RECOV cells never recovered to SLO  FAIL"
    FAILED=1
else
    echo "  drift: every cell recovered to SLO  ok"
fi

# PR 10 sort surface: every field is a config echo or a simulated-domain
# result (totals, elision/covering counters, digests) except wall_ms, so
# the comparison is byte-exact after stripping wall_ms. On top of that
# the adoption and cost gates are re-checked from the current file: on
# the gated scenario every strategy's surface-on run must adopt >= 1
# surface index and beat its own surface-off (equality/range-only) total.
echo "bench check [PR10 $CURRENT10]: sort-surface fields, exact match (wall_ms ignored)"
if grep -v '"wall_ms":' "$CURRENT10" >/tmp/bench_current.$$ \
    && grep -v '"wall_ms":' "$BASELINE10" >/tmp/bench_baseline.$$ \
    && cmp -s /tmp/bench_current.$$ /tmp/bench_baseline.$$; then
    echo "  sort: all simulated fields byte-identical to baseline  ok"
else
    echo "  sort: simulated fields differ from baseline  FAIL"
    diff /tmp/bench_baseline.$$ /tmp/bench_current.$$ | head -20 || true
    FAILED=1
fi
rm -f /tmp/bench_current.$$ /tmp/bench_baseline.$$
SORT_GATES=$(awk '
    /"adopted_surface": \[\]/   { empty = 1 }
    /"adopted_surface": \[$/    { empty = 0 }
    /"scenario":/               { gsub(/[",]/, ""); scen = $2 }
    /"strategy":/               { gsub(/[",]/, ""); strat = $2 }
    /"surface":/                { gsub(/[",]/, ""); surf = $2 }
    /"total_sim_ms":/ {
        gsub(/[",]/, "")
        if (scen == "time_series") {
            if (surf == "true") { on[strat] = $2; if (empty) noadopt++ }
            else                { off[strat] = $2 }
        }
        empty = 0
    }
    END {
        worse = 0
        for (s in on) if (on[s] + 0 >= off[s] + 0) worse++
        printf "%d %d %d\n", length(on), noadopt + 0, worse
    }
' "$CURRENT10")
SORT_CELLS=${SORT_GATES%% *}
SORT_REST=${SORT_GATES#* }
SORT_NOADOPT=${SORT_REST%% *}
SORT_WORSE=${SORT_REST##* }
if [ "$SORT_CELLS" != "3" ]; then
    echo "  sort: found $SORT_CELLS gated surface-on cells (need 3)  FAIL"
    FAILED=1
elif [ "$SORT_NOADOPT" != "0" ] || [ "$SORT_WORSE" != "0" ]; then
    echo "  sort: $SORT_NOADOPT strategies adopted nothing, $SORT_WORSE failed the cost gate  FAIL"
    FAILED=1
else
    echo "  sort: every strategy adopted a surface index and beat equality/range-only  ok"
fi

if [ "$FAILED" -ne 0 ]; then
    echo "BENCH CHECK FAILED: throughput drifted outside ±${TOL}%, determinism broke," >&2
    echo "the front-end fast path regressed below ${FLOOR}x," >&2
    echo "or the fleet's deterministic fields / scaling floors regressed," >&2
    echo "or the drift matrix changed (regret/digests exact) or the bandit lost its win floor," >&2
    echo "or the sort-surface matrix changed (totals/digests exact) or its adoption/cost gates broke." >&2
    echo "If intentional: cp $CURRENT $BASELINE && cp $CURRENT6 $BASELINE6 && cp $CURRENT8 $BASELINE8 && cp $CURRENT9 $BASELINE9 && cp $CURRENT10 $BASELINE10" >&2
    exit 1
fi
echo "BENCH CHECK OK: all rows within ±${TOL}%, front end >= ${FLOOR}x, fleet deterministic and scaling (4w >= ${FLEET4}x, 8w >= ${FLEET8}x), drift matrix exact (bandit wins >= ${WINS_FLOOR}), sort surface exact with adoption + cost gates."
