#!/usr/bin/env sh
# Alternating parent/change pairs of the wall-clock benchmark: the protocol
# a performance claim has to pass (perf/README.md; on a shared 2-vCPU guest
# single runs differ by ±15 %, so one run of each side shows nothing).
#
#   scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN \
#       [--workload wide_serve|all] [--seed 2024] [--pairs 10] [--seconds 10]
#
# `--workload all` runs every workload of BENCHMARK.json in turn, each as
# below, and ends with one table of them all (workload x end-to-end metric:
# medians, wins, verdict; then each side's raw rate and host share per
# workload) — what a performance PR has to report.
#
# PARENT_BIN and CHANGE_BIN are `perf` binaries built once per side, each
# with its own CARGO_TARGET_DIR (the parent's from a `git archive` copy of
# the parent commit), and copied somewhere both survive:
#
#   CARGO_TARGET_DIR=/tmp/tgt cargo build --release --offline \
#       --manifest-path perf/Cargo.toml && cp /tmp/tgt/release/perf /tmp/perf_change
#
# Odd pairs run the parent first, even pairs the change first, so drift of
# the host falls on both sides alike. Every run is `--trace 0`. The script
# refuses to go on when a run fails its own checks or when the two sides'
# input or transcript digests differ (they were not offered the same
# traffic, or did not answer it the same way: not a pure performance
# change). It prints, per end-to-end metric, each side's median and
# quartiles, the pairs the change won (ties count for neither side), a
# verdict, and the operations that failed of those attempted:
#
#   gain       the change won at least nine tenths of the pairs and the
#              medians differ by more than the parent's own q1–q3 distance
#   identical  every run of both sides printed the same value
#   -          neither; see the bounds table below it
#
# then each side's median rate as measured and median host share — the
# calibration kernel is compiled into the binary under test, so two
# binaries can read the same host differently, which rescales stmts_per_s
# and setup_s together (docs/PERFORMANCE.md §"How a number is taken") —
# the value of the first metric pair by pair, and `perf check` over the
# two sides' medians: the benchmark's own regression bounds.
set -eu

usage() {
    sed -n '2,14p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
PARENT=$1
CHANGE=$2
shift 2
WORKLOAD=wide_serve
SEED=2024
PAIRS=10
SECONDS_PER_RUN=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) WORKLOAD=$2 ;;
        --seed) SEED=$2 ;;
        --pairs) PAIRS=$2 ;;
        --seconds) SECONDS_PER_RUN=$2 ;;
        *) usage ;;
    esac
    shift 2
done
for bin in "$PARENT" "$CHANGE"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done
PARENT=$(cd "$(dirname "$PARENT")" && pwd)/$(basename "$PARENT")
CHANGE=$(cd "$(dirname "$CHANGE")" && pwd)/$(basename "$CHANGE")
ROOT=$(cd "$(dirname "$0")/.." && pwd)

if [ "$WORKLOAD" = all ]; then
    SELF=$(cd "$(dirname "$0")" && pwd)/$(basename "$0")
    WORKLOADS=$(awk '/"workloads"/ { on = 1; next } /^ *\]/ { on = 0 } on' "$ROOT/BENCHMARK.json" \
        | sed -n 's/.*"name": "\([^"]*\)".*/\1/p')
    [ -n "$WORKLOADS" ] || { echo "no workloads in BENCHMARK.json" >&2; exit 2; }
    ALL=$(mktemp -d)
    trap 'rm -rf "$ALL"' EXIT INT TERM
    for w in $WORKLOADS; do
        "$SELF" "$PARENT" "$CHANGE" --workload "$w" --seed "$SEED" --pairs "$PAIRS" \
            --seconds "$SECONDS_PER_RUN" > "$ALL/$w.out" || { cat "$ALL/$w.out"; exit 1; }
        cat "$ALL/$w.out"
        echo
    done
    echo "all workloads, seed $SEED: $PAIRS pairs x $SECONDS_PER_RUN s each (medians; ratio is change / parent)"
    printf '%-16s %-16s %12s %12s %7s %6s  %s\n' workload metric "parent med" "change med" ratio wins verdict
    for w in $WORKLOADS; do
        # Metric rows: name, parent median q1 - q3, change median q1 - q3, wins, verdict.
        awk -v w="$w" '$3 ~ /^[-+0-9.e]+$/ && $4 == "-" && $8 == "-" {
            verdict = $11; for (i = 12; i <= NF; i++) verdict = verdict " " $i
            printf "%-16s %-16s %12.6g %12.6g %7.3f %6s  %s\n", w, $1, $2, $6, ($2 != 0 ? $6 / $2 : 0), $10, verdict
        }' "$ALL/$w.out"
    done
    echo
    printf '%-16s %25s %25s\n' workload "parent stmts/s @ share" "change stmts/s @ share"
    for w in $WORKLOADS; do
        awk -v w="$w" '/: median .* stmts\/s at host share/ { side[++n] = $(NF - 5) " @ " $NF }
            END { printf "%-16s %25s %25s\n", w, side[1], side[2] }' "$ALL/$w.out"
    done
    exit 0
fi

# Metric names and directions come from the benchmark's contract.
METRICS=$(awk '/"end_to_end"/ { on = 1; next } /^ *\]/ { on = 0 } on' "$ROOT/BENCHMARK.json" \
    | sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1:\2/p')
[ -n "$METRICS" ] || { echo "no end_to_end metrics in BENCHMARK.json" >&2; exit 2; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM
cd "$WORK"

# run SIDE BIN PAIR: one run; appends "PAIR VALUE" to SIDE.METRIC per metric.
run() {
    side=$1
    bin=$2
    pair=$3
    if ! "$bin" --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 \
        > run.out 2> run.err; then
        cat run.out run.err >&2
        echo "pair $pair: the $side run failed" >&2
        exit 1
    fi
    # "<workload> seed N scale 1: input <hex> transcript <hex>, ..."
    digests=$(sed -n 's/.*: input \([0-9a-f]*\) transcript \([0-9a-f]*\),.*/\1 \2/p' run.out | head -n 1)
    [ -n "$digests" ] || { echo "pair $pair: no digest line from the $side run" >&2; exit 1; }
    echo "$digests" >> "$side.digests"
    # "  as measured (wall): N stmts/s at S of the reference host speed; ..."
    raw=$(sed -n 's/.*as measured (wall): \([0-9.]*\) stmts\/s at \([0-9.]*\) of the reference.*/\1 \2/p' run.out | head -n 1)
    [ -n "$raw" ] || { echo "pair $pair: no as-measured line from the $side run" >&2; exit 1; }
    echo "$pair $raw" >> "$side.raw"
    result=$(tail -n 1 run.out)
    # {"attempted":N,"correct":true,"failed":N,"metrics":{...}}
    printf '%s\n' "$result" \
        | sed -n 's/.*"attempted":\([0-9]*\),.*"failed":\([0-9]*\),.*/\1 \2/p' >> "$side.attempted"
    for m in $METRICS; do
        name=${m%%:*}
        value=$(printf '%s\n' "$result" \
            | sed -n "s/.*\"$name\":{\"unit\":\"[^\"]*\",\"value\":\([-+0-9.eE]*\)}.*/\1/p")
        [ -n "$value" ] || { echo "pair $pair: no $name in the $side result line" >&2; exit 1; }
        echo "$pair $value" >> "$side.$name"
    done
    first=${METRICS%%:*}
    printf '  pair %2d %-6s %s = %s\n' "$pair" "$side" "$first" "$(tail -n 1 "$side.$first" | cut -d' ' -f2)" >&2
}

echo "$PAIRS alternating pairs of $WORKLOAD, seed $SEED, $SECONDS_PER_RUN s per run" >&2
pair=1
while [ "$pair" -le "$PAIRS" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$PARENT" "$pair"
        run change "$CHANGE" "$pair"
    else
        run change "$CHANGE" "$pair"
        run parent "$PARENT" "$pair"
    fi
    pair=$((pair + 1))
done

if [ "$(sort -u parent.digests change.digests | wc -l)" -ne 1 ]; then
    echo "input/transcript digests differ between runs:" >&2
    sort parent.digests | uniq -c | sed 's/^/  parent /' >&2
    sort change.digests | uniq -c | sed 's/^/  change /' >&2
    echo "not the same traffic, or not the same answers: nothing to compare" >&2
    exit 1
fi
read -r INPUT TRANSCRIPT < parent.digests

echo
echo "$WORKLOAD seed $SEED: $PAIRS pairs x $SECONDS_PER_RUN s, input $INPUT transcript $TRANSCRIPT (both sides, every run)"
printf '%-16s %12s %25s %12s %25s %6s  %s\n' \
    metric "parent med" "q1 - q3" "change med" "q1 - q3" wins verdict
for m in $METRICS; do
    name=${m%%:*}
    better=${m##*:}
    # Writes "<median> <spread>" per side for the result files below.
    awk -v name="$name" -v better="$better" -v pairs="$PAIRS" '
        function quantile(v, n, p,    h, lo) {
            h = (n - 1) * p; lo = int(h)
            return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        FNR == NR { p[$1] = $2; next }
        { c[$1] = $2 }
        END {
            same = 1
            for (i = 1; i <= pairs; i++) {
                if (c[i] != p[i] || p[i] != p[1]) same = 0
                if (better == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
            }
            sorted(p, ps, pairs); sorted(c, cs, pairs)
            pm = quantile(ps, pairs, 0.5); p1 = quantile(ps, pairs, 0.25); p3 = quantile(ps, pairs, 0.75)
            cm = quantile(cs, pairs, 0.5); c1 = quantile(cs, pairs, 0.25); c3 = quantile(cs, pairs, 0.75)
            improved = better == "higher" ? cm > pm : cm < pm
            gap = cm > pm ? cm - pm : pm - cm
            verdict = "-"
            if (same) verdict = "identical"
            else if (improved && wins * 10 >= pairs * 9 && gap > p3 - p1)
                verdict = sprintf("gain (x%.2f)", better == "higher" ? cm / pm : pm / cm)
            printf "%-16s %12.6g %12.6g - %-10.6g %12.6g %12.6g - %-10.6g %3d/%-2d  %s\n",
                name, pm, p1, p3, cm, c1, c3, wins, pairs, verdict
            printf "%.17g %.17g\n", pm, (pm > 0 ? (p3 - p1) / pm : 0) > ("parent.median." name)
            printf "%.17g %.17g\n", cm, (cm > 0 ? (c3 - c1) / cm : 0) > ("change.median." name)
        }' "parent.$name" "change.$name"
done

for side in parent change; do
    awk -v side="$side" '{ a += $1; f += $2 } END { printf "%-16s %s: %d of %d\n", side == "parent" ? "failed" : "", side, f, a }' "$side.attempted"
done

# Unscaled: what the host did, and what the binary's own calibration
# kernel made of the host. A share that differs between the sides with
# level raw rates is the kernel's code placement, not the change.
# median_of FILE FIELD
median_of() {
    cut -d' ' -f"$2" "$1" | sort -n \
        | awk '{ v[NR] = $1 } END { print NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
echo
for side in parent change; do
    printf '%-16s %s: median %s stmts/s at host share %s\n' \
        "$([ "$side" = parent ] && echo 'as measured')" "$side" \
        "$(median_of "$side.raw" 2)" "$(median_of "$side.raw" 3)"
done

first=${METRICS%%:*}
echo
echo "$first, pair by pair (parent -> change, scaled; then as measured and host share; odd pairs ran the parent first):"
paste -d' ' "parent.$first" "change.$first" parent.raw change.raw \
    | awk '{ printf "  %2d: %.6g -> %.6g (x%.2f)   raw %d -> %d (x%.2f)   share %s -> %s\n",
             $1, $2, $4, ($2 > 0 ? $4 / $2 : 0), $6, $9, ($6 > 0 ? $9 / $6 : 0), $7, $10 }'

# The benchmark's own bounds, applied to the medians by `perf check`.
result_file() {
    side=$1
    {
        printf '{"workloads":{"%s":{"input_digest":"%s","end_to_end":{' "$WORKLOAD" "$INPUT"
        sep=
        for m in $METRICS; do
            name=${m%%:*}
            read -r median _ < "$side.median.$name"
            printf '%s"%s":{"value":%s}' "$sep" "$name" "$median"
            sep=,
        done
        printf '},"spread":{'
        sep=
        for m in $METRICS; do
            name=${m%%:*}
            read -r _ spread < "$side.median.$name"
            printf '%s"%s":%s' "$sep" "$name" "$spread"
            sep=,
        done
        printf '}}}}\n'
    } > "$side.json"
}
result_file parent
result_file change
echo
echo "perf check (medians against the benchmark's regression bounds):"
"$CHANGE" check parent.json change.json
