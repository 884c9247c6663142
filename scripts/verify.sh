#!/usr/bin/env sh
# Tier-1 verification gate for autoindex-rs.
#
# The workspace is hermetic (zero external crates — see docs/BUILDING.md),
# so everything runs with --offline: a clean checkout must build, test and
# document without network access. Run from the repo root:
#
#   scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline --release (engine hand-off tests + allocation bounds incl. the zero-allocation fast path, a fed repeat statement and its re-fold: both guard optimised-build behaviour)"
cargo test -q --offline --release -p autoindex-core --lib engine::
cargo test -q --offline --release -p autoindex-core --test index_view_counts

echo "==> cargo test -q --offline --release (compiled templates: feed = its parse-path composition, maintained entries = a from-scratch build; filter_sel bits, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test live_frontend
cargo test -q --offline --release -p autoindex-core --lib fastpath::

echo "==> cargo test -q --offline --release (delta-cost evaluator vs its whole-workload oracle, relative-pricing, bitmap-pick, round- and boundary-pricing properties — a diagnosis = its two whole-workload re-plans, a kept term = its recomputation: float summation order and popcount/select paths, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test decomposed_equivalence
cargo test -q --offline --release -p autoindex-core --test proptests delta_cost_bitwise_equals_naive
cargo test -q --offline --release -p autoindex-core --lib -- delta:: mcts::
cargo test -q --offline --release -p autoindex-core --test round_pricing

echo "==> cargo test -q --offline --release (live execution = snapshot execution + absorb: the one execution core's float multiplication order, in the build that ships)"
cargo test -q --offline --release -p autoindex-storage --test proptests live_execution_equals_snapshot_execution_plus_absorb

echo "==> cargo test -q --offline --manifest-path perf/Cargo.toml (the wall-clock benchmark builds against these crates: 1/100-scale smoke, all five workloads)"
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "==> cargo doc --no-deps --offline --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> repro smoke (metrics snapshot must re-parse, core counters incl. estimator.cost_cache.hits non-zero; exits non-zero otherwise)"
cargo run --release --offline -p autoindex-bench --bin repro -- smoke

echo "==> docs link audit (every docs/*.md must be reachable from README.md)"
DOCS_MISSING=0
for f in docs/*.md; do
    if ! grep -q "$f" README.md; then
        echo "ERROR: $f is not linked from README.md" >&2
        DOCS_MISSING=1
    fi
done
if [ "$DOCS_MISSING" -ne 0 ]; then
    exit 1
fi

echo "==> external dependency check (cargo tree must be all autoindex-*)"
EXTERNAL=$(cargo tree --offline --workspace --prefix none -e normal,dev,build \
    | awk '{print $1}' | grep -v '^autoindex' | sort -u || true)
if [ -n "$EXTERNAL" ]; then
    echo "ERROR: external crates found in dependency tree:" >&2
    echo "$EXTERNAL" >&2
    exit 1
fi

echo "==> thread check (crates/core/src spawns threads in engine.rs, the executors, only: a tuning round prices on the thread that runs it)"
SPAWNS=$(grep -rlE 'thread::(scope|spawn)' crates/core/src | grep -v '^crates/core/src/engine\.rs$' || true)
if [ -n "$SPAWNS" ]; then
    echo "ERROR: thread::scope / thread::spawn outside crates/core/src/engine.rs:" >&2
    echo "$SPAWNS" >&2
    exit 1
fi

echo "==> pricing check (non-test crates/core/src: one whole-workload re-plan site — the pricer's oracle arm — one candidate generator, one term cache per advisor with one lifetime rule)"
# Product code is what precedes a file's #[cfg(test)] module.
product_hits() {
    for f in crates/core/src/*.rs; do
        awk -v pat="$1" '/^#\[cfg\(test\)\]/ { exit } index($0, pat) && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
    done
}
expect_hits() {
    HITS=$(product_hits "$1")
    COUNT=$(printf '%s' "$HITS" | grep -c . || true)
    if [ "$COUNT" -ne "$2" ]; then
        echo "ERROR: expected $2 product-code occurrence(s) of '$1' in crates/core/src, found $COUNT:" >&2
        echo "$HITS" >&2
        exit 1
    fi
}
expect_hits 'workload_cost(' 1
expect_hits 'CandidateGenerator::new(' 1
# The advisor's cache, and the advisor-less public `greedy::rank_candidates`.
expect_hits 'CostCache::new(' 2
for gone in catalog_version intersect_fingerprint '.dirty' '.invalidate('; do
    expect_hits "$gone" 0
done

echo "OK: build + tests + docs green, dependency tree is hermetic."
