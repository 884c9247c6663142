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

echo "==> cargo test -q --offline --release (delta-cost evaluator vs its whole-workload oracle, relative-pricing, bitmap-pick and round-pricing properties: float summation order and popcount/select paths, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test decomposed_equivalence
cargo test -q --offline --release -p autoindex-core --test proptests delta_cost_bitwise_equals_naive
cargo test -q --offline --release -p autoindex-core --lib -- delta:: mcts::
cargo test -q --offline --release -p autoindex-core --test round_pricing -- ranking_and_arms_through_the_pricer_equal_the_naive_ranking a_greedy_or_bandit_round_between_two_mcts_rounds_changes_nothing

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

echo "OK: build + tests + docs green, dependency tree is hermetic."
