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

echo "==> cargo test -q --offline --release (engine hand-off tests + allocation bound: both guard optimised-build behaviour)"
cargo test -q --offline --release -p autoindex-core --lib engine::
cargo test -q --offline --release -p autoindex-core --test index_view_counts

echo "==> cargo test -q --offline --release (delta-cost evaluator vs its whole-workload oracle, relative-pricing and bitmap-pick properties: float summation order and popcount/select paths, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test decomposed_equivalence
cargo test -q --offline --release -p autoindex-core --test proptests delta_cost_bitwise_equals_naive
cargo test -q --offline --release -p autoindex-core --lib -- delta:: mcts::

echo "==> cargo test -q --offline --manifest-path perf/Cargo.toml (the wall-clock benchmark builds against these crates: 1/100-scale smoke, all five workloads)"
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "==> cargo doc --no-deps --offline --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> metrics smoke-check (repro smoke: snapshot must re-parse, core counters non-zero)"
SMOKE_OUT=$(cargo run --release --offline -p autoindex-bench --bin repro -- smoke)
printf '%s\n' "$SMOKE_OUT"

echo "==> perf smoke-check (decomposed delta-cost engine must actually share terms)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'estimator\.cost_cache\.hits' | grep -q 'ok'; then
    echo "ERROR: estimator.cost_cache.hits is zero — the delta-cost cache is not engaged" >&2
    exit 1
fi

echo "==> fault-injection smoke-check (guarded apply: clean at 0% faults, rollbacks at 20%)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'guard\.rollbacks \(fault 0%\)' | grep -q 'ok'; then
    echo "ERROR: guarded apply rolled back without faults (must be zero rollbacks at 0%)" >&2
    exit 1
fi
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'guard\.rollbacks \(fault 20%\)' | grep -q 'ok'; then
    echo "ERROR: no guard rollback observed at a 20% fault rate" >&2
    exit 1
fi

echo "==> serve determinism smoke-check (1-worker vs 4-worker transcripts byte-identical)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'serve\.determinism' | grep -q 'ok'; then
    echo "ERROR: deterministic serve transcripts differ between 1 and 4 workers" >&2
    exit 1
fi

echo "==> fast-path smoke-check (compiled-template fast path must engage on the banking stream)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'serve\.fastpath\.hits' | grep -q 'ok'; then
    echo "ERROR: template fast-path hit count is zero (or not worker-count invariant)" >&2
    exit 1
fi

echo "==> fleet determinism smoke-check (multi-tenant digests byte-identical, admission engaged)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'serve\.fleet\.determinism' | grep -q 'ok'; then
    echo "ERROR: multi-tenant fleet transcript digest differs between 1 and 4 workers" >&2
    exit 1
fi
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'serve\.admission ' | grep -q 'ok'; then
    echo "ERROR: fleet admission control did not engage (or shed a protected tenant)" >&2
    exit 1
fi

echo "==> drift regret smoke-check (bandit cumulative regret <= greedy on flash crowd)"
if ! printf '%s\n' "$SMOKE_OUT" | grep -E 'tuner\.drift\.regret' | grep -q 'ok'; then
    echo "ERROR: bandit cumulative regret exceeds greedy on the flash-crowd drift scenario" >&2
    exit 1
fi

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

echo "OK: build + tests + docs green, dependency tree is hermetic."
