#!/usr/bin/env sh
# Tier-1 verification gate for autoindex-rs.
#
# The workspace is hermetic (zero external crates — see docs/BUILDING.md),
# so everything runs with --offline: a clean checkout must build, test and
# document without network access. Run from the repo root:
#
#   scripts/verify.sh          # the whole gate, line counts first
#   scripts/verify.sh lines    # the tracked line counts alone
set -eu

cd "$(dirname "$0")/.."

# Non-blank lines in five groups. A crates/*/src or src file (bins included)
# is product code up to its first line that starts with #[cfg(test)] and
# unit test from there on: the rule product_hits below uses, since a file's
# test module is its last item. Integration tests are crates/*/tests and
# tests; docs are docs/*.md plus README.md, DESIGN.md and EXPERIMENTS.md.
lines() {
    echo "==> lines (non-blank; product / unit test = crates/*/src + src cut at the first top-level #[cfg(test)])"
    find crates/*/src src -name '*.rs' -exec awk '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        NF { if (test) unit++; else product++ }
        END { printf "product             %6d\nunit test           %6d\n", product, unit }' {} +
    count() { cat "$@" | awk 'NF { n++ } END { print n + 0 }'; }
    printf 'integration test    %6d\n' "$(count $(find crates/*/tests tests -name '*.rs' | sort))"
    printf 'benches + examples  %6d\n' "$(count $(find crates/*/benches examples -name '*.rs' | sort))"
    printf 'docs                %6d\n' "$(count docs/*.md README.md DESIGN.md EXPERIMENTS.md)"
}
lines
[ "${1:-}" = lines ] && exit 0

echo "==> cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline --release (engine hand-off tests + a_publication_carries_the_plans_whose_tables_and_indexes_held: a publication takes the plans of the one before it whose tables and indexes held, and only those; a_late_template_keeps_its_frame_past_its_epoch: a serve run builds each template's frame once and clones it once per worker; allocation bounds incl. zero-allocation execution planned and prepared, the zero-allocation fast path, a fed repeat statement and its re-fold, an INSERT under kept plans copying no table, kept plans bounded by the template store, a serve run allocating per epoch, not per statement, string literals included, a fleet of one schema building one frame per template text: both guard optimised-build behaviour)"
cargo test -q --offline --release -p autoindex-core --lib engine::
cargo test -q --offline --release -p autoindex-core --test serving a_late_template_keeps_its_frame_past_its_epoch
cargo test -q --offline --release -p autoindex-core --test index_view_counts
cargo test -q --offline --release -p autoindex-core --test serving_allocs
cargo test -q --offline --release -p autoindex-core --test fleet_allocs

echo "==> cargo test -q --offline --release (compiled templates: feed = its parse-path composition, feed = the digest of its outcome streams recorded before the live database kept plans, maintained entries = a from-scratch build, random AND / OR predicate trees bound = parsed and extracted, before and after a re-fold; filter_sel bits, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test live_frontend
cargo test -q --offline --release -p autoindex-core --test online_golden
cargo test -q --offline --release -p autoindex-core --lib fastpath::

echo "==> cargo test -q --offline --release (delta-cost evaluator vs its whole-workload oracle, relative-pricing, bitmap-pick, round- and boundary-pricing properties — a diagnosis = its two whole-workload re-plans, a kept term = its recomputation: float summation order and popcount/select paths, in the build that ships)"
cargo test -q --offline --release -p autoindex-core --test decomposed_equivalence
cargo test -q --offline --release -p autoindex-core --test proptests delta_cost_bitwise_equals_naive
cargo test -q --offline --release -p autoindex-core --lib -- delta:: mcts::
cargo test -q --offline --release -p autoindex-core --test round_pricing

echo "==> cargo test -q --offline --release (the search: a grid of MCTS and advisor rounds over the banking catalog under 263 DBA indexes = the digest recorded before the search reused its buffers; a fixed round makes at most 0.32 heap calls per priced configuration and interns its shared definitions without copying them, its own binary: the count is process-wide)"
cargo test -q --offline --release -p autoindex-core --test search_golden
cargo test -q --offline --release -p autoindex-core --test search_allocs

echo "==> cargo test -q --offline --release (the miss path: extraction of the fixed corpus = two digests, its shapes recorded while three evaluators folded filter_sel, its traces re-recorded when a trace became its factors' predicates and atoms; parse / extract / observe allocator calls ride in index_view_counts above)"
cargo test -q --offline --release -p autoindex-storage --test extraction_golden

echo "==> cargo test -q --offline --release (the front end: scan_fingerprint and fingerprint over a fixed corpus and its byte-mutated copies = the digest recorded on the byte-level scanner; the lexer inlined into the walk, in the build that ships)"
cargo test -q --offline --release -p autoindex-sql --test fingerprint_golden

echo "==> cargo test -q --offline --release (serving: a grid of serve and serve_fleet runs at 1 and 3 workers = the digest recorded on the two drivers before their loops were merged)"
cargo test -q --offline --release -p autoindex-core --test serving_golden

echo "==> cargo test -q --offline --release (live execution = snapshot execution + absorb: the one execution core's float multiplication order, in the build that ships)"
cargo test -q --offline --release -p autoindex-storage --test proptests live_execution_equals_snapshot_execution_plus_absorb

echo "==> cargo test -q --offline --release (prepared pricing = planning: a plan prepared from one binding prices another as the one-pass planner did — golden digest recorded before the split — and as planning it from scratch does; every operand order, in the build that ships)"
cargo test -q --offline --release -p autoindex-storage --test proptests prepared_pricing

echo "==> cargo test -q --offline --release (kept = planned under change: a database pricing bound statements through its kept plans = its twin planning every statement, across growth and DDL, in the build that ships)"
cargo test -q --offline --release -p autoindex-storage --test proptests kept_plan_execution_equals_planned_execution_under_change

echo "==> cargo test -q --offline --release (carried = prepared under change: wherever DbSnapshot::agrees_on says a later snapshot agrees with the one a plan was prepared on, the plan prices every binding as the later snapshot's own plan does, across growth and DDL, in the build that ships)"
cargo test -q --offline --release -p autoindex-storage --test proptests a_plan_carried_where_snapshots_agree_prices_as_a_fresh_one

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

echo "==> unsafe check (no unsafe block, fn, impl or trait under crates/*/src or src: every lib.rs forbids it, this covers the bins too; tests keep theirs — index_view_counts.rs's counting allocator)"
UNSAFE=$(grep -rnE 'unsafe +(\{|fn|impl|trait)' crates/*/src src || true)
if [ -n "$UNSAFE" ]; then
    echo "ERROR: unsafe in product code:" >&2
    echo "$UNSAFE" >&2
    exit 1
fi

# Product code is what precedes a file's #[cfg(test)] module. Patterns are
# literal substrings; comment lines do not count. A path is a file or a
# directory (its *.rs files).
product_hits() {
    PAT=$1
    shift
    for path in "$@"; do
        for f in "$path" "$path"/*.rs; do
            [ -f "$f" ] || continue
            awk -v pat="$PAT" '/^#\[cfg\(test\)\]/ { exit } index($0, pat) && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
        done
    done
}
# expect_hits PATTERN COUNT PATH...
expect_hits() {
    PAT=$1
    WANT=$2
    shift 2
    HITS=$(product_hits "$PAT" "$@")
    COUNT=$(printf '%s' "$HITS" | grep -c . || true)
    if [ "$COUNT" -ne "$WANT" ]; then
        echo "ERROR: expected $WANT product-code occurrence(s) of '$PAT' in $*, found $COUNT:" >&2
        echo "$HITS" >&2
        exit 1
    fi
}

# absent PATTERN PATH...: no line of the files (or, recursively, directories)
# matches, tests and comments included.
absent() {
    PAT=$1
    shift
    if grep -rn -- "$PAT" "$@"; then
        echo "ERROR: '$PAT' in $*" >&2
        exit 1
    fi
}

echo "==> pricing check (non-test crates/core/src: one whole-workload re-plan site — the pricer's oracle arm — one candidate generator, one term cache per advisor with one lifetime rule, one place its pricers are made; Greedy is a strategy, not a second pipeline)"
expect_hits 'workload_cost(' 1 crates/core/src
expect_hits 'CandidateGenerator::new(' 1 crates/core/src
expect_hits 'CostCache::new(' 1 crates/core/src
expect_hits 'DeltaPricer::new(' 1 crates/core/src
for gone in catalog_version intersect_fingerprint '.dirty' '.invalidate('; do
    expect_hits "$gone" 0 crates/core/src
done

echo "==> miss-path check (non-test code: tokens borrow the text and are never cloned or collected, keywords come from keyword_match, extraction keeps no map)"
# `TokenKind` is `Copy`: clippy's `clone_on_copy` catches a clone these
# one-line patterns miss.
for gone in to_ascii_uppercase 'peek().clone()' 'kind.clone()' 'KEYWORDS.contains'; do
    expect_hits "$gone" 0 crates/sql/src/lexer.rs crates/sql/src/parser.rs
done
expect_hits 'Lexer::tokenize(' 0 crates/sql/src crates/core/src
expect_hits 'HashMap' 0 crates/storage/src/shape.rs

echo "==> one-tokenizer check (non-test crates/sql/src/fingerprint.rs: no byte-level lexing, one walk over the lexer under fingerprint and scan_fingerprint)"
expect_hits 'bytes.get(' 0 crates/sql/src/fingerprint.rs
expect_hits 'Lexer::new(' 1 crates/sql/src/fingerprint.rs

echo "==> execution check (non-test crates/storage/src/db.rs: no second planning pass — the no-index baseline comes back from the pricing of the plan)"
expect_hits 'unindexed_cost(' 0 crates/storage/src/db.rs

echo "==> allocation check (crates/storage/src: ExecOutcome and UsageDelta declare no Vec field — what executing a statement returns sits inline or is shared)"
for s in 'pub struct ExecOutcome' 'pub struct UsageDelta'; do
    FIELDS=$(awk -v s="$s" 'index($0, s) { on = 1 } on && index($0, "Vec<") { print FILENAME ":" FNR ": " $0 } on && /^}/ { on = 0 }' crates/storage/src/*.rs)
    if [ -n "$FIELDS" ]; then
        echo "ERROR: $s declares a Vec field:" >&2
        echo "$FIELDS" >&2
        exit 1
    fi
done

echo "==> live-plan check (non-test code: feed plans from scratch only in its parsed arm and prices a bound statement through the database's kept plan; the live database prepares in two places, the scratch composition and the kept plan)"
expect_hits 'execute_shape(' 1 crates/core/src/online.rs
expect_hits 'execute_bound(' 1 crates/core/src/online.rs
expect_hits 'prepare_into(' 2 crates/storage/src/db.rs

echo "==> serving check (non-test crates/core/src: one epoch loop — one engine, one coordinator-panic name, one validation and counter prefix; one tuning round, defined in session.rs and called by the serving loop's LaneState::visit and OnlineAutoIndex::feed; one rollback type, guard.rs's, the payload of every rollback variant; one cooldown rule)"
expect_hits 'Engine::new(' 1 crates/core/src
expect_hits 'fn tuning_round' 1 crates/core/src
expect_hits 'fn tuning_round' 1 crates/core/src/session.rs
expect_hits 'tuning_round(' 2 crates/core/src
for f in serve online; do
    expect_hits 'tuning_round(' 1 "crates/core/src/$f.rs"
done
expect_hits 'enum RollbackReason' 1 crates/core/src
expect_hits 'enum RollbackReason' 1 crates/core/src/guard.rs
expect_hits 'RolledBack {' 0 crates/core/src
expect_hits 'tuning_cooldown_over(' 1 crates/core/src/online.rs
for gone in fleet.tuner '"serve.fleet.' '"fleet.shards'; do
    expect_hits "$gone" 0 crates/core/src
done

echo "==> duplicate check (no FleetReport alias under crates/ or src/, tests included; one FNV-1a prime in non-test crates/*/src)"
absent FleetReport crates src
expect_hits '0100_0000_01b3' 1 $(find crates/*/src -name '*.rs')

echo "==> partition check (crates/core/src/engine.rs, tests included: a task is a contiguous run of its slice, no statement is hashed to a shard; crates/core/src/serve.rs: no seed knob)"
for gone in shard_of SHARD_SALT derive_seed; do
    absent "$gone" crates/core/src/engine.rs
done
absent 'pub seed' crates/core/src/serve.rs

echo "==> streaming check (crates/core/src/engine.rs, tests included: the coordinator passes each lane's runs on in seq order and holds no epoch of slots; a worker's skeleton clones outlive every publication that keeps their frame, and a late template's clones outlive its epoch)"
absent EpochMerge crates/core/src/engine.rs
absent 'clones.clear()' crates/core/src/engine.rs

echo "==> boundary check (crates/core/src, tests included: the candidate merge sorts on kept keys and renders none in a comparator; a boundary's workload shares the templates' shapes, copies none)"
absent 'd.key())\|a.key()' crates/core/src/candgen.rs
absent 'e.shape.clone()' crates/core/src/templates.rs

echo "==> selectivity check (one AND / OR / NOT selectivity fold, storage::shape::fold_factor, which extraction and the compiled templates both walk; crates/ src/, tests included: no factor tree, no second walk, no postfix program)"
expect_hits 'fn fold_factor' 1 crates/*/src
for gone in SelTree sel_for_table sel_tree_for_table SelOp eval_into; do
    absent "$gone" crates src
done

echo "==> fingerprint check (one index-set fingerprint: IndexView's, kept by DDL from storage::planner::fingerprint_share — what a serve transcript prints and a guard rollback reports; non-test crates/core/src hashes with no DefaultHasher, whose output std does not pin; serve keeps no universe to print it)"
expect_hits 'DefaultHasher' 0 crates/core/src
expect_hits 'fn fingerprint_share' 1 crates/*/src
expect_hits 'fn config_fingerprint' 0 crates/*/src
expect_hits 'Universe' 0 crates/core/src/serve.rs

echo "==> round check (a tuning round is the value it returns: crates/core/src, tests included, keeps no copy of the last round in the advisor and system.rs neither applies nor reports; non-test crates/core/src writes TuningReport { three times — the struct, its impl and the one assembly, in session.rs; crates/storage/src, tests included: the calibration knobs no caller set are constants)"
for gone in last_round last_tree_nodes last_arms; do
    absent "$gone" crates/core/src
done
for gone in 'fn apply_unguarded' 'fn report_from_parts'; do
    absent "$gone" crates/core/src/system.rs
done
expect_hits 'TuningReport {' 3 crates/core/src
expect_hits 'TuningReport {' 1 crates/core/src/session.rs
for gone in true_weights memory_pressure_factor ms_per_cost_unit build_ms_per_entry slow_build_factor latency_spike_factor stale_distortion; do
    absent "$gone" crates/storage/src
done

echo "==> guard check (non-test code: a one-shot guarded apply is guard::apply_atomically, so only the online loop, which measures after an apply, makes a Guard; drop-then-create lives in guard.rs, not session.rs; the two one-value guard knobs are constants; the engine's hand-off is a rendezvous, with no channel bound)"
expect_hits 'Guard::new(' 1 crates/*/src crates/*/src/bin
expect_hits 'Guard::new(' 1 crates/core/src/online.rs
absent 'fn apply_unguarded' crates/core/src/session.rs
for gone in cooldown_factor shadow_min_improvement CHANNEL_CAPACITY; do
    expect_hits "$gone" 0 crates/core/src
done

echo "==> greedy check (crates/ src/ examples/ tests/, tests included: the advisor-less Greedy pipeline is gone — the paper harness runs StrategyKind::Greedy through a session)"
for gone in greedy_select rank_candidates GreedyConfig; do
    absent "$gone" crates src examples tests
done

echo "==> config check (a configuration is its fields plus one validate: no config builder in crates/*/src but serve's ConfigBuilder<Site>, which perf/ drives; no re-validation shim; no statistics table or name interner under crates/)"
absent 'struct \w\w*ConfigBuilder' crates/*/src
for gone in builder_from GuardConfigInner; do
    absent "$gone" crates src examples tests
done
for gone in Interner ColumnarStats; do
    absent "$gone" crates
done

echo "OK: build + tests + docs green, dependency tree is hermetic."
