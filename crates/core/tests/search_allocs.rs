//! Count-domain bounds of a tuning round. The search reuses its selection
//! path, its evaluation batch (rollouts written in place), the batch's
//! bookkeeping and the buffer each expanded child is built in from
//! iteration to iteration; its L1 memo and the policy tree's index keep no
//! key copies. So what a search allocates follows the nodes it creates —
//! one copy of each one's configuration — and not the configurations it
//! prices, nor any rollout step. A universe holds its definitions shared,
//! so interning a round's definitions copies none of them.
//!
//! The count is process-wide, so this is its own test binary with one
//! test: nothing else allocates while it counts.

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::{CandidateConfig, CandidateGenerator, DeltaPricer};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::IndexDef;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

/// Every thread's allocator calls.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally is an atomic add and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls per priced configuration (L1 miss) of the round below, at
/// most: each iteration's created node (the one copy of its
/// configuration) spread over the round's six evaluations per iteration,
/// and the doubling growth of the L1 store, the tree and their indexes —
/// 222 calls for 731 configurations over 122 iterations (0.304 each).
/// While the L1 memo and the tree's index each kept a copy of every key
/// the same round made 1 059 (1.45 each), and before the search reused its
/// buffers 2 631 (3.6 each).
const CALLS_PER_EVALUATION: f64 = 0.32;

/// Heap calls per definition of interning the round's definitions, already
/// shared, into a fresh universe, at most: the universe's tables grow by
/// doubling and no definition is copied — 40 calls for 267 definitions
/// (0.150 each). Copying each one cost 3 + its column count: 1 237 calls
/// (4.63 each).
const CALLS_PER_INTERNED_DEFINITION: f64 = 0.25;

#[test]
fn a_round_allocates_per_created_node_not_per_priced_configuration_or_definition() {
    // The banking catalog under its 263 DBA indexes: configurations span
    // five words.
    let db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    let shapes: Vec<(QueryShape, u64)> = BankingGenerator::new(11)
        .generate_hybrid(40, 0.5)
        .into_iter()
        .map(|(_, q)| {
            let stmt = parse_statement(&q).expect("generated SQL parses");
            (QueryShape::extract(&stmt, db.catalog()), 1)
        })
        .collect();
    let dba = banking::dba_indexes();
    let mut universe = Universe::new();
    for d in &dba {
        universe.intern(d.clone());
    }
    let candidates =
        CandidateGenerator::new(CandidateConfig::default()).generate(&shapes, db.catalog(), &dba);
    for d in &candidates {
        universe.intern(d.clone());
    }
    universe.refresh_sizes(&db);
    let existing: ConfigSet = dba.iter().filter_map(|d| universe.slot(d)).collect();
    let (est, cache, keys) = (NativeCostEstimator, CostCache::new(), shape_keys(&shapes));
    let search = MctsSearch {
        universe: &universe,
        db: &db,
        config: MctsConfig {
            iterations: 200,
            seed: 7,
            ..MctsConfig::default()
        },
        budget: None,
        existing: existing.clone(),
        protected: ConfigSet::default(),
        start: existing,
    };
    let round = |counted: bool| {
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let mut pricer = DeltaPricer::new(&universe, &shapes, &keys, &db, &est, &cache, true);
        let before = CALLS.load(Ordering::Relaxed);
        let out = search.run(&mut tree, &mut pricer);
        let calls = CALLS.load(Ordering::Relaxed) - before;
        (out, if counted { calls } else { 0 })
    };
    // The first round fills the cost cache: the counted one, the same
    // round again, plans nothing, so what it allocates is the search's.
    let (warm, _) = round(false);
    let (out, calls) = round(true);
    assert_eq!(out.evaluations, warm.evaluations);
    assert!(out.iterations > 100 && out.evaluations > 5 * out.iterations);
    let per = calls as f64 / out.evaluations as f64;
    assert!(
        per <= CALLS_PER_EVALUATION,
        "{calls} heap calls for {} priced configurations ({per:.3} each) over {} iterations",
        out.evaluations,
        out.iterations
    );

    // The definitions as a round holds them: the database's own `Arc`s and
    // each candidate wrapped once.
    let shared: Vec<Arc<IndexDef>> = dba
        .iter()
        .chain(&candidates)
        .cloned()
        .map(Arc::new)
        .collect();
    let before = CALLS.load(Ordering::Relaxed);
    let mut fresh = Universe::new();
    for d in &shared {
        fresh.intern(Arc::clone(d));
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(fresh.len(), universe.len());
    let per = calls as f64 / shared.len() as f64;
    assert!(
        per <= CALLS_PER_INTERNED_DEFINITION,
        "{calls} heap calls to intern {} shared definitions ({per:.3} each)",
        shared.len()
    );
}
