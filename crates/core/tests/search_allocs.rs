//! Count-domain bound of an MCTS round: the search reuses its selection
//! path, its evaluation batch (rollouts written in place) and the batch's
//! bookkeeping from iteration to iteration, so what a round allocates
//! follows the configurations it prices — one copy of each into its L1
//! memo — plus the nodes it expands, and nothing per rollout step.
//!
//! The count is process-wide, so this is its own test binary with one
//! test: nothing else allocates while it counts.

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::{CandidateConfig, CandidateGenerator, DeltaPricer};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// most: the L1 copy, and each iteration's expanded node (its
/// configuration and the tree's key copy of it) spread over the round's
/// six evaluations per iteration — 1 065 calls for 731 configurations
/// over 122 iterations. Before the search reused its buffers the same
/// round made 2 631 (3.6 each).
const CALLS_PER_EVALUATION: f64 = 1.46;

#[test]
fn a_search_round_allocates_per_priced_configuration_not_per_rollout() {
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
        universe.intern(d);
    }
    let candidates =
        CandidateGenerator::new(CandidateConfig::default()).generate(&shapes, db.catalog(), &dba);
    for d in &candidates {
        universe.intern(d);
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
}
