//! Count-domain test of the serving loop as a whole: executing a statement
//! allocates nothing on any thread, so what a `serve` run allocates
//! follows its epochs and tasks, not its statements.
//!
//! The count is process-wide — the executors are threads of their own — so
//! this is its own test binary with one test: nothing else allocates while
//! it counts.

use autoindex_core::{serve, AutoIndex, AutoIndexConfig, DiagnosisConfig, ServeConfig};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::{tenant_catalog, tenant_dba_indexes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Every thread's allocator calls.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally is one atomic add and never
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

const EPOCHS: u64 = 4;
const SHARDS: u64 = 4;

/// Statement `i` of a stream cycling through six numeric templates — point
/// reads, a range read, a keyed update, an insert — over a fleet tenant's
/// tables, its literals drawn from `i`.
fn statement(i: u64) -> String {
    let k = i * 7 % 2_000 + 1;
    match i % 6 {
        0 => format!("SELECT acct_id, balance, status FROM account WHERE acct_id = {k}"),
        1 => format!("SELECT card_id, card_status FROM card WHERE card_id = {k} AND acct_id = {i}"),
        2 => format!("SELECT flow_id, amount FROM withdraw_flow WHERE acct_id = {k} AND ts > {i}"),
        3 => format!("UPDATE account SET balance = balance - {k} WHERE acct_id = {k}"),
        4 => format!(
            "SELECT fee_rate FROM fee_schedule WHERE acct_type = {} AND channel = 2",
            i % 6
        ),
        _ => format!(
            "INSERT INTO withdraw_flow (flow_id, acct_id, amount, ts) VALUES ({i}, {k}, 5.5, {i})"
        ),
    }
}

/// Allocator calls of one `serve` run over `EPOCHS` epochs of `per_epoch`
/// statements, on one executor, its advisor knowing the templates from the
/// start (the first publication compiles them) and its diagnosis never
/// asking for a round; and the statements it bound.
fn serve_run(per_epoch: u64) -> (u64, u64) {
    let queries: Vec<String> = (0..per_epoch * EPOCHS).map(statement).collect();
    let mut db = SimDb::with_metrics(
        tenant_catalog(3_000),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for def in tenant_dba_indexes() {
        db.create_index(def).unwrap();
    }
    let never = DiagnosisConfig {
        trigger_ratio: f64::INFINITY,
        missing_benefit_threshold: f64::INFINITY,
        ..DiagnosisConfig::default()
    };
    let mut advisor = AutoIndex::new(
        AutoIndexConfig {
            diagnosis: never,
            ..AutoIndexConfig::default()
        },
        NativeCostEstimator,
    );
    for sql in &queries[..12] {
        advisor.observe(sql, &db).unwrap();
    }
    let config = ServeConfig::builder()
        .workers(1)
        .shards(SHARDS)
        .epoch_interval(per_epoch)
        .build()
        .unwrap();
    let before = CALLS.load(Ordering::SeqCst);
    let out = serve(db, advisor, &queries, config).unwrap();
    let allocs = CALLS.load(Ordering::SeqCst) - before;
    let report = &out.report;
    assert_eq!(report.executed, per_epoch * EPOCHS);
    assert_eq!(report.tuning_rounds, 0);
    (allocs, report.fastpath_hits)
}

/// The same templates over the same epochs and tasks, at 2 000 and at
/// 4 000 statements per epoch: the larger run makes no more allocator calls
/// than the smaller but for what its larger batches add, and those are
/// sized once per task (`Engine::run_task`) and once per epoch (the
/// merge's slots) — at most one call each. (The two runs read 2 371 calls
/// each. While an outcome and its delta held vectors, the larger run made
/// 13 335 calls more: 1.7 per extra statement.)
#[test]
fn serving_allocates_per_epoch_not_per_statement() {
    // The first run pays for what a process does once (thread-local
    // scratch storage, lazily built statics).
    serve_run(500);
    let (small, small_hits) = serve_run(2_000);
    let (large, large_hits) = serve_run(4_000);
    assert_eq!((small_hits, large_hits), (2_000 * EPOCHS, 4_000 * EPOCHS));
    let batches = EPOCHS * (SHARDS + 1);
    assert!(
        large <= small + batches,
        "{large} allocator calls at 4 000 statements per epoch, {small} at 2 000: \
         more than the {batches} batch vectors can explain"
    );
}
