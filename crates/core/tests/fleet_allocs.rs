//! Count-domain test of what a fleet of tenants of one schema compiles: a
//! template's frame (skeleton, slot writes, guards, selectivity trace) is a
//! function of its text and the schema, so a `serve_fleet` run builds one
//! frame per distinct text, folds it once per tenant, and each executor
//! keeps one skeleton clone per frame, whichever tenants bind into it.
//!
//! The counts are process-wide — the executors are threads of their own —
//! so this is its own test binary with one test: nothing else allocates
//! while it counts.

use autoindex_core::{
    serve_fleet, AutoIndex, AutoIndexConfig, DiagnosisConfig, FleetConfig, FleetTenant, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::fleet_workload;
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

const TENANTS: usize = 64;
const STATEMENTS: usize = 512;
/// Statements each tenant's advisor has seen before the run: every
/// template of the stream, so the first publication compiles them all.
const PREWARM: usize = 256;
const WORKERS: usize = 2;

/// The fleet `perf`'s `fleet_oltp` serves, at an eighth of its statements,
/// its advisors never asking for a round: the counters and allocator calls
/// of one `serve_fleet` call, its statements and their distinct template
/// texts.
fn fleet_run() -> (MetricsRegistry, u64, u64, usize) {
    let never = DiagnosisConfig {
        trigger_ratio: f64::INFINITY,
        missing_benefit_threshold: f64::INFINITY,
        ..DiagnosisConfig::default()
    };
    let workloads = fleet_workload(TENANTS, STATEMENTS, 2024);
    let mut texts: Vec<String> = workloads
        .iter()
        .flat_map(|w| &w.queries)
        .map(|sql| fingerprint(sql).unwrap().text)
        .collect();
    texts.sort_unstable();
    texts.dedup();
    let tenants: Vec<FleetTenant<NativeCostEstimator>> = workloads
        .into_iter()
        .map(|w| {
            let cfg = SimDbConfig {
                seed: w.seed,
                ..SimDbConfig::default()
            };
            let mut db = SimDb::with_metrics(w.catalog, cfg, MetricsRegistry::new());
            for def in w.dba_indexes {
                db.create_index(def).unwrap();
            }
            let config = AutoIndexConfig {
                diagnosis: never.clone(),
                ..AutoIndexConfig::default()
            };
            let mut advisor = AutoIndex::new(config, NativeCostEstimator);
            for sql in &w.queries[..PREWARM] {
                advisor.observe(sql, &db).unwrap();
            }
            FleetTenant {
                spec: TenantSpec {
                    name: w.name,
                    priority: w.priority,
                    slo_p50_ms: w.slo_p50_ms,
                    slo_p99_ms: w.slo_p99_ms,
                },
                db,
                advisor,
                queries: Arc::new(w.queries),
            }
        })
        .collect();
    let config = FleetConfig::builder()
        .workers(WORKERS)
        .shards(4)
        .epoch_interval(STATEMENTS as u64 / 2)
        .build()
        .unwrap();
    let before = CALLS.load(Ordering::SeqCst);
    let out = serve_fleet(tenants, config).unwrap();
    let calls = CALLS.load(Ordering::SeqCst) - before;
    let report = &out.report;
    assert_eq!(report.executed, (TENANTS * STATEMENTS) as u64);
    assert_eq!(report.tuning_rounds, 0);
    (out.metrics, calls, report.executed, texts.len())
}

/// Allocator calls that bound each part of the run, each above what it
/// measured on this fleet: everything but the template path — snapshots,
/// publications, runs, observation — 2.5 per statement; a frame's parse
/// and traced extraction 86 beyond its fold; a fold 3.8; a skeleton
/// clone 18.5.
const PER_STATEMENT: u64 = 3;
const PER_FRAME: u64 = 96;
const PER_FOLD: u64 = 8;
const PER_CLONE: u64 = 24;

/// 64 tenants of one schema: one frame per distinct template text (the
/// run read 768, one per tenant and text, while each tenant built its
/// own), one shared fold per other tenant and text, at most one clone per
/// worker and frame (1 383 while a worker kept them per tenant), and
/// allocator calls under what those counts allow: 106 272 calls. The run
/// reads about 86 250 (the executors' interleaving moves it by a few
/// dozen); with a frame per tenant and text and a clone per tenant, it
/// read 176 191.
#[test]
fn a_fleet_of_one_schema_builds_one_frame_per_template_text() {
    // The first run pays for what a process does once.
    fleet_run();
    let (metrics, calls, statements, texts) = fleet_run();
    let count = |name| metrics.counter_value(name);
    let texts = texts as u64;
    let folds = TENANTS as u64 * texts;
    assert_eq!(count("sql.fastpath.compiled"), texts, "frames built");
    assert_eq!(count("sql.fastpath.shared"), folds - texts, "frames shared");
    let clones = count("sql.fastpath.clones");
    assert!(clones <= WORKERS as u64 * texts, "{clones} skeleton clones");

    let bound = PER_STATEMENT * statements
        + PER_FRAME * texts
        + PER_FOLD * folds
        + PER_CLONE * WORKERS as u64 * texts;
    assert!(
        calls < bound,
        "{calls} allocator calls: not under {bound} ({statements} statements, {texts} \
         frames, {folds} folds, {clones} clones)"
    );
}
