//! Count-domain tests of the serving loop as a whole: executing a
//! statement allocates nothing on any thread, so what a `serve` run
//! allocates follows its epochs and tasks, not its statements; and the
//! coordinator absorbs each run as it arrives, so what a run holds at its
//! peak does not grow with its epochs' length either; and a template is
//! compiled at its third statement, so a run that starts knowing no
//! template pays per template, not per statement, for learning them.
//!
//! The counts are process-wide — the executors are threads of their own —
//! so this is its own test binary with one test: nothing else allocates
//! while it counts.

use autoindex_core::{
    serve, AutoIndex, AutoIndexConfig, DiagnosisConfig, Observation, ServeConfig,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::{tenant_catalog, tenant_dba_indexes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Every thread's allocator calls.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most there were since the
/// last reset.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are atomic adds and never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const EPOCHS: u64 = 4;
const SHARDS: u64 = 4;

/// The stream's templates, and what learning one during a run may cost: the
/// store admits it (fingerprint, parse, extraction), its first two
/// statements are parsed and extracted, the publication they ran under
/// compiles it late at its third (fingerprint, frame, fold, skeleton clone,
/// plan), and the next publication folds the frame the late entry built.
/// (The cold run reads 653 calls above the warm one, 109 a template. While
/// the late entry's frame died with its epoch, the next publication built
/// it again and the worker cloned it again: 1 008 above, 168 a template.
/// While a publication compiled nothing it missed, each of the first
/// epoch's 2 000 statements was parsed and extracted: 61 537 calls above.)
const TEMPLATES: u64 = 6;
const CALLS_PER_TEMPLATE: u64 = 130;

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

/// Statement `i` of a stream cycling through two templates with string
/// literals — an equality on a name and a prefix pattern over it — their
/// strings, of varying length, drawn from `i`.
fn named(i: u64) -> String {
    let k = i * 7 % 2_000 + 1;
    match i % 2 {
        0 => format!(
            "SELECT cust_id, region FROM customer_b WHERE cust_name = 'c{k}' AND region = {}",
            i % 40
        ),
        _ => format!(
            "SELECT cust_id FROM customer_b WHERE cust_name LIKE 'c{}%'",
            k % 97
        ),
    }
}

/// What one `serve` run over `EPOCHS` epochs of `per_epoch` statements of
/// `stream` costs, on one executor, its advisor knowing the templates from
/// the start when `prewarm` (the first publication compiles them) and
/// knowing none otherwise, and its diagnosis never asking for a round: its
/// allocator calls, the most bytes it held live at once (over what was live
/// when it started), and the statements it bound.
fn serve_run(per_epoch: u64, prewarm: bool, stream: fn(u64) -> String) -> (u64, u64, u64) {
    let queries: Vec<String> = (0..per_epoch * EPOCHS).map(stream).collect();
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
    if prewarm {
        for sql in &queries[..12] {
            advisor.observe(sql, &db).unwrap();
        }
    }
    let config = ServeConfig::builder()
        .workers(1)
        .shards(SHARDS)
        .epoch_interval(per_epoch)
        .build()
        .unwrap();
    let before = CALLS.load(Ordering::SeqCst);
    let live_before = LIVE.load(Ordering::SeqCst);
    PEAK.store(live_before, Ordering::SeqCst);
    let out = serve(db, advisor, &queries, config).unwrap();
    let allocs = CALLS.load(Ordering::SeqCst) - before;
    let peak = PEAK.load(Ordering::SeqCst) - live_before;
    let report = &out.report;
    assert_eq!(report.executed, per_epoch * EPOCHS);
    assert_eq!(report.tuning_rounds, 0);
    (allocs, peak, report.fastpath_hits)
}

/// The same templates over the same epochs and tasks, at 2 000 and at
/// 4 000 statements per epoch.
///
/// Calls: the larger run makes no more allocator calls than the smaller but
/// for what its larger batches add, and those are sized once per task
/// (`Engine::run_task`) — at most one call each. (The two runs read ~1 390
/// calls each. While an outcome and its delta held vectors, the larger run
/// made 13 335 calls more: 1.7 per extra statement.)
///
/// Peak bytes: the coordinator absorbs each run as it arrives and holds no
/// epoch, so the larger run's peak exceeds the smaller's by what its longer
/// runs in flight add — the one it absorbs and the one the executor fills,
/// 500 slots longer each at 168 bytes a slot: 168 000 bytes, under 1 000
/// observations' worth. (While the coordinator placed every observation of
/// an epoch before absorbing any, the gap was 552 000 bytes: 2 000 × 184
/// for the epoch's extra slots, and 1 000 × 184 for the longer runs beside
/// them.)
///
/// Strings: a stream whose templates carry string literals allocates per
/// epoch too — the scan writes each string into one the scan before
/// collected, a bind into the clone's. (While the scan made a `String` per
/// string literal, the larger run made 8 000 calls more: one per extra
/// statement.)
///
/// Cold: the same stream with no template known at the start makes at most
/// a per-template budget of calls more than the warm run — the templates
/// are compiled once each, not all their statements parsed. One test, so the
/// process-wide count of one run sees no other run beside it.
#[test]
fn serving_allocates_per_epoch_not_per_statement() {
    // The first run pays for what a process does once (thread-local
    // scratch storage, lazily built statics).
    serve_run(500, true, statement);
    let (small, small_peak, small_hits) = serve_run(2_000, true, statement);
    let (large, large_peak, large_hits) = serve_run(4_000, true, statement);

    assert_eq!((small_hits, large_hits), (2_000 * EPOCHS, 4_000 * EPOCHS));
    let batches = EPOCHS * (SHARDS + 1);
    assert!(
        large <= small + batches,
        "{large} allocator calls at 4 000 statements per epoch, {small} at 2 000: \
         more than the {batches} batch vectors can explain"
    );
    let bound = 1_000 * std::mem::size_of::<Observation>() as u64;
    assert!(
        large_peak < small_peak + bound,
        "{large_peak} bytes live at the peak at 4 000 statements per epoch, {small_peak} at \
         2 000: the gap is not under {bound}, so something holds an epoch"
    );

    let (strings, _, strings_hits) = serve_run(2_000, true, named);
    let (more, _, more_hits) = serve_run(4_000, true, named);
    assert_eq!((strings_hits, more_hits), (2_000 * EPOCHS, 4_000 * EPOCHS));
    assert!(
        more <= strings + batches,
        "{more} allocator calls at 4 000 statements per epoch with string literals, {strings} \
         at 2 000: more than the {batches} batch vectors can explain"
    );

    // Cold: the advisor has observed nothing, so the first publication
    // compiles no template. Each is compiled at its third statement, by the
    // publication it runs under, and every later statement binds.
    let (cold, _, cold_hits) = serve_run(2_000, false, statement);
    assert_eq!(cold_hits, 2_000 * EPOCHS - 2 * TEMPLATES);
    let budget = TEMPLATES * CALLS_PER_TEMPLATE;
    assert!(
        cold <= small + budget,
        "{cold} allocator calls with no template known at the start, {small} with all six \
         known: more than the {budget} that compiling six templates explains"
    );
}
