//! Count-domain regression tests: planning work follows the tables a
//! statement touches, never the size of the configuration; snapshot
//! execution — planned from scratch or priced through a prepared plan —
//! allocates nothing; the steady-state fast path allocates nothing on
//! numeric statements, so a repeat statement fed to the online loop
//! allocates nothing either, and growth under
//! it costs one bounded re-fold, not a parse, and copies no table the
//! database's kept plans read. A guard's snapshot of the index set copies
//! no definition.
//!
//! A counting `#[global_allocator]` (per-thread, so the libtest harness
//! cannot leak into a window) measures allocator calls; the what-if,
//! inference and fault-roll counters must read exactly one per probe.

use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{
    AutoIndex, AutoIndexConfig, FastPathCache, IndexSnapshot, OnlineAutoIndex, OnlineConfig,
};
use autoindex_estimator::{CostEstimator, NativeCostEstimator};
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::parse_statement;
use autoindex_storage::fault::FaultPlan;
use autoindex_storage::index::IndexDef;
use autoindex_storage::planner::{JoinStrategy, Planner};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use autoindex_workloads::fleet::{tenant_catalog, tenant_dba_indexes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a `Cell` in
// const-initialised thread-local storage and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.with(Cell::get);
    let r = f();
    (ALLOC_CALLS.with(Cell::get) - before, r)
}

fn banking_db(indexes: &[IndexDef]) -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for def in indexes {
        db.create_index(def.clone()).unwrap();
    }
    db
}

#[test]
fn planning_work_follows_the_touched_table_not_the_configuration() {
    let dba = banking::dba_indexes();
    assert_eq!(dba.len(), 263);
    let on_flow: Vec<IndexDef> = dba
        .iter()
        .filter(|d| d.table == "withdraw_flow")
        .cloned()
        .collect();
    assert!(on_flow.len() > 3 && on_flow.len() < 20);

    let mut db = banking_db(&dba);
    let read = QueryShape::extract(
        &parse_statement("SELECT * FROM withdraw_flow WHERE acct_id = 7 AND ts > 100").unwrap(),
        db.catalog(),
    );
    // Planning fills this thread's reusable storage; size it first.
    Planner::new(db.catalog(), &db.config().cost_params).plan_over(&read, db.index_view());
    db.set_fault_plan(Some(FaultPlan::none()));

    // What-if: the 263-index configuration costs what the table's own
    // indexes cost, and gives the same features.
    let (allocs_full, full) = counted(|| db.whatif_plan(&read, &dba));
    let (allocs_own, own) = counted(|| db.whatif_plan(&read, &on_flow));
    assert_eq!(full.features, own.features);
    assert_eq!(allocs_full, allocs_own, "what-if resolved untouched tables");
    assert!(
        allocs_full < dba.len() as u64,
        "{allocs_full} allocator calls for one single-table what-if"
    );

    // One roll, one what-if and one inference per probe — no more.
    let est = NativeCostEstimator;
    let cost = est.shape_cost(&db, &read, &dba);
    assert_eq!(cost, full.features.native_cost());
    assert_eq!(db.metrics().counter_value("db.whatif_calls"), 3);
    assert_eq!(db.metrics().counter_value("estimator.inference_calls"), 1);
    assert_eq!(db.fault_plan().unwrap().whatif_ops(), 3);

    // Live execution of a read: 263 real indexes cost what the touched
    // table's own indexes cost.
    let mut small = banking_db(&on_flow);
    let (exec_full, a) = counted(|| db.execute_shape(&read));
    let (exec_own, b) = counted(|| small.execute_shape(&read));
    assert_eq!(a.features, b.features);
    assert_eq!(a.indexes_used.len(), b.indexes_used.len());
    assert_eq!(exec_full, exec_own, "execute resolved untouched tables");
}

/// The live path keeps no plan report, yet its `planner.*` counters read
/// what the full report of the same plans would have tallied: a banking
/// run under the 263 DBA indexes, each statement planned with `plan_over`
/// against the state it is about to execute in.
#[test]
fn a_guard_snapshot_shares_the_index_set_instead_of_copying_it() {
    let dba = banking::dba_indexes();
    for indexes in [&dba[..3], &dba[..]] {
        let db = banking_db(indexes);
        let (calls, snap) = counted(|| IndexSnapshot::capture(&db));
        assert_eq!(calls, 0, "{} indexes", indexes.len());
        assert_eq!(snap.fingerprint(), db.index_fingerprint());
    }
}

#[test]
fn live_execution_tallies_what_the_full_plan_reports() {
    let mut db = banking_db(&banking::dba_indexes());
    let mut want: HashMap<&str, u64> = HashMap::new();
    for (_, sql) in BankingGenerator::new(11).generate_hybrid(400, 0.5) {
        let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), db.catalog());
        let plan =
            Planner::new(db.catalog(), &db.config().cost_params).plan_over(&shape, db.index_view());
        for p in &plan.paths {
            let bitmap = u64::from(!p.bitmap_indexes.is_empty());
            match p.index {
                Some(_) => {
                    *want.entry("planner.path.index_scan").or_default() += 1;
                    *want.entry("planner.path.bitmap_or").or_default() += bitmap;
                }
                None => *want.entry("planner.path.seq_scan").or_default() += 1,
            }
        }
        for j in &plan.join_strategies {
            let name = match j {
                JoinStrategy::Hash => "planner.join.hash",
                JoinStrategy::IndexNestedLoop(_) => "planner.join.index_nl",
                JoinStrategy::NestedLoop => "planner.join.nested_loop",
            };
            *want.entry(name).or_default() += 1;
        }
        *want.entry("planner.sort_elided").or_default() += u64::from(plan.sort_elided);
        *want.entry("planner.covering_scans").or_default() += u64::from(plan.covering_scans);
        db.execute_shape(&shape);
    }
    assert!(want["planner.path.index_scan"] > 0 && want["planner.path.seq_scan"] > 0);
    for name in [
        "planner.path.index_scan",
        "planner.path.bitmap_or",
        "planner.path.seq_scan",
        "planner.join.hash",
        "planner.join.index_nl",
        "planner.join.nested_loop",
        "planner.sort_elided",
        "planner.covering_scans",
    ] {
        assert_eq!(
            db.metrics().counter_value(name),
            want.get(name).copied().unwrap_or(0),
            "{name}"
        );
    }
}

/// Snapshot execution planned from scratch allocates nothing once this
/// thread's scratch plan has grown to the statement: its `ExecOutcome`
/// and `UsageDelta` hold the used indexes inline and the maintenance
/// charges shared with the plan. No path report, no per-candidate scratch,
/// no second plan for the usage-credit baseline — under all 263 indexes.
/// **Count** domain, exact: 0, 0 and 0 allocator calls (2, 0 and 3 while
/// both returned the used indexes and the charges as vectors).
#[test]
fn snapshot_execution_allocates_only_what_it_returns() {
    let db = banking_db(&banking::dba_indexes());
    let snap = db.snapshot(0);
    assert_eq!(snap.index_count(), 263);
    // Planning fills this thread's reusable storage: every shape is run
    // once to size it before it is counted.
    let shape = |sql: &str| {
        let shape = QueryShape::extract(&parse_statement(sql).unwrap(), snap.catalog());
        snap.execute_shape_at(&shape, 16);
        shape
    };

    // A point lookup: the index it used, and that index's scan credit.
    let lookup = shape("SELECT * FROM withdraw_flow WHERE acct_id = 7");
    let (allocs, (outcome, delta)) = counted(|| snap.execute_shape_at(&lookup, 17));
    assert_eq!(outcome.indexes_used.len(), 1, "served by an index");
    assert_eq!(delta.scans.len(), 1);
    assert!(delta.maintenance.is_empty() && delta.growth.is_none());
    assert_eq!(allocs, 0, "`indexes_used` and `delta.scans` are inline");

    // An unindexed predicate returns no vector and allocates nothing.
    let scan = shape("SELECT * FROM withdraw_flow WHERE flow_status = 2");
    let (allocs, (outcome, delta)) = counted(|| snap.execute_shape_at(&scan, 18));
    assert!(outcome.indexes_used.is_empty() && delta.is_empty());
    assert_eq!(allocs, 0);

    // A keyed update adds the maintenance charges — the plan's terms,
    // shared, however many indexes they name.
    let update = shape("UPDATE withdraw_flow SET amount = 1.0 WHERE flow_id = 7");
    let (allocs, (outcome, delta)) = counted(|| snap.execute_shape_at(&update, 19));
    assert!(!outcome.indexes_used.is_empty() && !delta.maintenance.is_empty());
    assert_eq!(allocs, 0, "`delta.maintenance` is shared with the plan");
}

/// One execution of a bound statement through its template's prepared
/// plan, under all 263 indexes, allocates nothing: the used indexes sit
/// inline, the maintenance charges and the table name an INSERT's growth
/// carries are shared with the plan and the catalog. **Count** domain,
/// exact: 0, 0 and 0 allocator calls. While the outcome and the delta held
/// vectors they made 2, 3 and 1; before plans were prepared (every
/// statement planned from scratch, the seven-entry maintenance list grown
/// push by push, the grown table's name cloned) `execute_shape_at` made 2,
/// 4 and 3 for the same three statements.
#[test]
fn a_prepared_execution_allocates_what_it_returns() {
    let db = banking_db(&banking::dba_indexes());
    let snap = db.snapshot(0);
    let shape = |sql: &str| QueryShape::extract(&parse_statement(sql).unwrap(), snap.catalog());
    let select = |id: u64| shape(&format!("SELECT * FROM withdraw_flow WHERE acct_id = {id}"));
    let update = |id: u64| {
        shape(&format!(
            "UPDATE withdraw_flow SET amount = {id}.5 WHERE flow_id = {id}"
        ))
    };
    let insert = |id: u64| {
        shape(&format!(
            "INSERT INTO withdraw_flow (flow_id, acct_id, ts) VALUES ({id}, 7, {id})"
        ))
    };

    // Each plan is prepared from one binding and prices another.
    let (plan, bound) = (snap.prepare(&select(7)), select(8));
    let (allocs, (outcome, delta)) = counted(|| snap.execute_prepared_at(&plan, &bound, 17));
    assert_eq!((outcome.indexes_used.len(), delta.scans.len()), (1, 1));
    assert_eq!(allocs, 0, "`indexes_used` and `delta.scans` are inline");

    let (plan, bound) = (snap.prepare(&update(7)), update(8));
    let (allocs, (outcome, delta)) = counted(|| snap.execute_prepared_at(&plan, &bound, 18));
    assert!(!outcome.indexes_used.is_empty() && delta.maintenance.len() > 4);
    assert_eq!(allocs, 0, "`delta.maintenance` is shared with the plan");

    let (plan, bound) = (snap.prepare(&insert(7)), insert(8));
    let (allocs, (outcome, delta)) = counted(|| snap.execute_prepared_at(&plan, &bound, 19));
    assert!(outcome.indexes_used.is_empty() && delta.maintenance.len() > 4);
    let (table, rows) = delta.growth.expect("an INSERT grows its table");
    assert_eq!((&*table, rows), ("withdraw_flow", 1));
    assert_eq!(
        allocs, 0,
        "`delta.maintenance` and the table name are shared"
    );
    // The unprepared composition shares them too.
    snap.execute_shape_at(&bound, 20);
    let (allocs, _) = counted(|| snap.execute_shape_at(&bound, 21));
    assert_eq!(allocs, 0);
}

/// The compiled-template fast path at steady state — `scan_fingerprint`
/// into a reused `LiteralBuf`, template-cache lookup, `bind` a warmed
/// skeleton clone — performs **zero** allocator calls on numeric statements
/// (string literals are excluded: binding a `Str` clones its contents, which
/// is documented and expected), while the full-parse front end pays more
/// than one call per statement.
#[test]
fn steady_state_fast_path_allocates_nothing_on_numeric_statements() {
    let catalog = banking::catalog();
    let queries: Vec<String> = BankingGenerator::new(11)
        .generate_hybrid(1_500, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let mut store = TemplateStore::new(TemplateStoreConfig::default());
    for q in &queries {
        let _ = store.observe(q, &catalog);
    }
    let cache = FastPathCache::build(store.entries(), &catalog);
    let mut lits = LiteralBuf::new();
    let mut shapes: HashMap<u64, QueryShape> = HashMap::new();

    // Keep only statements with no string literal that bind successfully;
    // screening them also warms the skeleton clones.
    let numeric: Vec<&str> = queries
        .iter()
        .map(String::as_str)
        .filter(|q| {
            !q.contains('\'')
                && scan_fingerprint(q, &mut lits)
                    .and_then(|h| cache.get(h).map(|c| (h, c)))
                    .is_some_and(|(h, c)| {
                        let shape = shapes.entry(h).or_insert_with(|| c.skeleton().clone());
                        c.bind(&lits, shape)
                    })
        })
        .collect();
    assert!(numeric.len() >= 100, "only {} statements", numeric.len());

    let (allocs_off, ()) = counted(|| {
        for &q in &numeric {
            let stmt = parse_statement(q).unwrap();
            std::hint::black_box(QueryShape::extract(&stmt, &catalog));
        }
    });
    let (allocs_on, bound) = counted(|| {
        numeric
            .iter()
            .filter(|q| {
                let h = scan_fingerprint(q, &mut lits).expect("pre-screened statement");
                let c = cache.get(h).expect("pre-screened template");
                let shape = shapes.get_mut(&h).expect("warmed skeleton");
                c.bind(&lits, shape)
            })
            .count()
    });
    assert_eq!(
        bound,
        numeric.len(),
        "pre-screened statement failed to bind"
    );
    assert_eq!(allocs_on, 0, "steady-state fast path allocated");
    assert!(
        allocs_off > numeric.len() as u64,
        "full parse made only {allocs_off} allocator calls"
    );
}

fn tenant_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        tenant_catalog(3_000),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for def in tenant_dba_indexes() {
        db.create_index(def).unwrap();
    }
    db
}

/// The online loop with its control side switched off by cadence: what is
/// left of `feed` is the statement path.
fn statement_path_only(templates: TemplateStoreConfig) -> OnlineAutoIndex<NativeCostEstimator> {
    let config = AutoIndexConfig {
        templates,
        ..AutoIndexConfig::default()
    };
    OnlineAutoIndex::new(
        tenant_db(),
        AutoIndex::new(config, NativeCostEstimator),
        OnlineConfig {
            diagnosis_interval: u64::MAX,
            ..OnlineConfig::default()
        },
    )
}

/// A repeat numeric statement fed to the online loop is scanned, bound and
/// priced through its template's kept plan: it allocates what
/// `execute_shape` of the same shape allocates — nothing, in steady state —
/// and nothing for the front end, the plan or the advisor. Right after an
/// INSERT grew its table the next one re-folds the template's selectivity
/// program and prepares its plan again, into the storage the plan had — a
/// bounded handful of allocations, far from what parsing and extracting
/// the statement would cost.
#[test]
fn a_fed_repeat_statement_allocates_what_executing_its_shape_does() {
    let mut online = statement_path_only(TemplateStoreConfig::default());
    let mut twin = tenant_db();
    let select = |i: u64| format!("SELECT * FROM withdraw_flow WHERE acct_id = {i} AND ts > 100");
    let insert =
        |i: u64| format!("INSERT INTO withdraw_flow (flow_id, acct_id, ts) VALUES ({i}, 7, {i})");
    // Admit both templates, compile them, make the bindable clones.
    for i in 0..4 {
        online.feed(&select(i));
        online.feed(&insert(i));
    }
    let extract =
        |sql: &str, db: &SimDb| QueryShape::extract(&parse_statement(sql).unwrap(), db.catalog());
    for i in 0..4 {
        twin.execute_shape(&extract(&select(i), &twin));
        twin.execute_shape(&extract(&insert(i), &twin));
    }
    let hits_before = online.db().metrics().counter_value("sql.fastpath.hits");

    // Steady state: the catalog stands still between the two reads.
    online.feed(&select(50));
    twin.execute_shape(&extract(&select(50), &twin));
    let sql = select(51);
    let shape = extract(&sql, &twin);
    let (fed, outcome) = counted(|| online.feed(&sql));
    let (executed, reference) = counted(|| twin.execute_shape(&shape));
    let outcome = outcome.outcome.expect("executed");
    assert_eq!(outcome.latency_ms.to_bits(), reference.latency_ms.to_bits());
    assert!(!outcome.indexes_used.is_empty(), "served by an index");
    assert_eq!(
        (fed, executed),
        (0, 0),
        "allocator calls of feed and of execute_shape alone"
    );

    // Growth under the template: one re-fold and one prepare, no parse.
    online.feed(&insert(60));
    twin.execute_shape(&extract(&insert(60), &twin));
    let refolded_before = online.db().metrics().counter_value("sql.fastpath.refolded");
    let prepared_before = online.db().metrics().counter_value("planner.prepared");
    let sql = select(52);
    let (parsed, shape) = counted(|| extract(&sql, &twin));
    let (fed, outcome) = counted(|| online.feed(&sql));
    let (executed, reference) = counted(|| twin.execute_shape(&shape));
    assert_eq!(
        outcome.outcome.expect("executed").latency_ms.to_bits(),
        reference.latency_ms.to_bits()
    );
    let m = online.db().metrics();
    assert_eq!(
        m.counter_value("sql.fastpath.refolded"),
        refolded_before + 1
    );
    assert_eq!(
        m.counter_value("planner.prepared"),
        prepared_before + 1,
        "the kept plan is prepared again after growth"
    );
    assert_eq!(
        m.counter_value("sql.fastpath.hits"),
        hits_before + 4,
        "all bound"
    );
    let refold = fed - executed;
    assert!(
        (1..=8).contains(&refold) && refold < parsed,
        "the re-fold made {refold} allocator calls; parse + extract makes {parsed}"
    );
}

/// An INSERT into a table a kept plan reads copies no table: the database
/// releases its kept plans before growth changes the table, so the
/// catalog's copy-on-write finds it unshared. Executed through its own
/// kept plan the INSERT makes no more allocator calls than its
/// `execute_shape` twin; fed, no more than that plus the re-fold its
/// template pays after the growth before it (the allowance above). A copy
/// of the table is one allocation per column statistic and more.
#[test]
fn an_insert_under_kept_plans_copies_no_table() {
    let select = |i: u64| format!("SELECT * FROM withdraw_flow WHERE acct_id = {i} AND ts > 100");
    let insert =
        |i: u64| format!("INSERT INTO withdraw_flow (flow_id, acct_id, ts) VALUES ({i}, 7, {i})");
    let extract =
        |sql: &str, db: &SimDb| QueryShape::extract(&parse_statement(sql).unwrap(), db.catalog());

    // The database alone: template 1 reads the table, template 2 grows it.
    let (mut db, mut twin) = (tenant_db(), tenant_db());
    for i in 0..4 {
        db.execute_bound(1, &extract(&select(i), &db));
        db.execute_bound(2, &extract(&insert(i), &db));
        twin.execute_shape(&extract(&select(i), &twin));
        twin.execute_shape(&extract(&insert(i), &twin));
    }
    db.execute_bound(1, &extract(&select(50), &db));
    twin.execute_shape(&extract(&select(50), &twin));
    let shape = extract(&insert(51), &twin);
    let (kept, a) = counted(|| db.execute_bound(2, &shape));
    let (planned, b) = counted(|| twin.execute_shape(&shape));
    assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
    assert_eq!(db.catalog(), twin.catalog());
    assert!(
        kept <= planned,
        "the kept-plan INSERT made {kept} allocator calls, execute_shape {planned}"
    );

    // Fed: the same, bound through the compiled templates.
    let mut online = statement_path_only(TemplateStoreConfig::default());
    for i in 0..4 {
        online.feed(&select(i));
        online.feed(&insert(i));
    }
    online.feed(&select(50));
    let sql = insert(52);
    let shape = extract(&sql, &twin);
    let hits_before = online.db().metrics().counter_value("sql.fastpath.hits");
    let (fed, _) = counted(|| online.feed(&sql));
    let (executed, _) = counted(|| twin.execute_shape(&shape));
    let m = online.db().metrics();
    assert_eq!(m.counter_value("sql.fastpath.hits"), hits_before + 1);
    assert!(
        fed <= executed + 8,
        "the fed INSERT made {fed} allocator calls, execute_shape {executed}"
    );
}

/// A compiled template lives in its template's store entry, so the live
/// set is bounded by the store: over an ad-hoc stream that keeps evicting
/// from a store of eight, there are never more compiled templates than
/// templates, nor more templates than eight — and, with INSERTs releasing
/// the kept plans all the while, never more kept plans than templates.
#[test]
fn the_live_compiled_set_is_bounded_by_the_template_store() {
    let mut online = statement_path_only(TemplateStoreConfig {
        max_templates: 8,
        ..TemplateStoreConfig::default()
    });
    let cols = ["acct_id", "cust_id", "branch_id", "status", "acct_type"];
    let ops = ["=", "<", ">=", "<>"];
    let mut rng = autoindex_support::rng::StdRng::seed_from_u64(8);
    let (mut most, mut most_kept) = (0, 0);
    for i in 0..10_000u64 {
        let mut pick = |n: usize| rng.random_range(0..n);
        let sql = if i % 6 == 5 {
            format!("INSERT INTO account (acct_id, cust_id, status) VALUES ({i}, 3, 1)")
        } else {
            format!(
                "SELECT {} FROM account WHERE {} {} {i} AND {} = {}",
                cols[pick(5)],
                cols[pick(5)],
                ops[pick(4)],
                cols[pick(5)],
                i % 7,
            )
        };
        assert!(online.feed(&sql).outcome.is_some());
        let store = online.advisor().templates();
        assert!(store.compiled_len() <= store.len() && store.len() <= 8);
        assert!(online.db().kept_plans() <= store.len());
        most = most.max(store.compiled_len());
        most_kept = most_kept.max(online.db().kept_plans());
    }
    assert!(
        most >= 2 && most_kept >= 2,
        "the stream repeats templates often enough to compile and keep some"
    );
    let m = online.db().metrics();
    assert!(
        m.counter_value("sql.fastpath.compiled") > 8,
        "entries came and went"
    );
}

/// The eight statement forms `perf`'s `wide_templates` renders, over the
/// banking `account` table: `(sql, parse allocator calls, extract allocator
/// calls)`. **Count** domain, exact, the same in debug and release builds.
///
/// What `parse_statement` allocates is what the `Statement` owns: its
/// vectors and identifier strings. With owned tokens (a `String` or two per
/// word, a token vector, a clone per consumed token) the same statements
/// cost 23, 22, 24, 37, 20, 36, 37 and 31 calls.
///
/// `QueryShape::extract` is at or under half of what it cost while it
/// resolved columns into fresh `String`s, kept bindings in cloned maps and
/// normalised every atom once per pass — 47, 53, 72, 44, 84, 53 and 52
/// calls for the seven forms with a predicate. The INSERT (8 before) has
/// none: all 6 of its calls are the shape it returns.
const WIDE_FORMS: [(&str, u64, u64); 8] = [
    ("INSERT INTO account (acct_id, cust_id) VALUES (1, 2)", 6, 6),
    ("UPDATE account SET cust_id = 1 WHERE acct_id = 2", 4, 21),
    ("SELECT * FROM account WHERE acct_id IN (1, 2, 3)", 5, 21),
    (
        "SELECT acct_id, cust_id FROM account WHERE acct_id = 1 OR cust_id = 2",
        8,
        25,
    ),
    ("SELECT * FROM account WHERE acct_id = 1", 4, 18),
    (
        "SELECT acct_id, cust_id FROM account WHERE acct_id = 1 AND cust_id > 2",
        8,
        28,
    ),
    (
        "SELECT cust_id, COUNT(*) FROM account WHERE acct_id = 1 GROUP BY cust_id",
        8,
        21,
    ),
    (
        "SELECT * FROM account WHERE acct_id = 1 ORDER BY cust_id LIMIT 10",
        6,
        22,
    ),
];

/// A statement that misses the compiled-template cache pays for its text
/// once: `parse_statement` allocates the strings, boxes and vectors of the
/// `Statement` it returns (no token vector, no per-token strings), and
/// `QueryShape::extract` normalises each atom once.
#[test]
fn a_cache_miss_allocates_what_it_returns() {
    let catalog = banking::catalog();
    let measured: Vec<(&str, u64, u64)> = WIDE_FORMS
        .iter()
        .map(|&(sql, _, _)| {
            let (parsed, stmt) = counted(|| parse_statement(sql).unwrap());
            let (extracted, shape) = counted(|| QueryShape::extract(&stmt, &catalog));
            assert_eq!(shape.tables.len(), 1, "{sql}");
            (sql, parsed, extracted)
        })
        .collect();
    assert_eq!(
        measured, WIDE_FORMS,
        "(sql, parse, extract) allocator calls"
    );
}

/// `TemplateStore::observe` of a statement whose template it already knows
/// is one allocation-free scan plus one hash lookup: no token, no canonical
/// text (string literals are excluded — the scanner copies those into its
/// literal buffer).
#[test]
fn observing_a_known_numeric_template_allocates_nothing() {
    let catalog = banking::catalog();
    let mut store = TemplateStore::new(TemplateStoreConfig::default());
    for (sql, _, _) in WIDE_FORMS {
        store.observe(sql, &catalog).unwrap();
    }
    for (sql, _, _) in WIDE_FORMS {
        let again = sql.replace('1', "77");
        let (allocs, hash) = counted(|| store.observe(&again, &catalog).unwrap());
        assert!(store.id_of(hash).is_some());
        assert_eq!(allocs, 0, "observe of a known template allocated: {sql}");
    }
    assert_eq!(store.len(), WIDE_FORMS.len());
    assert_eq!(store.observed(), 2 * WIDE_FORMS.len() as u64);
}
