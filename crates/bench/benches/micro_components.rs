//! Component micro-benchmarks: the hot paths whose costs determine online
//! viability — SQL2Template observation throughput, candidate generation,
//! what-if planning, one MCTS search round, and (PR 6) the statement front
//! end with and without the compiled-template fast path, including a
//! counting-allocator proof that the steady-state fast path allocates
//! nothing on numeric statements.

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{CandidateConfig, CandidateGenerator};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::{fingerprint, parse_statement};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::bench::Bench;
use autoindex_workloads::tpcc::{self, TpccGenerator, TpccScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocation-counting wrapper around the system allocator. Counting is
/// off by default (one relaxed load per call), and enabled only inside
/// [`counted`] windows, so the other benchmark groups are unaffected.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting on; returns (allocation calls, result).
/// Counts `alloc`/`alloc_zeroed`/`realloc` — frees are not allocations.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let r = f();
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    COUNTING.store(false, Ordering::SeqCst);
    (after - before, r)
}

fn main() {
    let catalog = tpcc::catalog(TpccScale::X1);
    let queries = TpccGenerator::new(TpccScale::X1, 5).generate(200);

    // --- SQL2Template ----------------------------------------------------
    let mut g = Bench::new("sql2template").throughput_elements(queries.len() as u64);
    g.bench_function("observe_stream", || {
        let mut store = TemplateStore::new(TemplateStoreConfig::default());
        for q in &queries {
            let _ = store.observe(black_box(q), &catalog);
        }
        black_box(store.len())
    });
    g.bench_function("fingerprint_only", || {
        for q in &queries {
            black_box(fingerprint(black_box(q)).unwrap());
        }
    });
    g.emit_json();

    // --- candidate generation --------------------------------------------
    let shapes: Vec<(QueryShape, u64)> = queries
        .iter()
        .take(500)
        .map(|q| {
            (
                QueryShape::extract(&parse_statement(q).unwrap(), &catalog),
                1u64,
            )
        })
        .collect();
    let mut g = Bench::new("candgen");
    g.bench_function("generate_500_shapes", || {
        black_box(
            CandidateGenerator::new(CandidateConfig::default()).generate(
                black_box(&shapes),
                &catalog,
                &[],
            ),
        )
    });
    g.emit_json();

    // --- what-if planning -------------------------------------------------
    let db = SimDb::new(catalog.clone(), SimDbConfig::default());
    let defaults = tpcc::default_indexes();
    let mut g = Bench::new("whatif").throughput_elements(shapes.len() as u64);
    g.bench_function("plan_500_shapes", || {
        let mut total = 0.0;
        for (s, _) in &shapes {
            total += db.whatif_native_cost(black_box(s), &defaults);
        }
        black_box(total)
    });
    g.emit_json();

    // --- MCTS search -------------------------------------------------------
    let mut universe = Universe::new();
    let cands = CandidateGenerator::new(CandidateConfig::default()).generate(
        &shapes,
        db.catalog(),
        &defaults,
    );
    for d in defaults.iter().chain(cands.iter()) {
        universe.intern(d);
    }
    universe.refresh_sizes(&db);
    let existing: ConfigSet = defaults.iter().filter_map(|d| universe.slot(d)).collect();
    let est = NativeCostEstimator;
    let mut g = Bench::new("mcts").samples(10);
    g.bench_function("search_200_iterations", || {
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &universe,
            estimator: &est,
            db: &db,
            workload: &shapes,
            config: MctsConfig {
                iterations: 200,
                ..MctsConfig::default()
            },
            budget: None,
            existing: existing.clone(),
            protected: ConfigSet::default(),
            start: existing.clone(),
            cost_cache: None,
            delta: None,
        };
        black_box(search.run(&mut tree))
    });
    g.emit_json();

    banking_cached_vs_uncached();
    frontend_fastpath();
}

/// PR 6 front-end arms (banking stream, steady state):
///
/// * `fastpath_off` — `parse_statement` + `QueryShape::extract` per
///   statement: the per-statement front end every executor ran before the
///   compiled-template fast path existed.
/// * `fastpath_on`  — `scan_fingerprint` into a reused `LiteralBuf`,
///   template-cache lookup, `bind_into` a reused skeleton clone.
///
/// After the timed arms, a counting `#[global_allocator]` proves the
/// zero-allocation claim: one steady-state fast-path pass over the numeric
/// statements that hit the cache must perform **zero** allocator calls
/// (string literals are excluded — binding a `Str` clones its contents,
/// which is documented and expected). The run aborts if either the
/// allocation count is non-zero or the off-path count fails to dwarf it.
fn frontend_fastpath() {
    use autoindex_core::FastPathCache;
    use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
    use autoindex_workloads::banking::{self, BankingGenerator};
    use std::collections::HashMap;

    let catalog = banking::catalog();
    let mut gen = BankingGenerator::new(11);
    let queries: Vec<String> = gen
        .generate_hybrid(1_500, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let mut store = TemplateStore::new(TemplateStoreConfig::default());
    for q in &queries {
        let _ = store.observe(q, &catalog);
    }
    let cache = FastPathCache::build(store.entries(), &catalog);

    // --- timed arms (full stream, misses fall back like the serve loop) -
    let mut g = Bench::new("frontend").throughput_elements(queries.len() as u64);
    g.bench_function("fastpath_off", || {
        for q in &queries {
            if let Ok(stmt) = parse_statement(q) {
                black_box(QueryShape::extract(&stmt, &catalog));
            }
        }
    });
    let mut lits = LiteralBuf::new();
    let mut shapes: HashMap<u64, QueryShape> = HashMap::new();
    let mut sels: Vec<f64> = Vec::new();
    let mut stack: Vec<f64> = Vec::new();
    g.bench_function("fastpath_on", || {
        let mut hits = 0u64;
        for q in &queries {
            if let Some(h) = scan_fingerprint(q, &mut lits) {
                if let Some(c) = cache.get(h) {
                    let shape = shapes.entry(h).or_insert_with(|| c.skeleton().clone());
                    if c.bind_into(&lits, cache.stats(), shape, &mut sels, &mut stack) {
                        hits += 1;
                        black_box(&*shape);
                        continue;
                    }
                }
            }
            if let Ok(stmt) = parse_statement(q) {
                black_box(QueryShape::extract(&stmt, &catalog));
            }
        }
        black_box(hits)
    });
    g.emit_json();

    // --- allocation proof on the numeric steady state -------------------
    // Keep only statements with no string literal that bind successfully:
    // those are the statements the zero-allocation contract covers.
    let numeric: Vec<&str> = queries
        .iter()
        .map(|q| q.as_str())
        .filter(|q| {
            !q.contains('\'')
                && scan_fingerprint(q, &mut lits)
                    .and_then(|h| cache.get(h).map(|c| (h, c)))
                    .map(|(h, c)| {
                        let shape = shapes.entry(h).or_insert_with(|| c.skeleton().clone());
                        c.bind_into(&lits, cache.stats(), shape, &mut sels, &mut stack)
                    })
                    .unwrap_or(false)
        })
        .collect();
    assert!(
        numeric.len() >= 100,
        "too few numeric fast-path statements ({}) for the allocation proof",
        numeric.len()
    );
    let (allocs_off, ()) = counted(|| {
        for &q in &numeric {
            if let Ok(stmt) = parse_statement(q) {
                black_box(QueryShape::extract(&stmt, &catalog));
            }
        }
    });
    let (allocs_on, bound) = counted(|| {
        let mut bound = 0u64;
        for &q in &numeric {
            let h = scan_fingerprint(q, &mut lits).expect("pre-screened statement");
            let c = cache.get(h).expect("pre-screened template");
            let shape = shapes.get_mut(&h).expect("warmed skeleton");
            if c.bind_into(&lits, cache.stats(), shape, &mut sels, &mut stack) {
                bound += 1;
                black_box(&*shape);
            }
        }
        bound
    });
    println!(
        "frontend allocations: {} numeric statements | fastpath_off {} allocs ({:.1}/stmt) | fastpath_on {} allocs",
        numeric.len(),
        allocs_off,
        allocs_off as f64 / numeric.len() as f64,
        allocs_on
    );
    assert_eq!(
        bound as usize,
        numeric.len(),
        "pre-screened statement failed to bind"
    );
    assert_eq!(
        allocs_on, 0,
        "steady-state fast path allocated on numeric statements"
    );
    assert!(
        allocs_off > numeric.len() as u64,
        "full parse front end reported implausibly few allocations"
    );
}

/// MCTS search on the banking workload against its whole-workload oracle.
/// Three arms share one universe, workload and seed:
///
/// * `uncached_serial`  — `decomposed_eval: false`: the oracle, a
///   whole-workload re-plan per evaluated configuration.
/// * `cached_serial`    — decomposed delta-cost evaluation, one eval thread.
/// * `cached_parallel`  — same, `eval_threads: 0` (auto parallelism).
///
/// The three arms must produce byte-identical recommendations; the run
/// aborts otherwise. Results (wall-clock + `db.whatif_calls` +
/// `estimator.cost_cache.{hits,misses}`) are written to `BENCH_PR3.json`
/// at the repo root. Protocol: `EXPERIMENTS.md` §"PR 3 micro-benchmark".
fn banking_cached_vs_uncached() {
    use autoindex_core::mcts::SearchOutcome;
    use autoindex_support::json::{obj, Json};
    use autoindex_support::obs::MetricsRegistry;
    use autoindex_workloads::banking::{self, BankingGenerator};

    let catalog = banking::catalog();
    let mut gen = BankingGenerator::new(7);
    let queries: Vec<String> = gen
        .generate_hybrid(160, 0.5)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let shapes: Vec<(QueryShape, u64)> = queries
        .iter()
        .map(|q| {
            (
                QueryShape::extract(&parse_statement(q).unwrap(), &catalog),
                1u64,
            )
        })
        .collect();
    let defaults = banking::dba_indexes();

    // Shared universe (slot numbering identical across arms).
    let sizing_db = SimDb::new(catalog.clone(), SimDbConfig::default());
    let cands = CandidateGenerator::new(CandidateConfig::default()).generate(
        &shapes,
        sizing_db.catalog(),
        &defaults,
    );
    let mut universe = Universe::new();
    for d in defaults.iter().chain(cands.iter()) {
        universe.intern(d);
    }
    universe.refresh_sizes(&sizing_db);
    let existing: ConfigSet = defaults.iter().filter_map(|d| universe.slot(d)).collect();
    let est = NativeCostEstimator;

    let arm = |decomposed: bool, threads: usize| MctsConfig {
        iterations: 200,
        seed: 42,
        decomposed_eval: decomposed,
        eval_threads: threads,
        ..MctsConfig::default()
    };
    let arms: [(&str, MctsConfig); 3] = [
        ("uncached_serial", arm(false, 1)),
        ("cached_serial", arm(true, 1)),
        ("cached_parallel", arm(true, 0)),
    ];

    let run_once = |cfg: &MctsConfig, db: &SimDb| -> SearchOutcome {
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &universe,
            estimator: &est,
            db,
            workload: &shapes,
            config: cfg.clone(),
            budget: None,
            existing: existing.clone(),
            protected: ConfigSet::default(),
            start: existing.clone(),
            cost_cache: None,
            delta: None,
        };
        search.run(&mut tree)
    };

    let mut g = Bench::new("mcts_banking_cached_vs_uncached")
        .samples(5)
        .warmup(1);
    let mut reports: Vec<Json> = Vec::new();
    let mut outcomes: Vec<SearchOutcome> = Vec::new();
    for (name, cfg) in &arms {
        // Timed samples (counters polluted by warmup — reset below).
        let db = SimDb::with_metrics(
            catalog.clone(),
            SimDbConfig::default(),
            MetricsRegistry::new(),
        );
        g.bench_function(name, || black_box(run_once(cfg, &db)));
        // One instrumented run on fresh counters for exact call counts.
        db.metrics().reset();
        let outcome = run_once(cfg, &db);
        let m = db.metrics();
        let sample = g.results().last().unwrap();
        reports.push(obj([
            ("arm", Json::from(*name)),
            ("median_ns", Json::from(sample.median.as_nanos() as u64)),
            ("mean_ns", Json::from(sample.mean.as_nanos() as u64)),
            (
                "whatif_calls",
                Json::from(m.counter_value("db.whatif_calls")),
            ),
            (
                "inference_calls",
                Json::from(m.counter_value("estimator.inference_calls")),
            ),
            (
                "cost_cache_hits",
                Json::from(m.counter_value("estimator.cost_cache.hits")),
            ),
            (
                "cost_cache_misses",
                Json::from(m.counter_value("estimator.cost_cache.misses")),
            ),
            ("evaluations", Json::from(outcome.evaluations)),
            ("best_cost", Json::from(outcome.best_cost)),
        ]));
        outcomes.push(outcome);
    }
    g.emit_json();

    // Regression gate: all arms must agree byte-for-byte.
    for o in &outcomes[1..] {
        assert_eq!(
            o.best_config, outcomes[0].best_config,
            "cached arms must recommend the identical configuration"
        );
        assert_eq!(
            o.best_cost.to_bits(),
            outcomes[0].best_cost.to_bits(),
            "cached arms must price the winner bit-identically"
        );
        assert_eq!(o.evaluations, outcomes[0].evaluations);
    }
    let whatif_uncached = reports[0]
        .get("whatif_calls")
        .and_then(Json::as_u64)
        .unwrap();
    let whatif_cached = reports[1]
        .get("whatif_calls")
        .and_then(Json::as_u64)
        .unwrap();
    let med = |i: usize| g.results()[i].median.as_nanos() as f64;
    let doc = obj([
        ("bench", Json::from("mcts_banking_cached_vs_uncached")),
        (
            "workload",
            Json::from("banking hybrid, 160 queries, seed 7"),
        ),
        ("mcts", Json::from("200 iterations, seed 42, no budget")),
        ("arms", Json::Array(reports)),
        (
            "whatif_reduction",
            Json::from(whatif_uncached as f64 / whatif_cached.max(1) as f64),
        ),
        ("speedup_cached_serial", Json::from(med(0) / med(1))),
        ("speedup_cached_parallel", Json::from(med(0) / med(2))),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR3.json");
    std::fs::write(path, format!("{}\n", doc.pretty())).expect("write BENCH_PR3.json");
    eprintln!("wrote {path}");
}
