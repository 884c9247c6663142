//! Component micro-benchmarks: the hot paths whose costs determine online
//! viability — SQL2Template observation throughput, candidate generation,
//! what-if planning, one MCTS search round, and the banking MCTS search
//! against its whole-workload oracle (the `cost_cache` result).

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{CandidateConfig, CandidateGenerator};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::{fingerprint, parse_statement};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::bench::Bench;
use autoindex_workloads::tpcc::{self, TpccGenerator, TpccScale};
use std::hint::black_box;

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
/// `estimator.cost_cache.{hits,misses}`) are recorded as `cost_cache`
/// (`autoindex_bench::record`). Protocol: `EXPERIMENTS.md` §"PR 3
/// micro-benchmark".
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
    autoindex_bench::record("cost_cache", &doc);
}
