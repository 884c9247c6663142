//! The banking MCTS search against its whole-workload oracle — the gated
//! `cost_cache` result. (Wall-clock costs of the component hot paths are
//! `perf/`'s per-layer metrics: `templates.observe.ns`, `candgen.ms`,
//! `estimator.shape_cost.ns`, `search.mcts.ms`.)

use autoindex_core::mcts::{
    ConfigSet, MctsConfig, MctsSearch, PolicyTree, SearchOutcome, Universe,
};
use autoindex_core::{CandidateConfig, CandidateGenerator, DeltaPricer};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::bench::Bench;
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::hint::black_box;

/// MCTS search on the banking workload against its whole-workload oracle.
/// Two arms share one universe, workload and seed:
///
/// * `uncached_serial`  — `decomposed_eval: false`: the oracle, a
///   whole-workload re-plan per evaluated configuration.
/// * `cached_serial`    — decomposed delta-cost evaluation.
///
/// The two arms must produce byte-identical recommendations; the run
/// aborts otherwise. Results (wall-clock + `db.whatif_calls` +
/// `estimator.cost_cache.{hits,misses}`) are recorded as `cost_cache`
/// (`autoindex_bench::record`). Protocol: `EXPERIMENTS.md` §"PR 3
/// micro-benchmark".
fn main() {
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
    let keys = shape_keys(&shapes);

    let arm = |decomposed: bool| MctsConfig {
        iterations: 200,
        seed: 42,
        decomposed_eval: decomposed,
        ..MctsConfig::default()
    };
    let arms: [(&str, MctsConfig); 2] = [
        ("uncached_serial", arm(false)),
        ("cached_serial", arm(true)),
    ];

    let run_once = |cfg: &MctsConfig, db: &SimDb| -> SearchOutcome {
        let mut tree = PolicyTree::new();
        tree.begin_round(0.5);
        let search = MctsSearch {
            universe: &universe,
            db,
            config: cfg.clone(),
            budget: None,
            existing: existing.clone(),
            protected: ConfigSet::default(),
            start: existing.clone(),
        };
        // A run-local term cache: every sample starts cold.
        let cache = CostCache::new();
        let decomposed = cfg.decomposed_eval;
        let mut pricer = DeltaPricer::new(&universe, &shapes, &keys, db, &est, &cache, decomposed);
        search.run(&mut tree, &mut pricer)
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
    ]);
    autoindex_bench::record("cost_cache", &doc);
}
