//! The banking MCTS search against its whole-workload oracle — the gated
//! `cost_cache` result — and, beside it, one snapshot execution planned
//! from scratch against the same execution priced through a prepared plan,
//! over the streams `perf/` serves. Counts and bit-identity only: the
//! wall-clock costs of these paths are `perf/`'s per-layer metrics
//! (`search.mcts.ms`, `estimator.shape_cost.ns`, `db.execute_shape_at.ns`
//! for the planned execution; the prepared path has no `perf/` metric of
//! its own and shows only inside `driver.cpu_ns_per_stmt`).

use autoindex_core::mcts::{
    ConfigSet, MctsConfig, MctsSearch, PolicyTree, SearchOutcome, Universe,
};
use autoindex_core::{CandidateConfig, CandidateGenerator, DeltaPricer};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::fingerprint::fingerprint;
use autoindex_sql::parse_statement;
use autoindex_storage::catalog::Catalog;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{ExecOutcome, PreparedPlan, SimDb, SimDbConfig, UsageDelta};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use autoindex_workloads::fleet::fleet_workload;
use std::collections::BTreeMap;

/// Everything an execution returns, floats by their bits.
fn execution_print((outcome, delta): &(ExecOutcome, UsageDelta)) -> String {
    let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    format!(
        "{:x} {:?} {:?} {:?} {:?} {:?}",
        outcome.latency_ms.to_bits(),
        bits(&outcome.features.as_vec()),
        outcome.indexes_used,
        delta
            .scans
            .iter()
            .map(|id| (*id, delta.saving.to_bits()))
            .collect::<Vec<_>>(),
        delta
            .maintenance
            .iter()
            .map(|(id, m)| (id, m.io.to_bits(), m.cpu.to_bits()))
            .collect::<Vec<_>>(),
        delta.growth,
    )
}

/// One statement stream executed against one frozen snapshot two ways:
/// `DbSnapshot::execute_shape_at` (prepare + price per statement — what a
/// statement no compiled template serves pays) and
/// `DbSnapshot::execute_prepared_at` through one plan per template (what a
/// publication's plan slots make of a bound statement). Every statement's
/// outcome and delta must be bit-identical between the two; the run aborts
/// otherwise.
fn prepared_equals_planned(
    stream: &str,
    catalog: Catalog,
    indexes: Vec<IndexDef>,
    queries: &[String],
) {
    let mut db = SimDb::with_metrics(catalog, SimDbConfig::default(), MetricsRegistry::new());
    for def in indexes {
        db.create_index(def).expect("a DBA index");
    }
    let snap = db.snapshot(0);
    let bound: Vec<(u64, QueryShape)> = queries
        .iter()
        .map(|q| {
            let shape = QueryShape::extract(&parse_statement(q).expect("parses"), snap.catalog());
            (fingerprint(q).expect("fingerprints").hash, shape)
        })
        .collect();
    // One representative per template, in hash order.
    let templates: BTreeMap<u64, &QueryShape> = bound.iter().map(|(h, s)| (*h, s)).collect();
    let plans: BTreeMap<u64, PreparedPlan> = templates
        .iter()
        .map(|(h, shape)| (*h, snap.prepare(shape)))
        .collect();
    for (h, shape) in &bound {
        assert!(
            plans[h].fits(shape),
            "{stream}: a template of two structures"
        );
        assert_eq!(
            execution_print(&snap.execute_prepared_at(&plans[h], shape, 7)),
            execution_print(&snap.execute_shape_at(shape, 7)),
            "{stream}: prepared != planned"
        );
    }
    println!(
        "{stream}: {} statements, {} templates, {} indexes: prepared == planned",
        bound.len(),
        templates.len(),
        snap.index_count(),
    );
}

/// MCTS search on the banking workload against its whole-workload oracle.
/// Two arms share one universe, workload and seed:
///
/// * `uncached_serial`  — `decomposed_eval: false`: the oracle, a
///   whole-workload re-plan per evaluated configuration.
/// * `cached_serial`    — decomposed delta-cost evaluation.
///
/// The two arms must produce byte-identical recommendations; the run
/// aborts otherwise. Each arm runs once on fresh counters; its
/// `db.whatif_calls`, `estimator.inference_calls` and
/// `estimator.cost_cache.{hits,misses}` are recorded as `cost_cache`
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
        universe.intern(d.clone());
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
        // A run-local term cache: every arm starts cold.
        let cache = CostCache::new();
        let decomposed = cfg.decomposed_eval;
        let mut pricer = DeltaPricer::new(&universe, &shapes, &keys, db, &est, &cache, decomposed);
        search.run(&mut tree, &mut pricer)
    };

    let mut reports: Vec<Json> = Vec::new();
    let mut outcomes: Vec<SearchOutcome> = Vec::new();
    for (name, cfg) in &arms {
        let db = SimDb::with_metrics(
            catalog.clone(),
            SimDbConfig::default(),
            MetricsRegistry::new(),
        );
        let outcome = run_once(cfg, &db);
        let m = db.metrics();
        reports.push(obj([
            ("arm", Json::from(*name)),
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

    // Prepared == planned over a `fleet_oltp` tenant pair's streams and
    // `bank_write_263`'s withdrawals (seed 2024, as `perf/` generates them).
    for tenant in fleet_workload(2, 4_096, 2024) {
        let stream = format!("fleet_oltp.{}", tenant.name);
        prepared_equals_planned(&stream, tenant.catalog, tenant.dba_indexes, &tenant.queries);
    }
    let withdrawals = BankingGenerator::new(2024).generate_withdrawal(20_000);
    prepared_equals_planned(
        "bank_write_263",
        banking::catalog(),
        banking::dba_indexes(),
        &withdrawals,
    );

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
    ]);
    autoindex_bench::record("cost_cache", &doc);
}
