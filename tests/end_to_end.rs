//! Cross-crate integration tests: the full AutoIndex pipeline against each
//! workload family, exercising templating, candidate generation, MCTS,
//! baselines, diagnosis, the estimator and the simulated database
//! together.

use autoindex::core::StrategyKind;
use autoindex::prelude::*;
use autoindex::storage::shape::QueryShape;
use autoindex::workloads::{banking, epidemic, tpcc, tpcds};

fn learned_estimator(
    db: &mut SimDb,
    queries: &[String],
    pool: &[IndexDef],
) -> LearnedCostEstimator {
    let stmts: Vec<Statement> = queries
        .iter()
        .take(1_500)
        .map(|q| parse_statement(q).expect("generated SQL parses"))
        .collect();
    let set = TrainingSet::collect(db, &stmts, pool, &CollectConfig::default());
    LearnedCostEstimator::new(set.train(&TrainConfig::default()).expect("samples exist"))
}

#[test]
fn tpcc_pipeline_improves_measured_latency() {
    let scenario = tpcc::scenario(tpcc::TpccScale::X1);
    let mut db = SimDb::new(scenario.catalog.clone(), SimDbConfig::default());
    for d in &scenario.default_indexes {
        db.create_index(d.clone()).unwrap();
    }
    let queries = tpcc::TpccGenerator::new(tpcc::TpccScale::X1, 42).generate(150);
    let stmts: Vec<Statement> = queries
        .iter()
        .map(|q| parse_statement(q).unwrap())
        .collect();

    let before = db.run_workload(&stmts).total_latency_ms;

    let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    assert_eq!(ai.observe_batch(queries.iter().map(String::as_str), &db), 0);
    assert!(ai.template_count() > 5 && ai.template_count() < 100);
    let report = ai.session(&mut db).run().unwrap().report;
    assert!(
        !report.created.is_empty(),
        "TPC-C default config must be improvable"
    );

    let after = db.run_workload(&stmts).total_latency_ms;
    assert!(
        after < before,
        "tuning must reduce measured latency: {before} -> {after}"
    );
}

#[test]
fn tpcds_pipeline_covers_more_queries_than_greedy_leaves_at_zero() {
    let scenario = tpcds::scenario();
    let mut db = SimDb::new(scenario.catalog.clone(), SimDbConfig::default());
    for d in &scenario.default_indexes {
        db.create_index(d.clone()).unwrap();
    }
    let named = tpcds::queries(3);
    let queries: Vec<String> = named.iter().map(|(_, q)| q.clone()).collect();
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    let report = ai.session(&mut db).run().unwrap().report;
    assert!(
        report.created.len() >= 4,
        "TPC-DS should motivate several indexes, got {:?}",
        report.recommendation.add
    );
    // The recommendation must genuinely help the workload.
    assert!(report.recommendation.improvement() > 0.2);
}

#[test]
fn banking_diagnosis_and_removal_round_trip() {
    let cfg = SimDbConfig {
        memory_bytes: 4 * (1 << 30),
        ..SimDbConfig::default()
    };
    let mut db = SimDb::new(banking::catalog(), cfg);
    for d in banking::dba_indexes() {
        db.create_index(d).unwrap();
    }
    let mut generator = banking::BankingGenerator::new(1);
    let queries = generator.generate_withdrawal(3_000);

    // Estimator that understands maintenance.
    let pool = vec![
        IndexDef::new("withdraw_flow", &["acct_id", "ts"]),
        IndexDef::new("account", &["balance"]),
    ];
    let est = learned_estimator(&mut db, &queries, &pool);

    let mut ai = AutoIndex::new(AutoIndexConfig::default(), est);
    ai.observe_batch(queries.iter().map(String::as_str), &db);

    // Execute some traffic so usage counters exist for diagnosis.
    for q in queries.iter().take(1_000) {
        let stmt = parse_statement(q).unwrap();
        db.execute(&stmt);
    }
    let diag = ai.diagnose(&db);
    assert!(diag.should_tune, "bloated DBA config must trip diagnosis");

    let before_count = db.index_count();
    let report = ai.session(&mut db).run().unwrap().report;
    assert!(
        report.dropped.len() > before_count / 2,
        "most of the 263 DBA indexes are dead weight; dropped only {}",
        report.dropped.len()
    );
    // The lookup index that serves the withdrawal flow must survive.
    let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
    assert!(
        keys.iter().any(|k| k == "account(acct_id)"),
        "hot account lookup index dropped: {keys:?}"
    );
}

#[test]
fn banking_tuning_round_produces_truthful_telemetry() {
    // Acceptance: a tuning round on the banking workload yields (a) a
    // TuningReport with a real (non-zero) evaluation count, and (b) a
    // metrics snapshot — serialized through the in-repo JSON writer — with
    // non-zero mcts.iterations, db.whatif_calls and eval-cache statistics.
    //
    // A private registry keeps the counts exact even when other tests run
    // concurrently against the process-global registry.
    let metrics = MetricsRegistry::new();
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig {
            memory_bytes: 4 * (1 << 30),
            ..SimDbConfig::default()
        },
        metrics.clone(),
    );
    for d in banking::dba_indexes() {
        db.create_index(d).unwrap();
    }
    let mut generator = banking::BankingGenerator::new(7);
    let queries = generator.generate_withdrawal(2_000);

    // The banking universe is large (263 DBA indexes + candidates), so give
    // the search enough budget to exhaust the root's untried actions and
    // genuinely revisit configurations — that is what exercises the eval
    // cache (and, before the ConfigSet canonicalization fix, what failed
    // to hit it).
    let mut ai = AutoIndex::new(
        AutoIndexConfig {
            mcts: MctsConfig {
                iterations: 1_200,
                patience: 1_200,
                ..MctsConfig::default()
            },
            ..AutoIndexConfig::default()
        },
        NativeCostEstimator,
    );
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    for q in queries.iter().take(500) {
        db.execute(&parse_statement(q).unwrap());
    }
    let report = ai.session(&mut db).run().unwrap().report;

    // (a) The report carries the real evaluation count (was hardcoded 0).
    assert!(report.evaluations > 0, "report must count evaluations");
    assert!(report.candidates_generated > 0);
    let rate = report.eval_cache_hit_rate();
    assert!((0.0..=1.0).contains(&rate));

    // (b) The snapshot round-trips through the in-repo JSON writer and
    // carries non-zero core counters.
    let snapshot = metrics.snapshot();
    let text = snapshot.to_string();
    let parsed = Json::parse(&text).expect("snapshot is valid JSON");
    assert_eq!(parsed, snapshot, "snapshot round-trips");
    let counter = |name: &str| -> f64 {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("counter {name:?} missing from snapshot"))
    };
    assert!(counter("mcts.iterations") > 0.0);
    assert!(counter("db.whatif_calls") > 0.0);
    assert!(counter("mcts.eval_cache.misses") > 0.0);
    assert!(counter("mcts.eval_cache.hits") > 0.0);
    assert!(counter("estimator.inference_calls") > 0.0);
    assert!(counter("db.executions") >= 500.0);
    // Cross-check: the report's search-phase miss count matches the
    // registry (private registry ⇒ exact).
    assert_eq!(
        counter("mcts.eval_cache.misses") as usize,
        report.search_evaluations
    );
    assert_eq!(
        counter("mcts.eval_cache.hits") as usize,
        report.eval_cache_hits
    );
}

#[test]
fn epidemic_three_phase_story() {
    let mut db = SimDb::new(epidemic::catalog(), SimDbConfig::default());
    for d in epidemic::default_indexes() {
        db.create_index(d).unwrap();
    }
    let mut generator = epidemic::EpidemicGenerator::new(2);

    // Calibrate a learned estimator across all phases.
    let mut history = Vec::new();
    for phase in [
        epidemic::Phase::W1,
        epidemic::Phase::W2,
        epidemic::Phase::W3,
    ] {
        history.extend(generator.generate(phase, 400));
    }
    let pool = vec![
        IndexDef::new("person", &["temperature"]),
        IndexDef::new("person", &["community"]),
        IndexDef::new("person", &["name", "community"]),
    ];
    let est = learned_estimator(&mut db, &history, &pool);
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), est);

    // W1: both read indexes appear.
    let w1 = generator.generate(epidemic::Phase::W1, 2_000);
    ai.observe_batch(w1.iter().map(String::as_str), &db);
    ai.session(&mut db).run().unwrap();
    let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
    assert!(
        keys.contains(&"person(temperature)".to_string()),
        "{keys:?}"
    );
    assert!(keys.contains(&"person(community)".to_string()), "{keys:?}");

    // Hard phase boundary.
    for _ in 0..16 {
        ai.force_template_decay();
    }

    // W2: the community index should fall to insert maintenance.
    let w2 = generator.generate(epidemic::Phase::W2, 3_000);
    ai.observe_batch(w2.iter().map(String::as_str), &db);
    ai.session(&mut db).run().unwrap();
    let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
    assert!(
        !keys.contains(&"person(community)".to_string()),
        "community index should be removed in the insert phase: {keys:?}"
    );
    assert!(
        keys.contains(&"person(temperature)".to_string()),
        "temperature index must survive W2: {keys:?}"
    );
}

#[test]
fn greedy_and_autoindex_share_estimator_but_differ_on_removal() {
    // A database with a harmful pre-existing index and a write-heavy
    // workload: Greedy (no removal) keeps it; AutoIndex drops it.
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableBuilder::new("t", 400_000)
            .column(Column::int("id", 400_000))
            .column(Column::int("hot", 100_000))
            .column(Column::int("warm", 2_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    let mk_db = || {
        let mut db = SimDb::new(catalog.clone(), SimDbConfig::default());
        db.create_index(IndexDef::new("t", &["id"])).unwrap();
        db.create_index(IndexDef::new("t", &["hot"])).unwrap(); // harmful
        db
    };
    let queries: Vec<String> = (0..2_000)
        .map(|i| {
            format!(
                "INSERT INTO t (id, hot, warm) VALUES ({i}, {i}, {})",
                i % 2000
            )
        })
        .collect();

    let mut db = mk_db();
    let pool = vec![IndexDef::new("t", &["hot"]), IndexDef::new("t", &["warm"])];
    let est = learned_estimator(&mut db, &queries, &pool);
    drop(db);

    // AutoIndex.
    let mut db_a = mk_db();
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), est.clone());
    ai.observe_batch(queries.iter().map(String::as_str), &db_a);
    let rep = ai.session(&mut db_a).run().unwrap().report;
    assert!(
        rep.dropped.iter().any(|d| d.key() == "t(hot)"),
        "AutoIndex must remove the write-hot index: {:?}",
        rep.dropped
    );
    // Greedy, same estimator, same stream: it has no removal path.
    let mut db_g = mk_db();
    let mut greedy = AutoIndex::new(AutoIndexConfig::default(), est);
    greedy.observe_batch(queries.iter().map(String::as_str), &db_g);
    let session = greedy.session(&mut db_g).strategy(StrategyKind::Greedy);
    let rep = session.run().unwrap().report;
    assert!(rep.dropped.is_empty(), "Greedy dropped {:?}", rep.dropped);
    assert!(
        db_g.indexes().any(|(_, d)| d.key() == "t(hot)"),
        "the write-hot index must survive Greedy"
    );
}

#[test]
fn disjunctive_workload_gets_per_arm_indexes() {
    // `a = ? OR b = ?` needs indexes on both arms plus a BitmapOr plan;
    // the candidate generator, planner and search must line up end to end.
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableBuilder::new("t", 900_000)
            .column(Column::int("id", 900_000))
            .column(Column::int("a", 450_000))
            .column(Column::int("b", 200_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    let mut db = SimDb::new(catalog, SimDbConfig::default());
    db.create_index(IndexDef::new("t", &["id"])).unwrap();

    let queries: Vec<String> = (0..400)
        .map(|i| format!("SELECT id FROM t WHERE a = {i} OR b = {}", i * 2))
        .collect();
    let stmts: Vec<Statement> = queries
        .iter()
        .map(|q| parse_statement(q).unwrap())
        .collect();
    let before = db.run_workload(&stmts).total_latency_ms;

    let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    let report = ai.session(&mut db).run().unwrap().report;
    let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
    assert!(keys.contains(&"t(a)".to_string()), "{keys:?}");
    assert!(keys.contains(&"t(b)".to_string()), "{keys:?}");
    assert!(report.recommendation.improvement() > 0.5);

    let after = db.run_workload(&stmts).total_latency_ms;
    assert!(after < before / 2.0, "{before} -> {after}");
}

#[test]
fn budgets_flow_through_the_whole_stack() {
    let scenario = tpcc::scenario(tpcc::TpccScale::X1);
    let mut db = SimDb::new(scenario.catalog.clone(), SimDbConfig::default());
    for d in &scenario.default_indexes {
        db.create_index(d.clone()).unwrap();
    }
    let pk_bytes = db.total_index_bytes();
    let budget = pk_bytes + 2 * (1 << 20); // 2 MiB of headroom.

    let queries = tpcc::TpccGenerator::new(tpcc::TpccScale::X1, 8).generate(120);
    let mut ai = AutoIndex::new(
        AutoIndexConfig {
            storage_budget: Some(budget),
            ..AutoIndexConfig::default()
        },
        NativeCostEstimator,
    );
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    ai.session(&mut db).run().unwrap();
    assert!(
        db.total_index_bytes() <= budget,
        "budget violated: {} > {budget}",
        db.total_index_bytes()
    );
}

#[test]
fn learned_estimator_ranks_write_configs_where_native_cannot() {
    let scenario = tpcc::scenario(tpcc::TpccScale::X1);
    let mut db = SimDb::new(scenario.catalog.clone(), SimDbConfig::default());
    for d in &scenario.default_indexes {
        db.create_index(d.clone()).unwrap();
    }
    let queries = tpcc::TpccGenerator::new(tpcc::TpccScale::X1, 77).generate(200);
    let pool = vec![
        IndexDef::new("order_line", &["ol_i_id"]),
        IndexDef::new("stock", &["s_quantity"]),
    ];
    let est = learned_estimator(&mut db, &queries, &pool);

    let ins = parse_statement(
        "INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_quantity, \
         ol_amount) VALUES (1, 2, 3, 4, 5, 6, 7)",
    )
    .unwrap();
    let shape = QueryShape::extract(&ins, db.catalog());
    let workload = vec![(shape.clone(), 100u64)];

    let defaults: Vec<IndexDef> = scenario.default_indexes.clone();
    let mut heavy = defaults.clone();
    heavy.push(IndexDef::new("order_line", &["ol_i_id"]));

    let native = NativeCostEstimator;
    let n0 = native.workload_cost(&db, &workload, &defaults);
    let n1 = native.workload_cost(&db, &workload, &heavy);
    assert!((n0 - n1).abs() < 1e-9, "native is maintenance-blind");

    let l0 = est.workload_cost(&db, &workload, &defaults);
    let l1 = est.workload_cost(&db, &workload, &heavy);
    assert!(
        l1 > l0,
        "learned estimator prices maintenance: {l0} vs {l1}"
    );
}
