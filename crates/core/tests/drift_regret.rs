//! Drift-recovery regret, one scenario: on the flash-crowd stream the
//! C²UCB bandit's cumulative regret against the frozen hindsight oracle
//! must beat or tie greedy's — the measured-reward loop may not lose to
//! the estimate-only baseline on the scenario it is built for. A
//! scaled-down round-by-round replay of the `drift_matrix` bench (one
//! scenario, two strategies); see `EXPERIMENTS.md` §"Drift matrix".

use autoindex_core::{AutoIndex, AutoIndexConfig, RegretAccounter, StrategyKind};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::parse_statement;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::drift::flash_crowd;

const ROUND: usize = 100;

#[test]
fn bandit_regret_does_not_exceed_greedy_on_flash_crowd() {
    let s = flash_crowd(77, 600);
    let build_db = || {
        let cfg = SimDbConfig {
            seed: 77,
            ..Default::default()
        };
        let mut db = SimDb::with_metrics(s.catalog.clone(), cfg, MetricsRegistry::new());
        for d in &s.start_indexes {
            let _ = db.create_index(d.clone());
        }
        db
    };
    // Frozen hindsight oracle: observe the whole stream, freeze the MCTS
    // recommendation onto a shadow database with the same simulator seed,
    // replay per round.
    let mut db = build_db();
    let mut hindsight = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    for q in &s.queries {
        hindsight.observe(q, &db).unwrap();
    }
    let rec = hindsight
        .session(&mut db)
        .recommend_only()
        .run()
        .unwrap()
        .report
        .recommendation;
    let mut shadow = build_db();
    for d in &rec.remove {
        if let Some(id) = shadow.find_index(d) {
            let _ = shadow.drop_index(id);
        }
    }
    for d in &rec.add {
        let _ = shadow.create_index(d.clone());
    }
    let oracle: Vec<_> = shadow.indexes().map(|(_, d)| d.clone()).collect();
    let oracle_means: Vec<f64> = s
        .queries
        .chunks(ROUND)
        .map(|round| {
            let total: f64 = round
                .iter()
                .map(|q| shadow.execute(&parse_statement(q).unwrap()).latency_ms)
                .sum();
            total / round.len() as f64
        })
        .collect();

    let regret_for = |kind: StrategyKind| {
        let mut db = build_db();
        let cfg = AutoIndexConfig {
            strategy: kind,
            ..AutoIndexConfig::default()
        };
        let mut advisor = AutoIndex::new(cfg, NativeCostEstimator);
        let mut regret = RegretAccounter::new(oracle.clone());
        for (round, oracle_mean) in s.queries.chunks(ROUND).zip(&oracle_means) {
            let mut total = 0.0;
            for q in round {
                total += db.execute(&parse_statement(q).unwrap()).latency_ms;
                advisor.observe(q, &db).unwrap();
            }
            let mean = total / round.len() as f64;
            advisor.observe_reward(mean);
            regret.observe_round(mean, *oracle_mean, round.len() as u64, db.metrics());
            advisor.session(&mut db).run().unwrap();
            db.reset_usage();
        }
        regret.cumulative_ms()
    };
    let bandit = regret_for(StrategyKind::Bandit);
    let greedy = regret_for(StrategyKind::Greedy);
    assert!(
        bandit <= greedy,
        "bandit cumulative regret {bandit:.3} sim-ms exceeds greedy {greedy:.3}"
    );
}
