//! Drift-recovery strategy matrix: greedy, MCTS and the C²UCB bandit
//! across the four `autoindex_workloads::drift` scenarios. Records the
//! `drift_matrix` result (`autoindex_bench::record`).
//!
//! Every (scenario × strategy) cell replays the same deterministic
//! statement stream in fixed-size rounds: execute + observe the round,
//! feed the measured mean back as the bandit's reward, account regret
//! against the scenario's hindsight oracle, then run one tuning session
//! with the strategy under test. The oracle is computed once per
//! scenario — a fresh advisor observes the *entire* stream (hindsight)
//! and its MCTS recommendation is frozen onto a shadow database with the
//! same simulator seed, which then replays the identical statements per
//! round; the per-round oracle means feed
//! [`autoindex_core::RegretAccounter`].
//!
//! Reported per cell: cumulative regret (simulated ms), recovery time
//! after the drift point (rounds until the measured round mean first
//! reaches the scenario's SLO; `post_rounds` if it never does), and the
//! final round mean. All simulated-time metrics — host independent and
//! byte-stable, so the recorded document must equal
//! `crates/bench/baselines/drift_matrix.json` **exactly**.
//!
//! Gates (the run aborts otherwise):
//!
//! 1. the bandit beats or ties greedy's cumulative regret on at least
//!    2 of the 4 scenarios;
//! 2. every strategy recovers on every scenario (recovery < post_rounds);
//! 3. a mini-fleet run with `tuner_strategy = bandit` produces identical
//!    transcript digests at 1 and 2 workers (worker-count invariance
//!    holds with the bandit in the tuner slot).

use autoindex_bench::record;
use autoindex_core::{
    serve_fleet, AutoIndex, AutoIndexConfig, FleetConfig, FleetTenant, RegretAccounter,
    StrategyKind, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::drift::{drift_scenarios, DriftScenario};
use autoindex_workloads::fleet::fleet_workload;
use std::sync::Arc;

const SEED: u64 = 77;
const STATEMENTS: usize = 1_200;
const ROUND: usize = 100;
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Greedy,
    StrategyKind::Mcts,
    StrategyKind::Bandit,
];
const REQUIRED_BANDIT_WINS: u64 = 2;

const FLEET_TENANTS: usize = 8;
const FLEET_STATEMENTS: usize = 2_000;
const FLEET_EPOCH: u64 = 256;

struct Cell {
    scenario: &'static str,
    strategy: StrategyKind,
    cumulative_regret_ms: f64,
    recovery_rounds: u64,
    post_rounds: u64,
    final_mean_ms: f64,
    curve_digest: u64,
}

/// Build the scenario database: fixed simulator seed (the regret
/// comparison depends on live and oracle replays drawing identical
/// noise), starting DBA index mix applied.
fn build_db(s: &DriftScenario) -> SimDb {
    let cfg = SimDbConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut db = SimDb::with_metrics(s.catalog.clone(), cfg, MetricsRegistry::new());
    for d in &s.start_indexes {
        let _ = db.create_index(d.clone());
    }
    db
}

/// Per-round mean simulated latencies of the frozen hindsight-oracle
/// configuration: observe the whole stream, freeze the MCTS
/// recommendation onto a shadow database, replay.
fn oracle_round_means(s: &DriftScenario) -> (Vec<autoindex_storage::index::IndexDef>, Vec<f64>) {
    let mut db = build_db(s);
    let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    for q in &s.queries {
        advisor.observe(q, &db).expect("scenario SQL templates");
    }
    let rec = advisor
        .session(&mut db)
        .recommend_only()
        .run()
        .expect("oracle recommendation")
        .report
        .recommendation;
    // Freeze: apply the hindsight diff to a fresh shadow database.
    let mut shadow = build_db(s);
    for d in &rec.remove {
        if let Some(id) = shadow.find_index(d) {
            let _ = shadow.drop_index(id);
        }
    }
    for d in &rec.add {
        let _ = shadow.create_index(d.clone());
    }
    let oracle: Vec<_> = shadow.indexes().map(|(_, d)| d.clone()).collect();
    let mut means = Vec::new();
    for round in s.queries.chunks(ROUND) {
        let mut total = 0.0;
        for q in round {
            let stmt = autoindex_sql::parse_statement(q).expect("scenario SQL parses");
            total += shadow.execute(&stmt).latency_ms;
        }
        means.push(total / round.len() as f64);
    }
    (oracle, means)
}

/// One (scenario × strategy) cell: round-by-round replay with tuning.
fn run_cell(
    s: &DriftScenario,
    kind: StrategyKind,
    oracle: &[autoindex_storage::index::IndexDef],
    oracle_means: &[f64],
) -> Cell {
    let mut db = build_db(s);
    let cfg = AutoIndexConfig {
        strategy: kind,
        ..AutoIndexConfig::default()
    };
    let mut advisor = AutoIndex::new(cfg, NativeCostEstimator);
    let mut regret = RegretAccounter::new(oracle.to_vec());
    let drift_round = s.drift_at / ROUND;
    let total_rounds = s.queries.len().div_ceil(ROUND);
    let post_rounds = (total_rounds - drift_round) as u64;
    let mut recovery_rounds = post_rounds;
    let mut final_mean = 0.0;
    let mut post_means: Vec<f64> = Vec::new();
    for (r, round) in s.queries.chunks(ROUND).enumerate() {
        let mut total = 0.0;
        for q in round {
            let stmt = autoindex_sql::parse_statement(q).expect("scenario SQL parses");
            total += db.execute(&stmt).latency_ms;
            advisor.observe(q, &db).expect("scenario SQL templates");
        }
        let mean = total / round.len() as f64;
        final_mean = mean;
        if r >= drift_round {
            post_means.push(mean);
        }
        // Close the bandit's loop before the next proposal; greedy and
        // MCTS ignore the reward (their `observe_reward` is a no-op).
        advisor.observe_reward(mean);
        regret.observe_round(mean, oracle_means[r], round.len() as u64, db.metrics());
        if r >= drift_round && mean <= s.slo_mean_ms && recovery_rounds == post_rounds {
            recovery_rounds = (r - drift_round) as u64;
        }
        advisor.session(&mut db).run().expect("tuning session");
        db.reset_usage();
    }
    eprintln!(
        "    {:>6} post-drift round means (SLO {}): {}",
        kind.name(),
        s.slo_mean_ms,
        post_means
            .iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Cell {
        scenario: s.name,
        strategy: kind,
        cumulative_regret_ms: regret.cumulative_ms(),
        recovery_rounds,
        post_rounds,
        final_mean_ms: final_mean,
        curve_digest: regret.curve_digest(),
    }
}

/// Mini-fleet with the bandit wired into the tuner slot, run at two
/// worker counts: the PR 8 worker-count-invariance contract must keep
/// holding with `tuner_strategy = Some(Bandit)`.
fn fleet_bandit_digest(workers: usize) -> u64 {
    let tenants: Vec<FleetTenant<NativeCostEstimator>> =
        fleet_workload(FLEET_TENANTS, FLEET_STATEMENTS, SEED)
            .into_iter()
            .map(|w| {
                let db_cfg = SimDbConfig {
                    seed: w.seed,
                    ..Default::default()
                };
                let mut db = SimDb::with_metrics(w.catalog, db_cfg, MetricsRegistry::new());
                for d in w.dba_indexes {
                    let _ = db.create_index(d);
                }
                FleetTenant {
                    spec: TenantSpec {
                        name: w.name,
                        priority: w.priority,
                        slo_p50_ms: w.slo_p50_ms,
                        slo_p99_ms: w.slo_p99_ms,
                    },
                    db,
                    advisor: AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
                    queries: Arc::new(w.queries),
                }
            })
            .collect();
    let cfg = FleetConfig::builder()
        .workers(workers)
        .epoch_interval(FLEET_EPOCH)
        .tuner_strategy(StrategyKind::Bandit)
        .build()
        .expect("static fleet config");
    serve_fleet(tenants, cfg)
        .expect("fleet run")
        .report
        .transcript_digest()
}

fn main() {
    let scenarios = drift_scenarios(SEED, STATEMENTS);
    let mut cells: Vec<Cell> = Vec::new();
    for s in &scenarios {
        let (oracle, oracle_means) = oracle_round_means(s);
        eprintln!(
            "{}: oracle = {} indexes, post-drift oracle mean {:.2} sim-ms",
            s.name,
            oracle.len(),
            oracle_means[s.drift_at / ROUND..].iter().sum::<f64>()
                / (oracle_means.len() - s.drift_at / ROUND) as f64
        );
        for &kind in &STRATEGIES {
            let cell = run_cell(s, kind, &oracle, &oracle_means);
            eprintln!(
                "  {:>6}: regret {:>10.1} sim-ms | recovery {}/{} rounds | final mean {:.2}",
                kind.name(),
                cell.cumulative_regret_ms,
                cell.recovery_rounds,
                cell.post_rounds,
                cell.final_mean_ms,
            );
            cells.push(cell);
        }
    }

    // ---- gates ----
    let regret_of = |scenario: &str, kind: StrategyKind| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.strategy == kind)
            .expect("cell")
            .cumulative_regret_ms
    };
    let bandit_wins: u64 = scenarios
        .iter()
        .filter(|s| {
            regret_of(s.name, StrategyKind::Bandit) <= regret_of(s.name, StrategyKind::Greedy)
        })
        .count() as u64;
    assert!(
        bandit_wins >= REQUIRED_BANDIT_WINS,
        "bandit beat/tied greedy regret on only {bandit_wins} scenarios (need >= {REQUIRED_BANDIT_WINS})"
    );
    for c in &cells {
        assert!(
            c.recovery_rounds < c.post_rounds,
            "{} / {} never recovered to SLO",
            c.scenario,
            c.strategy
        );
    }

    // Matrix-wide determinism fingerprint: FNV-1a over every cell's
    // curve digest, in matrix order.
    let regret_digest = cells.iter().fold(FNV_OFFSET, |h, c| {
        fnv1a_from(h, &c.curve_digest.to_le_bytes())
    });

    let d1 = fleet_bandit_digest(1);
    let d2 = fleet_bandit_digest(2);
    let fleet_invariant = d1 == d2;
    assert!(
        fleet_invariant,
        "bandit fleet transcripts diverged across worker counts: {d1:016x} vs {d2:016x}"
    );
    eprintln!("fleet(bandit) digest {d1:016x} — worker-count invariant");

    let doc = obj([
        ("bench", Json::from("drift_matrix")),
        (
            "workload",
            Json::from(format!(
                "4 drift scenarios x {STATEMENTS} statements, round {ROUND}, \
                 strategies greedy/mcts/bandit, seed {SEED}"
            )),
        ),
        (
            "metric",
            Json::from(
                "cumulative_regret_ms vs frozen hindsight-oracle config (simulated time \
                 domain; host independent); recovery_rounds = post-drift rounds until the \
                 round mean first reaches the scenario SLO",
            ),
        ),
        ("scenarios", Json::from(scenarios.len() as u64)),
        ("strategies", Json::from(STRATEGIES.len() as u64)),
        ("bandit_wins_vs_greedy", Json::from(bandit_wins)),
        ("regret_digest", Json::from(format!("{regret_digest:016x}"))),
        ("fleet_bandit_digest", Json::from(format!("{d1:016x}"))),
        ("fleet_bandit_invariant", Json::from(fleet_invariant)),
        (
            "rows",
            Json::Array(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("scenario", Json::from(c.scenario)),
                            ("strategy", Json::from(c.strategy.name())),
                            ("cumulative_regret_ms", Json::from(c.cumulative_regret_ms)),
                            ("recovery_rounds", Json::from(c.recovery_rounds)),
                            ("post_rounds", Json::from(c.post_rounds)),
                            ("final_mean_ms", Json::from(c.final_mean_ms)),
                            (
                                "curve_digest",
                                Json::from(format!("{:016x}", c.curve_digest)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gate",
            obj([
                ("required_bandit_wins", Json::from(REQUIRED_BANDIT_WINS)),
                (
                    "required_recovery",
                    Json::from("recovery_rounds < post_rounds for every cell"),
                ),
            ]),
        ),
    ]);
    record("drift_matrix", &doc);
}
