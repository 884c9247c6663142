//! Fault matrix: the guard under increasing fault rates, in three arms.
//! Records the `fault_matrix` result (`autoindex_bench::record`; protocol:
//! `docs/ROBUSTNESS.md` §"Fault matrix").
//!
//! A fault plan applies one rate uniformly to index builds, transient
//! execution errors, latency spikes and stale statistics ([`plan_for`]).
//!
//! 1. **Online arm**, at {0%, 1%, 5%, 20%}. A guarded [`OnlineAutoIndex`]
//!    over a drifting two-phase ticket workload (6 000 statements, fixed
//!    seeds). Reports tuning rounds, guard transitions and mean measured
//!    latency — the quality signal: the guard must keep the loop useful as
//!    the environment degrades, not just survive it. Every rollback event
//!    must leave the database at the fingerprint the event names.
//! 2. **Apply arm**, at the same rates. 40 guarded applies of a fixed
//!    add/drop recommendation on fresh databases ([`guarded_applies`]);
//!    the rollback count scales with the fault rate.
//! 3. **Chaos arm**: {banking, fleet, time-series, social-graph, saas} ×
//!    {0%, 5%, 20%}. Each cell serves its 900-statement stream through the
//!    guarded pipeline at 1 and 4 workers, then guarded-applies the
//!    advisor's own recommendation for that stream 12 times on fresh
//!    databases. The three surface workloads run with the sort-aware and
//!    covering candidate classes on. A row pins the transcript digest, the
//!    serve and apply rollbacks, and the `db.fault.*` counters of the
//!    1-worker run: which faults reach a served cell at all.
//!
//! Gates (the run aborts otherwise): every guarded apply ends fully
//! applied or exactly restored; a chaos cell's transcript and guard counts
//! do not depend on the worker count (both transcripts are printed when
//! they do); zero rollbacks at 0% fault, at least one at 20%; no panics
//! anywhere; and the document equals its baseline.

use autoindex_bench::record;
use autoindex_core::online::{OnlineAutoIndex, OnlineConfig, OnlineEvent};
use autoindex_core::{
    apply_atomically, serve, ApplyVerdict, AutoIndex, AutoIndexConfig, CandidateConfig,
    GuardConfig, Recommendation, RollbackReason, ServeConfig,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::index::IndexDef;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::fnv1a;
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::derive_seed;
use autoindex_workloads::banking::{self, BankingGenerator};
use autoindex_workloads::fleet::fleet_workload;
use autoindex_workloads::{saas, socialgraph, timeseries};
use std::collections::BTreeSet;

const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];
const ONLINE_STATEMENTS: usize = 3_000; // per phase
const APPLY_RUNS: u64 = 40;

const CHAOS_WORKLOADS: [&str; 5] = ["banking", "fleet", "time-series", "social-graph", "saas"];
const CHAOS_RATES: [f64; 3] = [0.0, 0.05, 0.20];
const CHAOS_SEED: u64 = 0xC4_05;
const CHAOS_STATEMENTS: usize = 900;
const CHAOS_APPLY_RUNS: u64 = 12;

fn tickets_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("tickets", 1_200_000)
            .column(Column::int("ticket_id", 1_200_000))
            .column(Column::int("user_id", 80_000))
            .column(Column::int("queue", 40))
            .column(Column::int("priority", 5))
            .column(Column::int("opened_at", 1_200_000).with_correlation(0.9))
            .primary_key(&["ticket_id"])
            .build()
            .expect("static schema"),
    );
    c
}

fn plan_for(rate: f64, seed: u64) -> Option<FaultPlan> {
    if rate == 0.0 {
        return None;
    }
    Some(FaultPlan::new(FaultPlanConfig {
        seed,
        build_failure: rate,
        transient_error: rate,
        latency_spike: rate,
        stale_stats: rate,
        ..FaultPlanConfig::default()
    }))
}

/// A database over `catalog` with the `start` indexes built, seeded
/// `seed`, reporting into a registry of its own.
fn fresh_db(catalog: &Catalog, start: &[IndexDef], seed: u64) -> SimDb {
    let config = SimDbConfig {
        seed,
        ..SimDbConfig::default()
    };
    let mut db = SimDb::with_metrics(catalog.clone(), config, MetricsRegistry::new());
    for d in start {
        db.create_index(d.clone()).expect("starting index");
    }
    db
}

/// Every counter of `m` under `prefix`, by name.
fn counters_json(m: &MetricsRegistry, prefix: &str) -> Json {
    let counters = m.counters_with_prefix(prefix).into_iter();
    Json::Object(counters.map(|(k, v)| (k, Json::from(v))).collect())
}

/// The online arm's row at `rate`, and its rollback count.
fn online_arm(rate: f64, idx: u64) -> (Json, u64) {
    let start = [IndexDef::new("tickets", &["ticket_id"])];
    let mut db = fresh_db(&tickets_catalog(), &start, SimDbConfig::default().seed);
    db.set_fault_plan(plan_for(rate, derive_seed(0xFA_17_BE, idx)));

    let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    let config = OnlineConfig {
        diagnosis_interval: 400,
        tuning_cooldown: 800,
        guard: Some(GuardConfig {
            build_retries: 0,
            cooldown_initial: 200,
            ..GuardConfig::default()
        }),
        ..OnlineConfig::default()
    };
    let mut online = OnlineAutoIndex::new(db, advisor, config);

    let stream: Vec<String> = (0..ONLINE_STATEMENTS)
        .map(|i| format!("SELECT * FROM tickets WHERE user_id = {}", i % 80_000))
        .chain((0..ONLINE_STATEMENTS).map(|i| {
            format!(
                "SELECT ticket_id, priority FROM tickets WHERE queue = {} AND priority = {} \
                 ORDER BY opened_at DESC LIMIT 50",
                i % 40,
                i % 5
            )
        }))
        .collect();

    let mut total_latency = 0.0;
    let mut samples = 0u64;
    for q in &stream {
        let out = online.feed(q);
        if let Some(o) = &out.outcome {
            total_latency += o.latency_ms;
            samples += 1;
        }
        // A rollback event must not contradict the catalog: the database
        // is back at the index set the event says it restored.
        if let OnlineEvent::RolledBack(reason) = &out.event {
            let (RollbackReason::ApplyFaults {
                restored_fingerprint,
                ..
            }
            | RollbackReason::ProbationRegression {
                restored_fingerprint,
                ..
            }) = reason;
            assert_eq!(
                online.db().index_fingerprint(),
                *restored_fingerprint,
                "fault rate {rate}: {reason:?} left another index set"
            );
        }
    }
    let m = online.db().metrics();
    let (rounds, rollbacks) = (online.tuning_rounds, m.counter_value("guard.rollbacks"));
    let mean_latency_ms = total_latency / samples.max(1) as f64;
    let counter = |name: &str| Json::from(m.counter_value(name));
    eprintln!(
        "  executed {} | rounds {rounds} | applies {} | rollbacks {rollbacks} | \
         mean {mean_latency_ms:.3} ms",
        online.executed(),
        m.counter_value("guard.applies"),
    );
    let row = obj([
        ("fault_rate", Json::from(rate)),
        ("executed", Json::from(online.executed())),
        ("tuning_rounds", Json::from(rounds)),
        ("guard_applies", counter("guard.applies")),
        ("rollbacks", Json::from(rollbacks)),
        ("shadow_rejects", counter("guard.shadow_rejects")),
        ("probation_passes", counter("guard.probation_passes")),
        (
            "observe_only_entries",
            counter("guard.observe_only_entries"),
        ),
        ("build_failures", counter("db.fault.build_failures")),
        ("absorbed_retries", counter("db.fault.absorbed_retries")),
        ("mean_latency_ms", Json::from(mean_latency_ms)),
        (
            "final_indexes",
            Json::from(online.db().index_count() as u64),
        ),
        ("guard_counters", counters_json(m, "guard.")),
        ("fault_counters", counters_json(m, "db.fault.")),
    ]);
    (row, rollbacks)
}

/// What one guarded-apply matrix counted.
#[derive(Default)]
struct Applies {
    applied: u64,
    rollbacks: u64,
    build_faults: u64,
}

/// Guarded-apply `rec` once per fault seed, each time on a fresh database
/// (`fresh_db(catalog, start, db_seed)`, then a [`plan_for`] `rate` plan)
/// with no build retries. Every run must be atomic: it ends with the
/// catalog fully applied or exactly as it began, never in between.
fn guarded_applies(
    catalog: &Catalog,
    start: &[IndexDef],
    db_seed: u64,
    rec: &Recommendation,
    rate: f64,
    fault_seeds: impl Iterator<Item = u64>,
) -> Applies {
    let cfg = GuardConfig {
        build_retries: 0,
        ..GuardConfig::default()
    };
    let mut out = Applies::default();
    for seed in fault_seeds {
        let mut db = fresh_db(catalog, start, db_seed);
        let pre: BTreeSet<String> = db.indexes().map(|(_, d)| d.key()).collect();
        let mut expected = pre.clone();
        for d in &rec.remove {
            expected.remove(&d.key());
        }
        for d in &rec.add {
            expected.insert(d.key());
        }
        db.set_fault_plan(plan_for(rate, seed));
        let (_, _, verdict) = apply_atomically(&mut db, rec, &cfg);
        let post: BTreeSet<String> = db.indexes().map(|(_, d)| d.key()).collect();
        match verdict {
            ApplyVerdict::Applied => {
                assert_eq!(post, expected, "fault rate {rate}: partial apply");
                out.applied += 1;
            }
            ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
                build_faults: f, ..
            }) => {
                assert_eq!(post, pre, "fault rate {rate}: partial rollback");
                out.rollbacks += 1;
                out.build_faults += f as u64;
            }
            ApplyVerdict::RolledBack(other) => {
                panic!("fault rate {rate}: an apply rolls back on build faults only: {other:?}")
            }
            ApplyVerdict::ShadowRejected { .. } => {
                panic!("fault rate {rate}: the shadow check must admit {rec:?}")
            }
        }
    }
    out
}

fn apply_arm(rate: f64, idx: u64) -> Applies {
    let rec = Recommendation {
        add: vec![
            IndexDef::new("tickets", &["user_id"]),
            IndexDef::new("tickets", &["queue", "priority"]),
        ],
        remove: vec![IndexDef::new("tickets", &["opened_at"])],
        est_cost_before: 100.0,
        est_cost_after: 40.0,
    };
    let start = [
        IndexDef::new("tickets", &["ticket_id"]),
        IndexDef::new("tickets", &["opened_at"]),
    ];
    let seeds = (0..APPLY_RUNS).map(|run| derive_seed(0xAB_11, idx * 1000 + run));
    let db_seed = SimDbConfig::default().seed;
    guarded_applies(&tickets_catalog(), &start, db_seed, &rec, rate, seeds)
}

/// A chaos workload: its catalog, starting indexes, stream, and whether
/// the surface candidate classes (sort-aware, covering) are on.
fn chaos_workload(name: &str) -> (Catalog, Vec<IndexDef>, Vec<String>, bool) {
    match name {
        "banking" => {
            let mut generator = BankingGenerator::new(CHAOS_SEED);
            let queries = (generator.generate_hybrid(CHAOS_STATEMENTS, 0.6).into_iter())
                .map(|(_, q)| q)
                .collect();
            (banking::catalog(), Vec::new(), queries, false)
        }
        "fleet" => {
            let w = fleet_workload(1, CHAOS_STATEMENTS, CHAOS_SEED).remove(0);
            (w.catalog, w.dba_indexes, w.queries, false)
        }
        "time-series" => {
            let s = timeseries::scenario(CHAOS_SEED, CHAOS_STATEMENTS);
            (s.catalog, s.start_indexes, s.queries, true)
        }
        "social-graph" => {
            let s = socialgraph::scenario(CHAOS_SEED, CHAOS_STATEMENTS);
            (s.catalog, s.start_indexes, s.queries, true)
        }
        "saas" => {
            let s = saas::scenario(CHAOS_SEED, CHAOS_STATEMENTS);
            (s.catalog, s.start_indexes, s.queries, true)
        }
        other => unreachable!("no chaos workload {other:?}"),
    }
}

/// The chaos arm's rows for one workload, one per [`CHAOS_RATES`] rate.
fn chaos_arm(workload: &str) -> Vec<Json> {
    let (catalog, start, queries, surface) = chaos_workload(workload);
    let advisor = || {
        let candidates = CandidateConfig {
            sort_aware: surface,
            covering: surface,
            ..CandidateConfig::default()
        };
        let config = AutoIndexConfig {
            candidates,
            ..AutoIndexConfig::default()
        };
        AutoIndex::new(config, NativeCostEstimator)
    };

    // The advisor's own recommendation over the stream, on a fault-free
    // database: the same for every rate.
    let mut db = fresh_db(&catalog, &start, CHAOS_SEED);
    let mut offline = advisor();
    for q in &queries {
        offline.observe(q, &db).expect("chaos SQL templates");
        let _ = db.execute(&autoindex_sql::parse_statement(q).expect("chaos SQL parses"));
    }
    let session = offline.session(&mut db).recommend_only().run();
    let rec = session.expect("chaos recommendation").report.recommendation;

    let cell = |rate: f64| {
        let served = |workers: usize| {
            let mut db = fresh_db(&catalog, &start, CHAOS_SEED);
            db.set_fault_plan(plan_for(rate, derive_seed(CHAOS_SEED, 0x5E12)));
            let cfg = ServeConfig::builder()
                .workers(workers)
                .epoch_interval(250)
                .guard(GuardConfig {
                    build_retries: 0,
                    ..GuardConfig::default()
                })
                .build()
                .expect("static serve config");
            let out = serve(db, advisor(), &queries, cfg).expect("serve run");
            let m = out.db.metrics();
            let guard = (
                m.counter_value("guard.rollbacks"),
                m.counter_value("guard.applies"),
            );
            (
                out.report.transcript(),
                guard,
                counters_json(m, "db.fault."),
            )
        };
        let (t1, guard1, fault_counters) = served(1);
        let (t4, guard4, _) = served(4);
        assert!(
            t1 == t4 && guard1 == guard4,
            "{workload} @ {rate}: serve transcripts diverged across worker counts \
             (rollbacks, applies: {guard1:?} vs {guard4:?})\n\
             --- 1 worker ---\n{t1}\n--- 4 workers ---\n{t4}"
        );
        let seeds = (0..CHAOS_APPLY_RUNS).map(|run| derive_seed(CHAOS_SEED, 0xAB_11 ^ run));
        let applies = guarded_applies(&catalog, &start, CHAOS_SEED, &rec, rate, seeds);
        let digest = format!("{:016x}", fnv1a(t1.as_bytes()));
        eprintln!(
            "chaos {workload:<12} @ {:>2.0}%: digest {digest} | rollbacks serve {} / apply {}",
            rate * 100.0,
            guard1.0,
            applies.rollbacks
        );
        obj([
            ("workload", Json::from(workload)),
            ("fault_rate", Json::from(rate)),
            ("digest", Json::from(digest)),
            ("serve_rollbacks", Json::from(guard1.0)),
            ("apply_rollbacks", Json::from(applies.rollbacks)),
            ("fault_counters", fault_counters),
        ])
    };
    CHAOS_RATES.iter().map(|&rate| cell(rate)).collect()
}

fn main() {
    let (mut online_rows, mut online_rollbacks, mut apply_rows) = (vec![], vec![], vec![]);
    for (i, &rate) in RATES.iter().enumerate() {
        eprintln!("fault rate {:>5.1}%: online arm ...", rate * 100.0);
        let (row, rollbacks) = online_arm(rate, i as u64);
        let a = apply_arm(rate, i as u64);
        eprintln!(
            "  apply arm: {}/{} applied, {} rollbacks, {} build faults",
            a.applied, APPLY_RUNS, a.rollbacks, a.build_faults
        );
        online_rows.push(row);
        online_rollbacks.push(rollbacks);
        apply_rows.push(a);
    }
    let chaos_rows = CHAOS_WORKLOADS.into_iter().flat_map(chaos_arm).collect();

    // Regression gates.
    assert_eq!(
        online_rollbacks[0] + apply_rows[0].rollbacks,
        0,
        "no faults must mean no rollbacks"
    );
    assert!(
        online_rollbacks[3] + apply_rows[3].rollbacks >= 1,
        "20% faults must force at least one rollback"
    );
    assert!(
        apply_rows[3].rollbacks >= apply_rows[1].rollbacks,
        "rollbacks must not decrease from 1% to 20%"
    );

    let doc = obj([
        ("bench", Json::from("fault_matrix")),
        (
            "workload",
            Json::from(format!(
                "tickets drift, {} statements, guarded online loop",
                2 * ONLINE_STATEMENTS
            )),
        ),
        (
            "fault_model",
            Json::from(
                "uniform rate over build failures, transient errors, latency spikes, stale stats",
            ),
        ),
        ("online", Json::Array(online_rows)),
        (
            "guarded_applies",
            Json::Array(
                RATES
                    .iter()
                    .zip(&apply_rows)
                    .map(|(&rate, a)| {
                        obj([
                            ("fault_rate", Json::from(rate)),
                            ("runs", Json::from(APPLY_RUNS)),
                            ("applied", Json::from(a.applied)),
                            ("rollbacks", Json::from(a.rollbacks)),
                            ("build_faults", Json::from(a.build_faults)),
                            (
                                "rollback_rate",
                                Json::from(a.rollbacks as f64 / APPLY_RUNS as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("chaos", Json::Array(chaos_rows)),
    ]);
    record("fault_matrix", &doc);
}
