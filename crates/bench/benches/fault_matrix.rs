//! Fault matrix: the guarded online loop under increasing fault rates,
//! plus a direct guarded-apply matrix. Records the `fault_matrix` result
//! (`autoindex_bench::record`; protocol: `docs/ROBUSTNESS.md` §"Fault
//! matrix").
//!
//! For each fault rate in {0%, 1%, 5%, 20%} — applied uniformly to index
//! builds, transient execution errors, latency spikes and stale
//! statistics — the bench runs:
//!
//! 1. **Online arm.** A guarded [`OnlineAutoIndex`] over a drifting
//!    two-phase ticket workload (6 000 statements, fixed seeds). Reports
//!    tuning rounds, guard transitions and mean measured latency — the
//!    quality signal: the guard must keep the loop useful as the
//!    environment degrades, not just survive it.
//! 2. **Apply arm.** 40 guarded applies of a fixed add/drop
//!    recommendation on fresh databases with derived fault seeds and
//!    zero build retries. Every apply is checked for atomicity (catalog
//!    == pre-apply or fully-applied, never partial); the rollback count
//!    scales with the fault rate.
//!
//! Regression gates (the run aborts otherwise): zero rollbacks at 0%
//! fault, at least one rollback at 20%, and no panics anywhere.

use autoindex_bench::record;
use autoindex_core::online::{OnlineAutoIndex, OnlineConfig, OnlineEvent};
use autoindex_core::{
    apply_atomically, ApplyVerdict, AutoIndex, AutoIndexConfig, GuardConfig, Recommendation,
    RollbackReason,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::index::IndexDef;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::derive_seed;
use std::collections::BTreeSet;

const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];
const ONLINE_STATEMENTS: usize = 3_000; // per phase
const APPLY_RUNS: usize = 40;

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

struct OnlineArm {
    rate: f64,
    executed: u64,
    tuning_rounds: u64,
    guard_applies: u64,
    rollbacks: u64,
    shadow_rejects: u64,
    probation_passes: u64,
    observe_only: u64,
    build_failures: u64,
    absorbed_retries: u64,
    mean_latency_ms: f64,
    final_indexes: usize,
    guard_counters: Vec<(String, u64)>,
    fault_counters: Vec<(String, u64)>,
}

fn online_arm(rate: f64, idx: u64) -> OnlineArm {
    let mut db = SimDb::with_metrics(
        tickets_catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    db.create_index(IndexDef::new("tickets", &["ticket_id"]))
        .expect("primary key index");
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
        // The gate the whole PR exists for: the loop never panics and
        // never reports an event that contradicts the catalog.
        if let OnlineEvent::RolledBack(_) = out.event {
            assert!(
                online.guard().is_some(),
                "rollback event without a guard installed"
            );
        }
    }
    let m = online.db().metrics();
    OnlineArm {
        rate,
        executed: online.executed(),
        tuning_rounds: online.tuning_rounds,
        guard_applies: m.counter_value("guard.applies"),
        rollbacks: m.counter_value("guard.rollbacks"),
        shadow_rejects: m.counter_value("guard.shadow_rejects"),
        probation_passes: m.counter_value("guard.probation_passes"),
        observe_only: m.counter_value("guard.observe_only_entries"),
        build_failures: m.counter_value("db.fault.build_failures"),
        absorbed_retries: m.counter_value("db.fault.absorbed_retries"),
        mean_latency_ms: total_latency / samples.max(1) as f64,
        final_indexes: online.db().index_count(),
        guard_counters: m.counters_with_prefix("guard."),
        fault_counters: m.counters_with_prefix("db.fault."),
    }
}

struct ApplyArm {
    rate: f64,
    runs: usize,
    applied: usize,
    rollbacks: usize,
    build_faults: u64,
}

fn apply_arm(rate: f64, idx: u64) -> ApplyArm {
    let rec = Recommendation {
        add: vec![
            IndexDef::new("tickets", &["user_id"]),
            IndexDef::new("tickets", &["queue", "priority"]),
        ],
        remove: vec![IndexDef::new("tickets", &["opened_at"])],
        est_cost_before: 100.0,
        est_cost_after: 40.0,
    };
    let mut applied = 0usize;
    let mut rollbacks = 0usize;
    let mut build_faults = 0u64;
    for run in 0..APPLY_RUNS {
        let mut db = SimDb::with_metrics(
            tickets_catalog(),
            SimDbConfig::default(),
            MetricsRegistry::new(),
        );
        db.create_index(IndexDef::new("tickets", &["ticket_id"]))
            .unwrap();
        db.create_index(IndexDef::new("tickets", &["opened_at"]))
            .unwrap();
        let pre: BTreeSet<String> = db.indexes().map(|(_, d)| d.key()).collect();
        let mut expected = pre.clone();
        for d in &rec.remove {
            expected.remove(&d.key());
        }
        for d in &rec.add {
            expected.insert(d.key());
        }
        db.set_fault_plan(plan_for(
            rate,
            derive_seed(0xAB_11, idx * 1000 + run as u64),
        ));

        let cfg = GuardConfig {
            build_retries: 0,
            ..GuardConfig::default()
        };
        let (_, _, verdict) = apply_atomically(&mut db, &rec, &cfg);
        let post: BTreeSet<String> = db.indexes().map(|(_, d)| d.key()).collect();
        match verdict {
            ApplyVerdict::Applied => {
                assert_eq!(post, expected, "fault rate {rate}: partial apply");
                applied += 1;
            }
            ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
                build_faults: f, ..
            }) => {
                assert_eq!(post, pre, "fault rate {rate}: partial rollback");
                rollbacks += 1;
                build_faults += f as u64;
            }
            ApplyVerdict::RolledBack(other) => {
                panic!("fault rate {rate}: an apply rolls back on build faults only: {other:?}")
            }
            ApplyVerdict::ShadowRejected { .. } => {
                panic!("shadow must admit a 60% improvement")
            }
        }
    }
    ApplyArm {
        rate,
        runs: APPLY_RUNS,
        applied,
        rollbacks,
        build_faults,
    }
}

fn main() {
    let mut online_rows = Vec::new();
    let mut apply_rows = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        eprintln!("fault rate {:>5.1}%: online arm ...", rate * 100.0);
        let o = online_arm(rate, i as u64);
        eprintln!(
            "  executed {} | rounds {} | applies {} | rollbacks {} | mean {:.3} ms",
            o.executed, o.tuning_rounds, o.guard_applies, o.rollbacks, o.mean_latency_ms
        );
        let a = apply_arm(rate, i as u64);
        eprintln!(
            "  apply arm: {}/{} applied, {} rollbacks, {} build faults",
            a.applied, a.runs, a.rollbacks, a.build_faults
        );
        online_rows.push(o);
        apply_rows.push(a);
    }

    // Regression gates.
    assert_eq!(
        online_rows[0].rollbacks + apply_rows[0].rollbacks as u64,
        0,
        "no faults must mean no rollbacks"
    );
    assert!(
        online_rows[3].rollbacks + apply_rows[3].rollbacks as u64 >= 1,
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
        (
            "online",
            Json::Array(
                online_rows
                    .iter()
                    .map(|o| {
                        obj([
                            ("fault_rate", Json::from(o.rate)),
                            ("executed", Json::from(o.executed)),
                            ("tuning_rounds", Json::from(o.tuning_rounds)),
                            ("guard_applies", Json::from(o.guard_applies)),
                            ("rollbacks", Json::from(o.rollbacks)),
                            ("shadow_rejects", Json::from(o.shadow_rejects)),
                            ("probation_passes", Json::from(o.probation_passes)),
                            ("observe_only_entries", Json::from(o.observe_only)),
                            ("build_failures", Json::from(o.build_failures)),
                            ("absorbed_retries", Json::from(o.absorbed_retries)),
                            ("mean_latency_ms", Json::from(o.mean_latency_ms)),
                            ("final_indexes", Json::from(o.final_indexes as u64)),
                            (
                                "guard_counters",
                                Json::Object(
                                    o.guard_counters
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                                        .collect(),
                                ),
                            ),
                            (
                                "fault_counters",
                                Json::Object(
                                    o.fault_counters
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "guarded_applies",
            Json::Array(
                apply_rows
                    .iter()
                    .map(|a| {
                        obj([
                            ("fault_rate", Json::from(a.rate)),
                            ("runs", Json::from(a.runs as u64)),
                            ("applied", Json::from(a.applied as u64)),
                            ("rollbacks", Json::from(a.rollbacks as u64)),
                            ("build_faults", Json::from(a.build_faults)),
                            (
                                "rollback_rate",
                                Json::from(a.rollbacks as f64 / a.runs as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    record("fault_matrix", &doc);
}
