//! PR 4 regression gates for the guarded-apply pipeline.
//!
//! 1. **Atomicity property.** For *any* seeded fault plan — arbitrary
//!    build-failure / transient / latency-spike / stale-statistics rates —
//!    a guarded apply leaves the catalog in exactly one of two states:
//!    byte-identical to the pre-apply snapshot (rollback) or the fully
//!    applied recommendation (success). Never anything in between.
//!    A fixed-seed matrix beside it keeps the property non-vacuous: no
//!    rollback without faults, at least one in 24 applies at a 20 % rate.
//! 2. **One fingerprint per index set.** After a rollback — a faulted
//!    apply or a failed probation — the database's
//!    [`SimDb::index_fingerprint`], the snapshot's and the verdict's
//!    `restored_fingerprint` are the pre-apply value, which is also what a
//!    `serve` transcript prints for that index set, however it was built;
//!    a GLOBAL and a LOCAL index on the same key read two values.
//! 3. **Fault-free equivalence.** With faults disabled, the guarded
//!    [`TuningSession`](autoindex_core::TuningSession) is a transparent
//!    wrapper around the PR 3 recommendation path: byte-identical
//!    recommendation, identical what-if call volume, same final index set
//!    — checked end-to-end on the banking workload.

use autoindex_core::{
    serve, ApplyVerdict, AutoIndex, AutoIndexConfig, Guard, GuardConfig, GuardEvent, IndexSnapshot,
    Recommendation, RollbackReason, ServeConfig,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::index::{IndexDef, IndexScope};
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert;
use autoindex_support::rng::derive_seed;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::collections::BTreeSet;

fn small_db() -> SimDb {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", 500_000)
            .column(Column::int("id", 500_000))
            .column(Column::int("a", 250_000))
            .column(Column::int("b", 2_000))
            .column(Column::int("c", 50))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
}

fn keys(db: &SimDb) -> BTreeSet<String> {
    db.indexes().map(|(_, d)| d.key()).collect()
}

/// A mixed add/drop recommendation over the small fixture.
fn synthetic_rec() -> Recommendation {
    Recommendation {
        add: vec![IndexDef::new("t", &["a"]), IndexDef::new("t", &["a", "b"])],
        remove: vec![IndexDef::new("t", &["b"])],
        est_cost_before: 100.0,
        est_cost_after: 40.0,
    }
}

#[test]
fn guarded_apply_is_atomic_under_arbitrary_fault_plans() {
    property(
        "guarded_apply_atomicity",
        PropConfig::quick(),
        |rng, _size| {
            let mut db = small_db();
            db.create_index(IndexDef::new("t", &["id"])).unwrap();
            db.create_index(IndexDef::new("t", &["b"])).unwrap();
            let pre = keys(&db);

            let rec = synthetic_rec();
            let mut expected_applied = pre.clone();
            for d in &rec.remove {
                expected_applied.remove(&d.key());
            }
            for d in &rec.add {
                expected_applied.insert(d.key());
            }

            // Arbitrary fault plan: every rate independently drawn, the
            // build-failure rate biased high so both outcomes are exercised.
            let plan = FaultPlan::new(FaultPlanConfig {
                seed: rng.next_u64(),
                build_failure: rng.random_f64(),
                slow_build: rng.random_f64(),
                transient_error: rng.random_f64() * 0.5,
                latency_spike: rng.random_f64(),
                stale_stats: rng.random_f64(),
                ..FaultPlanConfig::default()
            });
            db.set_fault_plan(Some(plan));

            let mut guard = Guard::new(
                GuardConfig {
                    build_retries: 2,
                    ..GuardConfig::default()
                },
                db.metrics(),
            );
            let (created, dropped, verdict) = guard.apply(&mut db, &rec, 0);
            let post = keys(&db);
            match verdict {
                ApplyVerdict::Applied => {
                    prop_assert!(
                        post == expected_applied,
                        "applied verdict but catalog is partial: {post:?} vs {expected_applied:?}"
                    );
                    prop_assert!(created.len() == rec.add.len(), "created {created:?}");
                    prop_assert!(dropped.len() == rec.remove.len(), "dropped {dropped:?}");
                }
                ApplyVerdict::RolledBack(RollbackReason::ApplyFaults { build_faults, .. }) => {
                    prop_assert!(
                        post == pre,
                        "rollback left a partial catalog: {post:?} vs {pre:?}"
                    );
                    prop_assert!(created.is_empty() && dropped.is_empty());
                    prop_assert!(build_faults > 0, "rollback without any build fault");
                }
                ApplyVerdict::RolledBack(other) => {
                    prop_assert!(false, "an apply rolls back on build faults only: {other:?}");
                }
                ApplyVerdict::ShadowRejected { .. } => {
                    prop_assert!(false, "shadow must admit a 60% improvement");
                }
            }
            Ok(())
        },
    );
}

/// With faults disabled a guarded apply never rolls back; at a 20 %
/// build-failure rate with zero retries some of 24 applies do; and each
/// run's `guard.rollbacks` counter agrees with its verdict.
#[test]
fn rollbacks_appear_with_faults_and_only_with_faults() {
    let rolled_back = |rate: f64, run: u64| {
        let mut db = small_db();
        db.create_index(IndexDef::new("t", &["id"])).unwrap();
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        if rate > 0.0 {
            db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
                seed: derive_seed(0x0005_A00E, run),
                build_failure: rate,
                transient_error: rate,
                ..FaultPlanConfig::default()
            })));
        }
        let mut guard = Guard::new(
            GuardConfig {
                build_retries: 0,
                ..GuardConfig::default()
            },
            db.metrics(),
        );
        let (_, _, verdict) = guard.apply(&mut db, &synthetic_rec(), 0);
        let rolled_back = matches!(verdict, ApplyVerdict::RolledBack(_));
        assert_eq!(
            db.metrics().counter_value("guard.rollbacks"),
            u64::from(rolled_back)
        );
        rolled_back
    };
    let rollbacks = |rate: f64, runs: u64| (0..runs).filter(|&run| rolled_back(rate, run)).count();
    assert_eq!(rollbacks(0.0, 8), 0, "rolled back without faults");
    assert!(rollbacks(0.20, 24) >= 1, "no rollback in 24 faulty applies");
}

#[test]
fn rollback_restores_bit_identical_config_fingerprint() {
    let mut db = small_db();
    db.create_index(IndexDef::new("t", &["id"])).unwrap();
    db.create_index(IndexDef::new("t", &["b"])).unwrap();
    let rec = synthetic_rec();
    let fp_before = db.index_fingerprint();
    let snap_before = IndexSnapshot::capture(&db).fingerprint();
    assert_eq!(
        snap_before, fp_before,
        "a snapshot reads the database's value"
    );

    // Every build fails: the guard must retry, give up and roll back.
    db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
        build_failure: 1.0,
        ..FaultPlanConfig::default()
    })));
    let mut guard = Guard::new(GuardConfig::default(), db.metrics());
    let (_, _, verdict) = guard.apply(&mut db, &rec, 0);
    let ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
        restored_fingerprint,
        ..
    }) = verdict
    else {
        panic!("expected rollback, got {verdict:?}");
    };

    assert_eq!(
        db.index_fingerprint(),
        fp_before,
        "fingerprint must round-trip"
    );
    assert_eq!(
        snap_before,
        IndexSnapshot::capture(&db).fingerprint(),
        "snapshot fingerprint must round-trip"
    );
    assert_eq!(
        restored_fingerprint, snap_before,
        "verdict reports the restored state"
    );
    assert!(db.metrics().counter_value("guard.rollbacks") >= 1);
}

/// The `fp=` a transcript's closing line prints.
fn final_fingerprint(transcript: &str) -> u64 {
    let line = transcript.lines().find_map(|l| l.strip_prefix("final: "));
    let hex = line
        .and_then(|l| l.split("fp=").nth(1))
        .expect("a final line");
    u64::from_str_radix(hex, 16).expect("hex fingerprint")
}

#[test]
fn an_index_set_has_one_fingerprint() {
    // What a `serve` transcript prints for the index set its run ends on.
    let mut start = small_db();
    start.create_index(IndexDef::new("t", &["b"])).unwrap();
    let queries: Vec<String> = (0..200)
        .map(|i| match i % 2 {
            0 => format!("SELECT * FROM t WHERE a = {}", i * 37 % 250_000),
            _ => format!("SELECT * FROM t WHERE b = {}", i % 2_000),
        })
        .collect();
    let cfg = ServeConfig::builder().epoch_interval(50).build().unwrap();
    let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    let out = serve(start, advisor, &queries, cfg).unwrap();
    let printed = final_fingerprint(&out.report.transcript());
    assert_eq!(printed, out.db.index_fingerprint());

    // The same set, created in the reverse order on a fresh database.
    let defs: Vec<IndexDef> = out.db.indexes().map(|(_, d)| d.clone()).collect();
    assert!(defs.len() >= 2, "the reverse order is another order");
    let fresh = || {
        let mut db = small_db();
        for d in defs.iter().rev() {
            db.create_index(d.clone()).unwrap();
        }
        db
    };
    let rec = Recommendation {
        add: vec![IndexDef::new("t", &["c"])],
        remove: defs[..1].to_vec(),
        est_cost_before: 100.0,
        est_cost_after: 40.0,
    };

    // A faulted apply restores it.
    let mut db = fresh();
    assert_eq!(
        db.index_fingerprint(),
        printed,
        "creation order is no part of it"
    );
    db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
        build_failure: 1.0,
        ..FaultPlanConfig::default()
    })));
    let mut guard = Guard::new(GuardConfig::default(), db.metrics());
    let (_, _, verdict) = guard.apply(&mut db, &rec, 0);
    let ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
        restored_fingerprint,
        ..
    }) = verdict
    else {
        panic!("expected a faulted apply, got {verdict:?}");
    };
    assert_eq!(restored_fingerprint, db.index_fingerprint());
    assert_eq!(restored_fingerprint, printed);

    // A failed probation restores it.
    let mut db = fresh();
    let cfg = GuardConfig {
        probation_statements: 5,
        min_probation_samples: 2,
        max_regression: 0.25,
        ..GuardConfig::default()
    };
    let mut guard = Guard::new(cfg, db.metrics());
    (0..20).for_each(|_| guard.record_latency(1.0));
    let (_, _, verdict) = guard.apply(&mut db, &rec, 0);
    assert_eq!(verdict, ApplyVerdict::Applied);
    assert_ne!(db.index_fingerprint(), printed);
    (0..5).for_each(|_| guard.record_latency(2.0));
    let Some(GuardEvent::RolledBack(RollbackReason::ProbationRegression {
        restored_fingerprint,
        ..
    })) = guard.poll(5, &mut db)
    else {
        panic!("expected a probation rollback");
    };
    assert_eq!(restored_fingerprint, db.index_fingerprint());
    assert_eq!(restored_fingerprint, printed);

    // The scope is part of the identity.
    let global = IndexDef::new("t", &["b"]);
    let local = global.clone().with_scope(IndexScope::Local);
    let (mut g, mut l) = (small_db(), small_db());
    g.create_index(global).unwrap();
    l.create_index(local).unwrap();
    assert_ne!(g.index_fingerprint(), l.index_fingerprint());
}

#[test]
fn faultless_guarded_session_is_byte_identical_to_unguarded_end_to_end() {
    let queries: Vec<String> = BankingGenerator::new(7)
        .generate_hybrid(30, 0.5)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let run = |guarded: bool| {
        let mut db = SimDb::with_metrics(
            banking::catalog(),
            SimDbConfig::default(),
            MetricsRegistry::new(),
        );
        for d in banking::dba_indexes() {
            db.create_index(d).unwrap();
        }
        let mut cfg = AutoIndexConfig::default();
        cfg.mcts.iterations = 30;
        cfg.mcts.seed = 5;
        let mut ai = AutoIndex::new(cfg, NativeCostEstimator);
        for q in &queries {
            let _ = ai.observe(q, &db);
        }
        let session = ai.session(&mut db);
        let out = if guarded {
            session.guarded(GuardConfig::default()).run().unwrap()
        } else {
            session.run().unwrap()
        };
        (
            format!("{:?}", out.report.recommendation),
            db.metrics().counter_value("db.whatif_calls"),
            keys(&db),
        )
    };
    let (rec_u, whatif_u, keys_u) = run(false);
    let (rec_g, whatif_g, keys_g) = run(true);
    assert_eq!(rec_u, rec_g, "recommendation must be byte-identical");
    assert_eq!(whatif_u, whatif_g, "guard must not add what-if probes");
    assert_eq!(keys_u, keys_g, "same final index set");
}
