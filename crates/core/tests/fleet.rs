//! End-to-end tests for the multi-tenant serving fleet (`docs/SERVING.md`):
//!
//! 1. **Worker-count invariance** — a banking tenant population served at
//!    1, 4 and 8 workers produces byte-identical per-tenant transcripts
//!    and fleet transcripts. Work stealing makes the *physical* schedule
//!    wildly different between runs; the merge on the `(tenant, seq)`
//!    logical clock and the config-constant admission capacity must erase
//!    all of it.
//! 2. **Permutation/steal-order invariance** (property) — randomized
//!    small fleets (tenant count, stream length, capacity, shed floor,
//!    worker count all random) keep their transcript digest equal to the
//!    1-worker reference run. Every extra worker is a new adversarial
//!    permutation of observation arrival; the property holding across
//!    random configs is the fleet version of the PR5 merge-permutation
//!    property.
//! 3. **Admission accounting** — under a saturating capacity, protected
//!    tenants are never shed, every statement is accounted exactly once
//!    (executed or shed), and deferral is pure backpressure (deferred
//!    tenants still finish their streams).

use autoindex_core::{
    serve_fleet, AutoIndex, AutoIndexConfig, FleetConfig, FleetTenant, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert_eq;
use autoindex_workloads::fleet::{fleet_workload, TenantWorkload};
use std::sync::Arc;

/// Materialize generated tenant workloads into fleet tenants: each gets
/// its own database (seeded per tenant), its DBA starting indexes and a
/// fresh advisor.
fn build_fleet(workloads: Vec<TenantWorkload>) -> Vec<FleetTenant<NativeCostEstimator>> {
    workloads
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
        .collect()
}

// ------------------------------------------- 1. worker-count invariance

#[test]
fn fleet_transcripts_are_worker_count_invariant_on_banking_tenants() {
    const TENANTS: usize = 6;
    const STMTS: usize = 400;
    let run = |workers: usize| {
        let cfg = FleetConfig::builder()
            .workers(workers)
            .epoch_interval(128)
            .build()
            .unwrap();
        serve_fleet(build_fleet(fleet_workload(TENANTS, STMTS, 91)), cfg).unwrap()
    };
    let one = run(1);
    let four = run(4);
    let eight = run(8);

    // Per-tenant transcripts byte-identical at 1 vs 8 workers — the PR8
    // acceptance surface.
    for ((a, b), c) in one
        .report
        .tenant_reports
        .iter()
        .zip(&four.report.tenant_reports)
        .zip(&eight.report.tenant_reports)
    {
        assert_eq!(a.transcript(), b.transcript(), "tenant {} @4", a.name);
        assert_eq!(a.transcript(), c.transcript(), "tenant {} @8", a.name);
    }
    assert_eq!(one.report.transcript(), four.report.transcript());
    assert_eq!(one.report.transcript(), eight.report.transcript());
    assert_eq!(
        one.report.transcript_digest(),
        eight.report.transcript_digest()
    );

    // Unconstrained capacity: everything executes, nothing sheds.
    assert_eq!(
        one.report.executed + one.report.parse_failures + one.report.panics,
        (TENANTS * STMTS) as u64
    );
    assert_eq!(one.report.shed, 0);

    // The transcript is not vacuous.
    let t = one.report.transcript();
    assert!(t.starts_with("fleet: tenants=6"));
    assert!(t.contains("epoch 0:"));
    let tenant0 = one.report.tenant_reports[0].transcript();
    assert!(tenant0.starts_with("tenant tenant-000:"));
    assert!(tenant0.contains("slice 0:") && tenant0.contains("final: indexes="));

    // The simulated makespan actually shrinks with workers (the perf
    // claim the bench quantifies), while the transcript did not move.
    assert!(
        eight.report.sim_makespan_ms < one.report.sim_makespan_ms,
        "8-worker makespan {} !< 1-worker {}",
        eight.report.sim_makespan_ms,
        one.report.sim_makespan_ms
    );
    assert!(eight.report.simulated_qps() > one.report.simulated_qps());
}

// --------------------- 2. permutation/steal-order invariance (property)

#[test]
fn randomized_fleets_keep_transcript_digest_across_worker_counts() {
    property(
        "fleet.worker_count_invariance",
        PropConfig::default().cases(5),
        |rng, _size| {
            let tenants = rng.random_range(2usize..5);
            let stmts = rng.random_range(80usize..240);
            let seed = rng.next_u64();
            let workers = rng.random_range(2usize..6);
            // Half the cases run saturated: capacity covers very roughly
            // half the offered load, with a random shed floor.
            let saturated = rng.random_range(0u32..2) == 1;
            let capacity = if saturated {
                rng.random_range(200.0..2_000.0)
            } else {
                f64::INFINITY
            };
            let floor = rng.random_range(0u8..3);
            let cfg = |w: usize| {
                FleetConfig::builder()
                    .workers(w)
                    .epoch_interval(rng_free_interval(stmts))
                    .epoch_capacity_ms(capacity)
                    .shed_floor_priority(floor)
                    .build()
                    .unwrap()
            };
            let base =
                serve_fleet(build_fleet(fleet_workload(tenants, stmts, seed)), cfg(1)).unwrap();
            let alt = serve_fleet(
                build_fleet(fleet_workload(tenants, stmts, seed)),
                cfg(workers),
            )
            .unwrap();
            prop_assert_eq!(
                base.report.transcript_digest(),
                alt.report.transcript_digest()
            );
            // Exactly-once accounting holds in every random config.
            let offered = (tenants * stmts) as u64;
            prop_assert_eq!(
                base.report.executed
                    + base.report.parse_failures
                    + base.report.panics
                    + base.report.shed,
                offered
            );
            Ok(())
        },
    );
}

/// Fixed slice size for the property runs: small enough for several
/// epochs, deterministic across the 1-worker and N-worker run of a case.
fn rng_free_interval(stmts: usize) -> u64 {
    (stmts as u64 / 4).max(16)
}

// ------------------------------------------- 3. admission accounting

#[test]
fn saturated_banking_fleet_protects_priorities_and_accounts_exactly_once() {
    // fleet_workload makes tenant 0 priority 0 (shed-eligible) and the
    // rest priority 1..=3. A capacity well under the offered per-epoch
    // load forces admission pressure every epoch.
    const TENANTS: usize = 5;
    const STMTS: usize = 300;
    let cfg = FleetConfig::builder()
        .workers(3)
        .epoch_interval(100)
        .epoch_capacity_ms(3_000.0)
        .assumed_stmt_cost_ms(10.0)
        .shed_floor_priority(1)
        .build()
        .unwrap();
    let out = serve_fleet(build_fleet(fleet_workload(TENANTS, STMTS, 17)), cfg).unwrap();

    let offered = (TENANTS * STMTS) as u64;
    assert_eq!(
        out.report.executed + out.report.parse_failures + out.report.panics + out.report.shed,
        offered,
        "every statement accounted exactly once"
    );
    assert!(out.report.saturated_epochs > 0, "capacity actually bound");
    assert!(
        out.report.shed_slices > 0 && out.report.deferred_slices > 0,
        "admission must both shed and defer: shed_slices={} deferred_slices={}",
        out.report.shed_slices,
        out.report.deferred_slices
    );
    for t in &out.report.tenant_reports {
        if t.priority >= 1 {
            assert_eq!(t.shed, 0, "protected tenant {} was shed", t.name);
            // Deferral is backpressure, not loss: the stream finishes.
            assert_eq!(
                t.executed + t.parse_failures + t.panics,
                STMTS as u64,
                "deferred tenant {} did not finish",
                t.name
            );
        }
    }
    // Metrics agree with the report.
    assert_eq!(
        out.metrics.counter_value("serve.admission.shed_slices"),
        out.report.shed_slices
    );
    assert_eq!(
        out.metrics.counter_value("serve.admission.deferred_slices"),
        out.report.deferred_slices
    );
    assert_eq!(
        out.metrics.counter_value("serve.executed"),
        out.report.executed
    );
}
