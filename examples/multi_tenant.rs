//! The PR 8 multi-tenant serving fleet, end to end: eight banking tenants
//! with priorities and latency SLOs, multiplexed over one executor pool
//! under a saturating admission capacity. Watch the
//! admission controller shed the priority-0 tenant, defer the cheapest
//! protected bids, and the regret-directed tuner visit drifting tenants —
//! then verify the whole run is worker-count deterministic.
//!
//! ```bash
//! cargo run --release --example multi_tenant
//! ```

use autoindex::prelude::*;
use autoindex::workloads::fleet::fleet_workload;
use std::sync::Arc;

fn build_fleet() -> Vec<FleetTenant<NativeCostEstimator>> {
    fleet_workload(8, 1_200, 2024)
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

fn run(workers: usize) -> FleetOutcome<NativeCostEstimator> {
    let cfg = FleetConfig::builder()
        .workers(workers)
        .epoch_interval(300)
        // The eight tenants offer ~8 x 300 x 0.7 sim-ms per epoch; a
        // capacity around 80% of that keeps admission under pressure.
        .epoch_capacity_ms(1_400.0)
        .shed_floor_priority(1)
        .build()
        .expect("static fleet config");
    serve_fleet(build_fleet(), cfg).expect("fleet run")
}

fn main() {
    let out = run(4);
    let r = &out.report;

    println!("=== fleet transcript (worker-count invariant) ===");
    print!("{}", r.transcript());

    println!("\n=== tenants ===");
    for t in &r.tenant_reports {
        println!(
            "  {:<12} prio={} slo=({:.0}ms,{:.0}ms) executed={:<5} shed={:<5} deferrals={} \
             slo_violations={} tuner_visits={}",
            t.name,
            t.priority,
            t.slo_p50_ms,
            t.slo_p99_ms,
            t.executed,
            t.shed,
            t.deferrals,
            t.slo_violations,
            t.tuning_visits,
        );
    }

    println!("\n=== admission / fleet metrics ===");
    for name in [
        "serve.admission.admitted_slices",
        "serve.admission.deferred_slices",
        "serve.admission.shed_slices",
        "serve.admission.saturated_epochs",
        "serve.executed",
        "serve.shed",
        "serve.slo_violations",
        "serve.tuning_visits",
    ] {
        println!("  {name:<36} {}", out.metrics.counter_value(name));
    }

    println!(
        "\nsimulated makespan {:.0} ms -> {:.0} simulated qps at {} workers",
        r.sim_makespan_ms,
        r.simulated_qps(),
        r.workers
    );

    // The determinism contract, demonstrated: 1 worker and 4 workers
    // produce the same digest over fleet + per-tenant transcripts.
    let one = run(1);
    assert_eq!(
        one.report.transcript_digest(),
        r.transcript_digest(),
        "fleet transcripts must be worker-count invariant"
    );
    println!(
        "determinism: 1-worker and 4-worker transcript digests match ({:016x})",
        r.transcript_digest()
    );
}
