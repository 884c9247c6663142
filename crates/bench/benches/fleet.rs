//! Multi-tenant fleet throughput: the serve-fleet sweep.
//! Records the `fleet_sweep` result (`autoindex_bench::record`; protocol:
//! `docs/SERVING.md` §"Multi-tenant fleet").
//!
//! A 64-tenant banking fleet (17,500 statements per tenant — 1.12M
//! offered statements) is served at 1, 4 and 8 executor workers under a
//! *fixed* admission capacity that keeps the pool saturated for most of
//! the run: the four priority-0 tenants shed, a rotating tail of
//! priority-1 tenants defers, and everything else executes. As in the
//! `throughput` sweep, the reported metric is **simulated qps** — executed
//! statements per second of simulated fleet makespan
//! ([`ServeReport::simulated_qps`](autoindex_core::ServeReport::simulated_qps)):
//! per epoch, every admitted (tenant × shard) task's summed simulated
//! latency is packed onto the worker slots with greedy LPT, and the
//! busiest slot's load accumulates.
//! Host independent and byte-stable by construction.
//!
//! Regression gates (the run aborts otherwise):
//!
//! 1. every worker count accounts for every offered statement
//!    (executed + parse-failed + shed),
//! 2. at least 1,000,000 statements actually execute,
//! 3. the transcript digest — fleet transcript plus all 64 per-tenant
//!    transcripts — is identical at 1, 4 and 8 workers (admission,
//!    shedding, deferral, SLO verdicts and tuner visits are all
//!    worker-count invariant),
//! 4. 4 workers reach >= 3.5x and 8 workers >= 6x the 1-worker
//!    simulated qps,
//! 5. the recorded document — sweep rows, admission counts, digest and
//!    the floors above — equals `crates/bench/baselines/fleet_sweep.json`
//!    as a whole.

use autoindex_bench::record;
use autoindex_core::{
    serve_fleet, AutoIndex, AutoIndexConfig, FleetConfig, FleetTenant, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::{fleet_workload, TenantWorkload};
use std::sync::Arc;

const TENANTS: usize = 64;
const STATEMENTS_PER_TENANT: usize = 17_500;
const EPOCH_INTERVAL: u64 = 2_048;
const SHARDS: u64 = 4;
const SEED: u64 = 2024;
const WORKER_SWEEP: [usize; 3] = [1, 4, 8];
const REQUIRED_SPEEDUP_AT_4: f64 = 3.5;
const REQUIRED_SPEEDUP_AT_8: f64 = 6.0;
const REQUIRED_EXECUTED: u64 = 1_000_000;

/// Admission capacity per epoch, simulated ms. Calibrated once against
/// the measured offered load of this exact workload (~64 admitted slices
/// × 2,048 statements × mean statement cost) and then **frozen**: the
/// constant sits at roughly 90% of the steady-state offered cost, so the
/// pool saturates every full epoch — the priority-0 tenants shed and the
/// cheapest-bidding priority-1 tail defers — while >= 1M statements still
/// execute. Being a config constant (not derived from worker count or
/// load at run time) is what keeps the sweep's transcripts identical
/// across worker counts.
const EPOCH_CAPACITY_MS: f64 = 88_000.0;

struct Row {
    workers: usize,
    simulated_qps: f64,
    speedup_vs_1: f64,
    deterministic_match: bool,
}

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

fn main() {
    let offered = (TENANTS * STATEMENTS_PER_TENANT) as u64;
    eprintln!(
        "generating {TENANTS}-tenant fleet, {STATEMENTS_PER_TENANT} statements each ({offered} offered)…"
    );
    let workloads = fleet_workload(TENANTS, STATEMENTS_PER_TENANT, SEED);

    let mut rows: Vec<Row> = Vec::new();
    let mut baseline_digest = 0u64;
    let mut baseline_qps = 0.0;
    let mut exact: Option<(u64, u64, u64, u64, u64, u64, u64)> = None;
    for &workers in &WORKER_SWEEP {
        let cfg = FleetConfig::builder()
            .workers(workers)
            .shards(SHARDS)
            .epoch_interval(EPOCH_INTERVAL)
            .epoch_capacity_ms(EPOCH_CAPACITY_MS)
            .shed_floor_priority(1)
            .build()
            .expect("static fleet config");
        let out = serve_fleet(build_fleet(clone_workloads(&workloads)), cfg).expect("fleet run");
        let r = &out.report;

        assert_eq!(
            r.executed + r.parse_failures + r.panics + r.shed,
            offered,
            "workers={workers}: offered statements not fully accounted"
        );
        assert!(
            r.executed >= REQUIRED_EXECUTED,
            "workers={workers}: only {} statements executed (need >= {REQUIRED_EXECUTED})",
            r.executed
        );
        assert!(r.shed_slices > 0, "workers={workers}: admission never shed");
        assert!(
            r.deferred_slices > 0,
            "workers={workers}: admission never deferred"
        );

        let digest = r.transcript_digest();
        if workers == 1 {
            baseline_digest = digest;
            baseline_qps = r.simulated_qps();
            exact = Some((
                r.executed,
                r.shed,
                r.shed_slices,
                r.deferred_slices,
                r.tuning_visits,
                r.slo_violations,
                r.epochs.len() as u64,
            ));
        }
        let deterministic_match = digest == baseline_digest;
        assert!(
            deterministic_match,
            "workers={workers}: transcript digest diverged from the 1-worker run"
        );

        let qps = r.simulated_qps();
        let speedup = if baseline_qps > 0.0 {
            qps / baseline_qps
        } else {
            0.0
        };
        eprintln!(
            "workers {workers}: executed {} ({} bound through {} prepared plans) | shed {} | \
             {} epochs | makespan {:.0} sim-ms | {:.0} sim-qps | {:.2}x",
            r.executed,
            r.tenant_reports
                .iter()
                .map(|t| t.fastpath_hits)
                .sum::<u64>(),
            r.plans_prepared,
            r.shed,
            r.epochs.len(),
            r.makespan_ms(),
            qps,
            speedup,
        );
        rows.push(Row {
            workers,
            simulated_qps: qps,
            speedup_vs_1: speedup,
            deterministic_match,
        });
    }

    let speedup_at = |w: usize| {
        rows.iter()
            .find(|r| r.workers == w)
            .expect("sweep row")
            .speedup_vs_1
    };
    let at4 = speedup_at(4);
    let at8 = speedup_at(8);
    assert!(
        at4 >= REQUIRED_SPEEDUP_AT_4,
        "4 workers reached only {at4:.2}x simulated throughput (need >= {REQUIRED_SPEEDUP_AT_4}x)"
    );
    assert!(
        at8 >= REQUIRED_SPEEDUP_AT_8,
        "8 workers reached only {at8:.2}x simulated throughput (need >= {REQUIRED_SPEEDUP_AT_8}x)"
    );

    let (executed, shed, shed_slices, deferred_slices, tuning_visits, slo_violations, epochs) =
        exact.expect("1-worker run recorded");
    let doc = obj([
        ("bench", Json::from("fleet")),
        (
            "workload",
            Json::from(format!(
                "{TENANTS}-tenant banking fleet, {STATEMENTS_PER_TENANT} statements/tenant, \
                 epoch {EPOCH_INTERVAL}, {SHARDS} shards/tenant, capacity {EPOCH_CAPACITY_MS} sim-ms"
            )),
        ),
        (
            "metric",
            Json::from(
                "simulated_qps = executed * 1000 / sim_makespan_ms (simulated time domain; \
                 host independent — see docs/SERVING.md)",
            ),
        ),
        ("tenants", Json::from(TENANTS as u64)),
        ("statements", Json::from(offered)),
        ("executed", Json::from(executed)),
        ("shed", Json::from(shed)),
        ("shed_slices", Json::from(shed_slices)),
        ("deferred_slices", Json::from(deferred_slices)),
        ("tuning_visits", Json::from(tuning_visits)),
        ("slo_violations", Json::from(slo_violations)),
        ("fleet_epochs", Json::from(epochs)),
        (
            "transcript_digest",
            Json::from(format!("{baseline_digest:016x}")),
        ),
        ("admission_capacity_ms", Json::from(EPOCH_CAPACITY_MS)),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        obj([
                            ("workers", Json::from(r.workers as u64)),
                            ("simulated_qps", Json::from(r.simulated_qps)),
                            ("speedup_vs_1", Json::from(r.speedup_vs_1)),
                            ("deterministic_match", Json::from(r.deterministic_match)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gate",
            obj([
                ("required_executed", Json::from(REQUIRED_EXECUTED)),
                ("required_speedup_at_4", Json::from(REQUIRED_SPEEDUP_AT_4)),
                ("required_speedup_at_8", Json::from(REQUIRED_SPEEDUP_AT_8)),
                ("speedup_at_4", Json::from(at4)),
                ("speedup_at_8", Json::from(at8)),
            ]),
        ),
    ]);
    record("fleet_sweep", &doc);
}

/// The sweep serves the same streams at every worker count; tenant
/// databases/advisors evolve during a run, so each run gets a fresh
/// build from a cheap clone of the generated workloads.
fn clone_workloads(ws: &[TenantWorkload]) -> Vec<TenantWorkload> {
    ws.iter()
        .map(|w| TenantWorkload {
            name: w.name.clone(),
            priority: w.priority,
            slo_p50_ms: w.slo_p50_ms,
            slo_p99_ms: w.slo_p99_ms,
            accounts: w.accounts,
            catalog: w.catalog.clone(),
            dba_indexes: w.dba_indexes.clone(),
            queries: w.queries.clone(),
            seed: w.seed,
        })
        .collect()
}
