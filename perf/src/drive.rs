//! Build fresh product state for a workload and push its stream through
//! the one public driver it names. Nothing here reaches below the driver
//! entry points; the layer-by-layer replay lives in `trace.rs`.

use crate::workloads::{Driver, Workload};
use autoindex_core::{
    serve, serve_fleet, AutoIndex, AutoIndexConfig, FleetConfig, FleetTenant, GuardConfig,
    OnlineAutoIndex, OnlineConfig, OnlineEvent, ServeConfig, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint::fnv1a;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::TenantWorkload;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Advisor = AutoIndex<NativeCostEstimator>;

/// Executor threads of the two serving drivers. Fixed, never derived from
/// the host: see README.md, "Two workers, one CPU".
const WORKERS: usize = 2;
const FLEET_EPOCH: u64 = 2_048;
const FLEET_SHARDS: u64 = 4;

/// One tenant's product state, ready for a driver.
pub struct Tenant {
    pub spec: TenantSpec,
    pub db: SimDb,
    pub advisor: Advisor,
    pub queries: Arc<Vec<String>>,
}

/// Database with the tenant's starting indexes, and a default advisor that
/// has observed the workload's warm-up prefix of the stream.
pub fn build(workload: Workload, tenants: Vec<TenantWorkload>) -> Vec<Tenant> {
    let prewarm = workload.prewarm_statements();
    tenants
        .into_iter()
        .map(|w| {
            let cfg = SimDbConfig {
                seed: w.seed,
                ..Default::default()
            };
            let mut db = SimDb::with_metrics(w.catalog, cfg, MetricsRegistry::new());
            for d in w.dba_indexes {
                db.create_index(d).expect("starting index is valid");
            }
            let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
            for sql in w.queries.iter().take(prewarm) {
                advisor.observe(sql, &db).expect("generated SQL parses");
            }
            Tenant {
                spec: TenantSpec {
                    name: w.name,
                    priority: w.priority,
                    slo_p50_ms: w.slo_p50_ms,
                    slo_p99_ms: w.slo_p99_ms,
                },
                db,
                advisor,
                queries: Arc::new(w.queries),
            }
        })
        .collect()
}

pub fn fleet_config() -> FleetConfig {
    // Admission capacity stays at its unbounded default: nothing sheds.
    FleetConfig::builder()
        .workers(WORKERS)
        .shards(FLEET_SHARDS)
        .epoch_interval(FLEET_EPOCH)
        .build()
        .expect("static fleet config")
}

pub fn serve_config(workload: Workload) -> ServeConfig {
    ServeConfig::builder()
        .workers(WORKERS)
        .epoch_interval(workload.serve_epoch())
        .guard(GuardConfig::default())
        .build()
        .expect("static serve config")
}

pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        guard: Some(GuardConfig::default()),
        ..OnlineConfig::default()
    }
}

/// What one driver call did, as the driver's own report tells it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub offered: u64,
    pub executed: u64,
    /// Parse failures + caught panics + shed statements (+ feeds the
    /// advisor could not learn from).
    pub failed: u64,
    /// Summed simulated latency of the executed statements (sim domain).
    pub sim_ms: f64,
    /// Digest of the driver's deterministic transcript.
    pub transcript: u64,
    /// Wall time of the driver call alone.
    pub wall: Duration,
    pub epochs: u64,
    pub publications: u64,
    pub tuning_rounds: u64,
    pub steals: u64,
    /// `online_drift` with `time_feeds`: wall time of every `feed`, ns.
    pub feed_ns: Vec<u64>,
    /// … and of the feeds that ran a tuning round (Tuned / GuardApplied /
    /// ShadowRejected / BanditArmApplied).
    pub stall_ns: Vec<u64>,
}

impl Outcome {
    /// The accounting identity every driver must keep.
    pub fn accounted(&self) -> bool {
        self.executed + self.failed == self.offered
    }
}

/// Run the workload's driver over freshly built state.
pub fn drive(workload: Workload, mut tenants: Vec<Tenant>, time_feeds: bool) -> Outcome {
    match workload.driver() {
        Driver::Fleet => drive_fleet(tenants),
        Driver::Serve => drive_serve(workload, tenants.pop().expect("one tenant")),
        Driver::Online => drive_online(tenants.pop().expect("one tenant"), time_feeds),
    }
}

fn drive_fleet(tenants: Vec<Tenant>) -> Outcome {
    let offered = tenants.iter().map(|t| t.queries.len() as u64).sum();
    let n_tenants = tenants.len() as u64;
    let fleet = tenants
        .into_iter()
        .map(|t| FleetTenant {
            spec: t.spec,
            db: t.db,
            advisor: t.advisor,
            queries: t.queries,
        })
        .collect();
    let start = Instant::now();
    let out = serve_fleet(fleet, fleet_config()).expect("fleet run");
    let wall = start.elapsed();
    let r = &out.report;
    Outcome {
        offered,
        executed: r.executed,
        failed: r.parse_failures + r.panics + r.shed,
        sim_ms: r.total_sim_latency_ms,
        transcript: r.transcript_digest(),
        wall,
        epochs: r.epochs.len() as u64,
        // One per tenant up front, then one per admitted tenant per epoch
        // (an unadmitted tenant is only republished when the tuner visits).
        publications: n_tenants + r.epochs.iter().map(|e| e.admitted).sum::<u64>(),
        tuning_rounds: r.tuning_visits,
        steals: r.steals,
        ..Outcome::default()
    }
}

fn drive_serve(workload: Workload, t: Tenant) -> Outcome {
    let start = Instant::now();
    let out = serve(t.db, t.advisor, &t.queries, serve_config(workload)).expect("serve run");
    let wall = start.elapsed();
    let r = &out.report;
    Outcome {
        offered: t.queries.len() as u64,
        executed: r.executed,
        failed: r.parse_failures + r.panics,
        sim_ms: r.total_sim_latency_ms,
        transcript: fnv1a(r.transcript().as_bytes()),
        wall,
        epochs: r.epochs.len() as u64,
        publications: 1 + r.epochs.len() as u64,
        tuning_rounds: r.tuning_rounds,
        ..Outcome::default()
    }
}

fn drive_online(t: Tenant, time_feeds: bool) -> Outcome {
    let mut online = OnlineAutoIndex::new(t.db, t.advisor, online_config());
    let mut o = Outcome {
        offered: t.queries.len() as u64,
        ..Outcome::default()
    };
    // The loop's transcript: every control-loop event with its position,
    // then the final index set.
    let mut transcript = String::new();
    if time_feeds {
        o.feed_ns.reserve(t.queries.len());
    }
    let start = Instant::now();
    for (i, sql) in t.queries.iter().enumerate() {
        let t0 = time_feeds.then(Instant::now);
        let fed = online.feed(sql);
        let ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
        match &fed.outcome {
            Some(out) if fed.error.is_none() => {
                o.executed += 1;
                o.sim_ms += out.latency_ms;
            }
            _ => o.failed += 1,
        }
        let event = match &fed.event {
            OnlineEvent::Executed | OnlineEvent::DiagnosedHealthy(_) => None,
            OnlineEvent::Tuned { .. } => Some(("tuned", true)),
            OnlineEvent::BanditArmApplied { .. } => Some(("bandit_arm_applied", true)),
            OnlineEvent::GuardApplied { .. } => Some(("guard_applied", true)),
            OnlineEvent::ShadowRejected { .. } => Some(("shadow_rejected", true)),
            OnlineEvent::StrategySwitched { .. } => Some(("strategy_switched", false)),
            OnlineEvent::RolledBack(_) => Some(("rolled_back", false)),
            OnlineEvent::ProbationPassed { .. } => Some(("probation_passed", false)),
            OnlineEvent::CooldownEnded => Some(("cooldown_ended", false)),
            OnlineEvent::ObserveOnlyEntered => Some(("observe_only", false)),
        };
        if let Some(ns) = ns {
            o.feed_ns.push(ns);
        }
        if let Some((tag, round)) = event {
            transcript.push_str(&format!("{i}:{tag}\n"));
            if round {
                o.tuning_rounds += 1;
                o.stall_ns.extend(ns);
            }
        }
    }
    o.wall = start.elapsed();
    let mut keys: Vec<String> = online.db().indexes().map(|(_, d)| d.key()).collect();
    keys.sort();
    transcript.push_str(&keys.join(","));
    o.transcript = fnv1a(transcript.as_bytes());
    o.epochs = online.db().metrics().counter_value("online.diagnoses_run");
    o
}
