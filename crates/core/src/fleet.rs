//! Multi-tenant serving fleet: SLO-driven admission control and a
//! regret-directed tuner slot over the shared epoch engine.
//!
//! [`serve`](mod@crate::serve) runs the epoch engine
//! ([`crate::engine`]) with one tenant; [`serve_fleet`] multiplexes
//! **many logical tenants** — each its own [`SimDb`] + advisor + query
//! stream — over the same executor pool:
//!
//! ```text
//!  tenant streams      admission (per epoch)        epoch engine
//!  ┌──────────┐   Admit ┌─────────────────────┐   ┌──────────────────┐
//!  │ t0 ░░░░░░│ ───────►│ admitted slices     │──►│ run_epoch: merged│
//!  │ t1 ░░░░░░│  Defer  └─────────────────────┘   │ on (tenant, seq) │
//!  │ t2 ░░░░░░│ (cursor holds)                    └────────┬─────────┘
//!  └──────────┘  Shed (cursor skips, counted)              │
//!        ▲    ┌────────────────────────────────────────────▼──┐
//!        └────│ boundary: absorb per tenant, SLO percentiles, │
//!             │ ONE tenant picked by observed regret for the  │
//!             │ tuner slot, republish the tenants that moved  │
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! Execution — the task queue, the per-tenant publication each task
//! carries, the panic fence and worker retirement — is the engine's (see its module
//! docs for the epoch protocol and crash safety). What is genuinely fleet:
//!
//! * **Admission control.** Every epoch, each unfinished tenant bids for
//!   its next slice with an estimated cost (last observed per-statement
//!   cost × slice length). [`decide_admission`] packs bids into the
//!   configured epoch capacity greedily in (priority desc, tenant asc)
//!   order — the head bid is *always* admitted (progress guarantee).
//!   Overflowing tenants below [`FleetConfig::shed_floor_priority`] are
//!   **shed** (the slice is skipped and counted, an SLO violation is
//!   recorded); the rest are **deferred** (the cursor holds, backpressure
//!   releases when capacity frees up). Capacity is a *config constant* in
//!   the simulated-cost domain — never derived from the physical worker
//!   count — so admission decisions, and therefore transcripts, are
//!   byte-identical at any worker count.
//! * **SLO tracking.** Per admitted slice the coordinator computes
//!   deterministic p50/p99 over the slice's simulated latencies and
//!   checks them against the tenant's declared SLOs
//!   ([`TenantSpec::slo_p50_ms`] / [`TenantSpec::slo_p99_ms`]);
//!   violations feed `serve.tenant.slo_violations`.
//! * **Tuner fleet slot.** One tenant per epoch (at most) gets the
//!   tuner: the pick is the tenant with the highest observed
//!   *regret* — last slice's mean latency vs its frozen baseline (best
//!   mean ever observed) — above [`FleetConfig::regret_threshold`] and
//!   out of cooldown. The visit reuses the single-tenant pipeline:
//!   diagnose, then a [`TuningSession`](crate::session::TuningSession)
//!   (optionally [`Guard`](crate::guard::Guard)ed via
//!   [`FleetConfig::guard`]), exactly as [`serve`](crate::serve::serve)
//!   does (DBA-bandits' regret signal steering AIM-style fleet tuning —
//!   see PAPERS.md).
//!
//! # Determinism contract
//!
//! Everything rendered into [`FleetReport::transcript`] and the
//! per-tenant [`TenantReport::transcript`]s is a pure function of
//! `(tenant streams, FleetConfig)` — worker count changes only the
//! physical schedule, which is observability data (wall time) and the
//! *simulated makespan* (the LPT packing of per-task costs onto worker
//! slots, deliberately kept out of the transcript). The tests in
//! `crates/core/tests/fleet.rs` compare the 1-, 4- and 8-worker fleet
//! transcripts byte-for-byte and pin permutation- and
//! worker-count-invariance as a property.

use crate::engine::{
    absorb_slice, simulated_qps, tuning_round, Engine, EngineConfig, Lane, Publication, Slice,
};
use crate::error::{invalid, AutoIndexError};
use crate::fastpath::UpkeepCounters;
use crate::guard::GuardConfig;
use crate::mcts::Universe;
use crate::serve::tuning_cooldown_over;
use crate::strategy::StrategyKind;
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::SimDb;
use autoindex_support::hash::{fnv1a, fnv1a_from};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::derive_seed;
use std::sync::Arc;
use std::time::{Duration, Instant};

// --------------------------------------------------------------- config

/// A tenant's identity and service-level declaration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant name (transcript-visible).
    pub name: String,
    /// Admission priority: higher is more important. Tenants *below*
    /// [`FleetConfig::shed_floor_priority`] are shed (not deferred) when
    /// the pool saturates.
    pub priority: u8,
    /// Declared p50 latency SLO, simulated ms.
    pub slo_p50_ms: f64,
    /// Declared p99 latency SLO, simulated ms.
    pub slo_p99_ms: f64,
}

/// One tenant of the fleet: spec, database, advisor and query stream.
/// The stream is `Arc`ed so callers can share it across sweep runs.
pub struct FleetTenant<E: CostEstimator> {
    pub spec: TenantSpec,
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
    pub queries: Arc<Vec<String>>,
}

/// Fleet configuration. Prefer [`FleetConfig::builder`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Executor threads. `0` means one per available core.
    pub workers: usize,
    /// Logical shards per tenant slice (task granularity: one task per
    /// admitted tenant × shard per epoch).
    pub shards: u64,
    /// Statements per tenant slice — the fleet's epoch cadence.
    pub epoch_interval: u64,
    /// Admission capacity per epoch in **simulated** milliseconds: the
    /// total estimated cost the fleet accepts per epoch. `INFINITY`
    /// disables admission pressure. A config constant — deliberately
    /// *never* derived from the worker count, so admission (and thus
    /// every transcript) is worker-count invariant.
    pub epoch_capacity_ms: f64,
    /// Tenants with `priority <` this are shed on overflow; the rest are
    /// deferred.
    pub shed_floor_priority: u8,
    /// Per-statement cost estimate used for a tenant's first bid, before
    /// any slice of it has been observed.
    pub assumed_stmt_cost_ms: f64,
    /// Minimum observed regret — `(last_mean − best_mean) / best_mean` —
    /// for a tenant to qualify for the tuner fleet slot. The default
    /// (5%) sits above the simulator's 3% latency noise, so drift
    /// triggers visits and noise does not.
    pub regret_threshold: f64,
    /// Quiet epochs required strictly between two tuner visits of the
    /// same tenant (same semantics as
    /// [`ServeConfig::tuning_cooldown_epochs`](crate::serve::ServeConfig::tuning_cooldown_epochs)).
    pub tuning_cooldown_epochs: u64,
    /// Reset a tenant's usage counters after a tuning round.
    pub reset_usage_after_tuning: bool,
    /// Run tuner visits through the guard pipeline.
    pub guard: Option<GuardConfig>,
    /// Override every tenant advisor's tuning strategy for fleet visits.
    /// `None` (the default) leaves each advisor's configured strategy
    /// untouched and keeps decision strings — and thus transcript
    /// digests — byte-identical to PR8. `Some(StrategyKind::Bandit)`
    /// additionally feeds each tenant's measured slice mean back to its
    /// bandit as the reward signal.
    pub tuner_strategy: Option<StrategyKind>,
    /// Seed of the per-tenant shard-assignment streams (tenant `t` uses
    /// `derive_seed(seed, t)`).
    pub seed: u64,
    /// Use the compiled-template fast path.
    pub fastpath: bool,
    /// Worker panic budget before retirement.
    pub max_worker_panics: u64,
    /// Test knob: `(tenant, seq)` pairs at which the executing worker
    /// panics. Seq-keyed, so injected crashes reproduce at any worker
    /// count.
    pub panic_on: Vec<(u32, u64)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            shards: 4,
            epoch_interval: 1_024,
            epoch_capacity_ms: f64::INFINITY,
            shed_floor_priority: 1,
            assumed_stmt_cost_ms: 1.0,
            regret_threshold: 0.05,
            tuning_cooldown_epochs: 1,
            reset_usage_after_tuning: true,
            guard: None,
            tuner_strategy: None,
            seed: 42,
            fastpath: true,
            max_worker_panics: 0,
            panic_on: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Validated builder.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            cfg: FleetConfig::default(),
        }
    }
}

/// Builder for [`FleetConfig`]; `build()` validates every field.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
}

impl FleetConfigBuilder {
    pub fn workers(mut self, v: usize) -> Self {
        self.cfg.workers = v;
        self
    }
    pub fn shards(mut self, v: u64) -> Self {
        self.cfg.shards = v;
        self
    }
    pub fn epoch_interval(mut self, v: u64) -> Self {
        self.cfg.epoch_interval = v;
        self
    }
    pub fn epoch_capacity_ms(mut self, v: f64) -> Self {
        self.cfg.epoch_capacity_ms = v;
        self
    }
    pub fn shed_floor_priority(mut self, v: u8) -> Self {
        self.cfg.shed_floor_priority = v;
        self
    }
    pub fn assumed_stmt_cost_ms(mut self, v: f64) -> Self {
        self.cfg.assumed_stmt_cost_ms = v;
        self
    }
    pub fn regret_threshold(mut self, v: f64) -> Self {
        self.cfg.regret_threshold = v;
        self
    }
    pub fn tuning_cooldown_epochs(mut self, v: u64) -> Self {
        self.cfg.tuning_cooldown_epochs = v;
        self
    }
    pub fn reset_usage_after_tuning(mut self, v: bool) -> Self {
        self.cfg.reset_usage_after_tuning = v;
        self
    }
    pub fn guard(mut self, v: impl Into<Option<GuardConfig>>) -> Self {
        self.cfg.guard = v.into();
        self
    }
    pub fn tuner_strategy(mut self, v: impl Into<Option<StrategyKind>>) -> Self {
        self.cfg.tuner_strategy = v.into();
        self
    }
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }
    pub fn fastpath(mut self, v: bool) -> Self {
        self.cfg.fastpath = v;
        self
    }
    pub fn max_worker_panics(mut self, v: u64) -> Self {
        self.cfg.max_worker_panics = v;
        self
    }
    pub fn panic_on(mut self, v: Vec<(u32, u64)>) -> Self {
        self.cfg.panic_on = v;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<FleetConfig, AutoIndexError> {
        let c = self.cfg;
        if c.shards == 0 {
            return Err(invalid("fleet.shards", "must be >= 1"));
        }
        if c.epoch_interval == 0 {
            return Err(invalid("fleet.epoch_interval", "must be >= 1"));
        }
        if c.epoch_capacity_ms.is_nan() || c.epoch_capacity_ms <= 0.0 {
            return Err(invalid(
                "fleet.epoch_capacity_ms",
                "must be > 0 (use INFINITY to disable admission pressure)",
            ));
        }
        if !c.assumed_stmt_cost_ms.is_finite() || c.assumed_stmt_cost_ms <= 0.0 {
            return Err(invalid(
                "fleet.assumed_stmt_cost_ms",
                "must be finite and > 0",
            ));
        }
        if c.regret_threshold.is_nan() || c.regret_threshold < 0.0 {
            return Err(invalid("fleet.regret_threshold", "must be >= 0"));
        }
        Ok(c)
    }
}

// ------------------------------------------------------------- admission

/// What the admission controller did with one tenant's bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The slice runs this epoch.
    Admit,
    /// The slice waits (cursor holds); backpressure, released when
    /// capacity frees up.
    Defer,
    /// The slice is skipped entirely (cursor advances, statements
    /// counted shed, SLO violation recorded).
    Shed,
}

/// One tenant's bid for the next epoch.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCandidate {
    pub tenant: u32,
    pub priority: u8,
    /// Estimated simulated cost of the tenant's next slice, ms.
    pub est_cost_ms: f64,
}

/// [`decide_admission`]'s verdict for one candidate.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionDecision {
    pub tenant: u32,
    pub admission: Admission,
}

/// The pure admission policy: pack candidate bids into `capacity_ms`
/// greedily in `(priority desc, tenant asc)` order.
///
/// * The head candidate is **always** admitted, even when its bid alone
///   exceeds capacity — the progress guarantee that makes the fleet loop
///   terminate.
/// * Subsequent candidates are admitted while the running estimated cost
///   stays within capacity.
/// * A candidate that does not fit is **shed** if
///   `priority < shed_floor_priority`, otherwise **deferred**.
///
/// Pure and allocation-deterministic: decisions depend only on the
/// arguments (never on worker count or wall clock), which is what keeps
/// fleet transcripts worker-count invariant. Returned in evaluation
/// order (priority desc, tenant asc).
pub fn decide_admission(
    candidates: &[AdmissionCandidate],
    capacity_ms: f64,
    shed_floor_priority: u8,
) -> Vec<AdmissionDecision> {
    let mut order: Vec<&AdmissionCandidate> = candidates.iter().collect();
    order.sort_by_key(|c| (std::cmp::Reverse(c.priority), c.tenant));
    let mut used = 0.0f64;
    let mut out = Vec::with_capacity(order.len());
    for (i, c) in order.iter().enumerate() {
        let est = c.est_cost_ms.max(0.0);
        let admission = if i == 0 || used + est <= capacity_ms {
            used += est;
            Admission::Admit
        } else if c.priority < shed_floor_priority {
            Admission::Shed
        } else {
            Admission::Defer
        };
        out.push(AdmissionDecision {
            tenant: c.tenant,
            admission,
        });
    }
    out
}

// --------------------------------------------------------------- reports

/// What one tenant slice (one epoch's worth of one tenant's stream)
/// produced. Everything here is deterministic; the formatted line is
/// part of the tenant transcript surface.
#[derive(Debug, Clone, Default)]
pub struct TenantSliceRecord {
    /// Slice index within the tenant's stream (0-based, monotonic).
    pub slice: u64,
    /// Fleet epoch the slice was decided in.
    pub epoch: u64,
    /// Sequence slots the slice covers.
    pub statements: u64,
    /// Statements that executed.
    pub executed: u64,
    pub parse_failures: u64,
    pub panics: u64,
    /// Statements skipped because the slice was shed.
    pub shed: u64,
    /// p50 of the slice's executed simulated latencies, ms.
    pub p50_ms: f64,
    /// p99 of the slice's executed simulated latencies, ms.
    pub p99_ms: f64,
    /// Whether the slice met the tenant's declared SLOs (a shed slice
    /// never does).
    pub slo_ok: bool,
    /// `admit` or `shed` (deferred slices produce no record — the cursor
    /// holds and the same slice bids again next epoch).
    pub decision: String,
    /// `ConfigSet` fingerprint of the tenant's real index set after the
    /// epoch boundary.
    pub config_fingerprint: u64,
    /// Real indexes after the boundary.
    pub index_count: usize,
    /// Summed simulated latency of the slice's executed statements, ms.
    pub sim_latency_ms: f64,
}

impl TenantSliceRecord {
    fn line(&self) -> String {
        format!(
            "slice {}: epoch={} stmts={} exec={} parse_err={} panics={} shed={} \
             p50={:.6} p99={:.6} slo={} decision={} indexes={} fp={:016x} sim_ms={:.6}",
            self.slice,
            self.epoch,
            self.statements,
            self.executed,
            self.parse_failures,
            self.panics,
            self.shed,
            self.p50_ms,
            self.p99_ms,
            if self.slo_ok { "ok" } else { "viol" },
            self.decision,
            self.index_count,
            self.config_fingerprint,
            self.sim_latency_ms,
        )
    }
}

/// One tenant's aggregate run result.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    pub name: String,
    pub priority: u8,
    pub slo_p50_ms: f64,
    pub slo_p99_ms: f64,
    pub executed: u64,
    pub shed: u64,
    pub parse_failures: u64,
    pub panics: u64,
    /// Epochs this tenant's bid was deferred.
    pub deferrals: u64,
    /// Slices that missed the tenant's SLOs (shed slices included).
    pub slo_violations: u64,
    /// Tuner fleet-slot visits this tenant received.
    pub tuning_visits: u64,
    pub fastpath_hits: u64,
    pub fastpath_misses: u64,
    pub total_sim_latency_ms: f64,
    /// Per-slice records, in slice order.
    pub slices: Vec<TenantSliceRecord>,
}

impl TenantReport {
    /// The tenant's byte-comparable determinism surface: totals, every
    /// slice record, the final configuration. No wall clock, no worker
    /// attribution — byte-identical at any worker count (CI-checked).
    pub fn transcript(&self) -> String {
        let mut out = format!(
            "tenant {}: prio={} executed={} shed={} parse_failures={} panics={} deferrals={} \
             slo_violations={} tuning_visits={} total_sim_ms={:.6}\n",
            self.name,
            self.priority,
            self.executed,
            self.shed,
            self.parse_failures,
            self.panics,
            self.deferrals,
            self.slo_violations,
            self.tuning_visits,
            self.total_sim_latency_ms,
        );
        for s in &self.slices {
            out.push_str(&s.line());
            out.push('\n');
        }
        if let Some(last) = self.slices.last() {
            out.push_str(&format!(
                "final: indexes={} fp={:016x}\n",
                last.index_count, last.config_fingerprint
            ));
        }
        out
    }
}

/// What one fleet epoch decided, fleet-wide.
#[derive(Debug, Clone, Default)]
pub struct FleetEpochRecord {
    pub epoch: u64,
    /// Slices admitted this epoch.
    pub admitted: u64,
    /// Slices deferred this epoch.
    pub deferred: u64,
    /// Slices shed this epoch.
    pub shed: u64,
    /// Sequence slots accounted this epoch (executed + failed + panicked
    /// + shed).
    pub statements: u64,
    /// Whether admission overflowed capacity (anything deferred or shed).
    pub saturated: bool,
    /// The tuner fleet slot's action: `idle` or
    /// `tenant=<name> regret=<r> decision=<d>`.
    pub visit: String,
}

impl FleetEpochRecord {
    fn line(&self) -> String {
        format!(
            "epoch {}: admitted={} deferred={} shed={} stmts={} saturated={} visit={}",
            self.epoch,
            self.admitted,
            self.deferred,
            self.shed,
            self.statements,
            if self.saturated { "yes" } else { "no" },
            self.visit,
        )
    }
}

/// Aggregate result of a [`serve_fleet`] run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Tenants the fleet served.
    pub tenants: usize,
    /// Executor threads the run started with.
    pub workers: usize,
    pub executed: u64,
    /// Statements shed by admission control.
    pub shed: u64,
    pub parse_failures: u64,
    pub panics: u64,
    pub admitted_slices: u64,
    pub deferred_slices: u64,
    pub shed_slices: u64,
    pub saturated_epochs: u64,
    pub slo_violations: u64,
    pub tuning_visits: u64,
    pub workers_retired: usize,
    /// Always 0: the engine has one task queue and nothing is stolen.
    /// Kept because `perf/src/drive.rs` reads it (ROADMAP item 4 a).
    pub steals: u64,
    /// Plans prepared for publications' template slots, all tenants
    /// (`planner.prepared`): against the tenants' `fastpath_hits`, how
    /// often a bound statement found its template already planned.
    /// Worker-count invariant; not part of any transcript.
    pub plans_prepared: u64,
    pub total_sim_latency_ms: f64,
    /// Deterministic simulated fleet makespan, ms: the engine's per-epoch
    /// LPT packing of every admitted (tenant × shard) task's
    /// simulated-latency total onto the worker slots, summed over epochs.
    /// A pure function of `(streams, config, workers)` — byte-stable,
    /// unlike wall clock.
    pub sim_makespan_ms: f64,
    /// Per-epoch fleet records, in epoch order.
    pub epochs: Vec<FleetEpochRecord>,
    /// Per-tenant reports, in tenant order.
    pub tenant_reports: Vec<TenantReport>,
    /// Real wall-clock time of the whole run.
    pub wall: Duration,
}

impl FleetReport {
    /// Simulated makespan, ms (see [`FleetReport::sim_makespan_ms`]).
    pub fn makespan_ms(&self) -> f64 {
        self.sim_makespan_ms
    }

    /// Fleet throughput in the simulation's time domain: executed
    /// statements per simulated second of makespan — the metric the
    /// `fleet_sweep` bench result sweeps over worker counts.
    pub fn simulated_qps(&self) -> f64 {
        simulated_qps(self.executed, self.sim_makespan_ms)
    }

    /// The fleet-level byte-comparable surface: totals, every epoch's
    /// admission counts and tuner visit. Worker count, makespan and wall
    /// clock are deliberately excluded.
    pub fn transcript(&self) -> String {
        let mut out = format!(
            "fleet: tenants={} executed={} shed={} parse_failures={} panics={} \
             admitted_slices={} deferred_slices={} shed_slices={} saturated_epochs={} \
             slo_violations={} tuning_visits={} epochs={} total_sim_ms={:.6}\n",
            self.tenants,
            self.executed,
            self.shed,
            self.parse_failures,
            self.panics,
            self.admitted_slices,
            self.deferred_slices,
            self.shed_slices,
            self.saturated_epochs,
            self.slo_violations,
            self.tuning_visits,
            self.epochs.len(),
            self.total_sim_latency_ms,
        );
        for e in &self.epochs {
            out.push_str(&e.line());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest over the fleet transcript plus every tenant
    /// transcript, in tenant order — one u64 that pins the entire
    /// deterministic surface (`tests/fleet.rs` compares it across worker
    /// counts; the `fleet_sweep` bench result records it).
    pub fn transcript_digest(&self) -> u64 {
        let mut h = fnv1a(self.transcript().as_bytes());
        for t in &self.tenant_reports {
            h = fnv1a_from(h, t.transcript().as_bytes());
        }
        h
    }
}

/// A tenant's evolved state after the run.
pub struct FleetTenantOutcome<E: CostEstimator> {
    pub name: String,
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
}

/// Everything [`serve_fleet`] hands back.
pub struct FleetOutcome<E: CostEstimator> {
    /// Evolved per-tenant state, in tenant order.
    pub tenants: Vec<FleetTenantOutcome<E>>,
    pub report: FleetReport,
    /// The fleet-owned metrics registry (`serve.tenant.*`,
    /// `serve.admission.*`, `serve.fleet.*`, `sql.fastpath.*`).
    pub metrics: MetricsRegistry,
}

// ------------------------------------------------------------ coordinator

/// Coordinator-owned per-tenant state.
struct TenantState<E: CostEstimator> {
    db: SimDb,
    advisor: AutoIndex<E>,
    queries: Arc<Vec<String>>,
    universe: Universe,
    /// The tenant's report, accumulated in place (identity and SLOs are
    /// copied in from the [`TenantSpec`] up front).
    report: TenantReport,
    /// Next unprocessed sequence number of the tenant's stream.
    cursor: u64,
    /// Mean simulated latency of the last slice that executed anything.
    last_mean_ms: Option<f64>,
    /// Frozen baseline: the best (lowest) slice mean ever observed.
    best_mean_ms: f64,
    last_tuned_epoch: Option<u64>,
}

impl<E: CostEstimator> TenantState<E> {
    fn len(&self) -> u64 {
        self.queries.len() as u64
    }

    /// Length of the tenant's next slice.
    fn take(&self, cfg: &FleetConfig) -> u64 {
        cfg.epoch_interval.min(self.len() - self.cursor)
    }

    /// Estimated cost of the tenant's next slice: last observed mean
    /// statement cost (or the configured prior) × slice length.
    fn next_bid(&self, cfg: &FleetConfig) -> f64 {
        self.last_mean_ms.unwrap_or(cfg.assumed_stmt_cost_ms) * self.take(cfg) as f64
    }

    /// Observed regret — last slice mean vs the frozen baseline — when
    /// the tenant has one and it qualifies for the tuner slot at `epoch`.
    fn qualifying_regret(&self, cfg: &FleetConfig, epoch: u64) -> Option<f64> {
        let last = self.last_mean_ms?;
        if !self.best_mean_ms.is_finite() || self.best_mean_ms <= 0.0 {
            return None;
        }
        let regret = (last - self.best_mean_ms) / self.best_mean_ms;
        (regret > cfg.regret_threshold
            && tuning_cooldown_over(self.last_tuned_epoch, epoch, cfg.tuning_cooldown_epochs))
        .then_some(regret)
    }

    /// One tuner visit: diagnose, then run the session pipeline if
    /// diagnosis fired. Returns the canonical decision string.
    fn visit(&mut self, cfg: &FleetConfig, epoch: u64) -> String {
        self.report.tuning_visits += 1;
        self.last_tuned_epoch = Some(epoch);
        // Strategy attribution only when the fleet overrides it: the
        // default (None) keeps decision strings byte-identical to PR8.
        let prefix = cfg
            .tuner_strategy
            .map(|k| format!("strategy={k} "))
            .unwrap_or_default();
        let (diagnosis, prologue) = self.advisor.boundary(&self.db);
        if !diagnosis.should_tune {
            return format!("{prefix}quiet");
        }
        let decision = tuning_round(
            &mut self.db,
            &mut self.advisor,
            prologue,
            cfg.guard.clone(),
            cfg.reset_usage_after_tuning,
        );
        format!("{prefix}{decision}")
    }
}

/// Deterministic percentile over **sorted** latencies — the same
/// nearest-rank convention the storage layer's workload measurements
/// use.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ----------------------------------------------------------- serve_fleet

/// Run the multi-tenant serving fleet over `tenants`: the epoch engine
/// ([`crate::engine`]) under this module's admission, SLO and tuner-slot
/// policy (see the [module docs](self)).
///
/// Consumes the tenants (their databases and advisors evolve during the
/// run) and returns them in [`FleetOutcome::tenants`], with the report and
/// the fleet-owned metrics registry. A panic on the coordinator (a tuner
/// visit) aborts the pipeline and is returned as an error under
/// `fleet.tuner`.
pub fn serve_fleet<E: CostEstimator>(
    tenants: Vec<FleetTenant<E>>,
    config: FleetConfig,
) -> Result<FleetOutcome<E>, AutoIndexError> {
    let config = FleetConfigBuilder { cfg: config }.build()?;
    let started = Instant::now();

    let registry = MetricsRegistry::new();
    registry
        .gauge("serve.fleet.tenants")
        .set(tenants.len() as f64);
    registry
        .gauge("serve.admission.capacity_ms")
        .set(config.epoch_capacity_ms);

    // Per-tenant state + one engine lane each and its initial (epoch 0)
    // publication. The lanes borrow their own handles on the streams.
    let queries: Vec<Arc<Vec<String>>> = tenants.iter().map(|t| Arc::clone(&t.queries)).collect();
    let mut states: Vec<TenantState<E>> = Vec::with_capacity(tenants.len());
    let mut lanes: Vec<Lane> = Vec::with_capacity(tenants.len());
    let mut initial: Vec<Publication> = Vec::with_capacity(tenants.len());
    let upkeep = UpkeepCounters::bind(&registry);
    for (t, mut tenant) in tenants.into_iter().enumerate() {
        if let Some(k) = config.tuner_strategy {
            tenant.advisor.set_strategy(k);
        }
        initial.push(Publication::build(
            &tenant.db,
            &mut tenant.advisor,
            0,
            config.fastpath,
            &upkeep,
        ));
        lanes.push(Lane::new(&queries[t], derive_seed(config.seed, t as u64)));
        states.push(TenantState {
            db: tenant.db,
            advisor: tenant.advisor,
            queries: tenant.queries,
            universe: Universe::new(),
            report: TenantReport {
                name: tenant.spec.name,
                priority: tenant.spec.priority,
                slo_p50_ms: tenant.spec.slo_p50_ms,
                slo_p99_ms: tenant.spec.slo_p99_ms,
                ..TenantReport::default()
            },
            cursor: 0,
            last_mean_ms: None,
            best_mean_ms: f64::INFINITY,
            last_tuned_epoch: None,
        });
    }
    let engine = Engine::new(
        EngineConfig {
            name: "fleet.tuner",
            workers: config.workers,
            shards: config.shards,
            fastpath: config.fastpath,
            max_worker_panics: config.max_worker_panics,
            panic_on: config.panic_on.clone(),
        },
        &registry,
        "serve.fleet",
        lanes,
    );
    let workers = engine.workers();
    registry.gauge("serve.fleet.workers").set(workers as f64);

    let mut epochs: Vec<FleetEpochRecord> = Vec::new();

    let sim_makespan_ms = engine.run(initial, |coordinator| {
        for epoch in 0.. {
            // ---- admission: every unfinished tenant bids for a slice.
            let candidates: Vec<AdmissionCandidate> = states
                .iter()
                .enumerate()
                .filter(|(_, st)| st.cursor < st.len())
                .map(|(t, st)| AdmissionCandidate {
                    tenant: t as u32,
                    priority: st.report.priority,
                    est_cost_ms: st.next_bid(&config),
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let decisions = decide_admission(
                &candidates,
                config.epoch_capacity_ms,
                config.shed_floor_priority,
            );

            let mut slices: Vec<Slice> = Vec::new();
            // Tenants whose live state moves this epoch (admitted or
            // visited) and therefore republish at its end.
            let mut republish = vec![false; states.len()];
            let mut rec = FleetEpochRecord {
                epoch,
                visit: "idle".to_string(),
                ..FleetEpochRecord::default()
            };
            for d in &decisions {
                let t = d.tenant as usize;
                let st = &mut states[t];
                if d.admission == Admission::Defer {
                    st.report.deferrals += 1;
                    rec.deferred += 1;
                    continue;
                }
                // Admitted or shed: the cursor moves and the slice's record
                // opens now; it is filled in as the epoch's observations are
                // absorbed and finalized after the tuner visit.
                let take = st.take(&config);
                let shed = d.admission == Admission::Shed;
                st.report.slices.push(TenantSliceRecord {
                    slice: st.report.slices.len() as u64,
                    epoch,
                    statements: take,
                    shed: if shed { take } else { 0 },
                    slo_ok: !shed,
                    decision: if shed { "shed" } else { "admit" }.to_string(),
                    ..TenantSliceRecord::default()
                });
                if shed {
                    st.report.shed += take;
                    st.report.slo_violations += 1;
                    rec.shed += 1;
                } else {
                    republish[t] = true;
                    slices.push(Slice {
                        tenant: d.tenant,
                        start: st.cursor,
                        end: st.cursor + take,
                    });
                    rec.admitted += 1;
                }
                st.cursor += take;
                rec.statements += take;
            }
            rec.saturated = rec.deferred > 0 || rec.shed > 0;

            // ---- execute: one observation per admitted sequence slot,
            // merged on the (tenant, seq) logical clock; absorb per tenant.
            let got = coordinator.run_epoch(epoch, &slices)?;
            let mut latencies: Vec<f64> = Vec::new();
            for slice in got.chunk_by(|a, b| a.tenant == b.tenant) {
                let st = &mut states[slice[0].tenant as usize];
                latencies.clear();
                let tally = absorb_slice(&mut st.db, &mut st.advisor, &st.queries, slice, |ms| {
                    latencies.push(ms)
                });
                st.report.fastpath_hits += tally.fastpath_hits;
                st.report.fastpath_misses += tally.executed - tally.fastpath_hits;
                st.report.executed += tally.executed;
                st.report.parse_failures += tally.parse_failures;
                st.report.panics += tally.panics;
                st.report.total_sim_latency_ms += tally.sim_latency_ms;
                let record = st.report.slices.last_mut().expect("opened at admission");
                record.executed = tally.executed;
                record.parse_failures = tally.parse_failures;
                record.panics = tally.panics;
                record.sim_latency_ms = tally.sim_latency_ms;
                latencies.sort_unstable_by(f64::total_cmp);
                record.p50_ms = percentile(&latencies, 0.50);
                record.p99_ms = percentile(&latencies, 0.99);
                if record.executed > 0 {
                    record.slo_ok = record.p50_ms <= st.report.slo_p50_ms
                        && record.p99_ms <= st.report.slo_p99_ms;
                    st.report.slo_violations += u64::from(!record.slo_ok);
                    let mean = record.sim_latency_ms / record.executed as f64;
                    st.last_mean_ms = Some(mean);
                    st.best_mean_ms = st.best_mean_ms.min(mean);
                    if config.tuner_strategy == Some(StrategyKind::Bandit) {
                        // Close the bandit's loop: the measured slice mean
                        // is the reward for the arms applied last visit.
                        st.advisor.observe_reward(mean);
                    }
                }
            }

            // ---- the tuner fleet slot: one visit, highest regret wins
            // (the lowest tenant id among equals).
            let mut pick: Option<(usize, f64)> = None;
            for (t, st) in states.iter().enumerate() {
                if let Some(regret) = st.qualifying_regret(&config, epoch) {
                    if pick.is_none_or(|(_, r)| regret > r) {
                        pick = Some((t, regret));
                    }
                }
            }
            if let Some((t, regret)) = pick {
                republish[t] = true;
                let decision = states[t].visit(&config, epoch);
                rec.visit = format!(
                    "tenant={} regret={regret:.6} decision={decision}",
                    states[t].report.name
                );
            }

            // ---- finalize this epoch's slice records and republish
            // every tenant the epoch touched.
            for d in decisions.iter().filter(|d| d.admission != Admission::Defer) {
                let st = &mut states[d.tenant as usize];
                let record = st.report.slices.last_mut().expect("opened this epoch");
                record.config_fingerprint = st.universe.config_fingerprint(&st.db);
                record.index_count = st.db.index_count();
            }
            for (t, st) in states.iter_mut().enumerate().filter(|(t, _)| republish[*t]) {
                let next = Publication::build(
                    &st.db,
                    &mut st.advisor,
                    epoch + 1,
                    config.fastpath,
                    &upkeep,
                );
                coordinator.publish(t as u32, next);
            }

            epochs.push(rec);
        }
        Ok(coordinator.sim_makespan_ms)
    })?;

    let (tenant_reports, outcome_tenants): (Vec<TenantReport>, Vec<FleetTenantOutcome<E>>) = states
        .into_iter()
        .map(|st| {
            let name = st.report.name.clone();
            (
                st.report,
                FleetTenantOutcome {
                    name,
                    db: st.db,
                    advisor: st.advisor,
                },
            )
        })
        .unzip();

    let report = FleetReport {
        tenants: tenant_reports.len(),
        workers,
        executed: tenant_reports.iter().map(|t| t.executed).sum(),
        shed: tenant_reports.iter().map(|t| t.shed).sum(),
        parse_failures: tenant_reports.iter().map(|t| t.parse_failures).sum(),
        panics: tenant_reports.iter().map(|t| t.panics).sum(),
        admitted_slices: epochs.iter().map(|e| e.admitted).sum(),
        deferred_slices: epochs.iter().map(|e| e.deferred).sum(),
        shed_slices: epochs.iter().map(|e| e.shed).sum(),
        saturated_epochs: epochs.iter().filter(|e| e.saturated).count() as u64,
        slo_violations: tenant_reports.iter().map(|t| t.slo_violations).sum(),
        tuning_visits: tenant_reports.iter().map(|t| t.tuning_visits).sum(),
        workers_retired: engine.workers_retired(),
        steals: 0,
        plans_prepared: upkeep.prepared.get(),
        total_sim_latency_ms: tenant_reports.iter().map(|t| t.total_sim_latency_ms).sum(),
        sim_makespan_ms,
        epochs,
        tenant_reports,
        wall: started.elapsed(),
    };

    // The registry is fleet-owned and handed back only now, so its
    // counters are published once, as a projection of the report.
    for (name, value) in [
        ("serve.tenant.executed", report.executed),
        ("serve.tenant.shed", report.shed),
        ("serve.tenant.parse_failures", report.parse_failures),
        ("serve.tenant.slo_violations", report.slo_violations),
        ("serve.tenant.deferrals", report.deferred_slices),
        ("serve.tenant.tuning_visits", report.tuning_visits),
        ("serve.admission.admitted_slices", report.admitted_slices),
        ("serve.admission.deferred_slices", report.deferred_slices),
        ("serve.admission.shed_slices", report.shed_slices),
        ("serve.admission.saturated_epochs", report.saturated_epochs),
        ("serve.fleet.epochs", report.epochs.len() as u64),
    ] {
        registry.counter(name).add(value);
    }
    Ok(FleetOutcome {
        tenants: outcome_tenants,
        report,
        metrics: registry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 500_000)
                .column(Column::int("id", 500_000))
                .column(Column::int("a", 250_000))
                .column(Column::int("b", 2_000))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        c
    }

    fn tenant(
        name: &str,
        priority: u8,
        queries: Vec<String>,
        seed: u64,
    ) -> FleetTenant<NativeCostEstimator> {
        let cfg = SimDbConfig {
            seed,
            ..Default::default()
        };
        FleetTenant {
            spec: TenantSpec {
                name: name.to_string(),
                priority,
                slo_p50_ms: 1e9,
                slo_p99_ms: 1e9,
            },
            db: SimDb::with_metrics(catalog(), cfg, MetricsRegistry::new()),
            advisor: AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            queries: Arc::new(queries),
        }
    }

    fn point_lookups(n: usize, salt: u64) -> Vec<String> {
        (0..n)
            .map(|i| format!("SELECT * FROM t WHERE a = {}", i as u64 + salt))
            .collect()
    }

    fn scans(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "SELECT b, COUNT(*) FROM t WHERE b > {} GROUP BY b ORDER BY b",
                    i % 50
                )
            })
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(FleetConfig::builder().build().is_ok());
        assert!(FleetConfig::builder().shards(0).build().is_err());
        assert!(FleetConfig::builder().epoch_interval(0).build().is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(0.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(f64::NAN)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .assumed_stmt_cost_ms(0.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .regret_threshold(-1.0)
            .build()
            .is_err());
        assert!(FleetConfig::builder()
            .epoch_capacity_ms(f64::INFINITY)
            .build()
            .is_ok());
    }

    // ---- admission-control unit tests (PR8 satellite) ----

    fn cand(tenant: u32, priority: u8, est: f64) -> AdmissionCandidate {
        AdmissionCandidate {
            tenant,
            priority,
            est_cost_ms: est,
        }
    }

    #[test]
    fn admission_admits_everything_under_capacity() {
        let d = decide_admission(&[cand(0, 1, 10.0), cand(1, 2, 10.0)], 100.0, 1);
        assert!(d.iter().all(|x| x.admission == Admission::Admit));
        // Evaluation order: priority desc, tenant asc.
        assert_eq!(d[0].tenant, 1);
        assert_eq!(d[1].tenant, 0);
    }

    #[test]
    fn admission_head_bid_always_admitted() {
        // Even a bid larger than the whole capacity is admitted at the
        // head — the progress guarantee.
        let d = decide_admission(&[cand(3, 0, 500.0)], 10.0, 1);
        assert_eq!(d[0].admission, Admission::Admit);
    }

    #[test]
    fn saturated_pool_sheds_only_below_floor_priorities() {
        // Capacity fits exactly the two high-priority bids.
        let c = vec![
            cand(0, 0, 10.0), // below floor → shed on overflow
            cand(1, 2, 10.0),
            cand(2, 2, 10.0),
            cand(3, 1, 10.0), // at floor → deferred on overflow
        ];
        let d = decide_admission(&c, 20.0, 1);
        let by_tenant = |t: u32| d.iter().find(|x| x.tenant == t).unwrap().admission;
        assert_eq!(by_tenant(1), Admission::Admit);
        assert_eq!(by_tenant(2), Admission::Admit);
        assert_eq!(by_tenant(3), Admission::Defer, "at/above floor defers");
        assert_eq!(by_tenant(0), Admission::Shed, "below floor sheds");
    }

    #[test]
    fn admission_is_deterministic() {
        let c = vec![cand(2, 1, 7.0), cand(0, 1, 7.0), cand(1, 3, 7.0)];
        let a = decide_admission(&c, 14.0, 1);
        let b = decide_admission(&c, 14.0, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.admission, y.admission);
        }
        // Equal priorities tie-break on tenant id: 1 (prio 3) first, then
        // 0 and 2 in id order.
        assert_eq!(a[0].tenant, 1);
        assert_eq!(a[1].tenant, 0);
        assert_eq!(a[2].tenant, 2);
    }

    // ---- end-to-end fleet tests ----

    #[test]
    fn unconstrained_fleet_executes_everything() {
        let tenants = vec![
            tenant("a", 2, point_lookups(300, 0), 1),
            tenant("b", 1, point_lookups(300, 7_000), 2),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        assert_eq!(out.report.executed, 600);
        assert_eq!(out.report.shed, 0);
        assert_eq!(out.report.deferred_slices, 0);
        assert_eq!(out.report.epochs.len(), 3);
        assert_eq!(out.metrics.counter_value("serve.tenant.executed"), 600);
        assert!(out.report.makespan_ms() > 0.0);
        assert!(out.report.simulated_qps() > 0.0);
        for t in &out.report.tenant_reports {
            assert_eq!(t.executed, 300);
            assert_eq!(t.slices.len(), 3);
            assert!(t.slices.iter().all(|s| s.decision == "admit"));
        }
    }

    #[test]
    fn saturated_fleet_sheds_low_priority_and_slo_counters_match_shed_counts() {
        // Three tenants: one shed-eligible (prio 0), two protected. A
        // capacity that fits roughly two slices forces overflow every
        // epoch while all three still bid.
        let tenants = vec![
            tenant("victim", 0, point_lookups(400, 0), 1),
            tenant("gold", 2, point_lookups(400, 50_000), 2),
            tenant("silver", 1, point_lookups(400, 90_000), 3),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            // Point lookups cost ≲ tens of simulated ms per statement
            // here; two 100-statement slices fit, three do not.
            .epoch_capacity_ms(2_500.0)
            .assumed_stmt_cost_ms(10.0)
            .shed_floor_priority(1)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        let victim = &out.report.tenant_reports[0];
        let gold = &out.report.tenant_reports[1];
        let silver = &out.report.tenant_reports[2];
        assert!(victim.shed > 0, "prio-0 tenant sheds under saturation");
        assert_eq!(gold.shed, 0, "protected tenant never shed");
        assert_eq!(silver.shed, 0, "protected tenant never shed");
        // Every statement is accounted exactly once: executed or shed.
        assert_eq!(victim.executed + victim.shed, 400);
        assert_eq!(gold.executed, 400);
        assert_eq!(silver.executed + silver.shed, 400);
        // SLOs here are effectively infinite, so the only violations are
        // shed slices — the counters must match exactly.
        assert_eq!(
            out.metrics.counter_value("serve.tenant.slo_violations"),
            out.metrics.counter_value("serve.admission.shed_slices"),
        );
        assert_eq!(
            out.report.slo_violations, out.report.shed_slices,
            "report mirrors the metric"
        );
        assert!(out.report.saturated_epochs > 0);
        assert!(out.metrics.gauge_value("serve.admission.capacity_ms") > 0.0);
    }

    #[test]
    fn backpressure_releases_deterministically() {
        // The deferred tenant finishes after the high-priority stream
        // drains, and the whole run is transcript-deterministic.
        let mk = || {
            vec![
                tenant("big", 2, point_lookups(300, 0), 1),
                tenant("patient", 1, point_lookups(200, 40_000), 2),
            ]
        };
        let cfg = |workers: usize| {
            FleetConfig::builder()
                .workers(workers)
                .epoch_interval(100)
                .epoch_capacity_ms(1_500.0)
                .assumed_stmt_cost_ms(10.0)
                .shed_floor_priority(1)
                .build()
                .unwrap()
        };
        let a = serve_fleet(mk(), cfg(1)).unwrap();
        let b = serve_fleet(mk(), cfg(3)).unwrap();
        let patient = &a.report.tenant_reports[1];
        assert!(patient.deferrals > 0, "low-priority tenant was deferred");
        assert_eq!(patient.executed, 200, "deferral is backpressure, not loss");
        assert_eq!(patient.shed, 0, "at-floor tenant is never shed");
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "deferral/release schedule is worker-count invariant"
        );
        assert_eq!(
            a.metrics.counter_value("serve.tenant.deferrals"),
            b.metrics.counter_value("serve.tenant.deferrals"),
        );
    }

    #[test]
    fn fleet_transcripts_are_worker_count_invariant() {
        let mk = || {
            vec![
                tenant("a", 2, point_lookups(250, 0), 1),
                tenant("b", 1, point_lookups(250, 30_000), 2),
                tenant("c", 0, scans(250), 3),
            ]
        };
        let run = |workers: usize| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(64)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.report.transcript(), four.report.transcript());
        for (a, b) in one
            .report
            .tenant_reports
            .iter()
            .zip(&four.report.tenant_reports)
        {
            assert_eq!(a.transcript(), b.transcript(), "tenant {}", a.name);
        }
        assert_eq!(
            one.report.transcript_digest(),
            four.report.transcript_digest()
        );
        // The physical schedule may differ (which worker pops is racy) but the
        // simulated makespan is a pure function of (streams, workers).
        let eight = run(4);
        assert_eq!(
            four.report.sim_makespan_ms.to_bits(),
            eight.report.sim_makespan_ms.to_bits()
        );
    }

    #[test]
    fn regret_directed_tuner_visits_the_drifting_tenant() {
        // Tenant "drift" switches from cheap point lookups to expensive
        // scans half-way: its slice mean rises above its frozen baseline
        // and the fleet slot must visit it.
        let mut stream = point_lookups(300, 0);
        stream.extend(scans(300));
        let tenants = vec![
            tenant("steady", 1, point_lookups(600, 70_000), 1),
            tenant("drift", 1, stream, 2),
        ];
        let cfg = FleetConfig::builder()
            .workers(2)
            .epoch_interval(100)
            .regret_threshold(0.10)
            .build()
            .unwrap();
        let out = serve_fleet(tenants, cfg).unwrap();
        let drift = &out.report.tenant_reports[1];
        assert!(
            drift.tuning_visits >= 1,
            "drifting tenant visited: {}",
            out.report.transcript()
        );
        assert!(out
            .report
            .epochs
            .iter()
            .any(|e| e.visit.contains("tenant=drift")));
        assert_eq!(
            out.metrics.counter_value("serve.tenant.tuning_visits"),
            out.report.tuning_visits
        );
    }

    #[test]
    fn bandit_tuner_override_attributes_visits_and_stays_invariant() {
        // With `tuner_strategy = Some(Bandit)` the drifting tenant's
        // visits are bandit-driven, attributed in the decision string,
        // and the transcript stays worker-count invariant; with the
        // override off nothing about the transcript changes vs PR8.
        let mk = || {
            let mut stream = point_lookups(300, 0);
            stream.extend(scans(300));
            vec![
                tenant("steady", 1, point_lookups(600, 70_000), 1),
                tenant("drift", 1, stream, 2),
            ]
        };
        let run = |workers: usize, strat: Option<StrategyKind>| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(100)
                .regret_threshold(0.10)
                .tuner_strategy(strat)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let a = run(1, Some(StrategyKind::Bandit));
        let b = run(3, Some(StrategyKind::Bandit));
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "bandit visits are worker-count invariant"
        );
        assert!(
            a.report
                .epochs
                .iter()
                .any(|e| e.visit.contains("strategy=bandit")),
            "visits carry strategy attribution: {}",
            a.report.transcript()
        );
        let plain = run(1, None);
        assert!(
            plain
                .report
                .epochs
                .iter()
                .all(|e| !e.visit.contains("strategy=")),
            "no attribution without the override"
        );
    }

    #[test]
    fn injected_worker_panics_retire_workers_but_complete_the_stream() {
        let mk = || vec![tenant("a", 1, point_lookups(200, 0), 1)];
        let run = |workers: usize| {
            let cfg = FleetConfig::builder()
                .workers(workers)
                .epoch_interval(50)
                .panic_on(vec![(0, 10), (0, 60), (0, 110)])
                .max_worker_panics(0)
                .build()
                .unwrap();
            serve_fleet(mk(), cfg).unwrap()
        };
        let a = run(1);
        assert_eq!(a.report.panics, 3);
        assert_eq!(a.report.executed, 197);
        assert!(a.report.workers_retired >= 1);
        let b = run(3);
        assert_eq!(
            a.report.transcript_digest(),
            b.report.transcript_digest(),
            "seq-keyed crashes reproduce at any worker count"
        );
    }

    #[test]
    fn empty_fleet_is_fine() {
        let out = serve_fleet(
            Vec::<FleetTenant<NativeCostEstimator>>::new(),
            FleetConfig::default(),
        )
        .unwrap();
        assert_eq!(out.report.executed, 0);
        assert!(out.report.epochs.is_empty());
        assert_eq!(out.report.simulated_qps(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 51.0); // round(99*0.5)=50 → v[50]
        assert_eq!(percentile(&v, 0.99), 99.0); // round(99*0.99)=98 → v[98]
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Duplicates, sorted the way a slice's latencies are: ties keep
        // their rank, whichever of the equal values lands there.
        let mut dup = vec![2.0, 9.0, 2.0, 0.5, 2.0, 9.0, 0.5, 2.0];
        dup.sort_unstable_by(f64::total_cmp);
        assert_eq!(dup, vec![0.5, 0.5, 2.0, 2.0, 2.0, 2.0, 9.0, 9.0]);
        assert_eq!(percentile(&dup, 0.50), 2.0); // round(7*0.5)=4 → dup[4]
        assert_eq!(percentile(&dup, 0.99), 9.0); // round(7*0.99)=7 → dup[7]
    }
}
