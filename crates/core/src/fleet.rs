//! Multi-tenant serving fleet: work-stealing executors, per-tenant
//! lock-free snapshot publication, SLO-driven admission control and a
//! regret-directed background tuner slot.
//!
//! [`serve`](mod@crate::serve) proves the epoch-snapshot design at one
//! database; [`serve_fleet`] multiplexes **many logical tenants** — each
//! its own [`SimDb`] + advisor + query stream — over one executor pool:
//!
//! ```text
//!  tenant streams      admission (per epoch)        work-stealing pool
//!  ┌──────────┐   Admit ┌─────────────────────┐   ┌────────┐┌────────┐
//!  │ t0 ░░░░░░│ ───────►│ slice → shard tasks │──►│worker 0││worker 1│…
//!  │ t1 ░░░░░░│  Defer  └─────────────────────┘   └───▲────┘└───▲────┘
//!  │ t2 ░░░░░░│ (cursor holds)                        │ steal-half │
//!  └──────────┘  Shed (cursor skips, counted)         └───────────-┘
//!        ▲                                                  │
//!        │           per-tenant ArcSlot<Publication> ◄──────┘ (lock-free)
//!        │    ┌───────────────────────────────────────────┐
//!        └────│ coordinator: merge observations on (tenant,│
//!             │ seq), absorb per tenant, pick ONE tenant by│
//!             │ observed regret for the tuner fleet slot,  │
//!             │ republish snapshots, next epoch            │
//!             └───────────────────────────────────────────┘
//! ```
//!
//! * **Work stealing.** Admitted slices are split into per-shard tasks
//!   and spread round-robin over per-worker deques
//!   ([`autoindex_support::steal::StealPool`]); an idle worker steals the
//!   back half of a victim's deque. Scheduling is racy by design — the
//!   transcript surface is merged on the `(tenant, seq)` logical clock,
//!   so *which* worker ran a statement never shows.
//! * **Lock-free publication.** Each tenant's epoch snapshot + compiled
//!   template cache lives in its own
//!   [`ArcSlot`]; workers clone the
//!   `Arc` once per task with no lock and no epoch barrier — the fleet is
//!   bulk-synchronous *by construction* (epoch `e+1` tasks exist only
//!   after every epoch-`e` observation is processed), so a task's
//!   publication is always already current.
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
//!   background tuner: the pick is the tenant with the highest observed
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
//! physical schedule, which is observability data
//! (`serve.fleet.steals`, wall time) and the *simulated makespan* (the
//! LPT packing of per-task costs onto worker slots, deliberately kept
//! out of the transcript). `scripts/verify.sh` smoke-checks the 1-worker
//! and 4-worker fleet transcript digests byte-for-byte; the property
//! tests in `crates/core/tests/fleet.rs` pin permutation- and
//! worker-count-invariance.
//!
//! # Crash safety
//!
//! Worker statements run inside `catch_unwind`; a worker that exhausts
//! [`FleetConfig::max_worker_panics`] hands the unfinished remainder of
//! its task back (front of its own deque, where a thief finds it first)
//! and retires. Parked workers use *bounded* waits, so a remainder can
//! never be stranded behind a sleeping peer; if every worker retires,
//! the coordinator drains the pool inline with an unlimited budget.

use crate::error::{invalid, AutoIndexError};
use crate::fastpath::FastPathCache;
use crate::guard::GuardConfig;
use crate::mcts::{ConfigSet, Universe};
use crate::serve::{
    execute_statement, lpt_makespan, shard_of, tuning_cooldown_over, ObservationPayload,
    Publication, WorkerScratch,
};
use crate::strategy::StrategyKind;
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::SimDb;
use autoindex_support::arcswap::ArcSlot;
use autoindex_support::hash::{fnv1a, fnv1a_from};
use autoindex_support::obs::{Counter, MetricsRegistry};
use autoindex_support::rng::derive_seed;
use autoindex_support::steal::StealPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Bound of the observation channel.
    pub channel_capacity: usize,
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
            channel_capacity: 1_024,
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

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
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
    pub fn channel_capacity(mut self, v: usize) -> Self {
        self.cfg.channel_capacity = v;
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
        if c.channel_capacity == 0 {
            return Err(invalid("fleet.channel_capacity", "must be >= 1"));
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

// ------------------------------------------------------------- fleet gate

/// Idle-parking for fleet workers. The fleet needs no epoch barrier
/// (it is bulk-synchronous by construction), only a place for a worker
/// to nap when the pool runs dry between epochs — with a *bounded* wait,
/// so a retired worker's requeued remainder is always re-polled for and
/// can never deadlock behind a sleeping peer.
struct FleetGate {
    done: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl FleetGate {
    fn new() -> Self {
        FleetGate {
            done: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.wake_all();
    }

    fn wake_all(&self) {
        let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Bounded nap (≤ 2 ms): wake-ups may be missed between a failed pop
    /// and the park (the coordinator injects and notifies concurrently),
    /// so the timeout — not the notification — is the liveness guarantee.
    fn park(&self) {
        if self.is_done() {
            return;
        }
        let g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self
            .cv
            .wait_timeout(g, Duration::from_millis(2))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

// ----------------------------------------------------------------- tasks

/// One unit of fleet work: tenant `tenant`'s statements in
/// `[start, end)` that map to `shard`, resuming at `resume_at` after an
/// interrupted run.
#[derive(Debug, Clone, Copy)]
struct FleetTask {
    tenant: u32,
    epoch: u64,
    start: u64,
    end: u64,
    shard: u64,
    resume_at: u64,
}

/// One statement's result, stamped with its tenant and logical-clock
/// position — the fleet's merge key is `(tenant, seq)`.
#[derive(Debug)]
struct FleetObservation {
    tenant: u32,
    epoch: u64,
    seq: u64,
    payload: ObservationPayload,
}

// --------------------------------------------------------------- metrics

/// Cached `serve.tenant.*` / `serve.admission.*` / `serve.fleet.*`
/// handles, bound into the fleet-owned registry
/// ([`FleetOutcome::metrics`]).
#[derive(Clone)]
struct FleetMetrics {
    tenant_executed: Counter,
    tenant_shed: Counter,
    tenant_parse_failures: Counter,
    tenant_slo_violations: Counter,
    tenant_deferrals: Counter,
    tenant_tuning_visits: Counter,
    admitted_slices: Counter,
    deferred_slices: Counter,
    shed_slices: Counter,
    saturated_epochs: Counter,
    epochs: Counter,
    worker_panics: Counter,
    workers_retired: Counter,
    fastpath_hits: autoindex_support::obs::ShardedCounter,
    fastpath_misses: autoindex_support::obs::ShardedCounter,
    fastpath_fallbacks: autoindex_support::obs::ShardedCounter,
}

impl FleetMetrics {
    fn bind(m: &MetricsRegistry) -> Self {
        FleetMetrics {
            tenant_executed: m.counter("serve.tenant.executed"),
            tenant_shed: m.counter("serve.tenant.shed"),
            tenant_parse_failures: m.counter("serve.tenant.parse_failures"),
            tenant_slo_violations: m.counter("serve.tenant.slo_violations"),
            tenant_deferrals: m.counter("serve.tenant.deferrals"),
            tenant_tuning_visits: m.counter("serve.tenant.tuning_visits"),
            admitted_slices: m.counter("serve.admission.admitted_slices"),
            deferred_slices: m.counter("serve.admission.deferred_slices"),
            shed_slices: m.counter("serve.admission.shed_slices"),
            saturated_epochs: m.counter("serve.admission.saturated_epochs"),
            epochs: m.counter("serve.fleet.epochs"),
            worker_panics: m.counter("serve.fleet.worker_panics"),
            workers_retired: m.counter("serve.fleet.workers_retired"),
            fastpath_hits: m.sharded_counter("sql.fastpath.hits"),
            fastpath_misses: m.sharded_counter("sql.fastpath.misses"),
            fastpath_fallbacks: m.sharded_counter("sql.fastpath.fallbacks"),
        }
    }
}

// --------------------------------------------------------------- reports

/// What one tenant slice (one epoch's worth of one tenant's stream)
/// produced. Everything here is deterministic; the formatted line is
/// part of the tenant transcript surface.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
    /// Successful steal grabs (scheduler-dependent; observability only).
    pub steals: u64,
    /// Tasks moved by steals (scheduler-dependent; observability only).
    pub stolen_tasks: u64,
    pub total_sim_latency_ms: f64,
    /// Deterministic simulated fleet makespan, ms: per epoch, every
    /// admitted (tenant × shard) task's simulated-latency total is
    /// packed onto the worker slots with greedy LPT
    /// (the [`serve`](mod@crate::serve) methodology), and the busiest slot's
    /// load is summed over epochs. A pure function of
    /// `(streams, config, workers)` — byte-stable, unlike wall clock.
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
    /// statements per simulated second of makespan — the metric
    /// `BENCH_PR8.json` sweeps over worker counts.
    pub fn simulated_qps(&self) -> f64 {
        let mk = self.makespan_ms();
        if mk <= 0.0 {
            0.0
        } else {
            self.executed as f64 * 1000.0 / mk
        }
    }

    /// The fleet-level byte-comparable surface: totals, every epoch's
    /// admission counts and tuner visit. Worker count, steal counts,
    /// makespan and wall clock are deliberately excluded.
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
    /// deterministic surface (`verify.sh` compares it across worker
    /// counts; `BENCH_PR8.json` records it).
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

// --------------------------------------------------------------- workers

/// Read-only state shared with the executor threads.
struct FleetShared<'a> {
    cfg: &'a FleetConfig,
    pool: &'a StealPool<FleetTask>,
    gate: &'a FleetGate,
    /// Per-tenant publication slots (workers load, coordinator stores).
    slots: &'a [ArcSlot<Publication>],
    /// Per-tenant query streams.
    queries: &'a [Arc<Vec<String>>],
    /// Per-tenant shard seeds (`derive_seed(cfg.seed, tenant)`).
    seeds: &'a [u64],
    metrics: &'a FleetMetrics,
    /// Workers still running (used by the coordinator to detect that the
    /// whole pool retired and it must drain inline).
    live: &'a AtomicUsize,
}

/// Execute the remaining statements of one task, emitting one
/// observation per sequence slot. Returns `None` normally, or the
/// remainder task when the panic budget ran out mid-task (the caller
/// retires). `emit` returning `false` means the coordinator is gone.
fn run_fleet_task(
    shared: &FleetShared,
    task: FleetTask,
    scratch: &mut WorkerScratch,
    panics: &mut u64,
    max_panics: u64,
    emit: &mut dyn FnMut(FleetObservation) -> bool,
) -> Option<FleetTask> {
    let publication = shared.slots[task.tenant as usize].load();
    scratch.pin((task.tenant as u64, publication.snap.epoch));
    let queries = &shared.queries[task.tenant as usize];
    let seed = shared.seeds[task.tenant as usize];
    for seq in task.resume_at.max(task.start)..task.end {
        if shard_of(seed, seq, shared.cfg.shards) != task.shard {
            continue;
        }
        let payload = match catch_unwind(AssertUnwindSafe(|| {
            if shared.cfg.panic_on.contains(&(task.tenant, seq)) {
                panic!("injected fleet panic at tenant {} seq {seq}", task.tenant);
            }
            execute_statement(
                &publication,
                &queries[seq as usize],
                seq,
                shared.cfg.fastpath,
                scratch,
            )
        })) {
            Ok(p) => p,
            Err(_) => {
                shared.metrics.worker_panics.incr();
                *panics += 1;
                ObservationPayload::Panicked
            }
        };
        let panicked = matches!(payload, ObservationPayload::Panicked);
        if !emit(FleetObservation {
            tenant: task.tenant,
            epoch: task.epoch,
            seq,
            payload,
        }) {
            return None;
        }
        if panicked && *panics > max_panics {
            return (seq + 1 < task.end).then_some(FleetTask {
                resume_at: seq + 1,
                ..task
            });
        }
    }
    None
}

/// The fleet executor loop: pop (or steal) a task, run it against the
/// tenant's current publication, ship observations; park briefly when
/// the pool runs dry. Retires after exhausting the panic budget, handing
/// the task remainder to the front of its own deque (where a thief finds
/// it first).
fn fleet_worker(
    shared: &FleetShared,
    tx: &SyncSender<FleetObservation>,
    max_panics: u64,
    slot: usize,
) {
    let mut scratch = WorkerScratch::with_cells(
        shared.metrics.fastpath_hits.cell(slot),
        shared.metrics.fastpath_misses.cell(slot),
        shared.metrics.fastpath_fallbacks.cell(slot),
    );
    let mut panics = 0u64;
    let mut emit = |o: FleetObservation| tx.send(o).is_ok();
    loop {
        let Some(task) = shared.pool.pop(slot) else {
            if shared.gate.is_done() {
                break;
            }
            shared.gate.park();
            continue;
        };
        let budget_left = panics <= max_panics;
        if let Some(remainder) = run_fleet_task(
            shared,
            task,
            &mut scratch,
            &mut panics,
            max_panics,
            &mut emit,
        ) {
            shared.pool.push_front(slot, remainder);
        }
        if budget_left && panics > max_panics {
            // Budget just ran out: retire. The remainder (if any) is
            // already queued; peers poll with bounded parks, so it is
            // picked up without an explicit wake.
            shared.metrics.workers_retired.incr();
            shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    }
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

// ------------------------------------------------------------ coordinator

/// Coordinator-owned per-tenant state.
struct TenantState<E: CostEstimator> {
    spec: TenantSpec,
    db: SimDb,
    advisor: AutoIndex<E>,
    queries: Arc<Vec<String>>,
    universe: Universe,
    /// Next unprocessed sequence number of the tenant's stream.
    cursor: u64,
    slices: Vec<TenantSliceRecord>,
    executed: u64,
    shed: u64,
    parse_failures: u64,
    panics: u64,
    deferrals: u64,
    slo_violations: u64,
    tuning_visits: u64,
    fastpath_hits: u64,
    fastpath_misses: u64,
    total_sim_latency_ms: f64,
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

    /// Estimated cost of the tenant's next slice: last observed mean
    /// statement cost (or the configured prior) × slice length.
    fn next_bid(&self, cfg: &FleetConfig) -> f64 {
        let take = cfg.epoch_interval.min(self.len() - self.cursor);
        self.last_mean_ms.unwrap_or(cfg.assumed_stmt_cost_ms) * take as f64
    }

    /// `ConfigSet` fingerprint of the current real index set, interned
    /// into this tenant's universe (sorted by key — deterministic).
    fn config_fingerprint(&mut self) -> u64 {
        let mut defs: Vec<_> = self.db.indexes().map(|(_, d)| d.clone()).collect();
        defs.sort_by_key(|d| d.key());
        let mut set = ConfigSet::default();
        for d in &defs {
            set.insert(self.universe.intern(d));
        }
        set.fingerprint()
    }

    /// One tuner visit: diagnose, then run the session pipeline if
    /// diagnosis fired. Returns the canonical decision string.
    fn visit(&mut self, cfg: &FleetConfig, epoch: u64) -> String {
        self.tuning_visits += 1;
        self.last_tuned_epoch = Some(epoch);
        // Strategy attribution only when the fleet overrides it: the
        // default (None) keeps decision strings byte-identical to PR8.
        let prefix = cfg
            .tuner_strategy
            .map(|k| format!("strategy={k} "))
            .unwrap_or_default();
        let diagnosis = self.advisor.diagnose(&self.db);
        if !diagnosis.should_tune {
            return format!("{prefix}quiet");
        }
        let session = self.advisor.session(&mut self.db);
        let run = match cfg.guard.clone() {
            Some(g) => session.guarded(g).run(),
            None => session.run(),
        };
        let decision = match run {
            Err(e) => format!("error({e})"),
            Ok(out) => {
                if out.shadow_rejected() {
                    "shadow_rejected".to_string()
                } else if out.rolled_back() {
                    "rolled_back".to_string()
                } else if out.report.recommendation.is_noop() {
                    "noop".to_string()
                } else {
                    format!(
                        "applied(+{},-{})",
                        out.report.created.len(),
                        out.report.dropped.len()
                    )
                }
            }
        };
        if cfg.reset_usage_after_tuning {
            self.db.reset_usage();
        }
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

/// A slice record accumulated this epoch, finalized (fingerprint +
/// index count) only after the epoch's tuner visit.
struct PendingSlice {
    tenant: usize,
    record: TenantSliceRecord,
}

// ----------------------------------------------------------- serve_fleet

/// Run the multi-tenant serving fleet over `tenants`. See the
/// [module docs](self) for the architecture, determinism contract and
/// crash-safety story.
///
/// Consumes the tenants (their databases and advisors evolve during the
/// run) and returns them in [`FleetOutcome::tenants`], together with the
/// fleet report and the fleet-owned metrics registry.
pub fn serve_fleet<E: CostEstimator + Send>(
    tenants: Vec<FleetTenant<E>>,
    config: FleetConfig,
) -> Result<FleetOutcome<E>, AutoIndexError> {
    let config = FleetConfigBuilder { cfg: config }.build()?;
    let workers = config.resolved_workers();
    let started = Instant::now();

    let registry = MetricsRegistry::new();
    let metrics = FleetMetrics::bind(&registry);
    registry
        .gauge("serve.fleet.tenants")
        .set(tenants.len() as f64);
    registry.gauge("serve.fleet.workers").set(workers as f64);
    registry
        .gauge("serve.admission.capacity_ms")
        .set(config.epoch_capacity_ms);

    // Per-tenant state + initial (epoch 0) publications.
    let mut states: Vec<TenantState<E>> = Vec::with_capacity(tenants.len());
    let mut slots: Vec<ArcSlot<Publication>> = Vec::with_capacity(tenants.len());
    let mut queries: Vec<Arc<Vec<String>>> = Vec::with_capacity(tenants.len());
    let mut seeds: Vec<u64> = Vec::with_capacity(tenants.len());
    for (t, mut tenant) in tenants.into_iter().enumerate() {
        if let Some(k) = config.tuner_strategy {
            tenant.advisor.set_strategy(k);
        }
        let snap = Arc::new(tenant.db.snapshot(0));
        let cache = if config.fastpath {
            Arc::new(FastPathCache::build(
                tenant.advisor.templates().entries(),
                snap.catalog(),
            ))
        } else {
            Arc::new(FastPathCache::empty())
        };
        slots.push(ArcSlot::new(Arc::new(Publication { snap, cache })));
        queries.push(Arc::clone(&tenant.queries));
        seeds.push(derive_seed(config.seed, t as u64));
        states.push(TenantState {
            spec: tenant.spec,
            db: tenant.db,
            advisor: tenant.advisor,
            queries: tenant.queries,
            universe: Universe::new(),
            cursor: 0,
            slices: Vec::new(),
            executed: 0,
            shed: 0,
            parse_failures: 0,
            panics: 0,
            deferrals: 0,
            slo_violations: 0,
            tuning_visits: 0,
            fastpath_hits: 0,
            fastpath_misses: 0,
            total_sim_latency_ms: 0.0,
            last_mean_ms: None,
            best_mean_ms: f64::INFINITY,
            last_tuned_epoch: None,
        });
    }

    let pool: StealPool<FleetTask> = StealPool::new(workers);
    let gate = FleetGate::new();
    let live = AtomicUsize::new(workers);
    let shared = FleetShared {
        cfg: &config,
        pool: &pool,
        gate: &gate,
        slots: &slots,
        queries: &queries,
        seeds: &seeds,
        metrics: &metrics,
        live: &live,
    };
    let (tx, rx) = mpsc::sync_channel::<FleetObservation>(config.channel_capacity);

    let mut epochs: Vec<FleetEpochRecord> = Vec::new();
    let mut sim_makespan_ms = 0.0f64;

    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let shared = &shared;
            let max = config.max_worker_panics;
            s.spawn(move || fleet_worker(shared, &tx, max, w));
        }
        drop(tx); // the coordinator only receives

        let mut coord_scratch = WorkerScratch::with_cells(
            metrics.fastpath_hits.cell(workers),
            metrics.fastpath_misses.cell(workers),
            metrics.fastpath_fallbacks.cell(workers),
        );

        let mut epoch = 0u64;
        loop {
            // ---- admission: every unfinished tenant bids for a slice.
            let candidates: Vec<AdmissionCandidate> = states
                .iter()
                .enumerate()
                .filter(|(_, st)| st.cursor < st.len())
                .map(|(t, st)| AdmissionCandidate {
                    tenant: t as u32,
                    priority: st.spec.priority,
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

            let mut tasks: Vec<FleetTask> = Vec::new();
            let mut expected = 0u64;
            let mut pending: Vec<PendingSlice> = Vec::new();
            // Tenant → index into the epoch's LPT item vector (admitted
            // tenants only; one item per shard).
            let mut item_base: Vec<Option<usize>> = vec![None; states.len()];
            let mut rec = FleetEpochRecord {
                epoch,
                admitted: 0,
                deferred: 0,
                shed: 0,
                statements: 0,
                saturated: false,
                visit: "idle".to_string(),
            };
            for d in &decisions {
                let t = d.tenant as usize;
                let st = &mut states[t];
                let take = config.epoch_interval.min(st.len() - st.cursor);
                let slice = st.slices.len() as u64 + pending_count(&pending, t);
                match d.admission {
                    Admission::Admit => {
                        let (start, end) = (st.cursor, st.cursor + take);
                        item_base[t] = Some(rec.admitted as usize * config.shards as usize);
                        for shard in 0..config.shards {
                            tasks.push(FleetTask {
                                tenant: d.tenant,
                                epoch,
                                start,
                                end,
                                shard,
                                resume_at: start,
                            });
                        }
                        st.cursor = end;
                        expected += take;
                        rec.admitted += 1;
                        rec.statements += take;
                        metrics.admitted_slices.incr();
                        pending.push(PendingSlice {
                            tenant: t,
                            record: TenantSliceRecord {
                                slice,
                                epoch,
                                statements: take,
                                executed: 0,
                                parse_failures: 0,
                                panics: 0,
                                shed: 0,
                                p50_ms: 0.0,
                                p99_ms: 0.0,
                                slo_ok: true,
                                decision: "admit".to_string(),
                                config_fingerprint: 0,
                                index_count: 0,
                                sim_latency_ms: 0.0,
                            },
                        });
                    }
                    Admission::Shed => {
                        st.cursor += take;
                        st.shed += take;
                        st.slo_violations += 1;
                        metrics.tenant_shed.add(take);
                        metrics.tenant_slo_violations.incr();
                        metrics.shed_slices.incr();
                        rec.shed += 1;
                        rec.statements += take;
                        pending.push(PendingSlice {
                            tenant: t,
                            record: TenantSliceRecord {
                                slice,
                                epoch,
                                statements: take,
                                executed: 0,
                                parse_failures: 0,
                                panics: 0,
                                shed: take,
                                p50_ms: 0.0,
                                p99_ms: 0.0,
                                slo_ok: false,
                                decision: "shed".to_string(),
                                config_fingerprint: 0,
                                index_count: 0,
                                sim_latency_ms: 0.0,
                            },
                        });
                    }
                    Admission::Defer => {
                        st.deferrals += 1;
                        metrics.tenant_deferrals.incr();
                        metrics.deferred_slices.incr();
                        rec.deferred += 1;
                    }
                }
            }
            rec.saturated = rec.deferred > 0 || rec.shed > 0;
            if rec.saturated {
                metrics.saturated_epochs.incr();
            }

            // ---- fan out and collect exactly `expected` observations.
            pool.inject(tasks);
            gate.wake_all();
            let mut got: Vec<FleetObservation> = Vec::with_capacity(expected as usize);
            collect_epoch(&rx, &shared, &mut coord_scratch, expected, &mut got);

            // ---- merge on the (tenant, seq) logical clock and absorb.
            got.sort_unstable_by_key(|o| (o.tenant, o.seq));
            debug_assert!(got.iter().all(|o| o.epoch == epoch));
            let mut item_ms = vec![0.0f64; rec.admitted as usize * config.shards as usize];
            let mut latencies: Vec<f64> = Vec::new();
            let mut i = 0usize;
            while i < got.len() {
                let t = got[i].tenant as usize;
                let end = got[i..]
                    .iter()
                    .position(|o| o.tenant as usize != t)
                    .map_or(got.len(), |p| i + p);
                let st = &mut states[t];
                let slice_rec = pending
                    .iter_mut()
                    .find(|p| p.tenant == t)
                    .expect("admitted tenant has a pending slice");
                latencies.clear();
                for o in &got[i..end] {
                    match &o.payload {
                        ObservationPayload::Executed { outcome, delta, fp } => {
                            st.db.absorb(delta);
                            let sql = &st.queries[o.seq as usize];
                            let _ = match fp {
                                Some(h) => st.advisor.observe_prehashed(*h, sql, &st.db),
                                None => st.advisor.observe(sql, &st.db),
                            };
                            match fp {
                                Some(_) => st.fastpath_hits += 1,
                                None => st.fastpath_misses += 1,
                            }
                            slice_rec.record.executed += 1;
                            slice_rec.record.sim_latency_ms += outcome.latency_ms;
                            latencies.push(outcome.latency_ms);
                            let base = item_base[t].expect("admitted tenant has items");
                            item_ms[base + shard_of(seeds[t], o.seq, config.shards) as usize] +=
                                outcome.latency_ms;
                            metrics.tenant_executed.incr();
                        }
                        ObservationPayload::ParseFailed => {
                            slice_rec.record.parse_failures += 1;
                            metrics.tenant_parse_failures.incr();
                        }
                        ObservationPayload::Panicked => slice_rec.record.panics += 1,
                    }
                }
                latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                slice_rec.record.p50_ms = percentile(&latencies, 0.50);
                slice_rec.record.p99_ms = percentile(&latencies, 0.99);
                if slice_rec.record.executed > 0 {
                    slice_rec.record.slo_ok = slice_rec.record.p50_ms <= st.spec.slo_p50_ms
                        && slice_rec.record.p99_ms <= st.spec.slo_p99_ms;
                    if !slice_rec.record.slo_ok {
                        st.slo_violations += 1;
                        metrics.tenant_slo_violations.incr();
                    }
                    let mean = slice_rec.record.sim_latency_ms / slice_rec.record.executed as f64;
                    st.last_mean_ms = Some(mean);
                    st.best_mean_ms = st.best_mean_ms.min(mean);
                    if config.tuner_strategy == Some(StrategyKind::Bandit) {
                        // Close the bandit's loop: the measured slice mean
                        // is the reward for the arms applied last visit.
                        st.advisor.observe_reward(mean);
                    }
                }
                i = end;
            }
            sim_makespan_ms += lpt_makespan(item_ms, workers);

            // ---- the tuner fleet slot: one visit, highest regret wins.
            let mut pick: Option<(usize, f64)> = None;
            for (t, st) in states.iter().enumerate() {
                let Some(last) = st.last_mean_ms else {
                    continue;
                };
                if !st.best_mean_ms.is_finite() || st.best_mean_ms <= 0.0 {
                    continue;
                }
                let regret = (last - st.best_mean_ms) / st.best_mean_ms;
                if regret > config.regret_threshold
                    && tuning_cooldown_over(
                        st.last_tuned_epoch,
                        epoch,
                        config.tuning_cooldown_epochs,
                    )
                    && pick.is_none_or(|(_, r)| regret > r)
                {
                    pick = Some((t, regret));
                }
            }
            let visited = if let Some((t, regret)) = pick {
                let decision = states[t].visit(&config, epoch);
                metrics.tenant_tuning_visits.incr();
                rec.visit = format!(
                    "tenant={} regret={regret:.6} decision={decision}",
                    states[t].spec.name
                );
                Some(t)
            } else {
                None
            };

            // ---- finalize this epoch's slice records and republish.
            for p in pending {
                let st = &mut states[p.tenant];
                let mut record = p.record;
                record.config_fingerprint = st.config_fingerprint();
                record.index_count = st.db.index_count();
                st.executed += record.executed;
                st.parse_failures += record.parse_failures;
                st.panics += record.panics;
                st.total_sim_latency_ms += record.sim_latency_ms;
                st.slices.push(record);
            }
            for (t, st) in states.iter().enumerate() {
                let touched = item_base[t].is_some() || visited == Some(t);
                if !touched {
                    continue;
                }
                let snap = Arc::new(st.db.snapshot(epoch + 1));
                let cache = if config.fastpath {
                    Arc::new(FastPathCache::build(
                        st.advisor.templates().entries(),
                        snap.catalog(),
                    ))
                } else {
                    Arc::new(FastPathCache::empty())
                };
                slots[t].store(Arc::new(Publication { snap, cache }));
            }

            metrics.epochs.incr();
            epochs.push(rec);
            epoch += 1;
        }

        gate.finish();
        // Scope join: the spawned workers exit on the done flag.
    });

    let workers_retired = registry.counter_value("serve.fleet.workers_retired") as usize;
    registry.counter("serve.fleet.steals").add(pool.steals());
    registry
        .counter("serve.fleet.stolen_tasks")
        .add(pool.stolen_tasks());

    let tenant_reports: Vec<TenantReport> = states
        .iter()
        .map(|st| TenantReport {
            name: st.spec.name.clone(),
            priority: st.spec.priority,
            slo_p50_ms: st.spec.slo_p50_ms,
            slo_p99_ms: st.spec.slo_p99_ms,
            executed: st.executed,
            shed: st.shed,
            parse_failures: st.parse_failures,
            panics: st.panics,
            deferrals: st.deferrals,
            slo_violations: st.slo_violations,
            tuning_visits: st.tuning_visits,
            fastpath_hits: st.fastpath_hits,
            fastpath_misses: st.fastpath_misses,
            total_sim_latency_ms: st.total_sim_latency_ms,
            slices: st.slices.clone(),
        })
        .collect();

    let report = FleetReport {
        tenants: tenant_reports.len(),
        workers,
        executed: tenant_reports.iter().map(|t| t.executed).sum(),
        shed: tenant_reports.iter().map(|t| t.shed).sum(),
        parse_failures: tenant_reports.iter().map(|t| t.parse_failures).sum(),
        panics: tenant_reports.iter().map(|t| t.panics).sum(),
        admitted_slices: registry.counter_value("serve.admission.admitted_slices"),
        deferred_slices: registry.counter_value("serve.admission.deferred_slices"),
        shed_slices: registry.counter_value("serve.admission.shed_slices"),
        saturated_epochs: registry.counter_value("serve.admission.saturated_epochs"),
        slo_violations: tenant_reports.iter().map(|t| t.slo_violations).sum(),
        tuning_visits: tenant_reports.iter().map(|t| t.tuning_visits).sum(),
        workers_retired,
        steals: pool.steals(),
        stolen_tasks: pool.stolen_tasks(),
        total_sim_latency_ms: tenant_reports.iter().map(|t| t.total_sim_latency_ms).sum(),
        sim_makespan_ms,
        epochs,
        tenant_reports,
        wall: started.elapsed(),
    };

    let outcome_tenants = states
        .into_iter()
        .map(|st| FleetTenantOutcome {
            name: st.spec.name,
            db: st.db,
            advisor: st.advisor,
        })
        .collect();

    Ok(FleetOutcome {
        tenants: outcome_tenants,
        report,
        metrics: registry,
    })
}

/// Slices already queued for `tenant` this epoch (0 or 1 — a tenant bids
/// once per epoch; kept as a function for clarity at the call site).
fn pending_count(pending: &[PendingSlice], tenant: usize) -> u64 {
    pending.iter().filter(|p| p.tenant == tenant).count() as u64
}

/// Receive exactly `expected` observations for the current epoch. If
/// every worker has retired with tasks still queued, drain the pool
/// inline (unlimited panic budget — each sequence slot panics at most
/// once) so the epoch always completes.
fn collect_epoch(
    rx: &Receiver<FleetObservation>,
    shared: &FleetShared,
    scratch: &mut WorkerScratch,
    expected: u64,
    got: &mut Vec<FleetObservation>,
) {
    while (got.len() as u64) < expected {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(o) => got.push(o),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                while let Ok(o) = rx.try_recv() {
                    got.push(o);
                }
                if shared.live.load(Ordering::SeqCst) == 0 && (got.len() as u64) < expected {
                    let mut panics = 0u64;
                    let mut emit = |o: FleetObservation| {
                        got.push(o);
                        true
                    };
                    while let Some(task) = shared.pool.pop(0) {
                        let left =
                            run_fleet_task(shared, task, scratch, &mut panics, u64::MAX, &mut emit);
                        debug_assert!(left.is_none(), "unlimited budget never retires");
                    }
                }
            }
        }
    }
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
        assert!(FleetConfig::builder().channel_capacity(0).build().is_err());
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
        // The physical schedule may differ (steals are racy) but the
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
    }
}
