//! Concurrent online serving: one epoch loop over the engine, for one
//! tenant ([`serve`]) or many ([`serve_fleet`]).
//!
//! The paper's §III loop — execute, observe, diagnose, tune, swap — run by
//! N executors ([`crate::engine`]) against frozen per-epoch publications,
//! with the boundary between epochs on the calling thread, the only one
//! that owns the live databases and advisors:
//!
//! ```text
//!  tenant streams      admission (per epoch)        epoch engine
//!  ┌──────────┐   Admit ┌─────────────────────┐   ┌──────────────────┐
//!  │ t0 ░░░░░░│ ───────►│ admitted slices     │──►│ run_epoch: each  │
//!  │ t1 ░░░░░░│  Defer  └─────────────────────┘   │ run absorbed as  │
//!  │ t2 ░░░░░░│ (cursor holds)                    │ it passes, per   │
//!  └──────────┘  Shed (cursor skips, counted)     │ lane in seq order│
//!        ▲                                        └────────┬─────────┘
//!        │    ┌────────────────────────────────────────────▼──┐
//!        └────│ boundary: close each admitted slice (totals,  │
//!             │ SLO percentiles), the tuner pick, republish   │
//!             │ every tenant the epoch moved                  │
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! [`serve`] and [`serve_fleet`] only build the tenants' lanes and hand the
//! loop its three boundary policies as plain values:
//!
//! * **Admission** — `decide_admission` over every unfinished tenant's
//!   bid. Its head bid is always admitted, so one lane always runs.
//! * **SLO accounting** — per admitted slice, nearest-rank p50/p99 of its
//!   simulated latencies against the tenant's declared SLOs. `serve`'s lane
//!   declares none and collects no latencies.
//! * **Tuner pick** — `serve` diagnoses its lane at every boundary and runs
//!   a [`TuningSession`](crate::session::TuningSession) (optionally applied
//!   [atomically](crate::guard::apply_atomically)) when diagnosis fires
//!   and the cooldown ([`tuning_cooldown_over`]) is over; `serve_fleet`
//!   visits at most one tenant per epoch, the highest *regret* (last slice
//!   mean vs the best mean ever observed) above [`Config::regret_threshold`]
//!   and out of cooldown, which diagnoses and then tunes if diagnosis fired
//!   (DBA-bandits' regret signal steering AIM-style fleet tuning — see
//!   PAPERS.md).
//!
//! # Determinism contract
//!
//! [`ServeReport::transcript`] and every [`TenantReport::transcript`] are a
//! pure function of the streams and the config: a lane absorbs its
//! observations in `seq` order whatever order they arrive in, and
//! everything the boundary reads is what the lanes absorbed (see
//! `docs/SERVING.md`), so worker count only changes which thread computes
//! an outcome. Wall clock and the simulated makespan stay out of every
//! transcript. `tests/serving.rs` and `tests/fleet.rs` compare 1- and
//! N-worker transcripts byte for byte; `tests/serving_golden.rs` pins
//! them.

use crate::engine::{
    simulated_qps, Engine, EngineConfig, ObservationPayload, Publication, Run, Slice,
};
use crate::error::{invalid, AutoIndexError};
use crate::fastpath::{FrameCache, UpkeepCounters};
use crate::guard::GuardConfig;
use crate::session::{tuning_round, Apply};
use crate::strategy::StrategyKind;
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::SimDb;
use autoindex_support::hash::{fnv1a, fnv1a_from};
use autoindex_support::obs::MetricsRegistry;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// --------------------------------------------------------------- config

/// Configuration of the serving loop. [`ServeConfig`] and [`FleetConfig`]
/// are its two instances: they differ only in how [`Config::panic_on`]
/// names a statement — by its sequence number in the one stream, or by
/// `(tenant, seq)` — and in their defaults (16 shards and 1 000-statement
/// epochs; 4 and 1 024). [`serve`] and [`serve_fleet`] check every field,
/// the guard's included, when they start; so does a builder's `build`.
#[derive(Debug, Clone)]
pub struct Config<Site> {
    /// Executor threads. `0` means one per available core.
    pub workers: usize,
    /// Contiguous runs each admitted tenant slice is cut into: one task per
    /// non-empty run per epoch.
    pub shards: u64,
    /// Statements per tenant slice: the cadence of observation merging,
    /// tuning and configuration swaps.
    pub epoch_interval: u64,
    /// Quiet epochs required strictly between two tunings of one tenant
    /// ([`tuning_cooldown_over`]).
    pub tuning_cooldown_epochs: u64,
    /// Reset a tenant's usage counters after each tuning round.
    pub reset_usage_after_tuning: bool,
    /// Apply each tuning round atomically
    /// ([`apply_atomically`](crate::guard::apply_atomically)), which reads
    /// `build_retries` only. The lifecycle fields are validated but not
    /// read: a round measures nothing after its apply, so it arms no
    /// probation and schedules no cooldown.
    pub guard: Option<GuardConfig>,
    /// Override every tenant advisor's tuning strategy. `Some(k)` prefixes
    /// decisions with `strategy=<k> `; `Some(StrategyKind::Bandit)` also
    /// feeds each slice's measured mean back to the bandit as its reward.
    pub tuner_strategy: Option<StrategyKind>,
    /// Panics a worker absorbs before retiring (`0`: its first retires it).
    pub max_worker_panics: u64,
    /// Test knob: statements at which the executing worker panics inside
    /// the engine's fence. Seq-keyed, so crashes reproduce at any worker
    /// count.
    pub panic_on: Vec<Site>,
    /// Use the compiled-template fast path ([`crate::fastpath`]).
    /// Transcripts are byte-identical either way (CI-checked).
    pub fastpath: bool,
    /// Admission capacity per epoch, **simulated** ms of estimated cost.
    /// `INFINITY` disables admission pressure; one lane always admits.
    pub epoch_capacity_ms: f64,
    /// Tenants with `priority <` this are shed on overflow, the rest
    /// deferred.
    pub shed_floor_priority: u8,
    /// Per-statement cost of a tenant's first bid, before any slice of it
    /// has been observed.
    pub assumed_stmt_cost_ms: f64,
    /// `serve_fleet`'s minimum regret — `(last_mean − best_mean) /
    /// best_mean` — for a visit. The default (5%) sits above the
    /// simulator's 3% latency noise.
    pub regret_threshold: f64,
}

/// [`serve`]'s configuration: panic sites are sequence numbers.
pub type ServeConfig = Config<u64>;

/// [`serve_fleet`]'s configuration: panic sites are `(tenant, seq)` pairs.
pub type FleetConfig = Config<(u32, u64)>;

impl<Site> Config<Site> {
    fn with_defaults(shards: u64, epoch_interval: u64) -> Self {
        Config {
            workers: 1,
            shards,
            epoch_interval,
            tuning_cooldown_epochs: 1,
            reset_usage_after_tuning: true,
            guard: None,
            tuner_strategy: None,
            max_worker_panics: 0,
            panic_on: Vec::new(),
            fastpath: true,
            epoch_capacity_ms: f64::INFINITY,
            shed_floor_priority: 1,
            assumed_stmt_cost_ms: 1.0,
            regret_threshold: 0.05,
        }
    }

    /// Builder over the defaults.
    pub fn builder() -> ConfigBuilder<Site>
    where
        Self: Default,
    {
        ConfigBuilder {
            cfg: Self::default(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Config::with_defaults(16, 1_000)
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Config::with_defaults(4, 1_024)
    }
}

/// Builder for [`Config`]; `build()` validates every field.
#[derive(Debug, Clone)]
pub struct ConfigBuilder<Site> {
    cfg: Config<Site>,
}

/// One setter per field.
macro_rules! setters {
    ($($field:ident: $ty:ty),* $(,)?) => {$(
        pub fn $field(mut self, v: $ty) -> Self {
            self.cfg.$field = v.into();
            self
        }
    )*};
}

impl<Site> ConfigBuilder<Site> {
    setters! {
        workers: usize,
        shards: u64,
        epoch_interval: u64,
        tuning_cooldown_epochs: u64,
        reset_usage_after_tuning: bool,
        guard: impl Into<Option<GuardConfig>>,
        tuner_strategy: impl Into<Option<StrategyKind>>,
        max_worker_panics: u64,
        panic_on: Vec<Site>,
        fastpath: bool,
        epoch_capacity_ms: f64,
        shed_floor_priority: u8,
        assumed_stmt_cost_ms: f64,
        regret_threshold: f64,
    }

    /// Validate and build.
    pub fn build(self) -> Result<Config<Site>, AutoIndexError> {
        validate(&self.cfg, [])?;
        Ok(self.cfg)
    }
}

/// The one validation: every config field, then every tenant's declared
/// `(p50, p99)` SLOs, then the guard's fields. `INFINITY` declares no SLO; a NaN one would make
/// every executed slice a violation, a negative one can never be met.
fn validate<Site>(
    c: &Config<Site>,
    slos: impl IntoIterator<Item = (f64, f64)>,
) -> Result<(), AutoIndexError> {
    let positive = |v: f64| v > 0.0; // false for NaN
    let negative = |v: f64| v.is_nan() || v < 0.0; // true for NaN
    let checks = [
        (c.shards == 0, "serve.shards", "must be >= 1"),
        (
            c.epoch_interval == 0,
            "serve.epoch_interval",
            "must be >= 1 (a zero-length epoch never completes)",
        ),
        (
            !positive(c.epoch_capacity_ms),
            "serve.epoch_capacity_ms",
            "must be > 0 (use INFINITY to disable admission pressure)",
        ),
        (
            !(positive(c.assumed_stmt_cost_ms) && c.assumed_stmt_cost_ms.is_finite()),
            "serve.assumed_stmt_cost_ms",
            "must be finite and > 0",
        ),
        (
            negative(c.regret_threshold),
            "serve.regret_threshold",
            "must be >= 0",
        ),
    ];
    let slos = slos.into_iter().flat_map(|(p50, p99)| {
        let reason = "must be >= 0 (INFINITY declares no SLO)";
        [
            (negative(p50), "serve.tenant.slo_p50_ms", reason),
            (negative(p99), "serve.tenant.slo_p99_ms", reason),
        ]
    });
    match checks.into_iter().chain(slos).find(|check| check.0) {
        Some((_, field, reason)) => Err(invalid(field, reason)),
        None => c.guard.as_ref().map_or(Ok(()), GuardConfig::validate),
    }
}

// --------------------------------------------------------------- tenants

/// A tenant's identity and service-level declaration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant name (transcript-visible).
    pub name: String,
    /// Admission priority: higher is more important. Tenants *below*
    /// [`Config::shed_floor_priority`] are shed (not deferred) when the
    /// pool saturates.
    pub priority: u8,
    /// Declared p50 latency SLO, simulated ms (`INFINITY`: none).
    pub slo_p50_ms: f64,
    /// Declared p99 latency SLO, simulated ms (`INFINITY`: none).
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

// ------------------------------------------------------------- admission

/// What the admission controller did with one tenant's bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// The slice runs this epoch.
    #[default]
    Admit,
    /// The slice waits: the cursor holds (backpressure).
    Defer,
    /// The slice is skipped: the cursor advances, its statements count as
    /// shed and an SLO violation is recorded.
    Shed,
}

/// One tenant's bid for the next epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionCandidate {
    pub(crate) tenant: u32,
    pub(crate) priority: u8,
    /// Estimated simulated cost of the tenant's next slice, ms.
    pub(crate) est_cost_ms: f64,
}

/// [`decide_admission`]'s verdict for one candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionDecision {
    pub(crate) tenant: u32,
    pub(crate) admission: Admission,
}

/// The pure admission policy: pack candidate bids into `capacity_ms`
/// greedily in `(priority desc, tenant asc)` order, returned in that order.
///
/// * The head candidate is **always** admitted, even when its bid alone
///   exceeds capacity — the progress guarantee that makes the loop
///   terminate (and a one-lane run admit at any capacity).
/// * Subsequent candidates are admitted while the running estimated cost
///   stays within capacity.
/// * A candidate that does not fit is **shed** if
///   `priority < shed_floor_priority`, otherwise **deferred**.
///
/// Capacity is a config constant in the simulated-cost domain, never
/// derived from the worker count, so transcripts stay worker-count
/// invariant.
pub(crate) fn decide_admission(
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

/// Deterministic percentile of latencies in any order — the same
/// nearest-rank convention the storage layer's workload measurements use
/// — by selection instead of a sort: the value a `total_cmp` sort puts at
/// the rank, bit for bit (values equal under `total_cmp` are bit-equal).
/// Leaves `values` partitioned around it.
pub(crate) fn select_percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = nearest_rank(values.len(), q);
    *values.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// The position of quantile `q` among `len > 0` sorted values.
fn nearest_rank(len: usize, q: f64) -> usize {
    let idx = ((len - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    idx.min(len - 1)
}

// ------------------------------------------------------------ tuner pick

/// Who the tuner takes at a boundary — the policy the two drivers differ
/// in, and what a report renders by.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum TunerPick {
    /// `serve`: diagnose every admitted tenant; run a round when diagnosis
    /// fires and the tenant's cooldown is over (decisions `none`,
    /// `cooldown`, or the round's). The cooldown restarts on a round.
    #[default]
    EveryBoundary,
    /// `serve_fleet`: at most one visit per epoch, to the tenant with the
    /// highest regret above `threshold` whose cooldown is over (ties to
    /// the lowest tenant id); the visit diagnoses, then runs a round if
    /// diagnosis fired (decisions `quiet` or the round's). The cooldown
    /// restarts on the visit.
    HighestRegret { threshold: f64 },
}

impl TunerPick {
    /// Whether a tenant the tuner diagnosed gets a round (`Ok`) or which
    /// decision is recorded instead (`Err`). `HighestRegret` checked the
    /// cooldown before it picked the tenant.
    fn verdict(self, fired: bool, cooldown_over: bool) -> Result<(), &'static str> {
        match self {
            TunerPick::EveryBoundary if !fired => Err("none"),
            TunerPick::EveryBoundary if !cooldown_over => Err("cooldown"),
            TunerPick::HighestRegret { .. } if !fired => Err("quiet"),
            _ => Ok(()),
        }
    }
}

/// `HighestRegret`'s pick over each tenant's `(regret, last tuned epoch)`,
/// in tenant order: the highest regret above `threshold` whose cooldown is
/// over at `epoch`, the lowest tenant id among equals.
fn highest_regret(
    tenants: impl IntoIterator<Item = (Option<f64>, Option<u64>)>,
    threshold: f64,
    epoch: u64,
    cooldown: u64,
) -> Option<(usize, f64)> {
    let mut pick: Option<(usize, f64)> = None;
    for (t, (regret, last_tuned)) in tenants.into_iter().enumerate() {
        let Some(regret) = regret else { continue };
        if regret > threshold
            && tuning_cooldown_over(last_tuned, epoch, cooldown)
            && pick.is_none_or(|(_, r)| regret > r)
        {
            pick = Some((t, regret));
        }
    }
    pick
}

/// Whether the tuning cooldown has elapsed at `epoch`: `cooldown`
/// ([`Config::tuning_cooldown_epochs`]) epoch boundaries must pass
/// *strictly between* two tunings of a tenant, so one at epoch `t` makes
/// the next eligible at `t + cooldown + 1` — `cooldown = 0` still forbids
/// two at the same epoch. Before the first there is nothing to cool down
/// from. Pinned by a regression test and `tests/serving_golden.rs`:
/// relaxing `>` to `>=` moves every round one epoch earlier.
pub fn tuning_cooldown_over(last_tuned: Option<u64>, epoch: u64, cooldown: u64) -> bool {
    match last_tuned {
        None => true,
        Some(t) => epoch.saturating_sub(t) > cooldown,
    }
}

// --------------------------------------------------------------- reports

/// What one tenant's slice (one epoch's worth of its stream, admitted or
/// shed) produced; a deferred bid produces none. Rendered into the
/// transcripts, which are its public surface.
#[derive(Debug, Clone, Default)]
pub(crate) struct SliceRecord {
    /// The epoch the slice ran in.
    pub(crate) epoch: u64,
    /// Sequence slots covered: executed + failed + panicked, or shed.
    pub(crate) statements: u64,
    pub(crate) executed: u64,
    pub(crate) parse_failures: u64,
    pub(crate) panics: u64,
    pub(crate) shed: u64,
    /// Nearest-rank percentiles of the executed latencies (0 without an
    /// SLO), and whether they met it (a shed slice never does).
    pub(crate) p50_ms: f64,
    pub(crate) p99_ms: f64,
    pub(crate) slo_ok: bool,
    pub(crate) admission: Admission,
    /// `EveryBoundary`'s verdict on the tenant at this boundary: diagnosis
    /// fired, its problem ratio, the decision (`none`, `cooldown`, `noop`,
    /// `applied(+a,-d)`, `rolled_back`, `shadow_rejected`).
    pub(crate) diagnosis_fired: bool,
    pub(crate) problem_ratio: f64,
    pub(crate) decision: String,
    /// The real index set after the boundary: its fingerprint
    /// ([`SimDb::index_fingerprint`]) and size.
    pub(crate) config_fingerprint: u64,
    pub(crate) index_count: usize,
    /// Summed simulated latency of the executed statements, in `seq` order.
    pub(crate) sim_latency_ms: f64,
}

/// The closing line of a transcript: the configuration after `last`.
fn final_line(out: &mut String, last: Option<&SliceRecord>) {
    if let Some(last) = last {
        let (indexes, fp) = (last.index_count, last.config_fingerprint);
        out.push_str(&format!("final: indexes={indexes} fp={fp:016x}\n"));
    }
}

/// One tenant's section of a [`ServeReport`].
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
    /// Boundaries at which the tuner took this tenant (its cooldown
    /// restarted there): `serve`'s rounds, `serve_fleet`'s visits.
    pub tuning_visits: u64,
    /// Executed statements the compiled-template fast path served, and
    /// those that took the parse path.
    pub fastpath_hits: u64,
    pub fastpath_misses: u64,
    pub total_sim_latency_ms: f64,
    /// Per-slice records, in slice order.
    pub(crate) slices: Vec<SliceRecord>,
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
        for (i, s) in self.slices.iter().enumerate() {
            out.push_str(&format!(
                "slice {i}: epoch={} stmts={} exec={} parse_err={} panics={} shed={} \
                 p50={:.6} p99={:.6} slo={} decision={} indexes={} fp={:016x} sim_ms={:.6}\n",
                s.epoch,
                s.statements,
                s.executed,
                s.parse_failures,
                s.panics,
                s.shed,
                s.p50_ms,
                s.p99_ms,
                if s.slo_ok { "ok" } else { "viol" },
                if s.admission == Admission::Shed {
                    "shed"
                } else {
                    "admit"
                },
                s.index_count,
                s.config_fingerprint,
                s.sim_latency_ms,
            ));
        }
        final_line(&mut out, self.slices.last());
        out
    }
}

/// What one epoch decided, across tenants: admission counts and the
/// tuner's action.
#[derive(Debug, Clone, Default)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Slices admitted, deferred and shed this epoch.
    pub admitted: u64,
    pub deferred: u64,
    pub shed: u64,
    /// Sequence slots accounted this epoch (executed + failed + panicked
    /// + shed).
    pub statements: u64,
    /// Whether admission overflowed capacity (anything deferred or shed).
    pub saturated: bool,
    /// The tuner's action: under `serve_fleet`'s pick `idle` or
    /// `tenant=<name> regret=<r> decision=<d>`; under `serve`'s, `every`
    /// (each admitted tenant's verdict is on its slice).
    pub visit: String,
}

/// Aggregate result of a [`serve`] or [`serve_fleet`] run: totals, one
/// record per epoch and one section per tenant.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    pub tenants: usize,
    /// Executor threads the run started with.
    pub workers: usize,
    pub executed: u64,
    /// Statements shed by admission control.
    pub shed: u64,
    pub parse_failures: u64,
    /// Caught worker panics (injected or real).
    pub panics: u64,
    pub admitted_slices: u64,
    pub deferred_slices: u64,
    pub shed_slices: u64,
    pub saturated_epochs: u64,
    pub slo_violations: u64,
    /// Boundaries at which the tuner took a tenant, summed over tenants
    /// ([`TenantReport::tuning_visits`]).
    pub tuning_visits: u64,
    /// Tuning rounds run (including no-op recommendations); a visit whose
    /// diagnosis stays quiet runs none.
    pub tuning_rounds: u64,
    /// Executors that retired after exhausting their panic budget.
    pub workers_retired: usize,
    /// Always 0: the engine has one task queue and nothing is stolen.
    /// Kept because `perf/src/drive.rs` reads it (ROADMAP item 3 b).
    pub steals: u64,
    /// Executed statements the compiled-template fast path served, and
    /// those that took the parse path. Worker-count invariant (caches are
    /// epoch-frozen) but in no transcript: routing is an implementation
    /// detail.
    pub fastpath_hits: u64,
    pub fastpath_misses: u64,
    /// Plans prepared for publications' template slots (`planner.prepared`
    /// over this run): against `fastpath_hits`, how often a bound statement
    /// found its template already planned. A slot a publication took from
    /// the one before it (`planner.carried`: nothing the plan read had
    /// moved) is not prepared again, so a read-only run prepares each
    /// template once, and again only after a boundary that changed an index
    /// on its tables. Worker-count invariant; in no transcript.
    pub plans_prepared: u64,
    /// Sum of all executed statements' simulated latencies, ms.
    pub total_sim_latency_ms: f64,
    /// Deterministic simulated makespan, ms: per epoch, the LPT packing of
    /// every task's simulated latency (a contiguous run of one tenant's
    /// slice) onto the worker slots, summed — a pure function of
    /// `(streams, config, workers)`.
    pub sim_makespan_ms: f64,
    /// Per-epoch records, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Per-tenant sections, in tenant order.
    pub tenant_reports: Vec<TenantReport>,
    /// Real wall-clock time of the whole run.
    pub wall: Duration,
    /// The tuner pick the run used: which rendering `transcript` is.
    tuner: TunerPick,
}

impl ServeReport {
    /// Simulated makespan, ms (see [`ServeReport::sim_makespan_ms`]).
    pub fn makespan_ms(&self) -> f64 {
        self.sim_makespan_ms
    }

    /// Throughput in the simulation's time domain: executed statements per
    /// simulated second of makespan — the metric the `serve_sweep` and
    /// `fleet_sweep` bench results sweep over worker counts (see
    /// `docs/SERVING.md` for why wall clock on the build host is not it).
    pub fn simulated_qps(&self) -> f64 {
        simulated_qps(self.executed, self.sim_makespan_ms)
    }

    /// The determinism contract's byte-comparable surface, rendered by the
    /// run's tuner pick. `serve`'s: stream totals, every epoch's diagnosis,
    /// decision and index-set fingerprint, the final configuration.
    /// `serve_fleet`'s: fleet totals and every epoch's admission counts and
    /// tuner visit (each tenant's detail is its
    /// [`TenantReport::transcript`]). Neither contains wall clock, worker
    /// count or makespan, so any two runs that made the same decisions
    /// render identically.
    pub fn transcript(&self) -> String {
        match self.tuner {
            TunerPick::EveryBoundary => self.serve_transcript(),
            TunerPick::HighestRegret { .. } => self.fleet_transcript(),
        }
    }

    fn serve_transcript(&self) -> String {
        let mut out = format!(
            "serve: executed={} parse_failures={} panics={} tuning_rounds={} epochs={} \
             total_sim_ms={:.6}\n",
            self.executed,
            self.parse_failures,
            self.panics,
            self.tuning_rounds,
            self.epochs.len(),
            self.total_sim_latency_ms,
        );
        let slices = self.tenant_reports.iter().flat_map(|t| &t.slices);
        for s in slices.clone() {
            out.push_str(&format!(
                "epoch {}: stmts={} exec={} parse_err={} panics={} diag={} ratio={:.6} \
                 decision={} indexes={} fp={:016x} sim_ms={:.6}\n",
                s.epoch,
                s.statements,
                s.executed,
                s.parse_failures,
                s.panics,
                if s.diagnosis_fired { "fired" } else { "quiet" },
                s.problem_ratio,
                s.decision,
                s.index_count,
                s.config_fingerprint,
                s.sim_latency_ms,
            ));
        }
        final_line(&mut out, slices.last());
        out
    }

    fn fleet_transcript(&self) -> String {
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
            out.push_str(&format!(
                "epoch {}: admitted={} deferred={} shed={} stmts={} saturated={} visit={}\n",
                e.epoch,
                e.admitted,
                e.deferred,
                e.shed,
                e.statements,
                if e.saturated { "yes" } else { "no" },
                e.visit,
            ));
        }
        out
    }

    /// FNV-1a digest over [`ServeReport::transcript`] plus every tenant
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

/// Everything [`serve`] hands back: the evolved database and advisor
/// (tuned state, templates, policy tree) plus the run report.
pub struct ServeOutcome<E: CostEstimator> {
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
    pub report: ServeReport,
}

/// A tenant's evolved state after a [`serve_fleet`] run.
pub struct FleetTenantOutcome<E: CostEstimator> {
    pub name: String,
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
}

/// Everything [`serve_fleet`] hands back.
pub struct FleetOutcome<E: CostEstimator> {
    /// Evolved per-tenant state, in tenant order.
    pub tenants: Vec<FleetTenantOutcome<E>>,
    pub report: ServeReport,
    /// The fleet-owned metrics registry (the `serve.*` projection of the
    /// report, the engine's `serve.*` counters, `sql.fastpath.*`).
    pub metrics: MetricsRegistry,
}

// --------------------------------------------------------------- drivers

/// Serve one stream: the loop with one lane, no SLO, and the
/// every-boundary tuner pick (see the [module docs](self)). Consumes and
/// returns `db` and `advisor`, which carry the tuned state; the `serve.*`
/// counters land in `db`'s registry. A panic in a tuning round aborts the
/// run with an error under `serve.tuner`.
pub fn serve<E: CostEstimator>(
    db: SimDb,
    advisor: AutoIndex<E>,
    queries: &[String],
    config: ServeConfig,
) -> Result<ServeOutcome<E>, AutoIndexError> {
    let registry = db.metrics().clone();
    let spec = TenantSpec {
        name: "serve".to_string(),
        priority: 0,
        slo_p50_ms: f64::INFINITY,
        slo_p99_ms: f64::INFINITY,
    };
    let lane = LaneState::new(spec, false, db, advisor, queries);
    let panic_on = config.panic_on.iter().map(|&seq| (0, seq)).collect();
    let (report, mut lanes) = run(
        &config,
        vec![lane],
        panic_on,
        TunerPick::EveryBoundary,
        &registry,
    )?;
    let lane = lanes.pop().expect("one lane");
    Ok(ServeOutcome {
        db: lane.db,
        advisor: lane.advisor,
        report,
    })
}

/// Serve many tenants over one executor pool: the loop with one lane per
/// tenant, its declared SLOs, and the highest-regret tuner pick (see the
/// [module docs](self)). Returns the evolved tenants, the report and the
/// fleet-owned registry. A panic in a tuner visit aborts the run with an
/// error under `serve.tuner`.
pub fn serve_fleet<E: CostEstimator>(
    tenants: Vec<FleetTenant<E>>,
    config: FleetConfig,
) -> Result<FleetOutcome<E>, AutoIndexError> {
    let registry = MetricsRegistry::new();
    // The lanes borrow the streams; these handles outlive them.
    let queries: Vec<Arc<Vec<String>>> = tenants.iter().map(|t| Arc::clone(&t.queries)).collect();
    let lanes = tenants
        .into_iter()
        .zip(&queries)
        .map(|(t, queries)| LaneState::new(t.spec, true, t.db, t.advisor, queries))
        .collect();
    let tuner = TunerPick::HighestRegret {
        threshold: config.regret_threshold,
    };
    let (report, lanes) = run(&config, lanes, config.panic_on.clone(), tuner, &registry)?;
    let tenants = lanes
        .into_iter()
        .map(|lane| FleetTenantOutcome {
            name: lane.report.name,
            db: lane.db,
            advisor: lane.advisor,
        })
        .collect();
    Ok(FleetOutcome {
        tenants,
        report,
        metrics: registry,
    })
}

// ------------------------------------------------------------------ loop

/// One tenant as the loop's coordinator holds it.
struct LaneState<'q, E: CostEstimator> {
    db: SimDb,
    advisor: AutoIndex<E>,
    queries: &'q [String],
    /// The declared `(p50, p99)` SLOs, when the run accounts them.
    slo: Option<(f64, f64)>,
    /// The tenant's section of the report, accumulated in place.
    report: TenantReport,
    /// Next unprocessed sequence number of the tenant's stream.
    cursor: u64,
    /// Mean simulated latency of the last slice that executed anything.
    last_mean_ms: Option<f64>,
    /// Frozen baseline: the best (lowest) slice mean ever observed.
    best_mean_ms: f64,
    last_tuned_epoch: Option<u64>,
    /// Whether the epoch moved this tenant's live state (admitted it, or
    /// the tuner visited it): it republishes at the end of the epoch.
    moved: bool,
    /// The executed latencies of the open slice, when the run accounts
    /// SLOs.
    latencies: Vec<f64>,
}

impl<'q, E: CostEstimator> LaneState<'q, E> {
    fn new(
        spec: TenantSpec,
        account_slo: bool,
        db: SimDb,
        advisor: AutoIndex<E>,
        queries: &'q [String],
    ) -> Self {
        LaneState {
            db,
            advisor,
            queries,
            slo: account_slo.then_some((spec.slo_p50_ms, spec.slo_p99_ms)),
            report: TenantReport {
                name: spec.name,
                priority: spec.priority,
                slo_p50_ms: spec.slo_p50_ms,
                slo_p99_ms: spec.slo_p99_ms,
                ..TenantReport::default()
            },
            cursor: 0,
            last_mean_ms: None,
            best_mean_ms: f64::INFINITY,
            last_tuned_epoch: None,
            moved: false,
            latencies: Vec::new(),
        }
    }

    fn remaining(&self) -> u64 {
        self.queries.len() as u64 - self.cursor
    }

    /// Observed regret: last slice mean vs the frozen baseline.
    fn regret(&self) -> Option<f64> {
        let last = self.last_mean_ms?;
        if !self.best_mean_ms.is_finite() || self.best_mean_ms <= 0.0 {
            return None;
        }
        Some((last - self.best_mean_ms) / self.best_mean_ms)
    }

    /// Absorb one run of the tenant's observations of this epoch — the
    /// engine passes a lane's runs in sequence order — into its live
    /// database and advisor, and into the open slice's record.
    ///
    /// Every statement a worker scanned — each fast-path hit, and each miss
    /// with the fast path on — carries its fingerprint hash: the template
    /// store's prehashed entry point skips the scan and, on a store hit,
    /// the re-parse, with bookkeeping identical to `observe` (tested in
    /// `templates.rs`).
    fn absorb(&mut self, run: &Run) {
        let report = &mut self.report;
        let record = report.slices.last_mut().expect("opened at admission");
        for (seq, payload, bound) in run.iter() {
            match payload {
                ObservationPayload::Executed { outcome, delta, fp } => {
                    self.db.absorb(delta);
                    let sql = &self.queries[seq as usize];
                    let _ = match fp {
                        Some(h) => self.advisor.observe_prehashed(*h, sql, &self.db),
                        None => self.advisor.observe(sql, &self.db),
                    };
                    report.fastpath_hits += u64::from(bound);
                    report.fastpath_misses += u64::from(!bound);
                    record.executed += 1;
                    record.sim_latency_ms += outcome.latency_ms;
                    if self.slo.is_some() {
                        self.latencies.push(outcome.latency_ms);
                    }
                }
                ObservationPayload::ParseFailed => record.parse_failures += 1,
                ObservationPayload::Panicked => record.panics += 1,
            }
        }
    }

    /// Close the accounting of the slice every run of which was absorbed:
    /// totals, SLO percentiles when declared, the regret baseline, the
    /// bandit's reward.
    fn close_slice(&mut self, strategy: Option<StrategyKind>) {
        let report = &mut self.report;
        let record = report.slices.last_mut().expect("opened at admission");
        report.executed += record.executed;
        report.parse_failures += record.parse_failures;
        report.panics += record.panics;
        report.total_sim_latency_ms += record.sim_latency_ms;
        if record.executed == 0 {
            return;
        }
        if let Some((slo_p50, slo_p99)) = self.slo {
            let latencies = &mut self.latencies;
            record.p50_ms = select_percentile(latencies, 0.50);
            record.p99_ms = select_percentile(latencies, 0.99);
            record.slo_ok = record.p50_ms <= slo_p50 && record.p99_ms <= slo_p99;
            report.slo_violations += u64::from(!record.slo_ok);
            latencies.clear();
        }
        let mean = record.sim_latency_ms / record.executed as f64;
        self.last_mean_ms = Some(mean);
        self.best_mean_ms = self.best_mean_ms.min(mean);
        if strategy == Some(StrategyKind::Bandit) {
            // Close the bandit's loop: the measured slice mean is the
            // reward for the arms applied last round.
            self.advisor.observe_reward(mean);
        }
    }

    /// The tuner takes this tenant at `epoch`: its cooldown restarts.
    fn take(&mut self, epoch: u64) {
        self.last_tuned_epoch = Some(epoch);
        self.report.tuning_visits += 1;
    }

    /// The tuner at this tenant's boundary — the one place both picks
    /// diagnose and tune: diagnose, ask `tuner` for the verdict, run the
    /// round if it says so. Returns whether diagnosis fired, its problem
    /// ratio and the decision.
    fn visit<Site>(
        &mut self,
        epoch: u64,
        config: &Config<Site>,
        tuner: TunerPick,
        rounds: &mut u64,
    ) -> (bool, f64, String) {
        let (diagnosis, prologue) = self.advisor.boundary(&self.db);
        let cooldown_over =
            tuning_cooldown_over(self.last_tuned_epoch, epoch, config.tuning_cooldown_epochs);
        let decision = match tuner.verdict(diagnosis.should_tune, cooldown_over) {
            Err(decision) => decision.to_string(),
            Ok(()) => {
                if tuner == TunerPick::EveryBoundary {
                    self.take(epoch);
                }
                *rounds += 1;
                let apply = config
                    .guard
                    .clone()
                    .map_or(Apply::Unguarded, Apply::Guarded);
                let reset = config.reset_usage_after_tuning;
                match tuning_round(&mut self.advisor, &mut self.db, prologue, apply, reset) {
                    Ok(out) => out.decision(),
                    Err(e) => format!("error({e})"),
                }
            }
        };
        // Strategy attribution only under an override: the default keeps
        // decision strings byte-identical to the unattributed ones.
        let decision = match config.tuner_strategy {
            Some(k) => format!("strategy={k} {decision}"),
            None => decision,
        };
        (diagnosis.should_tune, diagnosis.problem_ratio, decision)
    }
}

/// The serving loop: every epoch, admission over the lanes' bids, one
/// engine epoch over the admitted slices absorbed run by run, each admitted
/// slice closed, the tuner pick, then fingerprint and republish every lane
/// the epoch moved.
fn run<'q, Site, E: CostEstimator>(
    config: &Config<Site>,
    mut lanes: Vec<LaneState<'q, E>>,
    panic_on: Vec<(u32, u64)>,
    tuner: TunerPick,
    registry: &MetricsRegistry,
) -> Result<(ServeReport, Vec<LaneState<'q, E>>), AutoIndexError> {
    // Re-validate (the drivers are callable with struct-literal configs),
    // and validate the tenants' SLOs.
    validate(config, lanes.iter().filter_map(|l| l.slo))?;
    let started = Instant::now();

    // Epoch 0 publications: snapshot + compiled-template cache over any
    // pre-observed templates. Every tenant of one schema shares a text's
    // frame while one is alive, whoever built it: a publication, or a late
    // entry a worker's statements made.
    let upkeep = UpkeepCounters::bind(registry);
    let frames = Arc::new(Mutex::new(FrameCache::default()));
    let prepared_before = upkeep.prepared.get();
    let initial = lanes.iter_mut().map(|lane| {
        if let Some(k) = config.tuner_strategy {
            lane.advisor.set_strategy(k);
        }
        let (db, advisor) = (&lane.db, &mut lane.advisor);
        Publication::build(db, advisor, 0, config.fastpath, &upkeep, &frames)
    });
    let initial = initial.collect();
    let engine = Engine::new(
        EngineConfig {
            name: "serve.tuner",
            workers: config.workers,
            shards: config.shards,
            fastpath: config.fastpath,
            max_worker_panics: config.max_worker_panics,
            panic_on,
        },
        registry,
        "serve",
        lanes.iter().map(|l| l.queries).collect(),
    );

    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut rounds = 0u64;
    let sim_makespan_ms = engine.run(initial, |coordinator| {
        let mut candidates = Vec::new();
        let mut slices = Vec::new();
        for epoch in 0.. {
            // ---- admission: every unfinished tenant bids for a slice.
            candidates.clear();
            let unfinished = lanes.iter().enumerate().filter(|(_, l)| l.remaining() > 0);
            candidates.extend(unfinished.map(|(t, l)| {
                // Last observed mean statement cost (or the prior) × length.
                let per_stmt = l.last_mean_ms.unwrap_or(config.assumed_stmt_cost_ms);
                AdmissionCandidate {
                    tenant: t as u32,
                    priority: l.report.priority,
                    est_cost_ms: per_stmt * config.epoch_interval.min(l.remaining()) as f64,
                }
            }));
            if candidates.is_empty() {
                break;
            }
            let decisions = decide_admission(
                &candidates,
                config.epoch_capacity_ms,
                config.shed_floor_priority,
            );
            let idle = if tuner == TunerPick::EveryBoundary {
                "every"
            } else {
                "idle"
            };
            let mut rec = EpochRecord {
                epoch,
                visit: idle.to_string(),
                ..EpochRecord::default()
            };
            slices.clear();
            for d in &decisions {
                let lane = &mut lanes[d.tenant as usize];
                if d.admission == Admission::Defer {
                    lane.report.deferrals += 1;
                    rec.deferred += 1;
                    continue;
                }
                // Admitted or shed: the cursor moves and the slice's
                // record opens now; it is filled in as the epoch's
                // observations are absorbed and finalized after the tuner.
                let take = config.epoch_interval.min(lane.remaining());
                let shed = d.admission == Admission::Shed;
                lane.report.slices.push(SliceRecord {
                    epoch,
                    statements: take,
                    shed: if shed { take } else { 0 },
                    slo_ok: !shed,
                    admission: d.admission,
                    ..SliceRecord::default()
                });
                if shed {
                    lane.report.shed += take;
                    lane.report.slo_violations += 1;
                    rec.shed += 1;
                } else {
                    lane.moved = true;
                    slices.push(Slice {
                        tenant: d.tenant,
                        start: lane.cursor,
                        end: lane.cursor + take,
                    });
                    rec.admitted += 1;
                }
                lane.cursor += take;
                rec.statements += take;
            }
            rec.saturated = rec.deferred > 0 || rec.shed > 0;

            // ---- execute: one observation per admitted sequence slot,
            // absorbed run by run as the engine passes each lane's on in
            // seq order; then close every admitted slice.
            coordinator.run_epoch(epoch, &slices, |run| {
                lanes[run.tenant as usize].absorb(run);
            })?;
            for lane in lanes.iter_mut().filter(|l| l.moved) {
                lane.close_slice(config.tuner_strategy);
            }

            // ---- the tuner pick.
            match tuner {
                TunerPick::EveryBoundary => {
                    for lane in lanes.iter_mut().filter(|l| l.moved) {
                        let (fired, ratio, decision) =
                            lane.visit(epoch, config, tuner, &mut rounds);
                        let record = lane.report.slices.last_mut().expect("admitted");
                        (record.diagnosis_fired, record.problem_ratio) = (fired, ratio);
                        record.decision = decision;
                    }
                }
                TunerPick::HighestRegret { threshold } => {
                    let regrets = lanes.iter().map(|l| (l.regret(), l.last_tuned_epoch));
                    let cooldown = config.tuning_cooldown_epochs;
                    if let Some((t, regret)) = highest_regret(regrets, threshold, epoch, cooldown) {
                        let lane = &mut lanes[t];
                        lane.moved = true;
                        lane.take(epoch);
                        let (_, _, decision) = lane.visit(epoch, config, tuner, &mut rounds);
                        rec.visit = format!(
                            "tenant={} regret={regret:.6} decision={decision}",
                            lane.report.name
                        );
                    }
                }
            }

            // ---- close this epoch's slice records, then republish every
            // tenant the epoch moved — the only point a config swap becomes
            // visible; epoch e+1's fast-path behaviour is frozen here.
            for (t, lane) in lanes.iter_mut().enumerate() {
                if let Some(record) = lane.report.slices.last_mut().filter(|s| s.epoch == epoch) {
                    record.config_fingerprint = lane.db.index_fingerprint();
                    record.index_count = lane.db.index_count();
                }
                if std::mem::take(&mut lane.moved) {
                    let (db, advisor) = (&lane.db, &mut lane.advisor);
                    let fastpath = config.fastpath;
                    let next =
                        Publication::build(db, advisor, epoch + 1, fastpath, &upkeep, &frames);
                    coordinator.publish(t as u32, next);
                }
            }
            epochs.push(rec);
        }
        Ok(coordinator.sim_makespan_ms)
    })?;

    let (tenant_reports, lanes): (Vec<TenantReport>, Vec<LaneState<'q, E>>) = lanes
        .into_iter()
        .map(|mut lane| (std::mem::take(&mut lane.report), lane))
        .unzip();
    let sum = |f: fn(&TenantReport) -> u64| tenant_reports.iter().map(f).sum::<u64>();
    let report = ServeReport {
        tenants: tenant_reports.len(),
        workers: engine.workers(),
        executed: sum(|t| t.executed),
        shed: sum(|t| t.shed),
        parse_failures: sum(|t| t.parse_failures),
        panics: sum(|t| t.panics),
        admitted_slices: epochs.iter().map(|e| e.admitted).sum(),
        deferred_slices: epochs.iter().map(|e| e.deferred).sum(),
        shed_slices: epochs.iter().map(|e| e.shed).sum(),
        saturated_epochs: epochs.iter().filter(|e| e.saturated).count() as u64,
        slo_violations: sum(|t| t.slo_violations),
        tuning_visits: sum(|t| t.tuning_visits),
        tuning_rounds: rounds,
        workers_retired: engine.workers_retired(),
        steals: 0,
        fastpath_hits: sum(|t| t.fastpath_hits),
        fastpath_misses: sum(|t| t.fastpath_misses),
        plans_prepared: upkeep.prepared.get() - prepared_before,
        total_sim_latency_ms: tenant_reports.iter().map(|t| t.total_sim_latency_ms).sum(),
        sim_makespan_ms,
        epochs,
        tenant_reports,
        wall: started.elapsed(),
        tuner,
    };

    // The `serve.*` counters are a projection of the report, published
    // once into the run's registry (the engine counts its own panics,
    // retirements and hand-offs live).
    registry.gauge("serve.tenants").set(report.tenants as f64);
    registry.gauge("serve.workers").set(report.workers as f64);
    registry
        .gauge("serve.admission.capacity_ms")
        .set(config.epoch_capacity_ms);
    for (name, value) in [
        ("serve.executed", report.executed),
        ("serve.shed", report.shed),
        ("serve.parse_failures", report.parse_failures),
        ("serve.slo_violations", report.slo_violations),
        ("serve.tuning_visits", report.tuning_visits),
        ("serve.tuning_rounds", report.tuning_rounds),
        ("serve.epochs", report.epochs.len() as u64),
        ("serve.admission.admitted_slices", report.admitted_slices),
        ("serve.admission.deferred_slices", report.deferred_slices),
        ("serve.admission.shed_slices", report.shed_slices),
        ("serve.admission.saturated_epochs", report.saturated_epochs),
    ] {
        registry.counter(name).add(value);
    }
    Ok((report, lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 800_000)
                .column(Column::int("id", 800_000))
                .column(Column::int("a", 400_000))
                .column(Column::int("b", 4_000))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
    }

    fn advisor() -> AutoIndex<NativeCostEstimator> {
        AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
    }

    fn point_lookups(n: usize, salt: u64) -> Vec<String> {
        (0..n)
            .map(|i| format!("SELECT * FROM t WHERE a = {}", i as u64 + salt))
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().build().is_ok());
        assert!(ServeConfig::builder().shards(0).build().is_err());
        assert!(ServeConfig::builder().epoch_interval(0).build().is_err());
        let c = ServeConfig::builder().workers(3).shards(5).build().unwrap();
        assert_eq!((c.workers, c.shards), (3, 5));
        // Each driver's builder keeps its own defaults.
        let (serve, fleet) = (ServeConfig::default(), FleetConfig::default());
        assert_eq!((serve.shards, serve.epoch_interval), (16, 1_000));
        assert_eq!((fleet.shards, fleet.epoch_interval), (4, 1_024));
    }

    #[test]
    fn serve_rejects_an_invalid_guard() {
        let guard = GuardConfig {
            probation_statements: 0,
            ..GuardConfig::default()
        };
        let cfg = ServeConfig {
            guard: Some(guard),
            ..ServeConfig::default()
        };
        let r = serve(db(), advisor(), &point_lookups(10, 0), cfg);
        assert!(matches!(
            r,
            Err(AutoIndexError::InvalidConfig {
                field: "guard.probation_statements",
                ..
            })
        ));
    }

    #[test]
    fn fleet_builder_validates() {
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

    // Regression (PR7 satellite): the guard-cooldown comparison is
    // *strict* — `epoch - last > cooldown`, not `>=`. Relaxing it would
    // fire every tuning round one epoch early and silently change every
    // CI-pinned transcript, so the exact boundary is locked in here.
    #[test]
    fn tuning_cooldown_boundary_is_strict() {
        // Never tuned: always eligible.
        assert!(tuning_cooldown_over(None, 0, 0));
        assert!(tuning_cooldown_over(None, 0, 100));
        // cooldown = 0 still forbids a second round at the same epoch.
        assert!(!tuning_cooldown_over(Some(5), 5, 0));
        assert!(tuning_cooldown_over(Some(5), 6, 0));
        // cooldown = 1 (the default): one quiet epoch between rounds.
        assert!(!tuning_cooldown_over(Some(5), 6, 1));
        assert!(tuning_cooldown_over(Some(5), 7, 1));
        // No underflow when the clock looks backwards.
        assert!(!tuning_cooldown_over(Some(9), 3, 1));
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let out = serve(db(), advisor(), &[], ServeConfig::default()).unwrap();
        assert_eq!(out.report.executed, 0);
        assert!(out.report.epochs.is_empty());
        assert_eq!(out.report.simulated_qps(), 0.0);
        assert!(out.report.transcript().starts_with("serve: executed=0"));
    }

    #[test]
    fn serving_executes_everything_and_tunes() {
        let queries = point_lookups(600, 0);
        let cfg = ServeConfig::builder()
            .workers(2)
            .epoch_interval(200)
            .build()
            .unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed, 600);
        assert_eq!(out.report.epochs.len(), 3);
        assert!(out.report.tuning_rounds >= 1, "{}", out.report.transcript());
        assert!(
            out.db.indexes().any(|(_, d)| d.key() == "t(a)"),
            "tuner should have built t(a)"
        );
        assert!(out.db.metrics().counter_value("serve.executed") == 600);
        assert!(out.report.makespan_ms() > 0.0);
        assert!(out.report.simulated_qps() > 0.0);
    }

    #[test]
    fn deterministic_mode_is_worker_count_invariant() {
        let queries = point_lookups(450, 0);
        let run = |workers: usize| {
            let cfg = ServeConfig::builder()
                .workers(workers)
                .epoch_interval(150)
                .build()
                .unwrap();
            serve(db(), advisor(), &queries, cfg)
                .unwrap()
                .report
                .transcript()
        };
        let one = run(1);
        assert_eq!(one, run(2), "1-worker vs 2-worker transcript");
        assert_eq!(one, run(3), "1-worker vs 3-worker transcript");
    }

    #[test]
    fn unparseable_statements_are_counted_not_fatal() {
        let mut queries = point_lookups(100, 0);
        queries[13] = "garbage ~ sql".to_string();
        queries[77] = "also not sql".to_string();
        let cfg = ServeConfig::builder().epoch_interval(50).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed, 98);
        assert_eq!(out.report.parse_failures, 2);
    }

    #[test]
    fn total_sim_latency_matches_epoch_sum() {
        let queries = point_lookups(200, 0);
        let cfg = ServeConfig::builder().epoch_interval(64).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        let slices = &out.report.tenant_reports[0].slices;
        let sum: f64 = slices.iter().map(|s| s.sim_latency_ms).sum();
        assert!((sum - out.report.total_sim_latency_ms).abs() < 1e-9);
        let stmts: u64 = out.report.epochs.iter().map(|e| e.statements).sum();
        assert_eq!(stmts, 200);
    }

    // ---- the boundary policies, as plain values ----

    #[test]
    fn equal_regrets_pick_the_lowest_tenant_id() {
        let tenants = [(Some(0.2), None), (Some(0.5), None), (Some(0.5), None)];
        assert_eq!(highest_regret(tenants, 0.05, 4, 1), Some((1, 0.5)));
        // Nothing above the threshold, or no regret yet: nobody is visited.
        assert_eq!(highest_regret(tenants, 0.5, 4, 1), None);
        assert_eq!(highest_regret([(None, None)], 0.0, 0, 0), None);
    }

    #[test]
    fn a_tenant_in_cooldown_is_skipped_even_with_the_highest_regret() {
        // Tenant 1 was visited at epoch 3: at epoch 4 a cooldown of 1 keeps
        // it out although its regret is the highest; at epoch 5 it is back.
        let tenants = [
            (Some(0.2), None),
            (Some(9.0), Some(3)),
            (Some(0.4), Some(0)),
        ];
        assert_eq!(highest_regret(tenants, 0.05, 4, 1), Some((2, 0.4)));
        assert_eq!(highest_regret(tenants, 0.05, 5, 1), Some((1, 9.0)));
    }

    #[test]
    fn every_boundary_records_cooldown_when_diagnosis_fires_inside_it() {
        let every = TunerPick::EveryBoundary;
        assert_eq!(every.verdict(false, true), Err("none"));
        assert_eq!(every.verdict(false, false), Err("none"));
        assert_eq!(every.verdict(true, false), Err("cooldown"));
        assert_eq!(every.verdict(true, true), Ok(()));
        // The regret pick checked the cooldown before it visited.
        let regret = TunerPick::HighestRegret { threshold: 0.05 };
        assert_eq!(regret.verdict(false, true), Err("quiet"));
        assert_eq!(regret.verdict(true, false), Ok(()));

        // End to end: an advisor whose budget fits no index keeps diagnosis
        // firing after the drift, so the cooldown alone turns rounds into
        // `cooldown` records.
        let mut queries = point_lookups(200, 0);
        queries.extend(
            (0..400).map(|i| format!("SELECT b, COUNT(*) FROM t WHERE b > {} GROUP BY b", i % 50)),
        );
        let starved = AutoIndexConfig {
            storage_budget: Some(1),
            ..AutoIndexConfig::default()
        };
        let cfg = ServeConfig::builder()
            .epoch_interval(50)
            .tuning_cooldown_epochs(2)
            .build()
            .unwrap();
        let advisor = AutoIndex::new(starved, NativeCostEstimator);
        let out = serve(db(), advisor, &queries, cfg).unwrap();
        let slices = &out.report.tenant_reports[0].slices;
        let fired: Vec<&str> = slices
            .iter()
            .filter(|s| s.diagnosis_fired)
            .map(|s| s.decision.as_str())
            .collect();
        assert!(fired.contains(&"cooldown"), "{}", out.report.transcript());
        assert!(slices
            .iter()
            .all(|s| s.diagnosis_fired || s.decision == "none"));
    }

    #[test]
    fn a_one_lane_admission_admits_at_any_capacity() {
        for capacity in [1e-9, 1.0, 1e12, f64::INFINITY] {
            for priority in [0, 1, u8::MAX] {
                let bid = AdmissionCandidate {
                    tenant: 0,
                    priority,
                    est_cost_ms: 1e6,
                };
                let d = decide_admission(&[bid], capacity, u8::MAX);
                assert_eq!(d[0].admission, Admission::Admit, "{capacity} {priority}");
            }
        }
    }

    /// Regression: tenant SLOs were never validated. A NaN SLO made
    /// `p50 <= NaN` false, so every executed slice silently counted as a
    /// violation, and a negative SLO can never be met; both are rejected
    /// now, and `INFINITY` still declares "no SLO".
    #[test]
    fn nan_or_negative_tenant_slos_are_rejected() {
        let run = |p50: f64, p99: f64| {
            let tenant = FleetTenant {
                spec: TenantSpec {
                    name: "t".to_string(),
                    priority: 1,
                    slo_p50_ms: p50,
                    slo_p99_ms: p99,
                },
                db: db(),
                advisor: advisor(),
                queries: Arc::new(point_lookups(100, 0)),
            };
            let cfg = FleetConfig::builder().epoch_interval(50).build().unwrap();
            serve_fleet(vec![tenant], cfg)
        };
        let field = |r: Result<FleetOutcome<NativeCostEstimator>, AutoIndexError>| match r {
            Err(AutoIndexError::InvalidConfig { field, .. }) => field,
            Err(e) => panic!("unexpected error {e}"),
            Ok(out) => panic!(
                "accepted: {} violations over {} slices",
                out.report.slo_violations,
                out.report.tenant_reports[0].slices.len()
            ),
        };
        assert_eq!(field(run(f64::NAN, 1e9)), "serve.tenant.slo_p50_ms");
        assert_eq!(field(run(1e9, f64::NAN)), "serve.tenant.slo_p99_ms");
        assert_eq!(field(run(-1.0, 1e9)), "serve.tenant.slo_p50_ms");
        assert_eq!(field(run(1e9, -0.5)), "serve.tenant.slo_p99_ms");
        let none = run(f64::INFINITY, f64::INFINITY).unwrap();
        assert_eq!(none.report.slo_violations, 0);
    }

    fn tenant_catalog() -> Catalog {
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
            db: SimDb::with_metrics(tenant_catalog(), cfg, MetricsRegistry::new()),
            advisor: AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            queries: Arc::new(queries),
        }
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

    // ---- end-to-end serve_fleet tests ----

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
        assert_eq!(out.metrics.counter_value("serve.executed"), 600);
        assert!(out.report.makespan_ms() > 0.0);
        assert!(out.report.simulated_qps() > 0.0);
        for t in &out.report.tenant_reports {
            assert_eq!(t.executed, 300);
            assert_eq!(t.slices.len(), 3);
            assert!(t.slices.iter().all(|s| s.admission == Admission::Admit));
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
            out.metrics.counter_value("serve.slo_violations"),
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
            a.metrics.counter_value("serve.admission.deferred_slices"),
            b.metrics.counter_value("serve.admission.deferred_slices"),
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
            out.metrics.counter_value("serve.tuning_visits"),
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

    /// The reference [`select_percentile`] is held to: the nearest-rank
    /// value of a **sorted** slice.
    fn percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[nearest_rank(sorted.len(), q)]
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

        // Selection, which the slice accounting runs, reads the sorted
        // slice's value bit for bit: random slices with duplicates (and
        // signed zeros), both quantiles taken in turn as a slice's are.
        use autoindex_support::prop::{property, PropConfig};
        use autoindex_support::prop_assert;
        property(
            "percentile_selection_equals_the_sorted_rank",
            PropConfig::default(),
            |rng, size| {
                let pool = [0.0, -0.0, 0.5, 2.0, 9.0, 1e-3, 7.25];
                let len = rng.random_range(0..4 * size + 2);
                let mut values: Vec<f64> = (0..len)
                    .map(|_| match rng.random_range(0u32..3) {
                        0 => rng.random_range(0.0..50.0),
                        _ => pool[rng.random_range(0..pool.len())],
                    })
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_unstable_by(f64::total_cmp);
                for q in [0.50, 0.99, 0.0, 1.0] {
                    let (want, got) = (percentile(&sorted, q), select_percentile(&mut values, q));
                    prop_assert!(want.to_bits() == got.to_bits(), "q={q}: {sorted:?}");
                }
                Ok(())
            },
        );
    }
}
