//! Concurrent online serving: sharded executors under a tuning
//! coordinator.
//!
//! The paper's online loop ([`crate::online`]) observes queries, diagnoses
//! drift and retunes *while the workload keeps running* — but our
//! single-threaded [`OnlineAutoIndex`](crate::online::OnlineAutoIndex)
//! interleaves execution and tuning statement by statement, which caps
//! the "heavy traffic" deployment shape. [`serve`] is the multi-worker
//! front-end: the epoch engine ([`crate::engine`]) with **one tenant**
//! and this module's boundary policy.
//!
//! ```text
//!  queries ── epoch e's slice ──► engine: N executors, one task queue,
//!  (seq-numbered                  one observation per seq, merged on
//!   logical clock)                the logical clock
//!                                        │
//!        ┌───────────────────────────────▼──────────────────────────┐
//!        │ boundary (this module, on the coordinator): absorb in    │
//!        │ seq order → diagnose → cooldown → TuningSession (guarded)│
//!        │ → record → publish epoch e+1's snapshot                  │
//!        └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Execution — sharding, the shared immutable
//! [`DbSnapshot`](autoindex_storage::DbSnapshot) every task of an epoch
//! carries, the panic fence and worker retirement — is the
//! engine's (see its module docs for the epoch protocol and crash
//! safety). **The boundary** owns the live [`SimDb`] and the advisor:
//! after every epoch it absorbs the merged observations' side effects in
//! sequence order, diagnoses, and — when diagnosis fires and the cooldown
//! ([`tuning_cooldown_over`]) has elapsed — runs the existing
//! [`TuningSession`](crate::session::TuningSession) (optionally
//! [`Guard`](crate::guard::Guard)ed) pipeline, then publishes the new
//! configuration as the next epoch's snapshot. Config swaps are **only**
//! visible at epoch boundaries.
//!
//! # Determinism contract
//!
//! A run is *byte-identical in its decisions* regardless of worker
//! count: diagnoses, tuning decisions and the per-epoch `ConfigSet`
//! fingerprints in [`ServeReport::transcript`] are equal for 1 and N
//! workers, because everything the boundary reads is the engine's merged
//! epoch (see `docs/SERVING.md`). Worker count only changes *which
//! thread* computes each outcome — never the outcome itself. This is
//! what makes the pipeline CI-testable: `scripts/verify.sh` compares the
//! 1-worker and 4-worker transcripts byte-for-byte.

use crate::engine::{
    absorb_slice, simulated_qps, tuning_round, Engine, EngineConfig, Lane, Publication, Slice,
};
use crate::error::{invalid, AutoIndexError};
use crate::fastpath::UpkeepCounters;
use crate::guard::GuardConfig;
use crate::mcts::Universe;
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::SimDb;
use std::time::{Duration, Instant};

// --------------------------------------------------------------- config

/// Configuration of the serving pipeline. Prefer
/// [`ServeConfig::builder`], which validates every field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads. `0` means "one per available core"
    /// (`std::thread::available_parallelism`), mirroring the greedy
    /// ranker's convention.
    pub workers: usize,
    /// Logical shards the stream is split into. More shards than workers
    /// gives the scheduler slack to balance uneven statement costs.
    pub shards: u64,
    /// Statements per epoch: the cadence of observation merging,
    /// diagnosis and (potential) config swaps.
    pub epoch_interval: u64,
    /// Seed of the shard-assignment stream.
    pub seed: u64,
    /// Quiet epochs required strictly between two tuning rounds: after a
    /// round at epoch `t`, the next becomes eligible at `t + this + 1`.
    /// See [`tuning_cooldown_over`] for the pinned comparison.
    pub tuning_cooldown_epochs: u64,
    /// Reset usage counters after each tuning round (fresh measurement
    /// window for the new configuration), like the online loop.
    pub reset_usage_after_tuning: bool,
    /// Run tuning rounds through the guard pipeline (shadow admission,
    /// snapshot, fault-safe DDL, automatic rollback).
    pub guard: Option<GuardConfig>,
    /// Panics a worker absorbs before retiring (graceful degradation).
    /// `0` retires a worker on its first panic.
    pub max_worker_panics: u64,
    /// Test knob: sequence numbers at which the executing worker panics
    /// (inside the engine's `catch_unwind` fence). Seq-keyed, so injected
    /// crashes reproduce identically at any worker count.
    pub panic_on: Vec<u64>,
    /// Use the compiled-template fast path ([`crate::fastpath`]): repeat
    /// statements skip parsing + extraction entirely. Decisions and
    /// transcripts are byte-identical either way (CI-checked); off is for
    /// benchmarking the slow path and belt-and-braces debugging.
    pub fastpath: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            shards: 16,
            epoch_interval: 1_000,
            seed: 42,
            tuning_cooldown_epochs: 1,
            reset_usage_after_tuning: true,
            guard: None,
            max_worker_panics: 0,
            panic_on: Vec::new(),
            fastpath: true,
        }
    }
}

impl ServeConfig {
    /// Validated builder (preferred over struct-literal construction).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`]; `build()` validates every field.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
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
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
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
    pub fn max_worker_panics(mut self, v: u64) -> Self {
        self.cfg.max_worker_panics = v;
        self
    }
    pub fn panic_on(mut self, v: Vec<u64>) -> Self {
        self.cfg.panic_on = v;
        self
    }
    pub fn fastpath(mut self, v: bool) -> Self {
        self.cfg.fastpath = v;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<ServeConfig, AutoIndexError> {
        let c = self.cfg;
        if c.shards == 0 {
            return Err(invalid("serve.shards", "must be >= 1"));
        }
        if c.epoch_interval == 0 {
            return Err(invalid(
                "serve.epoch_interval",
                "must be >= 1 (a zero-length epoch never completes)",
            ));
        }
        Ok(c)
    }
}

// ---------------------------------------------------------------- report

/// What one epoch boundary decided. The formatted fields of this record
/// are the determinism contract's observable surface.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Sequence slots accounted in this epoch (executed + failed + panicked).
    pub statements: u64,
    /// Statements that actually executed.
    pub executed: u64,
    pub parse_failures: u64,
    pub panics: u64,
    /// Whether diagnosis fired at this boundary.
    pub diagnosis_fired: bool,
    /// The diagnosis problem ratio.
    pub problem_ratio: f64,
    /// Canonical rendering of the tuning decision (`none`, `cooldown`,
    /// `noop`, `applied(+a,-d)`, `rolled_back`, `shadow_rejected`).
    pub decision: String,
    /// `ConfigSet` fingerprint of the real index set *after* the boundary.
    pub config_fingerprint: u64,
    /// Real indexes after the boundary.
    pub index_count: usize,
    /// Summed simulated latency of the epoch's executed statements, ms
    /// (accumulated in `seq` order — deterministic).
    pub sim_latency_ms: f64,
}

impl EpochRecord {
    /// One transcript line. Everything here is decision-relevant and
    /// deterministic; wall-clock never appears.
    fn line(&self) -> String {
        format!(
            "epoch {}: stmts={} exec={} parse_err={} panics={} diag={} ratio={:.6} \
             decision={} indexes={} fp={:016x} sim_ms={:.6}",
            self.epoch,
            self.statements,
            self.executed,
            self.parse_failures,
            self.panics,
            if self.diagnosis_fired {
                "fired"
            } else {
                "quiet"
            },
            self.problem_ratio,
            self.decision,
            self.index_count,
            self.config_fingerprint,
            self.sim_latency_ms,
        )
    }
}

/// Aggregate result of a [`serve`] run.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Statements that executed against a snapshot.
    pub executed: u64,
    pub parse_failures: u64,
    /// Caught worker panics (injected or real).
    pub panics: u64,
    /// Executor threads the run started with.
    pub workers: usize,
    /// Executors that retired after exhausting their panic budget.
    pub workers_retired: usize,
    /// Tuning rounds the boundary ran (including no-op recommendations).
    pub tuning_rounds: u64,
    /// Per-epoch boundary records, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Sum of all executed statements' simulated latencies, ms.
    pub total_sim_latency_ms: f64,
    /// Deterministic simulated makespan, ms: the engine's per-epoch LPT
    /// packing of per-shard simulated-latency totals onto the worker
    /// slots, summed over epochs. A pure function of
    /// `(stream, seed, shards, workers)` — byte-stable across runs,
    /// unlike the racy *actual* task pickup.
    pub sim_makespan_ms: f64,
    /// Executed statements served by the compiled-template fast path.
    /// Deliberately **not** part of [`ServeReport::transcript`] — routing
    /// is an implementation detail — but worker-count invariant all the
    /// same (caches are epoch-frozen; `tests/serving.rs` asserts a
    /// non-zero, worker-count-invariant tally).
    pub fastpath_hits: u64,
    /// Executed statements that took the full parse path (cache miss,
    /// bind-guard fallback, or fast path disabled).
    pub fastpath_misses: u64,
    /// Plans prepared for publications' template slots (`planner.prepared`
    /// over this run): against `fastpath_hits`, how often a bound
    /// statement found its template already planned. Worker-count
    /// invariant — a slot is filled once, whoever gets there first — and,
    /// like the two tallies above, not part of the transcript.
    pub plans_prepared: u64,
    /// Real wall-clock time of the whole run.
    pub wall: Duration,
}

impl ServeReport {
    /// Simulated makespan (see [`ServeReport::sim_makespan_ms`]): the time
    /// the executors would take if each really slept its statements'
    /// simulated latencies. With perfect sharding this is
    /// `total_sim_latency_ms / workers`; skew shows up as a longer one.
    pub fn makespan_ms(&self) -> f64 {
        self.sim_makespan_ms
    }

    /// Serving throughput in the simulation's time domain:
    /// executed statements per simulated second of makespan. This is the
    /// metric the `serve_sweep` bench result sweeps over worker counts (see
    /// `docs/SERVING.md` for why wall-clock on the build host is not it).
    pub fn simulated_qps(&self) -> f64 {
        simulated_qps(self.executed, self.sim_makespan_ms)
    }

    /// The determinism contract's byte-comparable surface: stream totals,
    /// every epoch boundary's diagnosis + decision + `ConfigSet`
    /// fingerprint, and the final configuration. Contains no wall-clock
    /// and no per-worker data, so any two runs that made the same
    /// decisions render identically — `verify.sh` diffs the 1-worker and
    /// 4-worker transcripts byte-for-byte.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: executed={} parse_failures={} panics={} tuning_rounds={} epochs={} \
             total_sim_ms={:.6}\n",
            self.executed,
            self.parse_failures,
            self.panics,
            self.tuning_rounds,
            self.epochs.len(),
            self.total_sim_latency_ms,
        ));
        for e in &self.epochs {
            out.push_str(&e.line());
            out.push('\n');
        }
        if let Some(last) = self.epochs.last() {
            out.push_str(&format!(
                "final: indexes={} fp={:016x}\n",
                last.index_count, last.config_fingerprint
            ));
        }
        out
    }
}

/// Everything [`serve`] hands back: the evolved database and advisor
/// (tuned state, templates, policy tree) plus the run report.
pub struct ServeOutcome<E: CostEstimator> {
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
    pub report: ServeReport,
}

// ----------------------------------------------------------------- serve

/// Run the concurrent serving pipeline over `queries`: the epoch engine
/// ([`crate::engine`]) with one tenant, under this module's boundary
/// policy (see the [module docs](self)). Config swaps are published at
/// epoch boundaries only.
///
/// Consumes and returns `db` and `advisor`: afterwards they carry the
/// tuned state. A panic in the boundary (a tuning round) aborts the
/// pipeline and is returned as an error under `serve.tuner`.
pub fn serve<E: CostEstimator>(
    mut db: SimDb,
    mut advisor: AutoIndex<E>,
    queries: &[String],
    config: ServeConfig,
) -> Result<ServeOutcome<E>, AutoIndexError> {
    // Re-validate (serve is callable with a struct-literal config).
    let config = ServeConfigBuilder { cfg: config }.build()?;
    let n = queries.len() as u64;
    let started = Instant::now();

    // Epoch 0 publication: snapshot + compiled-template cache over any
    // pre-observed templates.
    let upkeep = UpkeepCounters::bind(db.metrics());
    let prepared_before = upkeep.prepared.get();
    let initial = Publication::build(&db, &mut advisor, 0, config.fastpath, &upkeep);
    let engine = Engine::new(
        EngineConfig {
            name: "serve.tuner",
            workers: config.workers,
            shards: config.shards,
            fastpath: config.fastpath,
            max_worker_panics: config.max_worker_panics,
            panic_on: config.panic_on.iter().map(|&seq| (0, seq)).collect(),
        },
        db.metrics(),
        "serve",
        vec![Lane::new(queries, config.seed)],
    );
    let workers = engine.workers();
    let mut report = ServeReport {
        workers,
        ..ServeReport::default()
    };
    let mut universe = Universe::new();
    let mut last_tuned_epoch = None;

    report.sim_makespan_ms = engine.run(vec![initial], |coordinator| {
        for epoch in 0..n.div_ceil(config.epoch_interval) {
            let start = epoch * config.epoch_interval;
            let end = (start + config.epoch_interval).min(n);
            let slice = Slice {
                tenant: 0,
                start,
                end,
            };
            let batch = coordinator.run_epoch(epoch, &[slice])?;

            // ---- absorb the merged epoch in sequence order.
            let tally = absorb_slice(&mut db, &mut advisor, queries, &batch, |_| {});

            // ---- the boundary policy: diagnose → cooldown → tune.
            let (diagnosis, prologue) = advisor.boundary(&db);
            let decision = if !diagnosis.should_tune {
                "none".to_string()
            } else if !tuning_cooldown_over(last_tuned_epoch, epoch, config.tuning_cooldown_epochs)
            {
                "cooldown".to_string()
            } else {
                report.tuning_rounds += 1;
                last_tuned_epoch = Some(epoch);
                tuning_round(
                    &mut db,
                    &mut advisor,
                    prologue,
                    config.guard.clone(),
                    config.reset_usage_after_tuning,
                )
            };

            // ---- record, then publish the (possibly re-tuned)
            // configuration — the only point a config swap becomes
            // visible; epoch e+1's fast-path behaviour is frozen here.
            report.executed += tally.executed;
            report.parse_failures += tally.parse_failures;
            report.panics += tally.panics;
            report.fastpath_hits += tally.fastpath_hits;
            report.fastpath_misses += tally.executed - tally.fastpath_hits;
            report.total_sim_latency_ms += tally.sim_latency_ms;
            report.epochs.push(EpochRecord {
                epoch,
                statements: batch.len() as u64,
                executed: tally.executed,
                parse_failures: tally.parse_failures,
                panics: tally.panics,
                diagnosis_fired: diagnosis.should_tune,
                problem_ratio: diagnosis.problem_ratio,
                decision,
                config_fingerprint: universe.config_fingerprint(&db),
                index_count: db.index_count(),
                sim_latency_ms: tally.sim_latency_ms,
            });
            let next = Publication::build(&db, &mut advisor, epoch + 1, config.fastpath, &upkeep);
            coordinator.publish(0, next);
        }
        Ok(coordinator.sim_makespan_ms)
    })?;

    report.workers_retired = engine.workers_retired();
    report.plans_prepared = upkeep.prepared.get() - prepared_before;
    report.wall = started.elapsed();
    // The `serve.*` counters are a projection of the report, published
    // once (the engine counts its own panics and retirements live).
    let m = db.metrics();
    m.gauge("serve.workers").set(workers as f64);
    m.counter("serve.executed").add(report.executed);
    m.counter("serve.parse_failures").add(report.parse_failures);
    m.counter("serve.tuning_rounds").add(report.tuning_rounds);
    m.counter("serve.epochs").add(report.epochs.len() as u64);
    Ok(ServeOutcome {
        db,
        advisor,
        report,
    })
}

/// Whether the tuning cooldown has elapsed at `epoch`.
///
/// `cooldown` is [`ServeConfig::tuning_cooldown_epochs`]: the number of
/// epoch boundaries that must pass *strictly between* two tuning rounds.
/// A round at epoch `t` makes the next one eligible at `t + cooldown + 1`
/// (the strict `>` is deliberate — `cooldown = 0` still forbids two
/// rounds at the same epoch, and `cooldown = 1` leaves exactly one
/// quiet epoch between rounds). Before the first round there is nothing
/// to cool down from.
///
/// This comparison is pinned by a regression test: relaxing `>` to `>=`
/// would shift every tuning round one epoch earlier and change serve
/// transcripts, which are CI-checked byte-for-byte.
pub fn tuning_cooldown_over(last_tuned: Option<u64>, epoch: u64, cooldown: u64) -> bool {
    match last_tuned {
        None => true,
        Some(t) => epoch.saturating_sub(t) > cooldown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;
    use autoindex_support::obs::MetricsRegistry;

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

    fn point_lookups(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().build().is_ok());
        assert!(ServeConfig::builder().shards(0).build().is_err());
        assert!(ServeConfig::builder().epoch_interval(0).build().is_err());
        let c = ServeConfig::builder().workers(3).seed(7).build().unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.seed, 7);
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
        let queries = point_lookups(600);
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
        let queries = point_lookups(450);
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
        let mut queries = point_lookups(100);
        queries[13] = "garbage ~ sql".to_string();
        queries[77] = "also not sql".to_string();
        let cfg = ServeConfig::builder().epoch_interval(50).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed, 98);
        assert_eq!(out.report.parse_failures, 2);
    }

    #[test]
    fn total_sim_latency_matches_epoch_sum() {
        let queries = point_lookups(200);
        let cfg = ServeConfig::builder().epoch_interval(64).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        let sum: f64 = out.report.epochs.iter().map(|e| e.sim_latency_ms).sum();
        assert!((sum - out.report.total_sim_latency_ms).abs() < 1e-9);
        let stmts: u64 = out.report.epochs.iter().map(|e| e.statements).sum();
        assert_eq!(stmts, 200);
    }
}
