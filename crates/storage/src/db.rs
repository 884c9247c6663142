//! The simulated database façade: DDL, hypothetical indexes, what-if
//! costing, simulated execution and usage tracking.
//!
//! [`SimDb`] plays the role openGauss plays in the paper. Key properties:
//!
//! * **What-if API** ([`SimDb::whatif_features`]) — cost a statement under
//!   an *arbitrary* index configuration without building anything (the
//!   `hypopg_index` equivalent, §V C2.1). The configuration is passed in
//!   explicitly so MCTS can probe thousands of candidate sets cheaply.
//! * **Execution** ([`SimDb::execute`]) — runs a statement against the
//!   *real* index set, paying maintenance costs and buffer-pressure
//!   penalties, with multiplicative log-normal noise, and returns the
//!   "measured" latency. Inserts grow the catalog tables. A statement bound
//!   through a compiled template ([`SimDb::execute_bound`]) is priced
//!   through a plan the database keeps for that template until the next
//!   growth or DDL.
//! * **Buffer pressure** — total on-disk bytes beyond `memory_bytes`
//!   inflate read latency. This models the Figure 1 observation that
//!   dropping redundant indexes *improves* throughput by freeing cache.

use crate::catalog::Catalog;
use crate::fault::{BuildRoll, ExecRoll, FaultKind, FaultPlan};
use crate::index::{geometry, IndexConfig, IndexDef, IndexGeometry, IndexId, IndexList};
use crate::planner::{
    with_scratch, AccessPath, CostFeatures, CostParams, IndexView, JoinStrategy, PlanSummary,
    Planned, Planner, PreparedPlan, TrueCostWeights, VisibleIndex,
};
use crate::shape::QueryShape;
use crate::usage::{UsageDelta, UsageTracker};
use crate::StorageError;
use autoindex_sql::Statement;
use autoindex_support::hash::U64HashMap;
use autoindex_support::obs::{Counter, Gauge, MetricsRegistry};
use autoindex_support::rng::{derive_seed, StdRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the simulated database.
#[derive(Debug, Clone)]
pub struct SimDbConfig {
    pub cost_params: CostParams,
    /// Std-dev of the multiplicative log-normal execution noise.
    pub noise: f64,
    /// RNG seed for reproducible "measurements".
    pub seed: u64,
    /// Buffer-pool size; total data+index bytes above this inflate reads.
    pub memory_bytes: u64,
}

impl Default for SimDbConfig {
    fn default() -> Self {
        SimDbConfig {
            cost_params: CostParams::default(),
            noise: 0.03,
            seed: 42,
            memory_bytes: 16 * 1024 * 1024 * 1024, // 16 GB, the paper's server
        }
    }
}

/// Result of executing one statement: nothing on the heap of its own.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Simulated measured latency in milliseconds.
    pub latency_ms: f64,
    /// The §V cost features of the executed plan.
    pub features: CostFeatures,
    /// Indexes used on the read side.
    pub indexes_used: IndexList,
}

/// Aggregate measurement over a workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadMeasurement {
    /// Sum of per-statement latencies, ms.
    pub total_latency_ms: f64,
    /// Number of statements executed.
    pub statements: u64,
    /// Per-statement latencies (same order as input).
    pub latencies_ms: Vec<f64>,
}

impl WorkloadMeasurement {
    /// Mean statement latency, ms.
    pub fn avg_latency_ms(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            self.total_latency_ms / self.statements as f64
        }
    }

    /// Throughput under `concurrency` independent streams, statements/s.
    pub fn throughput(&self, concurrency: u32) -> f64 {
        let avg = self.avg_latency_ms();
        if avg <= 0.0 {
            0.0
        } else {
            concurrency as f64 * 1000.0 / avg
        }
    }
}

/// Cached metric handles for the database hot paths (interned once per
/// registry; updates are lock-free atomic ops).
#[derive(Debug, Clone)]
struct DbMetricHandles {
    /// `db.executions` — statements run against the real index set.
    executions: Counter,
    /// `db.whatif_calls` — hypothetical plans costed (the `hypopg` rate).
    whatif_calls: Counter,
    /// `db.whatif_cost_total` — accumulated native cost of those plans.
    whatif_cost_total: Gauge,
    /// `planner.path.seq_scan` / `planner.path.index_scan` /
    /// `planner.path.bitmap_or` — access-path choices.
    plan_seq_scan: Counter,
    plan_index_scan: Counter,
    plan_bitmap_or: Counter,
    /// `planner.sort_elided` — sort/group requirements satisfied by an
    /// order-providing index scan (no simulated sort paid).
    plan_sort_elided: Counter,
    /// `planner.covering_scans` — index-only scans chosen (base-table
    /// fetches reduced to visibility checks).
    plan_covering_scans: Counter,
    /// `planner.join.hash` / `planner.join.index_nl` /
    /// `planner.join.nested_loop` — join-device choices.
    join_hash: Counter,
    join_index_nl: Counter,
    join_nested_loop: Counter,
    /// `planner.prepared` — plans prepared for [`SimDb::execute_bound`]'s
    /// kept plans (the counter a publication's plan slots count into).
    prepared: Counter,
    /// `db.index_creates` / `db.index_drops` — real DDL activity.
    index_creates: Counter,
    index_drops: Counter,
    /// `db.index_restores` — privileged snapshot restores (guard
    /// rollbacks); metadata-only, never fault.
    index_restores: Counter,
    /// `db.index_build_ms` — accumulated simulated index build time.
    index_build_ms: Gauge,
    /// `db.fault.*` — injected-fault activity (see `docs/ROBUSTNESS.md`).
    fault_build_failures: Counter,
    fault_slow_builds: Counter,
    fault_latency_spikes: Counter,
    fault_transients: Counter,
    fault_stale_whatifs: Counter,
    /// `db.fault.absorbed_retries` — transient faults swallowed by the
    /// infallible wrappers (`execute*`), each paid as a retry.
    fault_absorbed_retries: Counter,
}

impl DbMetricHandles {
    fn bind(m: &MetricsRegistry) -> Self {
        DbMetricHandles {
            executions: m.counter("db.executions"),
            whatif_calls: m.counter("db.whatif_calls"),
            whatif_cost_total: m.gauge("db.whatif_cost_total"),
            plan_seq_scan: m.counter("planner.path.seq_scan"),
            plan_index_scan: m.counter("planner.path.index_scan"),
            plan_bitmap_or: m.counter("planner.path.bitmap_or"),
            plan_sort_elided: m.counter("planner.sort_elided"),
            plan_covering_scans: m.counter("planner.covering_scans"),
            join_hash: m.counter("planner.join.hash"),
            join_index_nl: m.counter("planner.join.index_nl"),
            join_nested_loop: m.counter("planner.join.nested_loop"),
            prepared: m.counter("planner.prepared"),
            index_creates: m.counter("db.index_creates"),
            index_drops: m.counter("db.index_drops"),
            index_restores: m.counter("db.index_restores"),
            index_build_ms: m.gauge("db.index_build_ms"),
            fault_build_failures: m.counter("db.fault.build_failures"),
            fault_slow_builds: m.counter("db.fault.slow_builds"),
            fault_latency_spikes: m.counter("db.fault.latency_spikes"),
            fault_transients: m.counter("db.fault.transient_errors"),
            fault_stale_whatifs: m.counter("db.fault.stale_whatifs"),
            fault_absorbed_retries: m.counter("db.fault.absorbed_retries"),
        }
    }

    /// Tally the `planner.path.*` counters for one chosen access path.
    fn tally_path(&self, p: &AccessPath) {
        match p.index {
            Some(_) => {
                self.plan_index_scan.incr();
                if !p.bitmap_indexes.is_empty() {
                    self.plan_bitmap_or.incr();
                }
            }
            None => self.plan_seq_scan.incr(),
        }
    }

    /// Tally the `planner.join.*` counters for one join step.
    fn tally_join(&self, j: &JoinStrategy) {
        match j {
            JoinStrategy::Hash => self.join_hash.incr(),
            JoinStrategy::IndexNestedLoop(_) => self.join_index_nl.incr(),
            JoinStrategy::NestedLoop => self.join_nested_loop.incr(),
        }
    }

    /// Tally the counters a plan's totals feed: `planner.sort_elided` and
    /// `planner.covering_scans`.
    fn tally_totals(&self, sort_elided: u32, covering_scans: u32) {
        self.plan_sort_elided.add(sort_elided as u64);
        self.plan_covering_scans.add(covering_scans as u64);
    }
}

/// The buffer-pressure multiplier as a function of total index bytes, at
/// one heap size ([`SimDb::pressure_model`]).
#[derive(Debug, Clone, Copy)]
pub struct PressureModel {
    heap_bytes: u64,
    memory_bytes: u64,
}

/// Read-latency inflation per 1x of memory overshoot.
const MEMORY_PRESSURE_FACTOR: f64 = 0.12;

impl PressureModel {
    /// Buffer-pressure multiplier for a hypothetical total index footprint.
    pub fn for_index_bytes(&self, index_bytes: u64) -> f64 {
        let total = self.heap_bytes + index_bytes;
        let over = (total as f64 - self.memory_bytes as f64) / self.memory_bytes as f64;
        1.0 + MEMORY_PRESSURE_FACTOR * over.max(0.0)
    }
}

/// A plan [`SimDb::execute_bound`] keeps for one template.
#[derive(Default)]
struct KeptPlan {
    plan: PreparedPlan,
    /// Prepared since the last release: `plan` is what the catalog and the
    /// index view give now. A plan that is not current holds no table.
    current: bool,
    /// The template did not run between the last two releases: the next
    /// release drops the entry unless it runs before then.
    idle: bool,
}

/// The simulated database.
pub struct SimDb {
    catalog: Catalog,
    config: SimDbConfig,
    indexes: BTreeMap<IndexId, Arc<IndexDef>>,
    /// `indexes`, resolved and grouped by table: what execution, EXPLAIN,
    /// buffer pressure and every snapshot read. Edited copy-on-write by
    /// the DDL and growth paths below, never rebuilt.
    view: Arc<IndexView>,
    /// Heap bytes of every table, kept current by [`SimDb::grow_table`]
    /// (the one catalog mutation) so buffer pressure is read, not summed.
    heap_bytes: u64,
    next_id: u32,
    usage: UsageTracker,
    rng: StdRng,
    metrics: MetricsRegistry,
    obs: DbMetricHandles,
    /// Optional fault schedule (see [`crate::fault`]). `None` — and any
    /// quiet plan — is byte-identical to the pre-fault database: the
    /// measurement-noise RNG stream is never touched by fault rolls.
    faults: Option<FaultPlan>,
    /// Per template hash, the plan its bound statements are priced
    /// through, current until the next growth or DDL
    /// ([`SimDb::release_plans`]).
    plans: U64HashMap<KeptPlan>,
}

impl SimDb {
    /// Create a database over `catalog`, recording metrics into the
    /// process-wide [`MetricsRegistry::global`] registry. Use
    /// [`SimDb::with_metrics`] to install a private registry when a test
    /// needs isolated, exact counts.
    pub fn new(catalog: Catalog, config: SimDbConfig) -> Self {
        Self::with_metrics(catalog, config, MetricsRegistry::global().clone())
    }

    /// Create a database recording into an explicit metrics registry.
    pub fn with_metrics(catalog: Catalog, config: SimDbConfig, metrics: MetricsRegistry) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let obs = DbMetricHandles::bind(&metrics);
        SimDb {
            heap_bytes: catalog.tables().map(|t| t.bytes()).sum(),
            catalog,
            config,
            indexes: BTreeMap::new(),
            view: Arc::default(),
            next_id: 0,
            usage: UsageTracker::new(),
            rng,
            metrics,
            obs,
            faults: None,
            plans: U64HashMap::default(),
        }
    }

    /// Install (or clear) a fault plan. Passing `None`, or a plan whose
    /// rates are all zero, leaves every measurement byte-identical to a
    /// database without fault injection.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The metrics registry this database (and everything observing it —
    /// estimators, searches, the online loop) records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Grow `table` by `rows` rows (see [`Catalog::grow_table`]) and
    /// re-size the indexes on it. The only way the catalog under a
    /// database changes, which is what keeps [`SimDb::index_view`] and
    /// [`SimDb::total_heap_bytes`] current.
    pub fn grow_table(&mut self, table: &str, rows: u64) -> Result<(), StorageError> {
        self.release_plans();
        let (before, grown) = self.catalog.grow_table_from(table, rows)?;
        self.heap_bytes = self.heap_bytes - before + grown.bytes();
        let run = self.view.run_of(table);
        if !run.is_empty() {
            Arc::make_mut(&mut self.view).resize(run, grown.rows);
        }
        Ok(())
    }

    /// The configuration.
    pub fn config(&self) -> &SimDbConfig {
        &self.config
    }

    /// Usage counters.
    pub fn usage(&self) -> &UsageTracker {
        &self.usage
    }

    /// Reset usage counters (start of a diagnosis window).
    pub fn reset_usage(&mut self) {
        self.usage.reset();
    }

    // ---------------------------------------------------------------- DDL

    /// Per-entry index build cost, ms (see [`IndexGeometry::build_ms`]).
    const BUILD_MS_PER_ENTRY: f64 = 2e-5;

    /// Create a real index. Errors if an identical key already exists, or
    /// — under an installed [`FaultPlan`] — when the simulated build fails
    /// ([`StorageError::FaultInjected`]`(`[`FaultKind::FailedBuild`]`)`; a
    /// retry re-rolls). Successful builds charge simulated build time to
    /// the `db.index_build_ms` gauge; slow-build faults multiply it.
    pub fn create_index(&mut self, def: IndexDef) -> Result<IndexId, StorageError> {
        let table = self.catalog.require_table(&def.table)?;
        def.validate(table)?;
        let geo = geometry(&def, table)?;
        if self.find_index(&def).is_some() {
            return Err(StorageError::DuplicateIndex(def.key()));
        }
        let roll = match &mut self.faults {
            Some(f) => f.roll_build(),
            None => BuildRoll {
                failed: false,
                build_factor: 1.0,
            },
        };
        if roll.failed {
            self.obs.fault_build_failures.incr();
            return Err(StorageError::FaultInjected(FaultKind::FailedBuild));
        }
        if roll.build_factor > 1.0 {
            self.obs.fault_slow_builds.incr();
        }
        self.obs
            .index_build_ms
            .add(geo.build_ms(Self::BUILD_MS_PER_ENTRY) * roll.build_factor);
        self.obs.index_creates.incr();
        Ok(self.register_index(def, geo))
    }

    /// Privileged, metadata-only re-creation of an index from a snapshot
    /// (guard rollbacks). Never consults the fault plan and charges no
    /// build time — rolling back must always succeed, atomically.
    /// Idempotent: restoring a definition that already exists returns the
    /// live id.
    pub fn restore_index(&mut self, def: IndexDef) -> Result<IndexId, StorageError> {
        let table = self.catalog.require_table(&def.table)?;
        let geo = geometry(&def, table)?;
        if let Some(id) = self.find_index(&def) {
            return Ok(id);
        }
        self.obs.index_restores.incr();
        Ok(self.register_index(def, geo))
    }

    /// Give `def` the next id and enter it into the index set and view.
    fn register_index(&mut self, def: IndexDef, geo: IndexGeometry) -> IndexId {
        self.release_plans();
        let id = IndexId(self.next_id);
        self.next_id += 1;
        let def = Arc::new(def);
        Arc::make_mut(&mut self.view).insert(id, Arc::clone(&def), geo);
        self.indexes.insert(id, def);
        id
    }

    /// Drop a real index.
    pub fn drop_index(&mut self, id: IndexId) -> Result<IndexDef, StorageError> {
        let def = self
            .indexes
            .remove(&id)
            .ok_or(StorageError::UnknownIndex(id))?;
        self.release_plans();
        Arc::make_mut(&mut self.view).remove(&def.table, id);
        self.usage.forget(id);
        self.obs.index_drops.incr();
        Ok(Arc::unwrap_or_clone(def))
    }

    /// All real indexes.
    pub fn indexes(&self) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes.iter().map(|(k, v)| (*k, &**v))
    }

    /// The real indexes' definitions, in id order, as the database holds
    /// them: a caller that keeps one shares it rather than copying it.
    pub fn shared_indexes(&self) -> impl Iterator<Item = &Arc<IndexDef>> {
        self.indexes.values()
    }

    /// The real index set as the planner sees it: resolved at current
    /// cardinality, grouped by table.
    pub fn index_view(&self) -> &IndexView {
        &self.view
    }

    /// [`SimDb::index_view`], shared as every [`DbSnapshot`] shares it:
    /// one reference count, and the next DDL or growth edits a copy.
    pub fn shared_index_view(&self) -> Arc<IndexView> {
        Arc::clone(&self.view)
    }

    /// The fingerprint of the real index set ([`IndexView::fingerprint`]):
    /// kept by DDL as the byte total is, so reading it walks nothing.
    pub fn index_fingerprint(&self) -> u64 {
        self.view.fingerprint()
    }

    /// Number of real indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Find the id of an index by definition.
    pub fn find_index(&self, def: &IndexDef) -> Option<IndexId> {
        self.view
            .table(&def.table)
            .iter()
            .find(|vi| *vi.def == *def)
            .map(|vi| vi.id)
    }

    /// Geometry of a real or hypothetical index at current cardinality.
    pub fn index_geometry(&self, def: &IndexDef) -> Result<IndexGeometry, StorageError> {
        let table = self.catalog.require_table(&def.table)?;
        geometry(def, table)
    }

    /// Estimated on-disk size of an index (hypothetical sizing, §V C2.1).
    pub fn index_size_bytes(&self, def: &IndexDef) -> Result<u64, StorageError> {
        Ok(self.index_geometry(def)?.bytes)
    }

    /// Total bytes of all real indexes.
    pub fn total_index_bytes(&self) -> u64 {
        self.view.bytes()
    }

    /// Total bytes of heap data.
    pub fn total_heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    // ----------------------------------------------------------- what-if

    /// Plan `shape` under an explicit hypothetical index configuration and
    /// return its cost features. Does not touch usage counters.
    pub fn whatif_features<'a>(
        &self,
        shape: &QueryShape,
        config: impl IndexConfig<'a>,
    ) -> CostFeatures {
        self.whatif_plan(shape, config).features
    }

    /// Full plan summary under a hypothetical configuration. Under a
    /// stale-statistics fault window the reported cost features are
    /// multiplicatively distorted (the plan *choice* is unaffected). Each
    /// probe rolls the shared what-if fault stream once (neutral when no
    /// plan is installed; lock-free, since what-if planning takes `&self`).
    pub fn whatif_plan<'a>(&self, shape: &QueryShape, config: impl IndexConfig<'a>) -> PlanSummary {
        let distortion = self.faults.as_ref().map_or(1.0, FaultPlan::roll_whatif);
        self.finish_whatif(self.plan_whatif_raw(shape, config), distortion)
    }

    /// Pure hypothetical planning, no fault rolls or metrics. Resolves, by
    /// reference, only the definitions on tables `shape` touches — the
    /// planner never asks for any other. Ids count down from `u32::MAX` by
    /// position in `config` and the per-table order is `config`'s, so the
    /// plan is the one the whole configuration would give.
    fn plan_whatif_raw<'a>(&self, shape: &QueryShape, config: impl IndexConfig<'a>) -> PlanSummary {
        let visible: Vec<VisibleIndex<&IndexDef>> = config
            .into_iter()
            .enumerate()
            .filter_map(|(i, def)| {
                shape.table(&def.table)?;
                let geo = geometry(def, self.catalog.table(&def.table)?).ok()?;
                let id = IndexId(u32::MAX - i as u32);
                Some(VisibleIndex { id, def, geo })
            })
            .collect();
        Planner::new(&self.catalog, &self.config.cost_params).plan_over(shape, &visible[..])
    }

    /// Apply a roll's stale-statistics distortion and record metrics.
    fn finish_whatif(&self, mut plan: PlanSummary, distortion: f64) -> PlanSummary {
        if distortion != 1.0 {
            self.obs.fault_stale_whatifs.incr();
            plan.features = plan.features.scaled(distortion);
        }
        self.obs.whatif_calls.incr();
        self.obs.whatif_cost_total.add(plan.features.native_cost());
        plan.paths.iter().for_each(|p| self.obs.tally_path(p));
        plan.join_strategies
            .iter()
            .for_each(|j| self.obs.tally_join(j));
        self.obs.tally_totals(plan.sort_elided, plan.covering_scans);
        plan
    }

    /// Native what-if cost (maintenance-blind, like the DB's own advisor).
    pub fn whatif_native_cost<'a>(&self, shape: &QueryShape, config: impl IndexConfig<'a>) -> f64 {
        self.whatif_features(shape, config).native_cost()
    }

    /// EXPLAIN a statement under a hypothetical configuration: the chosen
    /// plan, rendered with index names.
    pub fn whatif_explain<'a>(&self, shape: &QueryShape, config: impl IndexConfig<'a>) -> String {
        let plan = self.whatif_plan(shape, config.clone());
        plan.explain(shape, &|id| {
            // What-if ids count down from u32::MAX in config order.
            let i = (u32::MAX - id.0) as usize;
            config.clone().into_iter().nth(i).map(|d| d.to_string())
        })
    }

    /// EXPLAIN a statement under the *real* index set.
    pub fn explain(&self, stmt: &Statement) -> String {
        let shape = QueryShape::extract(stmt, &self.catalog);
        let planner = Planner::new(&self.catalog, &self.config.cost_params);
        let plan = planner.plan_over(&shape, &*self.view);
        plan.explain(&shape, &|id| self.indexes.get(&id).map(|d| d.to_string()))
    }

    // ---------------------------------------------------------- execution

    /// Buffer-pressure multiplier on read latency given current footprint.
    pub fn memory_pressure(&self) -> f64 {
        self.pressure_for_index_bytes(self.total_index_bytes())
    }

    /// Buffer-pressure multiplier for a *hypothetical* total index
    /// footprint (heap size unchanged). Index tuners use this to price the
    /// cache impact of a candidate configuration — the Figure 1 effect
    /// where dropping unused indexes improves throughput by freeing
    /// memory.
    pub fn pressure_for_index_bytes(&self, index_bytes: u64) -> f64 {
        self.pressure_model().for_index_bytes(index_bytes)
    }

    /// [`SimDb::pressure_for_index_bytes`] as a value: what a tuning
    /// round takes before it prices thousands of hypothetical footprints
    /// against one catalog.
    pub fn pressure_model(&self) -> PressureModel {
        PressureModel {
            heap_bytes: self.total_heap_bytes(),
            memory_bytes: self.config.memory_bytes.max(1),
        }
    }

    /// Maximum transient-fault retries the infallible `execute*` wrappers
    /// absorb before executing fault-suppressed.
    const EXEC_RETRY_BUDGET: u32 = 8;

    /// Execute one parsed statement against the real index set. Injected
    /// transient faults are absorbed as counted retries
    /// (`db.fault.absorbed_retries`); use [`SimDb::try_execute_shape`]
    /// to observe them.
    pub fn execute(&mut self, stmt: &Statement) -> ExecOutcome {
        let shape = QueryShape::extract(stmt, &self.catalog);
        self.execute_shape(&shape)
    }

    /// Execute a pre-extracted shape, absorbing transient faults (hot path
    /// for template workloads). The same planning and the same delta as
    /// [`DbSnapshot::execute_shape_at`], absorbed at once and measured at
    /// the pressure that follows, with noise from the sequential stream.
    pub fn execute_shape(&mut self, shape: &QueryShape) -> ExecOutcome {
        self.execute_as(None, shape)
    }

    /// [`SimDb::execute_shape`] of `shape`, a binding of the compiled
    /// template whose fingerprint hash is `template`, priced through the
    /// plan this database keeps for that template: the same fault rolls,
    /// outcome, side effects and noise draw, bit for bit. The plan is
    /// prepared at the template's first execution and again at its first
    /// execution after a release — every table growth and every index
    /// created, restored or dropped releases all kept plans — into the
    /// storage it had. Every binding of one template must have the
    /// template's structure ([`PreparedPlan::fits`]).
    pub fn execute_bound(&mut self, template: u64, shape: &QueryShape) -> ExecOutcome {
        self.execute_as(Some(template), shape)
    }

    /// The infallible wrapper under both: up to
    /// [`SimDb::EXEC_RETRY_BUDGET`] fallible attempts, each transient
    /// counted as an absorbed retry, then one fault-suppressed run.
    fn execute_as(&mut self, template: Option<u64>, shape: &QueryShape) -> ExecOutcome {
        for _ in 0..Self::EXEC_RETRY_BUDGET {
            match self.try_execute_as(template, shape) {
                Ok(o) => return o,
                Err(_) => self.obs.fault_absorbed_retries.incr(),
            }
        }
        // The plan keeps faulting; run once fault-suppressed so the
        // infallible contract holds even at a 100% transient rate.
        self.execute_inner(template, shape, 1.0)
    }

    /// Fallible [`SimDb::execute_shape`]: a transient roll fails the
    /// statement *before* any side effect (no usage credit, no table
    /// growth); a latency-spike roll multiplies the measured latency.
    pub fn try_execute_shape(&mut self, shape: &QueryShape) -> Result<ExecOutcome, StorageError> {
        self.try_execute_as(None, shape)
    }

    /// One fault roll, then (unless it failed) the execution.
    fn try_execute_as(
        &mut self,
        template: Option<u64>,
        shape: &QueryShape,
    ) -> Result<ExecOutcome, StorageError> {
        let roll = match &mut self.faults {
            Some(f) => f.roll_execute(),
            None => ExecRoll {
                transient: false,
                latency_factor: 1.0,
            },
        };
        if roll.transient {
            self.obs.fault_transients.incr();
            return Err(StorageError::FaultInjected(FaultKind::TransientError));
        }
        if roll.latency_factor > 1.0 {
            self.obs.fault_latency_spikes.incr();
        }
        Ok(self.execute_inner(template, shape, roll.latency_factor))
    }

    /// The fault-free live path: [`plan_execution`] — or, for a bound
    /// statement, [`priced_execution`] through its template's kept plan,
    /// prepared first unless current — then the statement's own side
    /// effects absorbed, then the measurement. Absorb comes first — an
    /// INSERT's growth is priced into its own latency — and the sequential
    /// noise stream is drawn after it; `latency_factor` scales the result
    /// (1.0 = healthy).
    fn execute_inner(
        &mut self,
        template: Option<u64>,
        shape: &QueryShape,
        latency_factor: f64,
    ) -> ExecOutcome {
        let obs = &self.obs;
        let each = |path: AccessPath| obs.tally_path(&path);
        let join = |j: JoinStrategy| obs.tally_join(&j);
        let (plan, delta) = match template {
            None => plan_execution(
                &self.catalog,
                &self.config.cost_params,
                &self.view,
                shape,
                each,
                join,
            ),
            Some(template) => {
                let kept = self.plans.entry(template).or_default();
                if !kept.current {
                    Planner::new(&self.catalog, &self.config.cost_params).prepare_into(
                        &mut kept.plan,
                        shape,
                        &*self.view,
                    );
                    kept.current = true;
                    obs.prepared.incr();
                }
                priced_execution(&kept.plan, shape, each, join)
            }
        };
        obs.tally_totals(plan.sort_elided, plan.covering_scans);
        self.absorb(&delta);
        let noise = lognormal(&mut self.rng, self.config.noise);
        measured(plan, self.memory_pressure(), noise, latency_factor)
    }

    /// Release every kept plan, before a growth or DDL changes what it
    /// read: a plan still holding a table when growth changes it would make
    /// the catalog copy that table. A released plan keeps its storage (not
    /// current, holding no table) unless its template has not run since the
    /// release before this one: the map holds the templates that ran since
    /// the second-to-last change. (Dropping at the first idle release
    /// instead makes a template rarer than the changes grow fresh storage
    /// at every run.)
    fn release_plans(&mut self) {
        self.plans.retain(|_, kept| {
            kept.plan.release();
            let keep = kept.current || !kept.idle;
            kept.idle = !std::mem::take(&mut kept.current);
            keep
        });
    }

    /// Keep only the kept plans of the templates `keep` names — what a
    /// caller whose template store dropped templates does to bound the
    /// plans by the store.
    pub fn retain_plans(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.plans.retain(|template, _| keep(*template));
    }

    /// Number of templates this database keeps a plan (or its storage) for.
    pub fn kept_plans(&self) -> usize {
        self.plans.len()
    }

    // ---------------------------------------------------------- snapshots

    /// Freeze an immutable, self-contained view of the database for
    /// concurrent read-only execution (the serving pipeline's unit of
    /// config publication). The snapshot shares every table with the live
    /// catalog (a clone copies one reference count per table; the live
    /// side copies a table before it next changes it, so the snapshot
    /// keeps reading it as it was), shares the resolved real-index view
    /// the same way and freezes the current buffer-pressure multiplier, so
    /// executor threads can plan and price statements without any lock on
    /// the live database.
    pub fn snapshot(&self, epoch: u64) -> DbSnapshot {
        DbSnapshot {
            epoch,
            catalog: self.catalog.clone(),
            config: self.config.clone(),
            view: Arc::clone(&self.view),
            pressure: self.memory_pressure(),
        }
    }

    /// Merge one statement's detached side effects — the live path's own,
    /// at once, or those [`DbSnapshot::execute_shape_at`] produced on a
    /// worker thread — into the live database: usage counters, statement
    /// count, catalog growth and the `db.executions` metric. Applying
    /// deltas in logical-clock order reproduces the sequential execution
    /// history exactly.
    pub fn absorb(&mut self, delta: &UsageDelta) {
        self.obs.executions.incr();
        self.usage.apply_delta(delta);
        if let Some((table, rows)) = &delta.growth {
            let _ = self.grow_table(table, *rows);
        }
    }

    /// Execute a sequence of statements and aggregate the measurement.
    pub fn run_workload(&mut self, stmts: &[Statement]) -> WorkloadMeasurement {
        let mut m = WorkloadMeasurement::default();
        m.latencies_ms.reserve(stmts.len());
        for s in stmts {
            let o = self.execute(s);
            m.total_latency_ms += o.latency_ms;
            m.statements += 1;
            m.latencies_ms.push(o.latency_ms);
        }
        m
    }
}

/// An immutable, self-contained view of a [`SimDb`] at one epoch.
///
/// Built by [`SimDb::snapshot`] and shared (behind an `Arc`) across
/// executor threads in the serving pipeline. Execution against a snapshot
/// is **pure**: it touches no usage counters, no catalog statistics and no
/// shared RNG — every side effect is returned as a [`UsageDelta`] for the
/// owner to [`SimDb::absorb`] later, and measurement noise is derived from
/// the statement's logical sequence number, so the outcome of statement
/// `seq` is byte-identical no matter which thread computes it or in what
/// order. Snapshot execution is fault-free by design: fault rolls are
/// stateful and stay on the owning database's DDL/execution paths.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The epoch this snapshot was published at.
    pub epoch: u64,
    /// The catalog as of snapshot time. Its tables are shared with the
    /// live catalog and every other snapshot that saw them unchanged;
    /// growth and statistics edits on the live side replace a copy.
    catalog: Catalog,
    config: SimDbConfig,
    /// The database's index view as of snapshot time, shared: later DDL
    /// and growth on the live database edit a copy.
    view: Arc<IndexView>,
    /// Buffer-pressure multiplier frozen at snapshot time.
    pressure: f64,
}

impl DbSnapshot {
    /// The frozen catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of real indexes visible in this snapshot.
    pub fn index_count(&self) -> usize {
        self.view.len()
    }

    /// The frozen buffer-pressure multiplier.
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    /// Execute one pre-extracted shape read-only at logical time `seq`.
    ///
    /// Returns the simulated measurement plus the statement's detached
    /// side effects: the execution core [`SimDb::execute_shape`] runs too,
    /// over the frozen catalog and view, measured at the frozen pressure.
    /// The noise factor comes from a per-`seq` derived RNG rather than the
    /// database's sequential stream — the price of worker-count
    /// independence.
    pub fn execute_shape_at(&self, shape: &QueryShape, seq: u64) -> (ExecOutcome, UsageDelta) {
        // No path report is kept: this allocates nothing once the thread's
        // scratch plan has grown to the statement.
        let (plan, delta) = plan_execution(
            &self.catalog,
            &self.config.cost_params,
            &self.view,
            shape,
            drop,
            drop,
        );
        (self.measured_at(plan, seq), delta)
    }

    /// Prepare the plan of `shape`'s template against this snapshot's
    /// catalog and index view: everything [`DbSnapshot::execute_shape_at`]
    /// works out that no literal changes. The snapshot is immutable, so
    /// the plan is current for as long as the snapshot is used, and for
    /// every other snapshot that [`DbSnapshot::agrees_on`] the template.
    pub fn prepare(&self, shape: &QueryShape) -> PreparedPlan {
        Planner::new(&self.catalog, &self.config.cost_params).prepare(shape, &*self.view)
    }

    /// Whether this snapshot and `other`, two snapshots of one database,
    /// agree on every table a plan of `shape`'s template reads — `shape`'s
    /// tables and the one it writes: the same catalog stamp
    /// ([`crate::catalog::Table::stamp`]: the same statistics, hence the
    /// same index geometry) and the same index ids in the table's
    /// [`IndexView`] run (the same definitions in the same order). Then a
    /// plan either one [`DbSnapshot::prepare`]d prices every binding of the
    /// template through the other bit for bit as the other's own plan
    /// would. Stamps and ids are numbered per database: between snapshots
    /// of two databases the answer means nothing.
    pub fn agrees_on(&self, other: &DbSnapshot, shape: &QueryShape) -> bool {
        let written = shape.write.as_ref().map(|w| w.table.as_str());
        let mut read = shape.tables.iter().map(|t| t.table.as_str()).chain(written);
        read.all(|table| {
            let stamp = |s: &DbSnapshot| s.catalog.table(table).map(|t| t.stamp());
            let mine = self.view.table(table).iter().map(|vi| vi.id);
            let theirs = other.view.table(table).iter().map(|vi| vi.id);
            stamp(self) == stamp(other) && mine.eq(theirs)
        })
    }

    /// [`DbSnapshot::execute_shape_at`] for a `shape` that is a binding of
    /// the template `plan` was [`DbSnapshot::prepare`]d from by this
    /// snapshot, or by one that [`DbSnapshot::agrees_on`] the template:
    /// the same outcome and delta, bit for bit, priced from the literals
    /// alone.
    pub fn execute_prepared_at(
        &self,
        plan: &PreparedPlan,
        shape: &QueryShape,
        seq: u64,
    ) -> (ExecOutcome, UsageDelta) {
        let (plan, delta) = priced_execution(plan, shape, drop, drop);
        (self.measured_at(plan, seq), delta)
    }

    /// `plan`'s measurement at logical time `seq`, at the frozen pressure.
    fn measured_at(&self, plan: Planned, seq: u64) -> ExecOutcome {
        let noise = lognormal_at(self.config.seed, seq, self.config.noise);
        measured(plan, self.pressure, noise, 1.0)
    }
}

/// The one execution core under [`SimDb::execute_shape`] and
/// [`DbSnapshot::execute_shape_at`], for a statement nobody keeps a plan
/// for: prepare `shape` over the real index set into this thread's scratch
/// storage, then [`priced_execution`].
fn plan_execution(
    catalog: &Catalog,
    params: &CostParams,
    view: &IndexView,
    shape: &QueryShape,
    each: impl FnMut(AccessPath),
    join: impl FnMut(JoinStrategy),
) -> (Planned, UsageDelta) {
    with_scratch(|prepared| {
        Planner::new(catalog, params).prepare_into(prepared, shape, view);
        priced_execution(prepared, shape, each, join)
    })
}

/// Price `shape` through `prepared` (each table's chosen path goes to
/// `each`, each join step to `join`, the totals come back) and build the
/// statement's detached side effects — a read-side credit for every index
/// used (the plan's native cost against the no-index baseline priced on
/// the way, shared evenly), the plan's maintenance charges (moved out of
/// the returned totals) and an INSERT's growth. Touches nothing: the live
/// database absorbs the delta at once, a snapshot's owner later. Allocates
/// nothing: the index list is copied inline, the charges and the grown
/// table's name are shared.
fn priced_execution(
    prepared: &PreparedPlan,
    shape: &QueryShape,
    each: impl FnMut(AccessPath),
    join: impl FnMut(JoinStrategy),
) -> (Planned, UsageDelta) {
    let (mut plan, baseline) = prepared.price(shape, each, join);
    let mut delta = UsageDelta::default();
    if !plan.indexes_used.is_empty() {
        delta.saving =
            (baseline - plan.features.native_cost()).max(0.0) / plan.indexes_used.len() as f64;
        delta.scans = plan.indexes_used.clone();
    }
    delta.maintenance = std::mem::take(&mut plan.maintenance);
    delta.growth = prepared.growth();
    (plan, delta)
}

/// Milliseconds per optimizer cost unit (calibration constant).
const MS_PER_COST_UNIT: f64 = 0.01;

/// The "measured" latency of an executed plan — true-cost weights x buffer
/// pressure x measurement noise x calibration x fault factor, multiplied
/// in that order — with what the plan reports of itself.
fn measured(plan: Planned, pressure: f64, noise: f64, latency_factor: f64) -> ExecOutcome {
    let true_cost = plan.features.true_cost(&TrueCostWeights::default());
    ExecOutcome {
        latency_ms: true_cost * pressure * noise * MS_PER_COST_UNIT * latency_factor,
        features: plan.features,
        indexes_used: plan.indexes_used,
    }
}

/// Domain-separation salt for the per-sequence measurement-noise stream
/// (keeps it disjoint from every other `derive_seed` consumer).
const NOISE_STREAM_SALT: u64 = 0x5e11_1a7e_5e41_0123;

/// Log-normal noise factor for logical time `seq`: a fresh RNG seeded from
/// `(seed, seq)`, so the factor depends only on the statement's position
/// in the global stream — never on which thread asks or how many
/// statements other threads have executed.
pub fn lognormal_at(seed: u64, seq: u64, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ NOISE_STREAM_SALT, seq));
    lognormal(&mut rng, sigma)
}

/// Multiplicative log-normal noise factor with σ = `sigma`.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Box-Muller from two uniforms.
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableBuilder};
    use autoindex_sql::parse_statement;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 500_000)
                .column(Column::int("a", 500_000))
                .column(Column::int("b", 50))
                .column(Column::text("c", 10_000, 24))
                .primary_key(&["a"])
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
    }

    fn stmt(sql: &str) -> Statement {
        parse_statement(sql).unwrap()
    }

    #[test]
    fn create_and_drop_index() {
        let mut db = db();
        let id = db.create_index(IndexDef::new("t", &["a"])).unwrap();
        assert_eq!(db.index_count(), 1);
        assert!(db.find_index(&IndexDef::new("t", &["a"])).is_some());
        let def = db.drop_index(id).unwrap();
        assert_eq!(def.key(), "t(a)");
        assert_eq!(db.index_count(), 0);
        assert!(db.drop_index(id).is_err());
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        assert!(matches!(
            db.create_index(IndexDef::new("t", &["a"])),
            Err(StorageError::DuplicateIndex(_))
        ));
        // Different column order is a different index.
        assert!(db.create_index(IndexDef::new("t", &["a", "b"])).is_ok());
    }

    #[test]
    fn index_on_unknown_table_or_column_rejected() {
        let mut db = db();
        assert!(db.create_index(IndexDef::new("ghost", &["a"])).is_err());
        assert!(db.create_index(IndexDef::new("t", &["ghost"])).is_err());
    }

    #[test]
    fn whatif_cost_drops_with_useful_index() {
        let db = db();
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE a = 5"), db.catalog());
        let without = db.whatif_native_cost(&shape, &[]);
        let with = db.whatif_native_cost(&shape, &[IndexDef::new("t", &["a"])]);
        assert!(with < without / 10.0);
    }

    #[test]
    fn execution_uses_real_indexes_and_tracks_usage() {
        let mut db = db();
        let id = db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let o = db.execute(&stmt("SELECT * FROM t WHERE a = 5"));
        assert_eq!(*o.indexes_used, [id]);
        assert!(db.usage().usage(id).scans == 1);
        assert!(db.usage().usage(id).benefit > 0.0);
    }

    #[test]
    fn execution_latency_reflects_index_benefit() {
        let mut db = db();
        let slow = db.execute(&stmt("SELECT * FROM t WHERE a = 5")).latency_ms;
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let fast = db.execute(&stmt("SELECT * FROM t WHERE a = 5")).latency_ms;
        assert!(fast < slow / 5.0, "slow={slow} fast={fast}");
    }

    #[test]
    fn inserts_grow_tables_and_charge_maintenance() {
        let mut db = db();
        let id = db.create_index(IndexDef::new("t", &["c"])).unwrap();
        let rows_before = db.catalog().table("t").unwrap().rows;
        let o = db.execute(&stmt("INSERT INTO t (a, b, c) VALUES (1, 2, 'x')"));
        assert!(o.features.c_io > 0.0);
        assert_eq!(db.catalog().table("t").unwrap().rows, rows_before + 1);
        assert_eq!(db.usage().usage(id).maintenance_events, 1);
    }

    #[test]
    fn workload_measurement_aggregates() {
        let mut db = db();
        let stmts = vec![
            stmt("SELECT * FROM t WHERE a = 1"),
            stmt("SELECT * FROM t WHERE a = 2"),
        ];
        let m = db.run_workload(&stmts);
        assert_eq!(m.statements, 2);
        assert_eq!(m.latencies_ms.len(), 2);
        assert!(m.total_latency_ms > 0.0);
        assert!(m.avg_latency_ms() > 0.0);
        assert!(m.throughput(10) > 0.0);
    }

    #[test]
    fn execution_is_reproducible_with_same_seed() {
        let run = || {
            let mut d = db();
            d.execute(&stmt("SELECT * FROM t WHERE b = 3")).latency_ms
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memory_pressure_grows_with_indexes() {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("big", 50_000_000)
                .column(Column::int("a", 50_000_000))
                .column(Column::text("pad", 1_000_000, 200))
                .build()
                .unwrap(),
        );
        let cfg = SimDbConfig {
            memory_bytes: 4 * 1024 * 1024 * 1024,
            ..SimDbConfig::default()
        };
        let mut db = SimDb::new(c, cfg);
        let before = db.memory_pressure();
        db.create_index(IndexDef::new("big", &["a"])).unwrap();
        db.create_index(IndexDef::new("big", &["pad"])).unwrap();
        let after = db.memory_pressure();
        assert!(after > before);
        assert!(before >= 1.0);
    }

    #[test]
    fn explain_names_real_and_hypothetical_indexes() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let text = db.explain(&stmt("SELECT * FROM t WHERE a = 5"));
        assert!(text.contains("t(a)"), "{text}");

        let shape = QueryShape::extract(
            &stmt("SELECT * FROM t WHERE b = 3 AND c = 'x'"),
            db.catalog(),
        );
        let text = db.whatif_explain(&shape, &[IndexDef::new("t", &["b", "c"])]);
        assert!(
            text.contains("t(b,c)") || text.contains("Seq Scan"),
            "{text}"
        );
    }

    #[test]
    fn usage_tracking_credits_join_lookup_indexes() {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("dim", 1_000)
                .column(Column::int("dk", 1_000))
                .column(Column::int("attr", 10))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("fact", 2_000_000)
                .column(Column::int("fk", 1_000))
                .column(Column::float("v", 100_000, 0.0, 1e6))
                .build()
                .unwrap(),
        );
        let mut db = SimDb::new(c, SimDbConfig::default());
        let id = db.create_index(IndexDef::new("fact", &["fk"])).unwrap();
        // One dimension row drives a nested-loop lookup into the fact.
        let q = stmt("SELECT SUM(v) FROM dim, fact WHERE dim.dk = 7 AND dim.dk = fact.fk");
        let o = db.execute(&q);
        assert!(
            o.indexes_used.contains(&id),
            "NL lookup index must be tracked"
        );
        assert!(db.usage().usage(id).scans >= 1);
    }

    #[test]
    fn drop_index_slows_queries_back_down() {
        let mut db = db();
        let id = db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let fast = db.execute(&stmt("SELECT * FROM t WHERE a = 5")).latency_ms;
        db.drop_index(id).unwrap();
        let slow = db.execute(&stmt("SELECT * FROM t WHERE a = 5")).latency_ms;
        assert!(slow > fast * 5.0);
    }

    #[test]
    fn whatif_does_not_touch_usage_or_catalog() {
        let mut db = db();
        let shape = QueryShape::extract(&stmt("INSERT INTO t (a) VALUES (1)"), db.catalog());
        let rows_before = db.catalog().table("t").unwrap().rows;
        let _ = db.whatif_features(&shape, &[IndexDef::new("t", &["a"])]);
        assert_eq!(db.catalog().table("t").unwrap().rows, rows_before);
        assert_eq!(db.usage().statements, 0);
        // Execution, by contrast, does both.
        db.execute_shape(&shape);
        assert_eq!(db.catalog().table("t").unwrap().rows, rows_before + 1);
        assert_eq!(db.usage().statements, 1);
    }

    #[test]
    fn index_geometry_grows_with_table() {
        let mut db = db();
        let def = IndexDef::new("t", &["a"]);
        let g1 = db.index_geometry(&def).unwrap();
        db.grow_table("t", 5_000_000).unwrap();
        let g2 = db.index_geometry(&def).unwrap();
        assert!(g2.bytes > g1.bytes);
        assert!(g2.entries > g1.entries);
    }

    #[test]
    fn maintained_heap_size_equals_the_per_table_walk() {
        let mut c = db().catalog().clone();
        c.add_table(
            TableBuilder::new("empty", 0)
                .column(Column::int("k", 1))
                .build()
                .unwrap(),
        );
        let mut db = SimDb::new(c, SimDbConfig::default());
        let walk = |db: &SimDb| db.catalog().tables().map(|t| t.bytes()).sum::<u64>();
        assert_eq!(db.total_heap_bytes(), walk(&db));
        for (table, rows) in [
            ("t", 1),
            ("empty", 7),
            ("t", 250_000),
            ("empty", 0),
            ("t", 3),
        ] {
            db.grow_table(table, rows).unwrap();
            assert_eq!(db.total_heap_bytes(), walk(&db), "after {table} += {rows}");
        }
        assert!(db.grow_table("ghost", 1).is_err());
        db.execute(&stmt("INSERT INTO t (a, b, c) VALUES (1, 2, 'x')"));
        assert_eq!(db.total_heap_bytes(), walk(&db));
    }

    #[test]
    fn zero_noise_removes_randomness() {
        let cfg = SimDbConfig {
            noise: 0.0,
            ..SimDbConfig::default()
        };
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 1000)
                .column(Column::int("a", 1000))
                .build()
                .unwrap(),
        );
        let mut db = SimDb::new(c, cfg);
        let a = db.execute(&stmt("SELECT * FROM t WHERE a = 1")).latency_ms;
        let b = db.execute(&stmt("SELECT * FROM t WHERE a = 1")).latency_ms;
        assert_eq!(a, b);
    }

    // ------------------------------------------------------ snapshot path

    #[test]
    fn snapshot_execution_matches_live_execution_without_noise() {
        let cfg = SimDbConfig {
            noise: 0.0,
            ..SimDbConfig::default()
        };
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 500_000)
                .column(Column::int("a", 500_000))
                .column(Column::int("b", 50))
                .build()
                .unwrap(),
        );
        let mut db = SimDb::with_metrics(c, cfg, MetricsRegistry::new());
        let id = db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE a = 5"), db.catalog());

        let snap = db.snapshot(0);
        let (o, delta) = snap.execute_shape_at(&shape, 17);
        let live = db.execute_shape(&shape);
        assert_eq!(o.latency_ms, live.latency_ms);
        assert_eq!(*o.indexes_used, [id]);
        assert_eq!(delta.scans.len(), 1);
        assert_eq!(delta.scans[0], id);
    }

    #[test]
    fn snapshot_execution_is_pure_and_seq_deterministic() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE a = 5"), db.catalog());
        let snap = db.snapshot(3);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.index_count(), 1);

        // Same seq → identical outcome; different seq → different noise.
        let (a1, _) = snap.execute_shape_at(&shape, 7);
        let (a2, _) = snap.execute_shape_at(&shape, 7);
        let (b, _) = snap.execute_shape_at(&shape, 8);
        assert_eq!(a1.latency_ms, a2.latency_ms);
        assert_ne!(a1.latency_ms, b.latency_ms);

        // Purity: the live database saw nothing.
        assert_eq!(db.usage().statements, 0);
    }

    #[test]
    fn absorbing_deltas_replays_sequential_side_effects() {
        let build = || {
            let mut c = Catalog::new();
            c.add_table(
                TableBuilder::new("t", 500_000)
                    .column(Column::int("a", 500_000))
                    .column(Column::int("b", 50))
                    .column(Column::text("c", 10_000, 24))
                    .primary_key(&["a"])
                    .build()
                    .unwrap(),
            );
            let mut db = SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new());
            db.create_index(IndexDef::new("t", &["b"])).unwrap();
            db
        };
        let shapes: Vec<QueryShape> = [
            "SELECT * FROM t WHERE b = 3",
            "INSERT INTO t (a, b, c) VALUES (1, 2, 'x')",
            "SELECT * FROM t WHERE b = 9",
        ]
        .iter()
        .map(|s| QueryShape::extract(&stmt(s), build().catalog()))
        .collect();

        // Sequential reference.
        let mut seq_db = build();
        for s in &shapes {
            seq_db.execute_shape(s);
        }

        // Snapshot + absorb path.
        let mut par_db = build();
        let snap = par_db.snapshot(0);
        let deltas: Vec<UsageDelta> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| snap.execute_shape_at(s, i as u64).1)
            .collect();
        for d in &deltas {
            par_db.absorb(d);
        }

        assert_eq!(par_db.usage().statements, seq_db.usage().statements);
        assert_eq!(
            par_db.catalog().table("t").unwrap().rows,
            seq_db.catalog().table("t").unwrap().rows
        );
        let id = par_db.find_index(&IndexDef::new("t", &["b"])).unwrap();
        assert_eq!(par_db.usage().usage(id), seq_db.usage().usage(id));
        assert_eq!(par_db.metrics().counter_value("db.executions"), 3);
    }

    #[test]
    fn lognormal_at_is_stable_and_neutral_at_zero_sigma() {
        assert_eq!(lognormal_at(42, 7, 0.0), 1.0);
        assert_eq!(lognormal_at(42, 7, 0.1), lognormal_at(42, 7, 0.1));
        assert_ne!(lognormal_at(42, 7, 0.1), lognormal_at(42, 8, 0.1));
        assert_ne!(lognormal_at(42, 7, 0.1), lognormal_at(43, 7, 0.1));
    }

    // ------------------------------------------------------ fault injection

    use crate::fault::{FaultPlan, FaultPlanConfig};
    use autoindex_support::obs::MetricsRegistry;

    fn db_with_plan(cfg: FaultPlanConfig) -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 500_000)
                .column(Column::int("a", 500_000))
                .column(Column::int("b", 50))
                .column(Column::text("c", 10_000, 24))
                .primary_key(&["a"])
                .build()
                .unwrap(),
        );
        let mut db = SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new());
        db.set_fault_plan(Some(FaultPlan::new(cfg)));
        db
    }

    #[test]
    fn quiet_fault_plan_is_byte_identical_to_none() {
        let q = stmt("SELECT * FROM t WHERE b = 3");
        let mut clean = db();
        let mut quiet = db_with_plan(FaultPlanConfig::default());
        for _ in 0..20 {
            assert_eq!(
                clean.execute(&q).latency_ms,
                quiet.execute(&q).latency_ms,
                "quiet plan must not perturb the measurement stream"
            );
        }
        let shape = QueryShape::extract(&q, clean.catalog());
        let a = clean.whatif_features(&shape, &[IndexDef::new("t", &["b"])]);
        let b = quiet.whatif_features(&shape, &[IndexDef::new("t", &["b"])]);
        assert_eq!(a, b);
    }

    #[test]
    fn failed_builds_surface_and_rerolls_can_succeed() {
        let mut db = db_with_plan(FaultPlanConfig {
            seed: 7,
            build_failure: 0.5,
            ..FaultPlanConfig::default()
        });
        let def = IndexDef::new("t", &["b"]);
        let mut failures = 0;
        loop {
            match db.create_index(def.clone()) {
                Ok(_) => break,
                Err(StorageError::FaultInjected(FaultKind::FailedBuild)) => failures += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(failures < 100, "50% failure rate cannot fail forever");
        }
        assert_eq!(db.index_count(), 1);
        assert_eq!(
            db.metrics().counter_value("db.fault.build_failures"),
            failures
        );
    }

    #[test]
    fn certain_build_failure_never_creates_and_restore_bypasses_it() {
        let mut db = db_with_plan(FaultPlanConfig {
            build_failure: 1.0,
            ..FaultPlanConfig::default()
        });
        for _ in 0..10 {
            assert!(matches!(
                db.create_index(IndexDef::new("t", &["b"])),
                Err(StorageError::FaultInjected(FaultKind::FailedBuild))
            ));
        }
        assert_eq!(db.index_count(), 0);
        // The privileged restore path never faults — rollback must succeed.
        let id = db.restore_index(IndexDef::new("t", &["b"])).unwrap();
        assert_eq!(db.index_count(), 1);
        // Idempotent: restoring again returns the live id.
        assert_eq!(db.restore_index(IndexDef::new("t", &["b"])).unwrap(), id);
        assert_eq!(db.metrics().counter_value("db.index_restores"), 1);
    }

    #[test]
    fn transient_faults_surface_on_try_and_are_absorbed_by_execute() {
        let mut db = db_with_plan(FaultPlanConfig {
            transient_error: 1.0,
            ..FaultPlanConfig::default()
        });
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE a = 1"), db.catalog());
        assert!(matches!(
            db.try_execute_shape(&shape),
            Err(StorageError::FaultInjected(FaultKind::TransientError))
        ));
        // The infallible wrapper still returns an outcome, paying retries.
        let o = db.execute_shape(&shape);
        assert!(o.latency_ms > 0.0);
        assert_eq!(
            db.metrics().counter_value("db.fault.absorbed_retries"),
            SimDb::EXEC_RETRY_BUDGET as u64
        );
        // A transient failure has no side effects.
        let w = QueryShape::extract(&stmt("INSERT INTO t (a) VALUES (1)"), db.catalog());
        let rows = db.catalog().table("t").unwrap().rows;
        assert!(db.try_execute_shape(&w).is_err());
        assert_eq!(db.catalog().table("t").unwrap().rows, rows);
    }

    #[test]
    fn latency_spikes_multiply_measured_latency() {
        let q = stmt("SELECT * FROM t WHERE b = 3");
        let mut clean = db();
        let mut spiky = db_with_plan(FaultPlanConfig {
            latency_spike: 1.0,
            ..FaultPlanConfig::default()
        });
        // Fault rolls use a separate RNG stream, so the underlying noisy
        // latency matches exactly and the spike is a clean 12x.
        let base = clean.execute(&q).latency_ms;
        let spiked = spiky.execute(&q).latency_ms;
        assert!(
            (spiked / base - 12.0).abs() < 1e-9,
            "base={base} spiked={spiked}"
        );
        assert_eq!(spiky.metrics().counter_value("db.fault.latency_spikes"), 1);
    }

    #[test]
    fn stale_statistics_distort_whatif_costs() {
        let db = db_with_plan(FaultPlanConfig {
            stale_stats: 1.0,
            ..FaultPlanConfig::default()
        });
        let clean = {
            let mut c = Catalog::new();
            c.add_table(
                TableBuilder::new("t", 500_000)
                    .column(Column::int("a", 500_000))
                    .column(Column::int("b", 50))
                    .column(Column::text("c", 10_000, 24))
                    .primary_key(&["a"])
                    .build()
                    .unwrap(),
            );
            SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
        };
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE b = 3"), db.catalog());
        let truth = clean.whatif_native_cost(&shape, &[]);
        let mut distorted = 0;
        for _ in 0..32 {
            if (db.whatif_native_cost(&shape, &[]) - truth).abs() > truth * 1e-6 {
                distorted += 1;
            }
        }
        assert!(
            distorted >= 30,
            "all-stale plan must distort probes: {distorted}/32"
        );
        assert!(db.metrics().counter_value("db.fault.stale_whatifs") >= 30);
    }

    #[test]
    fn healthy_builds_charge_build_time_and_slow_builds_charge_more() {
        let mut db = db_with_plan(FaultPlanConfig::default());
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        let healthy = {
            let s = db.metrics().snapshot();
            let g = s.get("gauges").and_then(|g| g.get("db.index_build_ms"));
            g.and_then(|v| v.as_f64()).unwrap_or(0.0)
        };
        assert!(healthy > 0.0, "healthy builds still take time");

        let mut slow = db_with_plan(FaultPlanConfig {
            slow_build: 1.0,
            ..FaultPlanConfig::default()
        });
        slow.create_index(IndexDef::new("t", &["b"])).unwrap();
        let charged = {
            let s = slow.metrics().snapshot();
            let g = s.get("gauges").and_then(|g| g.get("db.index_build_ms"));
            g.and_then(|v| v.as_f64()).unwrap_or(0.0)
        };
        assert!(
            (charged / healthy - 8.0).abs() < 1e-6,
            "healthy={healthy} charged={charged}"
        );
        assert_eq!(slow.metrics().counter_value("db.fault.slow_builds"), 1);
    }

    // Regression (PR7 satellite): the transient-retry budget is
    // per-statement — each `execute_shape` call gets a fresh
    // `EXEC_RETRY_BUDGET`, nothing leaks across statements — and every
    // absorbed retry is visible in `db.fault.*`.
    #[test]
    fn retry_budget_is_per_statement_and_every_retry_is_counted() {
        let mut db = db_with_plan(FaultPlanConfig {
            transient_error: 1.0,
            ..FaultPlanConfig::default()
        });
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE a = 1"), db.catalog());
        for executed in 1..=3u64 {
            db.execute_shape(&shape);
            assert_eq!(
                db.metrics().counter_value("db.fault.absorbed_retries"),
                executed * SimDb::EXEC_RETRY_BUDGET as u64,
                "statement {executed} must spend exactly one full budget"
            );
        }
        // Every absorbed retry was also counted as a transient fault.
        assert_eq!(
            db.metrics().counter_value("db.fault.transient_errors"),
            3 * SimDb::EXEC_RETRY_BUDGET as u64
        );
    }

    #[test]
    fn absorbed_retries_match_transient_faults_at_partial_rates() {
        let mut db = db_with_plan(FaultPlanConfig {
            seed: 1234,
            transient_error: 0.3,
            ..FaultPlanConfig::default()
        });
        let shape = QueryShape::extract(&stmt("SELECT * FROM t WHERE b = 2"), db.catalog());
        for _ in 0..200 {
            db.execute_shape(&shape);
        }
        let absorbed = db.metrics().counter_value("db.fault.absorbed_retries");
        let transients = db.metrics().counter_value("db.fault.transient_errors");
        assert!(absorbed > 0, "30% rate over 200 statements must fire");
        // On the infallible path every transient fault is an absorbed
        // retry — none is silently swallowed, none double-counted.
        assert_eq!(absorbed, transients);
        assert!(
            absorbed < 200 * SimDb::EXEC_RETRY_BUDGET as u64 / 2,
            "budget is an upper bound, not the norm: {absorbed}"
        );
    }
}
