//! The traced replay: each workload's stream pushed, on one thread, through
//! the same public functions the drivers call, in the drivers' order, with
//! a span around every call.
//!
//! The drivers themselves carry no timers and this PR adds none, so the
//! layer budget is measured here, from outside. The replay is not an
//! approximation of what a driver decides: it reproduces every epoch
//! boundary, tuning round and guard verdict, and the run is rejected unless
//! its executed count and summed simulated latency equal the driver's. What
//! it does not reproduce is the drivers' own glue — queues, channel, gates,
//! the per-slice percentile sort, thread wake-ups — which is exactly what
//! `driver.residual_share` reports.

use crate::alloc;
use crate::drive::{self, Tenant};
use crate::workloads::{Driver, Workload};
use autoindex_core::{
    logical_merge, serve::tuning_cooldown_over, FastPathCache, Guard, Observation,
    ObservationPayload, StrategyKind, TuningReport,
};
use autoindex_estimator::CostEstimator;
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::parse_statement;
use autoindex_storage::planner::{CostParams, VisibleIndex};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{DbSnapshot, IndexDef, IndexId, Planner};
use autoindex_support::hash::U64HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- spans

/// One traced layer. Names are the product's module / function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Parent of one statement's execute-side calls.
    Stmt,
    SqlScanFingerprint,
    FastpathLookup,
    FastpathBind,
    SqlParse,
    ShapeExtract,
    DbExecute,
    /// Parent of one epoch's coordinator-side work.
    Boundary,
    LogicalMerge,
    DbAbsorb,
    TemplatesObserve,
    GuardPoll,
    DbSnapshot,
    FastpathBuild,
    Diagnosis,
    SessionRecommend,
    GuardApply,
    /// Checks and side measurements; excluded from every sum.
    Aux,
}

pub const LAYERS: usize = Layer::Aux as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stmt => "stmt",
            Layer::SqlScanFingerprint => "sql.scan_fingerprint",
            Layer::FastpathLookup => "fastpath.lookup",
            Layer::FastpathBind => "fastpath.bind",
            Layer::SqlParse => "sql.parse",
            Layer::ShapeExtract => "shape.extract",
            Layer::DbExecute => "db.execute_shape_at",
            Layer::Boundary => "boundary",
            Layer::LogicalMerge => "serve.logical_merge",
            Layer::DbAbsorb => "db.absorb",
            Layer::TemplatesObserve => "templates.observe",
            Layer::GuardPoll => "guard.poll",
            Layer::DbSnapshot => "db.snapshot",
            Layer::FastpathBuild => "fastpath.build",
            Layer::Diagnosis => "diagnosis",
            Layer::SessionRecommend => "session.recommend",
            Layer::GuardApply => "guard.apply",
            Layer::Aux => "aux",
        }
    }
}

/// Per-layer totals over one or more replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    /// Span time minus the part its child spans cover.
    pub self_ns: u64,
    /// Whole span time.
    pub total_ns: u64,
    /// Allocator calls inside the span but outside its children.
    pub self_allocs: u64,
}

/// A raw span, as written to `trace_<workload>.jsonl`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: Layer,
    /// Statement sequence number, `u64::MAX` for boundary work.
    pub stmt: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    id: u32,
    start: Instant,
    allocs_at_start: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// What a replay pass records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the baseline the timer overhead is measured against.
    Off,
    /// Span times.
    Time,
    /// Allocator calls per span (run inside an [`alloc::counted`] window;
    /// the counters cost several atomics per allocation, so this pass
    /// reports no times).
    Allocs,
}

pub struct Tracer {
    mode: Mode,
    origin: Instant,
    pub totals: [LayerTotals; LAYERS],
    stack: Vec<Open>,
    /// Raw spans of every 64th statement and of every boundary.
    pub sample: Vec<Span>,
    next_id: u32,
    stmt: u64,
    keep: bool,
}

/// Keep raw spans of one statement in this many.
const SPAN_SAMPLE: u64 = 64;
const NO_STMT: u64 = u64::MAX;

impl Tracer {
    pub fn new(mode: Mode) -> Tracer {
        Tracer {
            mode,
            origin: Instant::now(),
            totals: [LayerTotals::default(); LAYERS],
            stack: Vec::with_capacity(8),
            sample: Vec::new(),
            next_id: 1,
            stmt: NO_STMT,
            keep: false,
        }
    }

    /// Name the statement the following spans belong to.
    fn at_stmt(&mut self, global_seq: u64) {
        self.stmt = global_seq;
        self.keep = self.mode == Mode::Time && global_seq.is_multiple_of(SPAN_SAMPLE);
    }

    fn at_boundary(&mut self) {
        self.stmt = NO_STMT;
        self.keep = self.mode == Mode::Time;
    }

    fn begin(&mut self, layer: Layer) {
        if self.mode == Mode::Off {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            layer,
            id,
            allocs_at_start: alloc::calls(),
            child_ns: 0,
            child_allocs: 0,
            start: Instant::now(),
        });
    }

    fn end(&mut self) {
        if self.mode == Mode::Off {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("end without begin");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let allocs = alloc::calls() - open.allocs_at_start;
        let t = &mut self.totals[open.layer as usize];
        t.calls += 1;
        t.total_ns += ns;
        t.self_ns += ns.saturating_sub(open.child_ns);
        t.self_allocs += allocs.saturating_sub(open.child_allocs);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += ns;
                p.child_allocs += allocs;
                p.id
            }
            None => 0,
        };
        if self.keep && open.layer != Layer::Aux {
            self.sample.push(Span {
                id: open.id,
                parent,
                layer: open.layer,
                stmt: self.stmt,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// A leaf span around `f`.
    #[inline]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let r = f();
        self.end();
        r
    }
}

// --------------------------------------------------------------- replay

/// Counts and side measurements a replay collects next to the spans.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    pub statements: u64,
    pub executed: u64,
    pub failed: u64,
    /// Summed simulated latency, accumulated in the driver's order so that
    /// it compares bit for bit with the driver's report.
    pub sim_ms: f64,
    pub fastpath_hits: u64,
    pub fastpath_fallbacks: u64,
    pub publications: u64,
    pub compiled: u64,
    pub ineligible: u64,
    pub indexes_visible: u64,
    pub diagnoses: u64,
    pub diagnoses_fired: u64,
    pub rounds: u64,
    pub candidates: u64,
    pub candgen: Duration,
    pub search: Duration,
    pub search_evaluations: u64,
    pub eval_cache_hits: u64,
    /// Standalone `Planner::plan` on a sample of executed shapes.
    pub plan_ns: u64,
    pub plan_samples: u64,
    /// Bound shapes compared with parse + extract of the same text.
    pub bind_checks: u64,
    pub bind_mismatches: u64,
    /// Statements that reached `execute_shape_at` (the sampling clock of
    /// [`side_checks`]; `executed` itself is counted at absorb).
    exec_clock: u64,
    pub templates: u64,
    // Registry counters summed over tenants when the replay ends.
    pub whatif_calls: u64,
    pub cost_cache_hits: u64,
    pub cost_cache_misses: u64,
    pub guard_applies: u64,
    pub guard_shadow_rejects: u64,
    pub guard_rollbacks: u64,
}

impl ReplayStats {
    fn round(&mut self, report: &TuningReport) {
        self.rounds += 1;
        self.candidates += report.candidates_generated as u64;
        self.candgen += report.candgen_time;
        self.search += report.search_time;
        self.search_evaluations += report.search_evaluations as u64;
        self.eval_cache_hits += report.eval_cache_hits as u64;
    }
}

/// Compare one bound shape in this many with parse + extract.
const BIND_CHECK_EVERY: u64 = 256;
/// Time a standalone `Planner::plan` on one executed shape in this many.
const PLAN_SAMPLE_EVERY: u64 = 64;

/// What the executors read during one epoch: the published snapshot and
/// compiled-template cache, plus the replay's stand-in for a worker's
/// scratch.
struct Publication {
    snap: DbSnapshot,
    cache: FastPathCache,
    /// The snapshot's index set and the planner's parameters, resolved for
    /// the standalone plan sample.
    visible: Vec<VisibleIndex>,
    cost_params: CostParams,
    shapes: U64HashMap<QueryShape>,
}

fn publish(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    t: &Tenant,
    epoch: u64,
    fastpath: bool,
) -> Publication {
    let snap = tr.span(Layer::DbSnapshot, || t.db.snapshot(epoch));
    let cache = if fastpath {
        tr.span(Layer::FastpathBuild, || {
            FastPathCache::build(t.advisor.templates().entries(), snap.catalog())
        })
    } else {
        FastPathCache::empty()
    };
    tr.begin(Layer::Aux);
    let defs: Vec<(IndexId, IndexDef)> = t.db.indexes().map(|(id, d)| (id, d.clone())).collect();
    let cost_params = t.db.config().cost_params.clone();
    let visible = Planner::new(snap.catalog(), &cost_params).resolve_indexes(&defs);
    tr.end();
    stats.publications += 1;
    stats.compiled += cache.len() as u64;
    stats.ineligible += cache.ineligible() as u64;
    stats.indexes_visible += snap.index_count() as u64;
    Publication {
        snap,
        cache,
        visible,
        cost_params,
        shapes: U64HashMap::default(),
    }
}

/// Per-replay executor scratch (what `WorkerScratch` holds in the drivers).
#[derive(Default)]
struct Scratch {
    lits: LiteralBuf,
    sels: Vec<f64>,
    stack: Vec<f64>,
}

/// `serve::execute_statement`, call for call, with a span around each.
fn execute_statement(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    p: &mut Publication,
    scratch: &mut Scratch,
    sql: &str,
    seq: u64,
) -> ObservationPayload {
    tr.begin(Layer::Stmt);
    let payload = 'done: {
        let hash = tr.span(Layer::SqlScanFingerprint, || {
            scan_fingerprint(sql, &mut scratch.lits)
        });
        if let Some(hash) = hash {
            let compiled = tr.span(Layer::FastpathLookup, || p.cache.get(hash));
            if let Some(compiled) = compiled {
                let bound = tr.span(Layer::FastpathBind, || {
                    let shape = p
                        .shapes
                        .entry(hash)
                        .or_insert_with(|| compiled.skeleton().clone());
                    compiled.bind_into(
                        &scratch.lits,
                        p.cache.stats(),
                        shape,
                        &mut scratch.sels,
                        &mut scratch.stack,
                    )
                });
                if bound {
                    let shape = &p.shapes[&hash];
                    let (outcome, delta) =
                        tr.span(Layer::DbExecute, || p.snap.execute_shape_at(shape, seq));
                    stats.fastpath_hits += 1;
                    side_checks(tr, stats, p, shape, Some((sql, &outcome)), seq);
                    break 'done ObservationPayload::Executed {
                        outcome,
                        delta,
                        fp: Some(hash),
                    };
                }
                stats.fastpath_fallbacks += 1;
            }
        }
        let stmt = match tr.span(Layer::SqlParse, || parse_statement(sql)) {
            Ok(s) => s,
            Err(_) => break 'done ObservationPayload::ParseFailed,
        };
        let shape = tr.span(Layer::ShapeExtract, || {
            QueryShape::extract(&stmt, p.snap.catalog())
        });
        let (outcome, delta) = tr.span(Layer::DbExecute, || p.snap.execute_shape_at(&shape, seq));
        side_checks(tr, stats, p, &shape, None, seq);
        ObservationPayload::Executed {
            outcome,
            delta,
            fp: None,
        }
    };
    tr.end();
    payload
}

/// Untimed work hung off a sample of executed statements: the standalone
/// `Planner::plan` measurement and the bound-shape bit-identity check.
fn side_checks(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    p: &Publication,
    shape: &QueryShape,
    bound_from: Option<(&str, &autoindex_storage::ExecOutcome)>,
    seq: u64,
) {
    stats.exec_clock += 1;
    let plan = tr.mode == Mode::Time && stats.exec_clock.is_multiple_of(PLAN_SAMPLE_EVERY);
    let check = bound_from.is_some() && stats.fastpath_hits.is_multiple_of(BIND_CHECK_EVERY);
    if !plan && !check {
        return;
    }
    tr.begin(Layer::Aux);
    if plan {
        let planner = Planner::new(p.snap.catalog(), &p.cost_params);
        let t0 = Instant::now();
        black_box(planner.plan(black_box(shape), &p.visible));
        stats.plan_ns += t0.elapsed().as_nanos() as u64;
        stats.plan_samples += 1;
    }
    if let (true, Some((sql, outcome))) = (check, bound_from) {
        stats.bind_checks += 1;
        let same = parse_statement(sql).is_ok_and(|stmt| {
            let expected = QueryShape::extract(&stmt, p.snap.catalog());
            let sel_bits = |s: &QueryShape| -> Vec<u64> {
                s.tables.iter().map(|t| t.filter_sel.to_bits()).collect()
            };
            *shape == expected
                && sel_bits(shape) == sel_bits(&expected)
                && p.snap
                    .execute_shape_at(&expected, seq)
                    .0
                    .latency_ms
                    .to_bits()
                    == outcome.latency_ms.to_bits()
        });
        if !same {
            stats.bind_mismatches += 1;
        }
    }
    tr.end();
}

/// The coordinator side of one tenant's slice: absorb and observe in
/// sequence order. Returns the slice's summed simulated latency and its
/// executed count.
fn absorb_slice<'a>(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    t: &mut Tenant,
    id_base: u64,
    slice: impl Iterator<Item = (u64, &'a ObservationPayload)>,
) -> (f64, u64) {
    let mut sim = 0.0;
    let mut executed = 0;
    for (seq, payload) in slice {
        // The statement's coordinator-side spans share its identifier.
        tr.at_stmt(id_base + seq);
        match payload {
            ObservationPayload::Executed { outcome, delta, fp } => {
                tr.span(Layer::DbAbsorb, || t.db.absorb(delta));
                let sql = &t.queries[seq as usize];
                let seen = tr.span(Layer::TemplatesObserve, || match fp {
                    Some(h) => t.advisor.observe_prehashed(*h, sql, &t.db),
                    None => t.advisor.observe(sql, &t.db),
                });
                if seen.is_err() {
                    stats.failed += 1;
                }
                sim += outcome.latency_ms;
                executed += 1;
            }
            ObservationPayload::ParseFailed | ObservationPayload::Panicked => stats.failed += 1,
        }
    }
    tr.at_boundary();
    stats.executed += executed;
    (sim, executed)
}

/// One tuning round after a fired diagnosis, split at the only seam the
/// public API has: recommend, then apply that exact recommendation
/// (together identical to `session().run()`).
fn tune(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    t: &mut Tenant,
    guard: Option<autoindex_core::GuardConfig>,
    reset_usage: bool,
) {
    let rec = tr.span(Layer::SessionRecommend, || {
        t.advisor.session(&mut t.db).recommend_only().run()
    });
    if let Ok(rec) = rec {
        stats.round(&rec.report);
        let rec = rec.report.recommendation;
        let _ = tr.span(Layer::GuardApply, || {
            let session = t.advisor.session(&mut t.db).with_recommendation(rec);
            match guard {
                Some(g) => session.guarded(g).run(),
                None => session.run(),
            }
        });
    }
    if reset_usage {
        t.db.reset_usage();
    }
}

fn diagnose(tr: &mut Tracer, stats: &mut ReplayStats, t: &Tenant) -> bool {
    let fired = tr
        .span(Layer::Diagnosis, || t.advisor.diagnose(&t.db))
        .should_tune;
    stats.diagnoses += 1;
    stats.diagnoses_fired += fired as u64;
    fired
}

/// Replay `serve`: epochs over one stream, the tuner's boundary after each.
fn replay_serve(workload: Workload, tr: &mut Tracer, stats: &mut ReplayStats, t: &mut Tenant) {
    let cfg = drive::serve_config(workload);
    let queries = t.queries.clone();
    let n = queries.len() as u64;
    let mut scratch = Scratch::default();
    let mut last_tuned = None;
    tr.at_boundary();
    let mut publication = publish(tr, stats, t, 0, cfg.fastpath);
    for epoch in 0..n.div_ceil(cfg.epoch_interval) {
        let start = epoch * cfg.epoch_interval;
        let end = (start + cfg.epoch_interval).min(n);
        let mut batch: Vec<Observation> = Vec::with_capacity((end - start) as usize);
        for seq in start..end {
            tr.at_stmt(seq);
            let payload = execute_statement(
                tr,
                stats,
                &mut publication,
                &mut scratch,
                &queries[seq as usize],
                seq,
            );
            batch.push(Observation {
                seq,
                epoch,
                payload,
            });
        }

        tr.at_boundary();
        tr.begin(Layer::Boundary);
        tr.span(Layer::LogicalMerge, || logical_merge(&mut batch));
        let (sim, _) = absorb_slice(tr, stats, t, 0, batch.iter().map(|o| (o.seq, &o.payload)));
        stats.sim_ms += sim;
        if diagnose(tr, stats, t)
            && tuning_cooldown_over(last_tuned, epoch, cfg.tuning_cooldown_epochs)
        {
            last_tuned = Some(epoch);
            tune(
                tr,
                stats,
                t,
                cfg.guard.clone(),
                cfg.reset_usage_after_tuning,
            );
        }
        publication = publish(tr, stats, t, epoch + 1, cfg.fastpath);
        tr.end();
    }
    stats.statements += n;
}

/// Replay `serve_fleet` with unbounded admission: every unfinished tenant
/// gets a slice per epoch, the regret-directed tuner slot visits at most
/// one tenant, every touched tenant is republished.
fn replay_fleet(tr: &mut Tracer, stats: &mut ReplayStats, tenants: &mut [Tenant]) {
    struct Progress {
        cursor: u64,
        sim_ms: f64,
        last_mean: Option<f64>,
        best_mean: f64,
        last_tuned: Option<u64>,
    }
    let cfg = drive::fleet_config();
    let mut scratch = Scratch::default();
    let mut progress: Vec<Progress> = Vec::new();
    let mut publications: Vec<Publication> = Vec::new();
    // Global statement ids for the span sample: tenant-major.
    let mut id_base = Vec::new();
    let mut total = 0u64;
    tr.at_boundary();
    for t in tenants.iter() {
        publications.push(publish(tr, stats, t, 0, cfg.fastpath));
        progress.push(Progress {
            cursor: 0,
            sim_ms: 0.0,
            last_mean: None,
            best_mean: f64::INFINITY,
            last_tuned: None,
        });
        id_base.push(total);
        total += t.queries.len() as u64;
    }

    for epoch in 0.. {
        let mut got: Vec<(u32, u64, ObservationPayload)> = Vec::new();
        let mut admitted = vec![false; tenants.len()];
        for (ti, t) in tenants.iter().enumerate() {
            let len = t.queries.len() as u64;
            let start = progress[ti].cursor;
            if start >= len {
                continue;
            }
            let end = (start + cfg.epoch_interval).min(len);
            progress[ti].cursor = end;
            admitted[ti] = true;
            // A worker re-pins its scratch when it switches tenant.
            publications[ti].shapes.clear();
            for seq in start..end {
                tr.at_stmt(id_base[ti] + seq);
                let payload = execute_statement(
                    tr,
                    stats,
                    &mut publications[ti],
                    &mut scratch,
                    &t.queries[seq as usize],
                    seq,
                );
                got.push((ti as u32, seq, payload));
            }
        }
        if got.is_empty() {
            break;
        }

        tr.at_boundary();
        tr.begin(Layer::Boundary);
        tr.span(Layer::LogicalMerge, || {
            got.sort_unstable_by_key(|o| (o.0, o.1))
        });
        for slice in got.chunk_by(|a, b| a.0 == b.0) {
            let ti = slice[0].0 as usize;
            let (sim, executed) = absorb_slice(
                tr,
                stats,
                &mut tenants[ti],
                id_base[ti],
                slice.iter().map(|o| (o.1, &o.2)),
            );
            let p = &mut progress[ti];
            p.sim_ms += sim;
            if executed > 0 {
                let mean = sim / executed as f64;
                p.last_mean = Some(mean);
                p.best_mean = p.best_mean.min(mean);
            }
        }

        let mut pick: Option<(usize, f64)> = None;
        for (ti, p) in progress.iter().enumerate() {
            let Some(last) = p.last_mean else { continue };
            if !p.best_mean.is_finite() || p.best_mean <= 0.0 {
                continue;
            }
            let regret = (last - p.best_mean) / p.best_mean;
            if regret > cfg.regret_threshold
                && tuning_cooldown_over(p.last_tuned, epoch, cfg.tuning_cooldown_epochs)
                && pick.is_none_or(|(_, r)| regret > r)
            {
                pick = Some((ti, regret));
            }
        }
        if let Some((ti, _)) = pick {
            progress[ti].last_tuned = Some(epoch);
            if diagnose(tr, stats, &tenants[ti]) {
                tune(
                    tr,
                    stats,
                    &mut tenants[ti],
                    cfg.guard.clone(),
                    cfg.reset_usage_after_tuning,
                );
            }
        }
        for (ti, t) in tenants.iter().enumerate() {
            if admitted[ti] || pick.is_some_and(|(v, _)| v == ti) {
                publications[ti] = publish(tr, stats, t, epoch + 1, cfg.fastpath);
            }
        }
        tr.end();
    }
    stats.statements += total;
    stats.sim_ms += progress.iter().map(|p| p.sim_ms).sum::<f64>();
}

/// Replay `OnlineAutoIndex::feed`: inline parse, execute and observe on the
/// live database, then the guard lifecycle and the diagnosis cadence.
fn replay_online(tr: &mut Tracer, stats: &mut ReplayStats, t: &mut Tenant) {
    let cfg = drive::online_config();
    let mut guard = Guard::new(
        cfg.guard.clone().expect("online_drift runs guarded"),
        t.db.metrics(),
    );
    let queries = t.queries.clone();
    let mut executed = 0u64;
    let mut last_tuning_at: Option<u64> = None;
    for (i, sql) in queries.iter().enumerate() {
        tr.at_stmt(i as u64);
        tr.begin(Layer::Stmt);
        let Ok(stmt) = tr.span(Layer::SqlParse, || parse_statement(sql)) else {
            stats.failed += 1;
            tr.end();
            continue;
        };
        let shape = tr.span(Layer::ShapeExtract, || {
            QueryShape::extract(&stmt, t.db.catalog())
        });
        let outcome = tr.span(Layer::DbExecute, || t.db.execute_shape(&shape));
        let seen = tr.span(Layer::TemplatesObserve, || t.advisor.observe(sql, &t.db));
        match seen {
            Ok(()) => {
                stats.executed += 1;
                stats.sim_ms += outcome.latency_ms;
            }
            Err(_) => stats.failed += 1,
        }
        executed += 1;
        let polled = tr.span(Layer::GuardPoll, || {
            guard.record_latency(outcome.latency_ms);
            guard.poll(executed, &mut t.db)
        });
        tr.end();
        if polled.is_some()
            || !executed.is_multiple_of(cfg.diagnosis_interval)
            || last_tuning_at.is_some_and(|at| executed - at < cfg.tuning_cooldown)
            || !guard.can_tune()
        {
            continue;
        }

        tr.at_boundary();
        tr.begin(Layer::Boundary);
        if diagnose(tr, stats, t) {
            last_tuning_at = Some(executed);
            let rec = tr.span(Layer::SessionRecommend, || {
                t.advisor.session(&mut t.db).recommend_only().run()
            });
            if let Ok(rec) = rec {
                stats.round(&rec.report);
                let rec = rec.report.recommendation;
                tr.span(Layer::GuardApply, || guard.apply(&mut t.db, &rec, executed));
            }
            if cfg.reset_usage_after_tuning {
                t.db.reset_usage();
            }
        }
        tr.end();
    }
    stats.statements += queries.len() as u64;
}

/// Push freshly built state through the replay of the workload's driver.
/// The evolved state is left in `tenants` for [`strategy_rounds`].
pub fn replay(workload: Workload, tenants: &mut [Tenant], tr: &mut Tracer) -> ReplayStats {
    let mut stats = ReplayStats::default();
    match workload.driver() {
        Driver::Fleet => replay_fleet(tr, &mut stats, tenants),
        Driver::Serve => replay_serve(workload, tr, &mut stats, &mut tenants[0]),
        Driver::Online => replay_online(tr, &mut stats, &mut tenants[0]),
    }
    assert!(tr.stack.is_empty(), "unbalanced spans");
    for t in tenants.iter() {
        let m = t.db.metrics();
        stats.templates += t.advisor.template_count() as u64;
        stats.whatif_calls += m.counter_value("db.whatif_calls");
        stats.cost_cache_hits += m.counter_value("estimator.cost_cache.hits");
        stats.cost_cache_misses += m.counter_value("estimator.cost_cache.misses");
        stats.guard_applies += m.counter_value("guard.applies");
        stats.guard_shadow_rejects += m.counter_value("guard.shadow_rejects");
        stats.guard_rollbacks += m.counter_value("guard.rollbacks");
    }
    stats
}

// ------------------------------------------------- tuner side measurements

/// Search time of a recommend-only round per strategy on the same template
/// set — the [`PROBE_TEMPLATES`] most frequent templates of the busiest
/// tenant's evolved state (greedy and the bandit take seconds per round on
/// all 300 of `wide_serve`) — plus the mean cost of one
/// `CostEstimator::shape_cost` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunerProbe {
    pub greedy: Duration,
    pub bandit: Duration,
    pub mcts: Duration,
    pub shape_cost_ns: f64,
}

/// Rounds per strategy; the mean is reported.
const STRATEGY_ROUNDS: u32 = 2;
const PROBE_TEMPLATES: usize = 32;

pub fn tuner_probe(t: &mut Tenant) -> TunerProbe {
    let mut probe = TunerProbe::default();
    let mut workload = t.advisor.workload();
    workload.sort_by_key(|(_, frequency)| std::cmp::Reverse(*frequency));
    workload.truncate(PROBE_TEMPLATES);
    let config: Vec<IndexDef> = t.db.indexes().map(|(_, d)| d.clone()).collect();
    if !workload.is_empty() {
        let t0 = Instant::now();
        for (shape, _) in &workload {
            black_box(t.advisor.estimator().shape_cost(&t.db, shape, &config));
        }
        probe.shape_cost_ns = t0.elapsed().as_nanos() as f64 / workload.len() as f64;
    }
    for (kind, slot) in [
        (StrategyKind::Mcts, &mut probe.mcts),
        (StrategyKind::Greedy, &mut probe.greedy),
        (StrategyKind::Bandit, &mut probe.bandit),
    ] {
        for _ in 0..STRATEGY_ROUNDS {
            if let Ok(out) = t
                .advisor
                .session(&mut t.db)
                .workload(&workload)
                .strategy(kind)
                .recommend_only()
                .run()
            {
                *slot += out.report.search_time / STRATEGY_ROUNDS;
            }
        }
    }
    probe
}
