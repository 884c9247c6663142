//! The AutoIndex system driver (§III workflow).
//!
//! Glues the pipeline together: **observe** queries through `SQL2Template`
//! → **diagnose** (fire a tuning request when index problems accumulate) →
//! **generate candidates** from the matched templates → **search** the
//! policy tree with MCTS under the storage budget → **apply** the
//! recommended additions/removals as DDL. The advisor recommends: a round
//! is the `Proposal` `AutoIndex::recommend` returns, and the
//! [`TuningSession`] that asked for it applies it and reports it. The
//! policy tree, template store and universe all persist across rounds,
//! making the management *incremental*: each round starts from what
//! previous rounds learned; the advisor keeps no copy of a round's result.

use crate::bandit::{BanditConfig, BanditStrategy};
use crate::candgen::{CandidateConfig, CandidateStats};
use crate::diagnosis::{DiagnosisConfig, DiagnosisReport, IndexDiagnosis};
use crate::error::{invalid, AutoIndexError};
use crate::mcts::{MctsConfig, Universe};
use crate::session::TuningSession;
use crate::strategy::{
    relative_improvement, GreedyStrategy, MctsStrategy, Prologue, Proposal, RewardObservation,
    Round, RoundStats, StrategyKind, TuningStrategy,
};
use crate::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_estimator::cost_cache::CostCache;
use autoindex_estimator::CostEstimator;
use autoindex_sql::SqlError;
use autoindex_storage::index::{IndexDef, IndexId};
use autoindex_storage::SimDb;
use std::sync::Arc;
use std::time::Duration;

/// Top-level AutoIndex configuration.
#[derive(Debug, Clone)]
pub struct AutoIndexConfig {
    /// Storage budget for the whole index set, bytes (`None` = unlimited).
    pub storage_budget: Option<u64>,
    pub templates: TemplateStoreConfig,
    pub candidates: CandidateConfig,
    pub mcts: MctsConfig,
    pub diagnosis: DiagnosisConfig,
    /// Redundancy prune pass (§III: "we also figure out redundant or
    /// negative indexes based on the index benefit estimation results"):
    /// an existing index is pruned when removing it increases the
    /// (pressure-adjusted) estimated workload cost by at most this
    /// fraction. `None` disables the pass.
    pub prune_epsilon: Option<f64>,
    /// Which tuning strategy recommendation rounds run by default
    /// ([`StrategyKind::Mcts`] preserves the historical behavior).
    /// Overridable per session via `TuningSession::strategy`.
    pub strategy: StrategyKind,
    /// Parameters of the C²UCB bandit strategy ([`crate::bandit`]);
    /// ignored unless the bandit is selected.
    pub bandit: BanditConfig,
}

impl Default for AutoIndexConfig {
    fn default() -> Self {
        AutoIndexConfig {
            storage_budget: None,
            templates: TemplateStoreConfig::default(),
            candidates: CandidateConfig::default(),
            mcts: MctsConfig::default(),
            diagnosis: DiagnosisConfig::default(),
            prune_epsilon: Some(0.0),
            strategy: StrategyKind::default(),
            bandit: BanditConfig::default(),
        }
    }
}

impl AutoIndexConfig {
    /// Check every field, then the nested search, candidate and bandit
    /// configurations.
    pub fn validate(&self) -> Result<(), AutoIndexError> {
        if let Some(eps) = self.prune_epsilon {
            if !eps.is_finite() || eps < 0.0 {
                return Err(invalid(
                    "autoindex.prune_epsilon",
                    "must be finite and >= 0",
                ));
            }
        }
        if self.storage_budget == Some(0) {
            return Err(invalid(
                "autoindex.storage_budget",
                "a zero budget forbids every index; use None for unlimited",
            ));
        }
        self.mcts.validate()?;
        self.candidates.validate()?;
        self.bandit.validate()
    }
}

/// A recommended configuration change.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Indexes to create.
    pub add: Vec<IndexDef>,
    /// Indexes to drop.
    pub remove: Vec<IndexDef>,
    /// Estimated workload cost before/after (same estimator units).
    pub est_cost_before: f64,
    pub est_cost_after: f64,
}

impl Recommendation {
    /// Empty (no-op) recommendation.
    pub fn noop(cost: f64) -> Self {
        Recommendation {
            add: Vec::new(),
            remove: Vec::new(),
            est_cost_before: cost,
            est_cost_after: cost,
        }
    }

    /// Whether the recommendation changes anything.
    pub fn is_noop(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }

    /// Estimated relative improvement.
    pub fn improvement(&self) -> f64 {
        relative_improvement(self.est_cost_before, self.est_cost_after)
    }
}

/// Everything a tuning round did.
#[derive(Debug, Clone)]
pub struct TuningReport {
    pub recommendation: Recommendation,
    /// Ids of created indexes.
    pub created: Vec<IndexId>,
    /// Definitions of dropped indexes.
    pub dropped: Vec<IndexDef>,
    /// Candidates generated this round.
    pub candidates_generated: usize,
    /// Wall-clock time of the round (the "index latency" of Fig. 9).
    pub tuning_time: Duration,
    /// Policy-tree size after the round.
    pub tree_nodes: usize,
    /// Total estimator evaluations performed this round: MCTS eval-cache
    /// misses plus the prune/refinement probes around the search.
    pub evaluations: usize,
    /// Estimator evaluations inside the MCTS search (its cache misses).
    pub search_evaluations: usize,
    /// MCTS eval-cache hits (configurations re-costed for free).
    pub eval_cache_hits: usize,
    /// Wall time of the MCTS search phase.
    pub search_time: Duration,
    /// Wall time of candidate generation.
    pub candgen_time: Duration,
}

impl TuningReport {
    /// Hit rate of the MCTS eval cache during the search phase
    /// (`hits / (hits + misses)`; 0 when the search never evaluated).
    pub fn eval_cache_hit_rate(&self) -> f64 {
        let total = self.eval_cache_hits + self.search_evaluations;
        if total == 0 {
            return 0.0;
        }
        self.eval_cache_hits as f64 / total as f64
    }
}

/// The incremental index management system.
///
/// Since PR 9 the recommendation engine is pluggable: the advisor owns
/// one `TuningStrategy` instance per [`StrategyKind`] — each with its
/// own round-persistent state (the MCTS policy tree, the bandit's linear
/// model) — and dispatches rounds to the active one.
pub struct AutoIndex<E: CostEstimator> {
    pub config: AutoIndexConfig,
    estimator: E,
    templates: TemplateStore,
    /// The universe MCTS rounds number their slots in; it persists because
    /// the policy tree's nodes are sets of its slots.
    universe: Universe,
    /// The delta-cost term cache: one, for every diagnosis and every
    /// strategy's round.
    cost_cache: CostCache,
    /// The §IV-B pipeline (policy tree).
    mcts: MctsStrategy,
    /// The §VI-A baseline.
    greedy: GreedyStrategy,
    /// The C²UCB bandit ([`crate::bandit`]).
    bandit: BanditStrategy,
    /// Strategy the next round dispatches to (config default until
    /// [`AutoIndex::set_strategy`] or a session override changes it).
    active: StrategyKind,
}

impl<E: CostEstimator> AutoIndex<E> {
    /// Create a system with the given estimator.
    pub fn new(config: AutoIndexConfig, estimator: E) -> Self {
        let templates = TemplateStore::new(config.templates.clone());
        let bandit = BanditStrategy::new(config.bandit.clone());
        let active = config.strategy;
        AutoIndex {
            config,
            estimator,
            templates,
            universe: Universe::new(),
            cost_cache: CostCache::new(),
            mcts: MctsStrategy::new(),
            greedy: GreedyStrategy,
            bandit,
            active,
        }
    }

    /// The delta-cost term cache diagnoses and rounds share (read access
    /// for tests/telemetry).
    pub fn cost_cache(&self) -> &CostCache {
        &self.cost_cache
    }

    /// The universe MCTS rounds number their slots in (read access for
    /// tests/telemetry): nothing but an MCTS round may grow it.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The strategy the next tuning round will use.
    pub fn strategy(&self) -> StrategyKind {
        self.active
    }

    /// Switch the default strategy for subsequent rounds. Strategy state
    /// is per-kind and persistent: switching away and back resumes where
    /// the strategy left off.
    pub fn set_strategy(&mut self, kind: StrategyKind) {
        self.active = kind;
    }

    /// Feed measured post-apply latency back to the active strategy
    /// (the bandit's reward signal; greedy/MCTS ignore it).
    pub fn observe_reward(&mut self, measured_mean_ms: f64) {
        let obs = RewardObservation { measured_mean_ms };
        self.strategy_mut(self.active).observe_reward(&obs);
    }

    fn strategy_mut(&mut self, kind: StrategyKind) -> &mut dyn TuningStrategy<E> {
        match kind {
            StrategyKind::Greedy => &mut self.greedy,
            StrategyKind::Mcts => &mut self.mcts,
            StrategyKind::Bandit => &mut self.bandit,
        }
    }

    /// Feed one query from the stream (the `SQL2Template` hot path).
    pub fn observe(&mut self, sql: &str, db: &SimDb) -> Result<(), SqlError> {
        self.templates.observe(sql, db.catalog())?;
        Ok(())
    }

    /// Observe a statement whose fingerprint hash is already known (the
    /// serving fast path computed it). Skips re-scanning; on a template-
    /// store hit, skips re-parsing too. Bookkeeping is identical to
    /// [`AutoIndex::observe`].
    pub fn observe_prehashed(&mut self, hash: u64, sql: &str, db: &SimDb) -> Result<(), SqlError> {
        self.templates.observe_prehashed(hash, sql, db.catalog())?;
        Ok(())
    }

    /// Feed a batch of queries; returns how many failed to parse.
    pub fn observe_batch<'q>(
        &mut self,
        sqls: impl IntoIterator<Item = &'q str>,
        db: &SimDb,
    ) -> usize {
        let mut failures = 0;
        for s in sqls {
            if self.observe(s, db).is_err() {
                failures += 1;
            }
        }
        failures
    }

    /// Number of templates currently retained.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// The template store (read access for inspection).
    pub fn templates(&self) -> &TemplateStore {
        &self.templates
    }

    /// The template store, for the drivers that keep its compiled entries
    /// current (`feed` live, a publication at its epoch boundary).
    pub(crate) fn templates_mut(&mut self) -> &mut TemplateStore {
        &mut self.templates
    }

    /// The estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// The template-level workload view.
    pub fn workload(&self) -> Vec<(autoindex_storage::shape::QueryShape, u64)> {
        self.templates.workload()
    }

    /// Run the diagnosis module against the observed workload.
    pub fn diagnose(&self, db: &SimDb) -> DiagnosisReport {
        self.boundary(db).0
    }

    /// The candidates a tuning boundary would hand its round now, with
    /// their per-class tallies: every template's kept emission (emitted
    /// afresh where its tables grew, its shape was re-extracted or
    /// `config.candidates` changed) merged against `db`'s indexes. Equal,
    /// bit for bit, to `CandidateGenerator::generate_with_stats` over
    /// [`AutoIndex::workload`] (property-tested).
    pub fn candidates(&self, db: &SimDb) -> (Vec<IndexDef>, CandidateStats) {
        let prologue = self.prologue(db);
        let candidates = prologue.candidates.into_iter().map(Arc::unwrap_or_clone);
        (candidates.collect(), prologue.cand_stats)
    }

    /// The prologue of a round over the observed templates.
    pub(crate) fn prologue(&self, db: &SimDb) -> Prologue {
        let keyed = self.templates.keyed_workload();
        Prologue::new(db, keyed, &self.config.candidates)
    }

    /// One tuning boundary's first step: take the workload and merge its
    /// candidates once, diagnose over them, and return both —
    /// a boundary whose diagnosis fires hands the prologue on to its
    /// session ([`TuningSession::prologue`]) instead of building it again.
    pub(crate) fn boundary(&self, db: &SimDb) -> (DiagnosisReport, Prologue) {
        let prologue = self.prologue(db);
        let missing = prologue.missing_benefit(
            db,
            &self.estimator,
            &self.cost_cache,
            self.config.mcts.decomposed_eval,
        );
        let report = IndexDiagnosis::new(self.config.diagnosis.clone()).diagnose(db, missing);
        (report, prologue)
    }

    /// Recompute template shapes against current statistics (call after
    /// significant data growth). A re-extracted shape that carries new
    /// selectivities has a new fingerprint, so its cached cost terms are
    /// simply never looked up again.
    pub fn refresh_statistics(&mut self, db: &SimDb) {
        self.templates.refresh_shapes(db.catalog());
    }

    /// Force one template-frequency decay (§IV-C). Online, the workload
    /// shift detector does this automatically; exposing it lets callers
    /// mark a known phase boundary explicitly. Decay moves weights, which
    /// live outside the cached cost terms.
    pub fn force_template_decay(&mut self) {
        self.templates.decay();
    }

    /// Open a builder-style [`TuningSession`] — the unified entry point
    /// replacing `tune`, `tune_with_workload`, `recommend`,
    /// `recommend_for` and `apply_recommendation`:
    ///
    /// ```text
    /// advisor.session(&mut db).run()?;                                  // = tune
    /// advisor.session(&mut db).workload(&w).run()?;                     // = tune_with_workload
    /// advisor.session(&mut db).recommend_only().run()?;                 // = recommend
    /// advisor.session(&mut db).with_recommendation(rec).run()?;         // = apply_recommendation
    /// advisor.session(&mut db).guarded(GuardConfig::default()).run()?;  // guarded apply (new)
    /// ```
    pub fn session<'a, 'd, 'w>(&'a mut self, db: &'d mut SimDb) -> TuningSession<'a, 'd, 'w, E> {
        TuningSession::new(self, db)
    }

    /// Run strategy `kind`'s recommendation pipeline over one
    /// [`Round`] of `prologue` — what every strategy shares (existing
    /// definitions, candidates, interning, the round's one pricer) — then
    /// the strategy's own search, and return its proposal with the
    /// policy-tree size after it. For the default
    /// [`StrategyKind::Mcts`] that is the paper's §IV-B flow (prune pass,
    /// MCTS over the persistent policy tree, add-refinement,
    /// minimal-change pass and the improvement gate), living in
    /// [`MctsStrategy`]. Internal engine behind [`AutoIndex::session`].
    pub(crate) fn recommend(
        &mut self,
        kind: StrategyKind,
        db: &SimDb,
        prologue: &Prologue,
    ) -> Proposal {
        // Only an MCTS round may number slots in the persistent universe.
        let mut local = Universe::new();
        let (strategy, universe): (&mut dyn TuningStrategy<E>, _) = match kind {
            StrategyKind::Greedy => (&mut self.greedy, &mut local),
            StrategyKind::Mcts => (&mut self.mcts, &mut self.universe),
            StrategyKind::Bandit => (&mut self.bandit, &mut local),
        };
        let mut proposal = if prologue.workload.is_empty() {
            Proposal::noop(0.0, RoundStats::default())
        } else {
            let standing = strategy.standing_arms();
            let (estimator, config, cache) = (&self.estimator, &self.config, &self.cost_cache);
            strategy.propose(&mut Round::new(
                universe, cache, db, prologue, estimator, config, &standing,
            ))
        };
        proposal.stats.tree_nodes = strategy.tree_nodes();
        proposal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                .column(Column::int("c", 40))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
    }

    fn system() -> AutoIndex<NativeCostEstimator> {
        AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
    }

    /// One tuning round through the session API (the legacy `tune` shape).
    fn tune(ai: &mut AutoIndex<NativeCostEstimator>, db: &mut SimDb) -> TuningReport {
        ai.session(db).run().unwrap().report
    }

    #[test]
    fn observe_then_recommend_creates_useful_index() {
        let mut db = db();
        let mut ai = system();
        for i in 0..500 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
        }
        assert_eq!(ai.template_count(), 1);
        let report = tune(&mut ai, &mut db);
        assert!(!report.created.is_empty());
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(keys.contains(&"t(a)".to_string()), "{keys:?}");
        assert!(report.recommendation.improvement() > 0.5);
        assert!(report.tree_nodes > 0);
    }

    #[test]
    fn tuning_report_carries_real_evaluation_telemetry() {
        // Regression: `apply` used to hardcode `evaluations: 0` even though
        // the search tracked the count.
        let mut db = db();
        let mut ai = system();
        for i in 0..400 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 1"), &db)
                .unwrap();
        }
        let report = tune(&mut ai, &mut db);
        assert!(report.evaluations > 0, "evaluations must be the real count");
        assert!(
            report.search_evaluations > 0 && report.search_evaluations <= report.evaluations,
            "search misses are a subset of all evaluations"
        );
        assert!(
            report.candidates_generated > 0,
            "candidate count must be the generator's output, not the template count"
        );
        assert!(report.search_time > Duration::ZERO);
        let rate = report.eval_cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    }

    #[test]
    fn noop_when_nothing_observed() {
        let mut db = db();
        let mut ai = system();
        let report = tune(&mut ai, &mut db);
        assert!(report.recommendation.is_noop());
        assert!(report.created.is_empty());
    }

    #[test]
    fn primary_key_indexes_protected() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["id"])).unwrap();
        let mut ai = system();
        // A write-heavy workload that makes every index look like a cost.
        for i in 0..500 {
            ai.observe(
                &format!("INSERT INTO t (id, a, b, c) VALUES ({i}, 1, 2, 3)"),
                &db,
            )
            .unwrap();
        }
        let _ = tune(&mut ai, &mut db);
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(
            keys.contains(&"t(id)".to_string()),
            "PK index dropped: {keys:?}"
        );
    }

    #[test]
    fn budget_is_respected_end_to_end() {
        let mut db = db();
        let one = db.index_size_bytes(&IndexDef::new("t", &["a"])).unwrap();
        let mut ai = AutoIndex::new(
            AutoIndexConfig {
                storage_budget: Some(one + one / 4),
                ..AutoIndexConfig::default()
            },
            NativeCostEstimator,
        );
        for i in 0..200 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 1"), &db)
                .unwrap();
        }
        let _ = tune(&mut ai, &mut db);
        assert!(db.total_index_bytes() <= one + one / 4);
    }

    #[test]
    fn incremental_rounds_converge_to_stable_config() {
        let mut db = db();
        let mut ai = system();
        for i in 0..300 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
        }
        let r1 = tune(&mut ai, &mut db);
        assert!(!r1.created.is_empty());
        // Second round over the same workload: nothing more to do.
        let r2 = tune(&mut ai, &mut db);
        assert!(
            r2.recommendation.is_noop() || r2.recommendation.improvement() < 0.05,
            "{:?}",
            r2.recommendation
        );
    }

    #[test]
    fn workload_shift_changes_recommendation() {
        let mut db = db();
        let mut ai = system();
        for i in 0..300 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
        }
        let _ = tune(&mut ai, &mut db);
        assert!(db.indexes().any(|(_, d)| d.key() == "t(a)"));
        // The workload pivots to column b (and a disappears).
        ai.templates.decay();
        ai.templates.decay(); // kill the old template
        for i in 0..300 {
            ai.observe(&format!("SELECT * FROM t WHERE b = {i}"), &db)
                .unwrap();
        }
        let _ = tune(&mut ai, &mut db);
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(keys.contains(&"t(b)".to_string()), "{keys:?}");
    }

    #[test]
    fn unparseable_queries_are_counted_not_fatal() {
        let db = db();
        let mut ai = system();
        let failures = ai.observe_batch(["SELECT * FROM t WHERE a = 1", "garbage ~ sql"], &db);
        assert_eq!(failures, 1);
        assert_eq!(ai.template_count(), 1);
    }

    #[test]
    fn refinement_rescues_starved_search() {
        // With one MCTS iteration the tree search alone can't cover three
        // independent candidates; the add-refinement pass must still pick
        // up every individually profitable index.
        let mut db = db();
        let mut ai = AutoIndex::new(
            AutoIndexConfig {
                mcts: crate::mcts::MctsConfig {
                    iterations: 1,
                    rollouts: 0,
                    ..crate::mcts::MctsConfig::default()
                },
                ..AutoIndexConfig::default()
            },
            NativeCostEstimator,
        );
        for i in 0..100 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 2"), &db)
                .unwrap();
        }
        let _ = tune(&mut ai, &mut db);
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(keys.contains(&"t(a)".to_string()), "{keys:?}");
        assert!(keys.iter().any(|k| k.starts_with("t(b")), "{keys:?}");
    }

    #[test]
    fn prune_disabled_keeps_unused_indexes() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["c"])).unwrap(); // never used
        let mut run = |eps: Option<f64>| {
            let mut ai = AutoIndex::new(
                AutoIndexConfig {
                    prune_epsilon: eps,
                    ..AutoIndexConfig::default()
                },
                NativeCostEstimator,
            );
            for i in 0..100 {
                ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                    .unwrap();
            }
            ai.session(&mut db)
                .recommend_only()
                .run()
                .unwrap()
                .report
                .recommendation
        };
        let with_prune = run(Some(0.001));
        let without = run(None);
        // Memory is ample here, so even the prune pass has no reason to
        // drop the unused index (removal must be cost-justified) — but the
        // disabled path must certainly not remove anything.
        assert!(
            without.remove.is_empty(),
            "unexpected removals: {:?} adds {:?}",
            without.remove,
            without.add
        );
        let _ = with_prune;
    }

    #[test]
    fn diagnose_surface_works_end_to_end() {
        let mut db = db();
        let mut ai = system();
        let q = autoindex_sql::parse_statement("SELECT * FROM t WHERE a = 1").unwrap();
        for i in 0..600 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            db.execute(&q);
        }
        let rep = ai.diagnose(&db);
        assert!(rep.should_tune, "missing index should be flagged: {rep:?}");
    }

    #[test]
    fn diagnosis_generates_with_the_advisors_candidate_config() {
        // `t(b)` exists and serves the filter; what is missing is the
        // mixed-direction order, which only a sort-aware composite
        // `t(b,a DESC,c)` delivers. An advisor configured to propose that
        // class must be told it is missing — diagnosis used to generate
        // with `CandidateConfig::default()` whatever the advisor's config.
        let diagnose = |sort_aware: bool| {
            let mut db = db();
            db.create_index(IndexDef::new("t", &["b"])).unwrap();
            let config = AutoIndexConfig {
                candidates: CandidateConfig {
                    sort_aware,
                    ..CandidateConfig::default()
                },
                ..AutoIndexConfig::default()
            };
            let mut ai = AutoIndex::new(config, NativeCostEstimator);
            for i in 0..600 {
                let sql = format!("SELECT * FROM t WHERE b = {i} ORDER BY a DESC, c LIMIT 10");
                ai.observe(&sql, &db).unwrap();
                db.execute(&autoindex_sql::parse_statement(&sql).unwrap());
            }
            ai.diagnose(&db)
        };
        let plain = diagnose(false);
        assert!(!plain.should_tune, "{plain:?}");
        let aware = diagnose(true);
        assert!(aware.missing_benefit > plain.missing_benefit, "{aware:?}");
        assert!(aware.should_tune, "{aware:?}");
    }

    /// A two-table fixture with its own registry, and an advisor that has
    /// seen one template on `t`, one on `u` and one joining them.
    fn two_tables() -> (SimDb, AutoIndex<NativeCostEstimator>) {
        let mut c = Catalog::new();
        for (name, rows) in [("t", 800_000), ("u", 300_000)] {
            c.add_table(
                TableBuilder::new(name, rows)
                    .column(Column::int("a", rows))
                    .column(Column::int("b", 4_000))
                    .build()
                    .unwrap(),
            );
        }
        let metrics = autoindex_support::obs::MetricsRegistry::new();
        let db = SimDb::with_metrics(c, SimDbConfig::default(), metrics);
        let mut ai = system();
        for i in 0..50 {
            for sql in [
                format!("SELECT * FROM t WHERE a = {i}"),
                format!("SELECT * FROM u WHERE b = {i}"),
                format!("SELECT * FROM t, u WHERE t.b = u.b AND u.a = {i}"),
            ] {
                ai.observe(&sql, &db).unwrap();
            }
        }
        (db, ai)
    }

    /// `advisor.candidates.{emitted, reused}` since the last call.
    fn emissions(db: &SimDb, last: &mut (u64, u64)) -> (u64, u64) {
        let m = db.metrics();
        let now = (
            m.counter_value("advisor.candidates.emitted"),
            m.counter_value("advisor.candidates.reused"),
        );
        let delta = (now.0 - last.0, now.1 - last.1);
        *last = now;
        delta
    }

    #[test]
    fn a_boundary_without_growth_emits_nothing() {
        let (db, ai) = two_tables();
        let mut last = (0, 0);
        let first = ai.candidates(&db);
        assert_eq!(
            emissions(&db, &mut last),
            (3, 0),
            "a first boundary emits all"
        );
        let _ = ai.diagnose(&db);
        assert_eq!(emissions(&db, &mut last), (0, 3));
        assert_eq!(ai.candidates(&db), first);
        assert_eq!(emissions(&db, &mut last), (0, 3));
    }

    #[test]
    fn growing_one_table_re_emits_the_templates_that_touch_it() {
        let (mut db, ai) = two_tables();
        let mut last = (0, 0);
        let _ = ai.candidates(&db);
        emissions(&db, &mut last);
        db.grow_table("u", 10_000).unwrap();
        let _ = ai.candidates(&db);
        assert_eq!(emissions(&db, &mut last), (2, 1), "`u` and the join");
        db.grow_table("t", 10_000).unwrap();
        let _ = ai.candidates(&db);
        assert_eq!(emissions(&db, &mut last), (2, 1), "`t` and the join");
    }

    #[test]
    fn ddl_re_emits_nothing_but_changes_the_merge() {
        let (mut db, ai) = two_tables();
        let mut last = (0, 0);
        let (before, _) = ai.candidates(&db);
        emissions(&db, &mut last);
        let built = IndexDef::new("t", &["a"]);
        assert!(before.contains(&built), "{before:?}");
        db.create_index(built.clone()).unwrap();
        let (after, _) = ai.candidates(&db);
        assert_eq!(emissions(&db, &mut last), (0, 3));
        assert!(!after.contains(&built), "{after:?}");
        assert_eq!(before.len(), after.len() + 1, "{before:?} / {after:?}");
    }

    #[test]
    fn config_builder_validates() {
        assert!(AutoIndexConfig::default().validate().is_ok());
        let prune = AutoIndexConfig {
            prune_epsilon: Some(-0.1),
            ..AutoIndexConfig::default()
        };
        assert!(prune.validate().is_err());
        let zero = AutoIndexConfig {
            storage_budget: Some(0),
            ..AutoIndexConfig::default()
        };
        assert!(zero.validate().is_err());
        // Nested MCTS validation propagates.
        let bad_mcts = AutoIndexConfig {
            mcts: MctsConfig {
                iterations: 0,
                ..MctsConfig::default()
            },
            ..AutoIndexConfig::default()
        };
        assert!(bad_mcts.validate().is_err());
        let ok = AutoIndexConfig {
            storage_budget: Some(1 << 30),
            ..AutoIndexConfig::default()
        };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.storage_budget, Some(1 << 30));
    }

    #[test]
    fn validate_checks_the_nested_candidates() {
        let config = AutoIndexConfig {
            candidates: CandidateConfig {
                selectivity_threshold: 0.0,
                ..CandidateConfig::default()
            },
            ..AutoIndexConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(AutoIndexError::InvalidConfig {
                field: "candidates.selectivity_threshold",
                ..
            })
        ));
    }
}
