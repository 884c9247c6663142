//! The unified tuning entry point.
//!
//! PR 4 collapses the historically duplicated surfaces — `tune`,
//! `tune_with_workload`, `recommend`, `recommend_for`,
//! `apply_recommendation` — behind one builder-style session:
//!
//! ```
//! use autoindex_core::{AutoIndex, AutoIndexConfig, GuardConfig};
//! use autoindex_estimator::NativeCostEstimator;
//! use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
//! use autoindex_storage::{SimDb, SimDbConfig};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(
//!     TableBuilder::new("t", 100_000)
//!         .column(Column::int("a", 100_000))
//!         .build()
//!         .unwrap(),
//! );
//! let mut db = SimDb::new(catalog, SimDbConfig::default());
//! let mut advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
//! for i in 0..200 {
//!     advisor.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db).unwrap();
//! }
//! // Recommend + guarded apply, one call chain:
//! let outcome = advisor
//!     .session(&mut db)
//!     .guarded(GuardConfig::default())
//!     .run()
//!     .unwrap();
//! assert!(!outcome.report.created.is_empty());
//! ```
//!
//! A session *recommends* (optionally for an explicit workload), then
//! either stops there ([`TuningSession::recommend_only`]), applies
//! unguarded (the default, matching the legacy `tune` semantics
//! byte-for-byte), or applies through the [`Guard`] pipeline
//! ([`TuningSession::guarded`]): shadow admission, snapshot, fault-safe
//! DDL with retries, and automatic rollback if the database keeps
//! faulting. With faults disabled the guarded path performs the same
//! DDL in the same order and makes the same number of what-if calls as
//! the unguarded one.
//!
//! A round's result travels as a value: the advisor's `recommend` returns
//! the strategy's proposal (recommendation, round telemetry, policy-tree
//! size, bandit arms), and [`TuningSession::run`] assembles the one
//! [`TuningReport`] from it plus the DDL it performed, in every apply
//! mode.

use crate::bandit::ArmChoice;
use crate::error::AutoIndexError;
use crate::guard::{ApplyVerdict, Guard, GuardConfig};
use crate::strategy::{Prologue, Proposal, RoundStats, StrategyKind};
use crate::system::{AutoIndex, Recommendation, TuningReport};
use autoindex_estimator::{CostEstimator, TemplateWorkload};
use autoindex_storage::index::{IndexDef, IndexId};
use autoindex_storage::SimDb;
use std::time::Instant;

/// What a [`TuningSession`] run produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The tuning round's full report (recommendation, DDL performed,
    /// telemetry). After a guarded rollback `created`/`dropped` are empty.
    /// A session handed its recommendation ran no search: its search
    /// telemetry is zero.
    pub report: TuningReport,
    /// The guard's verdict, when the session ran guarded.
    pub guard: Option<ApplyVerdict>,
    /// The arms the bandit selected this round, with their confidence
    /// bounds; empty for the other strategies and for a session handed
    /// its recommendation.
    pub arms: Vec<ArmChoice>,
}

impl SessionReport {
    /// The recommendation the session computed.
    pub fn recommendation(&self) -> &Recommendation {
        &self.report.recommendation
    }

    /// Whether a guarded apply was rolled back.
    pub fn rolled_back(&self) -> bool {
        matches!(self.guard, Some(ApplyVerdict::RolledBack(_)))
    }

    /// Whether the shadow check rejected the recommendation (no DDL ran).
    pub fn shadow_rejected(&self) -> bool {
        matches!(self.guard, Some(ApplyVerdict::ShadowRejected { .. }))
    }

    /// Canonical one-word rendering of what the session did — `noop`,
    /// `applied(+a,-d)`, `rolled_back` or `shadow_rejected` — as the
    /// serving transcripts record it.
    pub(crate) fn decision(&self) -> String {
        if self.shadow_rejected() {
            "shadow_rejected".to_string()
        } else if self.rolled_back() {
            "rolled_back".to_string()
        } else if self.report.recommendation.is_noop() {
            "noop".to_string()
        } else {
            let (created, dropped) = (self.report.created.len(), self.report.dropped.len());
            format!("applied(+{created},-{dropped})")
        }
    }
}

/// How a session applies what it recommended.
pub(crate) enum Apply<'d> {
    /// Drops, then creates, ignoring individual DDL failures.
    Unguarded,
    /// Through a guard made for this run and dropped with it.
    Guarded(GuardConfig),
    /// Through the caller's guard at its statement clock `now`: the guard
    /// keeps its phase, so a successful apply arms probation.
    GuardedBy(&'d mut Guard, u64),
}

/// Builder-style tuning session over one advisor and one database. See
/// the [module docs](self) for the full flow.
pub struct TuningSession<'a, 'd, 'w, E: CostEstimator> {
    advisor: &'a mut AutoIndex<E>,
    db: &'d mut SimDb,
    workload: Option<&'w TemplateWorkload>,
    /// The prologue this boundary's diagnosis (`AutoIndex::boundary`)
    /// already built, so the round does not build it again.
    prologue: Option<Prologue>,
    apply: Apply<'d>,
    recommendation: Option<Recommendation>,
    recommend_only: bool,
    strategy: Option<StrategyKind>,
}

impl<'a, 'd, 'w, E: CostEstimator> TuningSession<'a, 'd, 'w, E> {
    pub(crate) fn new(advisor: &'a mut AutoIndex<E>, db: &'d mut SimDb) -> Self {
        TuningSession {
            advisor,
            db,
            workload: None,
            prologue: None,
            apply: Apply::Unguarded,
            recommendation: None,
            recommend_only: false,
            strategy: None,
        }
    }

    /// Recommend for an explicit workload instead of the observed
    /// templates (the query-level ablation mode).
    pub fn workload(mut self, workload: &'w TemplateWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Apply through the guard pipeline: shadow admission, pre-apply
    /// snapshot, fault-safe DDL and automatic rollback.
    pub fn guarded(mut self, config: GuardConfig) -> Self {
        self.apply = Apply::Guarded(config);
        self
    }

    /// Compute the recommendation but perform no DDL (the legacy
    /// `recommend`/`recommend_for` semantics).
    pub fn recommend_only(mut self) -> Self {
        self.recommend_only = true;
        self
    }

    /// Recommend with an explicit [`StrategyKind`] for this session only,
    /// overriding `AutoIndexConfig::strategy`. The advisor's per-strategy
    /// state (policy tree, bandit model) persists either way.
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = Some(kind);
        self
    }

    /// Skip recommendation and apply this exact, previously computed (and
    /// possibly operator-approved) recommendation.
    pub fn with_recommendation(mut self, rec: Recommendation) -> Self {
        self.recommendation = Some(rec);
        self
    }

    /// Run the session: recommend (unless a recommendation was supplied),
    /// then apply per the builder's mode, and report both. This is the one
    /// place a [`TuningReport`] is assembled.
    pub fn run(self) -> Result<SessionReport, AutoIndexError> {
        let start = Instant::now();
        let kind = self.strategy.unwrap_or(self.advisor.strategy());
        let proposal = match self.recommendation {
            // A given recommendation ran no search: nothing to report of one.
            Some(recommendation) => Proposal {
                recommendation,
                stats: RoundStats::default(),
                arms: Vec::new(),
            },
            None => {
                let prologue = match (self.prologue, self.workload) {
                    (Some(p), _) => p,
                    (None, Some(w)) => {
                        Prologue::explicit(self.db, w, &self.advisor.config.candidates)
                    }
                    (None, None) => self.advisor.prologue(self.db),
                };
                self.advisor.recommend(kind, self.db, &prologue)
            }
        };
        let rec = &proposal.recommendation;
        let (created, dropped, guard) = match self.apply {
            _ if self.recommend_only => (Vec::new(), Vec::new(), None),
            Apply::Unguarded => {
                let (created, dropped) = apply_unguarded(self.db, rec);
                (created, dropped, None)
            }
            Apply::Guarded(cfg) => {
                let (created, dropped, verdict) =
                    Guard::new(cfg, self.db.metrics()).apply(self.db, rec, 0);
                (created, dropped, Some(verdict))
            }
            Apply::GuardedBy(guard, now) => {
                let (created, dropped, verdict) = guard.apply(self.db, rec, now);
                (created, dropped, Some(verdict))
            }
        };
        let Proposal {
            recommendation,
            stats,
            arms,
        } = proposal;
        let report = TuningReport {
            recommendation,
            created,
            dropped,
            candidates_generated: stats.candidates_generated,
            tuning_time: start.elapsed(),
            tree_nodes: stats.tree_nodes,
            evaluations: stats.evaluations,
            search_evaluations: stats.search_evaluations,
            eval_cache_hits: stats.cache_hits,
            search_time: stats.search_time,
            candgen_time: stats.candgen_time,
        };
        Ok(SessionReport {
            report,
            guard,
            arms,
        })
    }
}

/// Unguarded apply: drops, then creates, ignoring individual DDL
/// failures — the fault-oblivious baseline the guard pipeline wraps.
/// Returns what was created and dropped, like `Guard::apply`.
fn apply_unguarded(db: &mut SimDb, rec: &Recommendation) -> (Vec<IndexId>, Vec<IndexDef>) {
    let mut created = Vec::new();
    let mut dropped = Vec::new();
    for d in &rec.remove {
        if let Some(id) = db.find_index(d) {
            if db.drop_index(id).is_ok() {
                dropped.push(d.clone());
            }
        }
    }
    for d in &rec.add {
        if let Ok(id) = db.create_index(d.clone()) {
            created.push(id);
        }
    }
    (created, dropped)
}

/// One tuning round after a fired diagnosis, whichever loop drives it:
/// a session over the boundary's `prologue`, applied per `apply`, then — if
/// `reset_usage` — a fresh usage window for the new configuration. The
/// serving loop's `LaneState::visit` and `OnlineAutoIndex::feed` each
/// render the report their own way.
pub(crate) fn tuning_round<E: CostEstimator>(
    advisor: &mut AutoIndex<E>,
    db: &mut SimDb,
    prologue: Prologue,
    apply: Apply<'_>,
    reset_usage: bool,
) -> Result<SessionReport, AutoIndexError> {
    let mut session = advisor.session(db);
    session.prologue = Some(prologue);
    session.apply = apply;
    let run = session.run();
    if reset_usage {
        db.reset_usage();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
    use autoindex_storage::index::IndexDef;
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

    fn observed_advisor(db: &SimDb) -> AutoIndex<NativeCostEstimator> {
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        for i in 0..300 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), db)
                .unwrap();
        }
        ai
    }

    #[test]
    fn session_run_applies_like_legacy_tune() {
        let mut db = db();
        let mut ai = observed_advisor(&db);
        let out = ai.session(&mut db).run().unwrap();
        assert!(!out.report.created.is_empty());
        assert!(out.guard.is_none());
        assert!(db.indexes().any(|(_, d)| d.key() == "t(a)"));
        assert!(out.report.evaluations > 0, "telemetry flows through");
    }

    #[test]
    fn recommend_only_performs_no_ddl() {
        let mut db = db();
        let mut ai = observed_advisor(&db);
        let out = ai.session(&mut db).recommend_only().run().unwrap();
        assert!(!out.recommendation().add.is_empty());
        assert!(out.report.created.is_empty());
        assert_eq!(db.index_count(), 0);
    }

    #[test]
    fn with_recommendation_applies_verbatim() {
        let mut db = db();
        let mut ai = observed_advisor(&db);
        let rec = ai
            .session(&mut db)
            .recommend_only()
            .run()
            .unwrap()
            .report
            .recommendation;
        let out = ai
            .session(&mut db)
            .with_recommendation(rec.clone())
            .run()
            .unwrap();
        assert_eq!(out.report.created.len(), rec.add.len());
    }

    #[test]
    fn a_given_recommendation_reports_no_search() {
        let mut db = db();
        let mut ai = observed_advisor(&db);
        let searched = ai.session(&mut db).recommend_only().run().unwrap();
        assert!(searched.report.evaluations > 0 && searched.report.tree_nodes > 0);
        let out = ai
            .session(&mut db)
            .with_recommendation(Recommendation::noop(0.0))
            .run()
            .unwrap();
        let r = &out.report;
        let search = (
            r.candidates_generated,
            r.evaluations,
            r.search_evaluations,
            r.eval_cache_hits,
            r.tree_nodes,
        );
        assert_eq!(search, (0, 0, 0, 0, 0), "no round ran in this session");
        assert!(out.arms.is_empty());
    }

    #[test]
    fn guarded_session_without_faults_is_equivalent_to_unguarded() {
        // Byte-identical recommendation and identical whatif counts: the
        // PR4 acceptance criterion, checked at the unit level (the repo's
        // integration test does it end-to-end).
        let run = |guarded: bool| {
            let mut db = db();
            let mut ai = observed_advisor(&db);
            let s = ai.session(&mut db);
            let out = if guarded {
                s.guarded(GuardConfig::default()).run().unwrap()
            } else {
                s.run().unwrap()
            };
            let whatifs = db.metrics().counter_value("db.whatif_calls");
            let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
            (out.report.recommendation.clone(), whatifs, keys)
        };
        let (rec_u, whatif_u, keys_u) = run(false);
        let (rec_g, whatif_g, keys_g) = run(true);
        assert_eq!(
            format!("{rec_u:?}"),
            format!("{rec_g:?}"),
            "byte-identical recommendation"
        );
        assert_eq!(whatif_u, whatif_g, "guard must not add what-if probes");
        assert_eq!(keys_u, keys_g, "same final index set");
    }

    #[test]
    fn guarded_session_rolls_back_under_persistent_build_faults() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["id"])).unwrap();
        let pre: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        let mut ai = observed_advisor(&db);
        db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
            build_failure: 1.0,
            ..FaultPlanConfig::default()
        })));
        let out = ai
            .session(&mut db)
            .guarded(GuardConfig::default())
            .run()
            .unwrap();
        assert!(out.rolled_back(), "{:?}", out.guard);
        assert!(out.report.created.is_empty());
        let post: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert_eq!(pre, post, "catalog restored to the pre-apply state");
        assert!(db.metrics().counter_value("guard.rollbacks") >= 1);
    }

    #[test]
    fn explicit_workload_matches_observed_templates() {
        let mut db = db();
        let mut ai = observed_advisor(&db);
        let w = ai.workload();
        let via_workload = ai
            .session(&mut db)
            .workload(&w)
            .recommend_only()
            .run()
            .unwrap();
        let via_observed = ai.session(&mut db).recommend_only().run().unwrap();
        assert_eq!(
            format!("{:?}", via_workload.report.recommendation),
            format!("{:?}", via_observed.report.recommendation)
        );
    }
}
