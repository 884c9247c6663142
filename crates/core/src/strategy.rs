//! The pluggable tuning-strategy API (PR 9).
//!
//! Historically the greedy baseline and the MCTS pipeline were two
//! unrelated code paths: MCTS was baked into `AutoIndex` as *the*
//! recommendation engine, while greedy lived off to the side as a bench
//! helper. This module unifies them (and the new C²UCB bandit of
//! [`crate::bandit`]) behind one trait:
//!
//! * [`TuningStrategy`] — `propose(ctx) -> Proposal` computes a
//!   [`Recommendation`] for the current workload; `observe_reward`
//!   feeds measured post-apply latency back (only the bandit learns
//!   from it — greedy and MCTS are estimator-driven and ignore it).
//! * [`StrategyKind`] — the validated selector carried by
//!   `AutoIndexConfig::builder().strategy(..)` and
//!   `TuningSession::strategy(..)`; unknown names surface as
//!   [`AutoIndexError::InvalidStrategy`].
//! * [`MctsStrategy`] — the paper's §IV-B pipeline with its
//!   round-persistent state (universe, policy tree, delta-cost term
//!   cache).
//! * [`GreedyStrategy`] — the §VI-A baseline: candidate generation +
//!   standalone-benefit ranking + top-k under the budget, no removal.
//!
//! The default is [`StrategyKind::Mcts`], so every legacy call site —
//! sessions, the online loop, serving, the fleet — keeps its exact
//! behavior unless a caller opts into another strategy.

use crate::bandit::ArmChoice;
use crate::candgen::{CandidateGenerator, CandidateStats};
use crate::delta::{DeltaPricer, DeltaWorkload};
use crate::error::AutoIndexError;
use crate::greedy::{greedy_select, GreedyConfig};
use crate::mcts::{ConfigSet, MctsSearch, PolicyTree, Universe};
use crate::system::{AutoIndexConfig, Recommendation};
use autoindex_estimator::cost_cache::CostCache;
use autoindex_estimator::{CostEstimator, TemplateWorkload};
use autoindex_storage::index::IndexDef;
use autoindex_storage::{PressureModel, SimDb};
use std::time::{Duration, Instant};

/// Which tuning strategy a round runs. Carried by
/// `AutoIndexConfig::strategy` (the advisor default) and overridable per
/// session via `TuningSession::strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyKind {
    /// The §VI-A baseline: rank candidates by standalone benefit, take
    /// from the top under the budget, never remove.
    Greedy,
    /// The paper's policy-tree MCTS pipeline (§IV-B) — the default, and
    /// byte-identical to the pre-PR9 `AutoIndex` behavior.
    #[default]
    Mcts,
    /// The C²UCB linear contextual bandit over candidate arms
    /// ([`crate::bandit`]): estimator terms as the prior, measured
    /// latency as reward, per-arm confidence bounds for exploration.
    Bandit,
}

impl StrategyKind {
    /// Canonical lowercase name (`"greedy"` / `"mcts"` / `"bandit"`).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Greedy => "greedy",
            StrategyKind::Mcts => "mcts",
            StrategyKind::Bandit => "bandit",
        }
    }

    /// Parse a strategy name (case-insensitive). Unknown names are an
    /// [`AutoIndexError::InvalidStrategy`], not a silent default — the
    /// PR4 convention of refusing rather than correcting.
    pub fn parse(name: &str) -> Result<Self, AutoIndexError> {
        match name.to_ascii_lowercase().as_str() {
            "greedy" => Ok(StrategyKind::Greedy),
            "mcts" => Ok(StrategyKind::Mcts),
            "bandit" => Ok(StrategyKind::Bandit),
            _ => Err(AutoIndexError::InvalidStrategy {
                name: name.to_string(),
            }),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = AutoIndexError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StrategyKind::parse(s)
    }
}

/// Everything a strategy may read while proposing: the database (what-if
/// interface, catalog, usage counters), the template workload, the cost
/// estimator and the advisor configuration. Strategies own their private
/// state; shared state rides in by reference.
pub struct StrategyContext<'a, E: CostEstimator> {
    pub db: &'a SimDb,
    pub workload: &'a TemplateWorkload,
    pub estimator: &'a E,
    pub config: &'a AutoIndexConfig,
}

/// Statistics captured while a recommendation was computed, folded into
/// `TuningReport` by the apply wrappers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundStats {
    pub(crate) candidates_generated: usize,
    /// Search cache misses + prune/refinement probes.
    pub(crate) evaluations: usize,
    /// Search cache misses only.
    pub(crate) search_evaluations: usize,
    pub(crate) cache_hits: usize,
    pub(crate) search_time: Duration,
    pub(crate) candgen_time: Duration,
}

/// What one [`TuningStrategy::propose`] call produced.
pub struct Proposal {
    pub recommendation: Recommendation,
    /// Round telemetry for the `TuningReport`.
    pub(crate) stats: RoundStats,
    /// Policy-tree size after the round (0 for tree-less strategies).
    pub tree_nodes: usize,
    /// The bandit's selected arms with their confidence bounds; empty
    /// for greedy/MCTS.
    pub arms: Vec<ArmChoice>,
}

impl Proposal {
    /// A proposal that changes nothing.
    pub fn noop(cost: f64) -> Self {
        Proposal {
            recommendation: Recommendation::noop(cost),
            stats: RoundStats::default(),
            tree_nodes: 0,
            arms: Vec::new(),
        }
    }
}

/// Measured feedback from applying (or keeping) a configuration: the
/// mean simulated statement latency observed since the last proposal.
#[derive(Debug, Clone, Copy)]
pub struct RewardObservation {
    pub measured_mean_ms: f64,
}

/// A pluggable tuning strategy. One instance lives per `AutoIndex` per
/// kind and persists across rounds — that persistence is what makes the
/// MCTS pipeline (policy tree, term cache) and the bandit (linear
/// model) *incremental*.
pub trait TuningStrategy<E: CostEstimator> {
    /// Which kind this strategy implements.
    fn kind(&self) -> StrategyKind;

    /// Compute a recommendation for the current workload.
    fn propose(&mut self, ctx: StrategyContext<'_, E>) -> Proposal;

    /// Feed measured post-apply latency back. Estimator-driven
    /// strategies ignore it; the bandit updates its linear model.
    fn observe_reward(&mut self, _reward: &RewardObservation) {}

    /// Statistics moved underneath the strategy (template refresh,
    /// decay, catalog change): drop derived state that priced against
    /// the old statistics.
    fn invalidate(&mut self) {}
}

// -------------------------------------------------------------- greedy

/// The Greedy baseline behind the trait: candidate generation, then
/// [`greedy_select`] under the advisor's storage budget. No removal, no
/// improvement gate — the §VI-A method verbatim, so results match the
/// long-standing bench harness calls bit for bit.
#[derive(Debug, Default)]
pub struct GreedyStrategy;

impl<E: CostEstimator> TuningStrategy<E> for GreedyStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Greedy
    }

    fn propose(&mut self, ctx: StrategyContext<'_, E>) -> Proposal {
        if ctx.workload.is_empty() {
            return Proposal::noop(0.0);
        }
        let existing: Vec<IndexDef> = ctx.db.indexes().map(|(_, d)| d.clone()).collect();

        let candgen_started = Instant::now();
        let (candidates, cand_stats) = CandidateGenerator::new(ctx.config.candidates.clone())
            .generate_with_stats(ctx.workload, ctx.db.catalog(), &existing);
        let candgen_time = candgen_started.elapsed();
        ctx.db
            .metrics()
            .timer("system.candgen_time")
            .record(candgen_time);
        ctx.db
            .metrics()
            .counter("system.candidates_generated")
            .add(candidates.len() as u64);
        tally_candidate_classes(ctx.db.metrics(), &cand_stats);

        let search_started = Instant::now();
        let picked = greedy_select(
            ctx.db,
            ctx.estimator,
            ctx.workload,
            &candidates,
            &existing,
            &GreedyConfig {
                budget: ctx.config.storage_budget,
                max_indexes: None,
            },
        );
        let est_cost_before = ctx.estimator.workload_cost(ctx.db, ctx.workload, &existing);
        let est_cost_after =
            ctx.estimator
                .workload_cost(ctx.db, ctx.workload, existing.iter().chain(&picked));
        let search_time = search_started.elapsed();

        Proposal {
            recommendation: Recommendation {
                add: picked,
                remove: Vec::new(),
                est_cost_before,
                est_cost_after,
            },
            stats: RoundStats {
                candidates_generated: candidates.len(),
                // Base cost + one standalone probe per candidate + the
                // final after-cost evaluation.
                evaluations: candidates.len() + 2,
                search_evaluations: 0,
                cache_hits: 0,
                search_time,
                candgen_time,
            },
            tree_nodes: 0,
            arms: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- mcts

/// The paper's recommendation pipeline (§IV-A/B) behind the trait:
/// candidate generation, universe interning, prune pass, MCTS over the
/// persistent policy tree, add-refinement, minimal-change pass and the
/// improvement gate.
pub struct MctsStrategy {
    universe: Universe,
    tree: PolicyTree,
    /// Round-persistent per-template term cache of the delta-cost
    /// engine: prune probes, the MCTS search, refinement passes and
    /// *subsequent rounds over unchanged statistics* all share it.
    cost_cache: CostCache,
    /// Catalog version the cache contents were computed against.
    cache_catalog_version: Option<u64>,
    /// Set by template refresh/decay: the cache is invalidated at the
    /// next pricing opportunity (invalidation needs the db's metrics
    /// registry).
    cache_dirty: bool,
}

impl MctsStrategy {
    pub fn new() -> Self {
        MctsStrategy {
            universe: Universe::new(),
            tree: PolicyTree::new(),
            cost_cache: CostCache::new(),
            cache_catalog_version: None,
            cache_dirty: false,
        }
    }

    /// The delta-cost term cache (read access for tests/telemetry).
    pub fn cost_cache(&self) -> &CostCache {
        &self.cost_cache
    }

    /// Policy-tree size.
    pub fn tree_len(&self) -> usize {
        self.tree.len()
    }
}

impl Default for MctsStrategy {
    fn default() -> Self {
        MctsStrategy::new()
    }
}

impl<E: CostEstimator> TuningStrategy<E> for MctsStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Mcts
    }

    fn invalidate(&mut self) {
        self.cache_dirty = true;
    }

    fn propose(&mut self, ctx: StrategyContext<'_, E>) -> Proposal {
        let db = ctx.db;
        let workload = ctx.workload;
        let existing_list: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();

        if workload.is_empty() {
            return Proposal {
                recommendation: Recommendation::noop(0.0),
                stats: RoundStats::default(),
                tree_nodes: self.tree.len(),
                arms: Vec::new(),
            };
        }

        // Candidate generation (§IV-A).
        let candgen_started = Instant::now();
        let (candidates, cand_stats) = CandidateGenerator::new(ctx.config.candidates.clone())
            .generate_with_stats(workload, db.catalog(), &existing_list);
        let candgen_time = candgen_started.elapsed();
        db.metrics()
            .timer("system.candgen_time")
            .record(candgen_time);
        db.metrics()
            .counter("system.candidates_generated")
            .add(candidates.len() as u64);
        tally_candidate_classes(db.metrics(), &cand_stats);

        // Universe bookkeeping.
        let mut existing_set = ConfigSet::default();
        let mut protected = ConfigSet::default();
        for d in &existing_list {
            let slot = self.universe.intern(d);
            existing_set.insert(slot);
            if ctx.config.protect_primary_keys && is_primary_key_index(db, d) {
                protected.insert(slot);
            }
        }
        for c in &candidates {
            self.universe.intern(c);
        }
        self.universe.refresh_sizes(db);

        // Delta-cost engine upkeep: drop memoized terms when the catalog
        // (statistics) moved since they were computed, or when a template
        // refresh/decay requested it. Terms are otherwise valid across
        // rounds — that is the "incremental" in incremental management.
        let catalog_version = db.catalog().version();
        if self.cache_dirty
            || self
                .cache_catalog_version
                .is_some_and(|v| v != catalog_version)
        {
            self.cost_cache.invalidate(db.metrics());
            self.cache_dirty = false;
        }
        self.cache_catalog_version = Some(catalog_version);

        // Estimator-driven redundant-index prune pass (§III): sequentially
        // try removing existing indexes — least-scanned first — keeping
        // each removal whose (pressure-adjusted) estimated cost increase is
        // within epsilon. Sequential re-evaluation makes the pass safe for
        // mutually-redundant pairs: once one copy is gone, the survivor is
        // no longer removable for free.
        //
        // With the decomposed evaluator on, the probes go through the same
        // per-template term cache as the search and are priced by what
        // changed against the last accepted configuration, so the prune
        // probes, the MCTS leaves and the refinement hill-climb all share
        // what-if work — bitwise-identically to the naive evaluator.
        let delta = ctx
            .config
            .mcts
            .decomposed_eval
            .then(|| DeltaWorkload::new(&self.universe, workload));
        let mut probe = Probe {
            db,
            pressure: db.pressure_model(),
            estimator: ctx.estimator,
            universe: &self.universe,
            workload,
            pricer: delta.as_ref().map(|dw| {
                DeltaPricer::new(dw, db, ctx.estimator, &self.universe, &self.cost_cache, 1)
            }),
            evals: 0,
        };
        let mut start_set = existing_set.clone();
        if let Some(eps) = ctx.config.prune_epsilon {
            let mut base = probe.price(&start_set);
            probe.accept();
            // Least-used first: zero-scan indexes are the cheapest wins.
            let mut order: Vec<(u64, usize)> = db
                .indexes()
                .filter_map(|(id, d)| {
                    let slot = self.universe.slot(d)?;
                    if protected.contains(slot) {
                        return None;
                    }
                    Some((db.usage().usage(id).scans, slot))
                })
                .collect();
            order.sort();
            for (_, slot) in order {
                let mut trial = start_set.clone();
                trial.remove(slot);
                let c = probe.price(&trial);
                if c <= base * (1.0 + eps) {
                    probe.accept();
                    start_set = trial;
                    base = c;
                }
            }
        }

        // MCTS over the persistent policy tree (§IV-B).
        self.tree.begin_round(ctx.config.mcts.round_decay);
        let search = MctsSearch {
            universe: &self.universe,
            estimator: ctx.estimator,
            db,
            workload,
            config: ctx.config.mcts.clone(),
            budget: ctx.config.storage_budget,
            existing: existing_set.clone(),
            protected,
            start: start_set,
            cost_cache: Some(&self.cost_cache),
            delta: delta.as_ref(),
        };
        let outcome = search.run(&mut self.tree);

        // Local add-refinement pass: the tree search handles interactions,
        // substitutions and removals; a final hill-climb over the remaining
        // candidates ("repeat above steps until ... meeting the performance
        // expectation", §IV-B Remark) guarantees no individually-profitable
        // candidate is left on the table.
        let mut best_config = outcome.best_config.clone();
        let mut best_cost = probe.price(&best_config);
        probe.accept();
        for _ in 0..2 {
            let mut changed = false;
            for slot in 0..self.universe.len() {
                if best_config.contains(slot) {
                    continue;
                }
                if let Some(b) = ctx.config.storage_budget {
                    if self.universe.config_size(&best_config) + self.universe.size(slot) > b {
                        continue;
                    }
                }
                let mut trial = best_config.clone();
                trial.insert(slot);
                let c = probe.price(&trial);
                // An addition needs a strict improvement (beyond float
                // noise). Because removals tolerate zero regression, any
                // strictly profitable addition cannot be flip-flopped away
                // by a later prune pass while the estimates stand still.
                if c < best_cost * (1.0 - 1e-6) {
                    probe.accept();
                    best_config = trial;
                    best_cost = c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Minimal-change principle when the removal pass is off: an
        // existing index whose presence is cost-neutral must not be dropped
        // just because the search happened to find the optimum without it.
        if ctx.config.prune_epsilon.is_none() {
            for slot in existing_set.iter() {
                if best_config.contains(slot) {
                    continue;
                }
                if let Some(b) = ctx.config.storage_budget {
                    if self.universe.config_size(&best_config) + self.universe.size(slot) > b {
                        continue;
                    }
                }
                let mut trial = best_config.clone();
                trial.insert(slot);
                let c = probe.price(&trial);
                if c <= best_cost * (1.0 + 1e-9) {
                    probe.accept();
                    best_config = trial;
                    best_cost = c.min(best_cost);
                }
            }
        }

        let baseline_cost = probe.price(&existing_set);

        // Truthful round telemetry: real candidate count, real estimator
        // evaluation counts (search cache misses + every `priced` probe the
        // prune/refinement passes made), real phase timings. `apply` folds
        // these into the `TuningReport` instead of hardcoded zeros.
        let stats = RoundStats {
            candidates_generated: candidates.len(),
            evaluations: outcome.evaluations + probe.evals,
            search_evaluations: outcome.evaluations,
            cache_hits: outcome.cache_hits,
            search_time: outcome.elapsed,
            candgen_time,
        };

        let improvement = if baseline_cost > 0.0 {
            ((baseline_cost - best_cost) / baseline_cost).max(0.0)
        } else {
            0.0
        };
        if improvement < ctx.config.min_improvement {
            // A prune-only change (dropping cost-neutral redundant indexes)
            // is worth acting on regardless of the latency improvement —
            // it reclaims storage and write headroom for free, and leaving
            // it pending makes diagnosis re-fire every window (§III removes
            // redundant indexes, not only slow ones).
            let pruned_something = best_config.iter().all(|s| existing_set.contains(s))
                && best_config.len() < existing_set.len();
            if !pruned_something {
                return Proposal {
                    recommendation: Recommendation::noop(baseline_cost),
                    stats,
                    tree_nodes: self.tree.len(),
                    arms: Vec::new(),
                };
            }
        }

        // Diff best configuration against the existing one.
        let mut add = Vec::new();
        let mut remove = Vec::new();
        for slot in best_config.iter() {
            if !existing_set.contains(slot) {
                add.push(self.universe.def(slot).clone());
            }
        }
        for slot in existing_set.iter() {
            if !best_config.contains(slot) {
                remove.push(self.universe.def(slot).clone());
            }
        }
        Proposal {
            recommendation: Recommendation {
                add,
                remove,
                est_cost_before: baseline_cost,
                est_cost_after: best_cost,
            },
            stats,
            tree_nodes: self.tree.len(),
            arms: Vec::new(),
        }
    }
}

/// Prices the configurations [`MctsStrategy::propose`] probes outside the
/// search — prune trials, refinement trials, the baseline — inclusive of
/// buffer pressure, and counts them.
struct Probe<'a, 'w, E> {
    db: &'a SimDb,
    /// Buffer pressure at the round's (fixed) heap size.
    pressure: PressureModel,
    estimator: &'a E,
    universe: &'a Universe,
    workload: &'a TemplateWorkload,
    /// The decomposed evaluator; `None` replans the whole workload per
    /// probe (`decomposed_eval = false`).
    pricer: Option<DeltaPricer<'a, 'w, E>>,
    evals: usize,
}

impl<E: CostEstimator> Probe<'_, '_, E> {
    fn price(&mut self, cfg: &ConfigSet) -> f64 {
        self.evals += 1;
        let pressure = self
            .pressure
            .for_index_bytes(self.universe.config_size(cfg));
        let sum = match &mut self.pricer {
            Some(p) => p.price(cfg),
            None => {
                self.estimator
                    .workload_cost(self.db, self.workload, self.universe.config_defs(cfg))
            }
        };
        sum * pressure
    }

    /// The configuration priced last was accepted: later probes are its
    /// neighbours, so it becomes what they are priced against.
    fn accept(&mut self) {
        if let Some(p) = &mut self.pricer {
            p.rebase();
        }
    }
}

/// Emit the per-class candidate counters
/// (`advisor.candidates.{sort_aware,covering}`) for one generation pass.
pub(crate) fn tally_candidate_classes(
    metrics: &autoindex_support::obs::MetricsRegistry,
    stats: &CandidateStats,
) {
    metrics
        .counter("advisor.candidates.sort_aware")
        .add(stats.sort_aware as u64);
    metrics
        .counter("advisor.candidates.covering")
        .add(stats.covering as u64);
}

/// Whether `def` implements `table`'s primary key (exactly or as its full
/// prefix in order).
pub(crate) fn is_primary_key_index(db: &SimDb, def: &IndexDef) -> bool {
    db.catalog()
        .table(&def.table)
        .is_some_and(|t| !t.primary_key.is_empty() && def.columns == t.primary_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{AutoIndex, AutoIndexConfig};
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

    fn observed(db: &SimDb) -> AutoIndex<NativeCostEstimator> {
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        for i in 0..300 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM t WHERE b = {i} AND c = 1"), db)
                .unwrap();
        }
        ai
    }

    #[test]
    fn kind_parse_roundtrips_and_rejects_unknown() {
        for k in [
            StrategyKind::Greedy,
            StrategyKind::Mcts,
            StrategyKind::Bandit,
        ] {
            assert_eq!(StrategyKind::parse(k.name()).unwrap(), k);
            assert_eq!(k.name().parse::<StrategyKind>().unwrap(), k);
        }
        assert_eq!(StrategyKind::parse("MCTS").unwrap(), StrategyKind::Mcts);
        let err = StrategyKind::parse("simulated-annealing").unwrap_err();
        assert!(matches!(
            err,
            AutoIndexError::InvalidStrategy { ref name } if name == "simulated-annealing"
        ));
        assert!(err.to_string().contains("simulated-annealing"));
        assert_eq!(StrategyKind::default(), StrategyKind::Mcts);
    }

    #[test]
    fn mcts_via_trait_matches_default_session_byte_for_byte() {
        // The regression gate of the refactor: selecting MCTS explicitly
        // must produce exactly what the legacy (default) call site does.
        let run = |explicit: bool| {
            let mut db = db();
            let mut ai = observed(&db);
            let s = ai.session(&mut db).recommend_only();
            let s = if explicit {
                s.strategy(StrategyKind::Mcts)
            } else {
                s
            };
            let out = s.run().unwrap();
            (
                format!("{:?}", out.report.recommendation),
                out.report.tree_nodes,
            )
        };
        let (legacy, legacy_nodes) = run(false);
        let (explicit, explicit_nodes) = run(true);
        assert_eq!(legacy, explicit, "byte-identical recommendation");
        assert_eq!(legacy_nodes, explicit_nodes);
    }

    #[test]
    fn greedy_via_trait_matches_direct_greedy_select() {
        let db = db();
        let ai = observed(&db);
        let w = ai.workload();
        // Direct baseline call, as the bench harness has always done it.
        let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
        let candidates = CandidateGenerator::new(ai.config.candidates.clone()).generate(
            &w,
            db.catalog(),
            &existing,
        );
        let direct = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &candidates,
            &existing,
            &GreedyConfig::default(),
        );
        // Via the trait.
        let mut strat = GreedyStrategy;
        let proposal = TuningStrategy::<NativeCostEstimator>::propose(
            &mut strat,
            StrategyContext {
                db: &db,
                workload: &w,
                estimator: &NativeCostEstimator,
                config: &ai.config,
            },
        );
        assert_eq!(proposal.recommendation.add, direct);
        assert!(
            proposal.recommendation.remove.is_empty(),
            "greedy never drops"
        );
        assert_eq!(proposal.tree_nodes, 0);
        assert!(proposal.recommendation.est_cost_after <= proposal.recommendation.est_cost_before);
    }

    #[test]
    fn greedy_session_applies_and_reports() {
        let mut db = db();
        let mut ai = observed(&db);
        let out = ai
            .session(&mut db)
            .strategy(StrategyKind::Greedy)
            .run()
            .unwrap();
        assert!(
            !out.report.created.is_empty(),
            "greedy must build something"
        );
        assert_eq!(out.report.tree_nodes, 0, "greedy has no policy tree");
        assert!(out.report.candidates_generated > 0);
        assert!(out.report.evaluations > 0);
        let keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        assert!(keys.contains(&"t(a)".to_string()), "{keys:?}");
    }

    #[test]
    fn strategies_keep_private_state_across_switches() {
        // Running greedy must not disturb the MCTS policy tree; switching
        // back resumes incremental search where it left off.
        let mut db = db();
        let mut ai = observed(&db);
        let out1 = ai.session(&mut db).run().unwrap();
        let nodes_after_mcts = out1.report.tree_nodes;
        assert!(nodes_after_mcts > 0);
        let _ = ai
            .session(&mut db)
            .strategy(StrategyKind::Greedy)
            .recommend_only()
            .run()
            .unwrap();
        let out3 = ai.session(&mut db).recommend_only().run().unwrap();
        assert!(
            out3.report.tree_nodes >= nodes_after_mcts,
            "policy tree survived the greedy interlude"
        );
    }
}
