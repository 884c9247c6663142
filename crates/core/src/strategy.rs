//! The pluggable tuning-strategy API (PR 9).
//!
//! Historically the greedy baseline and the MCTS pipeline were two
//! unrelated code paths: MCTS was baked into `AutoIndex` as *the*
//! recommendation engine, while greedy lived off to the side as a bench
//! helper. This module unifies them (and the new C²UCB bandit of
//! [`crate::bandit`]) behind one trait:
//!
//! * `TuningStrategy` — `propose(round) -> Proposal` computes a
//!   [`Recommendation`] for the round's workload; `observe_reward`
//!   feeds measured post-apply latency back (only the bandit learns
//!   from it — greedy and MCTS are estimator-driven and ignore it).
//! * `Prologue` — what a tuning boundary builds once: the workload (its
//!   shapes shared with the template store) with its template
//!   fingerprints, the existing definitions and the candidates merged from
//!   the templates' kept emissions. Diagnosis prices its "missing
//!   benefit" over it, and when that fires the same value is the round's.
//! * `Round` — what `AutoIndex::recommend` builds over a prologue and
//!   hands to whichever strategy runs: the universe its definitions are
//!   interned in and the round's one [`DeltaPricer`]. A strategy prices
//!   every configuration through it.
//! * [`StrategyKind`] — the validated selector carried by
//!   `AutoIndexConfig::strategy` and
//!   `TuningSession::strategy(..)`; unknown names surface as
//!   [`AutoIndexError::InvalidStrategy`].
//! * [`MctsStrategy`] — the paper's §IV-B pipeline over its
//!   round-persistent policy tree.
//! * [`GreedyStrategy`] — the §VI-A baseline: candidate generation +
//!   standalone-benefit ranking + top-k under the budget, no removal.
//!
//! The default is [`StrategyKind::Mcts`], so every legacy call site —
//! sessions, the online loop, serving, the fleet — keeps its exact
//! behavior unless a caller opts into another strategy.

use crate::bandit::ArmChoice;
use crate::candgen::{CandidateConfig, CandidateGenerator, CandidateStats};
use crate::delta::DeltaPricer;
use crate::error::AutoIndexError;
use crate::greedy;
use crate::mcts::{pressured, ConfigSet, MctsSearch, PolicyTree, Universe};
use crate::system::{AutoIndexConfig, Recommendation};
use crate::templates::{KeptEmission, KeyedWorkload};
use autoindex_estimator::cost_cache::{shape_keys, CostCache};
use autoindex_estimator::{CostEstimator, TemplateWorkload};
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use std::sync::Arc;
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

/// The workload a boundary prices: the templates' shapes, shared with the
/// template store rather than copied, with their weights.
pub(crate) type SharedWorkload = [(Arc<QueryShape>, u64)];

/// What one tuning boundary builds once, for its diagnosis and — when that
/// fires — its round: the workload and its template fingerprints, the
/// database's index definitions in id order, and the candidate generator's
/// output for the two (§IV-A). Passed by value within the boundary; the
/// database does not change between the diagnosis and the round. Every
/// definition is shared: the existing ones with the database, and every
/// universe a boundary interns them into holds the same `Arc`s.
pub(crate) struct Prologue {
    pub(crate) workload: Vec<(Arc<QueryShape>, u64)>,
    /// `shape_key` per template, in workload order.
    pub(crate) shape_keys: Vec<u128>,
    pub(crate) existing: Vec<Arc<IndexDef>>,
    pub(crate) candidates: Vec<Arc<IndexDef>>,
    pub(crate) cand_stats: CandidateStats,
    candgen_time: Duration,
}

impl Prologue {
    /// List `db`'s definitions and produce candidates for `keyed` under
    /// the advisor's `config` — the one generator diagnosis and every
    /// strategy's round are answered from. Each template's emission comes
    /// from its slot while it is current, is emitted afresh and kept
    /// otherwise (`advisor.candidates.{reused,emitted}`), and one merge
    /// against the existing definitions makes the candidates.
    pub(crate) fn new(db: &SimDb, keyed: KeyedWorkload<'_>, config: &CandidateConfig) -> Self {
        let KeyedWorkload {
            workload,
            shape_keys,
            kept,
        } = keyed;
        assert_eq!(workload.len(), kept.len(), "one emission slot per template");
        let existing: Vec<Arc<IndexDef>> = db.shared_indexes().cloned().collect();
        let candgen_started = Instant::now();
        let (catalog, generator) = (db.catalog(), CandidateGenerator::new(config.clone()));
        let mut reused = 0;
        let emissions: Vec<_> = workload
            .iter()
            .zip(&kept)
            .map(|((shape, _), slot)| {
                let (emission, current) = slot.take(shape, &generator, catalog);
                reused += usize::from(current);
                emission
            })
            .collect();
        let (candidates, cand_stats) = generator.merge(
            emissions.iter().flat_map(|e| &e.candidates),
            catalog,
            &existing,
        );
        for (slot, emission) in kept.into_iter().zip(emissions) {
            slot.keep(emission);
        }
        let candgen_time = candgen_started.elapsed();
        let metrics = db.metrics();
        metrics
            .counter("advisor.candidates.emitted")
            .add((workload.len() - reused) as u64);
        metrics
            .counter("advisor.candidates.reused")
            .add(reused as u64);
        Prologue {
            workload,
            shape_keys,
            existing,
            candidates,
            cand_stats,
            candgen_time,
        }
    }

    /// The prologue of an explicit workload (the query-level ablation mode,
    /// the §VI-B Greedy baseline): nobody's templates, so its shapes are
    /// copied once and its emissions kept by no one.
    pub(crate) fn explicit(db: &SimDb, w: &TemplateWorkload, config: &CandidateConfig) -> Self {
        let slots: Vec<KeptEmission> = w.iter().map(|_| KeptEmission::default()).collect();
        let keyed = KeyedWorkload {
            workload: w.iter().map(|(s, n)| (Arc::new(s.clone()), *n)).collect(),
            shape_keys: shape_keys(w),
            kept: slots.iter().collect(),
        };
        Prologue::new(db, keyed, config)
    }

    /// The pricer of this workload over `universe`, memoizing in `cache`:
    /// the one place an advisor's [`DeltaPricer`] is made.
    pub(crate) fn pricer<'a, 'p, E: CostEstimator>(
        &'p self,
        universe: &'a Universe,
        db: &'a SimDb,
        estimator: &'a E,
        cache: &'a CostCache,
        decomposed: bool,
    ) -> DeltaPricer<'a, 'p, E, Arc<QueryShape>> {
        let (workload, keys) = (&self.workload, &self.shape_keys);
        DeltaPricer::new(universe, workload, keys, db, estimator, cache, decomposed)
    }

    /// Diagnosis class (i): the relative workload-cost improvement were
    /// every candidate built, `sum(existing)` against
    /// `sum(existing ∪ candidates)` — with the first as the reference the
    /// second looks up only the templates on a table that has a candidate,
    /// and across boundaries `cache` holds every term whose tables did not
    /// grow. The universe is local (existing in id order, then candidates
    /// in generation order): slot numbers of the advisor's persistent one
    /// feed the search's RNG and policy tree, and a diagnosis must not
    /// number any.
    pub(crate) fn missing_benefit<E: CostEstimator>(
        &self,
        db: &SimDb,
        estimator: &E,
        cache: &CostCache,
        decomposed: bool,
    ) -> f64 {
        if self.candidates.is_empty() || self.workload.is_empty() {
            return 0.0;
        }
        let mut universe = Universe::new();
        let existing = self
            .existing
            .iter()
            .cloned()
            .map(|d| universe.intern(d))
            .collect();
        for d in &self.candidates {
            universe.intern(Arc::clone(d));
        }
        let mut pricer = self.pricer(&universe, db, estimator, cache, decomposed);
        let base = pricer.sum(&existing);
        pricer.rebase();
        let with = pricer.sum(&(0..universe.len()).collect());
        relative_improvement(base, with)
    }
}

/// One tuning round, built once per `AutoIndex::recommend` and handed to
/// the strategy that runs it.
pub(crate) struct Round<'a, 'w, E> {
    pub(crate) db: &'a SimDb,
    pub(crate) workload: &'w SharedWorkload,
    pub(crate) config: &'a AutoIndexConfig,
    /// The database's index definitions, in id order, and their slots.
    pub(crate) existing: &'w [Arc<IndexDef>],
    pub(crate) existing_set: ConfigSet,
    /// The candidate generator's output for `workload` (§IV-A).
    pub(crate) candidates: &'w [Arc<IndexDef>],
    candgen_time: Duration,
    /// Every configuration of the round is priced here, and nowhere else.
    pub(crate) pricer: DeltaPricer<'a, 'w, E, Arc<QueryShape>>,
}

impl<'a, 'w, E: CostEstimator> Round<'a, 'w, E> {
    /// Open a round over the boundary's `prologue`: tally its candidates,
    /// intern the existing definitions, the candidates and `standing` —
    /// what the strategy prices besides them — into `universe`, refresh
    /// the size estimates and open the prologue's pricer over it.
    ///
    /// Slot numbers feed the MCTS RNG's k-th-legal-slot pick and the
    /// policy tree (its nodes are sets of slots), so only an MCTS round is
    /// handed the advisor's persistent universe; a greedy or bandit round
    /// brings one of its own, which keeps a run that mixes strategies
    /// recommending what it always did. No cache key holds a slot, so
    /// `cache` is the advisor's one cache whatever the strategy.
    pub(crate) fn new(
        universe: &'a mut Universe,
        cache: &'a CostCache,
        db: &'a SimDb,
        prologue: &'w Prologue,
        estimator: &'a E,
        config: &'a AutoIndexConfig,
        standing: &[Arc<IndexDef>],
    ) -> Self {
        let (existing, candidates) = (&prologue.existing[..], &prologue.candidates[..]);
        let metrics = db.metrics();
        metrics
            .timer("system.candgen_time")
            .record(prologue.candgen_time);
        metrics
            .counter("system.candidates_generated")
            .add(candidates.len() as u64);
        metrics
            .counter("advisor.candidates.sort_aware")
            .add(prologue.cand_stats.sort_aware as u64);
        metrics
            .counter("advisor.candidates.covering")
            .add(prologue.cand_stats.covering as u64);

        let existing_set = existing
            .iter()
            .cloned()
            .map(|d| universe.intern(d))
            .collect();
        for d in candidates.iter().chain(standing) {
            universe.intern(Arc::clone(d));
        }
        universe.refresh_sizes(db);
        let decomposed = config.mcts.decomposed_eval;
        let pricer = prologue.pricer(universe, db, estimator, cache, decomposed);
        Round {
            db,
            workload: &prologue.workload,
            config,
            existing,
            existing_set,
            candidates,
            candgen_time: prologue.candgen_time,
            pricer,
        }
    }

    /// The round's telemetry so far; the strategy fills in its search.
    pub(crate) fn stats(&self, search_time: Duration) -> RoundStats {
        RoundStats {
            candidates_generated: self.candidates.len(),
            evaluations: self.pricer.evaluations(),
            search_time,
            candgen_time: self.candgen_time,
            ..RoundStats::default()
        }
    }
}

/// The relative cost improvement from `before` to `after`, floored at 0;
/// 0 when `before` is not positive. Every improvement the crate reports
/// or gates on is this one formula, floored or not ([`relative_change`]).
pub(crate) fn relative_improvement(before: f64, after: f64) -> f64 {
    relative_change(before, after).max(0.0)
}

/// [`relative_improvement`] before the floor: negative for a predicted
/// loss, which is what the guard's shadow check rejects.
pub(crate) fn relative_change(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        return 0.0;
    }
    (before - after) / before
}

/// Statistics captured while a recommendation was computed, folded into
/// its `TuningReport` by the session that ran the round.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundStats {
    pub(crate) candidates_generated: usize,
    /// Policy-tree size after the round, stamped by `AutoIndex::recommend`.
    pub(crate) tree_nodes: usize,
    /// Search cache misses + prune/refinement probes.
    pub(crate) evaluations: usize,
    /// Search cache misses only.
    pub(crate) search_evaluations: usize,
    pub(crate) cache_hits: usize,
    pub(crate) search_time: Duration,
    pub(crate) candgen_time: Duration,
}

/// What one [`TuningStrategy::propose`] call produced.
pub(crate) struct Proposal {
    pub(crate) recommendation: Recommendation,
    /// Round telemetry for the `TuningReport`.
    pub(crate) stats: RoundStats,
    /// The bandit's selected arms with their confidence bounds; empty
    /// for greedy/MCTS.
    pub(crate) arms: Vec<ArmChoice>,
}

impl Proposal {
    /// A proposal that changes nothing.
    pub(crate) fn noop(cost: f64, stats: RoundStats) -> Self {
        Proposal {
            recommendation: Recommendation::noop(cost),
            stats,
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
/// MCTS pipeline (policy tree) and the bandit (linear model)
/// *incremental*.
pub(crate) trait TuningStrategy<E: CostEstimator> {
    /// Compute a recommendation for the round's (non-empty) workload,
    /// pricing configurations through `round.pricer` only.
    fn propose(&mut self, round: &mut Round<'_, '_, E>) -> Proposal;

    /// Feed measured post-apply latency back. Estimator-driven
    /// strategies ignore it; the bandit updates its linear model.
    fn observe_reward(&mut self, _reward: &RewardObservation) {}

    /// Definitions the strategy prices besides the existing ones and the
    /// generated candidates; the round interns them too.
    fn standing_arms(&self) -> Vec<Arc<IndexDef>> {
        Vec::new()
    }

    /// Policy-tree size (0 for tree-less strategies).
    fn tree_nodes(&self) -> usize {
        0
    }
}

// -------------------------------------------------------------- greedy

/// The Greedy baseline behind the trait: `greedy::rank` over the round's
/// candidates, then `greedy::select` under the advisor's storage budget.
/// No removal, no improvement gate — the §VI-A method verbatim; the paper
/// harness's Greedy rows are sessions of it over one template per query.
#[derive(Debug, Default)]
pub struct GreedyStrategy;

impl<E: CostEstimator> TuningStrategy<E> for GreedyStrategy {
    fn propose(&mut self, round: &mut Round<'_, '_, E>) -> Proposal {
        let search_started = Instant::now();
        let picked = greedy::select(
            greedy::rank(&mut round.pricer, round.candidates, &round.existing_set),
            greedy::existing_size(round.db, round.existing),
            round.config.storage_budget,
        );
        let est_cost_before = round.pricer.sum(&round.existing_set);
        let universe = round.pricer.universe();
        let mut after = round.existing_set.clone();
        for d in &picked {
            after.insert(universe.slot(d).expect("a picked candidate is interned"));
        }
        let est_cost_after = round.pricer.sum(&after);

        Proposal {
            recommendation: Recommendation {
                add: picked,
                remove: Vec::new(),
                est_cost_before,
                est_cost_after,
            },
            stats: round.stats(search_started.elapsed()),
            arms: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- mcts

/// The paper's recommendation pipeline (§IV-A/B) behind the trait: prune
/// pass, MCTS over the persistent policy tree, add-refinement,
/// minimal-change pass and the improvement gate. The universe its tree's
/// nodes are sets of is the advisor's persistent `Universe`.
#[derive(Default)]
pub struct MctsStrategy {
    tree: PolicyTree,
}

impl MctsStrategy {
    pub fn new() -> Self {
        MctsStrategy::default()
    }
}

/// Visit-count decay applied to the policy tree when a new round begins.
const ROUND_DECAY: f64 = 0.5;

/// Minimum estimated relative improvement to act on (smaller
/// recommendations are noise).
const MIN_IMPROVEMENT: f64 = 0.002;

impl<E: CostEstimator> TuningStrategy<E> for MctsStrategy {
    fn tree_nodes(&self) -> usize {
        self.tree.len()
    }

    fn propose(&mut self, round: &mut Round<'_, '_, E>) -> Proposal {
        let (db, config) = (round.db, round.config);
        let pricer = &mut round.pricer;
        let universe = pricer.universe();
        let pressure = db.pressure_model();
        // A probe's footprint is its accepted configuration's, one index
        // more or less.
        let price = |pricer: &mut DeltaPricer<'_, '_, E, _>, cfg: &ConfigSet, footprint: u64| {
            let sum = pricer.sum(cfg);
            pressured(&pressure, footprint, sum)
        };
        let existing_set = &round.existing_set;
        // Never drop indexes that implement a table's primary key.
        let protected: ConfigSet = existing_set
            .iter()
            .filter(|&s| is_primary_key_index(db, universe.def(s)))
            .collect();

        // Estimator-driven redundant-index prune pass (§III): sequentially
        // try removing existing indexes — least-scanned first — keeping
        // each removal whose (pressure-adjusted) estimated cost increase is
        // within epsilon. Sequential re-evaluation makes the pass safe for
        // mutually-redundant pairs: once one copy is gone, the survivor is
        // no longer removable for free.
        //
        // Every probe is priced by what changed against the configuration
        // accepted last — the pricer's reference follows prune → search
        // start → best — so the prune probes, the MCTS leaves and the
        // refinement hill-climb all share what-if work.
        // Every probe is built in this one buffer and swapped in when
        // accepted.
        let mut trial = ConfigSet::with_capacity(universe.len());
        let mut start_set = existing_set.clone();
        let existing_size = universe.config_size(existing_set);
        if let Some(eps) = config.prune_epsilon {
            let mut start_size = existing_size;
            let mut base = price(pricer, &start_set, start_size);
            pricer.rebase();
            // Least-used first: zero-scan indexes are the cheapest wins.
            let mut order: Vec<(u64, usize)> = db
                .indexes()
                .filter_map(|(id, d)| {
                    let slot = universe.slot(d)?;
                    if protected.contains(slot) {
                        return None;
                    }
                    Some((db.usage().usage(id).scans, slot))
                })
                .collect();
            order.sort();
            for (_, slot) in order {
                let trial_size = match start_set.contains(slot) {
                    true => start_size - universe.size(slot),
                    false => start_size, // two indexes of one identity
                };
                trial.clone_from(&start_set);
                trial.remove(slot);
                let c = price(pricer, &trial, trial_size);
                if c <= base * (1.0 + eps) {
                    pricer.rebase();
                    std::mem::swap(&mut start_set, &mut trial);
                    start_size = trial_size;
                    base = c;
                }
            }
        }

        // MCTS over the persistent policy tree (§IV-B).
        self.tree.begin_round(ROUND_DECAY);
        let search = MctsSearch {
            universe,
            db,
            config: config.mcts.clone(),
            budget: config.storage_budget,
            existing: existing_set.clone(),
            protected,
            start: start_set,
        };
        let outcome = search.run(&mut self.tree, pricer);

        // Local add-refinement pass: the tree search handles interactions,
        // substitutions and removals; a final hill-climb over the remaining
        // candidates ("repeat above steps until ... meeting the performance
        // expectation", §IV-B Remark) guarantees no individually-profitable
        // candidate is left on the table.
        let mut best_config = outcome.best_config;
        let mut best_size = universe.config_size(&best_config);
        let mut best_cost = price(pricer, &best_config, best_size);
        pricer.rebase();
        for _ in 0..2 {
            let mut changed = false;
            for slot in 0..universe.len() {
                if best_config.contains(slot) {
                    continue;
                }
                if let Some(b) = config.storage_budget {
                    if best_size + universe.size(slot) > b {
                        continue;
                    }
                }
                trial.clone_from(&best_config);
                trial.insert(slot);
                let c = price(pricer, &trial, best_size + universe.size(slot));
                // An addition needs a strict improvement (beyond float
                // noise). Because removals tolerate zero regression, any
                // strictly profitable addition cannot be flip-flopped away
                // by a later prune pass while the estimates stand still.
                if c < best_cost * (1.0 - 1e-6) {
                    pricer.rebase();
                    std::mem::swap(&mut best_config, &mut trial);
                    best_cost = c;
                    best_size += universe.size(slot);
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
        if config.prune_epsilon.is_none() {
            for slot in existing_set.iter() {
                if best_config.contains(slot) {
                    continue;
                }
                if let Some(b) = config.storage_budget {
                    if best_size + universe.size(slot) > b {
                        continue;
                    }
                }
                trial.clone_from(&best_config);
                trial.insert(slot);
                let c = price(pricer, &trial, best_size + universe.size(slot));
                if c <= best_cost * (1.0 + 1e-9) {
                    pricer.rebase();
                    std::mem::swap(&mut best_config, &mut trial);
                    best_cost = c.min(best_cost);
                    best_size += universe.size(slot);
                }
            }
        }

        let baseline_cost = price(pricer, existing_set, existing_size);

        // Truthful round telemetry: every configuration the round priced
        // (search cache misses + the prune/refinement probes around them),
        // real phase timings.
        let stats = RoundStats {
            search_evaluations: outcome.evaluations,
            cache_hits: outcome.cache_hits,
            ..round.stats(outcome.elapsed)
        };

        if relative_improvement(baseline_cost, best_cost) < MIN_IMPROVEMENT {
            // A prune-only change (dropping cost-neutral redundant indexes)
            // is worth acting on regardless of the latency improvement —
            // it reclaims storage and write headroom for free, and leaving
            // it pending makes diagnosis re-fire every window (§III removes
            // redundant indexes, not only slow ones).
            let pruned_something = best_config.iter().all(|s| existing_set.contains(s))
                && best_config.len() < existing_set.len();
            if !pruned_something {
                return Proposal::noop(baseline_cost, stats);
            }
        }

        // Diff best configuration against the existing one.
        let mut add = Vec::new();
        let mut remove = Vec::new();
        for slot in best_config.iter() {
            if !existing_set.contains(slot) {
                add.push(universe.def(slot).clone());
            }
        }
        for slot in existing_set.iter() {
            if !best_config.contains(slot) {
                remove.push(universe.def(slot).clone());
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
            arms: Vec::new(),
        }
    }
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
    use autoindex_support::obs::MetricsRegistry;

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
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
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
    fn greedy_round_counts_every_configuration_it_priced() {
        let db = db();
        let ai = observed(&db);
        let (mut universe, cache, prologue) = (Universe::new(), CostCache::new(), ai.prologue(&db));
        let est = NativeCostEstimator;
        let mut round = Round::new(&mut universe, &cache, &db, &prologue, &est, &ai.config, &[]);
        let generated = round.candidates.len();
        assert!(generated > 1);
        let proposal = GreedyStrategy.propose(&mut round);
        assert!(!proposal.recommendation.add.is_empty());
        assert!(
            proposal.recommendation.remove.is_empty(),
            "greedy never drops"
        );
        assert!(proposal.recommendation.est_cost_after <= proposal.recommendation.est_cost_before);
        // Base cost, one probe per candidate, the before- and after-costs:
        // the pricer's count, not a formula beside it.
        assert_eq!(proposal.stats.candidates_generated, generated);
        assert_eq!(proposal.stats.evaluations, generated + 3);
        assert_eq!(proposal.stats.evaluations, round.pricer.evaluations());
    }

    #[test]
    fn mcts_round_counts_every_configuration_it_priced() {
        let mut db = db();
        let mut ai = observed(&db);
        let report = ai.session(&mut db).recommend_only().run().unwrap().report;
        // The search's L1 misses are its share of the pricer's count; the
        // prune, refinement and baseline probes are the rest.
        let misses = db.metrics().counter_value("mcts.eval_cache.misses");
        assert_eq!(report.search_evaluations as u64, misses);
        assert!(report.evaluations > report.search_evaluations);
    }

    #[test]
    fn bandit_round_reports_the_generators_output_and_the_pricers_count() {
        let db = db();
        let mut ai = observed(&db);
        ai.config.bandit.max_arms = 1;
        let mut bandit = crate::bandit::BanditStrategy::new(ai.config.bandit.clone());
        let (mut universe, cache, prologue) = (Universe::new(), CostCache::new(), ai.prologue(&db));
        let est = NativeCostEstimator;
        let mut round = Round::new(&mut universe, &cache, &db, &prologue, &est, &ai.config, &[]);
        let generated = round.candidates.len();
        assert!(generated > 1, "the cap below must bite");
        let proposal = bandit.propose(&mut round);
        assert_eq!(proposal.stats.candidates_generated, generated);
        assert_eq!(
            db.metrics().counter_value("tuner.bandit.arms_considered"),
            1,
            "the counter keeps the count after `max_arms`"
        );
        // Baseline, one prior per arm, the before- and after-costs.
        assert_eq!(proposal.stats.evaluations, generated + 3);
        assert_eq!(proposal.stats.evaluations, round.pricer.evaluations());
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
