//! The Greedy baseline (§VI-A).
//!
//! "Greedy greedily selected indexes with the highest benefits until
//! arriving resource limit." Each candidate's benefit is estimated
//! *standalone* against the current configuration — the method evaluates
//! single indexes, never combinations, which is precisely the weakness the
//! policy-tree search addresses: it cannot see substitution (two
//! overlapping indexes both look great), it cannot trade a big redundant
//! index for two small complementary ones, and it never removes anything.
//!
//! To keep the comparison fair (§VI-A), Greedy uses the *same* cost
//! estimator as AutoIndex.

use crate::delta::DeltaPricer;
use crate::mcts::{ConfigSet, Universe};
use autoindex_estimator::cost_cache::{shape_keys, CostCache};
use autoindex_estimator::{CostEstimator, TemplateWorkload};
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use std::borrow::Borrow;

/// Greedy parameters.
#[derive(Debug, Clone, Default)]
pub struct GreedyConfig {
    /// Storage budget in bytes for *added* indexes plus existing ones
    /// (`None` = unlimited).
    pub budget: Option<u64>,
    /// Optional cap on the number of added indexes.
    pub max_indexes: Option<usize>,
}

/// One scored candidate, as ranked by Greedy.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    pub def: IndexDef,
    /// Standalone estimated cost reduction against the existing config.
    pub benefit: f64,
    /// Estimated size in bytes.
    pub size: u64,
}

/// Select indexes greedily: rank candidates by standalone benefit, take
/// from the top while the budget lasts. Returns the added definitions.
pub fn greedy_select<E: CostEstimator>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    candidates: &[IndexDef],
    existing: &[IndexDef],
    config: &GreedyConfig,
) -> Vec<IndexDef> {
    let ranked = rank_candidates(db, estimator, workload, candidates, existing);
    select(ranked, existing_size(db, existing), config)
}

/// Rank candidates by standalone benefit (descending).
pub fn rank_candidates<E: CostEstimator>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    candidates: &[IndexDef],
    existing: &[IndexDef],
) -> Vec<ScoredCandidate> {
    // No advisor: a universe and a term cache of this call's own.
    let mut universe = Universe::new();
    for d in existing.iter().chain(candidates) {
        universe.intern(d);
    }
    universe.refresh_sizes(db);
    let (keys, cache) = (shape_keys(workload), CostCache::new());
    let mut pricer = DeltaPricer::new(&universe, workload, &keys, db, estimator, &cache, true);
    rank(&mut pricer, candidates, &universe.config_of(existing))
}

/// Take from the top of a ranking while the budget lasts, the existing
/// configuration weighing `existing_bytes`.
pub(crate) fn select(
    ranked: Vec<ScoredCandidate>,
    existing_bytes: u64,
    config: &GreedyConfig,
) -> Vec<IndexDef> {
    ranked
        .into_iter()
        .filter(|c| c.benefit > 0.0)
        .scan((existing_bytes, 0usize), |(used, count), c| {
            if let Some(max) = config.max_indexes {
                if *count >= max {
                    return None;
                }
            }
            if let Some(b) = config.budget {
                if *used + c.size > b {
                    // Skip candidates that no longer fit; keep trying
                    // smaller ones (standard top-k with knapsack skip).
                    return Some(None);
                }
            }
            *used += c.size;
            *count += 1;
            Some(Some(c.def))
        })
        .flatten()
        .collect()
}

/// [`rank_candidates`] through a round's pricer: a candidate's benefit is
/// `sum(base) − sum(base ∪ {c})`, and with `base` — the existing
/// configuration — as the reference the second sum looks up only the
/// templates on `c`'s table.
pub(crate) fn rank<E: CostEstimator, S: Borrow<QueryShape>>(
    pricer: &mut DeltaPricer<'_, '_, E, S>,
    candidates: &[IndexDef],
    base: &ConfigSet,
) -> Vec<ScoredCandidate> {
    let universe = pricer.universe();
    let base_cost = pricer.sum(base);
    pricer.rebase();
    let mut scored: Vec<ScoredCandidate> = candidates
        .iter()
        .map(|c| {
            let slot = universe.slot(c).expect("the round interned its candidates");
            let mut with = base.clone();
            with.insert(slot);
            ScoredCandidate {
                def: c.clone(),
                benefit: base_cost - pricer.sum(&with),
                size: universe.size(slot),
            }
        })
        .collect();
    sort_scored(&mut scored);
    scored
}

fn sort_scored(scored: &mut [ScoredCandidate]) {
    scored.sort_by(|a, b| {
        b.benefit
            .partial_cmp(&a.benefit)
            .expect("benefits are finite")
            .then_with(|| a.def.key().cmp(&b.def.key()))
    });
}

pub(crate) fn existing_size(db: &SimDb, existing: &[IndexDef]) -> u64 {
    existing
        .iter()
        .filter_map(|d| db.index_size_bytes(d).ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 1_000_000)
                .column(Column::int("a", 1_000_000))
                .column(Column::int("b", 5_000))
                .column(Column::int("c", 100))
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
    }

    fn workload(db: &SimDb, sqls: &[(&str, u64)]) -> Vec<(QueryShape, u64)> {
        sqls.iter()
            .map(|(s, n)| {
                (
                    QueryShape::extract(&parse_statement(s).unwrap(), db.catalog()),
                    *n,
                )
            })
            .collect()
    }

    #[test]
    fn picks_highest_benefit_first() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 2),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let ranked = rank_candidates(&db, &NativeCostEstimator, &w, &cands, &[]);
        assert_eq!(ranked[0].def.key(), "t(a)");
        assert!(ranked[0].benefit > ranked[1].benefit);
    }

    #[test]
    fn budget_limits_selection_but_smaller_still_fit() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 90),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let one = db.index_size_bytes(&cands[0]).unwrap();
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig {
                budget: Some(one + one / 2),
                max_indexes: None,
            },
        );
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].key(), "t(a)");
    }

    #[test]
    fn zero_benefit_candidates_skipped() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        // c has ndv 100 over 1M rows; index scan loses to seq scan, so the
        // candidate has zero standalone benefit.
        let cands = [IndexDef::new("t", &["c"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig::default(),
        );
        assert!(picked.is_empty());
    }

    #[test]
    fn greedy_picks_redundant_overlapping_indexes() {
        // The structural weakness MCTS fixes: both t(a) and t(a,b) have
        // huge standalone benefits, so Greedy takes both — wasting budget —
        // even though either one subsumes the other for this workload.
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["a", "b"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig::default(),
        );
        assert_eq!(picked.len(), 2, "greedy cannot see substitution");
    }

    #[test]
    fn max_indexes_cap() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 90),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig {
                budget: None,
                max_indexes: Some(1),
            },
        );
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn benefit_measured_against_existing_config() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        let existing = [IndexDef::new("t", &["a", "b"])];
        // With the composite already present, the single-column prefix adds
        // nothing.
        let cands = [IndexDef::new("t", &["a"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &existing,
            &GreedyConfig::default(),
        );
        assert!(picked.is_empty());
    }
}
