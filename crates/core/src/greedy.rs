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
//! estimator as AutoIndex: it runs as [`crate::strategy::GreedyStrategy`],
//! a round's [`rank`] through the round's pricer, then [`select`] under the
//! advisor's storage budget.

use crate::delta::DeltaPricer;
use crate::mcts::ConfigSet;
use autoindex_estimator::CostEstimator;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use std::borrow::Borrow;
use std::sync::Arc;

/// One scored candidate, as ranked by Greedy.
#[derive(Debug, Clone)]
pub(crate) struct ScoredCandidate {
    pub(crate) def: Arc<IndexDef>,
    /// Standalone estimated cost reduction against the existing config.
    pub(crate) benefit: f64,
    /// Estimated size in bytes.
    pub(crate) size: u64,
}

/// Take from the top of a ranking while the budget (`None` = unlimited)
/// lasts, the existing configuration weighing `existing_bytes`.
pub(crate) fn select(
    ranked: Vec<ScoredCandidate>,
    existing_bytes: u64,
    budget: Option<u64>,
) -> Vec<IndexDef> {
    let mut used = existing_bytes;
    ranked
        .into_iter()
        .filter(|c| c.benefit > 0.0)
        .filter_map(|c| {
            // Skip candidates that no longer fit; keep trying smaller ones
            // (standard top-k with knapsack skip).
            if budget.is_some_and(|b| used + c.size > b) {
                return None;
            }
            used += c.size;
            Some(Arc::unwrap_or_clone(c.def))
        })
        .collect()
}

/// Each candidate's standalone benefit through a round's pricer, beside
/// the cost of `base`: a candidate's benefit is `sum(base) − sum(base ∪
/// {c})`, and with `base` — the existing configuration — as the reference
/// the second sum looks up only the templates on `c`'s table. In candidate
/// order: the bandit's arm sort is stable and a GLOBAL / LOCAL pair shares
/// a key, so the order it is handed decides between them.
pub(crate) fn standalone<E: CostEstimator, S: Borrow<QueryShape>>(
    pricer: &mut DeltaPricer<'_, '_, E, S>,
    candidates: &[Arc<IndexDef>],
    base: &ConfigSet,
) -> (f64, Vec<ScoredCandidate>) {
    let universe = pricer.universe();
    let base_cost = pricer.sum(base);
    pricer.rebase();
    let scored = candidates
        .iter()
        .map(|c| {
            let slot = universe.slot(c).expect("the round interned its candidates");
            let mut with = base.clone();
            with.insert(slot);
            ScoredCandidate {
                def: Arc::clone(c),
                benefit: base_cost - pricer.sum(&with),
                size: universe.size(slot),
            }
        })
        .collect();
    (base_cost, scored)
}

/// Rank `candidates` by [`standalone`] benefit (descending, then by key).
pub(crate) fn rank<E: CostEstimator, S: Borrow<QueryShape>>(
    pricer: &mut DeltaPricer<'_, '_, E, S>,
    candidates: &[Arc<IndexDef>],
    base: &ConfigSet,
) -> Vec<ScoredCandidate> {
    let (_, mut scored) = standalone(pricer, candidates, base);
    scored.sort_by(|a, b| {
        b.benefit
            .partial_cmp(&a.benefit)
            .expect("benefits are finite")
            .then_with(|| a.def.key().cmp(&b.def.key()))
    });
    scored
}

pub(crate) fn existing_size(db: &SimDb, existing: &[Arc<IndexDef>]) -> u64 {
    existing
        .iter()
        .filter_map(|d| db.index_size_bytes(d).ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::Universe;
    use crate::strategy::{Prologue, Round, StrategyKind};
    use crate::system::{AutoIndex, AutoIndexConfig};
    use autoindex_estimator::cost_cache::CostCache;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;
    use autoindex_support::prop::{property, PropConfig};
    use autoindex_support::prop_assert_eq;

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

    fn workload<S: AsRef<str>>(db: &SimDb, sqls: &[(S, u64)]) -> Vec<(QueryShape, u64)> {
        sqls.iter()
            .map(|(s, n)| {
                let stmt = parse_statement(s.as_ref()).unwrap();
                (QueryShape::extract(&stmt, db.catalog()), *n)
            })
            .collect()
    }

    /// [`rank`] of `cands` over a round of `w` on `db`, the round interning
    /// them besides the generator's candidates.
    fn ranked(db: &SimDb, w: &[(QueryShape, u64)], cands: &[IndexDef]) -> Vec<ScoredCandidate> {
        let cands: Vec<Arc<IndexDef>> = cands.iter().cloned().map(Arc::new).collect();
        let config = AutoIndexConfig::default();
        let prologue = Prologue::explicit(db, w, &config.candidates);
        let (mut universe, cache, est) = (Universe::new(), CostCache::new(), NativeCostEstimator);
        let mut round = Round::new(&mut universe, &cache, db, &prologue, &est, &config, &cands);
        rank(&mut round.pricer, &cands, &round.existing_set)
    }

    /// [`select`] from the top of [`ranked`], unlimited.
    fn picked(db: &SimDb, w: &[(QueryShape, u64)], cands: &[IndexDef]) -> Vec<IndexDef> {
        let existing: Vec<Arc<IndexDef>> = db.shared_indexes().cloned().collect();
        select(ranked(db, w, cands), existing_size(db, &existing), None)
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
        let ranked = ranked(&db, &w, &cands);
        assert_eq!(ranked[0].def.key(), "t(a)");
        assert!(ranked[0].benefit > ranked[1].benefit);
    }

    #[test]
    fn budget_limits_selection_but_smaller_still_fit() {
        let mut db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 90),
            ],
        );
        let one = db.index_size_bytes(&IndexDef::new("t", &["a"])).unwrap();
        let config = AutoIndexConfig {
            storage_budget: Some(one + one / 2),
            ..AutoIndexConfig::default()
        };
        let mut ai = AutoIndex::new(config, NativeCostEstimator);
        let session = ai.session(&mut db).workload(&w);
        let session = session.strategy(StrategyKind::Greedy).recommend_only();
        let rec = session.run().unwrap().report.recommendation;
        let keys: Vec<String> = rec.add.iter().map(IndexDef::key).collect();
        assert_eq!(keys, ["t(a)"]);
    }

    #[test]
    fn zero_benefit_candidates_skipped() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        // c has ndv 100 over 1M rows; index scan loses to seq scan, so the
        // candidate has zero standalone benefit.
        assert!(picked(&db, &w, &[IndexDef::new("t", &["c"])]).is_empty());
    }

    #[test]
    fn greedy_picks_redundant_overlapping_indexes() {
        // The structural weakness MCTS fixes: both t(a) and t(a,b) have
        // huge standalone benefits, so Greedy takes both — wasting budget —
        // even though either one subsumes the other for this workload.
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["a", "b"])];
        assert_eq!(
            picked(&db, &w, &cands).len(),
            2,
            "greedy cannot see substitution"
        );
    }

    #[test]
    fn benefit_measured_against_existing_config() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a", "b"])).unwrap();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        // With the composite already present, the single-column prefix adds
        // nothing.
        assert!(picked(&db, &w, &[IndexDef::new("t", &["a"])]).is_empty());
    }

    /// Over random workloads and existing indexes on one table: every
    /// benefit [`rank`] prices through the round's pricer is, bit for bit,
    /// the whole-workload `cost(existing) − cost(existing ∪ {c})`, and the
    /// ranking is that of those benefits.
    #[test]
    fn rank_benefits_equal_the_naive_ranking() {
        const COLS: [&str; 3] = ["a", "b", "c"];
        property(
            "rank_benefits_equal_the_naive_ranking",
            PropConfig::default().cases(64),
            |rng, _| {
                let mut db = db();
                for _ in 0..rng.random_range(0usize..3) {
                    let c = COLS[rng.random_range(0usize..3)];
                    let _ = db.create_index(IndexDef::new("t", &[c]));
                }
                let sqls: Vec<(String, u64)> = (0..rng.random_range(1usize..6))
                    .map(|_| {
                        let c1 = COLS[rng.random_range(0usize..3)];
                        let c2 = COLS[rng.random_range(0usize..3)];
                        let sql = match rng.random_range(0u32..3) {
                            0 => format!("SELECT * FROM t WHERE {c1} = 1 AND {c2} = 2"),
                            1 => format!("SELECT * FROM t WHERE {c1} = 1 OR {c2} = 2"),
                            _ => format!("UPDATE t SET {c1} = 3 WHERE {c2} = 4"),
                        };
                        (sql, rng.random_range(1u64..50))
                    })
                    .collect();
                let w = workload(&db, &sqls);
                let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
                let config = AutoIndexConfig::default().candidates;
                let candidates: Vec<IndexDef> = Prologue::explicit(&db, &w, &config)
                    .candidates
                    .into_iter()
                    .map(Arc::unwrap_or_clone)
                    .collect();

                let est = NativeCostEstimator;
                let base = est.workload_cost(&db, &w, &existing);
                let mut naive: Vec<(f64, &IndexDef)> = candidates
                    .iter()
                    .map(|c| {
                        let with = est.workload_cost(&db, &w, existing.iter().chain(Some(c)));
                        (base - with, c)
                    })
                    .collect();
                naive.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap()
                        .then_with(|| a.1.key().cmp(&b.1.key()))
                });
                let naive: Vec<(String, u64)> =
                    naive.iter().map(|(b, c)| (c.key(), b.to_bits())).collect();
                let got: Vec<(String, u64)> = ranked(&db, &w, &candidates)
                    .iter()
                    .map(|c| (c.def.key(), c.benefit.to_bits()))
                    .collect();
                prop_assert_eq!(got, naive);
                Ok(())
            },
        );
    }
}
