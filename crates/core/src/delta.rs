//! Decomposed delta-cost workload evaluation.
//!
//! `workload_cost(config)` is a weighted sum of per-template terms, and
//! each term only depends on the *projection* of `config` onto the tables
//! its [`QueryShape`] touches (the planner prices access paths, bitmap-OR
//! combinations and write maintenance exclusively from same-table
//! indexes). [`DeltaWorkload`] precomputes, per template, a slot *mask* —
//! the universe slots whose index lives on a touched table — so that
//! pricing a configuration reduces to:
//!
//! ```text
//! cost(config) = Σ_t  memo[(t, config ∩ mask_t)] · weight_t
//! ```
//!
//! with `memo` a shared [`CostCache`] ([`cost_cache::DOMAIN_SLOTS`] key
//! space). Two configurations that differ by one index re-plan only the
//! templates on that index's table; sibling configurations in the MCTS
//! policy tree share almost every term; and the prune / refinement /
//! search phases of one tuning round all hit the same memo.
//!
//! The decomposition is *bitwise exact*: term order equals workload
//! order, each term is `shape_cost * weight` exactly as the naive
//! [`CostEstimator::workload_cost`] computes it, and projection invariance
//! of the planner makes `shape_cost(shape, projected)` bit-equal to
//! `shape_cost(shape, full)` (property-tested in `tests/proptests.rs`).

use autoindex_estimator::cost_cache::{
    self, shape_key, shape_touches, CacheKey, CostCache, CostCacheStats,
};
use autoindex_estimator::CostEstimator;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;

use crate::mcts::{ConfigSet, Universe};

/// One per-template term of a decomposed workload.
#[derive(Debug)]
pub struct DeltaTerm<'w> {
    /// 128-bit template fingerprint ([`shape_key`]).
    pub key: u128,
    /// The template shape (borrowed from the round's workload).
    pub shape: &'w QueryShape,
    /// Repetition count as a float weight.
    pub weight: f64,
    /// Universe slots whose index is on a table this shape touches.
    pub mask: ConfigSet,
}

/// A workload prepared for delta-cost evaluation against one [`Universe`].
///
/// Build once per tuning round (after candidate interning), then price
/// arbitrarily many configurations through a shared [`CostCache`].
#[derive(Debug)]
pub struct DeltaWorkload<'w> {
    terms: Vec<DeltaTerm<'w>>,
}

impl<'w> DeltaWorkload<'w> {
    /// Decompose `workload`, computing each template's slot mask against
    /// `universe`. Slots are stable across rounds, but new candidates may
    /// appear — rebuild per round (cheap: one table-membership scan per
    /// (template, slot) pair).
    pub fn new(universe: &Universe, workload: &'w [(QueryShape, u64)]) -> Self {
        let terms = workload
            .iter()
            .map(|(shape, n)| {
                let mut mask = ConfigSet::default();
                for slot in 0..universe.len() {
                    if shape_touches(shape, &universe.def(slot).table) {
                        mask.insert(slot);
                    }
                }
                DeltaTerm {
                    key: shape_key(shape),
                    shape,
                    weight: *n as f64,
                    mask,
                }
            })
            .collect();
        DeltaWorkload { terms }
    }

    /// The per-template terms, in workload order.
    pub fn terms(&self) -> &[DeltaTerm<'w>] {
        &self.terms
    }

    /// Cache key of `term` under `config`: the fingerprint of the
    /// configuration projected onto the term's mask (slot domain). The
    /// projection itself is only built on a miss.
    pub fn term_key(term: &DeltaTerm<'_>, config: &ConfigSet) -> CacheKey {
        CacheKey {
            shape_key: term.key,
            config_fp: config.intersect_fingerprint(&term.mask),
            domain: cost_cache::DOMAIN_SLOTS,
        }
    }

    /// Memoized workload cost of `config` (no buffer-pressure multiplier —
    /// callers apply that to the sum, exactly as the naive evaluator
    /// does). Bitwise equal to
    /// `estimator.workload_cost(db, workload, &universe.config_defs(config))`.
    pub fn cost<E: CostEstimator>(
        &self,
        db: &SimDb,
        estimator: &E,
        universe: &Universe,
        config: &ConfigSet,
        cache: &CostCache,
        stats: &CostCacheStats,
    ) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                cache.get_or_insert_with(Self::term_key(t, config), stats, || {
                    let proj = config.intersect(&t.mask);
                    estimator.shape_cost(db, t.shape, universe.config_defs(&proj))
                }) * t.weight
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::index::IndexDef;
    use autoindex_storage::SimDbConfig;
    use autoindex_support::obs::MetricsRegistry;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 1_000_000)
                .column(Column::int("a", 1_000_000))
                .column(Column::int("b", 5_000))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("u", 300_000)
                .column(Column::int("x", 300_000))
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
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
    fn masks_cover_exactly_the_touched_tables() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 1", 10),
                ("SELECT * FROM u WHERE x = 2", 5),
            ],
        );
        let mut universe = Universe::new();
        let st = universe.intern(&IndexDef::new("t", &["a"]));
        let su = universe.intern(&IndexDef::new("u", &["x"]));
        let dw = DeltaWorkload::new(&universe, &w);
        assert_eq!(dw.terms().len(), 2);
        assert!(dw.terms()[0].mask.contains(st) && !dw.terms()[0].mask.contains(su));
        assert!(dw.terms()[1].mask.contains(su) && !dw.terms()[1].mask.contains(st));
        assert_eq!(dw.terms()[0].weight, 10.0);
    }

    #[test]
    fn delta_cost_is_bitwise_equal_to_naive_and_shares_terms() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 1", 10),
                ("SELECT * FROM t WHERE b = 2", 3),
                ("SELECT * FROM u WHERE x = 2", 5),
            ],
        );
        let mut universe = Universe::new();
        let st = universe.intern(&IndexDef::new("t", &["a"]));
        let su = universe.intern(&IndexDef::new("u", &["x"]));
        universe.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let stats = CostCacheStats::bind(&m);
        let dw = DeltaWorkload::new(&universe, &w);

        let configs: Vec<ConfigSet> = vec![
            ConfigSet::default(),
            [st].into_iter().collect(),
            [st, su].into_iter().collect(),
            [su].into_iter().collect(),
        ];
        for cfg in &configs {
            let naive = est.workload_cost(&db, &w, universe.config_defs(cfg));
            let fast = dw.cost(&db, &est, &universe, cfg, &cache, &stats);
            assert_eq!(naive.to_bits(), fast.to_bits());
        }
        // 4 configs x 3 terms = 12 lookups. Unique (term, projection)
        // pairs: t-terms each see {∅, {st}} (2x2=4), u-term sees {∅, {su}}
        // (2) => 6 misses, 6 hits.
        assert_eq!(m.counter_value("estimator.cost_cache.misses"), 6);
        assert_eq!(m.counter_value("estimator.cost_cache.hits"), 6);
    }
}
