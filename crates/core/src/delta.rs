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
//! with `memo` the advisor's one [`CostCache`], keyed by what the planner
//! is given — the template, the projection's definitions in slot order and
//! the touched tables' growth stamps — so a term outlives the round, the
//! universe and every catalog change that is not growth of its own tables.
//! Two configurations that differ by one index share every term except the
//! ones on that index's table, so [`DeltaPricer`] prices a configuration
//! *relative to a reference* whose per-term values it holds:
//! the slots where the two differ name — through the workload's
//! slot → terms index — the only terms whose key can have moved, and only
//! those are keyed and looked up. Every other term is carried from the
//! reference: it would have been a cache hit, and is counted as one.
//!
//! The decomposition is *bitwise exact*: the sum runs over every term in
//! workload order, each term is `shape_cost * weight` exactly as the naive
//! [`CostEstimator::workload_cost`] computes it, and projection invariance
//! of the planner makes `shape_cost(shape, projected)` bit-equal to
//! `shape_cost(shape, full)` (property-tested in `tests/proptests.rs`).
//! Misses are evaluated as they are met, in configuration-then-term order
//! whatever the reference, on the calling thread, so the what-if call
//! sequence does not depend on it either.

use std::borrow::Borrow;
use std::collections::HashMap;

use autoindex_estimator::cost_cache::{CacheKey, CostCache, CostCacheStats};
use autoindex_estimator::CostEstimator;
use autoindex_storage::catalog::{Catalog, Table};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::obs::Counter;

use crate::mcts::{full_word, word_slots, ConfigSet, Universe};

/// One per-template term of a decomposed workload.
#[derive(Debug)]
pub struct DeltaTerm<'w> {
    /// 128-bit template fingerprint
    /// ([`autoindex_estimator::cost_cache::shape_key`]).
    pub key: u128,
    /// Fold of the growth stamps of the tables this shape touches.
    pub stamps: u64,
    /// The template shape (borrowed from the round's workload).
    pub shape: &'w QueryShape,
    /// Repetition count as a float weight.
    pub weight: f64,
    /// Universe slots whose index is on a table this shape touches.
    pub mask: ConfigSet,
}

/// A workload prepared for delta-cost evaluation against one [`Universe`].
///
/// Built once per pricer (after candidate interning) by the
/// [`DeltaPricer`], which prices arbitrarily many configurations over it.
#[derive(Debug)]
pub struct DeltaWorkload<'w> {
    terms: Vec<DeltaTerm<'w>>,
    /// Per touched table, the terms touching it (ascending term index).
    table_terms: Vec<Vec<u32>>,
    /// Universe slot → its table's entry in `table_terms`; `None` when no
    /// template touches that table.
    slot_table: Vec<Option<u32>>,
}

impl<'w> DeltaWorkload<'w> {
    /// Decompose `workload` against `universe`: a table → terms map from
    /// the shapes' table atoms, then one pass over the slots that fills
    /// both the slot → terms index and each template's slot mask (made at
    /// the universe's full width, so filling it never reallocates). Slots
    /// are stable across rounds, but new candidates may appear — rebuild
    /// per round. `shape_keys` are the templates' fingerprints, in
    /// workload order (the template store keeps them; nothing is formatted
    /// here), and `catalog` supplies the touched tables' growth stamps.
    pub fn new<S: Borrow<QueryShape>>(
        universe: &Universe,
        workload: &'w [(S, u64)],
        shape_keys: &[u128],
        catalog: &Catalog,
    ) -> Self {
        assert_eq!(workload.len(), shape_keys.len(), "one key per template");
        let mut table_ids: HashMap<&str, u32> = HashMap::new();
        let mut table_terms: Vec<Vec<u32>> = Vec::new();
        let mut table_stamps: Vec<u64> = Vec::new();
        let mut terms: Vec<DeltaTerm<'w>> = Vec::with_capacity(workload.len());
        for (t, ((shape, n), key)) in workload.iter().zip(shape_keys).enumerate() {
            let shape: &'w QueryShape = shape.borrow();
            let mut stamps = FNV_OFFSET;
            for atom in &shape.tables {
                let id = *table_ids.entry(atom.table.as_str()).or_insert_with(|| {
                    table_terms.push(Vec::new());
                    table_stamps.push(catalog.table(&atom.table).map_or(0, Table::stamp));
                    table_terms.len() as u32 - 1
                });
                stamps = fnv1a_from(stamps, &table_stamps[id as usize].to_le_bytes());
                let on_table = &mut table_terms[id as usize];
                // A self-join lists its table twice.
                if on_table.last() != Some(&(t as u32)) {
                    on_table.push(t as u32);
                }
            }
            terms.push(DeltaTerm {
                key: *key,
                stamps,
                shape,
                weight: *n as f64,
                mask: ConfigSet::with_capacity(universe.len()),
            });
        }
        let slot_table: Vec<Option<u32>> = (0..universe.len())
            .map(|slot| {
                let id = table_ids.get(universe.def(slot).table.as_str()).copied();
                if let Some(id) = id {
                    for &t in &table_terms[id as usize] {
                        terms[t as usize].mask.insert(slot);
                    }
                }
                id
            })
            .collect();
        DeltaWorkload {
            terms,
            table_terms,
            slot_table,
        }
    }

    /// The per-template terms, in workload order.
    pub fn terms(&self) -> &[DeltaTerm<'w>] {
        &self.terms
    }

    /// The terms whose mask holds `slot` (ascending): the only terms an
    /// index at that slot can move.
    pub fn slot_terms(&self, slot: usize) -> &[u32] {
        match self.slot_table[slot] {
            Some(id) => &self.table_terms[id as usize],
            None => &[],
        }
    }

    /// Cache key of `term` under `config`: the template, the definitions
    /// of `config` on its tables in `universe`'s slot order, and its
    /// tables' stamps. The projection itself is never built.
    pub fn term_key(universe: &Universe, term: &DeltaTerm<'_>, config: &ConfigSet) -> CacheKey {
        CacheKey {
            shape_key: term.key,
            config_fp: universe.projection_fingerprint(config, &term.mask),
            stamps: term.stamps,
        }
    }
}

/// One keyed-and-looked-up term of a priced configuration.
struct Lookup {
    term: u32,
    value: f64,
}

/// A tuning round's one way to price a configuration: the workload's
/// per-template terms summed by what changed against a *reference*
/// configuration whose values it holds, and a count of the configurations
/// priced. What a strategy makes of a sum is its own: the MCTS pipeline
/// weighs it by the buffer pressure of the configuration's footprint
/// ([`autoindex_storage::PressureModel`]), greedy and the bandit take it
/// as it is.
///
/// Until [`DeltaPricer::rebase`] is first called there is no reference and
/// every term of a configuration is looked up — the full pass. Each
/// [`DeltaPricer::sum`] is bitwise equal to
/// `estimator.workload_cost(db, workload, universe.config_defs(config))`,
/// and with `decomposed` off it *is* that call: the whole-workload oracle
/// the term arithmetic is checked against (`MctsConfig::decomposed_eval`).
/// `S` is how the workload holds its shapes: owned, or shared with the
/// template store (`Arc<QueryShape>`).
pub struct DeltaPricer<'a, 'w, E, S = QueryShape> {
    delta: DeltaWorkload<'w>,
    workload: &'w [(S, u64)],
    db: &'a SimDb,
    estimator: &'a E,
    universe: &'a Universe,
    cache: &'a CostCache,
    decomposed: bool,
    evaluations: usize,
    stats: CostCacheStats,
    looked_up: Counter,
    carried: Counter,
    /// The reference configuration, once `rebase` has adopted one, and
    /// its per-term values.
    reference: Option<ConfigSet>,
    values: Vec<f64>,
    // Scratch, reused from batch to batch.
    marks: Vec<u64>,
    lookups: Vec<Lookup>,
    /// End of each batch member's run in `lookups`.
    ends: Vec<usize>,
    sums: Vec<f64>,
    /// The configuration priced last (what `rebase` adopts).
    last: ConfigSet,
}

impl<'a, 'w, E: CostEstimator, S: Borrow<QueryShape>> DeltaPricer<'a, 'w, E, S> {
    /// A pricer of `workload` — `shape_keys` its templates' fingerprints,
    /// in order — over `universe`, without a reference. Terms are memoized
    /// in `cache`, which is swept here of what this workload can no longer
    /// reach if the catalog moved since its last sweep; counters bind on
    /// `db`'s registry.
    pub fn new(
        universe: &'a Universe,
        workload: &'w [(S, u64)],
        shape_keys: &[u128],
        db: &'a SimDb,
        estimator: &'a E,
        cache: &'a CostCache,
        decomposed: bool,
    ) -> Self {
        let metrics = db.metrics();
        let delta = DeltaWorkload::new(universe, workload, shape_keys, db.catalog());
        let n = delta.terms.len();
        let stats = CostCacheStats::bind(metrics);
        let live = || delta.terms.iter().map(|t| (t.key, t.stamps)).collect();
        stats
            .swept
            .add(cache.sweep(db.catalog().version(), live) as u64);
        DeltaPricer {
            delta,
            workload,
            db,
            estimator,
            universe,
            cache,
            decomposed,
            evaluations: 0,
            stats,
            looked_up: metrics.counter("delta.terms.looked_up"),
            carried: metrics.counter("delta.terms.carried"),
            reference: None,
            values: vec![0.0; n],
            marks: vec![0; n.div_ceil(64)],
            lookups: Vec::new(),
            ends: Vec::new(),
            sums: Vec::new(),
            last: ConfigSet::default(),
        }
    }

    /// The universe whose slots the priced configurations are sets of.
    pub fn universe(&self) -> &'a Universe {
        self.universe
    }

    /// Configurations priced so far, however many of their terms were
    /// looked up.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Workload cost of one configuration.
    pub fn sum(&mut self, config: &ConfigSet) -> f64 {
        self.sum_batch(std::iter::once(config))[0]
    }

    /// Adopt the configuration priced last as the reference: the terms it
    /// looked up overwrite the held values, everything else already agrees.
    pub fn rebase(&mut self) {
        if !self.decomposed {
            return;
        }
        assert!(!self.ends.is_empty(), "rebase needs a priced configuration");
        let from = self.ends.len().checked_sub(2).map_or(0, |i| self.ends[i]);
        for l in &self.lookups[from..] {
            self.values[l.term as usize] = l.value;
        }
        self.reference
            .get_or_insert_with(ConfigSet::default)
            .clone_from(&self.last);
    }

    /// [`DeltaPricer::sum`] of a batch, in batch order.
    ///
    /// Look up: key the moved terms of each member and look them up — the
    /// first occurrence of a missing `(template, projection)` term is a
    /// miss, evaluated there (the only planner work) and cached; repeats —
    /// within the batch or from before — and every carried term are hits.
    /// Assemble: sum each member over *every* term in workload order, moved
    /// values substituted into the reference's — the same FP operations in
    /// the same order as the naive evaluator.
    pub fn sum_batch<'c>(&mut self, batch: impl IntoIterator<Item = &'c ConfigSet>) -> &[f64] {
        self.sums.clear();
        let (db, estimator, universe) = (self.db, self.estimator, self.universe);
        if !self.decomposed {
            for cfg in batch {
                self.evaluations += 1;
                self.sums.push(estimator.workload_cost(
                    db,
                    self.workload,
                    universe.config_defs(cfg),
                ));
            }
            return &self.sums;
        }
        let delta = &self.delta;
        let n = delta.terms.len();
        self.lookups.clear();
        self.ends.clear();

        let mut last = None;
        for cfg in batch {
            last = Some(cfg);
            self.evaluations += 1;
            match &self.reference {
                Some(reference) => {
                    for slot in cfg.symmetric_difference(reference) {
                        for &t in delta.slot_terms(slot) {
                            self.marks[t as usize / 64] |= 1 << (t % 64);
                        }
                    }
                }
                None => {
                    for (w, word) in self.marks.iter_mut().enumerate() {
                        *word = full_word(n, w);
                    }
                }
            }
            let from = self.lookups.len();
            let mut misses = 0u64;
            for w in 0..self.marks.len() {
                for t in word_slots(w, std::mem::take(&mut self.marks[w])) {
                    let term = &delta.terms[t];
                    let key = DeltaWorkload::term_key(universe, term, cfg);
                    let value = self.cache.get(&key).unwrap_or_else(|| {
                        misses += 1;
                        let proj = cfg.intersection(&term.mask).map(|s| universe.def(s));
                        let value = estimator.shape_cost(db, term.shape, proj);
                        self.cache.insert(key, value);
                        value
                    });
                    self.lookups.push(Lookup {
                        term: t as u32,
                        value,
                    });
                }
            }
            let looked_up = (self.lookups.len() - from) as u64;
            // A carried term is an evaluation avoided, like a looked-up hit.
            self.stats.hits.add(n as u64 - misses);
            if misses > 0 {
                self.stats.misses.add(misses);
            }
            self.looked_up.add(looked_up);
            self.carried.add(n as u64 - looked_up);
            self.ends.push(self.lookups.len());
        }
        if let Some(cfg) = last {
            self.last.clone_from(cfg);
        }

        let mut from = 0;
        for &end in &self.ends {
            let moved = &mut self.lookups[from..end];
            for l in moved.iter_mut() {
                std::mem::swap(&mut self.values[l.term as usize], &mut l.value);
            }
            self.sums.push(
                delta
                    .terms
                    .iter()
                    .zip(&self.values)
                    .map(|(t, v)| v * t.weight)
                    .sum(),
            );
            // Back to the reference's values; the member's own stay in its
            // lookups for `rebase`.
            for l in moved.iter_mut() {
                std::mem::swap(&mut self.values[l.term as usize], &mut l.value);
            }
            from = end;
        }
        &self.sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::cost_cache::shape_keys;
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
    fn masks_and_slot_terms_cover_exactly_the_touched_tables() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 1", 10),
                ("SELECT * FROM u WHERE x = 2", 5),
                ("SELECT * FROM t WHERE b = 3", 1),
            ],
        );
        let mut universe = Universe::new();
        let st = universe.intern(IndexDef::new("t", &["a"]));
        let su = universe.intern(IndexDef::new("u", &["x"]));
        let ghost = universe.intern(IndexDef::new("ghost", &["x"]));
        let dw = DeltaWorkload::new(&universe, &w, &shape_keys(&w), db.catalog());
        assert_eq!(dw.terms().len(), 3);
        assert!(dw.terms()[0].mask.contains(st) && !dw.terms()[0].mask.contains(su));
        assert!(dw.terms()[1].mask.contains(su) && !dw.terms()[1].mask.contains(st));
        assert_eq!(dw.terms()[0].weight, 10.0);
        assert_eq!(dw.slot_terms(st), &[0, 2]);
        assert_eq!(dw.slot_terms(su), &[1]);
        assert!(dw.slot_terms(ghost).is_empty());
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
        let st = universe.intern(IndexDef::new("t", &["a"]));
        let su = universe.intern(IndexDef::new("u", &["x"]));
        universe.refresh_sizes(&db);
        let est = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let mut pricer = DeltaPricer::new(&universe, &w, &shape_keys(&w), &db, &est, &cache, true);

        let configs: Vec<ConfigSet> = vec![
            ConfigSet::default(),
            [st].into_iter().collect(),
            [st, su].into_iter().collect(),
            [su].into_iter().collect(),
        ];
        for cfg in &configs {
            let naive = est.workload_cost(&db, &w, universe.config_defs(cfg));
            let fast = pricer.sum(cfg);
            assert_eq!(naive.to_bits(), fast.to_bits());
            // The reference follows the walk: each step moves one table.
            pricer.rebase();
        }
        // 4 configs x 3 terms = 12 terms priced. Unique (term, projection)
        // pairs: t-terms each see {∅, {st}} (2x2=4), u-term sees {∅, {su}}
        // (2) => 6 misses, 6 hits — carried or looked up, a hit is a hit.
        assert_eq!(m.counter_value("estimator.cost_cache.misses"), 6);
        assert_eq!(m.counter_value("estimator.cost_cache.hits"), 6);
        // Looked up: all 3, then the 2 t-terms, the u-term, the 2 t-terms.
        assert_eq!(m.counter_value("delta.terms.looked_up"), 8);
        assert_eq!(m.counter_value("delta.terms.carried"), 4);
    }

    /// ≥ 100 tables with 2–3 templates each, two indexes per table (one
    /// table short of that: 263, the banking catalog's DBA count).
    fn wide() -> (SimDb, Vec<(QueryShape, u64)>, Universe, ConfigSet) {
        const TABLES: usize = 132;
        let mut c = Catalog::new();
        for i in 0..TABLES {
            c.add_table(
                TableBuilder::new(format!("w{i}"), 50_000)
                    .column(Column::int("a", 50_000))
                    .column(Column::int("b", 500))
                    .build()
                    .unwrap(),
            );
        }
        let db = SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new());
        let mut sqls = Vec::new();
        for i in 0..TABLES {
            sqls.push(format!("SELECT * FROM w{i} WHERE a = 1"));
            sqls.push(format!("SELECT * FROM w{i} WHERE b = 2"));
            if i % 2 == 0 {
                sqls.push(format!("INSERT INTO w{i} (a, b) VALUES (1, 2)"));
            }
        }
        let w = sqls
            .iter()
            .map(|s| {
                (
                    QueryShape::extract(&parse_statement(s).unwrap(), db.catalog()),
                    3,
                )
            })
            .collect();
        let mut universe = Universe::new();
        let mut existing = ConfigSet::default();
        for i in 0..TABLES {
            existing.insert(universe.intern(IndexDef::new(format!("w{i}"), &["a"])));
            if i > 0 {
                existing.insert(universe.intern(IndexDef::new(format!("w{i}"), &["b"])));
            }
        }
        universe.refresh_sizes(&db);
        (db, w, universe, existing)
    }

    #[test]
    fn a_probe_looks_up_only_the_templates_on_its_table() {
        let (db, w, universe, existing) = wide();
        assert_eq!(existing.len(), 263);
        let est = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let mut pricer = DeltaPricer::new(&universe, &w, &shape_keys(&w), &db, &est, &cache, true);
        let looked_up = || m.counter_value("delta.terms.looked_up");

        // No reference yet: the full pass.
        pricer.sum(&existing);
        pricer.rebase();
        assert_eq!(looked_up(), w.len() as u64);

        // One-slot probes: w0 has three templates, w1 two.
        for (table, templates) in [("w0", 3), ("w1", 2)] {
            let slot = universe.slot(&IndexDef::new(table, &["a"])).unwrap();
            let mut trial = existing.clone();
            trial.remove(slot);
            let before = looked_up();
            let naive = est.workload_cost(&db, &w, universe.config_defs(&trial));
            assert_eq!(pricer.sum(&trial).to_bits(), naive.to_bits());
            assert_eq!(looked_up() - before, templates);
        }

        // A whole prune pass, every second removal accepted: the reference
        // follows, so every probe stays one slot away from it.
        let before = looked_up();
        let mut current = existing.clone();
        for (i, slot) in existing.iter().enumerate() {
            let mut trial = current.clone();
            trial.remove(slot);
            pricer.sum(&trial);
            if i % 2 == 0 {
                pricer.rebase();
                current = trial;
            }
        }
        let probes = existing.len() as u64;
        assert!(
            (looked_up() - before) * 20 <= probes * w.len() as u64,
            "{} lookups for {probes} probes of {} terms",
            looked_up() - before,
            w.len()
        );
        let naive = est.workload_cost(&db, &w, universe.config_defs(&current));
        assert_eq!(pricer.sum(&current).to_bits(), naive.to_bits());
    }
}
