//! Delta-cost evaluation: per-template what-if memoization.
//!
//! `workload_cost` decomposes into a weighted sum of per-template terms
//! (see [`CostEstimator::workload_cost`]'s provided impl), and each term
//! depends only on the *projection* of the index configuration onto the
//! tables the template's [`QueryShape`] touches — the planner prices a
//! table's access paths and a write's maintenance exclusively from indexes
//! on that table. Two configurations that differ by one index therefore
//! share every term except the ones on that index's table, and sibling
//! configurations in a policy-tree search share almost all terms.
//!
//! [`CostCache`] memoizes those terms under a [`CacheKey`] that names
//! everything the planner is given, so a cached term is a pure function of
//! its key and survives whatever cannot change it:
//!
//! * the **template fingerprint** is a 128-bit hash of the shape's exact
//!   `Debug` representation (Rust's float formatting is round-trip exact,
//!   so two shapes collide only if they are semantically identical);
//! * the **projected-config fingerprint** folds, *in configuration order*,
//!   the identity hashes of the definitions on the shape's tables — the
//!   planner sums maintenance per index in that order and numbers what-if
//!   ids by position, so the same definitions in another order are another
//!   key. An index on an untouched table is not part of it;
//! * the **stamp fold** covers the growth stamps (`Table::stamp`) of the
//!   shape's tables: statistics the planner reads move only with them.
//!
//! There is one lifetime rule: an entry lives while its `(template, stamps)`
//! pair belongs to the workload being priced. [`CostCache::sweep`] drops
//! the rest, once per catalog version. Nothing is ever *wrong* to look up —
//! a key that is still reachable still means what it meant — the sweep
//! only bounds memory.
//!
//! Counter economics are exported as `estimator.cost_cache.{hits,misses,
//! swept}`; every **miss** is a real planner/model evaluation, every
//! **hit** is one avoided. See `docs/PERFORMANCE.md`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use autoindex_support::hash::{U64HashMap, WordHashMap};
use autoindex_support::obs::{Counter, MetricsRegistry};

use crate::{CostEstimator, TemplateWorkload};

/// Cache key of one memoized per-template cost term: what the planner is
/// given when it prices the term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 128-bit template-shape fingerprint ([`shape_key`]).
    pub shape_key: u128,
    /// Ordered fold of the identity hashes of the configuration's
    /// definitions on the shape's touched tables.
    pub config_fp: u64,
    /// Fold of the touched tables' growth stamps.
    pub stamps: u64,
}

/// 128-bit fingerprint of a template shape.
///
/// Hashes the full `Debug` representation (structurally exhaustive, and
/// exact for the `f64` selectivity fields because Rust's float `Debug`
/// output is shortest-round-trip) through two independently seeded
/// [`DefaultHasher`]s. The template store computes it when a shape is
/// extracted and keeps it with the template; nothing formats a shape per
/// round.
pub fn shape_key(shape: &QueryShape) -> u128 {
    let repr = format!("{shape:?}");
    let mut h1 = DefaultHasher::new();
    0x5ca1_ab1e_u64.hash(&mut h1);
    repr.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0xdeca_f000_u64.hash(&mut h2);
    repr.hash(&mut h2);
    ((h1.finish() as u128) << 64) | h2.finish() as u128
}

/// [`shape_key`] of every template of `workload`, in workload order: what
/// a caller that brings its own workload hands the pricer with it.
pub fn shape_keys(workload: &TemplateWorkload) -> Vec<u128> {
    workload.iter().map(|(shape, _)| shape_key(shape)).collect()
}

/// Bound counter handles for cache economics, interned once per pricer
/// from the registry the `SimDb` under evaluation uses, then bumped
/// lock-free on the hot path.
#[derive(Debug, Clone)]
pub struct CostCacheStats {
    /// `estimator.cost_cache.hits` — avoided evaluations.
    pub hits: Counter,
    /// `estimator.cost_cache.misses` — real evaluations performed.
    pub misses: Counter,
    /// `estimator.cost_cache.swept` — entries dropped by [`CostCache::sweep`].
    pub swept: Counter,
}

impl CostCacheStats {
    /// Bind the three `estimator.cost_cache.*` counters on `metrics`.
    pub fn bind(metrics: &MetricsRegistry) -> Self {
        CostCacheStats {
            hits: metrics.counter("estimator.cost_cache.hits"),
            misses: metrics.counter("estimator.cost_cache.misses"),
            swept: metrics.counter("estimator.cost_cache.swept"),
        }
    }
}

#[derive(Debug, Default)]
struct Entries {
    /// `(shape_key, stamps)` → the template's terms at those statistics,
    /// by projected-configuration fingerprint. Grouped by the pair the
    /// lifetime rule is stated over: the sweep walks templates, not terms,
    /// and a term costs its fingerprint and value, not a whole key. Nothing
    /// reads either map in its iteration order (`len` and `sweep` count).
    terms: WordHashMap<(u128, u64), U64HashMap<f64>>,
    /// Catalog version of the last sweep.
    swept_at: Option<u64>,
}

/// Memoization table for per-template cost terms.
///
/// Shared by reference: an advisor's diagnosis and every strategy's round
/// fill the one cache it owns while the advisor can still be read, so
/// lookups/inserts take a [`Mutex`] briefly — uncontended, a round prices
/// on one thread — and the term *computation* runs with the lock released.
#[derive(Debug, Default)]
pub struct CostCache {
    entries: Mutex<Entries>,
}

impl CostCache {
    /// An empty cache.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// Number of memoized terms.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("cost cache lock");
        entries.terms.values().map(|t| t.len()).sum()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw lookup (no counter side effects).
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        let entries = self.entries.lock().expect("cost cache lock");
        let terms = entries.terms.get(&(key.shape_key, key.stamps))?;
        terms.get(&key.config_fp).copied()
    }

    /// Raw insert (no counter side effects).
    pub fn insert(&self, key: CacheKey, value: f64) {
        let mut entries = self.entries.lock().expect("cost cache lock");
        let terms = entries.terms.entry((key.shape_key, key.stamps));
        terms.or_default().insert(key.config_fp, value);
    }

    /// The one lifetime rule: keep the terms whose `(shape_key, stamps)`
    /// pair is in `live()` — the pairs of the workload about to be priced
    /// — and drop the rest; returns how many went. A pair can only fall
    /// out of a workload's reach when a table grew or a template left, and
    /// the sweep runs when the catalog moved since the last one: at most
    /// once per `version`, and `live` is not built otherwise.
    pub fn sweep(&self, version: u64, live: impl FnOnce() -> HashSet<(u128, u64)>) -> usize {
        let mut entries = self.entries.lock().expect("cost cache lock");
        if entries.swept_at.replace(version) == Some(version) || entries.terms.is_empty() {
            return 0;
        }
        let live = live();
        let mut swept = 0;
        entries.terms.retain(|pair, terms| {
            let keep = live.contains(pair);
            if !keep {
                swept += terms.len();
            }
            keep
        });
        swept
    }
}

/// Convenience: naive (uncached, unprojected) workload cost — the
/// reference implementation the property tests compare against.
pub fn naive_workload_cost<E: CostEstimator>(
    est: &E,
    db: &SimDb,
    workload: &TemplateWorkload,
    config: &[IndexDef],
) -> f64 {
    workload
        .iter()
        .map(|(shape, n)| est.shape_cost(db, shape, config) * *n as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 200_000)
                .column(Column::int("a", 200_000))
                .column(Column::int("b", 50))
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
    }

    fn shape(db: &SimDb, sql: &str) -> QueryShape {
        QueryShape::extract(&autoindex_sql::parse_statement(sql).unwrap(), db.catalog())
    }

    #[test]
    fn shape_key_is_stable_and_discriminating() {
        let db = db();
        let s1 = shape(&db, "SELECT * FROM t WHERE a = 1");
        let s1b = shape(&db, "SELECT * FROM t WHERE a = 1");
        let s2 = shape(&db, "SELECT * FROM t WHERE b = 1");
        assert_eq!(shape_key(&s1), shape_key(&s1b));
        assert_ne!(shape_key(&s1), shape_key(&s2));
    }

    #[test]
    fn sweep_keeps_live_pairs_and_runs_once_per_version() {
        let cache = CostCache::new();
        let key = |shape_key, config_fp, stamps| CacheKey {
            shape_key,
            config_fp,
            stamps,
        };
        cache.insert(key(1, 10, 7), 1.0);
        cache.insert(key(1, 11, 7), 2.0);
        cache.insert(key(1, 10, 8), 3.0);
        cache.insert(key(2, 10, 7), 4.0);
        // Template 1 at stamps 7 is what the workload holds now.
        assert_eq!(cache.sweep(5, || [(1, 7)].into_iter().collect()), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1, 11, 7)), Some(2.0));
        assert_eq!(cache.get(&key(2, 10, 7)), None);
        // Same catalog version: nothing can have gone stale, nothing is built.
        assert_eq!(cache.sweep(5, || unreachable!("swept at this version")), 0);
        assert_eq!(cache.sweep(6, HashSet::new), 2);
        assert!(cache.is_empty());
    }
}
