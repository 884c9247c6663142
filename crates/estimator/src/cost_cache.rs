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
//! [`CostCache`] memoizes those terms keyed by
//! `(template fingerprint, projected-config fingerprint)`:
//!
//! * the **template fingerprint** is a 128-bit hash of the shape's exact
//!   `Debug` representation (Rust's float formatting is round-trip exact,
//!   so two shapes collide only if they are semantically identical);
//! * the **projected-config fingerprint** is its one user's — the core
//!   search's `DeltaWorkload` — hash of the configuration's slot bitset
//!   restricted to the indexes whose table the shape touches: adding an
//!   index on an untouched table leaves the fingerprint (and the cached
//!   term) unchanged.
//!
//! Invalidation is epoch-based and *coarse*: any catalog/statistics change
//! or template refresh/decay clears the whole cache ([`CostCache::invalidate`])
//! and bumps the epoch. Correctness never depends on the epoch — callers
//! that hold a `&CostCache` across an invalidation simply observe an empty
//! map — but the epoch lets long-lived consumers detect staleness cheaply.
//!
//! Counter economics are exported as `estimator.cost_cache.{hits,misses,
//! invalidations}`; every **miss** is a real planner/model evaluation,
//! every **hit** is one avoided. See `docs/PERFORMANCE.md`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use autoindex_support::obs::{Counter, MetricsRegistry};

use crate::{CostEstimator, TemplateWorkload};

/// Cache key of one memoized per-template cost term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 128-bit template-shape fingerprint ([`shape_key`]).
    pub shape_key: u128,
    /// Fingerprint of the configuration *projected* onto the shape's
    /// touched tables.
    pub config_fp: u64,
}

/// 128-bit fingerprint of a template shape.
///
/// Hashes the full `Debug` representation (structurally exhaustive, and
/// exact for the `f64` selectivity fields because Rust's float `Debug`
/// output is shortest-round-trip) through two independently seeded
/// [`DefaultHasher`]s. Shapes are extracted once per template per round;
/// callers should compute this once and reuse it.
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

/// Bound counter handles for cache economics. Intern once per
/// round/search from the registry the `SimDb` under evaluation uses, then
/// bump lock-free on the hot path.
#[derive(Debug, Clone)]
pub struct CostCacheStats {
    /// `estimator.cost_cache.hits` — avoided evaluations.
    pub hits: Counter,
    /// `estimator.cost_cache.misses` — real evaluations performed.
    pub misses: Counter,
    /// `estimator.cost_cache.invalidations` — epoch bumps.
    pub invalidations: Counter,
}

impl CostCacheStats {
    /// Bind the three `estimator.cost_cache.*` counters on `metrics`.
    pub fn bind(metrics: &MetricsRegistry) -> Self {
        CostCacheStats {
            hits: metrics.counter("estimator.cost_cache.hits"),
            misses: metrics.counter("estimator.cost_cache.misses"),
            invalidations: metrics.counter("estimator.cost_cache.invalidations"),
        }
    }
}

/// Memoization table for per-template cost terms.
///
/// Shared by reference: a round's pricer fills it while the advisor that
/// owns it can still be read, so lookups/inserts take a [`Mutex`] briefly —
/// uncontended, a round prices on one thread — and the term *computation*
/// runs with the lock released.
#[derive(Debug, Default)]
pub struct CostCache {
    map: Mutex<HashMap<CacheKey, f64>>,
    epoch: AtomicU64,
}

impl CostCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// Number of memoized terms.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cost cache lock").len()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current invalidation epoch (starts at 0, bumps on
    /// [`CostCache::invalidate`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Drop every memoized term and bump the epoch. Called on catalog /
    /// statistics changes and template refresh or decay — anything that can
    /// change what a term *means*.
    pub fn invalidate(&self, metrics: &MetricsRegistry) {
        self.map.lock().expect("cost cache lock").clear();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        metrics.counter("estimator.cost_cache.invalidations").incr();
    }

    /// Raw lookup (no counter side effects).
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        self.map.lock().expect("cost cache lock").get(key).copied()
    }

    /// Raw insert (no counter side effects).
    pub fn insert(&self, key: CacheKey, value: f64) {
        self.map.lock().expect("cost cache lock").insert(key, value);
    }

    /// Memoized evaluation: on a hit return the cached term (bumping
    /// `stats.hits`), on a miss compute `eval()` with the lock released,
    /// insert it and bump `stats.misses`.
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        stats: &CostCacheStats,
        eval: impl FnOnce() -> f64,
    ) -> f64 {
        if let Some(v) = self.get(&key) {
            stats.hits.incr();
            return v;
        }
        stats.misses.incr();
        let v = eval();
        self.insert(key, v);
        v
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
    use crate::NativeCostEstimator;
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
        c.add_table(
            TableBuilder::new("u", 50_000)
                .column(Column::int("x", 50_000))
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
    fn invalidate_clears_and_bumps_epoch() {
        let db = db();
        let inner = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let stats = CostCacheStats::bind(&m);
        let s = shape(&db, "SELECT * FROM t WHERE a = 1");
        let key = CacheKey {
            shape_key: shape_key(&s),
            config_fp: 0,
        };
        let cost = || inner.shape_cost(&db, &s, &[]);
        let v0 = cache.get_or_insert_with(key, &stats, cost);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.epoch(), 0);
        // A second lookup is a hit and does not evaluate.
        let hit = cache.get_or_insert_with(key, &stats, || unreachable!("memoized"));
        assert_eq!(hit.to_bits(), v0.to_bits());
        assert_eq!(m.counter_value("estimator.cost_cache.hits"), 1);

        cache.invalidate(&m);
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
        assert_eq!(m.counter_value("estimator.cost_cache.invalidations"), 1);

        // Re-evaluation after invalidation is a miss again, same value.
        let before = m.counter_value("estimator.cost_cache.misses");
        let v = cache.get_or_insert_with(key, &stats, cost);
        assert_eq!(m.counter_value("estimator.cost_cache.misses"), before + 1);
        assert_eq!(v.to_bits(), v0.to_bits());
    }
}
