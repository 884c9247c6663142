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
//! `(template fingerprint, projected-config fingerprint, domain)`:
//!
//! * the **template fingerprint** is a 128-bit hash of the shape's exact
//!   `Debug` representation (Rust's float formatting is round-trip exact,
//!   so two shapes collide only if they are semantically identical);
//! * the **projected-config fingerprint** hashes only the indexes whose
//!   table the shape touches, *in configuration order* — adding an index
//!   on an untouched table leaves the fingerprint (and the cached term)
//!   unchanged;
//! * the **domain** tag separates key spaces whose config fingerprints are
//!   computed differently (definition-based here, slot-bitset-based in the
//!   core search's `DeltaWorkload`), so they can share one cache without
//!   any chance of cross-talk.
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

use autoindex_storage::index::{IndexConfig, IndexDef};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::SimDb;
use autoindex_support::obs::{Counter, MetricsRegistry};

use crate::{CostEstimator, TemplateWorkload};

/// Key domain: the config fingerprint hashes the projected [`IndexDef`]
/// list itself (used by [`CachedCostEstimator`]).
pub const DOMAIN_DEFS: u8 = 0;

/// Key domain: the config fingerprint hashes a projected slot bitset from
/// an interning universe (used by the core crate's `DeltaWorkload`).
pub const DOMAIN_SLOTS: u8 = 1;

/// Cache key of one memoized per-template cost term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 128-bit template-shape fingerprint ([`shape_key`]).
    pub shape_key: u128,
    /// Fingerprint of the configuration *projected* onto the shape's
    /// touched tables.
    pub config_fp: u64,
    /// Key-space tag ([`DOMAIN_DEFS`] / [`DOMAIN_SLOTS`]).
    pub domain: u8,
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

/// Does `shape` touch `table`? (Write targets are always present in
/// `shape.tables`, so scanning the table atoms is exhaustive.)
#[inline]
pub fn shape_touches(shape: &QueryShape, table: &str) -> bool {
    shape.tables.iter().any(|t| t.table == table)
}

/// Fingerprint of `config` projected onto the tables `shape` touches,
/// preserving configuration order ([`DOMAIN_DEFS`] key space).
pub fn projected_config_fp<'a>(shape: &QueryShape, config: impl IndexConfig<'a>) -> u64 {
    let mut h = DefaultHasher::new();
    0x9e37_79b9_u64.hash(&mut h);
    for def in config {
        if shape_touches(shape, &def.table) {
            def.hash(&mut h);
        }
    }
    h.finish()
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
/// Thread-safe: lookups/inserts take a [`Mutex`] briefly, but the term
/// *computation* runs with the lock released, so parallel evaluators
/// (the MCTS batch evaluator) never serialize on the planner. Concurrent
/// duplicate computations are benign — the estimator is deterministic, so
/// both threads insert the identical `f64`.
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

/// A [`CostEstimator`] adapter that memoizes the inner estimator's
/// per-shape terms in a shared [`CostCache`] keyed by the *projected*
/// configuration. A miss hands the inner estimator the configuration as
/// given: the database's what-if itself resolves only the touched tables'
/// definitions, by reference.
///
/// Contract: the inner estimator must be **projection-invariant** — its
/// `shape_cost(db, shape, config)` must equal
/// `shape_cost(db, shape, projection of config onto shape's tables)`
/// bitwise. Both in-repo estimators satisfy this because the planner only
/// consults indexes whose table a shape touches (access paths, bitmap-OR
/// and write maintenance all filter on `def.table`); an estimator with
/// cross-table config sensitivity must not be wrapped.
///
/// This is the drop-in wiring for greedy candidate ranking and any other
/// `&[IndexDef]`-level caller; the MCTS search uses the slot-bitset domain
/// of the same cache directly.
#[derive(Debug)]
pub struct CachedCostEstimator<'a, E> {
    inner: &'a E,
    cache: &'a CostCache,
    stats: CostCacheStats,
}

impl<'a, E: CostEstimator> CachedCostEstimator<'a, E> {
    /// Wrap `inner`, memoizing into `cache`; counters bind on `metrics`.
    pub fn new(inner: &'a E, cache: &'a CostCache, metrics: &MetricsRegistry) -> Self {
        CachedCostEstimator {
            inner,
            cache,
            stats: CostCacheStats::bind(metrics),
        }
    }
}

impl<E: CostEstimator> CostEstimator for CachedCostEstimator<'_, E> {
    fn shape_cost<'a>(&self, db: &SimDb, shape: &QueryShape, config: impl IndexConfig<'a>) -> f64 {
        let key = CacheKey {
            shape_key: shape_key(shape),
            config_fp: projected_config_fp(shape, config.clone()),
            domain: DOMAIN_DEFS,
        };
        self.cache.get_or_insert_with(key, &self.stats, || {
            self.inner.shape_cost(db, shape, config)
        })
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
    fn projection_fp_ignores_untouched_tables() {
        let db = db();
        let s = shape(&db, "SELECT * FROM t WHERE a = 1");
        let on_t = IndexDef::new("t", &["a"]);
        let on_u = IndexDef::new("u", &["x"]);
        let fp_t = projected_config_fp(&s, std::slice::from_ref(&on_t));
        let fp_t_u = projected_config_fp(&s, &[on_t.clone(), on_u.clone()]);
        assert_eq!(fp_t, fp_t_u, "index on u must not perturb t-only shape");
        let fp_u_only = projected_config_fp(&s, std::slice::from_ref(&on_u));
        let fp_empty = projected_config_fp(&s, &[]);
        assert_eq!(fp_u_only, fp_empty);
        assert_ne!(fp_t, fp_empty);
    }

    #[test]
    fn cached_estimator_is_bitwise_equal_and_counts_hits() {
        let db = db();
        let inner = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let cached = CachedCostEstimator::new(&inner, &cache, &m);

        let w = vec![
            (shape(&db, "SELECT * FROM t WHERE a = 1"), 7u64),
            (shape(&db, "SELECT * FROM u WHERE x = 3"), 2u64),
        ];
        let on_t = IndexDef::new("t", &["a"]);
        let on_u = IndexDef::new("u", &["x"]);

        for config in [
            vec![],
            vec![on_t.clone()],
            vec![on_t.clone(), on_u.clone()],
            vec![on_u.clone()],
        ] {
            let naive = inner.workload_cost(&db, &w, &config);
            let fast = cached.workload_cost(&db, &w, &config);
            assert_eq!(naive.to_bits(), fast.to_bits(), "config {config:?}");
        }
        // 4 configs x 2 shapes = 8 lookups; unique (shape, projection)
        // pairs: t-shape sees {[], [t]}, u-shape sees {[], [u]} => 4 misses.
        assert_eq!(m.counter_value("estimator.cost_cache.misses"), 4);
        assert_eq!(m.counter_value("estimator.cost_cache.hits"), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn invalidate_clears_and_bumps_epoch() {
        let db = db();
        let inner = NativeCostEstimator;
        let cache = CostCache::new();
        let m = db.metrics().clone();
        let cached = CachedCostEstimator::new(&inner, &cache, &m);
        let s = shape(&db, "SELECT * FROM t WHERE a = 1");
        let _ = cached.shape_cost(&db, &s, &[]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.epoch(), 0);

        cache.invalidate(&m);
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
        assert_eq!(m.counter_value("estimator.cost_cache.invalidations"), 1);

        // Re-evaluation after invalidation is a miss again, same value.
        let before = m.counter_value("estimator.cost_cache.misses");
        let v = cached.shape_cost(&db, &s, &[]);
        assert_eq!(m.counter_value("estimator.cost_cache.misses"), before + 1);
        assert_eq!(v.to_bits(), inner.shape_cost(&db, &s, &[]).to_bits());
    }

    #[test]
    fn domains_do_not_collide() {
        let cache = CostCache::new();
        let a = CacheKey {
            shape_key: 42,
            config_fp: 7,
            domain: DOMAIN_DEFS,
        };
        let b = CacheKey {
            shape_key: 42,
            config_fp: 7,
            domain: DOMAIN_SLOTS,
        };
        cache.insert(a, 1.0);
        cache.insert(b, 2.0);
        assert_eq!(cache.get(&a), Some(1.0));
        assert_eq!(cache.get(&b), Some(2.0));
    }
}
