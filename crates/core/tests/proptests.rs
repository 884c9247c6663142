//! Property-based tests for the AutoIndex core (autoindex-support harness).

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{
    AutoIndex, AutoIndexConfig, CandidateConfig, CandidateGenerator, DeltaPricer,
};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::rng::StdRng;
use autoindex_support::{prop_assert, prop_assert_eq};

const COLS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Profile matching the previous suite's 64 cases — each case builds a
/// catalog and runs real search machinery.
fn cfg() -> PropConfig {
    PropConfig::default().cases(64)
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut tb = TableBuilder::new("t", 500_000);
    for (i, c) in COLS.iter().enumerate() {
        tb = tb.column(Column::int(*c, 10u64.pow(i as u32 + 1)));
    }
    cat.add_table(tb.build().unwrap());
    cat
}

/// Random simple SELECT over table t.
fn gen_query(rng: &mut StdRng) -> String {
    let n = rng.random_range(1usize..4);
    let use_or = rng.random_bool(0.5);
    let parts: Vec<String> = (0..n)
        .map(|_| {
            let c = rng.random_range(0usize..COLS.len());
            let v = rng.random_range(0i64..1000);
            format!("{} = {v}", COLS[c])
        })
        .collect();
    let joiner = if use_or { " OR " } else { " AND " };
    format!("SELECT * FROM t WHERE {}", parts.join(joiner))
}

fn gen_queries(rng: &mut StdRng, lo: usize, hi: usize, size: usize) -> Vec<String> {
    // Scale the upper bound with the harness size hint so shrinking finds
    // small workloads.
    let hi = (lo + 1).max(hi.min(lo + 1 + size * (hi - lo) / 100));
    let n = rng.random_range(lo..hi.max(lo + 1));
    (0..n).map(|_| gen_query(rng)).collect()
}

/// The template store never exceeds its capacity and never loses the
/// query count.
#[test]
fn template_store_respects_capacity() {
    property("template_store_respects_capacity", cfg(), |rng, size| {
        let queries = gen_queries(rng, 1, 200, size);
        let cap = rng.random_range(1usize..16);
        let cat = catalog();
        let mut store = TemplateStore::new(TemplateStoreConfig {
            max_templates: cap,
            ..TemplateStoreConfig::default()
        });
        for q in &queries {
            store.observe(q, &cat).unwrap();
        }
        prop_assert!(store.len() <= cap, "cap={cap} len={}", store.len());
        prop_assert_eq!(store.observed(), queries.len() as u64);
        Ok(())
    });
}

/// Candidate generation is deterministic and never proposes an index
/// covered by an existing one or referencing unknown columns.
#[test]
fn candgen_sound() {
    property("candgen_sound", cfg(), |rng, size| {
        let queries = gen_queries(rng, 1, 40, size);
        let cat = catalog();
        let shapes: Vec<(QueryShape, u64)> = queries
            .iter()
            .map(|q| (QueryShape::extract(&parse_statement(q).unwrap(), &cat), 1))
            .collect();
        let existing = [IndexDef::new("t", &["a", "b"])];
        let generator = CandidateGenerator::new(CandidateConfig::default());
        let c1 = generator.generate(&shapes, &cat, &existing);
        let c2 = generator.generate(&shapes, &cat, &existing);
        prop_assert_eq!(&c1, &c2);
        let table = cat.table("t").unwrap();
        for cand in &c1 {
            prop_assert!(cand.validate(table).is_ok());
            for e in &existing {
                prop_assert!(!e.covers(cand), "{} covered by {}", cand, e);
            }
            // No candidate covered by another candidate (merge invariant).
            for other in &c1 {
                prop_assert!(
                    other == cand || !other.covers(cand),
                    "{cand} covered by {other}"
                );
            }
        }
        Ok(())
    });
}

/// MCTS always returns a configuration within budget that never costs
/// more than the baseline (under the same estimator).
#[test]
fn mcts_never_regresses_and_respects_budget() {
    property(
        "mcts_never_regresses_and_respects_budget",
        cfg(),
        |rng, size| {
            let queries = gen_queries(rng, 1, 12, size);
            let budget_mb = rng.random_range(0u64..64);
            let seed = rng.random_range(0u64..1000);
            let cat = catalog();
            let db = SimDb::new(cat, SimDbConfig::default());
            let shapes: Vec<(QueryShape, u64)> = queries
                .iter()
                .map(|q| {
                    (
                        QueryShape::extract(&parse_statement(q).unwrap(), db.catalog()),
                        1,
                    )
                })
                .collect();
            let cands = CandidateGenerator::new(CandidateConfig::default()).generate(
                &shapes,
                db.catalog(),
                &[],
            );
            let mut universe = Universe::new();
            for c in &cands {
                universe.intern(c.clone());
            }
            universe.refresh_sizes(&db);
            let budget_bytes = budget_mb * (1 << 20);
            let budget = Some(budget_bytes);
            let est = NativeCostEstimator;
            let mut tree = PolicyTree::new();
            tree.begin_round(0.5);
            let search = MctsSearch {
                universe: &universe,
                db: &db,
                config: MctsConfig {
                    iterations: 60,
                    seed,
                    ..MctsConfig::default()
                },
                budget,
                existing: ConfigSet::default(),
                protected: ConfigSet::default(),
                start: ConfigSet::default(),
            };
            let cache = CostCache::new();
            let keys = shape_keys(&shapes);
            let mut pricer = DeltaPricer::new(&universe, &shapes, &keys, &db, &est, &cache, true);
            let out = search.run(&mut tree, &mut pricer);
            prop_assert!(
                out.best_cost <= out.baseline_cost + 1e-9,
                "best {} vs baseline {}",
                out.best_cost,
                out.baseline_cost
            );
            prop_assert!(universe.config_size(&out.best_config) <= budget_bytes);
            Ok(())
        },
    );
}

/// Canonical representation: any insert/remove sequence — regardless of the
/// constructor used and the order operations arrive in — produces sets that
/// are `Eq`-consistent and hash-identical whenever their contents match.
/// This is the invariant `PolicyTree::by_config` dedup and the MCTS eval
/// cache rely on (regression: `with_capacity` used to materialise zero
/// words, so "equal" sets compared unequal).
#[test]
fn config_set_eq_hash_consistent_under_any_op_sequence() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn hash_of(s: &ConfigSet) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }
    property(
        "config_set_eq_hash_consistent_under_any_op_sequence",
        cfg(),
        |rng, size| {
            let n = rng.random_range(0usize..=(size.max(1) * 2));
            // Three sets fed the same logical operations, but constructed
            // differently: default, small capacity, huge capacity.
            let mut a = ConfigSet::default();
            let mut b = ConfigSet::with_capacity(rng.random_range(0usize..64));
            let mut c = ConfigSet::with_capacity(1024);
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..n {
                let i = rng.random_range(0usize..300);
                if rng.random_bool(0.6) {
                    reference.insert(i);
                    a.insert(i);
                    b.insert(i);
                    c.insert(i);
                } else {
                    reference.remove(&i);
                    a.remove(i);
                    b.remove(i);
                    c.remove(i);
                }
                a.assert_canonical();
                b.assert_canonical();
                c.assert_canonical();
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &c);
                prop_assert_eq!(hash_of(&a), hash_of(&b));
                prop_assert_eq!(hash_of(&a), hash_of(&c));
            }
            // And all match a set rebuilt from sorted contents.
            let rebuilt: ConfigSet = reference.iter().copied().collect();
            prop_assert_eq!(&a, &rebuilt);
            prop_assert_eq!(hash_of(&a), hash_of(&rebuilt));
            Ok(())
        },
    );
}

/// Records every `shape_cost` call — template and configuration — in
/// order: the what-if call sequence an evaluator produced.
struct Recording {
    calls: std::sync::Mutex<Vec<(usize, Vec<String>)>>,
}

impl autoindex_estimator::CostEstimator for Recording {
    fn shape_cost<'a>(
        &self,
        db: &SimDb,
        shape: &QueryShape,
        config: impl autoindex_storage::IndexConfig<'a>,
    ) -> f64 {
        self.calls.lock().unwrap().push((
            shape as *const QueryShape as usize,
            config.clone().into_iter().map(|d| d.key()).collect(),
        ));
        NativeCostEstimator.shape_cost(db, shape, config)
    }
}

/// The decomposed delta-cost engine is *bitwise* exact, whatever it is
/// priced against: for random catalogs, workloads (reads and writes),
/// reference configurations and targets — equal to the reference,
/// differing from it on every table, and random walks in between —
/// pricing relative to a reference equals the same pricer's full pass
/// (no reference) equals `naive_workload_cost` bit for bit, with the same
/// `estimator.cost_cache.{hits,misses}` totals and the same what-if calls
/// in the same order. It still does after an epoch invalidation (the
/// decay / statistics-refresh analogue) empties the cache.
#[test]
fn delta_cost_bitwise_equals_naive_across_random_configs() {
    use autoindex_estimator::cost_cache::naive_workload_cost;
    use autoindex_estimator::CostEstimator;
    use autoindex_support::obs::MetricsRegistry;

    property(
        "delta_cost_bitwise_equals_naive_across_random_configs",
        cfg(),
        |rng, size| {
            // Random catalog: 1..=3 tables with random widths and NDVs.
            let ntab = rng.random_range(1usize..4);
            let mut cat = Catalog::new();
            let mut tables: Vec<(String, usize)> = Vec::new();
            for ti in 0..ntab {
                let name = format!("t{ti}");
                let rows = rng.random_range(10_000u64..1_000_000);
                let ncols = rng.random_range(2usize..=COLS.len());
                let mut tb = TableBuilder::new(&name, rows);
                for c in COLS.iter().take(ncols) {
                    tb = tb.column(Column::int(*c, rng.random_range(10u64..rows)));
                }
                cat.add_table(tb.build().unwrap());
                tables.push((name, ncols));
            }
            // One database per evaluator: each counts on its own registry.
            let new_db =
                || SimDb::with_metrics(cat.clone(), SimDbConfig::default(), MetricsRegistry::new());
            let (db, db_full, db_rel) = (new_db(), new_db(), new_db());

            // Random workload: point/OR selects plus inserts (maintenance
            // costs must decompose too), with random repetition weights.
            let nq = rng.random_range(1usize..(2 + size.max(1) / 8).max(2));
            let shapes: Vec<(QueryShape, u64)> = (0..nq)
                .map(|_| {
                    let (name, ncols) = &tables[rng.random_range(0usize..tables.len())];
                    let sql = if rng.random_bool(0.25) {
                        format!(
                            "INSERT INTO {name} ({}, {}) VALUES (1, 2)",
                            COLS[0], COLS[1]
                        )
                    } else {
                        let c1 = COLS[rng.random_range(0usize..*ncols)];
                        let c2 = COLS[rng.random_range(0usize..*ncols)];
                        let joiner = if rng.random_bool(0.5) { "AND" } else { "OR" };
                        format!("SELECT * FROM {name} WHERE {c1} = 1 {joiner} {c2} = 5")
                    };
                    let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), db.catalog());
                    (shape, rng.random_range(1u64..20))
                })
                .collect();

            // Random universe of one/two-column candidates across tables.
            let mut universe = Universe::new();
            for _ in 0..rng.random_range(1usize..8) {
                let (name, ncols) = &tables[rng.random_range(0usize..tables.len())];
                let c1 = COLS[rng.random_range(0usize..*ncols)];
                let c2 = COLS[rng.random_range(0usize..*ncols)];
                let def = if rng.random_bool(0.5) || c1 == c2 {
                    IndexDef::new(name, &[c1])
                } else {
                    IndexDef::new(name, &[c1, c2])
                };
                universe.intern(def);
            }
            universe.refresh_sizes(&db);

            let est = NativeCostEstimator;
            let new_rec = || Recording {
                calls: std::sync::Mutex::new(Vec::new()),
            };
            let (rec_full, rec_rel) = (new_rec(), new_rec());
            let (cache_full, cache_rel) = (CostCache::new(), CostCache::new());
            let keys = shape_keys(&shapes);
            let mut full = DeltaPricer::new(
                &universe,
                &shapes,
                &keys,
                &db_full,
                &rec_full,
                &cache_full,
                true,
            );
            let mut rel = DeltaPricer::new(
                &universe, &shapes, &keys, &db_rel, &rec_rel, &cache_rel, true,
            );

            let random_config = |rng: &mut StdRng| -> ConfigSet {
                (0..universe.len())
                    .filter(|_| rng.random_bool(0.5))
                    .collect()
            };
            // A random reference; then the reference itself again (differs
            // on no table), its complement (differs on every table that has
            // a slot), and a random add/remove walk the reference follows
            // part of the time.
            let reference = random_config(rng);
            let complement: ConfigSet = (0..universe.len())
                .filter(|s| !reference.contains(*s))
                .collect();
            let mut targets = vec![(reference.clone(), true), (reference.clone(), false)];
            targets.push((complement, rng.random_bool(0.5)));
            let mut config = random_config(rng);
            for _ in 0..rng.random_range(1usize..20) {
                let slot = rng.random_range(0usize..universe.len());
                if config.contains(slot) {
                    config.remove(slot);
                } else {
                    config.insert(slot);
                }
                targets.push((config.clone(), rng.random_bool(0.3)));
            }

            let check = |config: &ConfigSet,
                         follow: bool,
                         full: &mut DeltaPricer<'_, '_, Recording>,
                         rel: &mut DeltaPricer<'_, '_, Recording>|
             -> Result<(), String> {
                let defs: Vec<IndexDef> = universe.config_defs(config).cloned().collect();
                let naive = naive_workload_cost(&est, &db, &shapes, &defs);
                prop_assert_eq!(naive.to_bits(), full.sum(config).to_bits());
                prop_assert_eq!(naive.to_bits(), rel.sum(config).to_bits());
                if follow {
                    rel.rebase();
                }
                for name in ["estimator.cost_cache.hits", "estimator.cost_cache.misses"] {
                    prop_assert_eq!(
                        db_full.metrics().counter_value(name),
                        db_rel.metrics().counter_value(name),
                        "{name} after {config:?}"
                    );
                }
                prop_assert_eq!(
                    &*rec_full.calls.lock().unwrap(),
                    &*rec_rel.calls.lock().unwrap()
                );
                Ok(())
            };
            for (config, follow) in &targets {
                check(config, *follow, &mut full, &mut rel)?;
            }
            // The full pass never carries a term; the relative one looked
            // up no more than it, and carried the rest.
            let terms =
                |db: &SimDb, what: &str| db.metrics().counter_value(&format!("delta.terms.{what}"));
            prop_assert_eq!(terms(&db_full, "carried"), 0);
            prop_assert_eq!(
                terms(&db_rel, "looked_up") + terms(&db_rel, "carried"),
                terms(&db_full, "looked_up")
            );

            // The sweep, with nothing live (every table grew): the memo
            // empties under the pricer, and the rebuilt cache still agrees
            // bitwise.
            let held = cache_rel.len();
            prop_assert_eq!(cache_rel.sweep(u64::MAX, Default::default), held);
            prop_assert!(cache_rel.is_empty());
            let last = &targets[targets.len() - 1].0;
            let naive = est.workload_cost(&db, &shapes, universe.config_defs(last));
            prop_assert_eq!(naive.to_bits(), rel.sum(last).to_bits());
            Ok(())
        },
    );
}

/// ConfigSet behaves like a set of usizes.
#[test]
fn config_set_models_a_set() {
    property("config_set_models_a_set", cfg(), |rng, size| {
        let n = rng.random_range(0usize..=size.max(1));
        let mut reference = std::collections::BTreeSet::new();
        let mut cs = ConfigSet::default();
        for _ in 0..n {
            let i = rng.random_range(0usize..200);
            if rng.random_bool(0.5) {
                reference.insert(i);
                cs.insert(i);
            } else {
                reference.remove(&i);
                cs.remove(i);
            }
        }
        prop_assert_eq!(cs.len(), reference.len());
        prop_assert_eq!(
            cs.iter().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
        // Equality is structural over contents.
        let rebuilt: ConfigSet = reference.iter().copied().collect();
        prop_assert_eq!(&cs, &rebuilt);
        let mask: ConfigSet = (0..rng.random_range(0usize..8))
            .map(|_| rng.random_range(0usize..260))
            .collect();
        // What a relative pricer walks: the slots in exactly one set.
        let mask_ref: std::collections::BTreeSet<usize> = mask.iter().collect();
        prop_assert_eq!(
            cs.symmetric_difference(&mask).collect::<Vec<_>>(),
            reference
                .symmetric_difference(&mask_ref)
                .copied()
                .collect::<Vec<_>>()
        );
        Ok(())
    });
}

/// The projected-configuration part of a delta-cost cache key names the
/// definitions handed to the planner *and their order*: over a generated
/// universe, distinct ordered projections get distinct fingerprints, and a
/// second universe that numbers the same definitions in another order gives
/// every projection of two or more a different one.
#[test]
fn projection_fingerprints_tell_ordered_projections_apart() {
    property(
        "projection_fingerprints_tell_ordered_projections_apart",
        cfg(),
        |rng, _size| {
            let mut defs: Vec<IndexDef> = Vec::new();
            while defs.len() < 9 {
                let table = format!("t{}", rng.random_range(0u32..3));
                let c1 = COLS[rng.random_range(0usize..COLS.len())];
                let c2 = COLS[rng.random_range(0usize..COLS.len())];
                let def = if c1 == c2 {
                    IndexDef::new(table, &[c1])
                } else {
                    IndexDef::new(table, &[c1, c2])
                };
                if !defs.contains(&def) {
                    defs.push(def);
                }
            }
            let mut universe = Universe::new();
            let mut reversed = Universe::new();
            for (d, r) in defs.iter().zip(defs.iter().rev()) {
                universe.intern(d.clone());
                reversed.intern(r.clone());
            }
            let all: ConfigSet = (0..defs.len()).collect();
            let in_reversed = |config: &ConfigSet| -> ConfigSet {
                config.iter().map(|s| defs.len() - 1 - s).collect()
            };
            // Every subset of the nine slots: the ordered projections of
            // one universe are the subsets in slot order.
            let mut seen = std::collections::HashMap::new();
            for bits in 0u32..1 << defs.len() {
                let config: ConfigSet = (0..defs.len()).filter(|s| bits >> s & 1 == 1).collect();
                let fp = universe.projection_fingerprint(&config, &all);
                if let Some(other) = seen.insert(fp, bits) {
                    return Err(format!("{bits:#b} and {other:#b} share {fp:#x}"));
                }
                // A mask restricts; what it leaves out is not in the key.
                let mask: ConfigSet = (0..defs.len()).filter(|_| rng.random_bool(0.5)).collect();
                prop_assert_eq!(
                    universe.projection_fingerprint(&config, &mask),
                    universe.projection_fingerprint(
                        &config.iter().filter(|&s| mask.contains(s)).collect(),
                        &all
                    )
                );
                let same_defs = reversed.projection_fingerprint(&in_reversed(&config), &all);
                prop_assert_eq!(fp == same_defs, config.len() < 2, "{bits:#b}");
            }
            Ok(())
        },
    );
}

/// Three tables for the kept-candidates property: `u` starts under the
/// default `min_table_rows` and is smaller than `v`, so growth moves what
/// its templates emit (the filter threshold, which side a join drives).
fn growing_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("t", 200_000)
            .column(Column::int("a", 200_000))
            .column(Column::int("b", 1_000))
            .column(Column::int("c", 3))
            .column(Column::int("d", 50))
            .build()
            .unwrap(),
    );
    cat.add_table(
        TableBuilder::new("u", 60)
            .column(Column::int("x", 60))
            .column(Column::int("y", 8))
            .partitioned(4, "y")
            .build()
            .unwrap(),
    );
    cat.add_table(
        TableBuilder::new("v", 150_000)
            .column(Column::int("x", 150_000))
            .column(Column::int("z", 400))
            .build()
            .unwrap(),
    );
    cat
}

/// One statement of a few dozen templates over [`growing_catalog`].
fn gen_growing_query(rng: &mut StdRng) -> String {
    let k = rng.random_range(0i64..1_000);
    let t_cols = ["a", "b", "c", "d"];
    let c1 = t_cols[rng.random_range(0usize..4)];
    let c2 = t_cols[rng.random_range(0usize..4)];
    match rng.random_range(0u32..9) {
        0 => format!("SELECT * FROM t WHERE {c1} = {k} AND {c2} = 2"),
        1 => format!("SELECT {c1}, {c2} FROM t WHERE {c1} = {k} ORDER BY {c2} DESC"),
        2 => format!("SELECT a FROM t WHERE b = {k} AND d > {}", k % 50),
        3 => format!("SELECT * FROM u WHERE x = {k}"),
        4 => format!("SELECT * FROM t, u WHERE t.{c1} = u.x AND u.y = {}", k % 8),
        5 => "SELECT * FROM u, v WHERE u.x = v.x".to_string(),
        6 => "SELECT y, COUNT(*) FROM u GROUP BY y".to_string(),
        7 => format!("SELECT x FROM v WHERE z > {k} ORDER BY x"),
        _ => format!("INSERT INTO u (x, y) VALUES ({k}, {})", k % 8),
    }
}

/// A boundary's candidates — every template's kept emission, emitted
/// afresh only where its tables grew, its shape was re-extracted or the
/// config moved, merged against the existing indexes — equal a
/// from-scratch generation over the same workload: definitions, order and
/// tallies, bit for bit, through growth, index create/drop, decay and
/// eviction, `refresh_statistics` and a `config.candidates` change.
#[test]
fn kept_candidates_equal_a_from_scratch_generation() {
    property(
        "kept_candidates_equal_a_from_scratch_generation",
        cfg(),
        |rng, size| {
            let mut db = SimDb::new(growing_catalog(), SimDbConfig::default());
            let templates = TemplateStoreConfig {
                max_templates: rng.random_range(2usize..16),
                ..TemplateStoreConfig::default()
            };
            let config = AutoIndexConfig {
                templates,
                ..AutoIndexConfig::default()
            };
            let mut ai = AutoIndex::new(config, NativeCostEstimator);
            let tables = ["t", "u", "v"];
            let columns: [&[&str]; 3] = [&["a", "b", "c", "d"], &["x", "y"], &["x", "z"]];
            for step in 0..2 + size / 5 {
                let op = rng.random_range(0u32..9);
                match op {
                    // Statements: new templates, matches, evictions and
                    // `INSERT`s, executed (they grow `u`) and observed.
                    0..=2 => {
                        for _ in 0..rng.random_range(1usize..12) {
                            let sql = gen_growing_query(rng);
                            db.execute(&parse_statement(&sql).unwrap());
                            ai.observe(&sql, &db).unwrap();
                        }
                    }
                    3 => {
                        let table = tables[rng.random_range(0usize..3)];
                        db.grow_table(table, rng.random_range(1u64..400_000))
                            .unwrap();
                    }
                    4 => {
                        let i = rng.random_range(0usize..3);
                        let c = columns[i][rng.random_range(0usize..columns[i].len())];
                        let _ = db.create_index(IndexDef::new(tables[i], &[c]));
                    }
                    5 => {
                        let ids: Vec<_> = db.indexes().map(|(id, _)| id).collect();
                        if let Some(&id) = rng.choose(&ids) {
                            db.drop_index(id).unwrap();
                        }
                    }
                    6 => ai.force_template_decay(),
                    7 => ai.refresh_statistics(&db),
                    _ => {
                        // Fields are drawn in the order written.
                        ai.config.candidates = CandidateConfig {
                            sort_aware: rng.random_bool(0.5),
                            covering: rng.random_bool(0.5),
                            min_table_rows: [50, 100, 1_000][rng.random_range(0usize..3)],
                            selectivity_threshold: [1.0 / 3.0, 0.5][rng.random_range(0usize..2)],
                            ..CandidateConfig::default()
                        };
                    }
                }
                let kept = ai.candidates(&db);
                let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
                let scratch = CandidateGenerator::new(ai.config.candidates.clone())
                    .generate_with_stats(&ai.workload(), db.catalog(), &existing);
                prop_assert_eq!(kept, scratch, "step {step} (op {op})");
            }
            Ok(())
        },
    );
}
