//! Property-based tests for the storage substrate (autoindex-support
//! harness).

use autoindex_sql::parse_statement;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::index::{
    geometry, maintenance_cost, IndexDef, IndexId, IndexList, IndexScope, SortDirection,
};
use autoindex_storage::planner::{
    CostParams, IndexSet, IndexView, PlanSummary, Planner, PreparedPlan, TrueCostWeights,
    VisibleIndex,
};
use autoindex_storage::shape::{QueryShape, WriteKind};
use autoindex_storage::{DbSnapshot, SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert;
use autoindex_support::rng::StdRng;

fn catalog(rows: u64) -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", rows)
            .column(Column::int("a", rows.max(1)))
            .column(Column::int("b", 64))
            .column(Column::float("x", 1000, 0.0, 1000.0))
            .column(Column::text("s", 500, 20))
            .primary_key(&["a"])
            .build()
            .unwrap(),
    );
    c
}

/// `IndexList` is a `Vec<IndexId>` to everything that reads it: pushed,
/// extended or collected, inline or spilled, it holds the same ids in the
/// same order, iterates them so, compares equal exactly when the vectors
/// do, and prints as they print.
#[test]
fn index_list_behaves_as_a_vec() {
    assert_eq!(
        std::mem::size_of::<IndexList>(),
        std::mem::size_of::<Vec<IndexId>>()
    );
    property(
        "index_list_behaves_as_a_vec",
        PropConfig::default(),
        |rng, _size| {
            let mut lists = [IndexList::new(), IndexList::new()];
            let mut vecs: [Vec<IndexId>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..rng.random_range(0usize..3 * IndexList::INLINE) {
                let k = rng.random_range(0usize..2);
                let id = IndexId(rng.random_range(0u32..4));
                lists[k].push(id);
                vecs[k].push(id);
            }
            let more = rng.random_range(0usize..IndexList::INLINE + 2);
            let ids: Vec<IndexId> = (0..more).map(|i| IndexId(i as u32)).collect();
            lists[1].extend(ids.iter().copied());
            vecs[1].extend(ids.iter().copied());
            for (list, vec) in lists.iter().zip(&vecs) {
                prop_assert!(**list == **vec, "{list:?} vs {vec:?}");
                prop_assert!(list.iter().eq(vec.iter()), "{vec:?}");
                prop_assert!(format!("{list:?}") == format!("{vec:?}"), "{vec:?}");
                let collected: IndexList = vec.iter().copied().collect();
                prop_assert!(collected == *list && list.clone() == *list, "{vec:?}");
            }
            prop_assert!(
                (lists[0] == lists[1]) == (vecs[0] == vecs[1]),
                "{:?} vs {:?}",
                vecs[0],
                vecs[1]
            );
            Ok(())
        },
    );
}

/// Index geometry is monotone in row count: more rows never shrink the
/// index or lower the tree.
#[test]
fn geometry_monotone_in_rows() {
    property(
        "geometry_monotone_in_rows",
        PropConfig::default(),
        |rng, _size| {
            let r1 = rng.random_range(1u64..10_000_000);
            let r2 = rng.random_range(1u64..10_000_000);
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let c_lo = catalog(lo);
            let c_hi = catalog(hi);
            let def = IndexDef::new("t", &["a", "b"]);
            let g_lo = geometry(&def, c_lo.table("t").unwrap()).unwrap();
            let g_hi = geometry(&def, c_hi.table("t").unwrap()).unwrap();
            prop_assert!(g_hi.bytes >= g_lo.bytes, "rows {lo} vs {hi}");
            prop_assert!(g_hi.leaf_pages >= g_lo.leaf_pages, "rows {lo} vs {hi}");
            prop_assert!(g_hi.height >= g_lo.height, "rows {lo} vs {hi}");
            Ok(())
        },
    );
}

/// Maintenance cost is monotone in inserted rows and never negative.
#[test]
fn maintenance_monotone() {
    property(
        "maintenance_monotone",
        PropConfig::default(),
        |rng, _size| {
            let rows = rng.random_range(1u64..1_000_000);
            let n1 = rng.random_range(0u64..1000);
            let n2 = rng.random_range(0u64..1000);
            let c = catalog(rows);
            let geo = geometry(&IndexDef::new("t", &["a"]), c.table("t").unwrap()).unwrap();
            let p = CostParams::default();
            let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
            let m_lo = maintenance_cost(&geo, lo, &p);
            let m_hi = maintenance_cost(&geo, hi, &p);
            prop_assert!(m_lo.io >= 0.0 && m_lo.cpu >= 0.0);
            prop_assert!(m_hi.total() >= m_lo.total(), "rows={rows} lo={lo} hi={hi}");
            Ok(())
        },
    );
}

/// Plan cost is monotone in table size for a fixed query and config.
#[test]
fn seq_cost_monotone_in_rows() {
    property(
        "seq_cost_monotone_in_rows",
        PropConfig::default(),
        |rng, _size| {
            let r1 = rng.random_range(100u64..5_000_000);
            let r2 = rng.random_range(100u64..5_000_000);
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let stmt = parse_statement("SELECT * FROM t WHERE b = 3").unwrap();
            let params = CostParams::default();
            let cost = |rows: u64| {
                let c = catalog(rows);
                let shape = QueryShape::extract(&stmt, &c);
                Planner::new(&c, &params).plan(&shape, &[]).native_cost()
            };
            prop_assert!(cost(hi) >= cost(lo), "rows {lo} vs {hi}");
            Ok(())
        },
    );
}

/// Adding an index never increases the *read* cost of a select: the
/// planner only picks it when it is cheaper.
#[test]
fn extra_index_never_hurts_reads() {
    property(
        "extra_index_never_hurts_reads",
        PropConfig::default(),
        |rng, _size| {
            let rows = rng.random_range(1000u64..2_000_000);
            let col = *rng.choose(&["a", "b", "x"]).unwrap();
            let c = catalog(rows);
            let db = SimDb::new(c, SimDbConfig::default());
            let sql = format!("SELECT * FROM t WHERE {col} = 5");
            let stmt = parse_statement(&sql).unwrap();
            let shape = QueryShape::extract(&stmt, db.catalog());
            let without = db.whatif_native_cost(&shape, &[]);
            let with = db.whatif_native_cost(&shape, &[IndexDef::new("t", &[col])]);
            prop_assert!(with <= without + 1e-9, "col={col} rows={rows}");
            Ok(())
        },
    );
}

/// Adding an index never decreases the maintenance cost of an insert.
#[test]
fn extra_index_never_helps_insert_maintenance() {
    property(
        "extra_index_never_helps_insert_maintenance",
        PropConfig::default(),
        |rng, _size| {
            let rows = rng.random_range(1000u64..2_000_000);
            let c = catalog(rows);
            let db = SimDb::new(c, SimDbConfig::default());
            let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)").unwrap();
            let shape = QueryShape::extract(&stmt, db.catalog());
            let f0 = db.whatif_features(&shape, &[]);
            let f1 = db.whatif_features(&shape, &[IndexDef::new("t", &["a"])]);
            let f2 = db.whatif_features(
                &shape,
                &[IndexDef::new("t", &["a"]), IndexDef::new("t", &["b", "s"])],
            );
            prop_assert!(f0.c_io <= f1.c_io && f1.c_io <= f2.c_io, "rows={rows}");
            prop_assert!(f0.c_cpu <= f1.c_cpu && f1.c_cpu <= f2.c_cpu, "rows={rows}");
            Ok(())
        },
    );
}

/// True cost is at least the native cost under default weights (the
/// native estimator is an *underestimate* on writes, never an over-).
#[test]
fn true_cost_dominates_native() {
    property(
        "true_cost_dominates_native",
        PropConfig::default(),
        |rng, _size| {
            let rows = rng.random_range(1000u64..1_000_000);
            let is_write = rng.random_bool(0.5);
            let c = catalog(rows);
            let db = SimDb::new(c, SimDbConfig::default());
            let sql = if is_write {
                "INSERT INTO t (a, b) VALUES (1, 2)"
            } else {
                "SELECT * FROM t WHERE a = 1"
            };
            let stmt = parse_statement(sql).unwrap();
            let shape = QueryShape::extract(&stmt, db.catalog());
            let f = db.whatif_features(&shape, &[IndexDef::new("t", &["a"])]);
            prop_assert!(
                f.true_cost(&TrueCostWeights::default()) >= f.native_cost(),
                "rows={rows} write={is_write}"
            );
            Ok(())
        },
    );
}

/// Filter selectivities extracted by shape stay in (0, 1].
#[test]
fn shape_selectivity_in_unit_interval() {
    property(
        "shape_selectivity_in_unit_interval",
        PropConfig::default(),
        |rng, _size| {
            let v = rng.random_range(-100i64..2000);
            let c = catalog(100_000);
            let sql = format!("SELECT * FROM t WHERE x > {v} AND b = 3 OR s LIKE 'q%'");
            let stmt = parse_statement(&sql).unwrap();
            let shape = QueryShape::extract(&stmt, &c);
            for t in &shape.tables {
                prop_assert!(t.filter_sel > 0.0 && t.filter_sel <= 1.0, "v={v}");
            }
            Ok(())
        },
    );
}

// ------------------------------------------------------- the index view

const VIEW_TABLES: [&str; 4] = ["orders", "lines", "cust", "audit"];
const VIEW_COLS: [&str; 4] = ["k", "g", "v", "s"];

/// Four tables sharing one column set; `lines` is partitioned so LOCAL
/// indexes resolve to several trees.
fn view_catalog(rng: &mut StdRng) -> Catalog {
    let mut c = Catalog::new();
    for name in VIEW_TABLES {
        let rows = rng.random_range(1_000u64..3_000_000);
        let mut t = TableBuilder::new(name, rows)
            .column(Column::int("k", rows))
            .column(Column::int("g", rng.random_range(2u64..5_000)))
            .column(Column::float("v", 10_000, 0.0, 1e6))
            .column(Column::text("s", 2_000, 16))
            .primary_key(&["k"]);
        if name == "lines" {
            t = t.partitioned(8, "g");
        }
        c.add_table(t.build().unwrap());
    }
    c
}

fn view_def(rng: &mut StdRng) -> IndexDef {
    let table = *rng.choose(&VIEW_TABLES).unwrap();
    let mut cols: Vec<&str> = VIEW_COLS.to_vec();
    rng.shuffle(&mut cols);
    cols.truncate(rng.random_range(1usize..4));
    let def = IndexDef::new(table, &cols);
    if table == "lines" && rng.random_bool(0.5) {
        def.with_scope(IndexScope::Local)
    } else {
        def
    }
}

/// A read, write or join statement over one or two of the view tables.
fn view_sql(rng: &mut StdRng) -> String {
    let t = *rng.choose(&VIEW_TABLES).unwrap();
    let u = *rng.choose(&VIEW_TABLES).unwrap();
    let n = rng.random_range(1i64..900);
    match rng.random_range(0u32..8) {
        0 => format!("SELECT * FROM {t} WHERE k = {n}"),
        1 => format!("SELECT k, g FROM {t} WHERE g = {n} AND v > {n}"),
        2 => format!("SELECT * FROM {t} WHERE g = {n} OR s = 'q{n}'"),
        3 => format!("SELECT * FROM {t} WHERE g = {n} ORDER BY v DESC LIMIT 10"),
        4 => format!("INSERT INTO {t} (k, g, v, s) VALUES ({n}, 1, 2.0, 'x')"),
        5 => format!("UPDATE {t} SET g = {n} WHERE k = {n}"),
        6 => format!("DELETE FROM {t} WHERE g = {n}"),
        _ if t != u => {
            format!("SELECT SUM({t}.v) FROM {t}, {u} WHERE {t}.g = {n} AND {t}.k = {u}.k")
        }
        _ => format!("SELECT g, COUNT(*) FROM {t} WHERE v < {n} GROUP BY g"),
    }
}

/// What-if resolves only the definitions on touched tables, by reference;
/// the plan must be the one the old way gives — every definition of the
/// configuration resolved into a flat list, then `Planner::plan` — field
/// for field, with the ids and names of the caller's configuration.
#[test]
fn whatif_plan_equals_flat_resolve_of_the_whole_config() {
    property(
        "whatif_plan_equals_flat_resolve_of_the_whole_config",
        PropConfig::default(),
        |rng, _size| {
            let db = SimDb::with_metrics(
                view_catalog(rng),
                SimDbConfig::default(),
                MetricsRegistry::new(),
            );
            let config: Vec<IndexDef> = (0..rng.random_range(0usize..14))
                .map(|_| view_def(rng))
                .collect();
            let sql = view_sql(rng);
            let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), db.catalog());

            let planner = Planner::new(db.catalog(), &db.config().cost_params);
            let flat: Vec<(IndexId, IndexDef)> = config
                .iter()
                .enumerate()
                .map(|(i, d)| (IndexId(u32::MAX - i as u32), d.clone()))
                .collect();
            let reference = planner.plan(&shape, &planner.resolve_indexes(&flat));

            let plan = db.whatif_plan(&shape, &config);
            prop_assert!(plan == reference, "{sql}\n{plan:?}\n{reference:?}");
            for (a, b) in plan
                .features
                .as_vec()
                .iter()
                .zip(reference.features.as_vec())
            {
                prop_assert!(a.to_bits() == b.to_bits(), "{sql}");
            }
            let name = |id: IndexId| Some(config[(u32::MAX - id.0) as usize].to_string());
            prop_assert!(
                db.whatif_explain(&shape, &config) == reference.explain(&shape, &name),
                "{sql}"
            );
            // A borrowed composition is the same configuration.
            let (head, tail) = config.split_at(config.len() / 2);
            prop_assert!(db.whatif_plan(&shape, head.iter().chain(tail)) == reference);
            Ok(())
        },
    );
}

/// Execution is priced by the planner's totals without keeping its report,
/// and its usage credit by a no-index pass that keeps nothing at all: both
/// must be, bit for bit, what the full `plan_over` reports — the executed
/// plan over the real view, the baseline over an empty one.
#[test]
fn snapshot_execution_and_its_baseline_equal_the_full_plan() {
    property(
        "snapshot_execution_and_its_baseline_equal_the_full_plan",
        PropConfig::default(),
        |rng, _size| {
            let mut db = SimDb::with_metrics(
                view_catalog(rng),
                SimDbConfig::default(),
                MetricsRegistry::new(),
            );
            for _ in 0..rng.random_range(0usize..14) {
                let _ = db.create_index(view_def(rng)); // duplicates refused
            }
            let sql = view_sql(rng);
            let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), db.catalog());
            let planner = Planner::new(db.catalog(), &db.config().cost_params);

            let baseline = planner.plan_over(&shape, &IndexView::default());
            prop_assert!(
                planner.unindexed_cost(&shape).to_bits()
                    == baseline.features.native_cost().to_bits(),
                "{sql}"
            );

            let plan = planner.plan_over(&shape, db.index_view());
            let (outcome, delta) = db.snapshot(0).execute_shape_at(&shape, 5);
            for (a, b) in outcome.features.as_vec().iter().zip(plan.features.as_vec()) {
                prop_assert!(a.to_bits() == b.to_bits(), "{sql}");
            }
            prop_assert!(*outcome.indexes_used == *plan.indexes_used, "{sql}");
            prop_assert!(delta.maintenance.to_vec() == plan.maintenance, "{sql}");
            let saving = (baseline.native_cost() - plan.native_cost()).max(0.0)
                / plan.indexes_used.len() as f64;
            let credited: Vec<(IndexId, u64)> = delta
                .scans
                .iter()
                .map(|id| (*id, delta.saving.to_bits()))
                .collect();
            let expected: Vec<(IndexId, u64)> = plan
                .indexes_used
                .iter()
                .map(|id| (*id, saving.to_bits()))
                .collect();
            prop_assert!(credited == expected, "{sql}");
            Ok(())
        },
    );
}

/// The live database and a snapshot run one execution core: over random
/// catalogs, index sets and statement runs (reads, joins, INSERT / UPDATE /
/// DELETE), without noise, `execute_shape` equals `execute_shape_at` on a
/// fresh snapshot followed by `absorb` — plan, usage credits, statement
/// count and table growth, and the latency too, except an INSERT's: the
/// live path measures after absorbing, so its own growth is in its
/// pressure. The buffer is small enough for pressure to matter.
#[test]
fn live_execution_equals_snapshot_execution_plus_absorb() {
    property(
        "live_execution_equals_snapshot_execution_plus_absorb",
        PropConfig::default(),
        |rng, _size| {
            let catalog = view_catalog(rng);
            let config = SimDbConfig {
                noise: 0.0,
                memory_bytes: rng.random_range(1u64 << 20..1 << 28),
                ..SimDbConfig::default()
            };
            let new_db =
                || SimDb::with_metrics(catalog.clone(), config.clone(), MetricsRegistry::new());
            let (mut live, mut split) = (new_db(), new_db());
            for _ in 0..rng.random_range(0usize..14) {
                let def = view_def(rng);
                let _ = live.create_index(def.clone()); // duplicates refused
                let _ = split.create_index(def);
            }
            for seq in 0..rng.random_range(1u64..12) {
                let sql = view_sql(rng);
                let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), live.catalog());
                let a = live.execute_shape(&shape);
                let (b, delta) = split.snapshot(0).execute_shape_at(&shape, seq);
                split.absorb(&delta);

                for (x, y) in a.features.as_vec().iter().zip(b.features.as_vec()) {
                    prop_assert!(x.to_bits() == y.to_bits(), "{sql}");
                }
                prop_assert!(a.indexes_used == b.indexes_used, "{sql}");
                let insert = shape
                    .write
                    .as_ref()
                    .is_some_and(|w| w.kind == WriteKind::Insert);
                prop_assert!(
                    insert || a.latency_ms.to_bits() == b.latency_ms.to_bits(),
                    "{sql}: {} vs {}",
                    a.latency_ms,
                    b.latency_ms
                );
                prop_assert!(live.usage().statements == split.usage().statements);
                for (id, _) in live.indexes() {
                    prop_assert!(
                        live.usage().usage(id) == split.usage().usage(id),
                        "{sql}: {id}"
                    );
                }
                for t in VIEW_TABLES {
                    let rows = |db: &SimDb| db.catalog().table(t).unwrap().rows;
                    prop_assert!(rows(&live) == rows(&split), "{sql}: {t}");
                }
                prop_assert!(live.memory_pressure().to_bits() == split.memory_pressure().to_bits());
            }
            Ok(())
        },
    );
}

/// Every index a snapshot holds, with the bits of what an insert into its
/// table pays to maintain it (a function of the resolved geometry).
fn snapshot_print(snap: &DbSnapshot) -> Vec<(IndexId, u64)> {
    let mut print = Vec::new();
    for t in VIEW_TABLES {
        let sql = format!("INSERT INTO {t} (k, g, v, s) VALUES (1, 1, 2.0, 'x')");
        let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), snap.catalog());
        let delta = snap.execute_shape_at(&shape, 0).1;
        print.extend(
            delta
                .maintenance
                .iter()
                .map(|(id, c)| (id, c.total().to_bits())),
        );
    }
    assert_eq!(print.len(), snap.index_count());
    print
}

/// Model test: after any interleaving of create / drop / restore /
/// insert growth the live view holds, per table and in id order, exactly
/// what resolving `db.indexes()` from scratch gives, its fingerprint is
/// the one a fresh database holding the same set reads, and a snapshot
/// taken on the way keeps the view it was given.
#[test]
fn live_index_view_equals_from_scratch_resolve() {
    property(
        "live_index_view_equals_from_scratch_resolve",
        PropConfig::default(),
        |rng, _size| {
            let mut db = SimDb::with_metrics(
                view_catalog(rng),
                SimDbConfig::default(),
                MetricsRegistry::new(),
            );
            let mut dropped: Vec<IndexDef> = Vec::new();
            let mut frozen: Option<(DbSnapshot, Vec<(IndexId, u64)>)> = None;
            for step in 0..rng.random_range(1usize..40) {
                match rng.random_range(0u32..6) {
                    0 | 1 => {
                        let _ = db.create_index(view_def(rng));
                    }
                    2 => {
                        let ids: Vec<IndexId> = db.indexes().map(|(id, _)| id).collect();
                        if let Some(id) = rng.choose(&ids) {
                            dropped.push(db.drop_index(*id).unwrap());
                        }
                    }
                    3 => {
                        if let Some(def) = dropped.pop() {
                            db.restore_index(def).unwrap();
                        }
                    }
                    4 => {
                        let t = *rng.choose(&VIEW_TABLES).unwrap();
                        let sql = format!("INSERT INTO {t} (k, g, v, s) VALUES (1, 1, 2.0, 'x')");
                        let shape =
                            QueryShape::extract(&parse_statement(&sql).unwrap(), db.catalog());
                        if rng.random_bool(0.5) {
                            db.execute_shape(&shape);
                        } else {
                            let delta = db.snapshot(0).execute_shape_at(&shape, step as u64).1;
                            db.absorb(&delta);
                        }
                    }
                    _ => {
                        let t = *rng.choose(&VIEW_TABLES).unwrap();
                        db.grow_table(t, rng.random_range(1u64..500_000)).unwrap();
                    }
                }

                let planner = Planner::new(db.catalog(), &db.config().cost_params);
                let all: Vec<(IndexId, IndexDef)> =
                    db.indexes().map(|(id, d)| (id, d.clone())).collect();
                let scratch = planner.resolve_indexes(&all);
                let view = db.index_view();
                prop_assert!(view.len() == scratch.len());
                prop_assert!(view.bytes() == scratch.iter().map(|vi| vi.geo.bytes).sum::<u64>());
                prop_assert!(db.total_index_bytes() == view.bytes());
                prop_assert!(
                    db.total_heap_bytes() == db.catalog().tables().map(|t| t.bytes()).sum::<u64>()
                );
                // The fingerprint is the set's: the same definitions entered
                // into a fresh database in the reverse order read the same.
                let mut fresh = SimDb::with_metrics(
                    db.catalog().clone(),
                    SimDbConfig::default(),
                    MetricsRegistry::new(),
                );
                for (_, d) in all.iter().rev() {
                    fresh.restore_index(d.clone()).unwrap();
                }
                prop_assert!(
                    fresh.index_fingerprint() == db.index_fingerprint(),
                    "step {step}"
                );
                for t in VIEW_TABLES {
                    let live = view.table(t);
                    let want: Vec<_> = scratch[..].on_table(t).collect();
                    prop_assert!(live.len() == want.len(), "step {step} table {t}");
                    for (a, b) in live.iter().zip(want) {
                        prop_assert!(
                            a.id == b.id && a.def() == b.def() && a.geo == b.geo,
                            "step {step} table {t}: {a:?} vs {b:?}"
                        );
                    }
                }

                match &frozen {
                    Some((snap, print)) => {
                        prop_assert!(snapshot_print(snap) == *print, "snapshot moved at {step}");
                    }
                    None if step == 3 => {
                        let snap = db.snapshot(1);
                        let print = snapshot_print(&snap);
                        frozen = Some((snap, print));
                    }
                    None => {}
                }
            }
            Ok(())
        },
    );
}

// ------------------------------------------------- prepared ≡ planned

/// [`view_catalog`] with what else a plan's arithmetic reads: physical
/// correlation on the key columns and, on some tables, an equi-depth
/// histogram under `v`.
fn oracle_catalog(rng: &mut StdRng) -> Catalog {
    let mut c = Catalog::new();
    for name in VIEW_TABLES {
        let rows = rng.random_range(1_000u64..3_000_000);
        let mut v = Column::float("v", 10_000, 0.0, 1e6);
        if rng.random_bool(0.5) {
            let samples = (0..400).map(|i| (i * i) as f64 * 6.0).collect();
            v = v.with_histogram(samples, 24);
        }
        let mut t = TableBuilder::new(name, rows)
            .column(
                Column::int("k", rows).with_correlation(rng.random_range(0u32..100) as f64 / 100.0),
            )
            .column(
                Column::int("g", rng.random_range(2u64..5_000))
                    .with_correlation(rng.random_range(0u32..100) as f64 / -100.0),
            )
            .column(v)
            .column(Column::text("s", 2_000, 16).with_null_frac(0.1))
            .primary_key(&["k"]);
        if name == "lines" {
            t = t.partitioned(8, "g");
        }
        c.add_table(t.build().unwrap());
    }
    c
}

/// [`view_def`] with per-part directions: `ORDER BY … DESC` is served by
/// a key stored that way, or by its mirror read backwards.
fn oracle_def(rng: &mut StdRng) -> IndexDef {
    let def = view_def(rng);
    if rng.random_bool(0.3) {
        let dirs: Vec<SortDirection> = def
            .columns
            .iter()
            .map(|_| {
                if rng.random_bool(0.5) {
                    SortDirection::Desc
                } else {
                    SortDirection::Asc
                }
            })
            .collect();
        def.with_directions(&dirs)
    } else {
        def
    }
}

/// A statement template over one to three view tables. Literal slots are
/// written `#i` (integer), `#f` (float), `#l` (a `LIMIT`) and `#s` (string):
/// [`oracle_bind`] fills each with a fresh value, so two bindings of one
/// template differ in every literal and in nothing else.
fn oracle_template(rng: &mut StdRng) -> String {
    let mut names = VIEW_TABLES.to_vec();
    rng.shuffle(&mut names);
    let (t, u, w) = (names[0], names[1], names[2]);
    match rng.random_range(0u32..21) {
        0 => format!("SELECT * FROM {t} WHERE k = #i"),
        1 => format!("SELECT k, g FROM {t} WHERE g = #i AND v > #f"),
        2 => format!("SELECT * FROM {t} WHERE g = #i OR s = #s"),
        3 => format!("SELECT * FROM {t} WHERE g = #i OR k = #i OR v < #f"),
        4 => format!("SELECT * FROM {t} WHERE g = #i ORDER BY v DESC LIMIT #l"),
        5 => {
            format!("SELECT g, v FROM {t} WHERE g = #i AND v BETWEEN #f AND #f ORDER BY v LIMIT #l")
        }
        6 => format!("SELECT * FROM {t} WHERE v < #f LIMIT #l"),
        7 => format!("SELECT g, v FROM {t} ORDER BY g, v DESC LIMIT #l"),
        8 => format!("INSERT INTO {t} (k, g, v, s) VALUES (#i, #i, #f, #s)"),
        9 => format!("INSERT INTO {t} (k, g) VALUES (#i, #i), (#i, #i), (#i, #i)"),
        10 => format!("UPDATE {t} SET g = #i WHERE k = #i"),
        11 => format!("UPDATE {t} SET v = #f WHERE g = #i AND s = #s"),
        12 => format!("DELETE FROM {t} WHERE g = #i"),
        13 => format!("SELECT SUM({t}.v) FROM {t}, {u} WHERE {t}.g = #i AND {t}.k = {u}.k"),
        14 => format!(
            "SELECT COUNT(*) FROM {t}, {u}, {w} WHERE {t}.k = {u}.k AND {u}.g = {w}.g \
             AND {w}.v > #f AND {t}.g = #i"
        ),
        15 => format!("SELECT g, COUNT(*) FROM {t} WHERE v < #f GROUP BY g"),
        16 => format!("SELECT * FROM {t} WHERE k IN (#i, #i, #i) AND g = #i"),
        17 => format!("SELECT * FROM {t} WHERE s LIKE 'q#i%' AND g = #i"),
        18 => format!("SELECT * FROM {t}, {u} WHERE {t}.g = #i AND {u}.g = #i"),
        19 => format!("SELECT k FROM {t} WHERE g = #i AND v >= #f AND s = #s AND k < #i"),
        _ => {
            format!("SELECT {u}.v FROM {t}, {u} WHERE {t}.k = #i AND {t}.k = {u}.g AND {u}.s = #s")
        }
    }
}

/// One binding of `template`: every slot filled with a fresh literal.
fn oracle_bind(template: &str, rng: &mut StdRng) -> String {
    let mut sql = String::with_capacity(template.len() + 16);
    let mut pieces = template.split('#');
    sql.push_str(pieces.next().unwrap_or(""));
    for piece in pieces {
        let n = rng.random_range(1i64..4_000);
        match piece.as_bytes()[0] {
            b'i' => sql.push_str(&n.to_string()),
            b'f' => sql.push_str(&format!("{}.{}", n * 37, n % 10)),
            b'l' => sql.push_str(&(1 + n % 60).to_string()),
            _ => sql.push_str(&format!("'q{n}'")),
        }
        sql.push_str(&piece[1..]);
    }
    sql
}

/// Everything a plan reports, floats by their bits, and the no-index
/// baseline an execution credits its saving against.
fn plan_print(plan: &PlanSummary, baseline: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for p in &plan.paths {
        let _ = write!(
            out,
            "path {:?} {:?} {:x} {:x} {:x} {} {} {:x};",
            p.index,
            p.bitmap_indexes,
            p.matched_sel.to_bits(),
            p.rows_out.to_bits(),
            p.cost.to_bits(),
            p.provides_order,
            p.covering,
            p.heap_cost.to_bits(),
        );
    }
    let _ = write!(
        out,
        "joins {:?} sort {:x} used {:?} elided {} covering {};",
        plan.join_strategies,
        plan.sort_cost.to_bits(),
        plan.indexes_used,
        plan.sort_elided,
        plan.covering_scans,
    );
    for (id, m) in &plan.maintenance {
        let _ = write!(
            out,
            "maint {id:?} {:x} {:x};",
            m.io.to_bits(),
            m.cpu.to_bits()
        );
    }
    for f in plan.features.as_vec() {
        let _ = write!(out, "{:x},", f.to_bits());
    }
    let _ = write!(out, " base {:x}", baseline.to_bits());
    out
}

/// One corpus case: a catalog, an index set and two bindings of one
/// statement template.
struct OracleCase {
    db: SimDb,
    /// The index set as a flat list in configuration order (what-if's
    /// form: per-table order breaks cost ties); `None` when the indexes
    /// were created in `db` and its grouped view is the set.
    flat: Option<Vec<VisibleIndex>>,
    a: String,
    b: String,
}

fn oracle_case(rng: &mut StdRng) -> OracleCase {
    let mut db = SimDb::with_metrics(
        oracle_catalog(rng),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    let mut defs: Vec<IndexDef> = (0..rng.random_range(0usize..16))
        .map(|_| oracle_def(rng))
        .collect();
    // Keys the templates' predicates can use: without them a bitmap-OR or
    // a pruned local probe is too rare to be covered.
    const USEFUL: [&[&str]; 8] = [
        &["g"],
        &["k"],
        &["s"],
        &["v"],
        &["g", "v"],
        &["g", "v", "k"],
        &["g", "s"],
        &["k", "g"],
    ];
    for _ in 0..rng.random_range(0usize..8) {
        let table = *rng.choose(&VIEW_TABLES).unwrap();
        let def = IndexDef::new(table, rng.choose(&USEFUL).unwrap());
        defs.push(if table == "lines" && rng.random_bool(0.5) {
            def.with_scope(IndexScope::Local)
        } else {
            def
        });
    }
    let flat = if rng.random_bool(0.5) {
        let numbered: Vec<(IndexId, IndexDef)> = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (IndexId(u32::MAX - i as u32), d.clone()))
            .collect();
        Some(Planner::new(db.catalog(), &db.config().cost_params).resolve_indexes(&numbered))
    } else {
        for def in defs {
            let _ = db.create_index(def); // duplicates refused
        }
        None
    };
    let template = oracle_template(rng);
    let (a, b) = (oracle_bind(&template, rng), oracle_bind(&template, rng));
    OracleCase { db, flat, a, b }
}

impl OracleCase {
    fn shape(&self, sql: &str) -> QueryShape {
        QueryShape::extract(&parse_statement(sql).unwrap(), self.db.catalog())
    }

    /// `shape` planned from scratch under this case's index set, and its
    /// no-index baseline.
    fn planned(&self, shape: &QueryShape) -> (PlanSummary, f64) {
        let planner = Planner::new(self.db.catalog(), &self.db.config().cost_params);
        let plan = match &self.flat {
            Some(flat) => planner.plan_over(shape, &flat[..]),
            None => planner.plan_over(shape, self.db.index_view()),
        };
        (plan, planner.unindexed_cost(shape))
    }

    /// A plan prepared from `shape` under this case's index set.
    fn prepare(&self, shape: &QueryShape) -> PreparedPlan {
        let planner = Planner::new(self.db.catalog(), &self.db.config().cost_params);
        match &self.flat {
            Some(flat) => planner.prepare(shape, &flat[..]),
            None => planner.prepare(shape, self.db.index_view()),
        }
    }

    /// `b` priced through the plan prepared from `a` — from `b` itself in
    /// the rare case its literals changed its structure (`fits` says so).
    fn prepared_then_priced(&self) -> ((PlanSummary, f64), bool) {
        let (a, b) = (self.shape(&self.a), self.shape(&self.b));
        let prepared = self.prepare(&a);
        match prepared.fits(&b) {
            true => (prepared.plan(&b), true),
            false => (self.prepare(&b).plan(&b), false),
        }
    }
}

/// The corpus the golden digest below was recorded over.
const ORACLE_SEED: u64 = 0x0024_0601;
const ORACLE_CASES: usize = 4_000;

/// Recorded on the commit before the planner was split into `prepare` +
/// `price` — there the digest of `plan_over(b)` + `unindexed_cost(b)`, one
/// interleaved pass each — over [`ORACLE_CASES`] cases of [`ORACLE_SEED`]:
/// every access path, join strategy, maintenance charge, cost feature and
/// no-index baseline, floats by their bits.
const ORACLE_DIGEST: &str = "7bab13585c871adc";

/// Pricing a statement through a plan prepared from *another* binding of
/// its template gives what the one-pass planner gave for it, and the
/// baseline priced on the way is that planner's second, index-free pass:
/// the digest was recorded there and has not moved.
#[test]
fn prepared_pricing_reproduces_the_one_pass_planner() {
    let mut rng = StdRng::seed_from_u64(ORACLE_SEED);
    let mut digest = FNV_OFFSET;
    let mut cross_bound = 0;
    for _ in 0..ORACLE_CASES {
        let case = oracle_case(&mut rng);
        let ((plan, baseline), fitted) = case.prepared_then_priced();
        cross_bound += usize::from(fitted);
        digest = fnv1a_from(digest, plan_print(&plan, baseline).as_bytes());
    }
    assert!(
        cross_bound * 100 >= ORACLE_CASES * 99,
        "only {cross_bound} of {ORACLE_CASES} second bindings kept the structure"
    );
    assert_eq!(format!("{digest:016x}"), ORACLE_DIGEST);
}

/// The live form of the digest test, over fresh catalogs, index sets and
/// templates: prepare from one binding, price a different one, and get —
/// every float by its bits, every index, strategy and maintenance charge,
/// every `AccessPath` — what planning the second statement from scratch
/// gives, and as baseline what `unindexed_cost` gives.
#[test]
fn prepared_pricing_equals_planning() {
    property(
        "prepared_pricing_equals_planning",
        PropConfig::default(),
        |rng, _size| {
            let case = oracle_case(rng);
            let b = case.shape(&case.b);
            let ((plan, baseline), _) = case.prepared_then_priced();
            let (reference, unindexed) = case.planned(&b);
            prop_assert!(
                plan_print(&plan, baseline) == plan_print(&reference, unindexed),
                "{} priced through a plan of {}",
                case.b,
                case.a
            );
            Ok(())
        },
    );
}

// ------------------------------------------- kept ≡ planned under change

/// The live database's kept plans are current by one rule — every growth
/// and every DDL releases them first — so a database that prices bound
/// statements through them is its twin that plans every statement from
/// scratch. Over random catalogs, index sets and fault plans, interleave
/// bound reads and writes of several templates (one much rarer than the
/// others, so kept plans are dropped and re-made) with `grow_table`,
/// `create_index`, `drop_index` and `restore_index`: every outcome, usage
/// counter, table size and fault counter agrees bit for bit, and the
/// database keeps no plan for a template that did not run.
#[test]
fn kept_plan_execution_equals_planned_execution_under_change() {
    property(
        "kept_plan_execution_equals_planned_execution_under_change",
        PropConfig::default().cases(128),
        |rng, size| {
            let catalog = oracle_catalog(rng);
            let config = SimDbConfig {
                memory_bytes: rng.random_range(1u64 << 20..1 << 28),
                seed: rng.random_range(0u64..1_000),
                ..SimDbConfig::default()
            };
            let faults = rng.random_bool(0.3).then(|| FaultPlanConfig {
                seed: rng.random_range(0u64..1_000),
                transient_error: 0.3,
                latency_spike: 0.2,
                ..FaultPlanConfig::default()
            });
            let new_db = || {
                let mut db =
                    SimDb::with_metrics(catalog.clone(), config.clone(), MetricsRegistry::new());
                db.set_fault_plan(faults.clone().map(FaultPlan::new));
                db
            };
            let (mut kept, mut planned) = (new_db(), new_db());
            for _ in 0..rng.random_range(0usize..10) {
                let def = oracle_def(rng);
                let _ = kept.create_index(def.clone()); // duplicates refused
                let _ = planned.create_index(def);
            }
            let templates: Vec<String> = (0..rng.random_range(1usize..5))
                .map(|_| oracle_template(rng))
                .collect();
            // The first binding of each template: what a later one must fit.
            let first: Vec<QueryShape> = templates
                .iter()
                .map(|t| {
                    let sql = oracle_bind(t, rng);
                    QueryShape::extract(&parse_statement(&sql).unwrap(), kept.catalog())
                })
                .collect();
            let mut dropped: Vec<IndexDef> = Vec::new();
            let mut ran = vec![false; templates.len()];
            for step in 0..rng.random_range(1usize..20 + size) {
                match rng.random_range(0u32..12) {
                    0 => {
                        let t = *rng.choose(&VIEW_TABLES).unwrap();
                        let rows = rng.random_range(1u64..200_000);
                        kept.grow_table(t, rows).unwrap();
                        planned.grow_table(t, rows).unwrap();
                    }
                    1 => {
                        let def = oracle_def(rng);
                        let a = kept.create_index(def.clone()).ok();
                        let b = planned.create_index(def).ok();
                        prop_assert!(a == b, "step {step}: create");
                    }
                    2 => {
                        let ids: Vec<IndexId> = kept.indexes().map(|(id, _)| id).collect();
                        if let Some(id) = rng.choose(&ids) {
                            let def = kept.drop_index(*id).unwrap();
                            prop_assert!(planned.drop_index(*id).unwrap() == def);
                            dropped.push(def);
                        }
                    }
                    3 => {
                        if let Some(def) = dropped.pop() {
                            let a = kept.restore_index(def.clone()).unwrap();
                            prop_assert!(planned.restore_index(def).unwrap() == a);
                        }
                    }
                    _ => {
                        // Template 0 runs a third as often as the others.
                        let j = match rng.random_range(0usize..3 * templates.len()) {
                            n if n < 3 * templates.len() - 1 => n % templates.len(),
                            _ => 0,
                        };
                        let sql = oracle_bind(&templates[j], rng);
                        let shape =
                            QueryShape::extract(&parse_statement(&sql).unwrap(), kept.catalog());
                        let fits = Planner::new(kept.catalog(), &kept.config().cost_params)
                            .prepare(&first[j], kept.index_view())
                            .fits(&shape);
                        let a = match fits {
                            true => kept.execute_bound(j as u64, &shape),
                            false => kept.execute_shape(&shape),
                        };
                        ran[j] |= fits;
                        let b = planned.execute_shape(&shape);
                        prop_assert!(
                            a.latency_ms.to_bits() == b.latency_ms.to_bits(),
                            "step {step}: {sql}: {} vs {}",
                            a.latency_ms,
                            b.latency_ms
                        );
                        for (x, y) in a.features.as_vec().iter().zip(b.features.as_vec()) {
                            prop_assert!(x.to_bits() == y.to_bits(), "step {step}: {sql}");
                        }
                        prop_assert!(a.indexes_used == b.indexes_used, "step {step}: {sql}");
                    }
                }
                prop_assert!(kept.usage().statements == planned.usage().statements);
                for (id, _) in kept.indexes() {
                    prop_assert!(
                        kept.usage().usage(id) == planned.usage().usage(id),
                        "step {step}: {id}"
                    );
                }
                for t in VIEW_TABLES {
                    let rows = |db: &SimDb| db.catalog().table(t).unwrap().rows;
                    prop_assert!(rows(&kept) == rows(&planned), "step {step}: {t}");
                }
                prop_assert!(kept.total_index_bytes() == planned.total_index_bytes());
                prop_assert!(kept.kept_plans() <= ran.iter().filter(|r| **r).count());
            }
            for name in [
                "db.executions",
                "db.fault.transient_errors",
                "db.fault.latency_spikes",
                "db.fault.absorbed_retries",
                "planner.path.index_scan",
                "planner.path.seq_scan",
                "planner.sort_elided",
            ] {
                let (a, b) = (
                    kept.metrics().counter_value(name),
                    planned.metrics().counter_value(name),
                );
                prop_assert!(a == b, "{name}: {a} vs {b}");
            }
            Ok(())
        },
    );
}

// ----------------------------------------- carried ≡ prepared under change

/// A snapshot's plan of a template stays current for a later snapshot of
/// its database wherever `DbSnapshot::agrees_on` says the two agree on the
/// template's tables — what lets a serving publication start from the
/// plans of the one before it. Over random catalogs, index sets and
/// templates, interleave `grow_table`, `create_index`, `drop_index` and
/// `restore_index`, snapshot after each step, and hold each template's
/// plan against the snapshot it was prepared on: wherever the new snapshot
/// agrees, fresh bindings priced through the held plan give what a plan the
/// new snapshot prepares gives — every access path, strategy, charge and
/// feature, floats by their bits — and execute to the same outcome and
/// delta; wherever it does not, the plan is prepared again. Some plans
/// must carry past a step that changed the database, and some must not.
#[test]
fn a_plan_carried_where_snapshots_agree_prices_as_a_fresh_one() {
    let (mut carried, mut refused) = (0usize, 0usize);
    property(
        "a_plan_carried_where_snapshots_agree_prices_as_a_fresh_one",
        PropConfig::default().cases(128),
        |rng, size| {
            let config = SimDbConfig {
                memory_bytes: rng.random_range(1u64 << 20..1 << 28),
                seed: rng.random_range(0u64..1_000),
                ..SimDbConfig::default()
            };
            let mut db = SimDb::with_metrics(oracle_catalog(rng), config, MetricsRegistry::new());
            for _ in 0..rng.random_range(0usize..10) {
                let _ = db.create_index(oracle_def(rng)); // duplicates refused
            }
            let templates: Vec<String> = (0..rng.random_range(1usize..5))
                .map(|_| oracle_template(rng))
                .collect();
            let bind = |catalog: &Catalog, template: &str, rng: &mut StdRng| {
                let sql = oracle_bind(template, rng);
                let shape = QueryShape::extract(&parse_statement(&sql).unwrap(), catalog);
                (sql, shape)
            };
            // Per template: the snapshot its plan was prepared on, and the
            // plan with the binding it was prepared from.
            let snap = db.snapshot(0);
            let mut held: Vec<(DbSnapshot, QueryShape, PreparedPlan)> = templates
                .iter()
                .map(|t| {
                    let (_, shape) = bind(snap.catalog(), t, rng);
                    let plan = snap.prepare(&shape);
                    (snap.clone(), shape, plan)
                })
                .collect();
            let mut dropped: Vec<IndexDef> = Vec::new();
            let mut seq = 0u64;
            for step in 1..rng.random_range(2u64..20 + size as u64) {
                match rng.random_range(0u32..6) {
                    0 => {
                        let t = *rng.choose(&VIEW_TABLES).unwrap();
                        db.grow_table(t, rng.random_range(1u64..200_000)).unwrap();
                    }
                    1 => {
                        // Keys the templates can use, half the time: a new
                        // index a plan would have chosen, or must maintain.
                        let def = match rng.random_bool(0.5) {
                            true => oracle_def(rng),
                            false => {
                                let t = *rng.choose(&VIEW_TABLES).unwrap();
                                IndexDef::new(t, rng.choose(&[&["g"][..], &["k"], &["v"]]).unwrap())
                            }
                        };
                        let _ = db.create_index(def);
                    }
                    2 => {
                        let ids: Vec<IndexId> = db.indexes().map(|(id, _)| id).collect();
                        if let Some(id) = rng.choose(&ids) {
                            dropped.push(db.drop_index(*id).unwrap());
                        }
                    }
                    3 => {
                        if let Some(def) = dropped.pop() {
                            db.restore_index(def).unwrap();
                        }
                    }
                    _ => {} // a publication with nothing moved
                }
                let snap = db.snapshot(step);
                for (j, template) in templates.iter().enumerate() {
                    let (earlier, first, plan) = &held[j];
                    if !snap.agrees_on(earlier, first) {
                        refused += 1;
                        let (_, shape) = bind(snap.catalog(), template, rng);
                        let plan = snap.prepare(&shape);
                        held[j] = (snap.clone(), shape, plan);
                        continue;
                    }
                    let moved = earlier.catalog().version() != snap.catalog().version()
                        || earlier.index_count() != snap.index_count();
                    carried += usize::from(moved);
                    for _ in 0..2 {
                        let (sql, shape) = bind(snap.catalog(), template, rng);
                        if !plan.fits(&shape) {
                            continue;
                        }
                        let (through, base) = plan.plan(&shape);
                        let (fresh, fresh_base) = snap.prepare(&shape).plan(&shape);
                        prop_assert!(
                            plan_print(&through, base) == plan_print(&fresh, fresh_base),
                            "step {step}: {sql} priced through a plan of epoch {}",
                            earlier.epoch
                        );
                        seq += 1;
                        let (a, a_delta) = snap.execute_prepared_at(plan, &shape, seq);
                        let (b, b_delta) = snap.execute_shape_at(&shape, seq);
                        prop_assert!(
                            a.latency_ms.to_bits() == b.latency_ms.to_bits(),
                            "step {step}: {sql}"
                        );
                        prop_assert!(a.indexes_used == b.indexes_used, "step {step}: {sql}");
                        prop_assert!(a_delta == b_delta, "step {step}: {sql}");
                    }
                }
            }
            Ok(())
        },
    );
    assert!(
        carried > 0 && refused > 0,
        "{carried} plans carried past a change, {refused} prepared again"
    );
}
