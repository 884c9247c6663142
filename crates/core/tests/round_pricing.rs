//! The seams of the one priced round (PR 20) and of the boundary that
//! opens it (PR 21): greedy, the bandit and diagnosis price through a
//! `DeltaPricer` and must compute bit for bit what the whole-workload loops
//! they replaced did; a term served from the advisor's one cache is the
//! term recomputed; a greedy or bandit round, or a diagnosis, must leave
//! the MCTS rounds around it exactly as they were; and a greedy round or a
//! diagnosis must plan the templates on the tables that changed, not the
//! workload.

use autoindex_core::{
    AutoIndex, AutoIndexConfig, CandidateConfig, CandidateGenerator, DiagnosisReport,
    IndexDiagnosis, StrategyKind,
};
use autoindex_estimator::{CostEstimator, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::rng::StdRng;
use autoindex_support::{prop_assert, prop_assert_eq};
use std::sync::atomic::Ordering::Relaxed;

const COLS: [&str; 5] = ["a", "b", "c", "d", "e"];

fn new_db(catalog: &Catalog) -> SimDb {
    SimDb::with_metrics(
        catalog.clone(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    )
}

fn shapes(db: &SimDb, sqls: &[(String, u64)]) -> Vec<(QueryShape, u64)> {
    sqls.iter()
        .map(|(q, n)| {
            let stmt = parse_statement(q).unwrap();
            (QueryShape::extract(&stmt, db.catalog()), *n)
        })
        .collect()
}

/// The selection `greedy.rs` computed before it had a pricer: one
/// whole-workload `workload_cost` per candidate, the benefits ranked
/// (descending, then by key), then the top taken while `budget` lasts over
/// the existing indexes' bytes. Kept here as the oracle.
fn naive_greedy<E: CostEstimator>(
    db: &SimDb,
    est: &E,
    w: &[(QueryShape, u64)],
    candidates: &[IndexDef],
    existing: &[IndexDef],
    budget: Option<u64>,
) -> Vec<IndexDef> {
    let base = est.workload_cost(db, w, existing);
    let mut scored: Vec<(f64, &IndexDef)> = candidates
        .iter()
        .map(|c| {
            (
                base - est.workload_cost(db, w, existing.iter().chain(Some(c))),
                c,
            )
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap()
            .then_with(|| a.1.key().cmp(&b.1.key()))
    });
    let mut used = index_bytes(db, existing);
    let mut picked = Vec::new();
    for (benefit, c) in scored {
        let size = db.index_size_bytes(c).unwrap_or(u64::MAX / 1024);
        if benefit > 0.0 && budget.is_none_or(|b| used + size <= b) {
            used += size;
            picked.push(c.clone());
        }
    }
    picked
}

fn index_bytes(db: &SimDb, defs: &[IndexDef]) -> u64 {
    defs.iter()
        .filter_map(|d| db.index_size_bytes(d).ok())
        .sum()
}

/// A random catalog of 1–3 tables, a weighted workload of point / OR
/// selects, updates and inserts over it, and a random existing index set.
fn generate(rng: &mut StdRng, size: usize) -> (Catalog, Vec<(String, u64)>, Vec<IndexDef>) {
    let mut cat = Catalog::new();
    let mut tables: Vec<(String, usize)> = Vec::new();
    for ti in 0..rng.random_range(1usize..4) {
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
    let nq = rng.random_range(1usize..(3 + size.max(1) / 6));
    let sqls = (0..nq)
        .map(|_| {
            let (name, ncols) = &tables[rng.random_range(0usize..tables.len())];
            let c1 = COLS[rng.random_range(0usize..*ncols)];
            let c2 = COLS[rng.random_range(0usize..*ncols)];
            let sql = match rng.random_range(0u32..8) {
                0 | 1 => format!(
                    "INSERT INTO {name} ({}, {}) VALUES (1, 2)",
                    COLS[0], COLS[1]
                ),
                2 => format!("UPDATE {name} SET {c1} = 3 WHERE {c2} = 5"),
                3 => format!("SELECT * FROM {name} WHERE {c1} = 1 ORDER BY {c2}"),
                _ => {
                    let joiner = if rng.random_bool(0.5) { "AND" } else { "OR" };
                    format!("SELECT * FROM {name} WHERE {c1} = 1 {joiner} {c2} = 5")
                }
            };
            (sql, rng.random_range(1u64..20))
        })
        .collect();
    let mut existing: Vec<IndexDef> = Vec::new();
    for _ in 0..rng.random_range(0usize..6) {
        let (name, ncols) = &tables[rng.random_range(0usize..tables.len())];
        let c1 = COLS[rng.random_range(0usize..*ncols)];
        let c2 = COLS[rng.random_range(0usize..*ncols)];
        let def = if rng.random_bool(0.5) || c1 == c2 {
            IndexDef::new(name, &[c1])
        } else {
            IndexDef::new(name, &[c1, c2])
        };
        if !existing.contains(&def) {
            existing.push(def);
        }
    }
    (cat, sqls, existing)
}

/// (a) Over generated catalogs, workloads, existing sets and budgets: a
/// Greedy session recommends the naive whole-workload selection — same
/// definitions, same order — at the `est_cost_{before,after}` the
/// whole-workload calls give, and two applied bandit rounds report the
/// `est_cost_{before,after}` the whole-workload calls give and select the
/// arms, at the confidence bounds, that the whole-workload oracle
/// (`decomposed_eval = false`) selects.
#[test]
fn ranking_and_arms_through_the_pricer_equal_the_naive_ranking() {
    property(
        "ranking_and_arms_through_the_pricer_equal_the_naive_ranking",
        PropConfig::default().cases(96),
        |rng, size| {
            let (cat, sqls, existing) = generate(rng, size);
            let est = NativeCostEstimator;

            // ---- greedy selection ----------------------------------------
            let mut db = new_db(&cat);
            for d in &existing {
                db.create_index(d.clone()).unwrap();
            }
            let w = shapes(&db, &sqls);
            let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
            let candidates = CandidateGenerator::new(CandidateConfig::default()).generate(
                &w,
                db.catalog(),
                &existing,
            );
            // Unlimited, or room for about half the candidates' bytes.
            let budget = rng
                .random_bool(0.5)
                .then(|| index_bytes(&db, &existing) + index_bytes(&db, &candidates) / 2 + 1);
            let naive = naive_greedy(&db, &est, &w, &candidates, &existing, budget);
            let config = AutoIndexConfig {
                storage_budget: budget,
                ..AutoIndexConfig::default()
            };
            let mut ai = AutoIndex::new(config, NativeCostEstimator);
            let session = ai
                .session(&mut db)
                .workload(&w)
                .strategy(StrategyKind::Greedy);
            let rec = session
                .recommend_only()
                .run()
                .unwrap()
                .report
                .recommendation;
            prop_assert_eq!(&rec.add, &naive);
            prop_assert!(rec.remove.is_empty());
            let naive_before = est.workload_cost(&db, &w, &existing);
            prop_assert_eq!(rec.est_cost_before.to_bits(), naive_before.to_bits());
            // The pricer projects in slot order: existing, then candidates.
            let after = candidates.iter().filter(|c| naive.contains(c));
            let naive_after = est.workload_cost(&db, &w, existing.iter().chain(after));
            prop_assert_eq!(rec.est_cost_after.to_bits(), naive_after.to_bits());

            // ---- bandit rounds -------------------------------------------
            // Twin databases and advisors: the pricer's term arithmetic
            // against its whole-workload arm. The second round has built,
            // bandit-owned arms in its pool.
            let mut sides: Vec<(SimDb, AutoIndex<NativeCostEstimator>)> = [true, false]
                .iter()
                .map(|&decomposed| {
                    let mut db = new_db(&cat);
                    for d in &existing {
                        db.create_index(d.clone()).unwrap();
                    }
                    let mut cfg = AutoIndexConfig {
                        strategy: StrategyKind::Bandit,
                        ..AutoIndexConfig::default()
                    };
                    cfg.mcts.decomposed_eval = decomposed;
                    (db, AutoIndex::new(cfg, NativeCostEstimator))
                })
                .collect();
            for round in 0..2 {
                let mut seen = Vec::new();
                for (db, ai) in sides.iter_mut() {
                    let before: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
                    ai.observe_reward(10.0 / (round + 1) as f64);
                    let out = ai.session(db).workload(&w).run().unwrap();
                    let rec = &out.report.recommendation;
                    let naive_before = est.workload_cost(db, &w, &before);
                    prop_assert_eq!(rec.est_cost_before.to_bits(), naive_before.to_bits());
                    let after = before.iter().filter(|d| !rec.remove.contains(d));
                    let naive_after = est.workload_cost(db, &w, after.chain(&rec.add));
                    prop_assert_eq!(rec.est_cost_after.to_bits(), naive_after.to_bits());
                    let arms: Vec<(String, u64, u64)> = out
                        .arms
                        .iter()
                        .map(|a| (a.key.clone(), a.ucb.to_bits(), a.expected.to_bits()))
                        .collect();
                    seen.push((format!("{rec:?}"), arms, out.report.evaluations));
                }
                prop_assert_eq!(&seen[0], &seen[1], "round {round}");
            }
            Ok(())
        },
    );
}

fn tenant_catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, rows) in [("t", 800_000u64), ("u", 300_000)] {
        c.add_table(
            TableBuilder::new(name, rows)
                .column(Column::int("id", rows))
                .column(Column::int("a", rows / 2))
                .column(Column::int("b", 4_000))
                .column(Column::int("c", 40))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
    }
    c
}

/// (b) Only an MCTS round may number slots in the advisor's persistent
/// universe: recommend-only greedy and bandit rounds between two MCTS
/// rounds — over a workload whose candidates the MCTS rounds never see —
/// leave the second one's recommendation and its policy tree exactly as
/// without them. (Every universe slot outside a configuration is a legal
/// action of the search, so a slot numbered by another strategy's round
/// would move the RNG's picks. The term cache is one for all of them: no
/// key of it holds a slot.)
#[test]
fn a_greedy_or_bandit_round_between_two_mcts_rounds_changes_nothing() {
    let run = |interlude: bool| {
        let mut db = new_db(&tenant_catalog());
        db.create_index(IndexDef::new("t", &["c"])).unwrap();
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        for i in 0..200 {
            ai.observe(&format!("SELECT * FROM t WHERE a = {i}"), &db)
                .unwrap();
            ai.observe(&format!("SELECT * FROM u WHERE b = {i} AND a = 1"), &db)
                .unwrap();
            ai.observe(&format!("UPDATE u SET c = 2 WHERE id = {i}"), &db)
                .unwrap();
        }
        // Recommend-only, so both runs meet the second MCTS round with the
        // same indexes: what differs is only which rounds came between.
        let first = ai.session(&mut db).recommend_only().run().unwrap().report;
        assert!(!first.recommendation.add.is_empty());
        if interlude {
            let other = shapes(
                &db,
                &[
                    ("SELECT * FROM t WHERE b = 7 ORDER BY a".to_string(), 50),
                    ("SELECT * FROM u WHERE c = 3 AND id = 9".to_string(), 50),
                ],
            );
            for kind in [StrategyKind::Greedy, StrategyKind::Bandit] {
                let out = ai
                    .session(&mut db)
                    .workload(&other)
                    .strategy(kind)
                    .recommend_only()
                    .run()
                    .unwrap();
                assert!(!out.report.recommendation.add.is_empty(), "{kind}");
            }
        }
        let last = ai.session(&mut db).recommend_only().run().unwrap().report;
        (format!("{:?}", last.recommendation), last.tree_nodes)
    };
    assert_eq!(run(true), run(false));
}

const WIDE_TABLES: usize = 132;

/// ≥ 100 tables with 2–3 templates each and two indexes per table but one:
/// 132 tables, 330 templates, 263 indexes; every table lacks the `w*(c)`
/// its second template wants.
fn wide() -> (SimDb, Vec<(String, u64)>) {
    let mut c = Catalog::new();
    for i in 0..WIDE_TABLES {
        c.add_table(
            TableBuilder::new(format!("w{i}"), 50_000)
                .column(Column::int("a", 50_000))
                .column(Column::int("b", 500))
                .column(Column::int("c", 5_000))
                .build()
                .unwrap(),
        );
    }
    let mut sqls = Vec::new();
    for i in 0..WIDE_TABLES {
        sqls.push((format!("SELECT * FROM w{i} WHERE a = 1"), 3));
        sqls.push((format!("SELECT * FROM w{i} WHERE c = 2"), 3));
        if i % 2 == 0 {
            sqls.push((format!("INSERT INTO w{i} (a, b) VALUES (1, 2)"), 3));
        }
    }
    let mut db = new_db(&c);
    for i in 0..WIDE_TABLES {
        db.create_index(IndexDef::new(format!("w{i}"), &["a"]))
            .unwrap();
        if i > 0 {
            db.create_index(IndexDef::new(format!("w{i}"), &["b"]))
                .unwrap();
        }
    }
    assert_eq!(db.index_count(), 263);
    assert_eq!(sqls.len(), 330);
    (db, sqls)
}

/// (c) A greedy round over [`wide`] looks up the whole workload once and
/// then, per candidate, the templates on the candidate's table; the
/// whole-workload oracle re-plans every template for every configuration it
/// prices.
#[test]
fn a_greedy_round_plans_the_templates_on_each_candidates_table() {
    const TABLES: usize = WIDE_TABLES;
    let round = |decomposed: bool| {
        let (mut db, sqls) = wide();
        let w = shapes(&db, &sqls);
        let mut cfg = AutoIndexConfig::default();
        cfg.mcts.decomposed_eval = decomposed;
        let mut ai = AutoIndex::new(cfg, NativeCostEstimator);
        let report = ai
            .session(&mut db)
            .workload(&w)
            .strategy(StrategyKind::Greedy)
            .recommend_only()
            .run()
            .unwrap()
            .report;
        let whatif = db.metrics().counter_value("db.whatif_calls");
        (report, whatif, w)
    };

    let (fast, whatif, w) = round(true);
    let (oracle, whatif_oracle, _) = round(false);
    assert_eq!(
        format!("{:?}", fast.recommendation),
        format!("{:?}", oracle.recommendation)
    );
    assert_eq!(fast.recommendation.add.len(), TABLES, "one w*(c) per table");

    let templates = w.len() as u64;
    let candidates = fast.candidates_generated as u64;
    assert!(candidates >= TABLES as u64);
    // Σ_c templates_on_table(c): every table has 2 or 3 templates, and no
    // candidate sits on more than one.
    let on_tables = candidates * 3;
    assert!(
        whatif <= templates + on_tables,
        "{whatif} what-if calls for {templates} templates and {candidates} candidates"
    );
    assert_eq!(whatif_oracle, oracle.evaluations as u64 * templates);
    assert!(whatif_oracle >= candidates * templates);
    assert!(whatif * 50 <= whatif_oracle, "{whatif} vs {whatif_oracle}");
}

/// Diagnosis as it was before the boundary priced it: a generation pass of
/// its own and two whole-workload re-plans. Kept here as the oracle.
fn naive_diagnose(db: &SimDb, ai: &AutoIndex<NativeCostEstimator>) -> DiagnosisReport {
    let w = ai.workload();
    let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
    let candidates =
        CandidateGenerator::new(ai.config.candidates.clone()).generate(&w, db.catalog(), &existing);
    let missing_benefit = if candidates.is_empty() || w.is_empty() {
        0.0
    } else {
        let est = ai.estimator();
        let base = est.workload_cost(db, &w, &existing);
        let with = est.workload_cost(db, &w, existing.iter().chain(&candidates));
        if base > 0.0 {
            ((base - with) / base).max(0.0)
        } else {
            0.0
        }
    };
    IndexDiagnosis::new(ai.config.diagnosis.clone()).diagnose(db, missing_benefit)
}

/// Field for field, floats by their bits.
fn report_fields(r: &DiagnosisReport) -> (String, u64, u64, bool) {
    (
        format!("{:?} {:?}", r.rarely_used, r.negative),
        r.missing_benefit.to_bits(),
        r.problem_ratio.to_bits(),
        r.should_tune,
    )
}

/// (d) Over generated catalogs and workloads, and random sequences of
/// {observe + execute, grow a table, create / drop an index, diagnose, MCTS
/// round}: every `DiagnosisReport` is the naive implementation's, and every
/// report and `Recommendation` is that of a twin advisor whose cache is
/// emptied before each diagnosis and round — a cached term is bit-equal to
/// its recomputation, whatever happened since it was cached.
#[test]
fn diagnoses_and_rounds_over_the_kept_cache_equal_their_recomputation() {
    // What-if calls the kept cache saved over the emptied one, all cases.
    let saved = std::sync::atomic::AtomicU64::new(0);
    property(
        "diagnoses_and_rounds_over_the_kept_cache_equal_their_recomputation",
        PropConfig::default().cases(48),
        |rng, size| {
            let (cat, sqls, existing) = generate(rng, size);
            let tables: Vec<(String, usize)> = (0..cat.len())
                .map(|ti| {
                    let name = format!("t{ti}");
                    let ncols = cat.table(&name).unwrap().columns.len();
                    (name, ncols)
                })
                .collect();
            let mut sides: Vec<(SimDb, AutoIndex<NativeCostEstimator>)> = (0..2)
                .map(|_| {
                    let mut db = new_db(&cat);
                    for d in &existing {
                        db.create_index(d.clone()).unwrap();
                    }
                    let mut cfg = AutoIndexConfig::default();
                    cfg.mcts.iterations = 40;
                    cfg.diagnosis.min_statements = 20;
                    (db, AutoIndex::new(cfg, NativeCostEstimator))
                })
                .collect();
            // The second side never finds a term cached.
            let mut emptied = 0u64;
            let mut empty = |side: usize, ai: &AutoIndex<NativeCostEstimator>| {
                if side == 1 {
                    emptied += 1;
                    ai.cost_cache().sweep(u64::MAX - emptied, Default::default);
                    assert!(ai.cost_cache().is_empty());
                }
            };
            for step in 0..rng.random_range(4usize..14) {
                match rng.random_range(0u32..7) {
                    0 | 1 => {
                        for _ in 0..rng.random_range(1usize..40) {
                            let (sql, _) = &sqls[rng.random_range(0usize..sqls.len())];
                            let stmt = parse_statement(sql).unwrap();
                            for (db, ai) in sides.iter_mut() {
                                ai.observe(sql, db).unwrap();
                                db.execute(&stmt);
                            }
                        }
                    }
                    2 => {
                        let (name, _) = &tables[rng.random_range(0usize..tables.len())];
                        let delta = rng.random_range(1u64..200_000);
                        for (db, _) in sides.iter_mut() {
                            db.grow_table(name, delta).unwrap();
                        }
                    }
                    3 => {
                        let (name, ncols) = &tables[rng.random_range(0usize..tables.len())];
                        let def = IndexDef::new(name, &[COLS[rng.random_range(0usize..*ncols)]]);
                        for (db, _) in sides.iter_mut() {
                            match db.find_index(&def) {
                                Some(id) => drop(db.drop_index(id).unwrap()),
                                None => drop(db.create_index(def.clone()).unwrap()),
                            }
                        }
                    }
                    4 | 5 => {
                        let mut seen = Vec::new();
                        for (side, (db, ai)) in sides.iter_mut().enumerate() {
                            empty(side, ai);
                            let calls = db.metrics().counter_value("db.whatif_calls");
                            let report = report_fields(&ai.diagnose(db));
                            let calls = db.metrics().counter_value("db.whatif_calls") - calls;
                            prop_assert_eq!(
                                &report,
                                &report_fields(&naive_diagnose(db, ai)),
                                "step {step}, side {side}"
                            );
                            seen.push((report, calls));
                        }
                        prop_assert_eq!(&seen[0].0, &seen[1].0, "step {step}");
                        prop_assert!(seen[0].1 <= seen[1].1, "step {step}");
                        saved.fetch_add(seen[1].1 - seen[0].1, Relaxed);
                    }
                    _ => {
                        let mut seen = Vec::new();
                        for (side, (db, ai)) in sides.iter_mut().enumerate() {
                            empty(side, ai);
                            let report = ai.session(db).run().unwrap().report;
                            seen.push((
                                format!("{:?}", report.recommendation),
                                report.created.len(),
                                report.tree_nodes,
                                ai.universe().len(),
                            ));
                        }
                        prop_assert_eq!(&seen[0], &seen[1], "step {step}");
                    }
                }
            }
            Ok(())
        },
    );
    assert!(
        saved.load(Relaxed) > 0,
        "the kept cache never served a term"
    );
}

/// (e) After one table of [`wide`] grew, the next diagnosis makes what-if
/// calls for the templates on that table only — under the existing
/// configuration and again with the candidates — and a diagnosis with
/// nothing changed makes none.
#[test]
fn a_diagnosis_plans_the_templates_on_the_table_that_grew() {
    let (mut db, sqls) = wide();
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    for (sql, n) in &sqls {
        for _ in 0..*n {
            ai.observe(sql, &db).unwrap();
        }
    }
    let whatif = |db: &SimDb| db.metrics().counter_value("db.whatif_calls");
    let templates = sqls.len() as u64;

    // Cold: every template under the existing configuration, then — every
    // table has a candidate — every template again with the candidates.
    let first = ai.diagnose(&db);
    assert!(first.should_tune, "{first:?}");
    assert_eq!(whatif(&db), 2 * templates);

    // w4 has three templates (a point read, the `c` read and an insert).
    db.grow_table("w4", 10_000).unwrap();
    let before = whatif(&db);
    let grown = ai.diagnose(&db);
    assert_eq!(whatif(&db) - before, 2 * 3);
    let before = whatif(&db);
    assert_eq!(
        report_fields(&grown),
        report_fields(&naive_diagnose(&db, &ai))
    );
    assert_eq!(
        whatif(&db) - before,
        2 * templates,
        "the oracle re-plans all"
    );

    let before = whatif(&db);
    let again = ai.diagnose(&db);
    assert_eq!(whatif(&db) - before, 0);
    assert_eq!(report_fields(&again), report_fields(&grown));
}

/// (f) A diagnosis numbers no slot in the advisor's persistent universe:
/// a quiet one and a firing one with no round after it (the driver's
/// cooldown), over observed templates whose candidates the MCTS rounds —
/// run over an explicit workload — never see, leave the second round's
/// recommendation, its policy tree and the persistent universe exactly as
/// without them.
#[test]
fn a_diagnosis_between_two_mcts_rounds_changes_nothing() {
    let run = |interlude: bool| {
        let mut db = new_db(&tenant_catalog());
        db.create_index(IndexDef::new("t", &["c"])).unwrap();
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        let w = shapes(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 1".to_string(), 200),
                ("SELECT * FROM u WHERE b = 1 AND a = 1".to_string(), 200),
                ("UPDATE u SET c = 2 WHERE id = 1".to_string(), 200),
            ],
        );
        let round = |ai: &mut AutoIndex<NativeCostEstimator>, db: &mut SimDb| {
            let session = ai.session(db).workload(&w).recommend_only();
            session.run().unwrap().report
        };
        let first = round(&mut ai, &mut db);
        assert!(!first.recommendation.add.is_empty());
        // Whichever pricer opens next sweeps the shared cache.
        db.grow_table("u", 5_000).unwrap();
        if interlude {
            for _ in 0..600 {
                ai.observe("SELECT COUNT(*) FROM t", &db).unwrap();
            }
            ai.observe("SELECT * FROM t WHERE b = 7 ORDER BY a", &db)
                .unwrap();
            let quiet = ai.diagnose(&db);
            assert!(
                quiet.missing_benefit > 0.0 && !quiet.should_tune,
                "{quiet:?}"
            );
            for i in 0..300 {
                ai.observe(&format!("SELECT * FROM u WHERE c = {i} AND id = 9"), &db)
                    .unwrap();
            }
            let fired = ai.diagnose(&db);
            assert!(fired.should_tune, "{fired:?}");
        }
        let last = round(&mut ai, &mut db);
        (
            format!("{:?}", last.recommendation),
            last.tree_nodes,
            ai.universe().len(),
        )
    };
    assert_eq!(run(true), run(false));
}
