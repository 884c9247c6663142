//! PR 3 regression gate: the decomposed delta-cost evaluation engine must
//! be a pure performance optimisation — recommendations byte-identical to
//! the legacy uncached serial path, with a large reduction in what-if
//! planner calls (the acceptance bar is ≥ 3×; the banking workload
//! typically shows two orders of magnitude, see
//! `crates/bench/baselines/cost_cache.json`).

use autoindex_core::mcts::{
    ConfigSet, MctsConfig, MctsSearch, PolicyTree, SearchOutcome, Universe,
};
use autoindex_core::{
    AutoIndex, AutoIndexConfig, CandidateConfig, CandidateGenerator, DeltaPricer,
};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};

fn banking_fixture() -> (SimDb, Vec<(QueryShape, u64)>, Vec<String>) {
    let catalog = banking::catalog();
    let queries: Vec<String> = BankingGenerator::new(11)
        .generate_hybrid(40, 0.5)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let db = SimDb::with_metrics(catalog, SimDbConfig::default(), MetricsRegistry::new());
    let shapes = queries
        .iter()
        .map(|q| {
            (
                QueryShape::extract(&parse_statement(q).unwrap(), db.catalog()),
                1u64,
            )
        })
        .collect();
    (db, shapes, queries)
}

/// Run one MCTS search over the banking universe under `cfg`, on a db with
/// private counters, returning the outcome and the `db.whatif_calls` total.
fn run_search(db: &SimDb, shapes: &[(QueryShape, u64)], decomposed: bool) -> (SearchOutcome, u64) {
    let defaults = banking::dba_indexes();
    let cands = CandidateGenerator::new(CandidateConfig::default()).generate(
        shapes,
        db.catalog(),
        &defaults,
    );
    let mut universe = Universe::new();
    for d in defaults.iter().chain(cands.iter()) {
        universe.intern(d.clone());
    }
    universe.refresh_sizes(db);
    let existing: ConfigSet = defaults.iter().filter_map(|d| universe.slot(d)).collect();
    let est = NativeCostEstimator;
    db.metrics().reset();
    let mut tree = PolicyTree::new();
    tree.begin_round(0.5);
    let search = MctsSearch {
        universe: &universe,
        db,
        config: MctsConfig {
            iterations: 40,
            seed: 9,
            decomposed_eval: decomposed,
            ..MctsConfig::default()
        },
        budget: None,
        existing: existing.clone(),
        protected: ConfigSet::default(),
        start: existing,
    };
    let cache = CostCache::new();
    let keys = shape_keys(shapes);
    let mut pricer = DeltaPricer::new(&universe, shapes, &keys, db, &est, &cache, decomposed);
    let out = search.run(&mut tree, &mut pricer);
    (out, db.metrics().counter_value("db.whatif_calls"))
}

#[test]
fn decomposed_search_is_byte_identical_and_saves_whatif_calls() {
    let (db, shapes, _) = banking_fixture();
    let (legacy, whatif_legacy) = run_search(&db, &shapes, false);
    let (serial, whatif_serial) = run_search(&db, &shapes, true);

    assert_eq!(
        serial.best_config, legacy.best_config,
        "recommendation diverged from uncached serial"
    );
    assert_eq!(
        serial.best_cost.to_bits(),
        legacy.best_cost.to_bits(),
        "best cost not bit-identical"
    );
    assert_eq!(
        serial.baseline_cost.to_bits(),
        legacy.baseline_cost.to_bits(),
        "baseline cost not bit-identical"
    );
    assert_eq!(serial.evaluations, legacy.evaluations, "L1 miss count");
    assert_eq!(serial.cache_hits, legacy.cache_hits, "L1 hit count");
    // Acceptance bar: >= 3x fewer planner invocations. In practice the
    // banking workload's per-table locality yields far more than that.
    assert!(
        whatif_legacy >= 3 * whatif_serial.max(1),
        "expected >=3x what-if reduction, got {whatif_legacy} vs {whatif_serial}"
    );
}

#[test]
fn system_recommendations_identical_across_eval_modes() {
    let (_, _, queries) = banking_fixture();
    let mut recs = Vec::new();
    for decomposed in [false, true] {
        let mut db = SimDb::with_metrics(
            banking::catalog(),
            SimDbConfig::default(),
            MetricsRegistry::new(),
        );
        let mut cfg = AutoIndexConfig::default();
        cfg.mcts.iterations = 30;
        cfg.mcts.seed = 5;
        cfg.mcts.decomposed_eval = decomposed;
        let mut ai = AutoIndex::new(cfg, NativeCostEstimator);
        for q in &queries {
            ai.observe(q, &db).unwrap();
        }
        recs.push(
            ai.session(&mut db)
                .recommend_only()
                .run()
                .unwrap()
                .report
                .recommendation,
        );
    }
    let (legacy, fast) = (&recs[0], &recs[1]);
    assert_eq!(legacy.add, fast.add, "add lists diverged across eval modes");
    assert_eq!(legacy.remove, fast.remove, "remove lists diverged");
    assert_eq!(
        legacy.est_cost_before.to_bits(),
        fast.est_cost_before.to_bits()
    );
    assert_eq!(
        legacy.est_cost_after.to_bits(),
        fast.est_cost_after.to_bits()
    );
}

/// The shape of the `wide_serve` benchmark: one or two templates on each
/// of 120 banking tables (reads, plus a write on every tenth), starting
/// from all 263 DBA indexes. `round` rotates the filtered columns and the
/// weights, so every round brings new candidates into the universe.
fn wide_workload(db: &SimDb, round: u64) -> Vec<(QueryShape, u64)> {
    let mut tables: Vec<_> = db.catalog().tables().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    tables.retain(|t| t.rows <= 1_000_000 && t.columns.len() >= 2);
    tables.truncate(120);
    assert!(tables.len() >= 100, "{} wide tables", tables.len());
    let mut sqls = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        let name = &t.name;
        let r = round as usize;
        let a = &t.columns[(i + r) % t.columns.len()].name;
        let b = &t.columns[(i + r + 1) % t.columns.len()].name;
        sqls.push(format!("SELECT * FROM {name} WHERE {a} = 7"));
        match i % 10 {
            0 => sqls.push(format!("UPDATE {name} SET {b} = 1 WHERE {a} = 7")),
            1..=3 => sqls.push(format!(
                "SELECT {a}, {b} FROM {name} WHERE {a} = 7 AND {b} > 3"
            )),
            _ => {}
        }
    }
    sqls.iter()
        .enumerate()
        .map(|(i, q)| {
            let shape = QueryShape::extract(&parse_statement(q).unwrap(), db.catalog());
            (shape, 1 + (i as u64 * 7 + round * 13) % 29)
        })
        .collect()
}

/// What one tuning round reported, reduced to what must not depend on the
/// evaluator: the recommendation with its cost bits, and the evaluation
/// economics of the search and the probes around it.
#[derive(Debug, PartialEq)]
struct RoundFacts {
    add: Vec<String>,
    remove: Vec<String>,
    cost_bits: (u64, u64),
    evaluations: usize,
    search_evaluations: usize,
    eval_cache_hits: usize,
    tree_nodes: usize,
}

/// Three applied rounds over one advisor — one persistent `MctsStrategy`:
/// universe, policy tree and term cache carry over — returning each
/// round's facts and its `(db.whatif_calls, cost-cache misses, looked-up
/// terms, carried terms)`.
fn three_wide_rounds(
    decomposed: bool,
    prune: bool,
    budgeted: bool,
) -> Vec<(RoundFacts, [u64; 4], usize)> {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    let mut dba_bytes = 0;
    for d in banking::dba_indexes() {
        dba_bytes += db.index_size_bytes(&d).unwrap();
        db.create_index(d).unwrap();
    }
    let mut cfg = AutoIndexConfig::default();
    cfg.mcts.iterations = 25;
    cfg.mcts.seed = 3;
    cfg.mcts.decomposed_eval = decomposed;
    cfg.prune_epsilon = prune.then_some(0.0);
    // Room for a handful of additions, not for all of them — measured
    // from where the additions start, which the prune pass moves.
    let room = if prune {
        dba_bytes / 6
    } else {
        dba_bytes + (8 << 20)
    };
    cfg.storage_budget = budgeted.then_some(room);
    let mut ai = AutoIndex::new(cfg, NativeCostEstimator);
    (0..3)
        .map(|round| {
            let workload = wide_workload(&db, round);
            let count = |name: &str| db.metrics().counter_value(name);
            let names = [
                "db.whatif_calls",
                "estimator.cost_cache.misses",
                "delta.terms.looked_up",
                "delta.terms.carried",
            ];
            let before = names.map(count);
            let report = ai
                .session(&mut db)
                .workload(&workload)
                .run()
                .unwrap()
                .report;
            let count = |name: &str| db.metrics().counter_value(name);
            let after = names.map(count);
            let rec = &report.recommendation;
            let facts = RoundFacts {
                add: rec.add.iter().map(|d| d.key()).collect(),
                remove: rec.remove.iter().map(|d| d.key()).collect(),
                cost_bits: (rec.est_cost_before.to_bits(), rec.est_cost_after.to_bits()),
                evaluations: report.evaluations,
                search_evaluations: report.search_evaluations,
                eval_cache_hits: report.eval_cache_hits,
                tree_nodes: report.tree_nodes,
            };
            let mut delta = [0; 4];
            for i in 0..4 {
                delta[i] = after[i] - before[i];
            }
            (facts, delta, workload.len())
        })
        .collect()
}

#[test]
fn three_wide_rounds_are_identical_across_eval_modes() {
    for (prune, budgeted) in [(true, false), (false, false), (true, true), (false, true)] {
        let legacy = three_wide_rounds(false, prune, budgeted);
        let fast = three_wide_rounds(true, prune, budgeted);
        let mut acted = false;
        for (round, (l, f)) in legacy.iter().zip(&fast).enumerate() {
            let case = format!("prune={prune} budgeted={budgeted} round={round}");
            assert_eq!(l.0, f.0, "{case}");
            acted |= !f.0.add.is_empty() || !f.0.remove.is_empty();
            let terms = f.2 as u64;
            let [whatif_legacy, ..] = l.1;
            let [whatif, misses, looked_up, carried] = f.1;
            // The oracle replans the whole workload per evaluation; the
            // decomposed evaluator plans exactly its cache misses.
            assert_eq!(whatif_legacy, l.0.evaluations as u64 * terms, "{case}");
            assert_eq!(whatif, misses, "{case}");
            assert!(
                whatif * 10 <= whatif_legacy,
                "{case}: {whatif} vs {whatif_legacy}"
            );
            // Every priced configuration accounts for every term, and on
            // this shape almost all of them are carried.
            assert_eq!(
                looked_up + carried,
                f.0.evaluations as u64 * terms,
                "{case}"
            );
            assert!(
                looked_up * 10 <= carried,
                "{case}: {looked_up} vs {carried}"
            );
        }
        assert!(
            acted,
            "prune={prune} budgeted={budgeted}: no round changed anything"
        );
    }
}
