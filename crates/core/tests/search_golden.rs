//! Golden digest of a fixed grid of MCTS rounds over the banking catalog
//! under its 263 DBA indexes (a `ConfigSet` of that universe spans five
//! words), recorded before the search's buffers, hashers and size cache
//! were reworked. A rework of the search must leave every RNG draw, every
//! k-th-legal-slot pick, every L1 hit and miss and every priced
//! configuration where it was, and this digest sees all of them through
//! what a round reports.
//!
//! Two grids:
//! * **search** — `MctsSearch::run` on one persistent policy tree for three
//!   rounds, with and without a storage budget that admits some additions
//!   and refuses others; between rounds a table grows and the workload
//!   moves on, and one `CostCache` outlives the rounds, as an advisor's
//!   does;
//! * **session** — `AutoIndex` recommendation rounds (prune pass, search,
//!   add-refinement, minimal-change pass) over the same database, budgeted,
//!   with the prune pass on and off, three rounds each.
//!
//! Per round each folds the best configuration, the baseline and best
//! costs' bits, the iterations, evaluations, L1 hits, tree size and the
//! round's `db.whatif_calls`. On a mismatch the failure prints a per-round
//! table to find the round that moved.

use autoindex_core::mcts::{ConfigSet, MctsConfig, MctsSearch, PolicyTree, Universe};
use autoindex_core::DeltaPricer;
use autoindex_core::{AutoIndex, AutoIndexConfig, CandidateConfig, CandidateGenerator};
use autoindex_estimator::cost_cache::shape_keys;
use autoindex_estimator::{CostCache, NativeCostEstimator};
use autoindex_sql::parse_statement;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};

/// What the grid below produced before the search reused its buffers.
const GOLDEN: u64 = 0x071e_da1e_40e1_1934;

const ROUNDS: usize = 3;

/// Grows between rounds, so sizes and cost-cache stamps move.
const GROWN: [(&str, u64); ROUNDS] = [
    ("withdraw_flow", 400_000),
    ("account", 150_000),
    ("txn_journal", 900_000),
];

fn banking_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for d in banking::dba_indexes() {
        db.create_index(d).expect("a DBA index is valid");
    }
    db
}

/// Round `r`'s statements: a fresh slice of a hybrid banking stream.
fn statements(seed: u64, r: usize) -> Vec<String> {
    BankingGenerator::new(seed * 100 + r as u64)
        .generate_hybrid(30, 0.5)
        .into_iter()
        .map(|(_, q)| q)
        .collect()
}

fn shapes(db: &SimDb, queries: &[String]) -> Vec<(QueryShape, u64)> {
    queries
        .iter()
        .map(|q| {
            let stmt = parse_statement(q).expect("generated SQL parses");
            (QueryShape::extract(&stmt, db.catalog()), 1)
        })
        .collect()
}

/// One round's line of the digest.
#[derive(Debug)]
struct RoundLine {
    cell: String,
    round: usize,
    fold: u64,
}

struct Digest {
    lines: Vec<RoundLine>,
}

impl Digest {
    fn push(&mut self, cell: &str, round: usize, fields: &[u64]) {
        let fold = fields
            .iter()
            .fold(FNV_OFFSET, |h, f| fnv1a_from(h, &f.to_le_bytes()));
        self.lines.push(RoundLine {
            cell: cell.to_string(),
            round,
            fold,
        });
    }

    fn value(&self) -> u64 {
        self.lines
            .iter()
            .fold(FNV_OFFSET, |h, l| fnv1a_from(h, &l.fold.to_le_bytes()))
    }
}

fn slots_fold(config: &ConfigSet) -> u64 {
    config
        .iter()
        .fold(FNV_OFFSET, |h, s| fnv1a_from(h, &(s as u64).to_le_bytes()))
}

fn is_primary_key(db: &SimDb, def: &IndexDef) -> bool {
    db.catalog()
        .table(&def.table)
        .is_some_and(|t| !t.primary_key.is_empty() && def.columns == t.primary_key)
}

/// The search grid: one persistent tree, universe and cost cache per cell.
fn search_cell(digest: &mut Digest, seed: u64, budgeted: bool) {
    let mut db = banking_db();
    let dba = banking::dba_indexes();
    let generator = CandidateGenerator::new(CandidateConfig::default());
    let mut universe = Universe::new();
    for d in &dba {
        universe.intern(d.clone());
    }
    let existing: ConfigSet = dba.iter().filter_map(|d| universe.slot(d)).collect();
    let protected: ConfigSet = dba
        .iter()
        .filter(|d| is_primary_key(&db, d))
        .filter_map(|d| universe.slot(d))
        .collect();
    let (est, cache) = (NativeCostEstimator, CostCache::new());
    let mut tree = PolicyTree::new();
    let mut budget = None;
    let cell = format!("search seed={seed} budgeted={budgeted}");
    for (r, &(table, rows)) in GROWN.iter().enumerate() {
        let w = shapes(&db, &statements(seed, r));
        for d in generator.generate(&w, db.catalog(), &dba) {
            universe.intern(d);
        }
        universe.refresh_sizes(&db);
        if budgeted && budget.is_none() {
            // Room for the median candidate over the DBA set: at the start
            // some additions fit and others do not.
            let mut sizes: Vec<u64> = (0..universe.len())
                .filter(|&s| !existing.contains(s))
                .map(|s| universe.size(s))
                .collect();
            sizes.sort_unstable();
            let b = universe.config_size(&existing) + sizes[sizes.len() / 2];
            let fits = sizes
                .iter()
                .filter(|&&s| universe.config_size(&existing) + s <= b)
                .count();
            assert!(fits > 0 && fits < sizes.len(), "the budget must bite");
            budget = Some(b);
        }
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
            existing: existing.clone(),
            protected: protected.clone(),
            start: existing.clone(),
        };
        let keys = shape_keys(&w);
        let whatif_before = db.metrics().counter_value("db.whatif_calls");
        let mut pricer = DeltaPricer::new(&universe, &w, &keys, &db, &est, &cache, true);
        let out = search.run(&mut tree, &mut pricer);
        let whatif = db.metrics().counter_value("db.whatif_calls") - whatif_before;
        assert!(out.iterations > 0 && out.evaluations > 0);
        digest.push(
            &cell,
            r,
            &[
                slots_fold(&out.best_config),
                out.best_config.len() as u64,
                out.baseline_cost.to_bits(),
                out.best_cost.to_bits(),
                out.iterations as u64,
                out.evaluations as u64,
                out.cache_hits as u64,
                tree.len() as u64,
                whatif,
            ],
        );
        db.grow_table(table, rows).expect("a banking table");
    }
}

/// The session grid: an advisor's recommendation rounds with the prune pass
/// on (`Some(0.0)`) or off (the minimal-change pass), with or without room
/// for a few indexes beyond the DBA set.
fn session_cell(digest: &mut Digest, seed: u64, prune_epsilon: Option<f64>, budgeted: bool) {
    let mut db = banking_db();
    let mut config = AutoIndexConfig::default();
    config.mcts.iterations = 40;
    config.mcts.seed = seed;
    config.prune_epsilon = prune_epsilon;
    config.storage_budget = budgeted.then(|| db.total_index_bytes() + (64 << 20));
    let mut ai = AutoIndex::new(config, NativeCostEstimator);
    let cell = format!("session seed={seed} prune={prune_epsilon:?} budgeted={budgeted}");
    for (r, &(table, rows)) in GROWN.iter().enumerate() {
        for q in statements(seed, r) {
            ai.observe(&q, &db).expect("generated SQL parses");
        }
        let whatif_before = db.metrics().counter_value("db.whatif_calls");
        let report = ai
            .session(&mut db)
            .recommend_only()
            .run()
            .expect("a round runs")
            .report;
        let whatif = db.metrics().counter_value("db.whatif_calls") - whatif_before;
        let rec = &report.recommendation;
        let keys = |defs: &[IndexDef]| {
            defs.iter()
                .fold(FNV_OFFSET, |h, d| fnv1a_from(h, d.key().as_bytes()))
        };
        digest.push(
            &cell,
            r,
            &[
                keys(&rec.add),
                keys(&rec.remove),
                rec.est_cost_before.to_bits(),
                rec.est_cost_after.to_bits(),
                report.evaluations as u64,
                report.search_evaluations as u64,
                report.eval_cache_hits as u64,
                report.tree_nodes as u64,
                whatif,
            ],
        );
        db.grow_table(table, rows).expect("a banking table");
    }
}

#[test]
fn search_rounds_reproduce_the_recorded_digest() {
    let mut digest = Digest { lines: Vec::new() };
    for seed in [3, 8] {
        for budgeted in [false, true] {
            search_cell(&mut digest, seed, budgeted);
        }
    }
    for (seed, prune, budgeted) in [(5, Some(0.0), true), (6, None, false)] {
        session_cell(&mut digest, seed, prune, budgeted);
    }
    let got = digest.value();
    if got != GOLDEN {
        for l in &digest.lines {
            eprintln!("{:<52} round {}  {:#018x}", l.cell, l.round, l.fold);
        }
    }
    assert_eq!(got, GOLDEN, "search digest moved: {got:#018x}");
}
