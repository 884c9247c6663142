//! The Greedy baseline (§VI-A).
//!
//! "Greedy greedily selected indexes with the highest benefits until
//! arriving resource limit." Each candidate's benefit is estimated
//! *standalone* against the current configuration — the method evaluates
//! single indexes, never combinations, which is precisely the weakness the
//! policy-tree search addresses: it cannot see substitution (two
//! overlapping indexes both look great), it cannot trade a big redundant
//! index for two small complementary ones, and it never removes anything.
//!
//! To keep the comparison fair (§VI-A), Greedy uses the *same* cost
//! estimator as AutoIndex.

use autoindex_estimator::{CostEstimator, TemplateWorkload};
use autoindex_storage::index::IndexDef;
use autoindex_storage::SimDb;

/// Greedy parameters.
#[derive(Debug, Clone, Default)]
pub struct GreedyConfig {
    /// Storage budget in bytes for *added* indexes plus existing ones
    /// (`None` = unlimited).
    pub budget: Option<u64>,
    /// Optional cap on the number of added indexes.
    pub max_indexes: Option<usize>,
}

/// One scored candidate, as ranked by Greedy.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    pub def: IndexDef,
    /// Standalone estimated cost reduction against the existing config.
    pub benefit: f64,
    /// Estimated size in bytes.
    pub size: u64,
}

/// Select indexes greedily: rank candidates by standalone benefit, take
/// from the top while the budget lasts. Returns the added definitions.
pub fn greedy_select<E: CostEstimator>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    candidates: &[IndexDef],
    existing: &[IndexDef],
    config: &GreedyConfig,
) -> Vec<IndexDef> {
    rank_candidates(db, estimator, workload, candidates, existing)
        .into_iter()
        .filter(|c| c.benefit > 0.0)
        .scan((existing_size(db, existing), 0usize), |(used, count), c| {
            if let Some(max) = config.max_indexes {
                if *count >= max {
                    return None;
                }
            }
            if let Some(b) = config.budget {
                if *used + c.size > b {
                    // Skip candidates that no longer fit; keep trying
                    // smaller ones (standard top-k with knapsack skip).
                    return Some(None);
                }
            }
            *used += c.size;
            *count += 1;
            Some(Some(c.def))
        })
        .flatten()
        .collect()
}

/// Rank candidates by standalone benefit (descending).
pub fn rank_candidates<E: CostEstimator>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    candidates: &[IndexDef],
    existing: &[IndexDef],
) -> Vec<ScoredCandidate> {
    db.metrics().counter("greedy.rank.serial").incr();
    let base_cost = estimator.workload_cost(db, workload, existing);
    let mut scored: Vec<ScoredCandidate> = candidates
        .iter()
        .map(|c| score_one(db, estimator, workload, existing, base_cost, c))
        .collect();
    sort_scored(&mut scored);
    scored
}

/// Parallel [`rank_candidates`]: standalone evaluations are independent, so
/// they fan out over scoped threads. Worthwhile from a few dozen
/// candidates; identical output ordering to the serial version.
///
/// `threads == 0` means "use the machine": it resolves to
/// [`std::thread::available_parallelism`] (previously it silently clamped
/// to 1, turning the parallel entry point into the serial one on exactly
/// the callers that wanted auto-detection).
pub fn rank_candidates_parallel<E: CostEstimator + Sync>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    candidates: &[IndexDef],
    existing: &[IndexDef],
    threads: usize,
) -> Vec<ScoredCandidate> {
    let threads = resolve_threads(threads);
    if threads == 1 || candidates.len() < 2 * threads {
        return rank_candidates(db, estimator, workload, candidates, existing);
    }
    db.metrics().counter("greedy.rank.parallel").incr();
    let base_cost = estimator.workload_cost(db, workload, existing);
    let chunk = candidates.len().div_ceil(threads);
    let mut scored: Vec<ScoredCandidate> = std::thread::scope(|s| {
        let handles: Vec<_> = candidates
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|c| score_one(db, estimator, workload, existing, base_cost, c))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        db.metrics()
            .counter("greedy.rank.threads_spawned")
            .add(handles.len() as u64);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoring thread panicked"))
            .collect()
    });
    sort_scored(&mut scored);
    scored
}

/// Resolve a caller-facing thread count: `0` = auto-detect via
/// [`std::thread::available_parallelism`] (1 if detection fails), anything
/// else is taken literally.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

fn score_one<E: CostEstimator>(
    db: &SimDb,
    estimator: &E,
    workload: &TemplateWorkload,
    existing: &[IndexDef],
    base_cost: f64,
    c: &IndexDef,
) -> ScoredCandidate {
    let cost = estimator.workload_cost(db, workload, existing.iter().chain(Some(c)));
    ScoredCandidate {
        def: c.clone(),
        benefit: base_cost - cost,
        size: db.index_size_bytes(c).unwrap_or(u64::MAX / 1024),
    }
}

fn sort_scored(scored: &mut [ScoredCandidate]) {
    scored.sort_by(|a, b| {
        b.benefit
            .partial_cmp(&a.benefit)
            .expect("benefits are finite")
            .then_with(|| a.def.key().cmp(&b.def.key()))
    });
}

fn existing_size(db: &SimDb, existing: &[IndexDef]) -> u64 {
    existing
        .iter()
        .filter_map(|d| db.index_size_bytes(d).ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::shape::QueryShape;
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 1_000_000)
                .column(Column::int("a", 1_000_000))
                .column(Column::int("b", 5_000))
                .column(Column::int("c", 100))
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
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
    fn picks_highest_benefit_first() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 2),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let ranked = rank_candidates(&db, &NativeCostEstimator, &w, &cands, &[]);
        assert_eq!(ranked[0].def.key(), "t(a)");
        assert!(ranked[0].benefit > ranked[1].benefit);
    }

    #[test]
    fn budget_limits_selection_but_smaller_still_fit() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 90),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let one = db.index_size_bytes(&cands[0]).unwrap();
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig {
                budget: Some(one + one / 2),
                max_indexes: None,
            },
        );
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].key(), "t(a)");
    }

    #[test]
    fn zero_benefit_candidates_skipped() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5", 100)]);
        // c has ndv 100 over 1M rows; index scan loses to seq scan, so the
        // candidate has zero standalone benefit.
        let cands = [IndexDef::new("t", &["c"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig::default(),
        );
        assert!(picked.is_empty());
    }

    #[test]
    fn greedy_picks_redundant_overlapping_indexes() {
        // The structural weakness MCTS fixes: both t(a) and t(a,b) have
        // huge standalone benefits, so Greedy takes both — wasting budget —
        // even though either one subsumes the other for this workload.
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["a", "b"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig::default(),
        );
        assert_eq!(picked.len(), 2, "greedy cannot see substitution");
    }

    #[test]
    fn max_indexes_cap() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7", 90),
            ],
        );
        let cands = [IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &[],
            &GreedyConfig {
                budget: None,
                max_indexes: Some(1),
            },
        );
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn parallel_ranking_matches_serial() {
        let db = db();
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7 AND c = 1", 60),
                ("SELECT * FROM t WHERE c = 2", 10),
            ],
        );
        let cands: Vec<IndexDef> = vec![
            IndexDef::new("t", &["a"]),
            IndexDef::new("t", &["b"]),
            IndexDef::new("t", &["c"]),
            IndexDef::new("t", &["b", "c"]),
            IndexDef::new("t", &["a", "b"]),
            IndexDef::new("t", &["a", "c"]),
            IndexDef::new("t", &["c", "b"]),
            IndexDef::new("t", &["c", "a"]),
        ];
        let serial = rank_candidates(&db, &NativeCostEstimator, &w, &cands, &[]);
        let parallel = rank_candidates_parallel(&db, &NativeCostEstimator, &w, &cands, &[], 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.def, p.def);
            assert!((s.benefit - p.benefit).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_ranking_bit_identical_across_thread_counts() {
        use autoindex_support::obs::MetricsRegistry;
        // Multi-table workload (banking-style: accounts + transfers) with
        // enough candidates that `threads = 4` takes the parallel path
        // (`len >= 2 * threads`).
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("accounts", 500_000)
                .column(Column::int("id", 500_000))
                .column(Column::int("branch", 200))
                .column(Column::int("balance", 10_000))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("transfers", 2_000_000)
                .column(Column::int("src", 500_000))
                .column(Column::int("dst", 500_000))
                .column(Column::int("amount", 1_000))
                .build()
                .unwrap(),
        );
        let metrics = MetricsRegistry::new();
        let db = SimDb::with_metrics(c, SimDbConfig::default(), metrics.clone());
        let w = workload(
            &db,
            &[
                ("SELECT * FROM accounts WHERE id = 7", 100),
                ("SELECT * FROM accounts WHERE branch = 3", 40),
                ("SELECT * FROM transfers WHERE src = 9", 80),
                ("SELECT * FROM transfers WHERE dst = 4 AND amount = 10", 20),
            ],
        );
        let cands: Vec<IndexDef> = vec![
            IndexDef::new("accounts", &["id"]),
            IndexDef::new("accounts", &["branch"]),
            IndexDef::new("accounts", &["balance"]),
            IndexDef::new("accounts", &["branch", "balance"]),
            IndexDef::new("transfers", &["src"]),
            IndexDef::new("transfers", &["dst"]),
            IndexDef::new("transfers", &["amount"]),
            IndexDef::new("transfers", &["dst", "amount"]),
            IndexDef::new("transfers", &["src", "amount"]),
            IndexDef::new("transfers", &["amount", "dst"]),
        ];
        let serial = rank_candidates(&db, &NativeCostEstimator, &w, &cands, &[]);
        for threads in [1usize, 2, 4] {
            let par = rank_candidates_parallel(&db, &NativeCostEstimator, &w, &cands, &[], threads);
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                // Byte-identical ordering AND scores: same FP operations in
                // the same order per candidate, independent of chunking.
                assert_eq!(s.def, p.def, "ordering diverged at threads={threads}");
                assert_eq!(
                    s.benefit.to_bits(),
                    p.benefit.to_bits(),
                    "score diverged at threads={threads}"
                );
                assert_eq!(s.size, p.size);
            }
        }
        // The parallel path really ran and really fanned out.
        assert!(metrics.counter_value("greedy.rank.parallel") >= 2);
        assert!(metrics.counter_value("greedy.rank.threads_spawned") >= 2 + 4);
        // threads=1 (and the initial ranking) went through the serial path.
        assert!(metrics.counter_value("greedy.rank.serial") >= 2);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        use autoindex_support::obs::MetricsRegistry;
        // `threads = 0` must auto-detect instead of clamping to 1.
        let auto = resolve_threads(0);
        let detected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(auto, detected);
        assert!(auto >= 1);
        assert_eq!(resolve_threads(3), 3, "explicit counts are literal");

        // End to end: `threads = 0` produces bitwise the serial ranking.
        let metrics = MetricsRegistry::new();
        let db = SimDb::with_metrics(
            {
                let mut c = Catalog::new();
                c.add_table(
                    TableBuilder::new("t", 1_000_000)
                        .column(Column::int("a", 1_000_000))
                        .column(Column::int("b", 5_000))
                        .column(Column::int("c", 100))
                        .build()
                        .unwrap(),
                );
                c
            },
            SimDbConfig::default(),
            metrics.clone(),
        );
        let w = workload(
            &db,
            &[
                ("SELECT * FROM t WHERE a = 5", 100),
                ("SELECT * FROM t WHERE b = 7 AND c = 1", 60),
            ],
        );
        let cands: Vec<IndexDef> = vec![
            IndexDef::new("t", &["a"]),
            IndexDef::new("t", &["b"]),
            IndexDef::new("t", &["c"]),
            IndexDef::new("t", &["b", "c"]),
            IndexDef::new("t", &["a", "b"]),
            IndexDef::new("t", &["a", "c"]),
        ];
        let serial = rank_candidates(&db, &NativeCostEstimator, &w, &cands, &[]);
        let auto_ranked = rank_candidates_parallel(&db, &NativeCostEstimator, &w, &cands, &[], 0);
        assert_eq!(serial.len(), auto_ranked.len());
        for (s, p) in serial.iter().zip(&auto_ranked) {
            assert_eq!(s.def, p.def);
            assert_eq!(s.benefit.to_bits(), p.benefit.to_bits());
        }
        // Whichever path the core count selected, a ranking ran.
        assert!(
            metrics.counter_value("greedy.rank.serial")
                + metrics.counter_value("greedy.rank.parallel")
                >= 2
        );
    }

    #[test]
    fn benefit_measured_against_existing_config() {
        let db = db();
        let w = workload(&db, &[("SELECT * FROM t WHERE a = 5 AND b = 2", 100)]);
        let existing = [IndexDef::new("t", &["a", "b"])];
        // With the composite already present, the single-column prefix adds
        // nothing.
        let cands = [IndexDef::new("t", &["a"])];
        let picked = greedy_select(
            &db,
            &NativeCostEstimator,
            &w,
            &cands,
            &existing,
            &GreedyConfig::default(),
        );
        assert!(picked.is_empty());
    }
}
