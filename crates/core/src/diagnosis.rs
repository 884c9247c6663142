//! Index Diagnosis (§III).
//!
//! "Index Diagnosis monitors the system metrics during workload execution
//! … we compute the ratio of three classes of indexes: (i) beneficial
//! indexes that have not been created, (ii) rarely-used indexes, and (iii)
//! indexes that have negative effects to the workload performance. If the
//! ratio of those indexes is higher than a threshold, we will issue an
//! index tuning request."
//!
//! Classes (ii) and (iii) come from the database's usage counters; class
//! (i) — the full candidate set priced against the current configuration —
//! is computed by the tuning boundary through the round's own pricer and
//! candidate generator (`AutoIndex::diagnose`) and handed in, so diagnosis
//! and the round it may trigger answer the same question.

use crate::strategy::is_primary_key_index;
use autoindex_storage::index::IndexId;
use autoindex_storage::SimDb;
use std::collections::HashSet;

/// Diagnosis thresholds.
#[derive(Debug, Clone)]
pub struct DiagnosisConfig {
    /// Minimum statements in the window before diagnosing at all.
    pub min_statements: u64,
    /// Relative workload-cost improvement from the candidate set that
    /// counts as "beneficial indexes missing".
    pub missing_benefit_threshold: f64,
    /// Problem-index ratio above which a tuning request fires.
    pub trigger_ratio: f64,
    /// Exempt primary-key indexes from the rarely-used class: they enforce
    /// uniqueness and are never removable, so flagging them only produces
    /// tuning rounds that cannot act.
    pub ignore_primary_keys: bool,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            min_statements: 500,
            missing_benefit_threshold: 0.05,
            trigger_ratio: 0.15,
            ignore_primary_keys: true,
        }
    }
}

/// Diagnosis result.
#[derive(Debug, Clone)]
pub struct DiagnosisReport {
    /// Class (ii): indexes almost never scanned in the window.
    pub rarely_used: Vec<IndexId>,
    /// Class (iii): indexes whose maintenance exceeded their benefit.
    pub negative: Vec<IndexId>,
    /// Class (i): estimated relative improvement were all candidates built.
    pub missing_benefit: f64,
    /// Problem ratio: (|ii ∪ iii|)/|indexes|.
    pub problem_ratio: f64,
    /// Whether an index tuning request should be issued.
    pub should_tune: bool,
}

/// An index with fewer scans than this over the window is "rarely used".
const RARE_SCAN_THRESHOLD: u64 = 2;

/// The diagnosis module.
pub struct IndexDiagnosis {
    pub config: DiagnosisConfig,
}

impl IndexDiagnosis {
    /// With the given thresholds.
    pub fn new(config: DiagnosisConfig) -> Self {
        IndexDiagnosis { config }
    }

    /// Diagnose `db`'s usage window; `missing_benefit` is class (i), the
    /// estimated relative improvement were all candidates built.
    pub fn diagnose(&self, db: &SimDb, missing_benefit: f64) -> DiagnosisReport {
        let usage = db.usage();
        let total_indexes = db.index_count().max(1);
        let warmed_up = usage.statements >= self.config.min_statements;

        // One pass over the real indexes: which implement a primary key
        // (exempt), and which the window scanned too rarely — including
        // those the tracker never saw at all.
        let mut primary: HashSet<IndexId> = HashSet::new();
        let mut problem: HashSet<IndexId> = HashSet::new();
        for (id, def) in db.indexes() {
            if self.config.ignore_primary_keys && is_primary_key_index(db, def) {
                primary.insert(id);
            } else if warmed_up && usage.usage(id).scans < RARE_SCAN_THRESHOLD {
                problem.insert(id);
            }
        }
        let (rarely_used, negative): (Vec<IndexId>, Vec<IndexId>) = if warmed_up {
            (
                usage
                    .rarely_used(RARE_SCAN_THRESHOLD, self.config.min_statements)
                    .into_iter()
                    .filter(|id| !primary.contains(id))
                    .collect(),
                usage.negative(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        // An index can be both rare and negative; count it once.
        problem.extend(rarely_used.iter().chain(&negative));
        let problem_ratio = problem.len() as f64 / total_indexes as f64;

        let should_tune = problem_ratio > self.config.trigger_ratio
            || missing_benefit > self.config.missing_benefit_threshold;

        DiagnosisReport {
            rarely_used,
            negative,
            missing_benefit,
            problem_ratio,
            should_tune,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candgen::{CandidateConfig, CandidateGenerator};
    use autoindex_estimator::{CostEstimator, NativeCostEstimator};
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::index::IndexDef;
    use autoindex_storage::shape::QueryShape;
    use autoindex_storage::SimDbConfig;

    /// Class (i) by two whole-workload re-plans, as diagnosis computed it
    /// before the boundary priced it: the oracle.
    fn missing_benefit(db: &SimDb, workload: &[(QueryShape, u64)]) -> f64 {
        let existing: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
        let candidates = CandidateGenerator::new(CandidateConfig::default()).generate(
            workload,
            db.catalog(),
            &existing,
        );
        let est = NativeCostEstimator;
        let base = est.workload_cost(db, workload, &existing);
        let with = est.workload_cost(db, workload, existing.iter().chain(&candidates));
        if candidates.is_empty() || base <= 0.0 {
            return 0.0;
        }
        ((base - with) / base).max(0.0)
    }

    fn diagnose(db: &SimDb, w: &[(QueryShape, u64)]) -> DiagnosisReport {
        IndexDiagnosis::new(DiagnosisConfig::default()).diagnose(db, missing_benefit(db, w))
    }

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 500_000)
                .column(Column::int("a", 500_000))
                .column(Column::int("b", 5_000))
                .column(Column::int("c", 50))
                .build()
                .unwrap(),
        );
        SimDb::new(c, SimDbConfig::default())
    }

    fn shapes(db: &SimDb, sqls: &[(&str, u64)]) -> Vec<(QueryShape, u64)> {
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
    fn quiet_db_with_good_indexes_does_not_fire() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        // Run a healthy workload that uses the index.
        let q = parse_statement("SELECT * FROM t WHERE a = 1").unwrap();
        for _ in 0..600 {
            db.execute(&q);
        }
        let w = shapes(&db, &[("SELECT * FROM t WHERE a = 1", 100)]);
        let rep = diagnose(&db, &w);
        assert!(!rep.should_tune, "{rep:?}");
        assert!(rep.rarely_used.is_empty());
    }

    #[test]
    fn missing_beneficial_index_fires() {
        let mut db = db();
        let q = parse_statement("SELECT * FROM t WHERE a = 1").unwrap();
        for _ in 0..600 {
            db.execute(&q);
        }
        let w = shapes(&db, &[("SELECT * FROM t WHERE a = 1", 100)]);
        let rep = diagnose(&db, &w);
        assert!(rep.missing_benefit > 0.5);
        assert!(rep.should_tune);
    }

    #[test]
    fn unused_indexes_fire() {
        let mut db = db();
        // Three indexes the workload never touches.
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        db.create_index(IndexDef::new("t", &["c"])).unwrap();
        db.create_index(IndexDef::new("t", &["b", "c"])).unwrap();
        let q = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        for _ in 0..600 {
            db.execute(&q);
        }
        let w = shapes(&db, &[("SELECT COUNT(*) FROM t", 100)]);
        let rep = diagnose(&db, &w);
        assert!(rep.problem_ratio > 0.9);
        assert!(rep.should_tune);
    }

    #[test]
    fn negative_index_detected_via_usage() {
        let mut db = db();
        let id = db.create_index(IndexDef::new("t", &["b"])).unwrap();
        let ins = parse_statement("INSERT INTO t (a, b, c) VALUES (1, 2, 3)").unwrap();
        for _ in 0..600 {
            db.execute(&ins);
        }
        let w = shapes(&db, &[("INSERT INTO t (a, b, c) VALUES (1, 2, 3)", 100)]);
        let rep = diagnose(&db, &w);
        assert!(rep.negative.contains(&id), "{rep:?}");
        assert!(rep.should_tune);
    }

    #[test]
    fn primary_key_index_exempt_from_rarely_used() {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("p", 100_000)
                .column(Column::int("id", 100_000))
                .column(Column::int("x", 1_000))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        let mut db = SimDb::new(c, SimDbConfig::default());
        db.create_index(IndexDef::new("p", &["id"])).unwrap();
        db.create_index(IndexDef::new("p", &["x"])).unwrap();
        // Traffic that uses only the x index.
        let q = parse_statement("SELECT * FROM p WHERE x = 1").unwrap();
        for _ in 0..600 {
            db.execute(&q);
        }
        let w = vec![(QueryShape::extract(&q, db.catalog()), 100u64)];
        let rep = diagnose(&db, &w);
        // The unused PK index must not count as a problem.
        assert!(rep.rarely_used.is_empty(), "{rep:?}");
        assert!(!rep.should_tune, "{rep:?}");

        // With the exemption off, it does count.
        let rep = IndexDiagnosis::new(DiagnosisConfig {
            ignore_primary_keys: false,
            ..DiagnosisConfig::default()
        })
        .diagnose(&db, missing_benefit(&db, &w));
        assert!(rep.problem_ratio > 0.0, "{rep:?}");
    }

    #[test]
    fn warmup_window_respected() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        // Too few statements to judge.
        let q = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        for _ in 0..10 {
            db.execute(&q);
        }
        let w = shapes(&db, &[("SELECT COUNT(*) FROM t", 10)]);
        let rep = diagnose(&db, &w);
        assert!(rep.rarely_used.is_empty());
        assert_eq!(rep.problem_ratio, 0.0);
    }
}
