//! Shared harness for regenerating the paper's evaluation (§VI).
//!
//! Each experiment (Figures 1, 5–10; Tables I–III; the §VI-A estimator
//! validation) has a function in [`experiments`] that builds the scenario,
//! runs the three methods — `Default`, `Greedy`, `AutoIndex` — and returns
//! the rows the paper reports. The `repro` binary pretty-prints them,
//! wall-clock cells included (Fig 1 management time, Fig 8 timings, Fig 9's
//! tuning column).
//!
//! Fairness rules from §VI-A are enforced structurally:
//! * Greedy and AutoIndex share one trained benefit estimator;
//! * Default is the scenario's shipped configuration (primary keys for the
//!   TPC suites, the 263 DBA indexes for banking);
//! * measurements run the same statement stream against the same database
//!   state, resetting indexes between methods.
//!
//! A bench that writes a result document gates it too: [`record`] writes
//! `target/bench/<subject>.json` and requires it to equal the committed
//! `crates/bench/baselines/<subject>.json` as a whole: a result holds no
//! wall-clock member, so every number in it is exact (protocol:
//! `docs/BUILDING.md` §"Bench results and baselines").

#![forbid(unsafe_code)]

pub mod experiments;

use autoindex_core::{AutoIndex, AutoIndexConfig, StrategyKind};
use autoindex_core::{CandidateConfig, CandidateGenerator};
use autoindex_estimator::{
    CollectConfig, CostEstimator, LearnedCostEstimator, TrainConfig, TrainingSet,
};
use autoindex_sql::{parse_statement, Statement};
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::json::Json;
use autoindex_workloads::Scenario;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// The three compared methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Default,
    Greedy,
    AutoIndex,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Method::Default => "Default",
            Method::Greedy => "Greedy",
            Method::AutoIndex => "AutoIndex",
        };
        f.write_str(s)
    }
}

/// One measured row of a comparison table.
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub method: Method,
    pub total_latency_ms: f64,
    pub throughput: f64,
    pub index_count: usize,
    pub index_bytes: u64,
    /// Wall-clock tuning time (zero for Default).
    pub tuning_time: Duration,
    /// Indexes the method added on top of Default.
    pub added: Vec<IndexDef>,
    /// Indexes the method removed from Default.
    pub removed: Vec<IndexDef>,
}

/// Fresh database for a scenario with its Default indexes installed.
pub fn fresh_db(scenario: &Scenario, db_config: SimDbConfig) -> SimDb {
    let mut db = SimDb::new(scenario.catalog.clone(), db_config);
    for d in &scenario.default_indexes {
        db.create_index(d.clone()).expect("scenario default index");
    }
    db
}

/// Parse a workload (panicking on generator bugs).
pub fn parse_workload(queries: &[String]) -> Vec<Statement> {
    queries
        .iter()
        .map(|q| parse_statement(q).expect("generated SQL parses"))
        .collect()
}

/// Train the shared benefit estimator for a scenario on a sampled history,
/// probing configurations drawn from the scenario's candidate pool.
pub fn train_estimator(
    db: &mut SimDb,
    history: &[Statement],
    pool_hint: &[IndexDef],
) -> LearnedCostEstimator {
    let mut pool: Vec<IndexDef> = pool_hint.to_vec();
    pool.truncate(12); // Training probes a subset; more adds little.
    let set = TrainingSet::collect(db, history, &pool, &CollectConfig::default());
    let model = set
        .train(&TrainConfig::default())
        .expect("training set is non-empty for non-empty history");
    LearnedCostEstimator::new(model)
}

/// Candidate pool for estimator training: what candgen finds on the
/// workload's templates (plus the defaults, so the trainer also sees
/// near-production configurations).
pub fn candidate_pool(db: &SimDb, stmts: &[Statement], defaults: &[IndexDef]) -> Vec<IndexDef> {
    let shapes: Vec<(QueryShape, u64)> = stmts
        .iter()
        .take(2_000)
        .map(|s| (QueryShape::extract(s, db.catalog()), 1))
        .collect();
    let mut pool = CandidateGenerator::new(CandidateConfig::default()).generate(
        &shapes,
        db.catalog(),
        defaults,
    );
    pool.truncate(10);
    pool
}

/// Apply a method to a fresh scenario database and measure it on `eval`.
///
/// `observe` is the query stream the tuner sees (usually a prefix of the
/// workload); `eval` is the measured slice. Greedy and AutoIndex each get
/// an advisor of their own over a clone of `estimator` (§VI-A: the same
/// cost estimation method).
#[allow(clippy::too_many_arguments)]
pub fn run_method<E: CostEstimator + Clone>(
    method: Method,
    scenario: &Scenario,
    db_config: SimDbConfig,
    estimator: &E,
    observe: &[String],
    eval: &[Statement],
    budget: Option<u64>,
    concurrency: u32,
) -> MethodResult {
    let mut db = fresh_db(scenario, db_config);
    let before_defs: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
    let config = AutoIndexConfig {
        storage_budget: budget,
        ..AutoIndexConfig::default()
    };
    let t0 = Instant::now();
    let tuning_time = match method {
        Method::Default => Duration::ZERO,
        Method::Greedy => {
            greedy_step(&mut db, config, estimator.clone(), &parse_workload(observe));
            t0.elapsed()
        }
        Method::AutoIndex => {
            let mut ai = AutoIndex::new(config, estimator.clone());
            ai.observe_batch(observe.iter().map(String::as_str), &db);
            let _ = ai.session(&mut db).run().unwrap();
            t0.elapsed()
        }
    };

    let after_defs: Vec<IndexDef> = db.indexes().map(|(_, d)| d.clone()).collect();
    let added = after_defs
        .iter()
        .filter(|d| !before_defs.contains(d))
        .cloned()
        .collect();
    let removed = before_defs
        .iter()
        .filter(|d| !after_defs.contains(d))
        .cloned()
        .collect();

    let m = db.run_workload(eval);
    MethodResult {
        method,
        total_latency_ms: m.total_latency_ms,
        throughput: m.throughput(concurrency),
        index_count: db.index_count(),
        index_bytes: db.total_index_bytes(),
        tuning_time,
        added,
        removed,
    }
}

/// One Greedy tuning step on `db`: a [`StrategyKind::Greedy`] session over
/// one template per statement — §VI-B: "Greedy enumerated each query and
/// parsed the candidate indexes from those queries".
fn greedy_step<E: CostEstimator>(
    db: &mut SimDb,
    config: AutoIndexConfig,
    estimator: E,
    stmts: &[Statement],
) {
    let per_query: Vec<(QueryShape, u64)> = stmts
        .iter()
        .map(|s| (QueryShape::extract(s, db.catalog()), 1))
        .collect();
    let _ = AutoIndex::new(config, estimator)
        .session(db)
        .workload(&per_query)
        .strategy(StrategyKind::Greedy)
        .run()
        .unwrap();
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const MB: f64 = (1u64 << 20) as f64;
    const GB: f64 = (1u64 << 30) as f64;
    let b = b as f64;
    if b >= GB {
        format!("{:.2} GiB", b / GB)
    } else {
        format!("{:.1} MiB", b / MB)
    }
}

/// Write a bench's result document to the untracked
/// `target/bench/<subject>.json`, then require it to equal the committed
/// `crates/bench/baselines/<subject>.json` member for member. Prints
/// every differing JSON path and exits non-zero otherwise, so running the
/// bench *is* its gate. Refresh a baseline deliberately:
/// `cp target/bench/<subject>.json crates/bench/baselines/`.
pub fn record(subject: &str, doc: &Json) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fresh = format!("target/bench/{subject}.json");
    let baseline = format!("crates/bench/baselines/{subject}.json");
    let text = format!("{}\n", doc.pretty());
    std::fs::create_dir_all(root.join("target/bench")).expect("create target/bench");
    std::fs::write(root.join(&fresh), &text).expect("write bench result");
    eprintln!("wrote {fresh}");

    // Compare what was written, not `doc`: a non-finite number prints as
    // `null`, and a refreshed baseline must equal the run that produced it.
    let written = Json::parse(&text).expect("own output parses");
    let verdict = compare_with_baseline(&root.join(&baseline), &written);
    if let Err(e) = verdict {
        eprintln!("bench gate FAILED: {fresh} differs from {baseline}\n{e}");
        eprintln!("if intentional: cp {fresh} {baseline}");
        std::process::exit(1);
    }
    eprintln!("bench gate OK: {fresh} equals {baseline}");
}

/// `Ok` iff the baseline file exists, parses and [`diff`]s empty against
/// `fresh`; the error lists one differing path per line.
fn compare_with_baseline(baseline: &Path, fresh: &Json) -> Result<(), String> {
    let named = |e: &dyn std::fmt::Display| format!("{}: {e}", baseline.display());
    let text = std::fs::read_to_string(baseline).map_err(|e| named(&e))?;
    let committed = Json::parse(&text).map_err(|e| named(&e))?;
    let mut lines = Vec::new();
    diff(Some(&committed), Some(fresh), "$", &mut lines);
    if lines.is_empty() {
        Ok(())
    } else {
        Err(lines.join("\n"))
    }
}

/// Append one `path: baseline <v>, current <v>` line per place the two
/// documents differ. A member or array element present on one side only is
/// a difference.
fn diff(baseline: Option<&Json>, current: Option<&Json>, path: &str, out: &mut Vec<String>) {
    match (baseline, current) {
        (Some(Json::Object(b)), Some(Json::Object(c))) => {
            let keys: BTreeSet<&String> = b.keys().chain(c.keys()).collect();
            for k in keys {
                diff(b.get(k), c.get(k), &format!("{path}.{k}"), out);
            }
        }
        (Some(Json::Array(b)), Some(Json::Array(c))) => {
            for i in 0..b.len().max(c.len()) {
                diff(b.get(i), c.get(i), &format!("{path}[{i}]"), out);
            }
        }
        (b, c) if b != c => {
            let side = |v: Option<&Json>| v.map_or("(absent)".to_string(), Json::to_string);
            out.push(format!(
                "  {path}: baseline {}, current {}",
                side(b),
                side(c)
            ));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_workloads::tpcc::{self, TpccScale};

    #[test]
    fn run_method_orders_sanely_on_tpcc() {
        let scenario = tpcc::scenario(TpccScale::X1);
        let mut generator = tpcc::TpccGenerator::new(TpccScale::X1, 3);
        let queries = generator.generate(120);
        let stmts = parse_workload(&queries);
        let est = NativeCostEstimator;
        let run = |m| {
            run_method(
                m,
                &scenario,
                SimDbConfig::default(),
                &est,
                &queries,
                &stmts,
                None,
                32,
            )
        };
        let d = run(Method::Default);
        let a = run(Method::AutoIndex);
        assert!(d.index_count <= a.index_count);
        assert!(a.total_latency_ms <= d.total_latency_ms * 1.02);
        assert!(a.tuning_time > Duration::ZERO);
    }

    /// A fleet-shaped result with **sim** numbers, a digest, a `required_*`
    /// floor and wall-clock members (`wall_ms`, a qps) at the top level,
    /// nested and inside `rows`, which are compared like any other member.
    const BASE: &str = r#"{
        "transcript_digest": "68a166e14eead973", "wall_ms": 9,
        "gate": {"required_speedup_at_4": 3.5},
        "frontend": {"frontend_hits": 3, "qps_fastpath_on": 2792721.8},
        "rows": [{"workers": 1, "wall_ms": 71}, {"workers": 4, "simulated_qps": 44.71, "wall_ms": 60}]
    }"#;

    /// Paths at which `BASE` differs from `BASE` with `from` replaced by `to`.
    fn differing(from: &str, to: &str) -> Vec<String> {
        assert!(BASE.contains(from));
        let (base, fresh) = (Json::parse(BASE), Json::parse(&BASE.replace(from, to)));
        let mut out = Vec::new();
        diff(Some(&base.unwrap()), Some(&fresh.unwrap()), "$", &mut out);
        out
    }

    #[test]
    fn a_sim_difference_fails_and_names_its_path() {
        let row4 = r#", {"workers": 4, "simulated_qps": 44.71, "wall_ms": 60}"#;
        for (what, from, to, path) in [
            ("sim number", "44.71", "44.72", "$.rows[1].simulated_qps:"),
            ("digest", "68a1", "68a2", "$.transcript_digest:"),
            ("missing row", row4, "", "$.rows[1]: baseline {"),
            (
                "added row",
                "60}",
                "60}, {}",
                "$.rows[2]: baseline (absent)",
            ),
            (
                "lowered floor",
                "3.5",
                "3.4",
                "$.gate.required_speedup_at_4:",
            ),
        ] {
            let lines = differing(from, to);
            assert_eq!(lines.len(), 1, "{what}: {lines:?}");
            assert!(lines[0].contains(path), "{what}: {lines:?}");
        }
    }

    #[test]
    fn a_wall_ms_difference_fails_the_baseline_comparison() {
        for (from, to, path) in [
            (r#""wall_ms": 9"#, r#""wall_ms": 12"#, "$.wall_ms:"),
            ("2792721.8", "1.5", "$.frontend.qps_fastpath_on:"),
            (r#""wall_ms": 71"#, r#""wall_ms": 38"#, "$.rows[0].wall_ms:"),
            (r#", "wall_ms": 60"#, "", "$.rows[1].wall_ms: baseline 60"),
        ] {
            let lines = differing(from, to);
            assert_eq!(lines.len(), 1, "{from}: {lines:?}");
            assert!(lines[0].contains(path), "{from}: {lines:?}");
        }
        // The same, end to end through a committed file.
        let baseline = std::env::temp_dir().join(format!(
            "autoindex_bench_wall_ms_{}.json",
            std::process::id()
        ));
        std::fs::write(&baseline, BASE).unwrap();
        let fresh = Json::parse(&BASE.replace(r#""wall_ms": 9"#, r#""wall_ms": 10"#)).unwrap();
        let verdict = compare_with_baseline(&baseline, &fresh);
        std::fs::remove_file(&baseline).unwrap();
        assert!(verdict
            .unwrap_err()
            .contains("$.wall_ms: baseline 9, current 10"));
    }

    #[test]
    fn a_missing_baseline_is_an_error_not_a_pass() {
        let nowhere = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/no_such_subject.json");
        let err = compare_with_baseline(&nowhere, &Json::parse(BASE).unwrap()).unwrap_err();
        assert!(err.contains("no_such_subject.json"), "{err}");
    }
}
