//! One function per paper experiment. Each returns structured rows so both
//! the `repro` binary and the Criterion benches (and EXPERIMENTS.md) share
//! a single implementation.

use crate::{
    candidate_pool, fresh_db, greedy_step, parse_workload, run_method, train_estimator, Method,
    MethodResult,
};
use autoindex_core::{AutoIndex, AutoIndexConfig, TemplateStoreConfig};
use autoindex_estimator::{
    kfold_cross_validate, CollectConfig, FoldReport, TrainConfig, TrainingSet,
};
use autoindex_sql::Statement;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_workloads::banking::{self, BankingGenerator, Service};
use autoindex_workloads::tpcc::{self, TpccGenerator, TpccScale};
use autoindex_workloads::tpcds;
use std::time::{Duration, Instant};

/// Default TPC-C transaction volume per experiment (kept moderate so the
/// full `repro all` run finishes in minutes; raise for tighter numbers).
pub const TPCC_TXNS: usize = 400;
/// Observation prefix fed to the tuners.
pub const TPCC_OBSERVE_TXNS: usize = 300;
/// Simulated client streams for throughput.
pub const CONCURRENCY: u32 = 32;

fn tpcc_db_config(scale: TpccScale) -> SimDbConfig {
    // The paper's test server has 16 GB of RAM; at 100x the data plus a
    // generous index set no longer fits, which is what makes over-indexing
    // visible at scale.
    SimDbConfig {
        memory_bytes: 16 * (1 << 30),
        seed: 42 ^ scale.0 as u64,
        ..SimDbConfig::default()
    }
}

/// Shared estimator for one TPC-C scale (trained once, used by both
/// Greedy and AutoIndex per §VI-A).
fn tpcc_estimator(
    scale: TpccScale,
    stmts: &[Statement],
) -> autoindex_estimator::LearnedCostEstimator {
    let scenario = tpcc::scenario(scale);
    let mut db = fresh_db(&scenario, tpcc_db_config(scale));
    let pool = candidate_pool(&db, stmts, &scenario.default_indexes);
    train_estimator(&mut db, stmts, &pool)
}

// ---------------------------------------------------------------- Fig. 5

/// One Figure 5 panel row.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub scale: u32,
    pub result: MethodResult,
}

/// Figure 5: TPC-C 1x/10x/100x — total latency and throughput for the
/// three methods.
pub fn fig5_tpcc(txns: usize) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for scale in [TpccScale::X1, TpccScale::X10, TpccScale::X100] {
        let scenario = tpcc::scenario(scale);
        let queries = TpccGenerator::new(scale, 7).generate(txns);
        let stmts = parse_workload(&queries);
        let observe_len = queries.len() * TPCC_OBSERVE_TXNS / TPCC_TXNS.max(1);
        let observe = &queries[..observe_len.min(queries.len())];
        let est = tpcc_estimator(scale, &stmts[..stmts.len().min(2_000)]);
        for method in [Method::Default, Method::Greedy, Method::AutoIndex] {
            let result = run_method(
                method,
                &scenario,
                tpcc_db_config(scale),
                &est,
                observe,
                &stmts,
                None,
                CONCURRENCY,
            );
            rows.push(Fig5Row {
                scale: scale.0,
                result,
            });
        }
    }
    rows
}

// --------------------------------------------------------------- Table I

/// One Table I row: an index added over Default, with the cost reduction
/// it brings to the template it serves best.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub method: Method,
    pub index: String,
    /// Percentage cost reduction on the best-served template.
    pub cost_reduction_pct: f64,
}

/// Table I: indexes added on TPC-C 1x by Greedy vs AutoIndex.
pub fn table1_added_indexes(txns: usize) -> Vec<Table1Row> {
    let scale = TpccScale::X1;
    let scenario = tpcc::scenario(scale);
    let queries = TpccGenerator::new(scale, 7).generate(txns);
    let stmts = parse_workload(&queries);
    let est = tpcc_estimator(scale, &stmts[..stmts.len().min(2_000)]);

    // Per added index: the per-template cost reduction it serves best.
    let db = fresh_db(&scenario, tpcc_db_config(scale));
    let shapes: Vec<QueryShape> = stmts
        .iter()
        .take(2_000)
        .map(|s| QueryShape::extract(s, db.catalog()))
        .collect();
    let mut rows = Vec::new();
    for method in [Method::Greedy, Method::AutoIndex] {
        let result = run_method(
            method,
            &scenario,
            tpcc_db_config(scale),
            &est,
            &queries,
            &stmts[..1],
            None,
            CONCURRENCY,
        );
        for d in &result.added {
            let relative = |without: f64, with: f64| (without - with) / without;
            let best = best_served(&db, &shapes, &scenario.default_indexes, d, relative);
            rows.push(Table1Row {
                method,
                index: d.to_string(),
                cost_reduction_pct: best.map_or(0.0, |(w0, w1)| relative(w0, w1)) * 100.0,
            });
        }
    }
    rows.sort_by(|a, b| {
        format!("{}", a.method)
            .cmp(&format!("{}", b.method))
            .then(b.cost_reduction_pct.total_cmp(&a.cost_reduction_pct))
    });
    rows
}

/// The template an added index serves best: among `shapes` that `added`
/// makes cheaper, planned natively under `base` and under `base` plus
/// `added`, the first `(cost without, cost with)` pair of the largest
/// `gain` (Table I: relative, Table III: absolute).
fn best_served(
    db: &SimDb,
    shapes: &[QueryShape],
    base: &[IndexDef],
    added: &IndexDef,
    gain: impl Fn(f64, f64) -> f64,
) -> Option<(f64, f64)> {
    let with_added: Vec<IndexDef> = base.iter().chain(Some(added)).cloned().collect();
    shapes
        .iter()
        .map(|shape| {
            let without = db.whatif_native_cost(shape, base);
            (without, db.whatif_native_cost(shape, &with_added))
        })
        .filter(|(without, with)| without > with)
        .fold(None, |best, (w0, w1)| match best {
            Some((b0, b1)) if gain(w0, w1) <= gain(b0, b1) => best,
            _ => Some((w0, w1)),
        })
}

// ------------------------------------------------------------ Fig. 6 / 7

/// Per-query TPC-DS outcome for one method.
#[derive(Debug, Clone)]
pub struct TpcdsQueryRow {
    pub query: String,
    /// Execution-time reduction vs Default, in percent (can be 0).
    pub reduction_pct_greedy: f64,
    pub reduction_pct_autoindex: f64,
}

/// Summary for Figures 6/7.
#[derive(Debug, Clone)]
pub struct TpcdsOutcome {
    pub per_query: Vec<TpcdsQueryRow>,
    pub greedy_indexes: usize,
    pub autoindex_indexes: usize,
    /// Queries improved by >10% (the Figure 7 metric).
    pub greedy_over_10pct: usize,
    pub autoindex_over_10pct: usize,
}

/// Figures 6 and 7: per-query execution-time reduction on TPC-DS.
///
/// Tuning runs under a storage limit, as in the paper ("the total size of
/// the indexes was still within the resource limit"): fact-table indexes
/// are tens of MiB each, so the budget forces real packing decisions —
/// which is exactly where standalone-benefit ranking wastes space on
/// redundant winners.
pub fn fig6_fig7_tpcds() -> TpcdsOutcome {
    let scenario = tpcds::scenario();
    let named = tpcds::queries(11);
    let queries: Vec<String> = named.iter().map(|(_, q)| q.clone()).collect();
    let stmts = parse_workload(&queries);

    // Estimator trained on the analytic queries.
    let mut db = fresh_db(&scenario, SimDbConfig::default());
    let pool = candidate_pool(&db, &stmts, &scenario.default_indexes);
    let est = train_estimator(&mut db, &stmts, &pool);

    // Budget: defaults plus 120 MiB for new indexes (~2 fact-table indexes
    // if spent carelessly; considerably more coverage if spent well).
    let budget = Some(db.total_index_bytes() + 120 * (1 << 20));

    // Tune with each method.
    let greedy = run_method(
        Method::Greedy,
        &scenario,
        SimDbConfig::default(),
        &est,
        &queries,
        &stmts[..1],
        budget,
        CONCURRENCY,
    );
    let auto = run_method(
        Method::AutoIndex,
        &scenario,
        SimDbConfig::default(),
        &est,
        &queries,
        &stmts[..1],
        budget,
        CONCURRENCY,
    );

    // Per-query noiseless cost under each configuration.
    let db = fresh_db(&scenario, SimDbConfig::default());
    let defaults = scenario.default_indexes.clone();
    let mut greedy_cfg = defaults.clone();
    greedy_cfg.extend(greedy.added.iter().cloned());
    greedy_cfg.retain(|d| !greedy.removed.contains(d));
    let mut auto_cfg = defaults.clone();
    auto_cfg.extend(auto.added.iter().cloned());
    auto_cfg.retain(|d| !auto.removed.contains(d));

    let mut per_query = Vec::with_capacity(named.len());
    let mut g10 = 0;
    let mut a10 = 0;
    for ((name, _), stmt) in named.iter().zip(&stmts) {
        let shape = QueryShape::extract(stmt, db.catalog());
        let base = db.whatif_native_cost(&shape, &defaults).max(1e-9);
        let g = db.whatif_native_cost(&shape, &greedy_cfg);
        let a = db.whatif_native_cost(&shape, &auto_cfg);
        let rg = ((base - g) / base * 100.0).max(0.0);
        let ra = ((base - a) / base * 100.0).max(0.0);
        if rg > 10.0 {
            g10 += 1;
        }
        if ra > 10.0 {
            a10 += 1;
        }
        per_query.push(TpcdsQueryRow {
            query: name.clone(),
            reduction_pct_greedy: rg,
            reduction_pct_autoindex: ra,
        });
    }
    TpcdsOutcome {
        per_query,
        greedy_indexes: greedy.added.len(),
        autoindex_indexes: auto.added.len(),
        greedy_over_10pct: g10,
        autoindex_over_10pct: a10,
    }
}

// ---------------------------------------------------------------- Fig. 8

/// Figure 8 outcome: template-level vs query-level management.
#[derive(Debug, Clone)]
pub struct Fig8Outcome {
    pub queries: usize,
    pub templates: usize,
    pub template_tuning: Duration,
    pub query_tuning: Duration,
    /// Measured workload latency under each mode's recommendation.
    pub template_latency_ms: f64,
    pub query_latency_ms: f64,
}

/// Figure 8: overhead and quality of template-based generation.
pub fn fig8_templates(txns: usize) -> Fig8Outcome {
    let scale = TpccScale::X1;
    let scenario = tpcc::scenario(scale);
    let queries = TpccGenerator::new(scale, 9).generate(txns);
    let stmts = parse_workload(&queries);
    let est = tpcc_estimator(scale, &stmts[..stmts.len().min(2_000)]);

    // Template mode: the normal pipeline.
    let mut db_t = fresh_db(&scenario, tpcc_db_config(scale));
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), est.clone());
    let t0 = Instant::now();
    ai.observe_batch(queries.iter().map(String::as_str), &db_t);
    let templates = ai.template_count();
    let _ = ai.session(&mut db_t).run().unwrap();
    let template_tuning = t0.elapsed();
    let template_latency_ms = db_t.run_workload(&stmts).total_latency_ms;

    // Query mode: every query is its own unit of analysis.
    let mut db_q = fresh_db(&scenario, tpcc_db_config(scale));
    let mut ai_q = AutoIndex::new(AutoIndexConfig::default(), est);
    let t1 = Instant::now();
    let shapes: Vec<(QueryShape, u64)> = stmts
        .iter()
        .map(|s| (QueryShape::extract(s, db_q.catalog()), 1))
        .collect();
    let _ = ai_q.session(&mut db_q).workload(&shapes).run().unwrap();
    let query_tuning = t1.elapsed();
    let query_latency_ms = db_q.run_workload(&stmts).total_latency_ms;

    Fig8Outcome {
        queries: queries.len(),
        templates,
        template_tuning,
        query_tuning,
        template_latency_ms,
        query_latency_ms,
    }
}

// ---------------------------------------------------------------- Fig. 9

/// One Figure 9 round.
#[derive(Debug, Clone)]
pub struct Fig9Round {
    pub round: usize,
    pub method: Method,
    pub throughput: f64,
    pub tuning_time: Duration,
}

/// Figure 9: dynamic TPC-C — tuning every "five minutes" (every round)
/// while inserts grow the tables. Each method maintains its own database.
pub fn fig9_dynamic(rounds: usize, txns_per_round: usize) -> Vec<Fig9Round> {
    let scale = TpccScale::X10;
    let scenario = tpcc::scenario(scale);

    // Train once up front on round-0-style traffic.
    let warmup = TpccGenerator::new(scale, 100).generate(txns_per_round);
    let warmup_stmts = parse_workload(&warmup);
    let est = tpcc_estimator(scale, &warmup_stmts[..warmup_stmts.len().min(2_000)]);

    let mut out = Vec::new();
    let mut dbs = [
        fresh_db(&scenario, tpcc_db_config(scale)),
        fresh_db(&scenario, tpcc_db_config(scale)),
        fresh_db(&scenario, tpcc_db_config(scale)),
    ];
    let mut auto = AutoIndex::new(AutoIndexConfig::default(), est.clone());

    for round in 0..rounds {
        // Rounds shift the mix: later rounds skew toward OrderStatus reads
        // by re-seeding (concurrency effects are reflected via CONCURRENCY).
        let queries = TpccGenerator::new(scale, 1000 + round as u64).generate(txns_per_round);
        let stmts = parse_workload(&queries);

        for (mi, method) in [Method::Default, Method::Greedy, Method::AutoIndex]
            .iter()
            .enumerate()
        {
            let db = &mut dbs[mi];
            let mut tuning_time = Duration::ZERO;
            match method {
                Method::Default => {}
                Method::Greedy => {
                    let t0 = Instant::now();
                    greedy_step(db, AutoIndexConfig::default(), est.clone(), &stmts);
                    tuning_time = t0.elapsed();
                }
                Method::AutoIndex => {
                    let t0 = Instant::now();
                    auto.observe_batch(queries.iter().map(String::as_str), db);
                    auto.refresh_statistics(db);
                    let _ = auto.session(db).run().unwrap();
                    tuning_time = t0.elapsed();
                }
            }
            let m = db.run_workload(&stmts);
            out.push(Fig9Round {
                round,
                method: *method,
                throughput: m.throughput(CONCURRENCY),
                tuning_time,
            });
        }
    }
    out
}

// --------------------------------------------------------------- Fig. 10

/// One Figure 10 cell.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Budget in bytes (`None` = unlimited).
    pub budget: Option<u64>,
    pub result: MethodResult,
}

/// Figure 10: performance under storage limits on TPC-C 100x.
pub fn fig10_storage(txns: usize) -> Vec<Fig10Row> {
    let scale = TpccScale::X100;
    let scenario = tpcc::scenario(scale);
    let queries = TpccGenerator::new(scale, 7).generate(txns);
    let stmts = parse_workload(&queries);
    let est = tpcc_estimator(scale, &stmts[..stmts.len().min(2_000)]);

    const MB: u64 = 1 << 20;
    // The paper's {no limit, 150M, 100M, 50M} plus intermediate points:
    // at our 100x geometry a single fact-table index runs 60–250 MiB, so
    // the larger budgets are where the packing decisions differentiate.
    let mut rows = Vec::new();
    for budget in [
        None,
        Some(600 * MB),
        Some(300 * MB),
        Some(150 * MB),
        Some(100 * MB),
        Some(50 * MB),
    ] {
        for method in [Method::Default, Method::Greedy, Method::AutoIndex] {
            // The budget constrains *additional* indexes on top of the
            // primary keys: pass PK size + budget to the tuners.
            let db = fresh_db(&scenario, tpcc_db_config(scale));
            let pk_bytes = db.total_index_bytes();
            let effective = budget.map(|b| b + pk_bytes);
            let result = run_method(
                method,
                &scenario,
                tpcc_db_config(scale),
                &est,
                &queries,
                &stmts,
                effective,
                CONCURRENCY,
            );
            rows.push(Fig10Row { budget, result });
        }
    }
    rows
}

// ------------------------------------------------- Fig. 1 / Tables II-III

/// Figure 1 outcome: index removal on the banking withdraw business.
#[derive(Debug, Clone)]
pub struct Fig1Outcome {
    pub queries: usize,
    pub indexes_before: usize,
    pub indexes_after: usize,
    pub bytes_before: u64,
    pub bytes_after: u64,
    pub throughput_before: f64,
    pub throughput_after: f64,
    pub management_time: Duration,
}

/// Figure 1: remove redundant indexes on the withdraw business.
pub fn fig1_banking_removal(n_queries: usize) -> Fig1Outcome {
    let scenario = banking::scenario();
    // Production node: data + 263 indexes exceed the buffer pool.
    let cfg = SimDbConfig {
        memory_bytes: 4 * (1 << 30),
        ..SimDbConfig::default()
    };
    let mut db = fresh_db(&scenario, cfg.clone());

    let queries = BankingGenerator::new(5).generate_withdrawal(n_queries);
    let eval_stmts = parse_workload(&queries[..queries.len().min(4_000)]);

    let before_m = db.run_workload(&eval_stmts);
    let indexes_before = db.index_count();
    let bytes_before = db.total_index_bytes();

    // Train the estimator on a slice of the stream.
    let hist = parse_workload(&queries[..queries.len().min(2_000)]);
    let pool = candidate_pool(&db, &hist, &scenario.default_indexes);
    let est = train_estimator(&mut db, &hist, &pool);

    let t0 = Instant::now();
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), est);
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    let _ = ai.session(&mut db).run().unwrap();
    let management_time = t0.elapsed();

    let after_m = db.run_workload(&eval_stmts);
    Fig1Outcome {
        queries: queries.len(),
        indexes_before,
        indexes_after: db.index_count(),
        bytes_before,
        bytes_after: db.total_index_bytes(),
        throughput_before: before_m.throughput(50),
        throughput_after: after_m.throughput(50),
        management_time,
    }
}

/// Table II outcome: incremental creation on the hybrid banking services.
#[derive(Debug, Clone)]
pub struct Table2Outcome {
    pub non_primary_before: usize,
    pub added: usize,
    pub bytes_added: i64,
    pub summarization_tps_before: f64,
    pub summarization_tps_after: f64,
    pub withdrawal_tps_before: f64,
    pub withdrawal_tps_after: f64,
}

/// Table III row: an example recommended index with per-query cost.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub index: String,
    pub cost_without: f64,
    pub cost_with: f64,
}

/// Tables II and III: index creation on the hybrid banking workload.
pub fn table2_table3_banking(n_queries: usize) -> (Table2Outcome, Vec<Table3Row>) {
    // Start from a *lean but functional* production configuration (primary
    // keys plus the transaction-path lookup indexes) so the experiment
    // isolates incremental creation rather than removal, and baseline
    // services already run at production speed as in the paper.
    let mut scenario = banking::scenario();
    scenario.default_indexes.truncate(8);
    let mut db = fresh_db(&scenario, SimDbConfig::default());

    let mixed = BankingGenerator::new(9).generate_hybrid(n_queries, 0.6);
    let queries: Vec<String> = mixed.iter().map(|(_, q)| q.clone()).collect();
    let w_eval: Vec<Statement> = parse_workload(
        &mixed
            .iter()
            .filter(|(s, _)| *s == Service::Withdrawal)
            .map(|(_, q)| q.clone())
            .take(2_000)
            .collect::<Vec<_>>(),
    );
    let s_eval: Vec<Statement> = parse_workload(
        &mixed
            .iter()
            .filter(|(s, _)| *s == Service::Summarization)
            .map(|(_, q)| q.clone())
            .take(600)
            .collect::<Vec<_>>(),
    );

    let w_before = db.run_workload(&w_eval).throughput(50);
    let s_before = db.run_workload(&s_eval).throughput(16);
    let non_primary_before = db.index_count();
    let bytes_before = db.total_index_bytes() as i64;

    let hist = parse_workload(&queries[..queries.len().min(2_000)]);
    let pool = candidate_pool(&db, &hist, &scenario.default_indexes);
    let est = train_estimator(&mut db, &hist, &pool);

    let mut ai = AutoIndex::new(
        AutoIndexConfig {
            // Keep the lean production indexes; this run is about adding.
            prune_epsilon: None,
            ..AutoIndexConfig::default()
        },
        est,
    );
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    let report = ai.session(&mut db).run().unwrap().report;

    let w_after = db.run_workload(&w_eval).throughput(50);
    let s_after = db.run_workload(&s_eval).throughput(16);

    // Table III: for each added index, the best-served template cost.
    let shapes: Vec<QueryShape> = hist
        .iter()
        .map(|s| QueryShape::extract(s, db.catalog()))
        .collect();
    let absolute = |without: f64, with: f64| without - with;
    let t3 = (report.recommendation.add.iter().take(5))
        .filter_map(|d| {
            let (w0, w1) = best_served(&db, &shapes, &scenario.default_indexes, d, absolute)?;
            Some(Table3Row {
                index: d.to_string(),
                cost_without: w0,
                cost_with: w1,
            })
        })
        .collect();

    (
        Table2Outcome {
            non_primary_before,
            added: report.recommendation.add.len(),
            bytes_added: db.total_index_bytes() as i64 - bytes_before,
            summarization_tps_before: s_before,
            summarization_tps_after: s_after,
            withdrawal_tps_before: w_before,
            withdrawal_tps_after: w_after,
        },
        t3,
    )
}

// ------------------------------------------------------------- Estimator

/// §VI-A: 9-fold cross-validation of the estimator on TPC-C history.
pub fn estimator_validation(txns: usize) -> Vec<FoldReport> {
    let scale = TpccScale::X1;
    let scenario = tpcc::scenario(scale);
    let mut db = fresh_db(&scenario, tpcc_db_config(scale));
    let queries = TpccGenerator::new(scale, 21).generate(txns);
    let stmts = parse_workload(&queries);
    let pool = candidate_pool(&db, &stmts, &scenario.default_indexes);
    let set = TrainingSet::collect(&mut db, &stmts, &pool, &CollectConfig::default());
    kfold_cross_validate(&set, 9, &TrainConfig::default()).expect("enough samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_small_run_produces_nine_rows() {
        let rows = fig5_tpcc(40);
        assert_eq!(rows.len(), 9);
        // AutoIndex never loses to Default by more than noise at any scale.
        for scale in [1u32, 10, 100] {
            let get = |m: Method| {
                rows.iter()
                    .find(|r| r.scale == scale && r.result.method == m)
                    .expect("row exists")
            };
            let d = get(Method::Default);
            let a = get(Method::AutoIndex);
            assert!(
                a.result.total_latency_ms <= d.result.total_latency_ms * 1.05,
                "scale {scale}: AutoIndex {} vs Default {}",
                a.result.total_latency_ms,
                d.result.total_latency_ms
            );
        }
    }

    #[test]
    fn fig8_small_run_reduces_overhead() {
        let o = fig8_templates(60);
        assert!(o.templates < o.queries / 4);
        assert!(o.template_tuning < o.query_tuning);
    }

    #[test]
    fn estimator_validation_has_nine_folds() {
        let folds = estimator_validation(60);
        assert_eq!(folds.len(), 9);
    }

    #[test]
    fn ablation_prune_keeps_fewer_indexes_when_enabled() {
        let rows = ablation_prune(3_000);
        assert_eq!(rows.len(), 2);
        let on = &rows[0];
        let off = &rows[1];
        assert!(on.setting.contains("true"));
        assert!(
            on.aux < off.aux,
            "prune on must keep fewer indexes: {} vs {}",
            on.aux,
            off.aux
        );
    }

    #[test]
    fn fig9_rounds_shape() {
        let rows = fig9_dynamic(2, 30);
        assert_eq!(rows.len(), 6); // 2 rounds x 3 methods
                                   // Default never tunes.
        for r in rows.iter().filter(|r| r.method == Method::Default) {
            assert_eq!(r.tuning_time, Duration::ZERO);
        }
        // The tuned methods beat Default each round.
        for round in 0..2 {
            let get = |m: Method| {
                rows.iter()
                    .find(|r| r.round == round && r.method == m)
                    .expect("row exists")
                    .throughput
            };
            assert!(get(Method::AutoIndex) >= get(Method::Default));
        }
    }
}

// -------------------------------------------------------------- Ablations

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob and value (e.g. "gamma=0.7").
    pub setting: String,
    /// Estimated relative improvement achieved by the search.
    pub improvement: f64,
    /// Measured workload latency under the chosen configuration, ms.
    pub measured_latency_ms: f64,
    /// Auxiliary count (indexes chosen / removed / templates — per sweep).
    pub aux: usize,
}

fn ablation_tpcc_setup(
    txns: usize,
) -> (
    autoindex_workloads::Scenario,
    Vec<String>,
    Vec<Statement>,
    autoindex_estimator::LearnedCostEstimator,
) {
    let scale = TpccScale::X1;
    let scenario = tpcc::scenario(scale);
    let queries = TpccGenerator::new(scale, 31).generate(txns);
    let stmts = parse_workload(&queries);
    let est = tpcc_estimator(scale, &stmts[..stmts.len().min(2_000)]);
    (scenario, queries, stmts, est)
}

fn run_autoindex_with(
    scenario: &autoindex_workloads::Scenario,
    queries: &[String],
    stmts: &[Statement],
    est: &autoindex_estimator::LearnedCostEstimator,
    config: AutoIndexConfig,
) -> (f64, f64, usize) {
    let mut db = fresh_db(scenario, tpcc_db_config(TpccScale::X1));
    let mut ai = AutoIndex::new(config, est.clone());
    ai.observe_batch(queries.iter().map(String::as_str), &db);
    let report = ai.session(&mut db).run().unwrap().report;
    let m = db.run_workload(stmts);
    (
        report.recommendation.improvement(),
        m.total_latency_ms,
        db.index_count(),
    )
}

/// Ablation: MCTS exploration constant γ.
pub fn ablation_gamma(txns: usize) -> Vec<AblationRow> {
    let (scenario, queries, stmts, est) = ablation_tpcc_setup(txns);
    [0.0, 0.35, 0.7, 1.4, 2.8]
        .into_iter()
        .map(|gamma| {
            let cfg = AutoIndexConfig {
                mcts: autoindex_core::MctsConfig {
                    gamma,
                    ..autoindex_core::MctsConfig::default()
                },
                ..AutoIndexConfig::default()
            };
            let (improvement, measured_latency_ms, aux) =
                run_autoindex_with(&scenario, &queries, &stmts, &est, cfg);
            AblationRow {
                setting: format!("gamma={gamma}"),
                improvement,
                measured_latency_ms,
                aux,
            }
        })
        .collect()
}

/// Ablation: rollout count K (§IV-B step 2).
pub fn ablation_rollouts(txns: usize) -> Vec<AblationRow> {
    let (scenario, queries, stmts, est) = ablation_tpcc_setup(txns);
    [0usize, 1, 5, 10]
        .into_iter()
        .map(|k| {
            let cfg = AutoIndexConfig {
                mcts: autoindex_core::MctsConfig {
                    rollouts: k,
                    ..autoindex_core::MctsConfig::default()
                },
                ..AutoIndexConfig::default()
            };
            let (improvement, measured_latency_ms, aux) =
                run_autoindex_with(&scenario, &queries, &stmts, &est, cfg);
            AblationRow {
                setting: format!("rollouts={k}"),
                improvement,
                measured_latency_ms,
                aux,
            }
        })
        .collect()
}

/// Ablation: the §III estimator-driven prune pass, on the banking removal
/// scenario (aux = indexes remaining).
pub fn ablation_prune(n_queries: usize) -> Vec<AblationRow> {
    [Some(0.0005), None]
        .into_iter()
        .map(|eps| {
            let scenario = banking::scenario();
            let cfg = SimDbConfig {
                memory_bytes: 4 * (1 << 30),
                ..SimDbConfig::default()
            };
            let mut db = fresh_db(&scenario, cfg);
            let queries = BankingGenerator::new(5).generate_withdrawal(n_queries);
            let hist = parse_workload(&queries[..queries.len().min(1_500)]);
            let pool = candidate_pool(&db, &hist, &scenario.default_indexes);
            let est = train_estimator(&mut db, &hist, &pool);
            let mut ai = AutoIndex::new(
                AutoIndexConfig {
                    prune_epsilon: eps,
                    ..AutoIndexConfig::default()
                },
                est,
            );
            ai.observe_batch(queries.iter().map(String::as_str), &db);
            let report = ai.session(&mut db).run().unwrap().report;
            let eval = parse_workload(&queries[..queries.len().min(2_000)]);
            let m = db.run_workload(&eval);
            AblationRow {
                setting: format!("prune={:?}", eps.is_some()),
                improvement: report.recommendation.improvement(),
                measured_latency_ms: m.total_latency_ms,
                aux: db.index_count(),
            }
        })
        .collect()
}

/// Ablation: learned vs native estimator on a write-heavy workload
/// (the epidemic insert phase with a pre-existing hot-write index; the
/// native estimator cannot see the maintenance cost, so it keeps the
/// index; aux = index count after tuning).
pub fn ablation_estimator(_txns: usize) -> Vec<AblationRow> {
    use autoindex_workloads::epidemic::{self, EpidemicGenerator, Phase};
    let make_db = || {
        let mut db = autoindex_storage::SimDb::new(epidemic::catalog(), SimDbConfig::default());
        for d in epidemic::default_indexes() {
            db.create_index(d).expect("default index");
        }
        // The W1-era community index, now pure write maintenance.
        db.create_index(autoindex_storage::index::IndexDef::new(
            "person",
            &["community"],
        ))
        .expect("community index");
        db
    };

    // Shared training history across W1..W3 so the learned model knows
    // both read and write behaviour.
    let mut cal = EpidemicGenerator::new(7);
    let mut history = Vec::new();
    for phase in [Phase::W1, Phase::W2, Phase::W3] {
        history.extend(cal.generate(phase, 600));
    }
    let hist_stmts = parse_workload(&history);
    let pool = vec![
        autoindex_storage::index::IndexDef::new("person", &["temperature"]),
        autoindex_storage::index::IndexDef::new("person", &["community"]),
    ];
    let mut train_db = make_db();
    let learned = train_estimator(&mut train_db, &hist_stmts, &pool);

    let w2 = EpidemicGenerator::new(21).generate(Phase::W2, 4_000);
    let eval = parse_workload(&w2[..2_000.min(w2.len())]);

    let mut rows = Vec::new();
    // Learned estimator: sees maintenance, drops the community index.
    {
        let mut db = make_db();
        let mut ai = AutoIndex::new(AutoIndexConfig::default(), learned);
        ai.observe_batch(w2.iter().map(String::as_str), &db);
        let report = ai.session(&mut db).run().unwrap().report;
        let m = db.run_workload(&eval);
        rows.push(AblationRow {
            setting: "estimator=learned".into(),
            improvement: report.recommendation.improvement(),
            measured_latency_ms: m.total_latency_ms,
            aux: db.index_count(),
        });
    }
    // Native estimator: maintenance-blind, keeps it.
    {
        let mut db = make_db();
        let mut ai = AutoIndex::new(
            AutoIndexConfig::default(),
            autoindex_estimator::NativeCostEstimator,
        );
        ai.observe_batch(w2.iter().map(String::as_str), &db);
        let report = ai.session(&mut db).run().unwrap().report;
        let m = db.run_workload(&eval);
        rows.push(AblationRow {
            setting: "estimator=native".into(),
            improvement: report.recommendation.improvement(),
            measured_latency_ms: m.total_latency_ms,
            aux: db.index_count(),
        });
    }
    rows
}

/// Ablation: template store capacity (aux = templates retained).
pub fn ablation_template_capacity(txns: usize) -> Vec<AblationRow> {
    let (scenario, queries, stmts, est) = ablation_tpcc_setup(txns);
    [4usize, 16, 128, 5_000]
        .into_iter()
        .map(|cap| {
            let cfg = AutoIndexConfig {
                templates: TemplateStoreConfig {
                    max_templates: cap,
                    ..TemplateStoreConfig::default()
                },
                ..AutoIndexConfig::default()
            };
            let mut db = fresh_db(&scenario, tpcc_db_config(TpccScale::X1));
            let mut ai = AutoIndex::new(cfg, est.clone());
            ai.observe_batch(queries.iter().map(String::as_str), &db);
            let templates = ai.template_count();
            let report = ai.session(&mut db).run().unwrap().report;
            let m = db.run_workload(&stmts);
            AblationRow {
                setting: format!("max_templates={cap}"),
                improvement: report.recommendation.improvement(),
                measured_latency_ms: m.total_latency_ms,
                aux: templates,
            }
        })
        .collect()
}
