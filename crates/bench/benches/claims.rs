//! The paper's figures and tables as `repro all` computes them, simulated
//! cells only. Records the `claims` result (`autoindex_bench::record`).
//!
//! Each `experiments::*` function runs once, in `repro all`'s order and
//! with its arguments, and every field `repro` prints from it is recorded
//! raw — the percentages and averages it prints follow from these. What
//! `repro` prints from a clock is left out, here and nowhere else:
//! [`WALL_CELLS`] names each such cell, and the document echoes the list.
//! Every recorded number is **sim** (modelled latency, throughput, cost,
//! bytes) or a **count**, byte-identical run to run, so the document must
//! equal `crates/bench/baselines/claims.json` exactly: a change that moves
//! a paper number goes red here and names the cell.

use autoindex_bench::experiments as ex;
use autoindex_bench::{record, MethodResult};
use autoindex_support::json::{obj, Json};

/// The wall cells of `repro all`: measured, so not recorded.
const WALL_CELLS: [&str; 4] = [
    "fig1.management_time",
    "fig8.template_tuning, fig8.query_tuning and the overhead reduction between them",
    "fig9.tuning_time (each round and the averages)",
    "tuning_time of every fig5 / fig10 method result (not printed)",
];

fn rows<T>(items: &[T], row: impl Fn(&T) -> Json) -> Json {
    Json::Array(items.iter().map(row).collect())
}

fn method(r: &MethodResult) -> Json {
    obj([
        ("method", r.method.to_string().into()),
        ("total_latency_ms", r.total_latency_ms.into()),
        ("throughput", r.throughput.into()),
        ("index_count", r.index_count.into()),
        ("index_bytes", r.index_bytes.into()),
    ])
}

fn ablation(rs: &[ex::AblationRow]) -> Json {
    rows(rs, |r| {
        obj([
            ("setting", r.setting.clone().into()),
            ("improvement", r.improvement.into()),
            ("measured_latency_ms", r.measured_latency_ms.into()),
            ("aux", r.aux.into()),
        ])
    })
}

fn main() {
    let fig1 = ex::fig1_banking_removal(200_000);
    let fig1 = obj([
        ("queries", fig1.queries.into()),
        ("indexes_before", fig1.indexes_before.into()),
        ("indexes_after", fig1.indexes_after.into()),
        ("bytes_before", fig1.bytes_before.into()),
        ("bytes_after", fig1.bytes_after.into()),
        ("throughput_before", fig1.throughput_before.into()),
        ("throughput_after", fig1.throughput_after.into()),
    ]);
    let fig5 = rows(&ex::fig5_tpcc(ex::TPCC_TXNS), |r| {
        obj([
            ("scale", u64::from(r.scale).into()),
            ("result", method(&r.result)),
        ])
    });
    let table1 = rows(&ex::table1_added_indexes(ex::TPCC_TXNS), |r| {
        obj([
            ("method", r.method.to_string().into()),
            ("index", r.index.clone().into()),
            ("cost_reduction_pct", r.cost_reduction_pct.into()),
        ])
    });
    let tpcds = ex::fig6_fig7_tpcds();
    let fig6_7 = obj([
        (
            "per_query",
            rows(&tpcds.per_query, |r| {
                obj([
                    ("query", r.query.clone().into()),
                    ("reduction_pct_greedy", r.reduction_pct_greedy.into()),
                    ("reduction_pct_autoindex", r.reduction_pct_autoindex.into()),
                ])
            }),
        ),
        ("greedy_indexes", tpcds.greedy_indexes.into()),
        ("autoindex_indexes", tpcds.autoindex_indexes.into()),
        ("greedy_over_10pct", tpcds.greedy_over_10pct.into()),
        ("autoindex_over_10pct", tpcds.autoindex_over_10pct.into()),
    ]);
    let fig8 = ex::fig8_templates(ex::TPCC_TXNS);
    let fig8 = obj([
        ("queries", fig8.queries.into()),
        ("templates", fig8.templates.into()),
        ("template_latency_ms", fig8.template_latency_ms.into()),
        ("query_latency_ms", fig8.query_latency_ms.into()),
    ]);
    let fig9 = rows(&ex::fig9_dynamic(6, 150), |r| {
        obj([
            ("round", r.round.into()),
            ("method", r.method.to_string().into()),
            ("throughput", r.throughput.into()),
        ])
    });
    let fig10 = rows(&ex::fig10_storage(ex::TPCC_TXNS / 2), |r| {
        obj([("budget", r.budget.into()), ("result", method(&r.result))])
    });
    let (t2, t3) = ex::table2_table3_banking(60_000);
    let table2 = obj([
        ("non_primary_before", t2.non_primary_before.into()),
        ("added", t2.added.into()),
        ("bytes_added", t2.bytes_added.into()),
        (
            "summarization_tps_before",
            t2.summarization_tps_before.into(),
        ),
        ("summarization_tps_after", t2.summarization_tps_after.into()),
        ("withdrawal_tps_before", t2.withdrawal_tps_before.into()),
        ("withdrawal_tps_after", t2.withdrawal_tps_after.into()),
    ]);
    let table3 = rows(&t3, |r| {
        obj([
            ("index", r.index.clone().into()),
            ("cost_without", r.cost_without.into()),
            ("cost_with", r.cost_with.into()),
        ])
    });
    let estimator = rows(&ex::estimator_validation(ex::TPCC_TXNS), |f| {
        obj([
            ("fold", f.fold.into()),
            ("train_samples", f.train_samples.into()),
            ("test_samples", f.test_samples.into()),
            ("mean_relative_error", f.mean_relative_error.into()),
            ("median_q_error", f.median_q_error.into()),
        ])
    });
    let ablations = obj([
        ("gamma", ablation(&ex::ablation_gamma(ex::TPCC_TXNS / 2))),
        (
            "rollouts",
            ablation(&ex::ablation_rollouts(ex::TPCC_TXNS / 2)),
        ),
        ("prune", ablation(&ex::ablation_prune(20_000))),
        (
            "estimator",
            ablation(&ex::ablation_estimator(ex::TPCC_TXNS / 2)),
        ),
        (
            "template_capacity",
            ablation(&ex::ablation_template_capacity(ex::TPCC_TXNS / 2)),
        ),
    ]);

    let doc = obj([
        ("bench", "claims".into()),
        (
            "metric",
            "repro all's simulated cells, raw: modelled latency (ms), throughput (tps), \
             cost, bytes, and counts; host independent"
                .into(),
        ),
        ("wall_cells_left_out", rows(&WALL_CELLS, |c| (*c).into())),
        ("fig1", fig1),
        ("fig5", fig5),
        ("table1", table1),
        ("fig6_7", fig6_7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("table2", table2),
        ("table3", table3),
        ("estimator", estimator),
        ("ablations", ablations),
    ]);
    record("claims", &doc);
}
