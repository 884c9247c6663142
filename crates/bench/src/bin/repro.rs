//! Regenerate the paper's tables and figures.
//!
//! ```bash
//! cargo run --release -p autoindex-bench --bin repro -- all
//! cargo run --release -p autoindex-bench --bin repro -- fig5
//! ```
//!
//! Targets: fig1 fig5 fig6 fig7 fig8 fig9 fig10 table1 table2 table3
//! estimator ablations smoke all
//!
//! Every target runs against a freshly reset global [`MetricsRegistry`] and
//! prints the resulting snapshot (see `docs/OBSERVABILITY.md`), so each
//! experiment's printed numbers come with the raw counters that produced
//! them. The `smoke` target is a self-checking round `scripts/verify.sh`
//! runs for its exit status: it re-parses its own snapshot with the in-repo
//! JSON parser and exits non-zero if any core counter is missing or zero.
//! Fault injection is not a target here: the guarded pipeline under faults
//! is the `fault_matrix` bench (`docs/ROBUSTNESS.md` §"Fault matrix").

use autoindex_bench::experiments as ex;
use autoindex_bench::{fmt_bytes, Method, MethodResult};
use autoindex_support::json::Json;
use autoindex_support::obs::MetricsRegistry;

fn main() {
    let target = std::env::args().nth(1);
    match target.as_deref().unwrap_or("all") {
        "fig1" => run("fig1", fig1),
        "fig5" => run("fig5", fig5),
        "fig6" => run("fig6", || fig6_7(true)),
        "fig7" => run("fig7", || fig6_7(false)),
        "fig8" => run("fig8", fig8),
        "fig9" => run("fig9", fig9),
        "fig10" => run("fig10", fig10),
        "table1" => run("table1", table1),
        "table2" | "table3" => run("table2_3", table2_3),
        "estimator" => run("estimator", estimator),
        "ablations" => run("ablations", ablations),
        "smoke" => smoke(),
        "all" => {
            run("fig1", fig1);
            run("fig5", fig5);
            run("table1", table1);
            run("fig6_7", || fig6_7(true));
            run("fig8", fig8);
            run("fig9", fig9);
            run("fig10", fig10);
            run("table2_3", table2_3);
            run("estimator", estimator);
            run("ablations", ablations);
        }
        other => {
            eprintln!("unknown target {other:?}");
            eprintln!(
                "targets: fig1 fig5 fig6 fig7 fig8 fig9 fig10 table1 table2 table3 estimator ablations smoke all"
            );
            std::process::exit(2);
        }
    }
}

/// Run one experiment against a clean global metrics registry and print the
/// snapshot it leaves behind. Databases created with `SimDb::new` report
/// into the global registry, so the snapshot reflects exactly this target's
/// work (plus nothing carried over from a previous one).
fn run(name: &str, f: impl FnOnce()) {
    let metrics = MetricsRegistry::global();
    metrics.reset();
    f();
    println!("\n--- metrics snapshot [{name}] ---");
    println!("{}", metrics.snapshot().pretty());
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper: {paper}");
}

/// One column of a printed table, one space after the one before it: its
/// heading — the heading line stops at the first column without one — its
/// width and alignment, and its cell of a row.
struct Col<'a, R> {
    head: &'static str,
    width: usize,
    left: bool,
    cell: Box<dyn Fn(&R) -> String + 'a>,
}

impl<R> Col<'_, R> {
    fn left(self) -> Self {
        Col { left: true, ..self }
    }
}

/// The rows of a printed table; its columns are made by [`Table::col`].
struct Table<'r, R>(&'r [R]);

impl<R> Table<'_, R> {
    /// A right-aligned column.
    fn col<'a>(
        &self,
        head: &'static str,
        width: usize,
        cell: impl Fn(&R) -> String + 'a,
    ) -> Col<'a, R> {
        Col {
            head,
            width,
            left: false,
            cell: Box::new(cell),
        }
    }

    /// Print the heading line of `cols` (if the first has a heading), then
    /// one line per row.
    fn print(&self, cols: &[Col<'_, R>]) {
        let heads: Vec<String> = (cols.iter())
            .map_while(|c| (!c.head.is_empty()).then(|| c.head.to_string()))
            .collect();
        let cells = self
            .0
            .iter()
            .map(|r| cols.iter().map(|c| (c.cell)(r)).collect());
        for cells in (!heads.is_empty())
            .then_some(heads)
            .into_iter()
            .chain(cells)
        {
            let line: Vec<String> = (cols.iter().zip(&cells))
                .map(|(c, cell)| match c.left {
                    true => format!("{cell:<w$}", w = c.width),
                    false => format!("{cell:>w$}", w = c.width),
                })
                .collect();
            println!("{}", line.join(" "));
        }
    }
}

/// A percentage with one decimal and a `%` sign.
fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Self-checking tuning round for `scripts/verify.sh`: tiny universe, one
/// `AutoIndex::tune` call, then the snapshot must re-parse with the in-repo
/// JSON parser and carry non-zero core counters. The universe is kept small
/// (one table, a handful of candidates) so the default search budget
/// exhausts the root's untried actions and genuinely revisits
/// configurations — that is what makes `mcts.eval_cache.hits` non-zero.
fn smoke() {
    use autoindex_core::{AutoIndex, AutoIndexConfig};
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::{SimDb, SimDbConfig};

    header(
        "Smoke: metrics snapshot self-check",
        "every tuning round leaves a parseable snapshot with non-zero core counters",
    );
    let metrics = MetricsRegistry::global();
    metrics.reset();

    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("t", 800_000)
            .column(Column::int("id", 800_000))
            .column(Column::int("a", 400_000))
            .column(Column::int("b", 4_000))
            .column(Column::int("c", 40))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    let mut db = SimDb::new(cat, SimDbConfig::default());
    let mut ai = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    for i in 0..400 {
        let q = format!("SELECT * FROM t WHERE a = {i} AND b = {}", i % 7);
        ai.observe(&q, &db).unwrap();
        let _ = db.execute(&autoindex_sql::parse_statement(&q).unwrap());
    }
    let report = ai.session(&mut db).run().unwrap().report;

    let snap = metrics.snapshot();
    let text = snap.to_string();
    let parsed = match Json::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smoke FAILED: snapshot does not re-parse: {e}");
            std::process::exit(1);
        }
    };
    if parsed != snap {
        eprintln!("smoke FAILED: snapshot does not round-trip through Json::parse");
        std::process::exit(1);
    }
    let counter = |name: &str| -> f64 {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut failed = false;
    for name in [
        "mcts.iterations",
        "mcts.eval_cache.hits",
        "mcts.eval_cache.misses",
        "db.whatif_calls",
        "db.executions",
        "estimator.inference_calls",
        "estimator.cost_cache.hits",
        "estimator.cost_cache.misses",
        "system.candidates_generated",
    ] {
        let v = counter(name);
        let ok = v > 0.0;
        println!("  {name:<28} {v:>12}  {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failed = true;
        }
    }
    println!(
        "  tuning report: evaluations={} search={} cache_hits={} hit_rate={:.2}",
        report.evaluations,
        report.search_evaluations,
        report.eval_cache_hits,
        report.eval_cache_hit_rate()
    );
    if report.evaluations == 0 {
        eprintln!("smoke FAILED: TuningReport.evaluations == 0");
        failed = true;
    }
    if failed {
        eprintln!("smoke FAILED: see FAIL rows above");
        std::process::exit(1);
    }
    println!("smoke OK: snapshot parseable, all core counters non-zero");
}

fn fig5() {
    header(
        "Figure 5: TPC-C performance comparison",
        "AutoIndex > Greedy > Default at every scale; e.g. 100x: -25.4% latency / +34% tps vs Default",
    );
    let rows = ex::fig5_tpcc(ex::TPCC_TXNS);
    // Against the Default row of the same scale.
    let change = |r: &ex::Fig5Row, v: fn(&MethodResult) -> f64| {
        let base = (rows.iter())
            .find(|d| d.scale == r.scale && d.result.method == Method::Default)
            .map_or(0.0, |d| v(&d.result));
        let d = (base > 0.0).then(|| format!("{:+.1}%", (v(&r.result) / base - 1.0) * 100.0));
        d.unwrap_or_default()
    };
    let t = Table(&rows);
    t.print(&[
        t.col("scale", 6, |r| r.scale.to_string()),
        t.col("method", 10, |r| r.result.method.to_string()),
        t.col("total lat (ms)", 16, |r| {
            format!("{:.1}", r.result.total_latency_ms)
        }),
        t.col("tps", 12, |r| format!("{:.0}", r.result.throughput)),
        t.col("#idx", 9, |r| r.result.index_count.to_string()),
        t.col("idx size", 12, |r| fmt_bytes(r.result.index_bytes)),
        t.col("", 0, |r| {
            format!(" lat {:>8}", change(r, |m| m.total_latency_ms))
        }),
        t.col("", 0, |r| format!("tps {:>8}", change(r, |m| m.throughput))),
    ]);
}

fn table1() {
    header(
        "Table I: indexes added vs Default (TPC-C 1x)",
        "Greedy picks (o_c_id,o_w_id,o_d_id); AutoIndex also adds s_quantity (21.4%) and (o_c_id,o_d_id) (3.6%)",
    );
    let rows = ex::table1_added_indexes(ex::TPCC_TXNS);
    let t = Table(&rows);
    t.print(&[
        t.col("method", 10, |r| r.method.to_string()),
        t.col("index", 44, |r| r.index.clone()).left(),
        t.col("cost cut", 8, |r| pct(r.cost_reduction_pct)),
    ]);
}

fn fig6_7(full: bool) {
    header(
        "Figures 6/7: TPC-DS per-query execution-time reduction",
        "AutoIndex optimises most queries; ~44 vs ~15 queries improved >10%; 9 vs 3 indexes",
    );
    let o = ex::fig6_fig7_tpcds();
    let rows = &o.per_query;
    if full {
        let shown: Vec<_> = (rows.iter())
            .filter(|r| r.reduction_pct_greedy > 0.5 || r.reduction_pct_autoindex > 0.5)
            .collect();
        let t = Table(&shown);
        t.print(&[
            t.col("query", 6, |r| r.query.clone()),
            t.col("greedy", 12, |r| pct(r.reduction_pct_greedy)),
            t.col("autoindex", 12, |r| pct(r.reduction_pct_autoindex)),
        ]);
    }
    // Distribution buckets (the Figure 6 histogram): ~0, (0,10], (10,50], >50.
    let bucket = |sel: fn(&ex::TpcdsQueryRow) -> f64| {
        let mut b = [0usize; 4];
        for v in rows.iter().map(sel) {
            b[[0.5, 10.0, 50.0].iter().filter(|&&edge| v > edge).count()] += 1;
        }
        b
    };
    let buckets = [
        ("  Greedy", bucket(|r| r.reduction_pct_greedy)),
        ("  AutoIndex", bucket(|r| r.reduction_pct_autoindex)),
    ];
    let count = |i: usize| move |(_, b): &(&str, [usize; 4])| b[i].to_string();
    let t = Table(&buckets);
    t.print(&[
        t.col("reduction buckets", 17, |(name, _)| name.to_string())
            .left(),
        t.col("~0", 7, count(0)),
        t.col("0-10%", 8, count(1)),
        t.col("10-50%", 8, count(2)),
        t.col(">50%", 7, count(3)),
    ]);
    println!(
        "queries improved >10%: AutoIndex {} vs Greedy {}  (AutoIndex +{})",
        o.autoindex_over_10pct,
        o.greedy_over_10pct,
        o.autoindex_over_10pct.saturating_sub(o.greedy_over_10pct)
    );
    println!(
        "indexes selected: AutoIndex {} vs Greedy {}",
        o.autoindex_indexes, o.greedy_indexes
    );
}

fn fig8() {
    header(
        "Figure 8: template-based candidate generation",
        ">98.5% management-overhead reduction at <=0.1% performance cost",
    );
    let o = ex::fig8_templates(ex::TPCC_TXNS);
    let overhead_cut =
        100.0 * (1.0 - o.template_tuning.as_secs_f64() / o.query_tuning.as_secs_f64().max(1e-12));
    let perf_delta = 100.0 * (o.template_latency_ms / o.query_latency_ms.max(1e-12) - 1.0);
    println!("queries observed:        {}", o.queries);
    println!("templates formed:        {}", o.templates);
    println!("tuning time (template):  {:?}", o.template_tuning);
    println!("tuning time (query):     {:?}", o.query_tuning);
    println!("overhead reduction:      {overhead_cut:.1}%");
    println!(
        "workload latency:        template {:.0} ms vs query {:.0} ms ({perf_delta:+.2}%)",
        o.template_latency_ms, o.query_latency_ms
    );
}

fn fig9() {
    header(
        "Figure 9: dynamic TPC-C workloads",
        "AutoIndex adapts best and tunes faster than Greedy as data grows",
    );
    let rows = ex::fig9_dynamic(6, 150);
    let t = Table(&rows);
    t.print(&[
        t.col("round", 6, |r| r.round.to_string()),
        t.col("method", 10, |r| r.method.to_string()),
        t.col("tps", 12, |r| format!("{:.0}", r.throughput)),
        t.col("tuning time", 14, |r| format!("{:?}", r.tuning_time)),
    ]);
    // Aggregates.
    let averages = [Method::Default, Method::Greedy, Method::AutoIndex].map(|m| {
        let v: Vec<&ex::Fig9Round> = rows.iter().filter(|r| r.method == m).collect();
        let tps: f64 = v.iter().map(|r| r.throughput).sum::<f64>() / v.len() as f64;
        let tune: f64 = v.iter().map(|r| r.tuning_time.as_secs_f64()).sum::<f64>() / v.len() as f64;
        (m, tps, tune)
    });
    let t = Table(&averages);
    t.print(&[
        t.col("", 0, |(m, _, _)| format!("  {m}")),
        t.col("", 0, |(_, tps, _)| format!("avg tps {tps:>10.0}")),
        t.col("", 0, |(_, _, tune)| format!("  avg tuning {tune:.3}s")),
    ]);
}

fn fig10() {
    header(
        "Figure 10: storage limits (TPC-C 100x)",
        "AutoIndex best under every limit {no limit, 150M, 100M, 50M}",
    );
    let rows = ex::fig10_storage(ex::TPCC_TXNS / 2);
    let budget = |b: Option<u64>| b.map_or("no limit".to_string(), |x| format!("{}M", x >> 20));
    let t = Table(&rows);
    t.print(&[
        t.col("budget", 10, |r| budget(r.budget)),
        t.col("method", 10, |r| r.result.method.to_string()),
        t.col("total lat (ms)", 16, |r| {
            format!("{:.1}", r.result.total_latency_ms)
        }),
        t.col("tps", 12, |r| format!("{:.0}", r.result.throughput)),
        t.col("#idx", 6, |r| r.result.index_count.to_string()),
    ]);
}

fn fig1() {
    header(
        "Figure 1: banking withdraw business index removal",
        "remove 83% of 263 indexes, save 70% storage, +4% throughput, manage 2.2M queries in ~11 min",
    );
    let n: usize = std::env::var("FIG1_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let o = ex::fig1_banking_removal(n);
    println!("queries managed:       {}", o.queries);
    println!("management time:       {:?}", o.management_time);
    println!(
        "indexes:               {} -> {}  ({:.0}% removed)",
        o.indexes_before,
        o.indexes_after,
        100.0 * (o.indexes_before - o.indexes_after) as f64 / o.indexes_before as f64
    );
    println!(
        "index storage:         {} -> {}  ({:.0}% saved)",
        fmt_bytes(o.bytes_before),
        fmt_bytes(o.bytes_after),
        100.0 * (1.0 - o.bytes_after as f64 / o.bytes_before as f64)
    );
    println!(
        "throughput:            {:.0} -> {:.0} tps ({:+.1}%)",
        o.throughput_before,
        o.throughput_after,
        100.0 * (o.throughput_after / o.throughput_before - 1.0)
    );
}

fn table2_3() {
    header(
        "Tables II/III: banking hybrid services",
        "+33 indexes, +1.27 GB, +10% summarization tps, +6% withdrawal tps; ind20 cuts 98.7% of one query's cost",
    );
    let (t2, t3) = ex::table2_table3_banking(60_000);
    println!(
        "non-primary indexes:   {} (+{})",
        t2.non_primary_before, t2.added
    );
    println!(
        "disk space:            {:+.2} GiB",
        t2.bytes_added as f64 / (1u64 << 30) as f64
    );
    println!(
        "summarization service: {:.0} -> {:.0} tps ({:+.1}%)",
        t2.summarization_tps_before,
        t2.summarization_tps_after,
        100.0 * (t2.summarization_tps_after / t2.summarization_tps_before - 1.0)
    );
    println!(
        "withdrawal service:    {:.0} -> {:.0} tps ({:+.1}%)",
        t2.withdrawal_tps_before,
        t2.withdrawal_tps_after,
        100.0 * (t2.withdrawal_tps_after / t2.withdrawal_tps_before - 1.0)
    );
    println!("\nTable III — example recommended indexes:");
    let t = Table(&t3);
    t.print(&[
        t.col("index", 44, |r| r.index.clone()).left(),
        t.col("cost (no idx)", 14, |r| format!("{:.2}", r.cost_without)),
        t.col("cost (w/ idx)", 14, |r| format!("{:.2}", r.cost_with)),
        t.col("cut", 8, |r| {
            pct(100.0 * (1.0 - r.cost_with / r.cost_without))
        }),
    ]);
}

fn estimator() {
    header(
        "Estimator: 9-fold cross-validation (§VI-A)",
        "one-layer regression on (C^data, C^io, C^cpu), 0.01% sampling",
    );
    let folds = ex::estimator_validation(ex::TPCC_TXNS);
    let t = Table(&folds);
    t.print(&[
        t.col("fold", 6, |f| f.fold.to_string()),
        t.col("train", 8, |f| f.train_samples.to_string()),
        t.col("test", 8, |f| f.test_samples.to_string()),
        t.col("mean rel err", 14, |f| {
            format!("{:.3}", f.mean_relative_error)
        }),
        t.col("med q-err", 12, |f| format!("{:.2}", f.median_q_error)),
    ]);
}

fn ablations() {
    header(
        "Ablations: design-choice sweeps",
        "gamma / rollouts / prune pass / estimator / template capacity (DESIGN.md §6)",
    );
    let print_rows = |title: &str, rows: &[ex::AblationRow]| {
        println!("-- {title}");
        let t = Table(rows);
        t.print(&[
            t.col("setting", 24, |r| r.setting.clone()).left(),
            t.col("est improv", 12, |r| pct(r.improvement * 100.0)),
            t.col("measured ms", 16, |r| {
                format!("{:.1}", r.measured_latency_ms)
            }),
            t.col("aux", 8, |r| r.aux.to_string()),
        ]);
    };
    print_rows(
        "MCTS exploration gamma",
        &ex::ablation_gamma(ex::TPCC_TXNS / 2),
    );
    print_rows("rollout count K", &ex::ablation_rollouts(ex::TPCC_TXNS / 2));
    print_rows(
        "prune pass (banking removal; aux = indexes kept)",
        &ex::ablation_prune(20_000),
    );
    print_rows(
        "estimator learned vs native (aux = index count)",
        &ex::ablation_estimator(ex::TPCC_TXNS / 2),
    );
    print_rows(
        "template capacity (aux = templates)",
        &ex::ablation_template_capacity(ex::TPCC_TXNS / 2),
    );
}
