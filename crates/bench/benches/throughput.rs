//! Serving throughput: the concurrent pipeline's worker sweep plus the
//! query front-end comparison. Records the `serve_sweep` and `frontend`
//! results (`autoindex_bench::record`: written under `target/bench/`,
//! compared with `crates/bench/baselines/`; protocol: `docs/SERVING.md`
//! §"Throughput bench" and `docs/PERFORMANCE.md` §"The zero-allocation
//! query hot path").
//!
//! The banking hybrid stream (fixed seed) is served at 1, 2, 4 and 8
//! executor workers. The reported metric is
//! **simulated qps** — executed statements per second of simulated fleet
//! makespan (`ServeReport::simulated_qps`), i.e. the time the executor
//! fleet would take if each worker really slept its statements' simulated
//! latencies, under the canonical deterministic shard → slot (LPT)
//! schedule. This lives in the simulation's time domain, like every other
//! number in this repo (`WorkloadMeasurement::throughput` uses the same
//! convention), and is therefore *host independent and byte-stable*: CI
//! machines with one core produce the same sweep as a 32-core
//! workstation, run after run.
//!
//! Regression gates (the run aborts otherwise):
//!
//! 1. every worker count accounts for the full stream,
//! 2. every transcript is byte-identical to the 1-worker transcript
//!    (determinism contract),
//! 3. 4 workers reach >= 2x the 1-worker simulated qps,
//! 4. both recorded documents equal their committed baselines outside the
//!    wall-clock members.
//!
//! The `frontend` result carries:
//!
//! * the same execution-domain sweep rows (they must stay byte-identical
//!   to the `serve_sweep` rows — the fast path may not change *what*
//!   executes),
//! * a measured **front-end** comparison: wall-clock qps of the full
//!   per-statement front end (`parse_statement` + `QueryShape::extract`)
//!   vs the compiled-template fast path (`scan_fingerprint`, cache
//!   lookup, `bind` into a reused skeleton clone) at steady state. Reported,
//!   not gated: the ratio's denominator is the miss path, which is meant
//!   to get faster, so a floor on it would be refitted by every change
//!   that does that. Gated here: every statement of the stream binds
//!   (`frontend_hits` / `frontend_misses`, exact). Gated elsewhere: the
//!   same loop makes no allocator call
//!   (`crates/core/tests/index_view_counts.rs`), and its wall cost is the
//!   `perf/` benchmark's to hold (docs/PERFORMANCE.md),
//! * a fastpath-off serve run whose transcript must be byte-identical to
//!   the fastpath-on sweep baseline (the execution-identity contract).

use autoindex_bench::record;
use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{serve, AutoIndex, AutoIndexConfig, FastPathCache, ServeConfig};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const STATEMENTS: usize = 4_000;
const EPOCH_INTERVAL: u64 = 1_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const REQUIRED_SPEEDUP_AT_4: f64 = 2.0;

fn fresh_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for d in banking::dba_indexes().into_iter().take(40) {
        let _ = db.create_index(d);
    }
    db
}

fn main() {
    let mut generator = BankingGenerator::new(17);
    let queries: Vec<String> = generator
        .generate_hybrid(STATEMENTS, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect();

    let mut rows: Vec<Json> = Vec::new();
    let mut at4 = 0.0;
    let mut baseline_transcript = String::new();
    let mut baseline_qps = 0.0;
    let mut baseline_hits = 0u64;
    let mut baseline_misses = 0u64;
    for &workers in &WORKER_SWEEP {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(EPOCH_INTERVAL)
            .build()
            .expect("static serve config");
        let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        let start = Instant::now();
        let out = serve(fresh_db(), advisor, &queries, cfg).expect("serve run");
        let wall_ms = start.elapsed().as_millis() as u64;
        let r = out.report;

        assert_eq!(
            r.executed + r.parse_failures,
            STATEMENTS as u64,
            "workers={workers}: stream not fully accounted"
        );
        let transcript = r.transcript();
        if workers == 1 {
            baseline_transcript = transcript.clone();
            baseline_qps = r.simulated_qps();
            baseline_hits = r.fastpath_hits;
            baseline_misses = r.fastpath_misses;
        }
        let deterministic_match = transcript == baseline_transcript;
        assert!(
            deterministic_match,
            "workers={workers}: transcript diverged from the 1-worker run"
        );
        assert_eq!(
            (r.fastpath_hits, r.fastpath_misses),
            (baseline_hits, baseline_misses),
            "workers={workers}: fast-path hit/miss tallies must be worker-count invariant"
        );

        let qps = r.simulated_qps();
        let speedup = if baseline_qps > 0.0 {
            qps / baseline_qps
        } else {
            0.0
        };
        eprintln!(
            "workers {workers}: executed {} | makespan {:.1} sim-ms | {:.0} sim-qps | {:.2}x | {} ms wall",
            r.executed,
            r.makespan_ms(),
            qps,
            speedup,
            wall_ms
        );
        if workers == 4 {
            at4 = speedup;
        }
        rows.push(obj([
            ("workers", Json::from(workers as u64)),
            ("executed", Json::from(r.executed)),
            ("parse_failures", Json::from(r.parse_failures)),
            ("tuning_rounds", Json::from(r.tuning_rounds)),
            ("epochs", Json::from(r.epochs.len() as u64)),
            ("total_sim_ms", Json::from(r.total_sim_latency_ms)),
            ("makespan_ms", Json::from(r.makespan_ms())),
            ("simulated_qps", Json::from(qps)),
            ("speedup_vs_1", Json::from(speedup)),
            ("deterministic_match", Json::from(deterministic_match)),
            ("wall_ms", Json::from(wall_ms)),
        ]));
    }

    assert!(
        at4 >= REQUIRED_SPEEDUP_AT_4,
        "4 workers reached only {at4:.2}x simulated throughput (need >= {REQUIRED_SPEEDUP_AT_4}x)"
    );

    let rows_json = Json::Array(rows);
    let doc = obj([
        ("bench", Json::from("throughput")),
        (
            "workload",
            Json::from(format!(
                "banking hybrid, {STATEMENTS} statements, deterministic serve, epoch {EPOCH_INTERVAL}"
            )),
        ),
        (
            "metric",
            Json::from(
                "simulated_qps = executed * 1000 / makespan_ms (simulated time domain; \
                 host independent — see docs/SERVING.md)",
            ),
        ),
        ("rows", rows_json.clone()),
        (
            "gate",
            obj([
                ("required_speedup_at_4", Json::from(REQUIRED_SPEEDUP_AT_4)),
                ("achieved_speedup_at_4", Json::from(at4)),
            ]),
        ),
    ]);
    record("serve_sweep", &doc);

    frontend(
        &queries,
        rows_json,
        &baseline_transcript,
        baseline_hits,
        baseline_misses,
    );
}

struct Frontend {
    statements: usize,
    templates: usize,
    compiled: usize,
    qps_off: f64,
    qps_on: f64,
    speedup: f64,
    hits: u64,
    misses: u64,
}

/// The headline front-end measurement: the statement front end in isolation,
/// steady state, on the same banking stream the sweep serves.
///
/// * `fastpath_off` — what every worker did before the fast path:
///   `parse_statement` (lexer + AST allocation) then `QueryShape::extract`
///   per statement.
/// * `fastpath_on` — the compiled-template path: `scan_fingerprint` into a
///   reused [`LiteralBuf`], template-cache lookup, `bind` a reused
///   skeleton clone. Statements that miss the cache or trip a bind guard
///   fall back to the full parse, exactly like the serving loop.
///
/// The cache is built the way the tuner builds it at an epoch boundary:
/// from a [`TemplateStore`] that has observed the whole stream.
fn frontend_microbench(queries: &[String]) -> Frontend {
    let catalog = banking::catalog();
    let mut store = TemplateStore::new(TemplateStoreConfig::default());
    for q in queries {
        let _ = store.observe(q, &catalog);
    }
    let cache = FastPathCache::build(store.entries(), &catalog);

    // --- fastpath off: the full-parse front end ------------------------
    let full = |q: &String| {
        if let Ok(stmt) = parse_statement(q) {
            black_box(QueryShape::extract(&stmt, &catalog));
        }
    };
    for q in queries.iter().take(256) {
        full(q); // warmup
    }
    const REPS_OFF: usize = 3;
    let t = Instant::now();
    for _ in 0..REPS_OFF {
        for q in queries {
            full(q);
        }
    }
    let qps_off = (queries.len() * REPS_OFF) as f64 / t.elapsed().as_secs_f64();

    // --- fastpath on: scan + lookup + bind into reused clones ----------
    let mut lits = LiteralBuf::new();
    let mut shapes: HashMap<u64, QueryShape> = HashMap::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let pass = |queries: &[String],
                lits: &mut LiteralBuf,
                shapes: &mut HashMap<u64, QueryShape>,
                hits: &mut u64,
                misses: &mut u64| {
        for q in queries {
            if let Some(h) = scan_fingerprint(q, lits) {
                if let Some(c) = cache.get(h) {
                    let shape = shapes.entry(h).or_insert_with(|| c.skeleton().clone());
                    if c.bind(lits, shape) {
                        *hits += 1;
                        black_box(&*shape);
                        continue;
                    }
                }
            }
            *misses += 1;
            full(q);
        }
    };
    // Warmup pass populates the per-template skeleton clones and grows the
    // literal buffer to its steady-state capacity.
    pass(queries, &mut lits, &mut shapes, &mut hits, &mut misses);
    (hits, misses) = (0, 0);
    const REPS_ON: usize = 30;
    let t = Instant::now();
    for _ in 0..REPS_ON {
        pass(queries, &mut lits, &mut shapes, &mut hits, &mut misses);
    }
    let qps_on = (queries.len() * REPS_ON) as f64 / t.elapsed().as_secs_f64();

    Frontend {
        statements: queries.len(),
        templates: store.len(),
        compiled: cache.len(),
        qps_off,
        qps_on,
        speedup: qps_on / qps_off,
        hits,
        misses,
    }
}

/// Front-end gates + the `frontend` result: execution rows unchanged,
/// fastpath-off transcript identical, the whole stream bound.
fn frontend(
    queries: &[String],
    rows_json: Json,
    baseline_transcript: &str,
    fastpath_hits: u64,
    fastpath_misses: u64,
) {
    // Execution-identity contract: turning the fast path *off* must not
    // change a byte of the transcript (the fast path only changes how the
    // front end reaches the same shape, never what executes).
    let cfg = ServeConfig::builder()
        .workers(1)
        .epoch_interval(EPOCH_INTERVAL)
        .fastpath(false)
        .build()
        .expect("static serve config");
    let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    let out = serve(fresh_db(), advisor, queries, cfg).expect("fastpath-off serve run");
    let off_identical = out.report.transcript() == baseline_transcript;
    assert!(
        off_identical,
        "fastpath-off transcript diverged from the fastpath-on baseline"
    );
    assert_eq!(out.report.fastpath_hits, 0, "fastpath-off run counted hits");
    assert!(
        fastpath_hits > 0,
        "fastpath-on sweep never hit the template cache"
    );

    let fe = frontend_microbench(queries);
    eprintln!(
        "frontend: off {:.0} qps | on {:.0} qps | {:.1}x | {} templates ({} compiled) | {} hits / {} misses",
        fe.qps_off, fe.qps_on, fe.speedup, fe.templates, fe.compiled, fe.hits, fe.misses
    );
    assert!(
        fe.hits > 0,
        "front-end microbench never hit the template cache"
    );

    let doc = obj([
        ("bench", Json::from("frontend")),
        (
            "workload",
            Json::from(format!(
                "banking hybrid, {STATEMENTS} statements, deterministic serve, epoch {EPOCH_INTERVAL}"
            )),
        ),
        (
            "metric",
            Json::from(
                "execution rows: simulated time domain (must match the PR 5 baseline); \
                 frontend: wall-clock qps of parse+extract vs scan+bind on this host, \
                 reported; hits and misses are exact (docs/PERFORMANCE.md)",
            ),
        ),
        ("rows", rows_json),
        (
            "serve_fastpath",
            obj([
                ("hits", Json::from(fastpath_hits)),
                ("misses", Json::from(fastpath_misses)),
                ("off_transcript_identical", Json::from(off_identical)),
            ]),
        ),
        (
            "frontend",
            obj([
                ("statements", Json::from(fe.statements as u64)),
                ("templates", Json::from(fe.templates as u64)),
                ("compiled_templates", Json::from(fe.compiled as u64)),
                ("qps_fastpath_off", Json::from(fe.qps_off)),
                ("qps_fastpath_on", Json::from(fe.qps_on)),
                ("frontend_speedup", Json::from(fe.speedup)),
                ("frontend_hits", Json::from(fe.hits)),
                ("frontend_misses", Json::from(fe.misses)),
            ]),
        ),
    ]);
    record("frontend", &doc);
}
