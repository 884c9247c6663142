//! Serving throughput: the concurrent pipeline's worker sweep plus the
//! query front end's two identity checks. Records the `serve_sweep` result
//! (`autoindex_bench::record`: written under `target/bench/`, compared
//! whole with `crates/bench/baselines/`; protocol: `docs/SERVING.md`
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
//! 4. a fastpath-off serve run's transcript is byte-identical to the
//!    fastpath-on sweep's (the fast path changes how the front end reaches
//!    a shape, never what executes),
//! 5. one pass of the compiled-template front end (`scan_fingerprint`,
//!    cache lookup, `bind` into a skeleton clone) binds every statement of
//!    the stream,
//! 6. the recorded document equals its committed baseline as a whole.
//!
//! Nothing here reads a clock. The front end's wall cost is the `perf/`
//! benchmark's per-layer budget (`sql.scan_fingerprint.ns`,
//! `fastpath.lookup.ns`, `fastpath.bind.ns` against `sql.parse.ns` +
//! `shape.extract.ns`; docs/PERFORMANCE.md), and the same loop making no
//! allocator call is `crates/core/tests/index_view_counts.rs`'s.

use autoindex_bench::record;
use autoindex_core::templates::{TemplateStore, TemplateStoreConfig};
use autoindex_core::{serve, AutoIndex, AutoIndexConfig, FastPathCache, ServeConfig};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};

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
        let out = serve(fresh_db(), advisor, &queries, cfg).expect("serve run");
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
            "workers {workers}: executed {} | makespan {:.1} sim-ms | {:.0} sim-qps | {:.2}x",
            r.executed,
            r.makespan_ms(),
            qps,
            speedup,
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
        ]));
    }

    assert!(
        at4 >= REQUIRED_SPEEDUP_AT_4,
        "4 workers reached only {at4:.2}x simulated throughput (need >= {REQUIRED_SPEEDUP_AT_4}x)"
    );
    assert!(
        baseline_hits > 0,
        "fastpath-on sweep never hit the template cache"
    );

    // Execution-identity contract: turning the fast path *off* must not
    // change a byte of the transcript.
    let cfg = ServeConfig::builder()
        .workers(1)
        .epoch_interval(EPOCH_INTERVAL)
        .fastpath(false)
        .build()
        .expect("static serve config");
    let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    let out = serve(fresh_db(), advisor, &queries, cfg).expect("fastpath-off serve run");
    let off_identical = out.report.transcript() == baseline_transcript;
    assert!(
        off_identical,
        "fastpath-off transcript diverged from the fastpath-on baseline"
    );
    assert_eq!(out.report.fastpath_hits, 0, "fastpath-off run counted hits");

    let fe = frontend_pass(&queries);
    eprintln!(
        "frontend: {} templates ({} compiled) | {} hits / {} misses",
        fe.templates, fe.compiled, fe.hits, fe.misses
    );
    assert_eq!(
        (fe.hits, fe.misses),
        (STATEMENTS as u64, 0),
        "the compiled-template front end must bind every statement of the stream"
    );

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
                 host independent — see docs/SERVING.md); serve_fastpath and frontend: \
                 exact counts of one pass (docs/PERFORMANCE.md)",
            ),
        ),
        ("rows", Json::Array(rows)),
        (
            "gate",
            obj([
                ("required_speedup_at_4", Json::from(REQUIRED_SPEEDUP_AT_4)),
                ("achieved_speedup_at_4", Json::from(at4)),
            ]),
        ),
        (
            "serve_fastpath",
            obj([
                ("hits", Json::from(baseline_hits)),
                ("misses", Json::from(baseline_misses)),
                ("off_transcript_identical", Json::from(off_identical)),
            ]),
        ),
        (
            "frontend",
            obj([
                ("statements", Json::from(fe.statements as u64)),
                ("templates", Json::from(fe.templates as u64)),
                ("compiled_templates", Json::from(fe.compiled as u64)),
                ("frontend_hits", Json::from(fe.hits)),
                ("frontend_misses", Json::from(fe.misses)),
            ]),
        ),
    ]);
    record("serve_sweep", &doc);
}

struct Frontend {
    statements: usize,
    templates: usize,
    compiled: usize,
    hits: u64,
    misses: u64,
}

/// One pass of the compiled-template front end over the stream the sweep
/// serves: `scan_fingerprint` into a reused [`LiteralBuf`], template-cache
/// lookup, `bind` into a clone of the template's skeleton. A statement
/// that misses the cache or trips a bind guard counts as a miss, where the
/// serving loop would fall back to the full parse.
///
/// The cache is built the way the tuner builds it at an epoch boundary:
/// from a [`TemplateStore`] that has observed the whole stream.
fn frontend_pass(queries: &[String]) -> Frontend {
    let catalog = banking::catalog();
    let mut store = TemplateStore::new(TemplateStoreConfig::default());
    for q in queries {
        let _ = store.observe(q, &catalog);
    }
    let cache = FastPathCache::build(store.entries(), &catalog);

    let mut lits = LiteralBuf::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for q in queries {
        let bound = scan_fingerprint(q, &mut lits)
            .and_then(|h| cache.get(h))
            .is_some_and(|c| c.bind(&lits, &mut c.skeleton().clone()));
        if bound {
            hits += 1;
        } else {
            misses += 1;
        }
    }

    Frontend {
        statements: queries.len(),
        templates: store.len(),
        compiled: cache.len(),
        hits,
        misses,
    }
}
