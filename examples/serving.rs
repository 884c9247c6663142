//! The concurrent serving pipeline end to end: sharded executor threads
//! drain the banking hybrid stream against epoch-versioned snapshots
//! while the calling thread merges their observations, diagnoses the
//! over-indexed catalog and swaps configurations at epoch boundaries
//! (`docs/SERVING.md`).
//!
//! The run is repeated at 1, 2 and 4 workers; the transcripts are compared byte for byte — the pipeline's determinism
//! contract means adding workers changes *who computes*, never *what is
//! decided*.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use autoindex::core::serve;
use autoindex::prelude::*;
use autoindex::workloads::banking::{self, BankingGenerator};

fn fresh_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    // Start from the DBA's over-indexed configuration (the Figure 1
    // scenario): plenty of rarely-used indexes for diagnosis to find.
    for d in banking::dba_indexes().into_iter().take(40) {
        let _ = db.create_index(d);
    }
    db
}

fn main() {
    let mut generator = BankingGenerator::new(3);
    let queries: Vec<String> = generator
        .generate_hybrid(3_000, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    println!(
        "serving {} banking statements (hybrid withdrawal/summarization)",
        queries.len()
    );

    let initial_indexes = fresh_db().index_count();
    let mut transcripts: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(750)
            .guard(GuardConfig::default())
            .build()
            .expect("static serve config");
        let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
        let outcome =
            serve::serve(fresh_db(), advisor, &queries, config).expect("serve run failed");
        let r = &outcome.report;

        println!("\n=== {workers} worker(s) ===");
        println!(
            "executed {} | parse failures {} | tuning rounds {} | epochs {}",
            r.executed,
            r.parse_failures,
            r.tuning_rounds,
            r.epochs.len()
        );
        println!(
            "simulated makespan {:.0} ms -> {:.0} simulated qps ({:.0} ms wall on this host)",
            r.makespan_ms(),
            r.simulated_qps(),
            r.wall.as_secs_f64() * 1000.0
        );
        println!(
            "fast path: {} bound, {} parsed; {} plans prepared for them",
            r.fastpath_hits, r.fastpath_misses, r.plans_prepared
        );
        // Every epoch's diagnosis, decision and configuration fingerprint.
        let transcript = r.transcript();
        for line in transcript.lines().filter(|l| l.starts_with("epoch ")) {
            println!("  {line}");
        }
        println!(
            "final catalog: {} indexes (started with {})",
            outcome.db.index_count(),
            initial_indexes
        );
        transcripts.push((workers, transcript));
    }

    println!("\n=== determinism contract ===");
    let (_, baseline) = &transcripts[0];
    for (workers, t) in &transcripts[1..] {
        println!(
            "1 worker vs {workers} workers: transcripts {}",
            if t == baseline {
                "byte-identical"
            } else {
                "DIFFER (bug!)"
            }
        );
        assert_eq!(t, baseline);
    }
    println!("same diagnoses, same decisions, same fingerprints — at any worker count.");
}
