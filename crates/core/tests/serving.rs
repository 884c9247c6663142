//! End-to-end tests for the concurrent serving pipeline (`docs/SERVING.md`):
//!
//! 1. **Permutation invariance** (property) — merging worker observations
//!    on the logical clock erases arrival order: any shuffle of a batch,
//!    run through [`logical_merge`] and absorbed into a [`UsageTracker`],
//!    yields byte-identical counters to the sequential order. This is the
//!    algebraic core of the determinism contract.
//! 2. **Worker-count invariance** (integration) — the same banking stream
//!    served deterministically with 1, 2 and 4 workers produces identical
//!    transcripts: same diagnosis firings, same tuning decisions, same
//!    `ConfigSet` fingerprints, same simulated latencies.
//! 3. **Crash safety** — injected worker panics are caught at the
//!    statement fence: the epoch lock is never poisoned, the tuner keeps
//!    publishing epochs, every sequence slot stays accounted, the
//!    `serve.worker_panics` counter is truthful, and the surviving
//!    transcript is *still* worker-count invariant.

use autoindex_core::{
    logical_merge, serve, AutoIndex, AutoIndexConfig, Observation, ObservationPayload, ServeConfig,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint::fingerprint;
use autoindex_storage::{IndexId, SimDb, SimDbConfig, UsageDelta, UsageTracker};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert_eq;
use autoindex_support::rng::StdRng;
use autoindex_workloads::banking::{self, BankingGenerator};
use std::collections::{HashMap, HashSet};

// ------------------------------------------------------------ fixtures

fn banking_queries(n: usize, seed: u64) -> Vec<String> {
    let mut generator = BankingGenerator::new(seed);
    generator
        .generate_hybrid(n, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect()
}

fn banking_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    // Start from the DBA's over-indexed configuration so the tuner has
    // something real to diagnose (rarely-used / negative indexes).
    for d in banking::dba_indexes().into_iter().take(40) {
        let _ = db.create_index(d);
    }
    db
}

fn advisor() -> AutoIndex<NativeCostEstimator> {
    AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
}

fn distinct_templates(queries: &[String]) -> u64 {
    let texts = queries.iter().map(|q| fingerprint(q).unwrap().text);
    texts.collect::<HashSet<_>>().len() as u64
}

// ------------------------------------------- 1. permutation invariance

/// Generate a random batch of observations with distinct `seq` stamps and
/// random usage deltas, in sequential order.
fn gen_batch(rng: &mut StdRng, size: usize) -> Vec<Observation> {
    let n = rng.random_range(1usize..(2 + size.min(60)));
    (0..n as u64)
        .map(|seq| {
            let payload = match rng.random_range(0u32..10) {
                0 => ObservationPayload::ParseFailed,
                1 => ObservationPayload::Panicked,
                _ => {
                    let saving = rng.random_range(0.0..50.0);
                    let scans = (0..rng.random_range(0usize..3))
                        .map(|_| IndexId(rng.random_range(0u32..6)))
                        .collect();
                    let maintenance = (0..rng.random_range(0usize..2))
                        .map(|_| {
                            let io = rng.random_range(0.0..20.0);
                            let cost = autoindex_storage::MaintenanceCost { io, cpu: 0.0 };
                            (IndexId(rng.random_range(0u32..6)), cost)
                        })
                        .collect();
                    ObservationPayload::Executed {
                        outcome: autoindex_storage::ExecOutcome {
                            latency_ms: rng.random_range(0.01..5.0),
                            features: autoindex_storage::CostFeatures::default(),
                            indexes_used: Default::default(),
                        },
                        delta: UsageDelta {
                            saving,
                            scans,
                            maintenance,
                            growth: None,
                        },
                        fp: None,
                    }
                }
            };
            Observation {
                seq,
                epoch: 0,
                payload,
            }
        })
        .collect()
}

/// Absorb a batch (assumed seq-ordered) into a fresh tracker and render
/// the counters canonically.
fn absorb(batch: &[Observation]) -> String {
    let mut t = UsageTracker::new();
    for o in batch {
        if let ObservationPayload::Executed { delta, .. } = &o.payload {
            t.apply_delta(delta);
        }
    }
    let mut rows: Vec<String> = t
        .iter()
        .map(|(id, u)| {
            format!(
                "{}:{}:{}:{:.9}:{:.9}",
                id.0, u.scans, u.maintenance_events, u.benefit, u.maintenance_cost
            )
        })
        .collect();
    rows.sort();
    format!("stmts={} {}", t.statements, rows.join(" "))
}

#[test]
fn merge_is_permutation_invariant() {
    property(
        "serve.merge_permutation_invariant",
        PropConfig::default().cases(128),
        |rng, size| {
            let sequential = gen_batch(rng, size);
            let baseline = absorb(&sequential);

            // Random shuffle (Fisher–Yates) — an arbitrary arrival order
            // N racing workers could have produced.
            let mut shuffled = sequential.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.random_range(0usize..(i + 1));
                shuffled.swap(i, j);
            }
            logical_merge(&mut shuffled);

            let merged_seqs: Vec<u64> = shuffled.iter().map(|o| o.seq).collect();
            let expected_seqs: Vec<u64> = sequential.iter().map(|o| o.seq).collect();
            prop_assert_eq!(merged_seqs, expected_seqs);
            prop_assert_eq!(absorb(&shuffled), baseline.clone());

            // Reversal is the adversarial permutation (maximally out of
            // order); it must merge back too.
            let mut reversed: Vec<Observation> = sequential.iter().rev().cloned().collect();
            logical_merge(&mut reversed);
            prop_assert_eq!(absorb(&reversed), baseline);
            Ok(())
        },
    );
}

// ------------------------------------------- 2. worker-count invariance

#[test]
fn deterministic_serve_is_worker_count_invariant_on_banking() {
    let queries = banking_queries(1_500, 11);
    let run = |workers: usize| {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(500)
            .build()
            .unwrap();
        let out = serve(banking_db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed + out.report.parse_failures, 1_500);
        assert_eq!(out.report.epochs.len(), 3);
        out.report.transcript()
    };
    let t1 = run(1);
    let t2 = run(2);
    let t4 = run(4);
    assert_eq!(t1, t2, "1-worker vs 2-worker transcripts differ");
    assert_eq!(t1, t4, "1-worker vs 4-worker transcripts differ");
    // The transcript is not vacuous: it must contain every epoch line and
    // a final fingerprint.
    assert!(t1.contains("epoch 0:") && t1.contains("epoch 2:") && t1.contains("final: indexes="));
}

#[test]
fn deterministic_serve_with_guard_is_worker_count_invariant() {
    use autoindex_core::GuardConfig;
    let queries = banking_queries(1_000, 23);
    let run = |workers: usize| {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(250)
            .guard(GuardConfig::default())
            .build()
            .unwrap();
        let out = serve(banking_db(), advisor(), &queries, cfg).unwrap();
        // A round applies atomically and measures nothing after: it keeps
        // no guard lifecycle, so it arms no probation and schedules no
        // cooldown.
        let m = out.db.metrics();
        assert!(
            m.counter_value("guard.applies") >= 1,
            "no guarded apply ran"
        );
        for lifecycle in [
            "guard.probations",
            "guard.cooldowns",
            "guard.observe_only_entries",
        ] {
            assert_eq!(m.counter_value(lifecycle), 0, "{lifecycle}");
        }
        out.report.transcript()
    };
    assert_eq!(run(1), run(4), "guarded transcripts differ across workers");
}

/// Regression property (PR7 satellite): the **final partial epoch**. The
/// tuner's epoch ranges end with `end.min(n)`; when the stream length is
/// not a multiple of `epoch_interval`, the last epoch is short. That
/// remainder epoch must carry exactly `n % interval` statements, every
/// statement must be accounted, and the transcript must stay byte-equal
/// between 1 and 4 workers — the barrier logic around a ragged tail is
/// precisely where a worker-count-dependent off-by-one would hide.
#[test]
fn final_partial_epoch_is_exact_and_worker_count_invariant() {
    property(
        "serve.final_partial_epoch",
        PropConfig::default().cases(6),
        |rng, _size| {
            let interval = rng.random_range(40u64..120);
            // Force a non-empty remainder: n = k*interval + r, 0 < r < interval.
            let full_epochs = rng.random_range(1u64..4);
            let remainder = rng.random_range(1u64..interval);
            let n = full_epochs * interval + remainder;
            let queries = banking_queries(n as usize, rng.next_u64());

            let run = |workers: usize| {
                let cfg = ServeConfig::builder()
                    .workers(workers)
                    .epoch_interval(interval)
                    .build()
                    .unwrap();
                serve(banking_db(), advisor(), &queries, cfg).unwrap()
            };
            let one = run(1);
            let four = run(4);

            prop_assert_eq!(one.report.epochs.len() as u64, full_epochs + 1);
            let last = one.report.epochs.last().unwrap();
            prop_assert_eq!(last.statements, remainder);
            for e in &one.report.epochs[..full_epochs as usize] {
                prop_assert_eq!(e.statements, interval);
            }
            let accounted: u64 = one.report.epochs.iter().map(|e| e.statements).sum();
            prop_assert_eq!(accounted, n);
            prop_assert_eq!(one.report.transcript(), four.report.transcript());
            Ok(())
        },
    );
}

// ----------------------------------------------------- 3. crash safety

#[test]
fn worker_panics_never_poison_the_pipeline() {
    let queries = banking_queries(1_200, 5);
    let panic_seqs = vec![17, 433, 801, 1_102];
    let run = |workers: usize| {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(300)
            .max_worker_panics(0) // first caught panic retires the worker
            .panic_on(panic_seqs.clone())
            .build()
            .unwrap();
        serve(banking_db(), advisor(), &queries, cfg).unwrap()
    };

    let out = run(4);
    // Every injected panic was caught and accounted; no slot was lost.
    assert_eq!(out.report.panics, panic_seqs.len() as u64);
    assert_eq!(
        out.report.executed + out.report.parse_failures + out.report.panics,
        1_200
    );
    // The tuner survived: all four epoch boundaries were published even
    // though executors kept dying (the epoch lock was never poisoned).
    assert_eq!(out.report.epochs.len(), 4);
    let accounted: u64 = out.report.epochs.iter().map(|e| e.statements).sum();
    assert_eq!(accounted, 1_200);
    // Telemetry is truthful and the database stays usable afterwards.
    assert_eq!(
        out.db.metrics().counter_value("serve.worker_panics"),
        panic_seqs.len() as u64
    );
    assert!(out.report.workers_retired >= 1);
    assert!(
        out.db.metrics().counter_value("serve.workers_retired") >= 1,
        "retirements must be counted"
    );
    let mut db = out.db;
    let q =
        autoindex_sql::parse_statement("SELECT balance FROM account WHERE acct_id = 7").unwrap();
    let after = db.execute(&q);
    assert!(after.latency_ms >= 0.0);

    // Graceful degradation is still deterministic: the panic set is keyed
    // on `seq`, so 1 and 4 workers agree on the surviving transcript.
    assert_eq!(
        out.report.transcript(),
        run(1).report.transcript(),
        "panic-surviving transcript differs across worker counts"
    );
}

/// Regression (PR8 satellite): a worker retiring **mid-epoch** must never
/// deadlock publication. The epoch barrier counts retired workers out of
/// the quorum with bounded-wait slices; the hazard is a worker that dies
/// between contributing some of an epoch's observations and reaching the
/// barrier — if the barrier still waited for it (or a spurious wakeup
/// re-armed the wait with a stale quorum), the tuner would hang forever
/// at that epoch boundary. Kill every worker inside the *same* epoch and
/// demand the run still completes, fully accounted, with the surviving
/// transcript worker-count invariant.
#[test]
fn mid_epoch_retirement_never_deadlocks() {
    let queries = banking_queries(900, 61);
    // All panic seqs land inside epoch 1 (300..600) with a 300-interval:
    // with a zero panic budget and 3 workers, all three executors retire
    // in the middle of the same epoch, leaving the tuner alone to drain
    // the remainder and publish the boundary.
    let panic_seqs = vec![310, 345, 402];
    let run = |workers: usize| {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(300)
            .max_worker_panics(0)
            .panic_on(panic_seqs.clone())
            .build()
            .unwrap();
        serve(banking_db(), advisor(), &queries, cfg).unwrap()
    };
    let out = run(3);
    assert_eq!(out.report.panics, 3);
    assert_eq!(out.report.workers_retired, 3, "every executor retired");
    assert_eq!(
        out.report.executed + out.report.parse_failures + out.report.panics,
        900,
        "no sequence slot lost to the mid-epoch retirements"
    );
    // All three epoch boundaries were published — nothing deadlocked.
    assert_eq!(out.report.epochs.len(), 3);
    let accounted: u64 = out.report.epochs.iter().map(|e| e.statements).sum();
    assert_eq!(accounted, 900);
    assert_eq!(
        out.report.transcript(),
        run(1).report.transcript(),
        "mid-epoch retirement transcript differs across worker counts"
    );
}

#[test]
fn panic_budget_keeps_workers_alive() {
    let queries = banking_queries(600, 31);
    let cfg = ServeConfig::builder()
        .workers(2)
        .epoch_interval(200)
        .max_worker_panics(8) // generous budget: nobody retires
        .panic_on(vec![10, 20, 30])
        .build()
        .unwrap();
    let out = serve(banking_db(), advisor(), &queries, cfg).unwrap();
    assert_eq!(out.report.panics, 3);
    assert_eq!(out.report.workers_retired, 0);
    assert_eq!(
        out.report.executed + out.report.parse_failures + out.report.panics,
        600
    );
}

// ------------------------------------- 4. fast-path semantic neutrality

/// The compiled-template fast path is an *optimisation*, not a semantic
/// change: with it on or off, the transcript (every epoch's diagnosis,
/// decision and `ConfigSet` fingerprint), the tuner's template-level
/// workload view and the final index set must be byte-identical. A
/// template the epoch's publication has not compiled — here every template
/// of the first epoch — is compiled at its third statement under it and
/// shared with every worker, so over this stream, whose templates all
/// compile and whose literals trip no bind guard, only each template's
/// first two statements miss. How many of a template's statements under a
/// publication bind does not depend on which worker ran which, so the hit
/// count, like the plans prepared, is invariant under worker count.
#[test]
fn fastpath_on_and_off_are_byte_identical() {
    let queries = banking_queries(1_200, 7);
    let run = |fastpath: bool, workers: usize| {
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(300)
            .fastpath(fastpath)
            .build()
            .unwrap();
        serve(banking_db(), advisor(), &queries, cfg).unwrap()
    };
    let on = run(true, 1);
    let off = run(false, 1);

    assert_eq!(
        on.report.transcript(),
        off.report.transcript(),
        "fast path must not change a single transcript byte"
    );
    assert_eq!(
        on.advisor.workload(),
        off.advisor.workload(),
        "template-level workload view must match"
    );
    let index_keys = |db: &SimDb| {
        let mut keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
        keys.sort();
        keys
    };
    assert_eq!(index_keys(&on.db), index_keys(&off.db), "final index sets");

    // The fast path served every statement but each template's first two.
    let templates = distinct_templates(&queries);
    assert_eq!(
        on.report.fastpath_misses,
        2 * templates,
        "{templates} templates"
    );
    assert_eq!(
        on.report.fastpath_hits + on.report.fastpath_misses,
        on.report.executed
    );
    assert_eq!(off.report.fastpath_hits, 0);

    // Hit counts, plans prepared and transcripts are worker-count invariant.
    let on4 = run(true, 4);
    assert_eq!(on4.report.fastpath_hits, on.report.fastpath_hits);
    assert_eq!(on4.report.fastpath_misses, on.report.fastpath_misses);
    assert_eq!(on4.report.plans_prepared, on.report.plans_prepared);
    assert_eq!(on4.report.transcript(), on.report.transcript());
}

/// Ad hoc traffic, whose templates mostly occur once or twice an epoch, is
/// served as the parse path serves it: a publication compiles late only
/// the templates with at least three statements under it, so the late
/// entries made are at most the (epoch, template) pairs with three
/// statements or more — a small share of the pairs seen — and a template no
/// earlier epoch saw has its first two statements of the epoch parsed. The
/// transcript is the fast-path-off run's, and hits, misses and late entries
/// are the same at 1 and 3 workers.
#[test]
fn ad_hoc_templates_seen_once_or_twice_are_not_compiled_late() {
    const EPOCH: usize = 500;
    let queries = BankingGenerator::new(11).generate_adhoc(&banking::catalog(), 4 * EPOCH);
    let run = |fastpath: bool, workers: usize| {
        let registry = MetricsRegistry::new();
        let db = SimDb::with_metrics(banking::catalog(), SimDbConfig::default(), registry.clone());
        let cfg = ServeConfig::builder()
            .workers(workers)
            .epoch_interval(EPOCH as u64)
            .fastpath(fastpath)
            .build()
            .unwrap();
        let report = serve(db, advisor(), &queries, cfg).unwrap().report;
        (report, registry.counter_value("sql.fastpath.late"))
    };
    let (one, late) = run(true, 1);
    let (three, late_three) = run(true, 3);
    let (off, _) = run(false, 1);

    // Per (epoch, template) pair its statements; pairs of a template no
    // earlier epoch saw parse their first two.
    let (mut pairs, mut repeated, mut parsed) = (0, 0, 0);
    let mut earlier = HashSet::new();
    for epoch in queries.chunks(EPOCH) {
        let mut statements = HashMap::new();
        for q in epoch {
            *statements
                .entry(fingerprint(q).unwrap().text)
                .or_insert(0u64) += 1;
        }
        pairs += statements.len() as u64;
        repeated += statements.values().filter(|&&n| n >= 3).count() as u64;
        for (text, n) in statements {
            if !earlier.contains(&text) {
                parsed += n.min(2);
            }
            earlier.insert(text);
        }
    }
    assert!(
        4 * repeated < pairs,
        "{repeated} of {pairs} pairs repeat: not ad hoc"
    );
    assert!(
        late <= repeated,
        "{late} late entries, {repeated} pairs with 3+ statements"
    );
    assert!(
        one.fastpath_misses >= parsed,
        "{} misses, {parsed} first and second statements of new templates",
        one.fastpath_misses
    );
    assert_eq!(
        (three.fastpath_hits, three.fastpath_misses, late_three),
        (one.fastpath_hits, one.fastpath_misses, late)
    );
    assert_eq!(one.transcript(), three.transcript());
    assert_eq!(one.transcript(), off.transcript());
}

/// A publication takes every plan of the one before it whose tables and
/// indexes held. On a read-only stream no table grows, so a template's
/// plan is prepared under the first publication it binds under and again
/// only after a boundary that changed the index set: at most templates ×
/// (1 + such boundaries) plans over the run, where preparing every
/// template each publication ran it would be templates × publications.
/// Every template is observed once before the run, so the first
/// publication compiles them all and none is compiled late.
#[test]
fn a_read_only_run_prepares_a_plan_again_only_after_an_index_changed() {
    let queries: Vec<String> = BankingGenerator::new(17)
        .generate_hybrid(4_000, 0.0)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let templates = distinct_templates(&queries);
    let run = |fastpath: bool| {
        let db = banking_db();
        let mut advisor = advisor();
        let mut seen = HashSet::new();
        for q in &queries {
            if seen.insert(fingerprint(q).unwrap().text) {
                advisor.observe(q, &db).unwrap();
            }
        }
        let cfg = ServeConfig::builder()
            .workers(2)
            .epoch_interval(250)
            .fastpath(fastpath)
            .build()
            .unwrap();
        serve(db, advisor, &queries, cfg).unwrap()
    };
    let out = run(true);
    let (report, registry) = (&out.report, out.db.metrics());
    // What planning every statement from scratch prices: no stale plan
    // was carried.
    assert_eq!(report.transcript(), run(false).report.transcript());
    let initial = banking_db();
    for table in initial.catalog().tables() {
        let rows = out.db.catalog().table(&table.name).unwrap().rows;
        assert_eq!(rows, table.rows, "{} grew", table.name);
    }
    assert_eq!(registry.counter_value("sql.fastpath.late"), 0);

    // Boundaries whose configuration differs from the one before.
    let mut fp = format!("{:016x}", initial.index_fingerprint());
    let mut changed = 0u64;
    for line in report
        .transcript()
        .lines()
        .filter(|l| l.starts_with("epoch "))
    {
        let at = line
            .find(" fp=")
            .expect("an epoch line prints its fingerprint")
            + 4;
        let next = &line[at..at + 16];
        changed += u64::from(next != fp);
        fp = next.to_string();
    }
    // One publication per epoch ran statements.
    let epochs = report.epochs.len() as u64;
    assert!(
        1 + changed < epochs,
        "{changed} of {epochs} boundaries changed an index: the bound shows nothing"
    );
    assert!(report.plans_prepared > 0);
    assert!(
        report.plans_prepared <= templates * (1 + changed),
        "{} plans prepared for {templates} templates, {changed} index changes, {epochs} epochs",
        report.plans_prepared
    );
    // Every template runs every epoch: each slot of a publication that ran
    // statements was carried or prepared.
    let carried = registry.counter_value("planner.carried");
    assert!(report.plans_prepared + carried >= templates * epochs);
}
