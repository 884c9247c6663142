//! Golden digest of the online loop: what `OnlineAutoIndex::feed` says of
//! every statement, over a fixed grid of configurations.
//!
//! `live_frontend.rs` holds `feed` to its own parse-path composition, so a
//! change to the execution core both sides share passes it. This test pins
//! what `feed` returns: per statement the outcome's `latency_ms` and cost
//! feature bits, `indexes_used`, the event's variant and the error, folded
//! with the final index set into one FNV-1a digest.
//!
//! The grid is diagnosis cadence × cooldown × guard on / off × fault plan
//! (quiet; execution transients and latency spikes; build failures), one
//! stream each: bound `SELECT`s over two tables with `INSERT`s into both,
//! updates, text that does not parse, ad-hoc templates, then an
//! insert-heavy phase in which a rarely-run read gets its index and the
//! guard's probation measures the writes paying for it.

use autoindex_core::{
    AutoIndex, AutoIndexConfig, DiagnosisConfig, GuardConfig, MctsConfig, OnlineAutoIndex,
    OnlineConfig, OnlineEvent,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::index::IndexDef;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a, fnv1a_from};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::StdRng;

const GOLDEN: u64 = 0x8979_c442_24bb_998b;

fn database(faults: Option<FaultPlanConfig>) -> SimDb {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", 600_000)
            .column(Column::int("id", 600_000))
            .column(Column::int("a", 300_000))
            .column(Column::int("b", 3_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("u", 200_000)
            .column(Column::int("id", 200_000))
            .column(Column::int("k", 20_000))
            .column(Column::int("v", 100_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    let mut db = SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new());
    db.create_index(IndexDef::new("t", &["id"])).unwrap();
    db.create_index(IndexDef::new("u", &["id"])).unwrap();
    db.set_fault_plan(faults.map(FaultPlan::new));
    db
}

/// The stream every cell is fed: a read-mostly phase, then writes.
fn stream() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(30);
    let mut out = Vec::new();
    for i in 0..700u64 {
        let x = rng.random_range(0u64..100_000);
        out.push(match rng.random_range(0u32..40) {
            0..=17 => format!("SELECT * FROM t WHERE a = {x}"),
            18..=21 => format!("SELECT v FROM u WHERE k = {}", x % 20_000),
            22..=24 => format!(
                "INSERT INTO t (id, a, b) VALUES ({}, {x}, {})",
                600_000 + i,
                x % 7
            ),
            25 | 26 => format!(
                "INSERT INTO u (id, k, v) VALUES ({}, {x}, {x})",
                200_000 + i
            ),
            27 | 28 => format!("SELECT * FROM t WHERE b = {} ORDER BY a LIMIT 5", x % 3_000),
            29 | 30 => format!("UPDATE t SET b = {} WHERE id = {x}", x % 11),
            31 => {
                ["THIS IS NOT SQL", "SELECT * FROM t WHERE a = 'open"][(x % 2) as usize].to_string()
            }
            32 => format!("SELECT * FROM t WHERE a = {x} OR b = {}", x % 5),
            _ => {
                let cols = ["id", "a", "b"];
                format!(
                    "SELECT {} FROM t WHERE {} >= {x}",
                    cols[(x % 3) as usize],
                    cols[(x / 3 % 3) as usize]
                )
            }
        });
    }
    // A rarely-run read on `u.v` registers early; then the writes it would
    // tax dominate what probation measures.
    for i in 0..40u64 {
        out.push(format!("SELECT * FROM u WHERE v = {i}"));
    }
    for i in 0..1_200u64 {
        let x = rng.random_range(0u64..100_000);
        out.push(match rng.random_range(0u32..20) {
            0 => format!("SELECT * FROM t WHERE a = {x}"),
            1 => "SELECT FROM WHERE".to_string(),
            _ => format!(
                "INSERT INTO u (id, k, v) VALUES ({}, {x}, {})",
                300_000 + i,
                x % 1_000
            ),
        });
    }
    out
}

fn advisor() -> AutoIndex<NativeCostEstimator> {
    let config = AutoIndexConfig {
        diagnosis: DiagnosisConfig {
            min_statements: 30,
            ..DiagnosisConfig::default()
        },
        mcts: MctsConfig {
            iterations: 40,
            ..MctsConfig::default()
        },
        ..AutoIndexConfig::default()
    };
    AutoIndex::new(config, NativeCostEstimator)
}

fn guard() -> GuardConfig {
    GuardConfig {
        probation_statements: 150,
        min_probation_samples: 20,
        baseline_window: 150,
        max_regression: 0.02,
        cooldown_initial: 200,
        cooldown_max: 400,
        ..GuardConfig::default()
    }
}

fn event_tag(event: &OnlineEvent) -> &'static str {
    match event {
        OnlineEvent::Executed => "executed",
        OnlineEvent::DiagnosedHealthy(_) => "healthy",
        OnlineEvent::Tuned { .. } => "tuned",
        OnlineEvent::BanditArmApplied { .. } => "bandit",
        OnlineEvent::StrategySwitched { .. } => "switched",
        OnlineEvent::GuardApplied { .. } => "applied",
        OnlineEvent::ShadowRejected { .. } => "shadow",
        OnlineEvent::RolledBack(_) => "rolled_back",
        OnlineEvent::ProbationPassed { .. } => "passed",
        OnlineEvent::CooldownEnded => "cooldown_ended",
        OnlineEvent::ObserveOnlyEntered => "observe_only",
    }
}

/// One cell: its digest and how often each event tag occurred.
fn cell(
    interval: u64,
    cooldown: u64,
    guarded: bool,
    faults: Option<FaultPlanConfig>,
    stream: &[String],
) -> (u64, Vec<(&'static str, usize)>) {
    let mut online = OnlineAutoIndex::new(
        database(faults),
        advisor(),
        OnlineConfig {
            diagnosis_interval: interval,
            tuning_cooldown: cooldown,
            reset_usage_after_tuning: true,
            guard: guarded.then(guard),
        },
    );
    let mut h = fnv1a(b"online");
    let mut tags: Vec<(&'static str, usize)> = Vec::new();
    for sql in stream {
        let fed = online.feed(sql);
        match &fed.outcome {
            Some(o) => {
                h = fnv1a_from(h, &o.latency_ms.to_bits().to_le_bytes());
                let f = &o.features;
                for v in [f.c_data, f.c_io, f.c_cpu, f.c_sort, f.c_heap] {
                    h = fnv1a_from(h, &v.to_bits().to_le_bytes());
                }
                for id in &o.indexes_used {
                    h = fnv1a_from(h, &id.0.to_le_bytes());
                }
                h = fnv1a_from(h, b";");
            }
            None => h = fnv1a_from(h, b"none;"),
        }
        let tag = event_tag(&fed.event);
        h = fnv1a_from(h, tag.as_bytes());
        h = fnv1a_from(h, format!("{:?}", fed.error).as_bytes());
        match tags.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, n)) => *n += 1,
            None => tags.push((tag, 1)),
        }
    }
    let mut keys: Vec<String> = online.db().indexes().map(|(_, d)| d.key()).collect();
    keys.sort();
    h = fnv1a_from(h, keys.join(",").as_bytes());
    h = fnv1a_from(h, &online.executed().to_le_bytes());
    tags.sort();
    (h, tags)
}

#[test]
fn feed_outcome_streams_match_the_golden_digest() {
    let stream = stream();
    let plans = [
        ("quiet", None),
        (
            "exec",
            Some(FaultPlanConfig {
                seed: 5,
                transient_error: 0.05,
                latency_spike: 0.05,
                ..FaultPlanConfig::default()
            }),
        ),
        (
            "build",
            Some(FaultPlanConfig {
                seed: 9,
                build_failure: 0.7,
                ..FaultPlanConfig::default()
            }),
        ),
    ];
    let mut digest = fnv1a(b"online_golden");
    let mut table = String::new();
    let mut seen: Vec<&'static str> = Vec::new();
    for interval in [50, 150] {
        for cooldown in [0, 300] {
            for guarded in [false, true] {
                for (name, faults) in &plans {
                    let (h, tags) = cell(interval, cooldown, guarded, faults.clone(), &stream);
                    digest = fnv1a_from(digest, &h.to_le_bytes());
                    table.push_str(&format!(
                        "interval {interval:>3} cooldown {cooldown:>3} guard {guarded:<5} \
                         faults {name:<5} {h:#018x} {tags:?}\n"
                    ));
                    seen.extend(tags.iter().map(|(t, _)| *t));
                }
            }
        }
    }
    // The grid reaches what the loop can do: tuning, guarded applies,
    // probation verdicts both ways, and apply-time fault rollbacks.
    for tag in ["tuned", "applied", "passed", "rolled_back", "healthy"] {
        assert!(seen.contains(&tag), "no cell emitted {tag}:\n{table}");
    }
    assert_eq!(digest, GOLDEN, "digest {digest:#018x}; per cell:\n{table}");
}
