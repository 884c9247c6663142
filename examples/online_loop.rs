//! The §III control loop, self-driving: feed a drifting query stream into
//! [`OnlineAutoIndex`] and watch diagnosis trigger tuning rounds on its
//! own — no manual session calls anywhere. The loop runs *guarded*: every
//! apply is shadow-verified, snapshotted and put on probation, so a bad
//! recommendation would be rolled back automatically (`docs/ROBUSTNESS.md`).
//!
//! ```bash
//! cargo run --release --example online_loop
//! ```

use autoindex::core::online::{OnlineAutoIndex, OnlineConfig, OnlineEvent};
use autoindex::prelude::*;

fn main() {
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableBuilder::new("tickets", 1_200_000)
            .column(Column::int("ticket_id", 1_200_000))
            .column(Column::int("user_id", 80_000))
            .column(Column::int("queue", 40))
            .column(Column::int("priority", 5))
            .column(Column::int("opened_at", 1_200_000).with_correlation(0.9))
            .primary_key(&["ticket_id"])
            .build()
            .expect("static schema"),
    );
    let mut db = SimDb::new(catalog, SimDbConfig::default());
    db.create_index(IndexDef::new("tickets", &["ticket_id"]))
        .expect("primary key index");

    let advisor = AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator);
    let config = OnlineConfig {
        diagnosis_interval: 500,
        tuning_cooldown: 1_000,
        guard: Some(GuardConfig::default()),
        ..OnlineConfig::default()
    };
    let mut online = OnlineAutoIndex::new(db, advisor, config);

    // Phase 1: agents look tickets up by user.
    // Phase 2: the workload drifts to queue dashboards.
    let phase1: Vec<String> = (0..3_000)
        .map(|i| format!("SELECT * FROM tickets WHERE user_id = {}", i % 80_000))
        .collect();
    let phase2: Vec<String> = (0..3_000)
        .map(|i| {
            format!(
                "SELECT ticket_id, priority FROM tickets WHERE queue = {} AND priority = {} \
                 ORDER BY opened_at DESC LIMIT 50",
                i % 40,
                i % 5
            )
        })
        .collect();

    for (phase, stream) in [(1, &phase1), (2, &phase2)] {
        println!("\n--- phase {phase} ---");
        let mut healthy_checks = 0u32;
        for q in stream {
            match online.feed(q).event {
                OnlineEvent::Executed => {}
                OnlineEvent::DiagnosedHealthy(_) => healthy_checks += 1,
                OnlineEvent::Tuned { diagnosis, report }
                | OnlineEvent::GuardApplied {
                    diagnosis, report, ..
                }
                | OnlineEvent::BanditArmApplied {
                    diagnosis, report, ..
                } => {
                    println!(
                        "  [stmt {}] diagnosis fired (problem ratio {:.0}%, missing benefit {:.0}%)",
                        online.executed(),
                        diagnosis.problem_ratio * 100.0,
                        diagnosis.missing_benefit * 100.0
                    );
                    for d in &report.recommendation.add {
                        println!("      + CREATE INDEX ON {d}");
                    }
                    for d in &report.recommendation.remove {
                        println!("      - DROP INDEX ON {d}");
                    }
                }
                OnlineEvent::ShadowRejected {
                    improvement,
                    required,
                    ..
                } => println!(
                    "  [stmt {}] shadow check rejected a recommendation ({:.2}% < {:.2}%)",
                    online.executed(),
                    improvement * 100.0,
                    required * 100.0
                ),
                OnlineEvent::ProbationPassed {
                    baseline_ms,
                    probation_ms,
                } => println!(
                    "  [stmt {}] probation passed ({baseline_ms:.3} ms -> {probation_ms:.3} ms/stmt)",
                    online.executed()
                ),
                OnlineEvent::RolledBack(reason) => {
                    println!("  [stmt {}] ROLLED BACK: {reason:?}", online.executed())
                }
                OnlineEvent::CooldownEnded => {}
                OnlineEvent::ObserveOnlyEntered => println!(
                    "  [stmt {}] guard degraded to observe-only",
                    online.executed()
                ),
                OnlineEvent::StrategySwitched { from, to } => {
                    println!("  [stmt {}] strategy {from} -> {to}", online.executed())
                }
            }
        }
        println!(
            "  phase {phase} done: {} statements, {} healthy checks, {} effective tuning rounds",
            online.executed(),
            healthy_checks,
            online.tuning_rounds
        );
        let keys: Vec<String> = online.db().indexes().map(|(_, d)| d.to_string()).collect();
        println!("  indexes now: [{}]", keys.join(", "));
    }
}
