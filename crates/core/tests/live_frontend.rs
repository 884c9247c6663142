//! `OnlineAutoIndex::feed` binds repeat statements through the advisor's
//! live compiled templates; the contract is that nothing observable
//! changes. This property holds `feed` to the public slow-path
//! composition — `parse_statement` → `QueryShape::extract` →
//! `SimDb::execute_shape` → `AutoIndex::observe`, then the guard lifecycle
//! and the diagnosis cadence, call for call what `feed` did before it had
//! a fast path — on a twin database with the same seed: every latency bit
//! for bit, every error, every control-loop event, the final index set and
//! the template store's JSON.
//!
//! Streams interleave repeat SELECT / UPDATE / DELETE templates with
//! INSERTs into the same tables (every one moves the statistics the next
//! bind must see), bind-guard trippers, text that does not parse, ad-hoc
//! templates against a store of two to four entries (eviction), forced
//! decays, and guarded tuning rounds with build faults.

use autoindex_core::{
    ApplyVerdict, AutoIndex, AutoIndexConfig, DiagnosisConfig, Guard, GuardConfig, GuardEvent,
    GuardPhase, MctsConfig, OnlineAutoIndex, OnlineConfig, OnlineEvent, Recommendation,
    RollbackReason, TemplateStoreConfig,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::parse_statement;
use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert_eq;
use autoindex_support::rng::StdRng;
use autoindex_workloads::fleet::{tenant_catalog, tenant_dba_indexes};

const ACCOUNTS: u64 = 3_000;

/// One statement of the stream. Literal ranges are narrow enough that the
/// duplicate-atom and negative-`LIMIT` guards trip now and then.
fn statement(rng: &mut StdRng) -> String {
    let acct = rng.random_range(1..=ACCOUNTS);
    let small = rng.random_range(0u64..4);
    let n = rng.random_range(1u64..40_000);
    match rng.random_range(0u32..27) {
        0..=3 => format!("SELECT * FROM account WHERE acct_id = {acct}"),
        4 | 5 => format!(
            "SELECT * FROM withdraw_flow WHERE teller_id = {}",
            acct % 600
        ),
        6 => format!(
            "SELECT flow_status, COUNT(*) FROM withdraw_flow \
             WHERE branch_id = {small} AND ts > {n} GROUP BY flow_status"
        ),
        7 => format!("SELECT * FROM txn_journal WHERE amount BETWEEN {small} AND {n}"),
        8 => format!("UPDATE account SET balance = {n}.5 WHERE acct_id = {acct}"),
        9 => format!("DELETE FROM card WHERE card_id = {acct}"),
        10 | 11 => format!(
            "INSERT INTO txn_journal (jrn_id, acct_id, ts, kind, amount) \
             VALUES ({n}, {acct}, {n}, {small}, 12.5)"
        ),
        12 => format!("INSERT INTO withdraw_flow (flow_id, acct_id, ts) VALUES ({n}, {acct}, {n})"),
        // Same fingerprint as a one-row INSERT, three times the literals.
        13 => format!(
            "INSERT INTO card (card_id, acct_id, card_status) \
             VALUES ({n}, {acct}, 1), ({acct}, {n}, 2), ({small}, {small}, 0)"
        ),
        14 => format!("INSERT INTO card (card_id, acct_id, card_status) VALUES ({n}, {acct}, 1)"),
        // Bind-guard trippers.
        15 => format!(
            "SELECT * FROM withdraw_flow WHERE branch_id = {small} ORDER BY ts LIMIT {}",
            small as i64 - 1
        ),
        16 => format!(
            "SELECT * FROM account WHERE status = {small} AND status = {}",
            rng.random_range(0u64..4)
        ),
        17 => format!("SELECT * FROM account WHERE balance > -{n}"),
        18 => "SELECT * FROM account WHERE balance > -'x'".to_string(),
        // `OR`, `IN` and `LIKE` templates; the first trips the DNF-group
        // guard now and then.
        19 => format!(
            "SELECT * FROM account WHERE (status = {small} OR status = {}) AND acct_type = 1",
            rng.random_range(0u64..4)
        ),
        20 => format!("SELECT * FROM card WHERE card_status IN ({small}, 3)"),
        21 => [
            "SELECT * FROM customer_b WHERE cust_name LIKE 'a%'",
            "SELECT * FROM customer_b WHERE cust_name LIKE '%b'",
        ][rng.random_range(0usize..2)]
        .to_string(),
        // An ineligible template.
        22 => format!("SELECT * FROM account WHERE NOT status = {small}"),
        // Text that does not parse, or does not even lex.
        23 => [
            "THIS IS NOT SQL",
            "SELECT * FROM account WHERE acct_id = 'open",
        ][rng.random_range(0usize..2)]
        .to_string(),
        // Ad-hoc: one of 4 × 3 × 4 = 48 templates.
        _ => {
            let cols = ["acct_id", "cust_id", "branch_id", "status"];
            let ops = ["=", "<", ">="];
            format!(
                "SELECT {} FROM account WHERE {} {} {small}",
                cols[rng.random_range(0usize..4)],
                cols[rng.random_range(0usize..4)],
                ops[rng.random_range(0usize..3)],
            )
        }
    }
}

fn database(faults: Option<&FaultPlanConfig>) -> SimDb {
    let mut db = SimDb::with_metrics(
        tenant_catalog(ACCOUNTS),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for def in tenant_dba_indexes() {
        db.create_index(def).unwrap();
    }
    db.set_fault_plan(faults.map(|f| FaultPlan::new(f.clone())));
    db
}

fn change(rec: &Recommendation) -> String {
    let keys = |defs: &[autoindex_storage::index::IndexDef]| -> Vec<String> {
        defs.iter().map(|d| d.key()).collect()
    };
    format!("+{:?} -{:?}", keys(&rec.add), keys(&rec.remove))
}

/// What `feed` said of one statement, flattened for comparison.
type Line = (Option<u64>, String, String);

fn said(fed: autoindex_core::FeedOutcome) -> Line {
    let event = match fed.event {
        OnlineEvent::Executed => "executed".to_string(),
        OnlineEvent::DiagnosedHealthy(d) => format!("healthy {d:?}"),
        OnlineEvent::Tuned { diagnosis, report } => {
            format!("tuned {diagnosis:?} {}", change(&report.recommendation))
        }
        OnlineEvent::GuardApplied {
            diagnosis,
            report,
            probation_until,
        } => format!(
            "applied {diagnosis:?} {} until {probation_until}",
            change(&report.recommendation)
        ),
        OnlineEvent::ShadowRejected {
            diagnosis,
            improvement,
            required,
        } => format!("shadow {diagnosis:?} {improvement:?} {required:?}"),
        OnlineEvent::RolledBack(reason) => rolled_back(reason),
        OnlineEvent::ProbationPassed {
            baseline_ms,
            probation_ms,
        } => format!("passed {baseline_ms:?} {probation_ms:?}"),
        OnlineEvent::CooldownEnded => "cooldown_ended".to_string(),
        OnlineEvent::ObserveOnlyEntered => "observe_only".to_string(),
        other => format!("{other:?}"),
    };
    (
        fed.outcome.map(|o| o.latency_ms.to_bits()),
        format!("{:?}", fed.error),
        event,
    )
}

fn rolled_back(reason: RollbackReason) -> String {
    match reason {
        RollbackReason::ApplyFaults {
            build_faults,
            restored_fingerprint,
        } => format!("faulted {build_faults} {restored_fingerprint}"),
        RollbackReason::ProbationRegression {
            baseline_ms,
            probation_ms,
            regression,
            restored_fingerprint,
        } => format!(
            "regressed {baseline_ms:?} {probation_ms:?} {regression:?} {restored_fingerprint}"
        ),
    }
}

/// The §III loop over the parse path, from public pieces only.
struct SlowPath {
    db: SimDb,
    advisor: AutoIndex<NativeCostEstimator>,
    config: OnlineConfig,
    guard: Option<Guard>,
    executed: u64,
    last_tuning_at: Option<u64>,
}

impl SlowPath {
    fn feed(&mut self, sql: &str) -> Line {
        let stmt = match parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(e) => {
                let error: autoindex_core::AutoIndexError = e.into();
                return (None, format!("{:?}", Some(error)), "executed".to_string());
            }
        };
        let shape = QueryShape::extract(&stmt, self.db.catalog());
        let outcome = self.db.execute_shape(&shape);
        let error = self
            .advisor
            .observe(sql, &self.db)
            .err()
            .map(autoindex_core::AutoIndexError::from);
        self.executed += 1;
        let line = |event: String| {
            (
                Some(outcome.latency_ms.to_bits()),
                format!("{error:?}"),
                event,
            )
        };

        if let Some(g) = &mut self.guard {
            g.record_latency(outcome.latency_ms);
            if let Some(event) = g.poll(self.executed, &mut self.db) {
                return line(match event {
                    GuardEvent::ProbationPassed {
                        baseline_ms,
                        probation_ms,
                    } => format!("passed {baseline_ms:?} {probation_ms:?}"),
                    GuardEvent::RolledBack(reason) => rolled_back(reason),
                    GuardEvent::CooldownEnded => "cooldown_ended".to_string(),
                    GuardEvent::EnteredObserveOnly => "observe_only".to_string(),
                });
            }
        }
        if !self.executed.is_multiple_of(self.config.diagnosis_interval)
            || self
                .last_tuning_at
                .is_some_and(|at| self.executed - at < self.config.tuning_cooldown)
            || self.guard.as_ref().is_some_and(|g| !g.can_tune())
        {
            return line("executed".to_string());
        }
        let diagnosis = self.advisor.diagnose(&self.db);
        if !diagnosis.should_tune {
            return line(format!("healthy {diagnosis:?}"));
        }

        self.last_tuning_at = Some(self.executed);
        let event = match &mut self.guard {
            None => {
                let out = self.advisor.session(&mut self.db).run().unwrap();
                format!("tuned {diagnosis:?} {}", change(out.recommendation()))
            }
            Some(g) => {
                let rec = self
                    .advisor
                    .session(&mut self.db)
                    .recommend_only()
                    .run()
                    .unwrap()
                    .report
                    .recommendation;
                match g.apply(&mut self.db, &rec, self.executed).2 {
                    ApplyVerdict::ShadowRejected {
                        improvement,
                        required,
                    } => format!("shadow {diagnosis:?} {improvement:?} {required:?}"),
                    ApplyVerdict::RolledBack(reason) => rolled_back(reason),
                    ApplyVerdict::Applied if rec.is_noop() => {
                        format!("tuned {diagnosis:?} {}", change(&rec))
                    }
                    ApplyVerdict::Applied => {
                        let until = match g.phase() {
                            GuardPhase::Probation { until } => *until,
                            _ => self.executed,
                        };
                        format!("applied {diagnosis:?} {} until {until}", change(&rec))
                    }
                }
            }
        };
        if self.config.reset_usage_after_tuning {
            self.db.reset_usage();
        }
        line(event)
    }
}

fn index_keys(db: &SimDb) -> Vec<String> {
    let mut keys: Vec<String> = db.indexes().map(|(_, d)| d.key()).collect();
    keys.sort();
    keys
}

#[test]
fn feed_equals_the_parse_path_composition() {
    property(
        "feed_equals_the_parse_path_composition",
        PropConfig::default().cases(12),
        |rng, size| {
            let advisor_config = AutoIndexConfig {
                templates: TemplateStoreConfig {
                    // Half the cases evict on nearly every new template.
                    max_templates: if rng.random_bool(0.5) {
                        rng.random_range(2usize..5)
                    } else {
                        5_000
                    },
                    shift_window: rng.random_range(40u64..400),
                },
                diagnosis: DiagnosisConfig {
                    min_statements: 30,
                    ..DiagnosisConfig::default()
                },
                mcts: MctsConfig {
                    iterations: 30,
                    ..MctsConfig::default()
                },
                ..AutoIndexConfig::default()
            };
            let config = OnlineConfig {
                diagnosis_interval: rng.random_range(20u64..60),
                tuning_cooldown: rng.random_range(0u64..120),
                reset_usage_after_tuning: rng.random_bool(0.7),
                guard: rng.random_bool(0.7).then(|| GuardConfig {
                    probation_statements: 40,
                    min_probation_samples: 5,
                    baseline_window: 40,
                    cooldown_initial: 50,
                    cooldown_max: 200,
                    ..GuardConfig::default()
                }),
            };
            let faults = rng.random_bool(0.4).then(|| FaultPlanConfig {
                seed: rng.random_range(0u64..1_000),
                build_failure: 0.5,
                transient_error: 0.02,
                latency_spike: 0.02,
                ..FaultPlanConfig::default()
            });

            let mut fast = OnlineAutoIndex::new(
                database(faults.as_ref()),
                AutoIndex::new(advisor_config.clone(), NativeCostEstimator),
                config.clone(),
            );
            let db = database(faults.as_ref());
            let mut slow = SlowPath {
                guard: config.guard.clone().map(|g| Guard::new(g, db.metrics())),
                db,
                advisor: AutoIndex::new(advisor_config, NativeCostEstimator),
                config,
                executed: 0,
                last_tuning_at: None,
            };

            for i in 0..300 + 12 * size {
                if rng.random_range(0u32..150) == 0 {
                    fast.advisor_mut().force_template_decay();
                    slow.advisor.force_template_decay();
                }
                let sql = statement(rng);
                prop_assert_eq!(
                    said(fast.feed(&sql)),
                    slow.feed(&sql),
                    "statement {i}: {sql}"
                );
            }
            prop_assert_eq!(fast.executed(), slow.executed);
            prop_assert_eq!(index_keys(fast.db()), index_keys(&slow.db));
            prop_assert_eq!(
                fast.advisor().templates().to_json(),
                slow.advisor.templates().to_json()
            );
            prop_assert_eq!(fast.db().catalog(), slow.db.catalog());
            Ok(())
        },
    );
}
