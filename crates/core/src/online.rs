//! The online management loop (§III Workflow) with guarded apply.
//!
//! "For any new workload being executed in the database, we first diagnose
//! the index problems when performance regression occurs. If any index
//! problem is identified, we generate candidate indexes … and utilize MCTS
//! to explore for the optimal combination … Finally, we update the
//! existing index set with the recommended indexes."
//!
//! [`OnlineAutoIndex`] wraps a [`SimDb`] and an [`AutoIndex`] instance into
//! that loop: every statement fed to it is executed *and* observed; at a
//! configurable cadence the diagnosis module runs against live usage
//! counters, and a firing diagnosis triggers a tuning round — no manual
//! tuning calls. With [`OnlineConfig::guard`] set, tuning rounds go
//! through the [`Guard`] pipeline: shadow admission, snapshotted fault-safe
//! apply, measured-latency probation and automatic rollback with
//! exponential backoff (see `docs/ROBUSTNESS.md`). This is the deployment
//! shape the paper describes — a management process sitting next to the
//! database, consuming its query log — made safe to leave unattended.
//!
//! `OnlineAutoIndex` is single-threaded: execution and tuning interleave
//! on one thread. For the concurrent deployment shape — sharded executor
//! threads plus a coordinator publishing configuration swaps at epoch
//! boundaries — see [`mod@crate::serve`] and `docs/SERVING.md`. The two
//! share one tuning round and one cooldown rule, but `feed` is not a lane
//! of that loop with one statement per epoch:
//!
//! - it executes on the live [`SimDb`] and absorbs before it measures, so
//!   an `INSERT`'s growth is priced into its own latency and re-folds the
//!   next bind; a lane executes on a frozen publication and absorbs at
//!   epoch end;
//! - a fault plan faults its execution through the live database's
//!   sequential stream, which snapshot execution does not have;
//! - its boundary checks cadence, cooldown and the guard's hold before it
//!   diagnoses, and diagnosis' what-if calls draw fault rolls by ordinal;
//!   a lane diagnoses first and applies atomically with no guard around
//!   the apply; this loop keeps its guard across rounds.

use crate::bandit::ArmChoice;
use crate::diagnosis::DiagnosisReport;
use crate::error::{invalid, AutoIndexError};
use crate::fastpath::{FrontEnd, Resolved, UpkeepCounters};
use crate::guard::{ApplyVerdict, Guard, GuardConfig, GuardEvent, GuardPhase, RollbackReason};
use crate::serve::tuning_cooldown_over;
use crate::session::{tuning_round, Apply, SessionReport};
use crate::strategy::StrategyKind;
use crate::system::{AutoIndex, TuningReport};
use autoindex_estimator::CostEstimator;
use autoindex_storage::{ExecOutcome, SimDb};

/// Cadence and guard rails for the online loop.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Run diagnosis every this many executed statements.
    ///
    /// A value of `0` is treated as `1` (diagnose after every statement):
    /// the cadence check is `executed % interval == 0`, and `% 0` would
    /// otherwise make the condition *never* true, silently disabling
    /// diagnosis forever. [`OnlineAutoIndex::new`] clamps accordingly;
    /// [`OnlineConfig::validate`] rejects `0` outright.
    pub diagnosis_interval: u64,
    /// Minimum statements between two tuning rounds (cool-down, so a round
    /// has time to show its effect in the usage counters).
    pub tuning_cooldown: u64,
    /// Reset usage counters after each tuning round (a fresh measurement
    /// window for the new configuration).
    pub reset_usage_after_tuning: bool,
    /// Run every tuning round through the guard pipeline (shadow
    /// admission, probation, automatic rollback). `None` applies
    /// recommendations unconditionally, as before PR 4.
    pub guard: Option<GuardConfig>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            diagnosis_interval: 1_000,
            tuning_cooldown: 2_000,
            reset_usage_after_tuning: true,
            guard: None,
        }
    }
}

impl OnlineConfig {
    /// Check every field, then the guard's. Unlike the clamp in
    /// [`OnlineAutoIndex::new`], a zero `diagnosis_interval` is an error
    /// here — silent correction hides misconfiguration.
    pub fn validate(&self) -> Result<(), AutoIndexError> {
        if self.diagnosis_interval == 0 {
            return Err(invalid(
                "online.diagnosis_interval",
                "must be >= 1 (diagnosis would otherwise never run)",
            ));
        }
        self.guard.as_ref().map_or(Ok(()), GuardConfig::validate)
    }
}

/// What happened as a side effect of feeding one statement.
#[derive(Debug, Clone)]
pub enum OnlineEvent {
    /// Statement executed, nothing else happened.
    Executed,
    /// Diagnosis ran and did not fire.
    DiagnosedHealthy(DiagnosisReport),
    /// Diagnosis fired and an *unguarded* tuning round ran (also used for
    /// guarded rounds whose recommendation was a no-op).
    Tuned {
        diagnosis: DiagnosisReport,
        report: TuningReport,
    },
    /// An unguarded bandit round performed DDL: like [`OnlineEvent::Tuned`]
    /// but attributing the change to the bandit's selected arms, so
    /// transcripts can tell exploration-driven applies from the MCTS
    /// pipeline's. Emitted only while the bandit strategy is active —
    /// transcripts (and their digests) are byte-identical when it is off.
    BanditArmApplied {
        diagnosis: DiagnosisReport,
        report: TuningReport,
        /// The super-arm the bandit committed to this round, with its
        /// confidence-bound scores at selection time.
        arms: Vec<ArmChoice>,
    },
    /// The operator switched the advisor's tuning strategy via
    /// [`OnlineAutoIndex::set_strategy`].
    StrategySwitched {
        from: StrategyKind,
        to: StrategyKind,
    },
    /// Diagnosis fired and a guarded round applied a change; probation is
    /// armed until the given statement count.
    GuardApplied {
        diagnosis: DiagnosisReport,
        report: TuningReport,
        probation_until: u64,
    },
    /// The guard's shadow check rejected the recommendation; no DDL ran.
    ShadowRejected {
        diagnosis: DiagnosisReport,
        improvement: f64,
        required: f64,
    },
    /// A guarded change was undone (apply fault or probation regression).
    RolledBack(RollbackReason),
    /// Probation ended without a regression; the change is permanent.
    ProbationPassed { baseline_ms: f64, probation_ms: f64 },
    /// A failure cooldown expired; tuning is possible again.
    CooldownEnded,
    /// Repeated failures drove the guard into observe-only mode; tuning is
    /// suspended until [`OnlineAutoIndex::reset_guard`].
    ObserveOnlyEntered,
}

/// Everything [`OnlineAutoIndex::feed`] has to say about one statement.
///
/// Replaces the old `(Option<ExecOutcome>, OnlineEvent)` tuple, whose
/// `None` conflated "statement did not parse" with "template matching
/// failed" — and silently discarded the latter's [`ExecOutcome`]. Now the
/// outcome is present whenever the statement executed, and any
/// template/parse failure rides alongside in `error`.
#[derive(Debug, Clone)]
pub struct FeedOutcome {
    /// The execution measurement; `None` only when the statement could not
    /// be parsed (and therefore never executed).
    pub outcome: Option<ExecOutcome>,
    /// The control-loop event this statement triggered.
    pub event: OnlineEvent,
    /// Parse or template-matching failure, if any. A `Some` here with
    /// `outcome: Some(..)` means the statement *executed* but the advisor
    /// could not learn from it.
    pub error: Option<AutoIndexError>,
}

/// The self-driving wrapper: database + advisor + the §III control loop.
pub struct OnlineAutoIndex<E: CostEstimator> {
    db: SimDb,
    advisor: AutoIndex<E>,
    config: OnlineConfig,
    guard: Option<Guard>,
    /// The statement front end the serving executors run too, here over
    /// the advisor's live compiled entries.
    front: FrontEnd,
    upkeep: UpkeepCounters,
    /// The template store's removal count when the database's kept plans
    /// were last pruned to its templates.
    pruned_at: u64,
    executed: u64,
    last_tuning_at: Option<u64>,
    /// Number of tuning rounds triggered so far.
    pub tuning_rounds: u64,
}

impl<E: CostEstimator> OnlineAutoIndex<E> {
    /// Wrap a database and an advisor into the online loop.
    ///
    /// `diagnosis_interval == 0` is clamped to `1` — see
    /// [`OnlineConfig::diagnosis_interval`] for why `0` would otherwise
    /// silently disable diagnosis. [`OnlineConfig::validate`] reports an
    /// error instead of the clamp.
    pub fn new(db: SimDb, advisor: AutoIndex<E>, mut config: OnlineConfig) -> Self {
        config.diagnosis_interval = config.diagnosis_interval.max(1);
        let guard = config.guard.clone().map(|g| Guard::new(g, db.metrics()));
        OnlineAutoIndex {
            front: FrontEnd::new(db.metrics(), 0),
            upkeep: UpkeepCounters::bind(db.metrics()),
            db,
            advisor,
            config,
            guard,
            pruned_at: 0,
            executed: 0,
            last_tuning_at: None,
            tuning_rounds: 0,
        }
    }

    /// The wrapped database.
    pub fn db(&self) -> &SimDb {
        &self.db
    }

    /// Mutable access to the wrapped database (fault-plan installation,
    /// catalog adjustments).
    pub fn db_mut(&mut self) -> &mut SimDb {
        &mut self.db
    }

    /// The wrapped advisor.
    pub fn advisor(&self) -> &AutoIndex<E> {
        &self.advisor
    }

    /// Mutable access to the wrapped advisor (marking a known phase
    /// boundary with [`AutoIndex::force_template_decay`], refreshing
    /// statistics).
    pub fn advisor_mut(&mut self) -> &mut AutoIndex<E> {
        &mut self.advisor
    }

    /// The guard state machine, when configured.
    pub fn guard(&self) -> Option<&Guard> {
        self.guard.as_ref()
    }

    /// Operator override: return an observe-only (or cooling-down) guard
    /// to idle. No-op without a guard.
    pub fn reset_guard(&mut self) {
        if let Some(g) = &mut self.guard {
            g.reset();
        }
    }

    /// Statements executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Switch the advisor's tuning strategy mid-stream. Returns the
    /// [`OnlineEvent::StrategySwitched`] transition for the caller's
    /// transcript; per-strategy state (policy tree, bandit model) is
    /// retained across switches.
    pub fn set_strategy(&mut self, to: StrategyKind) -> OnlineEvent {
        let from = self.advisor.strategy();
        self.advisor.set_strategy(to);
        self.db.metrics().counter("online.strategy_switches").incr();
        OnlineEvent::StrategySwitched { from, to }
    }

    /// Execute one statement from the stream, observe it, and run the
    /// control loop. A statement of a known, compilable template is
    /// *bound* — fingerprint scan, the template's compiled entry (re-folded
    /// first if an INSERT grew a table it touches), slot writes — and no
    /// syntax tree is built for it, nor a plan: it is priced through the
    /// plan the database keeps for its template ([`SimDb::execute_bound`]).
    /// Anything else is parsed, extracted — which yields the same shape bit
    /// for bit — and planned from scratch. Statements that do not
    /// parse are executed… nowhere — the simulator runs shapes — so they
    /// surface as `outcome: None` with the parse error attached (a real
    /// deployment would pass them straight to the server).
    pub fn feed(&mut self, sql: &str) -> FeedOutcome {
        let (advisor, catalog, upkeep) = (&mut self.advisor, self.db.catalog(), &self.upkeep);
        let lookup = move |hash| {
            // Moved, not reborrowed: the entry handed out is borrowed from
            // the advisor, not from this (once-called) closure.
            let advisor = advisor;
            advisor.templates_mut().compiled_for(hash, catalog, upkeep)
        };
        let resolved = match self.front.resolve(sql, catalog, Some(lookup)) {
            Ok(r) => r,
            Err(e) => {
                return FeedOutcome {
                    outcome: None,
                    event: OnlineEvent::Executed,
                    error: Some(e.into()),
                }
            }
        };
        let outcome = match &resolved {
            Resolved::Bound(hash, shape) => self.db.execute_bound(*hash, shape),
            Resolved::Parsed(_, shape) => self.db.execute_shape(shape),
        };
        // The statement executed; a template-matching failure must not
        // discard the measurement (the old `(None, event)` ambiguity).
        let observed = match resolved.hash() {
            Some(hash) => self.advisor.observe_prehashed(hash, sql, &self.db),
            None => self.advisor.observe(sql, &self.db),
        };
        let error = observed.err().map(AutoIndexError::from);
        // No more kept plans than templates: once the store dropped some,
        // drop their plans.
        let store = self.advisor.templates();
        if store.removed() != self.pruned_at {
            self.pruned_at = store.removed();
            self.db.retain_plans(|hash| store.get(hash).is_some());
        }
        self.executed += 1;

        // One control step per statement; its first verdict is the event.
        let event = 'control: {
            // Guard lifecycle first: probation verdicts and cooldown expiry
            // take precedence over starting new work.
            if let Some(g) = &mut self.guard {
                g.record_latency(outcome.latency_ms);
                if let Some(ev) = g.poll(self.executed, &mut self.db) {
                    break 'control match ev {
                        GuardEvent::ProbationPassed {
                            baseline_ms,
                            probation_ms,
                        } => OnlineEvent::ProbationPassed {
                            baseline_ms,
                            probation_ms,
                        },
                        GuardEvent::RolledBack(reason) => OnlineEvent::RolledBack(reason),
                        GuardEvent::CooldownEnded => OnlineEvent::CooldownEnded,
                        GuardEvent::EnteredObserveOnly => OnlineEvent::ObserveOnlyEntered,
                    };
                }
            }
            if !self.executed.is_multiple_of(self.config.diagnosis_interval) {
                break 'control OnlineEvent::Executed;
            }
            // `executed` rises between checks, so N - 1 statements strictly
            // between two rounds is at least N from one to the next.
            let cooldown = self.config.tuning_cooldown.saturating_sub(1);
            if !tuning_cooldown_over(self.last_tuning_at, self.executed, cooldown) {
                self.db
                    .metrics()
                    .counter("online.cooldown_suppressions")
                    .incr();
                break 'control OnlineEvent::Executed;
            }
            // The guard gates tuning while in probation/cooldown/observe-only.
            if self.guard.as_ref().is_some_and(|g| !g.can_tune()) {
                self.db
                    .metrics()
                    .counter("online.guard_suppressions")
                    .incr();
                break 'control OnlineEvent::Executed;
            }
            let (diagnosis, prologue) = self.advisor.boundary(&self.db);
            self.db.metrics().counter("online.diagnoses_run").incr();
            if !diagnosis.should_tune {
                break 'control OnlineEvent::DiagnosedHealthy(diagnosis);
            }
            self.db.metrics().counter("online.diagnoses_fired").incr();

            // A tuning round — through this loop's guard, when it has one —
            // rendered as the event.
            let _round = self.db.metrics().scoped("online.tuning_round_time");
            self.db.metrics().counter("online.tuning_rounds").incr();
            self.last_tuning_at = Some(self.executed);
            let apply = match &mut self.guard {
                Some(g) => Apply::GuardedBy(g, self.executed),
                None => Apply::Unguarded,
            };
            let reset = self.config.reset_usage_after_tuning;
            let SessionReport {
                report,
                guard,
                arms,
            } = tuning_round(&mut self.advisor, &mut self.db, prologue, apply, reset)
                .expect("a session over the observed templates has no failing step");
            let applied = !report.recommendation.is_noop();
            match guard {
                Some(ApplyVerdict::ShadowRejected {
                    improvement,
                    required,
                }) => OnlineEvent::ShadowRejected {
                    diagnosis,
                    improvement,
                    required,
                },
                Some(ApplyVerdict::RolledBack(reason)) => OnlineEvent::RolledBack(reason),
                // Nothing changed; no probation was armed.
                None | Some(ApplyVerdict::Applied) if !applied => {
                    OnlineEvent::Tuned { diagnosis, report }
                }
                Some(ApplyVerdict::Applied) => {
                    self.tuning_rounds += 1;
                    let probation_until = match self.guard.as_ref().map(Guard::phase) {
                        Some(GuardPhase::Probation { until }) => *until,
                        _ => self.executed,
                    };
                    OnlineEvent::GuardApplied {
                        diagnosis,
                        report,
                        probation_until,
                    }
                }
                None => {
                    self.tuning_rounds += 1;
                    if self.advisor.strategy() == StrategyKind::Bandit {
                        OnlineEvent::BanditArmApplied {
                            diagnosis,
                            report,
                            arms,
                        }
                    } else {
                        OnlineEvent::Tuned { diagnosis, report }
                    }
                }
            }
        };
        FeedOutcome {
            outcome: Some(outcome),
            event,
            error,
        }
    }

    /// Feed a whole stream; returns the tuning events that performed DDL
    /// (unguarded rounds and guarded applies).
    pub fn feed_all<'q>(
        &mut self,
        sqls: impl IntoIterator<Item = &'q str>,
    ) -> Vec<(u64, TuningReport)> {
        let mut out = Vec::new();
        for q in sqls {
            match self.feed(q).event {
                OnlineEvent::Tuned { report, .. }
                | OnlineEvent::BanditArmApplied { report, .. }
                | OnlineEvent::GuardApplied { report, .. } => {
                    out.push((self.executed, report));
                }
                _ => {}
            }
        }
        out
    }

    /// Dissolve the wrapper, returning the parts.
    pub fn into_parts(self) -> (SimDb, AutoIndex<E>) {
        (self.db, self.advisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
    use autoindex_storage::index::IndexDef;
    use autoindex_storage::SimDbConfig;
    use autoindex_support::obs::MetricsRegistry;

    fn db() -> SimDb {
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
        let mut db = SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new());
        db.create_index(IndexDef::new("t", &["id"])).unwrap();
        db
    }

    fn online() -> OnlineAutoIndex<NativeCostEstimator> {
        OnlineAutoIndex::new(
            db(),
            AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            OnlineConfig {
                diagnosis_interval: 200,
                tuning_cooldown: 400,
                reset_usage_after_tuning: true,
                guard: None,
            },
        )
    }

    fn guarded(guard: GuardConfig) -> OnlineAutoIndex<NativeCostEstimator> {
        OnlineAutoIndex::new(
            db(),
            AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            OnlineConfig {
                diagnosis_interval: 200,
                tuning_cooldown: 400,
                guard: Some(guard),
                ..OnlineConfig::default()
            },
        )
    }

    #[test]
    fn missing_index_triggers_automatic_tuning() {
        let mut o = online();
        let events = o.feed_all(
            (0..900)
                .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
        );
        assert!(!events.is_empty(), "diagnosis must fire and tune");
        assert!(
            o.db().indexes().any(|(_, d)| d.key() == "t(a)"),
            "the missing index gets built"
        );
        assert!(o.tuning_rounds >= 1);
    }

    #[test]
    fn healthy_configuration_does_not_thrash() {
        let mut o = online();
        // First pass creates the index…
        o.feed_all(
            (0..900)
                .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
        );
        let rounds_after_first = o.tuning_rounds;
        // …after which the same traffic must not keep re-tuning.
        o.feed_all(
            (0..2_000)
                .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
        );
        assert!(
            o.tuning_rounds <= rounds_after_first + 1,
            "thrashing: {} rounds after {rounds_after_first}",
            o.tuning_rounds
        );
    }

    #[test]
    fn cooldown_suppresses_back_to_back_rounds() {
        let mut o = OnlineAutoIndex::new(
            db(),
            AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            OnlineConfig {
                diagnosis_interval: 100,
                tuning_cooldown: 10_000, // effectively once
                reset_usage_after_tuning: true,
                guard: None,
            },
        );
        o.feed_all(
            (0..3_000)
                .map(|i| format!("SELECT * FROM t WHERE a = {i} AND b = {}", i % 7))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
        );
        assert!(o.tuning_rounds <= 1);
    }

    #[test]
    fn cooldown_boundary_is_exact() {
        // After a round at statement `t`, the next boundary that gets past
        // the cooldown (diagnosing every statement) is `t + max(N, 1)`.
        for cooldown in [0, 1, 3] {
            let mut o = OnlineAutoIndex::new(
                db(),
                AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
                OnlineConfig {
                    diagnosis_interval: 1,
                    tuning_cooldown: cooldown,
                    reset_usage_after_tuning: true,
                    guard: None,
                },
            );
            let events: Vec<OnlineEvent> = (0..300)
                .map(|i| o.feed(&format!("SELECT * FROM t WHERE a = {i}")).event)
                .collect();
            let mut rounds = 0;
            for (t, event) in events.iter().enumerate() {
                if !matches!(event, OnlineEvent::Tuned { .. }) {
                    continue;
                }
                rounds += 1;
                let next = events[t + 1..]
                    .iter()
                    .position(|e| !matches!(e, OnlineEvent::Executed))
                    .map(|d| d + 1);
                assert_eq!(next, Some(cooldown.max(1) as usize), "cooldown {cooldown}");
            }
            assert!(rounds >= 1, "cooldown {cooldown}: no round ran");
        }
    }

    #[test]
    fn zero_diagnosis_interval_is_clamped_by_new_and_rejected_by_builder() {
        // Regression: `executed % 0 == 0` is never true, so interval 0 used
        // to disable diagnosis forever. `new` clamps to 1; `validate`
        // makes it a hard error.
        let zero = OnlineConfig {
            diagnosis_interval: 0,
            ..OnlineConfig::default()
        };
        assert!(matches!(
            zero.validate(),
            Err(AutoIndexError::InvalidConfig { field, .. }) if field == "online.diagnosis_interval"
        ));
        let mut o = OnlineAutoIndex::new(
            db(),
            AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
            OnlineConfig {
                diagnosis_interval: 0,
                tuning_cooldown: 0,
                reset_usage_after_tuning: true,
                guard: None,
            },
        );
        let mut diagnosed = 0usize;
        for i in 0..300 {
            let fed = o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
            if !matches!(fed.event, OnlineEvent::Executed) {
                diagnosed += 1;
            }
        }
        assert!(
            diagnosed > 0,
            "interval 0 must clamp to 1, not silently disable diagnosis"
        );
        assert!(
            o.db().indexes().any(|(_, d)| d.key() == "t(a)"),
            "with diagnosis running, the missing index gets built"
        );
    }

    #[test]
    fn validate_checks_the_nested_guard() {
        let config = OnlineConfig {
            guard: Some(GuardConfig {
                probation_statements: 0,
                ..GuardConfig::default()
            }),
            ..OnlineConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(AutoIndexError::InvalidConfig { field, .. }) if field == "guard.probation_statements"
        ));
    }

    #[test]
    fn unparseable_statements_surface_the_parse_error() {
        let mut o = online();
        let fed = o.feed("THIS IS NOT SQL");
        assert!(fed.outcome.is_none());
        assert!(matches!(fed.event, OnlineEvent::Executed));
        assert!(
            matches!(fed.error, Some(AutoIndexError::Sql(_))),
            "parse failures are structured errors now: {:?}",
            fed.error
        );
        assert_eq!(o.executed(), 0);
        // Parseable statements carry no error and a real outcome.
        let ok = o.feed("SELECT * FROM t WHERE a = 1");
        assert!(ok.outcome.is_some());
        assert!(ok.error.is_none());
    }

    #[test]
    fn repeat_statements_are_bound_and_growth_refolds_them() {
        let mut o = online();
        for i in 0..500 {
            let fed = if i % 10 == 9 {
                o.feed(&format!(
                    "INSERT INTO t (id, a, b) VALUES ({i}, {i}, {})",
                    i % 7
                ))
            } else {
                o.feed(&format!("SELECT * FROM t WHERE a < {i}"))
            };
            assert!(fed.outcome.is_some() && fed.error.is_none());
        }
        let m = o.db().metrics();
        let (hits, misses) = (
            m.counter_value("sql.fastpath.hits"),
            m.counter_value("sql.fastpath.misses"),
        );
        assert_eq!(
            hits + misses,
            o.executed(),
            "every statement is counted once"
        );
        // Two templates, each parsed when first seen and compiled at its
        // second statement.
        assert_eq!(misses, 2);
        assert!(hits >= 480);
        assert_eq!(m.counter_value("sql.fastpath.compiled"), 2);
        assert_eq!(m.counter_value("sql.fastpath.fallbacks"), 0);
        // Every INSERT grows `t` under both templates.
        assert!(m.counter_value("sql.fastpath.refolded") >= 49);
        assert_eq!(o.advisor().templates().compiled_len(), 2);
    }

    #[test]
    fn into_parts_returns_state() {
        let mut o = online();
        o.feed("SELECT * FROM t WHERE a = 1");
        let (db, advisor) = o.into_parts();
        assert_eq!(db.usage().statements, 1);
        assert_eq!(advisor.template_count(), 1);
    }

    // ---------------------------------------------------------- guard path

    #[test]
    fn guarded_loop_without_faults_matches_unguarded_index_set() {
        let queries: Vec<String> = (0..900)
            .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
            .collect();
        let run = |guard: Option<GuardConfig>| {
            let mut o = OnlineAutoIndex::new(
                db(),
                AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator),
                OnlineConfig {
                    diagnosis_interval: 200,
                    tuning_cooldown: 400,
                    reset_usage_after_tuning: true,
                    guard,
                },
            );
            o.feed_all(queries.iter().map(String::as_str));
            let mut keys: Vec<String> = o.db().indexes().map(|(_, d)| d.key()).collect();
            keys.sort();
            keys
        };
        assert_eq!(run(None), run(Some(GuardConfig::default())));
    }

    #[test]
    fn guarded_apply_enters_probation_then_passes_on_improvement() {
        let mut o = guarded(GuardConfig {
            probation_statements: 100,
            min_probation_samples: 10,
            ..GuardConfig::default()
        });
        let mut applied = false;
        let mut passed = false;
        for i in 0..1_200 {
            let fed = o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
            match fed.event {
                OnlineEvent::GuardApplied { .. } => applied = true,
                OnlineEvent::ProbationPassed {
                    baseline_ms,
                    probation_ms,
                } => {
                    passed = true;
                    assert!(
                        probation_ms < baseline_ms,
                        "the index makes point lookups faster: {probation_ms} vs {baseline_ms}"
                    );
                }
                OnlineEvent::RolledBack(r) => panic!("unexpected rollback: {r:?}"),
                _ => {}
            }
        }
        assert!(applied, "guarded apply must have fired");
        assert!(passed, "probation must have delivered a verdict");
        assert!(o.db().indexes().any(|(_, d)| d.key() == "t(a)"));
        assert_eq!(o.db().metrics().counter_value("guard.probation_passes"), 1);
    }

    #[test]
    fn harmful_recommendation_is_rolled_back_in_probation() {
        // The native estimator is maintenance-blind: a rare SELECT template
        // makes it recommend an index even when the measured workload is
        // dominated by writes that pay that index's maintenance. The guard
        // must catch the measured regression and roll back.
        let mut o = guarded(GuardConfig {
            probation_statements: 150,
            min_probation_samples: 20,
            baseline_window: 150,
            max_regression: 0.02,
            cooldown_initial: 10_000,
            ..GuardConfig::default()
        });
        // Register the SELECT template early (and keep its weight alive),
        // then switch to pure insert traffic before the diagnosis boundary
        // so both baseline and probation windows measure inserts only.
        for i in 0..40 {
            o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
        }
        let mut rolled_back = false;
        let mut applied = false;
        for i in 0..2_000 {
            let fed = o.feed(&format!(
                "INSERT INTO t (id, a, b) VALUES ({i}, {i}, {})",
                i % 7
            ));
            match fed.event {
                OnlineEvent::GuardApplied { .. } => applied = true,
                OnlineEvent::RolledBack(RollbackReason::ProbationRegression {
                    regression, ..
                }) => {
                    rolled_back = true;
                    assert!(regression > 0.02);
                    break;
                }
                _ => {}
            }
        }
        assert!(
            applied,
            "the maintenance-blind estimator must recommend the index"
        );
        assert!(
            rolled_back,
            "probation must measure the regression and roll back"
        );
        assert!(
            !o.db().indexes().any(|(_, d)| d.key().starts_with("t(a")),
            "the harmful index is gone after rollback"
        );
        assert!(o.db().metrics().counter_value("guard.rollbacks") >= 1);
        assert!(matches!(
            o.guard().unwrap().phase(),
            GuardPhase::Cooldown { .. }
        ));
    }

    #[test]
    fn persistent_build_faults_degrade_to_observe_only() {
        let mut o = guarded(GuardConfig {
            observe_only_after: 2,
            cooldown_initial: 100,
            cooldown_max: 200,
            ..GuardConfig::default()
        });
        o.db_mut()
            .set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
                build_failure: 1.0,
                ..FaultPlanConfig::default()
            })));
        let mut rollbacks = 0;
        let mut observe_only = false;
        for i in 0..3_000 {
            let fed = o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
            match fed.event {
                OnlineEvent::RolledBack(RollbackReason::ApplyFaults { .. }) => rollbacks += 1,
                OnlineEvent::ObserveOnlyEntered => {
                    observe_only = true;
                    break;
                }
                _ => {}
            }
        }
        // Depending on where the second failure lands, the observe-only
        // entry may arrive from apply (no event loop pass) — check state.
        let phase_observe = matches!(o.guard().unwrap().phase(), GuardPhase::ObserveOnly);
        assert!(rollbacks >= 1, "at least one apply rollback");
        assert!(
            observe_only || phase_observe,
            "repeated failures must suspend tuning"
        );
        assert_eq!(o.db().index_count(), 1, "only the PK index survives");
        assert!(o.db().metrics().counter_value("guard.observe_only_entries") >= 1);
        // Operator reset re-arms tuning.
        o.reset_guard();
        assert!(o.guard().unwrap().can_tune());
    }

    #[test]
    fn strategy_switch_emits_transition_and_bandit_applies_are_attributed() {
        let mut o = online();
        let ev = o.set_strategy(StrategyKind::Bandit);
        assert!(matches!(
            ev,
            OnlineEvent::StrategySwitched {
                from: StrategyKind::Mcts,
                to: StrategyKind::Bandit,
            }
        ));
        let mut bandit_applied = false;
        for i in 0..1_200 {
            let fed = o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
            match fed.event {
                OnlineEvent::BanditArmApplied { ref arms, .. } => {
                    bandit_applied = true;
                    assert!(!arms.is_empty(), "arm attribution must be present");
                }
                OnlineEvent::Tuned { ref report, .. } => {
                    assert!(
                        report.recommendation.is_noop(),
                        "bandit DDL must surface as BanditArmApplied, not Tuned"
                    );
                }
                _ => {}
            }
        }
        assert!(bandit_applied, "the bandit must act on the hot template");
        assert!(o.db().indexes().any(|(_, d)| d.key() == "t(a)"));
        assert!(o.db().metrics().counter_value("online.strategy_switches") >= 1);
    }

    #[test]
    fn bandit_arm_events_carry_the_rounds_arms() {
        let bandit = || {
            let config = AutoIndexConfig {
                strategy: StrategyKind::Bandit,
                ..AutoIndexConfig::default()
            };
            AutoIndex::new(config, NativeCostEstimator)
        };
        let config = |diagnosis_interval| OnlineConfig {
            diagnosis_interval,
            ..OnlineConfig::default()
        };
        let sql = |i: u64| format!("SELECT * FROM t WHERE a = {i}");
        let mut o = OnlineAutoIndex::new(db(), bandit(), config(200));
        let (at, arms) = (1..=1_200)
            .find_map(|i| match o.feed(&sql(i)).event {
                OnlineEvent::BanditArmApplied { arms, .. } => Some((i, arms)),
                _ => None,
            })
            .expect("the bandit acts on the hot template");
        assert_eq!(o.db().metrics().counter_value("online.tuning_rounds"), 1);
        assert!(!arms.is_empty());
        // A twin fed the same statements with no boundary among them, then
        // tuned once: the event's arms are that round's.
        let mut twin = OnlineAutoIndex::new(db(), bandit(), config(at + 1));
        for i in 1..=at {
            twin.feed(&sql(i));
        }
        let (mut db, mut advisor) = twin.into_parts();
        let round = advisor.session(&mut db).run().unwrap();
        assert_eq!(arms, round.arms);
    }

    #[test]
    fn transcript_unchanged_when_bandit_is_off() {
        // The new variants must not perturb the default-path event stream:
        // same queries, same events, with or without the bandit compiled-in
        // state sitting idle inside the advisor.
        let run = || {
            let mut o = online();
            let mut log = Vec::new();
            for i in 0..900 {
                let fed = o.feed(&format!("SELECT * FROM t WHERE a = {i}"));
                log.push(format!("{:?}", std::mem::discriminant(&fed.event)));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_error_keeps_the_outcome() {
        // Parseable by the statement parser but rejected by template
        // extraction is hard to fabricate; instead verify the contract
        // directly: outcome and error are independent fields, and a
        // successful observe leaves error None while executed advances.
        let mut o = online();
        let fed = o.feed("SELECT * FROM t WHERE a = 1");
        assert!(fed.outcome.is_some() && fed.error.is_none());
        assert_eq!(o.executed(), 1);
    }
}
