//! Guarded apply: shadow-verified recommendations with automatic rollback.
//!
//! The paper's deployment claim is that index management can run
//! *continuously* against production traffic (§I, §III). That is only true
//! if a bad recommendation — or a database that misbehaves while one is
//! being applied — cannot leave the system worse off. This module is the
//! safety layer (see `docs/ROBUSTNESS.md` for the full lifecycle), in two
//! halves. [`apply_atomically`] is what every guarded apply does, one-shot
//! or not:
//!
//! 1. **Shadow verification** — a recommendation is admitted only if its
//!    *hypothetical* (what-if priced) improvement is not a predicted loss
//!    (`SHADOW_MIN_IMPROVEMENT`). The pricing already happened inside the
//!    recommender, so admission makes **zero** extra what-if calls —
//!    guarded and unguarded runs are probe-for-probe identical.
//! 2. **Fault-safe apply** — before any DDL, the current index set is
//!    snapshotted ([`IndexSnapshot`]). Index builds that fail (e.g. under
//!    an injected [`FaultPlan`](autoindex_storage::FaultPlan)) are retried
//!    [`GuardConfig::build_retries`] times; if a build keeps failing the
//!    snapshot is restored through the privileged, never-faulting
//!    [`SimDb::restore_index`] path — the catalog always ends in either
//!    the pre-apply or the fully-applied state, atomically.
//!
//! [`Guard`] is the lifecycle around that apply, which only a loop that
//! keeps measuring after it can drive (the online loop):
//!
//! 3. **Probation** — after a successful apply the guard watches *measured*
//!    latency for [`GuardConfig::probation_statements`] statements and
//!    compares it against a pre-apply baseline window. A mean regression
//!    beyond [`GuardConfig::max_regression`] triggers automatic rollback
//!    to the snapshot.
//! 4. **Backoff** — each failure (apply fault or probation regression)
//!    starts an exponentially growing cooldown (`COOLDOWN_FACTOR`) during
//!    which tuning is suppressed; after [`GuardConfig::observe_only_after`]
//!    consecutive failures the guard degrades to *observe-only* mode and
//!    refuses to tune until an operator resets it.
//!
//! Every transition is counted under the `guard.*` metric names in the
//! database's [`MetricsRegistry`].

use crate::error::{invalid, AutoIndexError};
use crate::strategy::relative_change;
use crate::system::Recommendation;
use autoindex_storage::index::{IndexDef, IndexId};
use autoindex_storage::planner::IndexView;
use autoindex_storage::{SimDb, StorageError};
use autoindex_support::obs::{Counter, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Least estimated (shadow) relative improvement an admitted change
/// carries: anything but a predicted loss, which a bandit arm can carry.
const SHADOW_MIN_IMPROVEMENT: f64 = 0.0;

/// Cooldown growth per consecutive failure (exponential backoff).
const COOLDOWN_FACTOR: f64 = 2.0;

/// Tunables of the guard pipeline. [`GuardConfig::validate`] checks them.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Length of the probation window, in executed statements.
    pub probation_statements: u64,
    /// Minimum measured-latency samples required for a probation verdict;
    /// with fewer samples the window extends until they exist.
    pub min_probation_samples: u64,
    /// Maximum tolerated relative regression of mean measured latency
    /// during probation versus the pre-apply baseline (`0.25` = +25%).
    pub max_regression: f64,
    /// Number of recent pre-apply latencies kept as the baseline.
    pub baseline_window: usize,
    /// First cooldown after a failure, in executed statements.
    pub cooldown_initial: u64,
    /// Cooldown ceiling, in executed statements.
    pub cooldown_max: u64,
    /// Enter observe-only mode after this many *consecutive* failures.
    pub observe_only_after: u32,
    /// Retries per failing `create_index` before the apply is abandoned
    /// and rolled back.
    pub build_retries: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            probation_statements: 300,
            min_probation_samples: 20,
            max_regression: 0.25,
            baseline_window: 200,
            cooldown_initial: 500,
            cooldown_max: 8_000,
            observe_only_after: 4,
            build_retries: 2,
        }
    }
}

impl GuardConfig {
    /// Check every field.
    pub fn validate(&self) -> Result<(), AutoIndexError> {
        if self.probation_statements == 0 {
            return Err(invalid("guard.probation_statements", "must be >= 1"));
        }
        if self.baseline_window == 0 {
            return Err(invalid("guard.baseline_window", "must be >= 1"));
        }
        if !self.max_regression.is_finite() || self.max_regression < 0.0 {
            return Err(invalid("guard.max_regression", "must be finite and >= 0"));
        }
        if self.cooldown_max < self.cooldown_initial {
            return Err(invalid("guard.cooldown_max", "must be >= cooldown_initial"));
        }
        if self.observe_only_after == 0 {
            return Err(invalid("guard.observe_only_after", "must be >= 1"));
        }
        Ok(())
    }

    /// Cooldown length after the `failures`-th consecutive failure:
    /// `cooldown_initial × COOLDOWN_FACTOR^(failures-1)`, capped at
    /// `cooldown_max`.
    pub fn cooldown_after(&self, failures: u32) -> u64 {
        if failures == 0 {
            return 0;
        }
        let scaled = self.cooldown_initial as f64 * COOLDOWN_FACTOR.powi(failures as i32 - 1);
        (scaled as u64)
            .min(self.cooldown_max)
            .max(self.cooldown_initial.min(self.cooldown_max))
    }
}

/// A point-in-time snapshot of the real index set, sufficient to restore
/// it byte-identically (definitions are the identity; ids are ephemeral).
/// It is the database's own [`IndexView`], shared as a [`DbSnapshot`]
/// shares it: capturing copies nothing, and the next DDL on the database
/// edits a copy.
///
/// [`DbSnapshot`]: autoindex_storage::DbSnapshot
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    view: Arc<IndexView>,
}

impl IndexSnapshot {
    /// Capture the database's current real index set.
    pub fn capture(db: &SimDb) -> Self {
        IndexSnapshot {
            view: db.shared_index_view(),
        }
    }

    /// The snapshotted index set's [`IndexView::fingerprint`]: restoring
    /// the snapshot brings [`SimDb::index_fingerprint`] back to it, and a
    /// serve transcript prints it for this set.
    pub fn fingerprint(&self) -> u64 {
        self.view.fingerprint()
    }

    /// Restore the database's index set to exactly this snapshot: drops
    /// every index not in the snapshot, in id order, and re-creates every
    /// missing one through the privileged, never-faulting
    /// [`SimDb::restore_index`] path, in `key()` order (ties in snapshot id
    /// order), so a rollback hands out the same ids whatever the set's
    /// history.
    pub fn restore(&self, db: &mut SimDb) -> Result<(), StorageError> {
        let stale: Vec<IndexId> = db
            .indexes()
            .filter(|(_, d)| !self.holds(d))
            .map(|(id, _)| id)
            .collect();
        for id in stale {
            db.drop_index(id)?;
        }
        let mut missing: Vec<_> = self
            .view
            .iter()
            .filter(|vi| db.find_index(&vi.def).is_none())
            .collect();
        missing.sort_by_cached_key(|vi| (vi.def.key(), vi.id));
        for vi in missing {
            db.restore_index(IndexDef::clone(&vi.def))?;
        }
        Ok(())
    }

    /// Whether the database's current index set equals this snapshot.
    pub fn matches(&self, db: &SimDb) -> bool {
        db.index_count() == self.view.len() && db.indexes().all(|(_, d)| self.holds(d))
    }

    /// Whether the snapshot holds `def`, scope and directions included.
    fn holds(&self, def: &IndexDef) -> bool {
        self.view.table(&def.table).iter().any(|vi| *vi.def == *def)
    }
}

/// Where the guard currently is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardPhase {
    /// Ready to admit and apply recommendations.
    Idle,
    /// A recommendation is applied and being measured; rollback is armed.
    Probation {
        /// Statement count at which the verdict is due.
        until: u64,
    },
    /// A failure occurred; tuning is suppressed until the backoff expires.
    Cooldown {
        /// Statement count at which the cooldown ends.
        until: u64,
    },
    /// Too many consecutive failures: tuning is suspended until
    /// [`Guard::reset`].
    ObserveOnly,
}

/// A lifecycle transition worth surfacing to the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardEvent {
    /// Probation ended without a regression; the change is accepted.
    ProbationPassed { baseline_ms: f64, probation_ms: f64 },
    /// Probation measured a regression beyond `max_regression`; the
    /// pre-apply snapshot was restored
    /// ([`RollbackReason::ProbationRegression`]).
    RolledBack(RollbackReason),
    /// A cooldown expired; the guard is idle again.
    CooldownEnded,
    /// Consecutive failures crossed `observe_only_after`; tuning is
    /// suspended.
    EnteredObserveOnly,
}

/// Why a guarded apply did not go through.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyVerdict {
    /// The DDL went through (or there was none to do). A [`Guard`] arms
    /// probation on an applied change; a one-shot apply accepts it.
    Applied,
    /// The shadow check rejected the recommendation (no DDL happened).
    ShadowRejected { improvement: f64, required: f64 },
    /// DDL kept faulting; the snapshot was restored
    /// ([`RollbackReason::ApplyFaults`]).
    RolledBack(RollbackReason),
}

/// Why a guarded configuration change was undone: the payload of both
/// [`GuardEvent::RolledBack`] and [`ApplyVerdict::RolledBack`].
#[derive(Debug, Clone, PartialEq)]
pub enum RollbackReason {
    /// DDL kept faulting during apply; the pre-apply snapshot was
    /// restored before anything became visible.
    ApplyFaults {
        /// Build faults absorbed before giving up.
        build_faults: u32,
        /// Fingerprint of the restored index set.
        restored_fingerprint: u64,
    },
    /// Measured latency regressed beyond `max_regression` during
    /// probation.
    ProbationRegression {
        baseline_ms: f64,
        probation_ms: f64,
        /// Relative regression that triggered the rollback.
        regression: f64,
        /// Fingerprint of the restored index set.
        restored_fingerprint: u64,
    },
}

/// Atomic apply: shadow admission, snapshot, drop, create with
/// `config.build_retries` retries per index (the one field it reads); on a
/// build that keeps faulting, restore the snapshot and report a rollback.
/// It moves `guard.applies`, `guard.shadow_rejects`, `guard.apply_faults`
/// and `guard.rollbacks` in the database's registry.
///
/// Returns the DDL performed (empty on rollback or rejection) plus the
/// verdict.
pub fn apply_atomically(
    db: &mut SimDb,
    rec: &Recommendation,
    config: &GuardConfig,
) -> (Vec<IndexId>, Vec<IndexDef>, ApplyVerdict) {
    let (pre, obs) = (IndexSnapshot::capture(db), GuardMetrics::bind(db.metrics()));
    apply_from(db, rec, &pre, config.build_retries, &obs)
}

/// [`apply_atomically`] from the snapshot `pre` of `db`'s index set.
fn apply_from(
    db: &mut SimDb,
    rec: &Recommendation,
    pre: &IndexSnapshot,
    build_retries: u32,
    obs: &GuardMetrics,
) -> (Vec<IndexId>, Vec<IndexDef>, ApplyVerdict) {
    if rec.is_noop() {
        return (Vec::new(), Vec::new(), ApplyVerdict::Applied);
    }
    // Shadow verification on the recommender's own estimates: no what-if
    // call. The estimate is read before `Recommendation::improvement`'s
    // floor at zero, so a predicted loss reads negative. A pure-removal
    // (prune) recommendation reclaims storage headroom even at zero
    // estimated improvement; the recommender only emits it deliberately.
    let improvement = relative_change(rec.est_cost_before, rec.est_cost_after);
    if !rec.add.is_empty() && improvement < SHADOW_MIN_IMPROVEMENT {
        obs.shadow_rejects.incr();
        let verdict = ApplyVerdict::ShadowRejected {
            improvement,
            required: SHADOW_MIN_IMPROVEMENT,
        };
        return (Vec::new(), Vec::new(), verdict);
    }

    let dropped = drop_removed(db, rec);
    let mut created = Vec::new();
    let mut build_faults = 0u32;
    for d in &rec.add {
        let mut attempts = 0;
        loop {
            match db.create_index(d.clone()) {
                Ok(id) => {
                    created.push(id);
                    break;
                }
                Err(StorageError::DuplicateIndex(_)) => break, // already there
                Err(_) => {
                    build_faults += 1;
                    obs.apply_faults.incr();
                    attempts += 1;
                    if attempts > build_retries {
                        pre.restore(db)
                            .expect("snapshot restore is metadata-only and cannot fail");
                        obs.rollbacks.incr();
                        let verdict = ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
                            build_faults,
                            restored_fingerprint: pre.fingerprint(),
                        });
                        return (Vec::new(), Vec::new(), verdict);
                    }
                }
            }
        }
    }
    obs.applies.incr();
    (created, dropped, ApplyVerdict::Applied)
}

/// Unguarded apply: drops, then creates, ignoring individual DDL
/// failures — the fault-oblivious baseline [`apply_atomically`] wraps.
/// Returns what was created and dropped.
pub(crate) fn apply_unguarded(
    db: &mut SimDb,
    rec: &Recommendation,
) -> (Vec<IndexId>, Vec<IndexDef>) {
    let dropped = drop_removed(db, rec);
    let created = (rec.add.iter())
        .filter_map(|d| db.create_index(d.clone()).ok())
        .collect();
    (created, dropped)
}

/// Drop every index `rec` removes that the database holds; returns the
/// definitions dropped.
fn drop_removed(db: &mut SimDb, rec: &Recommendation) -> Vec<IndexDef> {
    let mut dropped = Vec::new();
    for d in &rec.remove {
        if let Some(id) = db.find_index(d) {
            if db.drop_index(id).is_ok() {
                dropped.push(d.clone());
            }
        }
    }
    dropped
}

/// Cached `guard.*` metric handles.
#[derive(Debug, Clone)]
struct GuardMetrics {
    applies: Counter,
    shadow_rejects: Counter,
    probations: Counter,
    probation_passes: Counter,
    rollbacks: Counter,
    apply_faults: Counter,
    cooldowns: Counter,
    observe_only_entries: Counter,
}

impl GuardMetrics {
    fn bind(m: &MetricsRegistry) -> Self {
        GuardMetrics {
            applies: m.counter("guard.applies"),
            shadow_rejects: m.counter("guard.shadow_rejects"),
            probations: m.counter("guard.probations"),
            probation_passes: m.counter("guard.probation_passes"),
            rollbacks: m.counter("guard.rollbacks"),
            apply_faults: m.counter("guard.apply_faults"),
            cooldowns: m.counter("guard.cooldowns"),
            observe_only_entries: m.counter("guard.observe_only_entries"),
        }
    }
}

/// The guard lifecycle around [`apply_atomically`]: probation over measured
/// latency, rollback, cooldown and observe-only. One instance lives inside
/// the online loop and persists across tuning rounds; a caller that
/// measures nothing after an apply calls [`apply_atomically`] instead.
#[derive(Debug)]
pub struct Guard {
    config: GuardConfig,
    phase: GuardPhase,
    /// Recent measured latencies while *not* in probation (the baseline).
    baseline: VecDeque<f64>,
    /// Measured latencies during the current probation window.
    probation_samples: Vec<f64>,
    /// Baseline mean frozen at apply time (what probation compares to).
    baseline_at_apply: f64,
    /// Pre-apply snapshot while probation is armed.
    snapshot: Option<IndexSnapshot>,
    consecutive_failures: u32,
    obs: GuardMetrics,
}

impl Guard {
    /// Create a guard recording `guard.*` metrics into `metrics`.
    pub fn new(config: GuardConfig, metrics: &MetricsRegistry) -> Self {
        Guard {
            config,
            phase: GuardPhase::Idle,
            baseline: VecDeque::new(),
            probation_samples: Vec::new(),
            baseline_at_apply: 0.0,
            snapshot: None,
            consecutive_failures: 0,
            obs: GuardMetrics::bind(metrics),
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> &GuardPhase {
        &self.phase
    }

    /// Operator override: leave observe-only (or any) mode and return to
    /// idle with a clean failure count. Does not touch the index set.
    pub fn reset(&mut self) {
        self.phase = GuardPhase::Idle;
        self.consecutive_failures = 0;
        self.snapshot = None;
        self.probation_samples.clear();
    }

    /// Record one measured statement latency. Baseline samples accumulate
    /// outside probation; probation samples accumulate inside it.
    pub fn record_latency(&mut self, latency_ms: f64) {
        if !latency_ms.is_finite() {
            return;
        }
        match self.phase {
            GuardPhase::Probation { .. } => self.probation_samples.push(latency_ms),
            _ => {
                if self.baseline.len() >= self.config.baseline_window {
                    self.baseline.pop_front();
                }
                self.baseline.push_back(latency_ms);
            }
        }
    }

    /// Whether a tuning round may start now.
    pub fn can_tune(&self) -> bool {
        matches!(self.phase, GuardPhase::Idle)
    }

    /// [`apply_atomically`], then the lifecycle step at statement clock
    /// `executed`: an applied change enters probation (verdict due at
    /// `executed + probation_statements`), a rollback counts as a failure
    /// (cooldown or observe-only).
    pub fn apply(
        &mut self,
        db: &mut SimDb,
        rec: &Recommendation,
        executed: u64,
    ) -> (Vec<IndexId>, Vec<IndexDef>, ApplyVerdict) {
        let pre = IndexSnapshot::capture(db);
        let (created, dropped, verdict) =
            apply_from(db, rec, &pre, self.config.build_retries, &self.obs);
        match verdict {
            ApplyVerdict::Applied if !rec.is_noop() => {
                self.obs.probations.incr();
                self.baseline_at_apply = mean(self.baseline.iter().copied());
                self.probation_samples.clear();
                self.snapshot = Some(pre);
                self.phase = GuardPhase::Probation {
                    until: executed + self.config.probation_statements,
                };
            }
            ApplyVerdict::RolledBack(_) => self.register_failure(executed),
            _ => {}
        }
        (created, dropped, verdict)
    }

    /// Drive the lifecycle after each executed statement: deliver probation
    /// verdicts (accept or roll back) and expire cooldowns. `executed` is
    /// the caller's monotone statement counter.
    pub fn poll(&mut self, executed: u64, db: &mut SimDb) -> Option<GuardEvent> {
        match self.phase.clone() {
            GuardPhase::Probation { until } => {
                if executed < until
                    || (self.probation_samples.len() as u64) < self.config.min_probation_samples
                {
                    return None;
                }
                let baseline_ms = self.baseline_at_apply;
                let probation_ms = mean(self.probation_samples.iter().copied());
                let regression = if baseline_ms > 0.0 {
                    (probation_ms - baseline_ms) / baseline_ms
                } else {
                    0.0
                };
                if regression > self.config.max_regression {
                    let snapshot = self
                        .snapshot
                        .take()
                        .expect("probation always holds a snapshot");
                    snapshot
                        .restore(db)
                        .expect("snapshot restore is metadata-only and cannot fail");
                    self.obs.rollbacks.incr();
                    let fp = snapshot.fingerprint();
                    // Probation latencies were measured under the bad
                    // configuration; do not pollute the baseline with them.
                    self.probation_samples.clear();
                    self.register_failure(executed);
                    let entered_observe_only = matches!(self.phase, GuardPhase::ObserveOnly);
                    return Some(if entered_observe_only {
                        GuardEvent::EnteredObserveOnly
                    } else {
                        GuardEvent::RolledBack(RollbackReason::ProbationRegression {
                            baseline_ms,
                            probation_ms,
                            regression,
                            restored_fingerprint: fp,
                        })
                    });
                }
                // Accepted: fold probation samples into the baseline.
                self.obs.probation_passes.incr();
                for s in std::mem::take(&mut self.probation_samples) {
                    if self.baseline.len() >= self.config.baseline_window {
                        self.baseline.pop_front();
                    }
                    self.baseline.push_back(s);
                }
                self.snapshot = None;
                self.consecutive_failures = 0;
                self.phase = GuardPhase::Idle;
                Some(GuardEvent::ProbationPassed {
                    baseline_ms,
                    probation_ms,
                })
            }
            GuardPhase::Cooldown { until } => {
                if executed < until {
                    return None;
                }
                self.phase = GuardPhase::Idle;
                Some(GuardEvent::CooldownEnded)
            }
            _ => None,
        }
    }

    /// Count a failure and transition to cooldown or observe-only.
    fn register_failure(&mut self, executed: u64) {
        self.consecutive_failures += 1;
        self.snapshot = None;
        if self.consecutive_failures >= self.config.observe_only_after {
            self.obs.observe_only_entries.incr();
            self.phase = GuardPhase::ObserveOnly;
        } else {
            self.obs.cooldowns.incr();
            let len = self.config.cooldown_after(self.consecutive_failures);
            self.phase = GuardPhase::Cooldown {
                until: executed + len,
            };
        }
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::fault::{FaultPlan, FaultPlanConfig};
    use autoindex_storage::index::IndexScope;
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 400_000)
                .column(Column::int("a", 400_000))
                .column(Column::int("b", 40))
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
    }

    fn rec(add: &[IndexDef], remove: &[IndexDef]) -> Recommendation {
        Recommendation {
            add: add.to_vec(),
            remove: remove.to_vec(),
            est_cost_before: 100.0,
            est_cost_after: 50.0,
        }
    }

    #[test]
    fn snapshot_restore_roundtrips_fingerprint() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["a"])).unwrap();
        let snap = IndexSnapshot::capture(&db);
        let fp = snap.fingerprint();
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        db.drop_index(db.find_index(&IndexDef::new("t", &["a"])).unwrap())
            .unwrap();
        assert_ne!(IndexSnapshot::capture(&db).fingerprint(), fp);
        snap.restore(&mut db).unwrap();
        assert_eq!(IndexSnapshot::capture(&db).fingerprint(), fp);
        assert_eq!(db.index_fingerprint(), fp);
        assert!(snap.matches(&db));
    }

    #[test]
    fn snapshot_fingerprints_tell_scopes_apart() {
        let global = IndexDef::new("t", &["a"]);
        let local = global.clone().with_scope(IndexScope::Local);
        assert_eq!(global.key(), local.key(), "the key omits the scope");
        let (mut a, mut b) = (db(), db());
        a.create_index(global).unwrap();
        b.create_index(local.clone()).unwrap();
        let (sa, sb) = (IndexSnapshot::capture(&a), IndexSnapshot::capture(&b));
        assert_ne!(sa.fingerprint(), sb.fingerprint());
        assert!(!sb.matches(&a));
        // Restoring the LOCAL set over the GLOBAL one swaps the scope.
        sb.restore(&mut a).unwrap();
        assert!(sb.matches(&a));
        assert_eq!(a.index_fingerprint(), sb.fingerprint());
        assert_eq!(a.indexes().map(|(_, d)| d).collect::<Vec<_>>(), [&local]);
    }

    #[test]
    fn restore_recreates_missing_indexes_in_key_order() {
        let mut db = db();
        let (a, b) = (IndexDef::new("t", &["a"]), IndexDef::new("t", &["b"]));
        db.create_index(b.clone()).unwrap();
        db.create_index(a.clone()).unwrap();
        let snap = IndexSnapshot::capture(&db);
        for id in [IndexId(0), IndexId(1)] {
            db.drop_index(id).unwrap();
        }
        snap.restore(&mut db).unwrap();
        assert_eq!(db.find_index(&a), Some(IndexId(2)));
        assert_eq!(db.find_index(&b), Some(IndexId(3)));
    }

    #[test]
    fn apply_success_enters_probation_and_pass_returns_to_idle() {
        let mut db = db();
        let mut g = Guard::new(
            GuardConfig {
                probation_statements: 10,
                min_probation_samples: 2,
                ..GuardConfig::default()
            },
            db.metrics(),
        );
        for _ in 0..50 {
            g.record_latency(1.0);
        }
        let (created, _, verdict) = g.apply(&mut db, &rec(&[IndexDef::new("t", &["a"])], &[]), 0);
        assert_eq!(verdict, ApplyVerdict::Applied);
        assert_eq!(created.len(), 1);
        assert!(matches!(g.phase(), GuardPhase::Probation { until: 10 }));
        // Latency holds steady → probation passes.
        for _ in 0..10 {
            g.record_latency(1.0);
        }
        let ev = g.poll(10, &mut db);
        assert!(
            matches!(ev, Some(GuardEvent::ProbationPassed { .. })),
            "{ev:?}"
        );
        assert!(g.can_tune());
        assert_eq!(db.metrics().counter_value("guard.probation_passes"), 1);
        assert_eq!(g.consecutive_failures, 0);
    }

    #[test]
    fn probation_regression_rolls_back_to_snapshot() {
        let mut db = db();
        let pre = IndexSnapshot::capture(&db);
        let mut g = Guard::new(
            GuardConfig {
                probation_statements: 5,
                min_probation_samples: 2,
                max_regression: 0.25,
                ..GuardConfig::default()
            },
            db.metrics(),
        );
        for _ in 0..20 {
            g.record_latency(1.0);
        }
        let (_, _, verdict) = g.apply(&mut db, &rec(&[IndexDef::new("t", &["a"])], &[]), 0);
        assert_eq!(verdict, ApplyVerdict::Applied);
        assert_eq!(db.index_count(), 1);
        // Latency doubles during probation → rollback.
        for _ in 0..5 {
            g.record_latency(2.0);
        }
        let ev = g.poll(5, &mut db).unwrap();
        match ev {
            GuardEvent::RolledBack(RollbackReason::ProbationRegression {
                regression,
                restored_fingerprint,
                ..
            }) => {
                assert!(regression > 0.9);
                assert_eq!(restored_fingerprint, pre.fingerprint());
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(db.index_count(), 0, "rollback removed the new index");
        assert!(matches!(g.phase(), GuardPhase::Cooldown { .. }));
        assert_eq!(db.metrics().counter_value("guard.rollbacks"), 1);
        assert!(!g.can_tune());
    }

    #[test]
    fn cooldown_backoff_grows_exponentially_and_caps() {
        let c = GuardConfig {
            cooldown_initial: 100,
            cooldown_max: 500,
            ..GuardConfig::default()
        };
        assert_eq!(c.cooldown_after(1), 100);
        assert_eq!(c.cooldown_after(2), 200);
        assert_eq!(c.cooldown_after(3), 400);
        assert_eq!(c.cooldown_after(4), 500, "capped");
        assert_eq!(c.cooldown_after(30), 500, "no overflow at large counts");
    }

    #[test]
    fn persistent_build_faults_roll_back_atomically() {
        let mut db = db();
        db.create_index(IndexDef::new("t", &["b"])).unwrap();
        let pre = IndexSnapshot::capture(&db);
        db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
            build_failure: 1.0,
            ..FaultPlanConfig::default()
        })));
        // The recommendation drops t(b) and adds t(a); the add can never
        // build, so the whole change must unwind.
        let r = rec(&[IndexDef::new("t", &["a"])], &[IndexDef::new("t", &["b"])]);
        let (created, dropped, verdict) = apply_atomically(&mut db, &r, &GuardConfig::default());
        assert!(created.is_empty() && dropped.is_empty());
        match verdict {
            ApplyVerdict::RolledBack(RollbackReason::ApplyFaults {
                build_faults,
                restored_fingerprint,
            }) => {
                assert_eq!(build_faults, GuardConfig::default().build_retries + 1);
                assert_eq!(restored_fingerprint, pre.fingerprint());
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert!(pre.matches(&db), "catalog is back to the pre-apply state");
        assert!(db.metrics().counter_value("guard.rollbacks") >= 1);
        assert!(db.metrics().counter_value("guard.apply_faults") >= 1);
        assert_eq!(
            db.metrics().counter_value("guard.cooldowns"),
            0,
            "a one-shot apply schedules no cooldown"
        );
    }

    #[test]
    fn repeated_failures_enter_observe_only_until_reset() {
        let mut db = db();
        db.set_fault_plan(Some(FaultPlan::new(FaultPlanConfig {
            build_failure: 1.0,
            ..FaultPlanConfig::default()
        })));
        let mut g = Guard::new(
            GuardConfig {
                observe_only_after: 2,
                cooldown_initial: 1,
                cooldown_max: 1,
                ..GuardConfig::default()
            },
            db.metrics(),
        );
        let r = rec(&[IndexDef::new("t", &["a"])], &[]);
        let mut executed = 0;
        let (_, _, v1) = g.apply(&mut db, &r, executed);
        assert!(matches!(v1, ApplyVerdict::RolledBack(_)));
        assert!(matches!(g.phase(), GuardPhase::Cooldown { .. }));
        executed += 10;
        assert!(matches!(
            g.poll(executed, &mut db),
            Some(GuardEvent::CooldownEnded)
        ));
        let (_, _, v2) = g.apply(&mut db, &r, executed);
        assert!(matches!(v2, ApplyVerdict::RolledBack(_)));
        assert!(matches!(g.phase(), GuardPhase::ObserveOnly));
        assert!(!g.can_tune());
        assert_eq!(db.metrics().counter_value("guard.observe_only_entries"), 1);
        g.reset();
        assert!(g.can_tune());
        assert_eq!(g.consecutive_failures, 0);
    }

    #[test]
    fn shadow_rejection_makes_no_ddl() {
        let mut db = db();
        let mut g = Guard::new(GuardConfig::default(), db.metrics());
        // An estimate that predicts a loss: 100 → 120.
        let loss = Recommendation {
            est_cost_after: 120.0,
            ..rec(&[IndexDef::new("t", &["a"])], &[])
        };
        let (created, dropped, verdict) = g.apply(&mut db, &loss, 0);
        assert!(created.is_empty() && dropped.is_empty());
        assert!(matches!(verdict, ApplyVerdict::ShadowRejected { .. }));
        assert_eq!(db.index_count(), 0);
        assert_eq!(db.metrics().counter_value("guard.shadow_rejects"), 1);
        assert!(g.can_tune(), "a shadow reject is not a failure");
    }

    #[test]
    fn builder_validates() {
        let with = |f: fn(&mut GuardConfig)| {
            let mut c = GuardConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(GuardConfig::default().validate().is_ok());
        assert!(with(|c| c.probation_statements = 0).is_err());
        assert!(with(|c| c.max_regression = -1.0).is_err());
        assert!(with(|c| {
            c.cooldown_initial = 100;
            c.cooldown_max = 10;
        })
        .is_err());
        assert!(with(|c| c.observe_only_after = 0).is_err());
        let c = GuardConfig {
            max_regression: 0.5,
            probation_statements: 42,
            ..GuardConfig::default()
        };
        assert!(c.validate().is_ok());
        assert_eq!(c.probation_statements, 42);
        assert_eq!(c.max_regression, 0.5);
    }
}
