//! Drift scenario generators for the PR9 strategy comparison.
//!
//! Each scenario is a deterministic single-tenant statement stream with a
//! marked *drift point*: the workload's shape changes abruptly there, and
//! the tuning strategy under test has to re-converge. The `drift_matrix`
//! bench (and `crates/core/tests/drift_regret.rs`) replays every stream under
//! greedy, MCTS and the C²UCB bandit, scoring cumulative regret against a
//! hindsight oracle and recovery-time-to-SLO after the drift point.
//!
//! The four shapes mirror the failure modes the DBA-bandits line of work
//! calls out for reactive advisors:
//!
//! * [`flash_crowd`] — a previously-cold point-lookup template suddenly
//!   dominates (a viral key range). The right index changes in one step.
//! * [`seasonal_shift`] — the OLTP/OLAP mix flips (end-of-quarter
//!   reporting): gradual template-weight rebalancing, not a new template.
//! * [`schema_migration`] — the application migrates to a new access
//!   path: old filter columns go quiet, new ones appear, and indexes
//!   built for the old path become dead weight to drop.
//! * [`adhoc_bursts`] — analyst sessions fire families of one-off
//!   analytic shapes with low template repetition, the regime where a
//!   template-frequency advisor starves for signal.
//!
//! All four run against the scaled-down banking tenant catalog
//! ([`crate::fleet::tenant_catalog`]) so per-statement simulated costs
//! stay cheap enough for matrix sweeps.

use autoindex_storage::catalog::Catalog;
use autoindex_storage::index::IndexDef;
use autoindex_support::rng::{derive_seed, StdRng};

use crate::fleet::{tenant_catalog, tenant_dba_indexes};

/// One drift scenario: schema, starting indexes, the statement stream and
/// where in the stream the drift happens.
pub struct DriftScenario {
    /// Stable scenario name (`"flash_crowd"`, ...), used as the BENCH key.
    pub name: &'static str,
    /// The scenario's catalog (the scaled banking tenant schema).
    pub catalog: Catalog,
    /// Starting index set (the hand-crafted DBA mix, so every strategy
    /// begins from the same imperfect configuration).
    pub start_indexes: Vec<IndexDef>,
    /// The deterministic statement stream.
    pub queries: Vec<String>,
    /// Index of the first post-drift statement.
    pub drift_at: usize,
    /// Mean-latency SLO (simulated ms per statement) used by the
    /// recovery-time-to-SLO metric. Scenario-specific: set between the
    /// tuned and untuned steady-state means of the post-drift phase.
    pub slo_mean_ms: f64,
}

/// Accounts for every drift scenario's catalog — small enough for matrix
/// sweeps, big enough that missing indexes hurt measurably.
const ACCOUNTS: u64 = 3_000;

fn scenario(
    name: &'static str,
    queries: Vec<String>,
    drift_at: usize,
    slo_mean_ms: f64,
) -> DriftScenario {
    DriftScenario {
        name,
        catalog: tenant_catalog(ACCOUNTS),
        start_indexes: tenant_dba_indexes(),
        queries,
        drift_at,
        slo_mean_ms,
    }
}

/// Steady withdrawal-style lookups by primary key, then a flash crowd:
/// point lookups on `withdraw_flow.teller_id` (cold before the drift —
/// no starting index covers it) suddenly dominate the stream.
pub fn flash_crowd(seed: u64, statements: usize) -> DriftScenario {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x0f1a));
    let drift_at = statements / 2;
    let mut q = Vec::with_capacity(statements);
    for i in 0..statements {
        if i < drift_at {
            // Pre-drift: healthy PK traffic the starting indexes cover.
            let acct = rng.random_range(1..=ACCOUNTS);
            q.push(format!("SELECT * FROM account WHERE acct_id = {acct}"));
        } else {
            // Post-drift: ~90% flash-crowd lookups on an unindexed column.
            if rng.random_bool(0.9) {
                let teller = rng.random_range(1..=600u64);
                q.push(format!(
                    "SELECT * FROM withdraw_flow WHERE teller_id = {teller}"
                ));
            } else {
                let acct = rng.random_range(1..=ACCOUNTS);
                q.push(format!("SELECT * FROM account WHERE acct_id = {acct}"));
            }
        }
    }
    scenario("flash_crowd", q, drift_at, 1.0)
}

/// OLTP-heavy (indexed journal lookups + inserts) flips to OLAP-heavy
/// (range aggregations over `txn_journal.kind`/`amount`) at the drift
/// point — the fleet generator's seasonal mix flip, single-tenant.
pub fn seasonal_shift(seed: u64, statements: usize) -> DriftScenario {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5ea5));
    let drift_at = statements / 2;
    let journal = ACCOUNTS * 4;
    let mut q = Vec::with_capacity(statements);
    for i in 0..statements {
        let olap = if i < drift_at {
            rng.random_bool(0.1)
        } else {
            rng.random_bool(0.85)
        };
        if olap {
            let kind = rng.random_range(1..=12u64);
            q.push(format!(
                "SELECT acct_id, COUNT(*) FROM txn_journal WHERE kind = {kind} \
                 GROUP BY acct_id ORDER BY acct_id"
            ));
        } else if rng.random_bool(0.3) {
            let id = rng.random_range(1..=journal);
            let acct = rng.random_range(1..=ACCOUNTS);
            let amt = rng.random_range(1..=90_000u64);
            q.push(format!(
                "INSERT INTO txn_journal (jrn_id, acct_id, ts, kind, amount) \
                 VALUES ({id}, {acct}, {id}, 3, {amt})"
            ));
        } else {
            let id = rng.random_range(1..=journal);
            q.push(format!("SELECT * FROM txn_journal WHERE jrn_id = {id}"));
        }
    }
    scenario("seasonal_shift", q, drift_at, 3.0)
}

/// The application migrates its card-lookup path: before the drift every
/// lookup goes by `card_id` (indexed); after it, by
/// `acct_id, card_status` (unindexed), leaving the old index as pure
/// maintenance weight on the residual write traffic.
pub fn schema_migration(seed: u64, statements: usize) -> DriftScenario {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x516a));
    let drift_at = statements / 2;
    let cards = ACCOUNTS * 3 / 2;
    let mut q = Vec::with_capacity(statements);
    for i in 0..statements {
        if rng.random_bool(0.15) {
            let id = rng.random_range(1..=cards);
            let acct = rng.random_range(1..=ACCOUNTS);
            q.push(format!(
                "INSERT INTO card (card_id, acct_id, card_status) VALUES ({id}, {acct}, 1)"
            ));
        } else if i < drift_at {
            let id = rng.random_range(1..=cards);
            q.push(format!("SELECT * FROM card WHERE card_id = {id}"));
        } else {
            let acct = rng.random_range(1..=ACCOUNTS);
            let status = rng.random_range(1..=4u64);
            q.push(format!(
                "SELECT * FROM card WHERE acct_id = {acct} AND card_status = {status}"
            ));
        }
    }
    scenario("schema_migration", q, drift_at, 0.4)
}

/// Analyst sessions: steady PK traffic with bursts of ad-hoc analytic
/// shapes after the drift point. Each burst draws filters from a family
/// of column/predicate combinations, so individual templates repeat
/// rarely — the ad-hoc regime DBA-bandits targets.
pub fn adhoc_bursts(seed: u64, statements: usize) -> DriftScenario {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xadc0));
    let drift_at = statements / 2;
    let flows = ACCOUNTS * 5 / 2;
    let mut q = Vec::with_capacity(statements);
    for i in 0..statements {
        if i >= drift_at && rng.random_bool(0.7) {
            // An ad-hoc analytic probe over withdraw_flow: a rotating mix
            // of filter columns with randomized constants and varying
            // aggregate tails, all selective on `branch_id`.
            let branch = rng.random_range(1..=75u64);
            let channel = rng.random_range(1..=6u64);
            let ts_lo = rng.random_range(1..=flows / 2);
            q.push(match rng.random_range(0..4u32) {
                0 => format!(
                    "SELECT channel, COUNT(*) FROM withdraw_flow WHERE branch_id = {branch} \
                     GROUP BY channel"
                ),
                1 => format!(
                    "SELECT * FROM withdraw_flow WHERE branch_id = {branch} AND channel = {channel}"
                ),
                2 => format!(
                    "SELECT flow_status, COUNT(*) FROM withdraw_flow WHERE branch_id = {branch} \
                     AND ts > {ts_lo} GROUP BY flow_status"
                ),
                _ => format!(
                    "SELECT * FROM withdraw_flow WHERE branch_id = {branch} \
                     ORDER BY ts LIMIT 50"
                ),
            });
        } else {
            let id = rng.random_range(1..=flows);
            q.push(format!("SELECT * FROM withdraw_flow WHERE flow_id = {id}"));
        }
    }
    scenario("adhoc_bursts", q, drift_at, 1.2)
}

/// All four drift scenarios, in their canonical matrix order.
pub fn drift_scenarios(seed: u64, statements: usize) -> Vec<DriftScenario> {
    vec![
        flash_crowd(seed, statements),
        seasonal_shift(seed, statements),
        schema_migration(seed, statements),
        adhoc_bursts(seed, statements),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;

    #[test]
    fn all_scenarios_parse_and_validate() {
        for s in drift_scenarios(7, 400) {
            assert_eq!(s.queries.len(), 400);
            assert!(s.drift_at > 0 && s.drift_at < s.queries.len());
            assert!(s.slo_mean_ms > 0.0);
            for d in &s.start_indexes {
                d.validate(s.catalog.table(&d.table).expect("table exists"))
                    .expect("start index valid");
            }
            for q in &s.queries {
                parse_statement(q).unwrap_or_else(|e| panic!("{}: bad SQL {q:?}: {e}", s.name));
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = drift_scenarios(11, 300);
        let b = drift_scenarios(11, 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.drift_at, y.drift_at);
        }
        let c = drift_scenarios(12, 300);
        assert_ne!(a[0].queries, c[0].queries, "seed matters");
    }

    #[test]
    fn drift_changes_the_mix() {
        let fc = flash_crowd(5, 400);
        let tellers = |qs: &[String]| qs.iter().filter(|q| q.contains("teller_id")).count();
        assert_eq!(tellers(&fc.queries[..fc.drift_at]), 0);
        assert!(tellers(&fc.queries[fc.drift_at..]) > 100);

        let ss = seasonal_shift(5, 400);
        let olap = |qs: &[String]| qs.iter().filter(|q| q.contains("GROUP BY")).count();
        assert!(olap(&ss.queries[ss.drift_at..]) > 2 * olap(&ss.queries[..ss.drift_at]));

        let sm = schema_migration(5, 400);
        let new_path = |qs: &[String]| qs.iter().filter(|q| q.contains("card_status =")).count();
        assert_eq!(new_path(&sm.queries[..sm.drift_at]), 0);
        assert!(new_path(&sm.queries[sm.drift_at..]) > 100);

        let ab = adhoc_bursts(5, 400);
        let adhoc = |qs: &[String]| qs.iter().filter(|q| q.contains("branch_id =")).count();
        assert_eq!(adhoc(&ab.queries[..ab.drift_at]), 0);
        assert!(adhoc(&ab.queries[ab.drift_at..]) > 80);
    }
}
