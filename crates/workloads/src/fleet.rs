//! Multi-tenant banking fleet generator — T tenants × thousands of
//! accounts, each a scaled-down copy of the [`crate::banking`] scenario.
//!
//! The PR8 serving fleet multiplexes many *logical tenants* (small banking
//! databases) over one executor pool. This module generates
//! the tenant population: every tenant gets its own catalog (8 core
//! banking tables sized in the thousands of accounts, no archival
//! fillers), its own hand-crafted starting index set (with the same
//! useful/redundant/negative mix the full scenario has, so the per-tenant
//! tuner has something to fix), a priority + latency SLO for admission
//! control, and a deterministic query stream seeded per tenant via
//! [`derive_seed`].
//!
//! A fraction of tenants *drift*: their withdrawal/summarization mix flips
//! mid-stream (OLTP-heavy → OLAP-heavy), which changes the statement cost
//! profile and creates the regret signal the fleet's background tuner
//! chases — drifting tenants fall behind their frozen baseline and get
//! visited first.

use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::index::IndexDef;
use autoindex_support::rng::derive_seed;

use crate::banking::BankingGenerator;

/// One tenant of the serving fleet: identity, admission parameters and a
/// fully generated query stream.
pub struct TenantWorkload {
    /// Stable tenant name, e.g. `"tenant-007"`.
    pub name: String,
    /// Admission priority: higher is more important; lowest priorities are
    /// shed first under saturation.
    pub priority: u8,
    /// Declared p50 latency SLO (simulated milliseconds).
    pub slo_p50_ms: f64,
    /// Declared p99 latency SLO (simulated milliseconds).
    pub slo_p99_ms: f64,
    /// Accounts in this tenant's `account` table (thousands).
    pub accounts: u64,
    /// The tenant's private catalog (8 core banking tables).
    pub catalog: Catalog,
    /// The tenant's starting hand-crafted index set.
    pub dba_indexes: Vec<IndexDef>,
    /// The tenant's deterministic query stream.
    pub queries: Vec<String>,
    /// The per-tenant seed (derived from the fleet seed).
    pub seed: u64,
}

/// Build a scaled-down banking catalog for one tenant: the 8 core tables
/// the two services actually touch, sized off `accounts` (thousands, not
/// the full scenario's millions) so per-statement simulated costs stay
/// small enough for million-statement fleet sweeps.
pub fn tenant_catalog(accounts: u64) -> Catalog {
    let accounts = accounts.max(100);
    let customers = (accounts * 2 / 5).max(50);
    let cards = accounts * 3 / 2;
    let flows = accounts * 5 / 2;
    let journal = accounts * 4;
    let branches = (accounts / 40).clamp(10, 500);
    let tellers = branches * 8;
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("account", accounts)
            .column(Column::int("acct_id", accounts))
            .column(Column::int("cust_id", customers))
            .column(Column::int("branch_id", branches))
            .column(Column::float("balance", accounts / 2, 0.0, 1e7))
            .column(Column::int("status", 4))
            .column(Column::int("acct_type", 6))
            .primary_key(&["acct_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("customer_b", customers)
            .column(Column::int("cust_id", customers))
            .column(Column::text("cust_name", customers, 24))
            .column(Column::int("region", 40))
            .column(Column::int("vip_level", 6))
            .primary_key(&["cust_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("card", cards)
            .column(Column::int("card_id", cards))
            .column(Column::int("acct_id", accounts))
            .column(Column::int("card_status", 4))
            .primary_key(&["card_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("branch", branches)
            .column(Column::int("branch_id", branches))
            .column(Column::int("region", 40))
            .column(Column::int("tier", 4))
            .primary_key(&["branch_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("withdraw_flow", flows)
            .column(Column::int("flow_id", flows))
            .column(Column::int("acct_id", accounts))
            .column(Column::int("card_id", cards))
            .column(Column::float("amount", flows / 10, 1.0, 50_000.0))
            .column(Column::int("ts", flows).with_correlation(0.95))
            .column(Column::int("channel", 6))
            .column(Column::int("flow_status", 4))
            .column(Column::int("teller_id", tellers))
            .column(Column::int("branch_id", branches))
            .primary_key(&["flow_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("txn_journal", journal)
            .column(Column::int("jrn_id", journal))
            .column(Column::int("acct_id", accounts))
            .column(Column::int("ts", journal).with_correlation(0.95))
            .column(Column::int("kind", 12))
            .column(Column::float("amount", journal / 16, 0.0, 100_000.0))
            .primary_key(&["jrn_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("summary_daily", branches * 400)
            .column(Column::int("branch_id", branches))
            .column(Column::int("day", 400))
            .column(Column::float("total_amount", branches * 300, 0.0, 1e8))
            .column(Column::int("txn_count", 50_000))
            .primary_key(&["branch_id", "day"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("fee_schedule", 36)
            .column(Column::int("fee_id", 36))
            .column(Column::int("acct_type", 6))
            .column(Column::int("channel", 6))
            .column(Column::float("fee_rate", 36, 0.0, 0.05))
            .primary_key(&["fee_id"])
            .build()
            .expect("static schema"),
    );
    debug_assert_eq!(c.len(), 8);
    c
}

/// A tenant's starting hand-crafted index set: the useful lookup indexes
/// plus a few redundant prefixes and one negative hot-update index, so a
/// tuner visit has real work to do.
pub fn tenant_dba_indexes() -> Vec<IndexDef> {
    vec![
        // Useful lookups.
        IndexDef::new("account", &["acct_id"]),
        IndexDef::new("card", &["card_id"]),
        IndexDef::new("withdraw_flow", &["flow_id"]),
        IndexDef::new("withdraw_flow", &["acct_id", "ts"]),
        IndexDef::new("txn_journal", &["jrn_id"]),
        IndexDef::new("summary_daily", &["branch_id", "day"]),
        IndexDef::new("fee_schedule", &["acct_type", "channel"]),
        // Redundant prefixes of the composites above.
        IndexDef::new("withdraw_flow", &["acct_id"]),
        IndexDef::new("summary_daily", &["branch_id"]),
        // Negative: hot-update column, every withdrawal touches it.
        IndexDef::new("account", &["balance"]),
    ]
}

/// Generate a fleet of `tenants` tenant workloads with
/// `statements_per_tenant` statements each, all derived from the single
/// fleet `seed`.
///
/// Deterministic layout over the tenant index `t`:
/// * accounts: `2_000 + (t % 8) * 1_000` (thousands of accounts);
/// * priority: `t % 16 == 0` → 0 (shed-eligible), else `1 + t % 3`;
/// * SLOs: tighter for higher priorities;
/// * every third tenant *drifts* — its withdrawal fraction flips from 0.9
///   to 0.2 at the half-way point of the stream.
pub fn fleet_workload(
    tenants: usize,
    statements_per_tenant: usize,
    seed: u64,
) -> Vec<TenantWorkload> {
    (0..tenants)
        .map(|t| {
            let tenant_seed = derive_seed(seed, t as u64);
            let accounts = 2_000 + (t as u64 % 8) * 1_000;
            let priority = if t % 16 == 0 { 0 } else { 1 + (t % 3) as u8 };
            let (slo_p50_ms, slo_p99_ms) = match priority {
                0 => (20.0, 60.0),
                1 => (15.0, 45.0),
                2 => (10.0, 30.0),
                _ => (8.0, 25.0),
            };
            let queries = tenant_stream(tenant_seed, statements_per_tenant, t % 3 == 2);
            TenantWorkload {
                name: format!("tenant-{t:03}"),
                priority,
                slo_p50_ms,
                slo_p99_ms,
                accounts,
                catalog: tenant_catalog(accounts),
                dba_indexes: tenant_dba_indexes(),
                queries,
                seed: tenant_seed,
            }
        })
        .collect()
}

/// One tenant's deterministic statement stream. Drifting tenants switch
/// from OLTP-heavy (withdrawal fraction 0.9) to OLAP-heavy (0.2) at the
/// half-way mark; stable tenants hold a 0.7 mix throughout. Both banking
/// services only touch columns the scaled [`tenant_catalog`] keeps, so
/// the full-scenario [`BankingGenerator`] is reused verbatim.
fn tenant_stream(tenant_seed: u64, statements: usize, drifts: bool) -> Vec<String> {
    let mut g = BankingGenerator::new(tenant_seed);
    let mut out: Vec<String> = Vec::with_capacity(statements + 8);
    if drifts {
        let half = statements / 2;
        out.extend(g.generate_hybrid(half, 0.9).into_iter().map(|(_, s)| s));
        out.extend(
            g.generate_hybrid(statements - half, 0.2)
                .into_iter()
                .map(|(_, s)| s),
        );
    } else {
        out.extend(
            g.generate_hybrid(statements, 0.7)
                .into_iter()
                .map(|(_, s)| s),
        );
    }
    out.truncate(statements);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;

    #[test]
    fn tenant_catalog_has_core_tables_only() {
        let c = tenant_catalog(3_000);
        assert_eq!(c.len(), 8);
        assert!(c.table("account").is_some());
        assert!(c.table("arch_001").is_none(), "no archival fillers");
    }

    #[test]
    fn tenant_dba_indexes_validate_and_contain_redundancy() {
        let c = tenant_catalog(2_000);
        let idx = tenant_dba_indexes();
        for d in &idx {
            d.validate(c.table(&d.table).expect("table exists"))
                .expect("columns valid");
        }
        let covered = idx
            .iter()
            .any(|a| idx.iter().any(|b| b != a && b.covers(a)));
        assert!(covered, "redundant prefix present for the tuner to drop");
    }

    #[test]
    fn fleet_statements_parse_and_plan_against_tenant_catalogs() {
        for t in fleet_workload(6, 300, 11) {
            for s in &t.queries {
                parse_statement(s).unwrap_or_else(|e| panic!("{}: bad SQL {s:?}: {e}", t.name));
            }
            assert_eq!(t.queries.len(), 300);
        }
    }

    #[test]
    fn fleet_is_deterministic_and_per_tenant_decorrelated() {
        let a = fleet_workload(4, 200, 7);
        let b = fleet_workload(4, 200, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.seed, y.seed);
        }
        assert_ne!(a[0].queries, a[1].queries, "tenant streams decorrelated");
        assert_ne!(a[0].seed, a[1].seed);
    }

    #[test]
    fn fleet_layout_matches_spec() {
        let f = fleet_workload(33, 50, 3);
        assert_eq!(f[0].priority, 0, "t=0 shed-eligible");
        assert_eq!(f[16].priority, 0, "t=16 shed-eligible");
        assert!(f[1].priority >= 1);
        assert!(f.iter().all(|t| t.accounts >= 2_000));
        // Drifting tenant actually changes its mix: more OLAP in the back
        // half than the front half.
        let t2 = &f[2];
        let olap = |qs: &[String]| qs.iter().filter(|q| q.contains("GROUP BY")).count();
        let half = t2.queries.len() / 2;
        assert!(olap(&t2.queries[half..]) > olap(&t2.queries[..half]));
    }
}
