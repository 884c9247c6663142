//! Synthetic banking scenario — the stand-in for the paper's proprietary
//! production workload (Figure 1, Tables II–III).
//!
//! The paper's deployment has 144 tables, ~1 GB of data, a *summarization*
//! (OLAP) and a *withdrawal-flow* (OLTP) service issuing 2.2 M queries, and
//! 263 hand-crafted DBA indexes of which the vast majority turn out to be
//! redundant, unused or outright harmful. Those structural properties are
//! what the Figure 1 experiment measures, so the synthetic scenario
//! reproduces them explicitly:
//!
//! * 12 core tables actually touched by the two services + 132 archival
//!   filler tables that the workload never reads (their indexes are the
//!   "rarely used" class);
//! * a DBA index set of exactly 263 indexes mixing (a) genuinely useful
//!   ones, (b) single-column prefixes subsumed by composite indexes
//!   ("redundant"), (c) indexes on hot-update columns such as
//!   `account.balance` ("negative"), and (d) one or two indexes per filler
//!   table ("unused").

use crate::Scenario;
use autoindex_storage::catalog::{Catalog, Column, ColumnType, TableBuilder};
use autoindex_storage::index::IndexDef;
use autoindex_support::rng::StdRng;

/// Number of archival filler tables (144 total − 12 core).
pub const FILLER_TABLES: usize = 132;

/// Build the 144-table banking catalog.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();

    c.add_table(
        TableBuilder::new("account", 2_000_000)
            .column(Column::int("acct_id", 2_000_000))
            .column(Column::int("cust_id", 800_000))
            .column(Column::int("branch_id", 500))
            .column(Column::float("balance", 1_000_000, 0.0, 1e7))
            .column(Column::int("status", 4))
            .column(Column::int("open_date", 7_000))
            .column(Column::int("acct_type", 6))
            .column(Column::text("currency", 5, 3))
            .primary_key(&["acct_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("customer_b", 800_000)
            .column(Column::int("cust_id", 800_000))
            .column(Column::text("cust_name", 700_000, 24))
            .column(Column::text("id_card", 800_000, 18))
            .column(Column::text("phone", 790_000, 11))
            .column(Column::int("region", 40))
            .column(Column::int("vip_level", 6))
            .primary_key(&["cust_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("card", 3_000_000)
            .column(Column::int("card_id", 3_000_000))
            .column(Column::int("acct_id", 2_000_000))
            .column(Column::int("card_type", 8))
            .column(Column::int("card_status", 4))
            .column(Column::int("expire_date", 4_000))
            .primary_key(&["card_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("branch", 500)
            .column(Column::int("branch_id", 500))
            .column(Column::text("branch_name", 500, 24))
            .column(Column::int("region", 40))
            .column(Column::int("tier", 4))
            .primary_key(&["branch_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("withdraw_flow", 5_000_000)
            .column(Column::int("flow_id", 5_000_000))
            .column(Column::int("acct_id", 2_000_000))
            .column(Column::int("card_id", 3_000_000))
            .column(Column::float("amount", 500_000, 1.0, 50_000.0))
            .column(Column::int("ts", 5_000_000).with_correlation(0.95))
            .column(Column::int("channel", 6))
            .column(Column::int("flow_status", 4))
            .column(Column::int("teller_id", 20_000))
            .column(Column::int("branch_id", 500))
            .primary_key(&["flow_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("txn_journal", 8_000_000)
            .column(Column::int("jrn_id", 8_000_000))
            .column(Column::int("acct_id", 2_000_000))
            .column(Column::int("ts", 8_000_000).with_correlation(0.95))
            .column(Column::int("kind", 12))
            .column(Column::float("amount", 500_000, 0.0, 100_000.0))
            .primary_key(&["jrn_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("summary_daily", 200_000)
            .column(Column::int("branch_id", 500))
            .column(Column::int("day", 400))
            .column(Column::float("total_amount", 150_000, 0.0, 1e8))
            .column(Column::int("txn_count", 50_000))
            .primary_key(&["branch_id", "day"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("teller", 20_000)
            .column(Column::int("teller_id", 20_000))
            .column(Column::int("branch_id", 500))
            .column(Column::text("teller_name", 19_000, 20))
            .primary_key(&["teller_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("atm_device", 40_000)
            .column(Column::int("device_id", 40_000))
            .column(Column::int("branch_id", 500))
            .column(Column::int("device_status", 5))
            .primary_key(&["device_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("fee_schedule", 2_000)
            .column(Column::int("fee_id", 2_000))
            .column(Column::int("acct_type", 6))
            .column(Column::int("channel", 6))
            .column(Column::float("fee_rate", 200, 0.0, 0.05))
            .primary_key(&["fee_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("limits_cfg", 5_000)
            .column(Column::int("limit_id", 5_000))
            .column(Column::int("acct_type", 6))
            .column(Column::float("daily_limit", 100, 1_000.0, 1e6))
            .primary_key(&["limit_id"])
            .build()
            .expect("static schema"),
    );
    c.add_table(
        TableBuilder::new("audit_log", 4_000_000)
            .column(Column::int("audit_id", 4_000_000))
            .column(Column::int("op_kind", 30))
            .column(Column::int("ts", 4_000_000).with_correlation(0.95))
            .column(Column::int("actor_id", 21_000))
            .primary_key(&["audit_id"])
            .build()
            .expect("static schema"),
    );

    // 132 archival filler tables, never queried by the two services.
    for i in 1..=FILLER_TABLES {
        c.add_table(
            TableBuilder::new(format!("arch_{i:03}"), 40_000)
                .column(Column::int("id", 40_000))
                .column(Column::int("ref_id", 10_000))
                .column(Column::text("payload", 30_000, 64))
                .column(Column::int("created", 40_000))
                .column(Column::int("flag", 8))
                .primary_key(&["id"])
                .build()
                .expect("static schema"),
        );
    }
    debug_assert_eq!(c.len(), 12 + FILLER_TABLES);
    c
}

/// The hand-crafted DBA configuration: exactly 263 indexes, structured as
/// the paper describes (useful + redundant + negative + unused).
pub fn dba_indexes() -> Vec<IndexDef> {
    let mut v: Vec<IndexDef> = Vec::with_capacity(263);

    // (a) Genuinely useful primary/lookup indexes.
    v.push(IndexDef::new("account", &["acct_id"]));
    v.push(IndexDef::new("customer_b", &["cust_id"]));
    v.push(IndexDef::new("card", &["card_id"]));
    v.push(IndexDef::new("branch", &["branch_id"]));
    v.push(IndexDef::new("withdraw_flow", &["flow_id"]));
    v.push(IndexDef::new("withdraw_flow", &["acct_id", "ts"]));
    v.push(IndexDef::new("txn_journal", &["jrn_id"]));
    v.push(IndexDef::new("txn_journal", &["acct_id", "ts"]));
    v.push(IndexDef::new("summary_daily", &["branch_id", "day"]));
    v.push(IndexDef::new("teller", &["teller_id"]));
    v.push(IndexDef::new("fee_schedule", &["acct_type", "channel"]));

    // (b) Redundant: single-column prefixes of the composites above, plus
    // overlapping composites.
    v.push(IndexDef::new("withdraw_flow", &["acct_id"]));
    v.push(IndexDef::new(
        "withdraw_flow",
        &["acct_id", "ts", "channel"],
    ));
    v.push(IndexDef::new("txn_journal", &["acct_id"]));
    v.push(IndexDef::new("summary_daily", &["branch_id"]));
    v.push(IndexDef::new("account", &["acct_id", "status"]));
    v.push(IndexDef::new("card", &["card_id", "card_status"]));
    v.push(IndexDef::new("customer_b", &["cust_id", "region"]));

    // (c) Negative: hot-update columns — every withdrawal updates
    // `account.balance`, every flow insert touches these tables.
    v.push(IndexDef::new("account", &["balance"]));
    v.push(IndexDef::new("account", &["balance", "status"]));
    v.push(IndexDef::new("withdraw_flow", &["amount"]));
    v.push(IndexDef::new("withdraw_flow", &["teller_id"]));
    v.push(IndexDef::new("withdraw_flow", &["channel", "flow_status"]));
    v.push(IndexDef::new("txn_journal", &["amount"]));
    v.push(IndexDef::new("txn_journal", &["kind", "amount"]));
    v.push(IndexDef::new("audit_log", &["actor_id"]));
    v.push(IndexDef::new("audit_log", &["op_kind", "ts"]));

    // (d) Speculative indexes on columns the services never filter by.
    v.push(IndexDef::new("account", &["open_date"]));
    v.push(IndexDef::new("account", &["currency"]));
    v.push(IndexDef::new("customer_b", &["phone"]));
    v.push(IndexDef::new("customer_b", &["id_card"]));
    v.push(IndexDef::new("card", &["expire_date"]));
    v.push(IndexDef::new("atm_device", &["device_status"]));
    v.push(IndexDef::new("limits_cfg", &["acct_type"]));

    // (e) Unused: indexes on the archival tables (the bulk of the 263).
    for i in 1..=FILLER_TABLES {
        let t = format!("arch_{i:03}");
        v.push(IndexDef::new(t.clone(), &["ref_id"]));
        if v.len() < 263 {
            v.push(IndexDef::new(t, &["created", "flag"]));
        }
        if v.len() == 263 {
            break;
        }
    }
    debug_assert_eq!(v.len(), 263);
    v
}

/// The complete banking scenario (DBA configuration as Default).
pub fn scenario() -> Scenario {
    Scenario {
        name: "Banking".to_string(),
        catalog: catalog(),
        default_indexes: dba_indexes(),
    }
}

/// Which banking service a generated statement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// OLTP withdrawal flow.
    Withdrawal,
    /// OLAP summarization.
    Summarization,
}

/// Deterministic banking workload generator.
pub struct BankingGenerator {
    rng: StdRng,
}

impl BankingGenerator {
    /// New generator with the given seed.
    pub fn new(seed: u64) -> Self {
        BankingGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One withdrawal business transaction (6–7 statements).
    pub fn withdrawal_txn(&mut self) -> Vec<String> {
        let acct = self.rng.random_range(1..=2_000_000u64);
        let card = self.rng.random_range(1..=3_000_000u64);
        let amount = self.rng.random_range(20..=5_000u64);
        let ts = self.rng.random_range(4_500_000..5_000_000u64);
        let mut q = vec![
            format!(
                "SELECT acct_id, balance, status, acct_type FROM account WHERE acct_id = {acct}"
            ),
            format!(
                "SELECT card_id, card_status FROM card WHERE card_id = {card} AND acct_id = {acct}"
            ),
            format!(
                "SELECT fee_rate FROM fee_schedule WHERE acct_type = {} AND channel = {}",
                self.rng.random_range(1..=6),
                self.rng.random_range(1..=6)
            ),
            format!("UPDATE account SET balance = balance - {amount} WHERE acct_id = {acct}"),
            format!(
                "INSERT INTO withdraw_flow (flow_id, acct_id, card_id, amount, ts, channel, \
                 flow_status, teller_id, branch_id) VALUES ({}, {acct}, {card}, {amount}, {ts}, \
                 {}, 1, {}, {})",
                self.rng.random_range(5_000_000..100_000_000u64),
                self.rng.random_range(1..=6),
                self.rng.random_range(1..=20_000),
                self.rng.random_range(1..=500)
            ),
            format!(
                "INSERT INTO txn_journal (jrn_id, acct_id, ts, kind, amount) \
                 VALUES ({}, {acct}, {ts}, 3, {amount})",
                self.rng.random_range(8_000_000..200_000_000u64)
            ),
        ];
        // 30%: the customer checks recent flows.
        if self.rng.random_bool(0.3) {
            q.push(format!(
                "SELECT flow_id, amount, ts, channel FROM withdraw_flow \
                 WHERE acct_id = {acct} AND ts > {} ORDER BY ts DESC LIMIT 10",
                ts.saturating_sub(100_000)
            ));
        }
        q
    }

    /// One summarization query (OLAP).
    pub fn summarization_query(&mut self) -> String {
        let lo = self.rng.random_range(4_000_000..4_800_000u64);
        let hi = lo + self.rng.random_range(50_000..200_000u64);
        match self.rng.random_range(0..5u32) {
            0 => format!(
                "SELECT branch_id, SUM(amount), COUNT(*) FROM withdraw_flow \
                 WHERE ts BETWEEN {lo} AND {hi} GROUP BY branch_id ORDER BY branch_id"
            ),
            1 => format!(
                "SELECT b.region, SUM(w.amount) FROM withdraw_flow w, branch b \
                 WHERE w.branch_id = b.branch_id AND w.ts BETWEEN {lo} AND {hi} \
                 AND b.tier = {} GROUP BY b.region",
                self.rng.random_range(1..=4)
            ),
            2 => format!(
                "SELECT channel, COUNT(*), AVG(amount) FROM withdraw_flow \
                 WHERE ts BETWEEN {lo} AND {hi} AND flow_status = 1 \
                 GROUP BY channel ORDER BY channel"
            ),
            3 => format!(
                "SELECT day, SUM(total_amount) FROM summary_daily \
                 WHERE branch_id = {} AND day BETWEEN {d1} AND {d2} \
                 GROUP BY day ORDER BY day",
                self.rng.random_range(1..=500),
                d1 = self.rng.random_range(1..200),
                d2 = self.rng.random_range(200..400)
            ),
            _ => format!(
                "SELECT c.region, COUNT(*) FROM account a, customer_b c \
                 WHERE a.cust_id = c.cust_id AND a.status = 1 AND c.vip_level >= {} \
                 GROUP BY c.region ORDER BY c.region",
                self.rng.random_range(3..=5)
            ),
        }
    }

    /// Generate a hybrid stream of `n` statements with the given fraction
    /// of withdrawal statements (Figure 1 uses the withdraw business; the
    /// Table II experiment uses the hybrid of both services).
    pub fn generate_hybrid(&mut self, n: usize, withdrawal_frac: f64) -> Vec<(Service, String)> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            if self.rng.random_bool(withdrawal_frac) {
                for s in self.withdrawal_txn() {
                    out.push((Service::Withdrawal, s));
                }
            } else {
                out.push((Service::Summarization, self.summarization_query()));
            }
        }
        out.truncate(n);
        out
    }

    /// Withdrawal-only stream (Figure 1's withdraw business).
    pub fn generate_withdrawal(&mut self, n: usize) -> Vec<String> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend(self.withdrawal_txn());
        }
        out.truncate(n);
        out
    }

    /// Ad hoc analyst traffic over every table of `catalog` with two
    /// integer columns: each statement picks a table, two of its integer
    /// columns and one of four read shapes at random, so over the banking
    /// schema (thousands of such templates) most templates occur once in a
    /// thousand statements — traffic that repeats too little for compiling
    /// a template to pay.
    pub fn generate_adhoc(&mut self, catalog: &Catalog, n: usize) -> Vec<String> {
        // Name order: `Catalog::tables` iterates a hash map.
        let mut tables: Vec<(&str, Vec<(&str, u64)>)> = catalog
            .tables()
            .map(|t| {
                let ints = t.columns.iter().filter(|c| c.ty == ColumnType::Int);
                let ints = ints.map(|c| (c.name.as_str(), (c.stats.ndv as u64).max(1)));
                (t.name.as_str(), ints.collect::<Vec<_>>())
            })
            .filter(|(_, ints)| ints.len() >= 2)
            .collect();
        tables.sort_by_key(|(name, _)| *name);
        let rng = &mut self.rng;
        (0..n)
            .map(|_| {
                let (t, ints) = &tables[rng.random_range(0..tables.len())];
                let i = rng.random_range(0..ints.len());
                let j = (i + rng.random_range(1..ints.len())) % ints.len();
                let ((a, a_max), (b, b_max)) = (ints[i], ints[j]);
                let x = rng.random_range(1..=a_max);
                match rng.random_range(0..4u32) {
                    0 => format!("SELECT * FROM {t} WHERE {a} = {x}"),
                    1 => format!(
                        "SELECT {a}, {b} FROM {t} WHERE {a} = {x} AND {b} > {}",
                        rng.random_range(1..=b_max)
                    ),
                    2 => format!("SELECT {b}, COUNT(*) FROM {t} WHERE {a} = {x} GROUP BY {b}"),
                    _ => format!("SELECT * FROM {t} WHERE {a} = {x} ORDER BY {b} LIMIT 10"),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;

    #[test]
    fn catalog_has_144_tables() {
        assert_eq!(catalog().len(), 144);
    }

    #[test]
    fn dba_set_has_exactly_263_valid_indexes() {
        let c = catalog();
        let idx = dba_indexes();
        assert_eq!(idx.len(), 263);
        for d in &idx {
            d.validate(c.table(&d.table).expect("table exists"))
                .expect("columns valid");
        }
        // No duplicate definitions.
        let mut keys: Vec<String> = idx.iter().map(|d| d.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 263);
    }

    #[test]
    fn dba_set_contains_redundant_prefixes() {
        let idx = dba_indexes();
        // withdraw_flow(acct_id) is covered by withdraw_flow(acct_id, ts).
        let covered = idx
            .iter()
            .any(|a| idx.iter().any(|b| b != a && b.covers(a)));
        assert!(covered);
    }

    #[test]
    fn generated_sql_parses() {
        let mut g = BankingGenerator::new(3);
        for s in g.generate_withdrawal(500) {
            parse_statement(&s).unwrap_or_else(|e| panic!("bad SQL {s:?}: {e}"));
        }
        let mut g = BankingGenerator::new(4);
        for (_, s) in g.generate_hybrid(500, 0.6) {
            parse_statement(&s).unwrap_or_else(|e| panic!("bad SQL {s:?}: {e}"));
        }
    }

    #[test]
    fn hybrid_mix_contains_both_services() {
        let mut g = BankingGenerator::new(5);
        let qs = g.generate_hybrid(2_000, 0.6);
        let w = qs.iter().filter(|(s, _)| *s == Service::Withdrawal).count();
        let s = qs.len() - w;
        assert!(w > 500 && s > 100, "w={w} s={s}");
    }

    #[test]
    fn filler_tables_never_queried() {
        let mut g = BankingGenerator::new(6);
        let all: String = g
            .generate_hybrid(3_000, 0.5)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert!(!all.contains("arch_"));
    }

    /// Every ad hoc statement parses, and most of a thousand of them are
    /// the only statement of their template.
    #[test]
    fn adhoc_templates_seldom_repeat() {
        let qs = BankingGenerator::new(5).generate_adhoc(&catalog(), 1_000);
        let mut seen = std::collections::HashMap::new();
        for q in &qs {
            parse_statement(q).unwrap_or_else(|e| panic!("bad SQL {q:?}: {e}"));
            let text = autoindex_sql::fingerprint::fingerprint(q).unwrap().text;
            *seen.entry(text).or_insert(0) += 1;
        }
        let once = seen.values().filter(|&&n| n == 1).count();
        assert!(
            once > 700,
            "{once} of 1 000 statements are their template's only one"
        );
    }

    #[test]
    fn generation_deterministic() {
        let a = BankingGenerator::new(9).generate_withdrawal(100);
        let b = BankingGenerator::new(9).generate_withdrawal(100);
        assert_eq!(a, b);
    }
}
