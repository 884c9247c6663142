//! The five seeded workloads and their input digests.
//!
//! Catalogs and index sets are read from `autoindex-workloads`; three
//! streams come from its generators and two (`parse_adhoc`, `wide_serve`)
//! from the template generators below. `--seed` is the only thing a
//! generator reads: it drives literal values and arrival order. The
//! *template sets* of the two perf-owned generators are a fixed function of
//! the catalog, so every seed offers statistically the same traffic and a
//! run-to-run difference is the host's, not the input's.

use autoindex_sql::fingerprint::fingerprint;
use autoindex_storage::catalog::{Catalog, ColumnType, Table};
use autoindex_storage::index::IndexDef;
use autoindex_support::hash::U64Hasher;
use autoindex_support::rng::{derive_seed, StdRng};
use autoindex_workloads::banking::{self, BankingGenerator};
use autoindex_workloads::drift::drift_scenarios;
use autoindex_workloads::fleet::{fleet_workload, TenantWorkload};
use std::collections::HashSet;
use std::hash::Hasher;

/// Which public driver a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `autoindex_core::serve_fleet`
    Fleet,
    /// `autoindex_core::serve`
    Serve,
    /// `autoindex_core::OnlineAutoIndex::feed`
    Online,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetOltp,
    BankWrite263,
    ParseAdhoc,
    WideServe,
    OnlineDrift,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetOltp,
        Workload::BankWrite263,
        Workload::ParseAdhoc,
        Workload::WideServe,
        Workload::OnlineDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOltp => "fleet_oltp",
            Workload::BankWrite263 => "bank_write_263",
            Workload::ParseAdhoc => "parse_adhoc",
            Workload::WideServe => "wide_serve",
            Workload::OnlineDrift => "online_drift",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn driver(self) -> Driver {
        match self {
            Workload::FleetOltp => Driver::Fleet,
            Workload::OnlineDrift => Driver::Online,
            _ => Driver::Serve,
        }
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetOltp => {
                "serve_fleet, 64 tenants, all fast path: coordination, publication and per-statement allocations dominate"
            }
            Workload::BankWrite263 => {
                "serve, banking withdrawals under 263 DBA indexes: planner/execute layer on writes, maintenance pricing, frequent rounds"
            }
            Workload::ParseAdhoc => {
                "serve, 32 templates with IN/OR/LIKE: bypasses the fast path, so parse + extract + full observe do the work"
            }
            Workload::WideServe => {
                "serve, 300 templates over 138 tables, popularity flips: per-epoch diagnose, cache build and search dominate"
            }
            Workload::OnlineDrift => {
                "OnlineAutoIndex::feed over four drift scenarios, one thread: bypasses every coordination layer; tuning stalls inline"
            }
        }
    }

    /// Statements offered at `scale` 1.0 (per tenant for the fleet). Sized
    /// so one driver call takes 0.3–1 s on the reference host and a 10 s run
    /// holds eight or more timed repetitions.
    fn base_statements(self) -> usize {
        match self {
            Workload::FleetOltp => 4_096,
            Workload::BankWrite263 => 80_000,
            Workload::ParseAdhoc => 60_000,
            Workload::WideServe => 24_000,
            Workload::OnlineDrift => 16_000,
        }
    }

    /// `serve`'s epoch length in statements: the driver's default, except
    /// on `wide_serve`, where one boundary (diagnose 300 templates against
    /// 263 indexes) costs as much as ten thousand statements and six
    /// epochs fill a repetition.
    pub fn serve_epoch(self) -> u64 {
        match self {
            Workload::WideServe => 4_000,
            _ => 1_000,
        }
    }

    /// Statements of each tenant's stream its advisor has observed before
    /// the driver starts. `fleet_oltp` tenants restart with a warm template
    /// store, so the first epoch's compiled-template cache is already
    /// populated and (nearly) every statement takes the fast path.
    pub fn prewarm_statements(self) -> usize {
        match self {
            Workload::FleetOltp => 1_024,
            _ => 0,
        }
    }

    /// Generate the workload's input: one [`TenantWorkload`] per tenant
    /// (the single-tenant drivers get a fleet of one). `scale` shrinks
    /// statement counts only — never template, table or index counts.
    pub fn generate(self, seed: u64, scale: f64) -> Vec<TenantWorkload> {
        let n = ((self.base_statements() as f64 * scale) as usize).max(64);
        match self {
            Workload::FleetOltp => fleet_workload(FLEET_TENANTS, n, seed),
            Workload::BankWrite263 => vec![single(
                self,
                seed,
                banking::catalog(),
                banking::dba_indexes(),
                BankingGenerator::new(seed).generate_withdrawal(n),
            )],
            Workload::ParseAdhoc => {
                let catalog = banking::catalog();
                let templates = adhoc_templates(&catalog);
                let queries = zipf_stream(&templates, n, seed, false);
                vec![single(self, seed, catalog, some_dba_indexes(), queries)]
            }
            Workload::WideServe => {
                let catalog = banking::catalog();
                let templates = wide_templates(&catalog);
                let queries = zipf_stream(&templates, n, seed, true);
                vec![single(self, seed, catalog, banking::dba_indexes(), queries)]
            }
            Workload::OnlineDrift => {
                // The four scenarios share one catalog and start set, so
                // their streams concatenate into one long drifting stream.
                let mut scenarios = drift_scenarios(seed, n);
                let queries = scenarios
                    .iter_mut()
                    .flat_map(|s| std::mem::take(&mut s.queries))
                    .collect();
                let first = scenarios.swap_remove(0);
                vec![single(
                    self,
                    seed,
                    first.catalog,
                    first.start_indexes,
                    queries,
                )]
            }
        }
    }
}

pub const FLEET_TENANTS: usize = 64;
/// `parse_adhoc` starts from the first 40 DBA indexes (every index on a
/// table the services touch, plus a few archival ones).
const ADHOC_INDEXES: usize = 40;
const ADHOC_TEMPLATES: usize = 32;
const WIDE_TEMPLATES: usize = 300;
/// `wide_serve` leaves out the six multi-million-row tables. One unindexed
/// statement on one of them costs as much simulated time as a thousand
/// statements elsewhere, so with them `sim_ms_per_stmt` was a function of a
/// handful of Poisson arrivals (±20 % between seeds; ±3 % without).
const WIDE_MAX_ROWS: u64 = 1_000_000;

fn some_dba_indexes() -> Vec<IndexDef> {
    let mut v = banking::dba_indexes();
    v.truncate(ADHOC_INDEXES);
    v
}

fn single(
    w: Workload,
    seed: u64,
    catalog: Catalog,
    dba_indexes: Vec<IndexDef>,
    queries: Vec<String>,
) -> TenantWorkload {
    TenantWorkload {
        name: w.name().to_string(),
        priority: 1,
        slo_p50_ms: f64::INFINITY,
        slo_p99_ms: f64::INFINITY,
        accounts: 0,
        catalog,
        dba_indexes,
        queries,
        seed: derive_seed(seed, 0x9e4f),
    }
}

/// FNV-1a (the support crate's streaming byte hasher) over every tenant's
/// catalog JSON, starting indexes and statements, in order. Stored with
/// each result so that `perf check` can refuse to compare runs whose
/// traffic differs (for instance after an edit to `autoindex-workloads`).
pub fn input_digest(tenants: &[TenantWorkload]) -> u64 {
    let mut h = U64Hasher::default();
    for t in tenants {
        h.write(t.catalog.to_json().as_bytes());
        for d in &t.dba_indexes {
            h.write(d.key().as_bytes());
            h.write(b"\n");
        }
        for q in &t.queries {
            h.write(q.as_bytes());
            h.write(b"\n");
        }
    }
    h.finish()
}

// ------------------------------------------------------------ templates

/// A statement template: literal text with value slots between the pieces.
struct Template {
    pieces: Vec<String>,
    slots: Vec<Slot>,
}

enum Slot {
    /// Uniform integer in `1..=max`.
    Int(u64),
    /// Two random lower-case letters (a LIKE prefix).
    Letters,
}

impl Template {
    /// `#` in `text` is an integer slot (bounds taken from `maxes` in
    /// order), `@` a letters slot.
    fn new(text: &str, maxes: &[u64]) -> Template {
        let mut pieces = vec![String::new()];
        let mut slots = Vec::new();
        let mut maxes = maxes.iter();
        for c in text.chars() {
            match c {
                '#' => slots.push(Slot::Int(
                    (*maxes.next().expect("one bound per # slot")).max(1),
                )),
                '@' => slots.push(Slot::Letters),
                c => {
                    pieces.last_mut().expect("never empty").push(c);
                    continue;
                }
            }
            pieces.push(String::new());
        }
        assert!(maxes.next().is_none(), "unused slot bound in {text}");
        Template { pieces, slots }
    }

    fn render(&self, rng: &mut StdRng) -> String {
        let mut out = String::with_capacity(96);
        for (i, piece) in self.pieces.iter().enumerate() {
            out.push_str(piece);
            match self.slots.get(i) {
                Some(Slot::Int(max)) => out.push_str(&rng.random_range(1..=*max).to_string()),
                Some(Slot::Letters) => {
                    for _ in 0..2 {
                        out.push((b'a' + rng.random_range(0..26u8)) as char);
                    }
                }
                None => {}
            }
        }
        out
    }
}

/// `n` statements drawn Zipf(1.0) over `templates` (rank = position). With
/// `flip`, popularity reverses at `n / 2`: the cold tail becomes the head,
/// which is the drift the tuner has to follow.
fn zipf_stream(templates: &[Template], n: usize, seed: u64, flip: bool) -> Vec<String> {
    let mut cdf = Vec::with_capacity(templates.len());
    let mut total = 0.0;
    for rank in 0..templates.len() {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x21bf));
    (0..n)
        .map(|i| {
            let u = rng.random_f64() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(templates.len() - 1);
            let t = if flip && i >= n / 2 {
                templates.len() - 1 - rank
            } else {
                rank
            };
            templates[t].render(&mut rng)
        })
        .collect()
}

/// Integer columns of `table` with their value bound, in schema order.
fn int_columns(table: &Table) -> Vec<(&str, u64)> {
    table
        .columns
        .iter()
        .filter(|c| c.ty == ColumnType::Int)
        .map(|c| (c.name.as_str(), c.stats.ndv as u64))
        .collect()
}

fn first_text_column(table: &Table) -> Option<&str> {
    table
        .columns
        .iter()
        .find(|c| c.ty == ColumnType::Text)
        .map(|c| c.name.as_str())
}

/// Tables in name order (`Catalog::tables` iterates a `HashMap`).
fn sorted_tables(catalog: &Catalog) -> Vec<&Table> {
    let mut tables: Vec<&Table> = catalog.tables().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    tables
}

/// Keep the first `want` templates with distinct fingerprints.
fn distinct(candidates: impl Iterator<Item = Template>, want: usize) -> Vec<Template> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(want);
    for t in candidates {
        let hash = fingerprint(&t.render(&mut rng))
            .expect("generated SQL lexes")
            .hash;
        if seen.insert(hash) {
            out.push(t);
            if out.len() == want {
                return out;
            }
        }
    }
    panic!("only {} of {want} distinct templates", out.len());
}

/// 32 templates over the eight busiest banking tables, each with at least
/// one construct the compiled-template fast path refuses (`IN` list, `OR`,
/// `LIKE`), so every statement takes the full parse path.
fn adhoc_templates(catalog: &Catalog) -> Vec<Template> {
    const TABLES: [&str; 8] = [
        "account",
        "customer_b",
        "card",
        "withdraw_flow",
        "txn_journal",
        "teller",
        "branch",
        "audit_log",
    ];
    let candidates = TABLES.iter().flat_map(|name| {
        let table = catalog.table(name).expect("banking core table");
        let cols = int_columns(table);
        let (k, kmax) = cols[0];
        let (s, smax) = cols[1];
        let t = name;
        let fourth = match first_text_column(table) {
            Some(txt) => Template::new(
                &format!("SELECT {k} FROM {t} WHERE {txt} LIKE '@%' AND {s} = #"),
                &[smax],
            ),
            None => Template::new(
                &format!("SELECT * FROM {t} WHERE ({k} = # OR {k} = #) AND {s} = # ORDER BY {k} LIMIT 20"),
                &[kmax, kmax, smax],
            ),
        };
        [
            Template::new(
                &format!("SELECT * FROM {t} WHERE {k} IN (#, #, #)"),
                &[kmax, kmax, kmax],
            ),
            Template::new(
                &format!("SELECT {k}, {s} FROM {t} WHERE {k} = # OR {s} = #"),
                &[kmax, smax],
            ),
            Template::new(
                &format!("SELECT {s}, COUNT(*) FROM {t} WHERE {k} IN (#, #) AND {s} > # GROUP BY {s}"),
                &[kmax, kmax, smax],
            ),
            fourth,
        ]
    });
    distinct(candidates, ADHOC_TEMPLATES)
}

/// 300 templates spread over the 138 banking tables of at most
/// [`WIDE_MAX_ROWS`] rows: per ten templates one write, two
/// fast-path-ineligible reads and seven eligible reads.
fn wide_templates(catalog: &Catalog) -> Vec<Template> {
    let mut tables = sorted_tables(catalog);
    tables.retain(|t| t.rows <= WIDE_MAX_ROWS);
    let candidates = (0..).map(|i: usize| {
        let table = tables[i % tables.len()];
        let cols = int_columns(table);
        let round = i / tables.len();
        let (a, amax) = cols[round % cols.len()];
        let (b, bmax) = cols[(round + 1 + i % (cols.len() - 1)) % cols.len()];
        let t = &table.name;
        match i % 10 {
            0 if round.is_multiple_of(2) => Template::new(
                &format!("INSERT INTO {t} ({a}, {b}) VALUES (#, #)"),
                &[amax, bmax],
            ),
            0 => Template::new(
                &format!("UPDATE {t} SET {b} = # WHERE {a} = #"),
                &[bmax, amax],
            ),
            1 => Template::new(
                &format!("SELECT * FROM {t} WHERE {a} IN (#, #, #)"),
                &[amax, amax, amax],
            ),
            2 => Template::new(
                &format!("SELECT {a}, {b} FROM {t} WHERE {a} = # OR {b} = #"),
                &[amax, bmax],
            ),
            3 | 4 => Template::new(&format!("SELECT * FROM {t} WHERE {a} = #"), &[amax]),
            5 | 6 => Template::new(
                &format!("SELECT {a}, {b} FROM {t} WHERE {a} = # AND {b} > #"),
                &[amax, bmax],
            ),
            7 | 8 => Template::new(
                &format!("SELECT {b}, COUNT(*) FROM {t} WHERE {a} = # GROUP BY {b}"),
                &[amax],
            ),
            _ => Template::new(
                &format!("SELECT * FROM {t} WHERE {a} = # ORDER BY {b} LIMIT 10"),
                &[amax],
            ),
        }
    });
    distinct(candidates, WIDE_TEMPLATES)
}
