//! Golden transcripts for the two serving drivers, recorded before their
//! loops were merged into one.
//!
//! `serving.rs` and `fleet.rs` compare two runs of the *same* code (1 vs N
//! workers, fast path on vs off), so a refactor that changes behaviour the
//! same way everywhere passes them. This test pins what the drivers print:
//! a fixed grid of `serve` and `serve_fleet` configurations, each run at 1
//! and 3 workers, folded into two FNV-1a digests.
//!
//! * `GOLDEN` — every transcript together with the report numbers no
//!   transcript shows (`fastpath_hits` / `fastpath_misses`,
//!   `plans_prepared`, `tuning_rounds` / `tuning_visits`): what the loop
//!   decided. Recorded on the parent of the merge with the makespan left
//!   out; relaxing `tuning_cooldown_over`'s `>` to `>=` turns it red.
//!   Re-recorded once when the printed `fp=` became the database's own
//!   index-set fingerprint: with `fp=` masked every transcript was byte
//!   for byte what it had been. Re-recorded again when a publication began
//!   compiling the templates its frozen cache misses at their third
//!   statement: with `hits=` / `misses=` / `prepared=` masked (each value
//!   printed as `_`) the grid digested to `0x11cb_d258_fe95_f975` before
//!   and after. Re-recorded when a publication began taking the plans of
//!   the one before it that are still current, which moves `prepared=`
//!   alone: masked, the grid still digests to `0x11cb_d258_fe95_f975`.
//! * `MAKESPAN` — the bits of every cell's `sim_makespan_ms`: how the
//!   engine cut the epochs into tasks, which the LPT packing reads. It
//!   moves when the partition does, and only then.

use autoindex_core::{
    serve, serve_fleet, AutoIndex, AutoIndexConfig, FleetConfig, FleetTenant, GuardConfig,
    ServeConfig, StrategyKind, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a, fnv1a_from};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::banking::{self, BankingGenerator};
use autoindex_workloads::fleet::{fleet_workload, TenantWorkload};
use std::sync::Arc;

const GOLDEN: u64 = 0x01e4_fe9b_9224_1a9f;
const MAKESPAN: u64 = 0xc06f_e3a6_0163_6e3b;

type Advisor = AutoIndex<NativeCostEstimator>;

fn advisor() -> Advisor {
    AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
}

/// An advisor whose storage budget fits no index: once the drift makes an
/// index worth having, diagnosis fires at every boundary and the cooldown
/// alone decides which of them run a round.
fn starved() -> Advisor {
    let cfg = AutoIndexConfig {
        storage_budget: Some(1),
        ..AutoIndexConfig::default()
    };
    AutoIndex::new(cfg, NativeCostEstimator)
}

fn banking_queries(n: usize) -> Vec<String> {
    BankingGenerator::new(11)
        .generate_hybrid(n, 0.6)
        .into_iter()
        .map(|(_, q)| q)
        .collect()
}

/// The banking catalog under 40 of the DBA's indexes: diagnosis has
/// rarely-used and negative indexes to find.
fn banking_db() -> SimDb {
    let mut db = SimDb::with_metrics(
        banking::catalog(),
        SimDbConfig::default(),
        MetricsRegistry::new(),
    );
    for d in banking::dba_indexes().into_iter().take(40) {
        let _ = db.create_index(d);
    }
    db
}

fn table_db(seed: u64) -> SimDb {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", 500_000)
            .column(Column::int("id", 500_000))
            .column(Column::int("a", 250_000))
            .column(Column::int("b", 2_000))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    let cfg = SimDbConfig {
        seed,
        ..Default::default()
    };
    SimDb::with_metrics(c, cfg, MetricsRegistry::new())
}

/// Point lookups, then `GROUP BY` scans: diagnosis fires after the drift
/// and keeps firing while the scans run, so the cooldown decides rounds.
fn drifting(lookups: usize, scans: usize, salt: usize) -> Vec<String> {
    let l = (0..lookups).map(|i| format!("SELECT * FROM t WHERE a = {}", i + salt));
    let s = (0..scans).map(|i| {
        format!(
            "SELECT b, COUNT(*) FROM t WHERE b > {} GROUP BY b ORDER BY b",
            i % 50
        )
    });
    l.chain(s).collect()
}

fn spec(name: &str, priority: u8, slo_ms: f64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        priority,
        slo_p50_ms: slo_ms,
        slo_p99_ms: slo_ms,
    }
}

fn banking_fleet(workloads: Vec<TenantWorkload>) -> Vec<FleetTenant<NativeCostEstimator>> {
    workloads
        .into_iter()
        .map(|w| {
            let cfg = SimDbConfig {
                seed: w.seed,
                ..Default::default()
            };
            let mut db = SimDb::with_metrics(w.catalog, cfg, MetricsRegistry::new());
            for d in w.dba_indexes {
                let _ = db.create_index(d);
            }
            FleetTenant {
                spec: TenantSpec {
                    name: w.name,
                    priority: w.priority,
                    slo_p50_ms: w.slo_p50_ms,
                    slo_p99_ms: w.slo_p99_ms,
                },
                db,
                advisor: advisor(),
                queries: Arc::new(w.queries),
            }
        })
        .collect()
}

fn table_tenant(
    name: &str,
    priority: u8,
    queries: Vec<String>,
    seed: u64,
) -> FleetTenant<NativeCostEstimator> {
    FleetTenant {
        spec: spec(name, priority, 1e9),
        db: table_db(seed),
        advisor: advisor(),
        queries: Arc::new(queries),
    }
}

/// One `serve` cell at `workers`, rendered with the numbers outside the
/// transcript, and its makespan bits.
fn serve_cell(db: SimDb, advisor: Advisor, queries: &[String], cfg: ServeConfig) -> (String, u64) {
    let r = serve(db, advisor, queries, cfg).unwrap().report;
    let text = format!(
        "{}hits={} misses={} prepared={} rounds={}\n",
        r.transcript(),
        r.fastpath_hits,
        r.fastpath_misses,
        r.plans_prepared,
        r.tuning_rounds,
    );
    (text, r.sim_makespan_ms.to_bits())
}

/// One `serve_fleet` cell, likewise: the fleet transcript, every tenant's
/// transcript and fast-path tallies, then the fleet-wide numbers; and its
/// makespan bits.
fn fleet_cell(tenants: Vec<FleetTenant<NativeCostEstimator>>, cfg: FleetConfig) -> (String, u64) {
    let r = serve_fleet(tenants, cfg).unwrap().report;
    let mut out = r.transcript();
    for t in &r.tenant_reports {
        out.push_str(&t.transcript());
        out.push_str(&format!(
            "hits={} misses={}\n",
            t.fastpath_hits, t.fastpath_misses
        ));
    }
    out.push_str(&format!(
        "prepared={} visits={}\n",
        r.plans_prepared, r.tuning_visits,
    ));
    (out, r.sim_makespan_ms.to_bits())
}

#[test]
fn serving_transcripts_match_the_golden_digest() {
    let bank = banking_queries(600);
    let ragged = banking_queries(555);
    let drift = drifting(240, 360, 0);
    let serve_base = |workers: usize, interval: u64| {
        ServeConfig::builder()
            .workers(workers)
            .epoch_interval(interval)
    };

    type ServeCell<'a> = (
        &'a str,
        fn() -> SimDb,
        fn() -> Advisor,
        &'a [String],
        Box<dyn Fn(usize) -> ServeConfig + 'a>,
    );
    let serve_cells: Vec<ServeCell<'_>> = vec![
        (
            "bank cooldown=0",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| {
                serve_base(w, 100)
                    .tuning_cooldown_epochs(0)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "bank cooldown=1",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| serve_base(w, 100).build().unwrap()),
        ),
        (
            "bank cooldown=3",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| {
                serve_base(w, 100)
                    .tuning_cooldown_epochs(3)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "drift cooldown=0",
            || table_db(5),
            starved,
            &drift,
            Box::new(|w| serve_base(w, 60).tuning_cooldown_epochs(0).build().unwrap()),
        ),
        (
            "drift cooldown=1",
            || table_db(5),
            starved,
            &drift,
            Box::new(|w| serve_base(w, 60).build().unwrap()),
        ),
        (
            "drift cooldown=3",
            || table_db(5),
            starved,
            &drift,
            Box::new(|w| serve_base(w, 60).tuning_cooldown_epochs(3).build().unwrap()),
        ),
        (
            "bank keep usage",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| {
                serve_base(w, 100)
                    .reset_usage_after_tuning(false)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "bank guarded",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| {
                serve_base(w, 100)
                    .guard(GuardConfig::default())
                    .build()
                    .unwrap()
            }),
        ),
        (
            "bank panics",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| {
                serve_base(w, 100)
                    .panic_on(vec![17, 250, 251, 480])
                    .max_worker_panics(0)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "bank fastpath off",
            banking_db,
            advisor,
            &bank,
            Box::new(|w| serve_base(w, 100).fastpath(false).build().unwrap()),
        ),
        (
            "bank partial epoch",
            banking_db,
            advisor,
            &ragged,
            Box::new(|w| serve_base(w, 100).build().unwrap()),
        ),
        (
            "empty",
            banking_db,
            advisor,
            &[],
            Box::new(|w| serve_base(w, 100).build().unwrap()),
        ),
    ];

    let drift_pair = || {
        vec![
            table_tenant("steady", 1, drifting(480, 0, 70_000), 1),
            table_tenant("drift", 1, drifting(200, 280, 0), 2),
        ]
    };
    let fleet_base = |workers: usize, interval: u64| {
        FleetConfig::builder()
            .workers(workers)
            .epoch_interval(interval)
    };
    type FleetCell<'a> = (
        &'a str,
        Box<dyn Fn() -> Vec<FleetTenant<NativeCostEstimator>> + 'a>,
        Box<dyn Fn(usize) -> FleetConfig + 'a>,
    );
    let fleet_cells: Vec<FleetCell<'_>> = vec![
        (
            "unbounded",
            Box::new(|| banking_fleet(fleet_workload(4, 200, 91))),
            Box::new(|w| fleet_base(w, 64).build().unwrap()),
        ),
        (
            "shed and defer",
            Box::new(|| banking_fleet(fleet_workload(5, 200, 17))),
            Box::new(|w| {
                fleet_base(w, 50)
                    .epoch_capacity_ms(1_500.0)
                    .assumed_stmt_cost_ms(10.0)
                    .shed_floor_priority(1)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "bandit",
            Box::new(drift_pair),
            Box::new(|w| {
                fleet_base(w, 60)
                    .regret_threshold(0.10)
                    .tuner_strategy(StrategyKind::Bandit)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "regret 0",
            Box::new(drift_pair),
            Box::new(|w| fleet_base(w, 60).regret_threshold(0.0).build().unwrap()),
        ),
        (
            "regret 0 bank",
            Box::new(|| banking_fleet(fleet_workload(3, 240, 5))),
            Box::new(|w| fleet_base(w, 48).regret_threshold(0.0).build().unwrap()),
        ),
        (
            "regret inf",
            Box::new(drift_pair),
            Box::new(|w| {
                fleet_base(w, 60)
                    .regret_threshold(f64::INFINITY)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "panics",
            Box::new(|| banking_fleet(fleet_workload(3, 200, 23))),
            Box::new(|w| {
                fleet_base(w, 64)
                    .panic_on(vec![(0, 10), (1, 70), (1, 71), (2, 130)])
                    .max_worker_panics(0)
                    .build()
                    .unwrap()
            }),
        ),
        (
            "an empty tenant",
            Box::new(|| {
                let mut t = banking_fleet(fleet_workload(3, 160, 29));
                t[1].queries = Arc::new(Vec::new());
                t
            }),
            Box::new(|w| fleet_base(w, 64).build().unwrap()),
        ),
        (
            "one tenant",
            Box::new(|| vec![table_tenant("solo", 2, drifting(200, 200, 0), 3)]),
            Box::new(|w| fleet_base(w, 50).regret_threshold(0.05).build().unwrap()),
        ),
    ];

    let mut digest = fnv1a(b"serving_golden");
    let mut makespan = fnv1a(b"serving_golden makespan");
    let mut cells = Vec::new();
    let mut fold = |name: String, one: (String, u64), three: (String, u64)| {
        digest = fnv1a_from(digest, one.0.as_bytes());
        digest = fnv1a_from(digest, three.0.as_bytes());
        makespan = fnv1a_from(makespan, &one.1.to_le_bytes());
        makespan = fnv1a_from(makespan, &three.1.to_le_bytes());
        cells.push((
            name,
            fnv1a(one.0.as_bytes()),
            fnv1a(three.0.as_bytes()),
            one.1,
            three.1,
        ));
    };
    for (name, db, advisor, queries, cfg) in &serve_cells {
        let one = serve_cell(db(), advisor(), queries, cfg(1));
        let three = serve_cell(db(), advisor(), queries, cfg(3));
        fold(format!("serve {name}"), one, three);
    }
    for (name, tenants, cfg) in &fleet_cells {
        let one = fleet_cell(tenants(), cfg(1));
        let three = fleet_cell(tenants(), cfg(3));
        fold(format!("fleet {name}"), one, three);
    }
    let table: String = cells
        .iter()
        .map(|(name, one, three, m1, m3)| {
            format!("  {name:<24} {one:016x} {three:016x}  makespan {m1:016x} {m3:016x}\n")
        })
        .collect();
    assert_eq!(
        (digest, makespan),
        (GOLDEN, MAKESPAN),
        "serving golden digests moved: transcripts {digest:#018x}, makespan {makespan:#018x}; \
         per cell (1 / 3 workers):\n{table}"
    );
}
