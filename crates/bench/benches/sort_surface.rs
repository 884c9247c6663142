//! Sort-aware & covering advisor surface matrix. Records the
//! `sort_surface` result (`autoindex_bench::record`).
//!
//! Every cell is (scenario × strategy × surface on/off): the three
//! `autoindex_workloads` PR10 scenarios (time-series dashboards,
//! social-graph fanout, multi-tenant SaaS) replayed round by round under
//! greedy, MCTS and the C²UCB bandit, once with the PR10 candidate
//! classes disabled (the equality/range-only advisor every earlier PR
//! ships) and once with `sort_aware` + `covering` enabled.
//!
//! Reported per cell: total simulated latency, the sort-elision ratio
//! (ORDER BY / GROUP BY executions served without a simulated sort,
//! from `planner.sort_elided` over the ordered-read count), covering-scan
//! hits (`planner.covering_scans`), the candidate-class counters
//! (`advisor.candidates.{sort_aware,covering}`) and the adopted surface
//! indexes. All simulated-domain — host independent and byte-stable, so
//! the recorded document must equal
//! `crates/bench/baselines/sort_surface.json` **exactly**.
//!
//! Gates (the run aborts otherwise):
//!
//! 1. on the time-series dashboard scenario, every strategy's
//!    surface-on run adopts at least one sort-order-aware or covering
//!    index (a key with a DESC part, or a key carrying a payload/group
//!    column no filter-only class can produce);
//! 2. on the same scenario, every strategy's surface-on total simulated
//!    latency beats its own equality/range-only (surface-off) total;
//! 3. surface-on runs elide sorts and hit covering scans (> 0) on every
//!    scenario where the classes are enabled.

use autoindex_bench::record;
use autoindex_core::{AutoIndex, AutoIndexConfig, CandidateConfig, StrategyKind};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::index::{IndexDef, SortDirection};
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::hash::{fnv1a_from, FNV_OFFSET};
use autoindex_support::json::{obj, Json};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::{surface_scenarios, SurfaceScenario};

const SEED: u64 = 910;
const STATEMENTS: usize = 1_200;
const ROUND: usize = 150;
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Greedy,
    StrategyKind::Mcts,
    StrategyKind::Bandit,
];
/// The scenario the adoption + cost gates bind to.
const GATED_SCENARIO: &str = "time_series";

struct Cell {
    scenario: &'static str,
    strategy: StrategyKind,
    surface: bool,
    total_sim_ms: f64,
    ordered_reads: u64,
    sort_elided: u64,
    covering_scans: u64,
    cand_sort_aware: u64,
    cand_covering: u64,
    adopted_surface: Vec<String>,
}

impl Cell {
    fn elision_ratio(&self) -> f64 {
        if self.ordered_reads == 0 {
            0.0
        } else {
            self.sort_elided as f64 / self.ordered_reads as f64
        }
    }
}

fn build_db(s: &SurfaceScenario) -> SimDb {
    let cfg = SimDbConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut db = SimDb::with_metrics(s.catalog.clone(), cfg, MetricsRegistry::new());
    for d in &s.start_indexes {
        let _ = db.create_index(d.clone());
    }
    db
}

/// An adopted index counts as *surface* when no equality/range-only
/// candidate class could have produced it: it carries a DESC key part
/// (sort-aware), or it drags in a pure payload / group column that is
/// never filtered on in the scenario (covering).
fn is_surface_index(d: &IndexDef) -> bool {
    let has_desc = (0..d.columns.len()).any(|i| d.direction(i) == SortDirection::Desc);
    let payload = match d.table.as_str() {
        // `value` is only ever projected; `host_id` only grouped.
        "metrics" => ["value", "host_id"].as_slice(),
        // `followee_id` is only projected; `author_id` appears as a filter
        // too, so it does not qualify.
        "follows" => ["followee_id"].as_slice(),
        // `assignee_id` is only grouped, `ticket_id` only projected.
        "tickets" => ["assignee_id"].as_slice(),
        _ => [].as_slice(),
    };
    // A *single-column* index on a group key is still producible by the
    // old classes; only a composite dragging the payload in is covering.
    has_desc || (d.columns.len() >= 2 && d.columns.iter().any(|c| payload.contains(&c.as_str())))
}

/// One (scenario × strategy × surface) cell: round-by-round replay with
/// tuning, candidate classes toggled through `CandidateConfig`'s fields.
fn run_cell(s: &SurfaceScenario, kind: StrategyKind, surface: bool) -> Cell {
    let mut db = build_db(s);
    let cfg = AutoIndexConfig {
        strategy: kind,
        candidates: CandidateConfig {
            sort_aware: surface,
            covering: surface,
            ..CandidateConfig::default()
        },
        ..AutoIndexConfig::default()
    };
    let mut advisor = AutoIndex::new(cfg, NativeCostEstimator);
    let mut total = 0.0;
    let mut ordered_reads = 0u64;
    for round in s.queries.chunks(ROUND) {
        let mut round_total = 0.0;
        for q in round {
            let stmt = autoindex_sql::parse_statement(q).expect("scenario SQL parses");
            round_total += db.execute(&stmt).latency_ms;
            advisor.observe(q, &db).expect("scenario SQL templates");
            if q.contains("ORDER BY") || q.contains("GROUP BY") {
                ordered_reads += 1;
            }
        }
        total += round_total;
        advisor.observe_reward(round_total / round.len() as f64);
        advisor.session(&mut db).run().expect("tuning session");
        db.reset_usage();
    }
    let started: Vec<String> = s.start_indexes.iter().map(|d| d.key()).collect();
    let adopted_surface: Vec<String> = db
        .indexes()
        .filter(|(_, d)| !started.contains(&d.key()) && is_surface_index(d))
        .map(|(_, d)| d.key())
        .collect();
    let m = db.metrics();
    Cell {
        scenario: s.name,
        strategy: kind,
        surface,
        total_sim_ms: total,
        ordered_reads,
        sort_elided: m.counter_value("planner.sort_elided"),
        covering_scans: m.counter_value("planner.covering_scans"),
        cand_sort_aware: m.counter_value("advisor.candidates.sort_aware"),
        cand_covering: m.counter_value("advisor.candidates.covering"),
        adopted_surface,
    }
}

fn main() {
    let scenarios = surface_scenarios(SEED, STATEMENTS);
    let mut cells: Vec<Cell> = Vec::new();
    for s in &scenarios {
        for &kind in &STRATEGIES {
            for surface in [false, true] {
                let cell = run_cell(s, kind, surface);
                eprintln!(
                    "{:>12} {:>6} surface={:<5} total {:>10.1} sim-ms | elision {:>5.1}% | \
                     covering {:>6} | cand s/c {}/{} | adopted {:?}",
                    cell.scenario,
                    kind.name(),
                    cell.surface,
                    cell.total_sim_ms,
                    cell.elision_ratio() * 100.0,
                    cell.covering_scans,
                    cell.cand_sort_aware,
                    cell.cand_covering,
                    cell.adopted_surface,
                );
                cells.push(cell);
            }
        }
    }

    // ---- gates ----
    let cell_of = |scenario: &str, kind: StrategyKind, surface: bool| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.strategy == kind && c.surface == surface)
            .expect("cell")
    };
    for &kind in &STRATEGIES {
        let on = cell_of(GATED_SCENARIO, kind, true);
        let off = cell_of(GATED_SCENARIO, kind, false);
        assert!(
            !on.adopted_surface.is_empty(),
            "{} adopted no sort-aware/covering index on {GATED_SCENARIO}",
            kind.name()
        );
        assert!(
            on.total_sim_ms < off.total_sim_ms,
            "{} surface-on ({:.1} sim-ms) did not beat equality/range-only ({:.1} sim-ms) \
             on {GATED_SCENARIO}",
            kind.name(),
            on.total_sim_ms,
            off.total_sim_ms
        );
    }
    for c in cells.iter().filter(|c| c.surface) {
        assert!(
            c.sort_elided > 0 && c.covering_scans > 0,
            "{} / {}: surface-on run elided {} sorts, {} covering scans (need > 0)",
            c.scenario,
            c.strategy.name(),
            c.sort_elided,
            c.covering_scans
        );
    }

    // Matrix-wide determinism fingerprint: FNV-1a over each cell's
    // simulated total and counters, in matrix order.
    let mut digest = FNV_OFFSET;
    let mut mix = |v: u64| digest = fnv1a_from(digest, &v.to_le_bytes());
    for c in &cells {
        mix(c.total_sim_ms.to_bits());
        mix(c.sort_elided);
        mix(c.covering_scans);
        mix(c.cand_sort_aware);
        mix(c.cand_covering);
    }

    let doc = obj([
        ("bench", Json::from("sort_surface")),
        (
            "workload",
            Json::from(format!(
                "3 surface scenarios x {STATEMENTS} statements, round {ROUND}, \
                 strategies greedy/mcts/bandit x surface off/on, seed {SEED}"
            )),
        ),
        (
            "metric",
            Json::from(
                "total simulated latency per cell (host independent), sort-elision ratio \
                 = planner.sort_elided / ordered reads (can exceed 1: guard validation \
                 replays statements and tallies too), covering_scans = index-only scans; \
                 surface off = equality/range-only candidate classes",
            ),
        ),
        ("scenarios", Json::from(scenarios.len() as u64)),
        ("strategies", Json::from(STRATEGIES.len() as u64)),
        ("matrix_digest", Json::from(format!("{digest:016x}"))),
        (
            "rows",
            Json::Array(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("scenario", Json::from(c.scenario)),
                            ("strategy", Json::from(c.strategy.name())),
                            ("surface", Json::from(c.surface)),
                            ("total_sim_ms", Json::from(c.total_sim_ms)),
                            ("ordered_reads", Json::from(c.ordered_reads)),
                            ("sort_elided", Json::from(c.sort_elided)),
                            ("elision_ratio", Json::from(c.elision_ratio())),
                            ("covering_scans", Json::from(c.covering_scans)),
                            ("cand_sort_aware", Json::from(c.cand_sort_aware)),
                            ("cand_covering", Json::from(c.cand_covering)),
                            (
                                "adopted_surface",
                                Json::Array(
                                    c.adopted_surface
                                        .iter()
                                        .map(|k| Json::from(k.as_str()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gate",
            obj([
                ("gated_scenario", Json::from(GATED_SCENARIO)),
                (
                    "required_adoption",
                    Json::from("every strategy adopts >= 1 surface index with surface on"),
                ),
                (
                    "required_cost",
                    Json::from("surface-on total_sim_ms < surface-off total_sim_ms per strategy"),
                ),
                (
                    "required_engagement",
                    Json::from("sort_elided > 0 and covering_scans > 0 in every surface-on cell"),
                ),
            ]),
        ),
    ]);
    record("sort_surface", &doc);
}
