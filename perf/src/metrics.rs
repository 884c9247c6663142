//! The metric catalogue: every name the benchmark emits, with its unit,
//! domain and direction. `BENCHMARK.json` is this table written out (the
//! smoke test holds the two together); `perf list` prints it.
//!
//! Domains follow the ROADMAP's standing constraint: **wall** is measured
//! on this host, **sim** is modelled and host-independent, **count** is a
//! tally that repeats exactly on the same input unless thread scheduling
//! feeds it (noted where it does).

use autoindex_support::json::{obj, Json};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Wall,
    Sim,
    Count,
}

impl Domain {
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Wall => "wall",
            Domain::Sim => "sim",
            Domain::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: Domain,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the metric is; for a layer metric, also the end-to-end metric
    /// it should move and the workload it shows on.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        domain,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};
use Domain::{Count, Sim, Wall};

/// What an operator of the system sees. Emitted with `--trace 0`, on every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "stmts_per_s",
        "1/s",
        Wall,
        Higher,
        0.25,
        "executed statements per second of driver-call wall time, scaled to the reference host speed; median over timed repetitions",
    ),
    e2e(
        "allocs_per_stmt",
        "count",
        Count,
        Lower,
        0.10,
        "allocator calls across the whole driver call, all threads, per executed statement",
    ),
    e2e(
        "peak_heap_mb",
        "MB",
        Count,
        Lower,
        0.15,
        "highest live-byte level reached during the driver call, above the level at entry",
    ),
    e2e(
        "sim_ms_per_stmt",
        "ms",
        Sim,
        Lower,
        0.15,
        "mean simulated latency per executed statement: the recommendation-quality guard",
    ),
    e2e(
        "setup_s",
        "s",
        Wall,
        Lower,
        0.25,
        "generate the input and build fresh product state, scaled to the reference host speed; median over set-ups",
    ),
];

/// Single layers, from the traced replay and one instrumented driver call.
/// Emitted with `--trace 1`; 0 where a layer is not on the workload's path.
pub const PER_LAYER: &[MetricDef] = &[
    // -- statement front end, fast path
    layer("sql.scan_fingerprint.ns", "ns", Wall, Lower,
        "self time per traced statement; moves stmts_per_s on fleet_oltp, bank_write_263; not parse_adhoc"),
    layer("fastpath.lookup.ns", "ns", Wall, Lower,
        "FastPathCache::get; moves stmts_per_s on fleet_oltp, bank_write_263"),
    layer("fastpath.bind.ns", "ns", Wall, Lower,
        "skeleton clone + CompiledTemplate::bind_into; moves stmts_per_s on fleet_oltp, bank_write_263"),
    layer("fastpath.bind.allocs", "count", Count, Lower,
        "allocator calls per traced statement inside bind; moves allocs_per_stmt on fleet_oltp"),
    layer("fastpath.hit_rate", "ratio", Count, Higher,
        "statements served by a compiled template / executed; ~1 on fleet_oltp, <0.1 on parse_adhoc"),
    layer("fastpath.fallbacks", "count", Count, Lower,
        "cache hits whose bind guard tripped (replayed through the parser)"),
    // -- statement front end, parse path
    layer("sql.parse.ns", "ns", Wall, Lower,
        "parse_statement; moves stmts_per_s on parse_adhoc and feed_p50_us on online_drift; not fleet_oltp"),
    layer("sql.parse.allocs", "count", Count, Lower,
        "allocator calls per traced statement inside parse_statement"),
    layer("shape.extract.ns", "ns", Wall, Lower,
        "QueryShape::extract; moves stmts_per_s on parse_adhoc, feed_p50_us on online_drift"),
    layer("shape.extract.allocs", "count", Count, Lower,
        "allocator calls per traced statement inside QueryShape::extract"),
    // -- plan + execute
    layer("db.execute_shape_at.ns", "ns", Wall, Lower,
        "DbSnapshot::execute_shape_at (SimDb::execute_shape on online_drift); moves stmts_per_s on bank_write_263, fleet_oltp; <3% of wide_serve"),
    layer("db.execute_shape_at.allocs", "count", Count, Lower,
        "allocator calls per traced statement inside execute; moves allocs_per_stmt"),
    layer("planner.plan.ns", "ns", Wall, Lower,
        "one standalone Planner::plan on the same shape and index set (1-in-64 sample); not part of the sum"),
    layer("planner.indexes_visible", "count", Count, Lower,
        "real indexes in a published snapshot, mean over publications"),
    layer("db.plans_per_exec", "ratio", Wall, Lower,
        "execute time / standalone plan time; ~2 when every indexed statement is planned twice"),
    // -- coordinator serial section
    layer("serve.logical_merge.ns", "ns", Wall, Lower,
        "the epoch's merge sort (presorted here: a lower bound); moves stmts_per_s on fleet_oltp"),
    layer("db.absorb.ns", "ns", Wall, Lower,
        "SimDb::absorb; coordinator serial section; moves stmts_per_s on fleet_oltp; not online_drift"),
    layer("db.absorb.allocs", "count", Count, Lower, "allocator calls per traced statement inside absorb"),
    layer("templates.observe.ns", "ns", Wall, Lower,
        "AutoIndex::observe_prehashed / observe; moves stmts_per_s on fleet_oltp, parse_adhoc"),
    layer("templates.observe.allocs", "count", Count, Lower,
        "allocator calls per traced statement inside observe"),
    layer("templates.count", "count", Count, Lower, "templates retained when the replay ends, all tenants"),
    layer("guard.poll.ns", "ns", Wall, Lower,
        "Guard::record_latency + poll per fed statement; online_drift only"),
    // -- publication
    layer("db.snapshot.us", "us", Wall, Lower,
        "SimDb::snapshot per publication; moves stmts_per_s on wide_serve, fleet_oltp; not online_drift"),
    layer("fastpath.build.us", "us", Wall, Lower,
        "FastPathCache::build per publication; moves stmts_per_s on wide_serve (300 templates), fleet_oltp (64 per epoch)"),
    layer("fastpath.compiled", "count", Count, Higher, "compiled templates per publication, mean"),
    layer("fastpath.ineligible", "count", Count, Lower, "templates that did not compile per publication, mean"),
    layer("driver.publications", "count", Count, Lower, "snapshot + cache publications in one driver call"),
    // -- tuner
    layer("diagnosis.ms", "ms", Wall, Lower,
        "AutoIndex::diagnose per call; moves stmts_per_s on wide_serve (dominant), stall_p50_ms on online_drift; not parse_adhoc"),
    layer("diagnosis.calls", "count", Count, Lower, "diagnose calls in the replay"),
    layer("diagnosis.fired_share", "ratio", Count, Lower, "diagnoses that asked for a tuning round"),
    layer("session.recommend.ms", "ms", Wall, Lower,
        "session().recommend_only() per round (candgen + search + refinement); moves stmts_per_s on wide_serve, stall_p50_ms on online_drift"),
    layer("candgen.ms", "ms", Wall, Lower, "TuningReport::candgen_time per round"),
    layer("candgen.candidates", "count", Count, Lower, "candidates generated per round"),
    layer("search.ms", "ms", Wall, Lower, "TuningReport::search_time per replayed round (the default strategy)"),
    layer("search.mcts.ms", "ms", Wall, Lower,
        "search_time of a recommend-only MCTS round on the replay's final template set, mean of 2"),
    layer("search.greedy.ms", "ms", Wall, Lower, "the same for greedy"),
    layer("search.bandit.ms", "ms", Wall, Lower, "the same for the bandit"),
    layer("search.evaluations", "count", Count, Lower, "estimator evaluations inside the search, per round"),
    layer("search.eval_cache_hit_rate", "ratio", Count, Higher, "MCTS eval-cache hits / (hits + evaluations)"),
    layer("estimator.whatif_calls", "count", Count, Lower, "db.whatif_calls over the replay, all tenants"),
    layer("estimator.cost_cache.hit_rate", "ratio", Count, Higher, "delta-cost term cache hits / lookups"),
    layer("estimator.shape_cost.ns", "ns", Wall, Lower,
        "one CostEstimator::shape_cost over the final templates and index set"),
    layer("guard.apply.ms", "ms", Wall, Lower,
        "with_recommendation(..)[.guarded(..)].run() / Guard::apply per round; moves stall_p50_ms, sim_ms_per_stmt"),
    layer("guard.shadow_reject_share", "ratio", Count, Lower, "shadow rejects / guarded applies attempted"),
    layer("guard.rollbacks", "count", Count, Lower, "guard snapshot restores in the replay"),
    layer("driver.tuning_rounds", "count", Count, Lower, "tuning rounds (fleet: tuner visits) in one driver call"),
    // -- the driver itself, from one instrumented call
    layer("driver.cpu_ns_per_stmt", "ns", Wall, Lower,
        "process user+system CPU / executed over one driver call; moves stmts_per_s on fleet_oltp"),
    layer("driver.residual_share", "ratio", Wall, Lower,
        "1 - sum of layer ns / driver cpu ns: queues, channel, gate, sorts, wake-ups; online_drift ~0 (no threads)"),
    layer("driver.ctx_switches_per_kstmt", "count", Count, Lower,
        "process context switches per 1000 executed statements (scheduling-dependent)"),
    layer("driver.all_cpus_speedup", "ratio", Wall, Higher,
        "one driver call free to use every CPU vs one pinned to one CPU (wall; >1 = the second CPU helps); online_drift ~1"),
    layer("driver.steals", "count", Count, Lower, "work-stealing grabs (fleet only; scheduling-dependent)"),
    layer("driver.epochs", "count", Count, Lower, "epoch boundaries (online_drift: diagnoses run)"),
    // -- per-operation latency, where a public per-operation call exists
    layer("online.feed_p50_us", "us", Wall, Lower, "median OnlineAutoIndex::feed; the inline parse path; online_drift only"),
    layer("online.feed_p99_us", "us", Wall, Lower, "p99 feed"),
    layer("online.feed_p999_us", "us", Wall, Lower, "p99.9 feed: diagnosis and tuning stalls"),
    layer("online.feed_samples", "count", Count, Higher, "feeds timed"),
    layer("online.stall_p50_ms", "ms", Wall, Lower,
        "median feed that ran a tuning round (Tuned / GuardApplied / ShadowRejected / BanditArmApplied)"),
    layer("online.stall_samples", "count", Count, Lower, "tuning-round feeds timed"),
    // -- honesty of this table
    layer("trace.boundary.ns", "ns", Wall, Lower,
        "snapshot + build + diagnosis + recommend + apply self time per traced statement"),
    layer("trace.loop.ns", "ns", Wall, Lower, "the replay's own loop (parent spans' self time) per traced statement"),
    layer("trace.total.ns", "ns", Wall, Lower, "sum of every *.ns above per traced statement"),
    layer("trace.statements", "count", Count, Higher, "statements in the timed replay passes"),
    layer("trace.overhead_share", "ratio", Wall, Lower, "(timed replay - untimed replay) / untimed replay wall; reported, never subtracted"),
    layer("trace.coverage", "ratio", Wall, Higher, "untimed replay wall ns per statement / driver cpu ns per statement"),
    layer("host.speed_share", "ratio", Wall, Higher,
        "calibration kernel speed / reference speed, mean over the rounds; the per-layer wall metrics are as measured, not scaled"),
];

/// Values for one list of the catalogue, in catalogue order.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.values[i].replace(value).is_none(), "{name} set twice");
    }

    /// Every metric of the list with its value; panics if one was not set.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            (
                d,
                v.unwrap_or_else(|| panic!("{} was never measured", d.name)),
            )
        })
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> Json {
        let map: BTreeMap<String, Json> = self
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    obj([("value", Json::from(v)), ("unit", Json::from(d.unit))]),
                )
            })
            .collect();
        Json::from(map)
    }

    pub fn print_table(&self) {
        for (d, v) in self.iter() {
            println!(
                "  {:<34} {:>16} {:<6} {}",
                d.name,
                format_value(v),
                d.unit,
                d.domain.as_str()
            );
        }
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// `perf list`: every workload and metric name with unit, domain and
/// direction.
pub fn list_json() -> Json {
    let metric = |m: &MetricDef, list: &str| {
        let mut fields = vec![
            ("name", Json::from(m.name)),
            ("list", Json::from(list)),
            ("unit", Json::from(m.unit)),
            ("domain", Json::from(m.domain.as_str())),
            ("better", Json::from(m.better.as_str())),
            ("note", Json::from(m.note)),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::from(b)));
        }
        obj(fields)
    };
    let workloads = crate::workloads::Workload::ALL
        .iter()
        .map(|w| obj([("name", Json::from(w.name())), ("why", Json::from(w.why()))]))
        .collect::<Vec<_>>();
    let metrics = END_TO_END
        .iter()
        .map(|m| metric(m, "end_to_end"))
        .chain(PER_LAYER.iter().map(|m| metric(m, "per_layer")))
        .collect::<Vec<_>>();
    obj([
        ("workloads", Json::from(workloads)),
        ("metrics", Json::from(metrics)),
    ])
}

/// `perf list` without `--json`: one line per name.
pub fn print_list() {
    for w in crate::workloads::Workload::ALL {
        println!("workload   {:<34} {}", w.name(), w.why());
    }
    for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in defs {
            println!(
                "{list:<10} {:<34} {:<6} {:<5} {:<6} {}",
                m.name,
                m.unit,
                m.domain.as_str(),
                m.better.as_str(),
                m.note
            );
        }
    }
}
