//! One benchmark run of one workload: `--trace 0` measures the end-to-end
//! metrics through the public drivers, `--trace 1` the per-layer metrics
//! through the traced replay and one instrumented driver call.

use crate::alloc;
use crate::calib;
use crate::drive::{self, Outcome, Tenant};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::os::{Affinity, Rusage};
use crate::trace::{self, Layer, LayerTotals, Mode, ReplayStats, Tracer, LAYERS};
use crate::workloads::{input_digest, Workload};
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// The CPUs the process was given, before `main` pinned it to one.
    pub host: Affinity,
}

/// What a run hands to `main`: the contract's result line and the extras
/// `result.json` keeps.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    pub input_digest: u64,
    /// Interquartile range / median over the timed repetitions, per metric
    /// that has repetitions (what `perf check` calls a metric's spread).
    pub spreads: Vec<(&'static str, f64)>,
}

/// Timed repetitions a run makes at least, however short `--seconds` is.
const MIN_TIMED_REPS: usize = 3;
/// Set-ups timed before the repetitions start, so that `setup_s` is a
/// median over enough samples even where a repetition takes seconds.
const EXTRA_SETUPS: usize = 4;

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median (0 below four samples).
fn spread(values: &mut [f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let m = median(values);
    let n = values.len();
    (values[n * 3 / 4] - values[n / 4]) / m
}

/// Nearest-rank percentile over sorted samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

struct Check {
    ok: bool,
}

impl Check {
    fn that(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.ok = false;
            println!("CHECK FAILED: {}", what());
        }
    }
}

/// Generate the input and build fresh product state, timed.
fn setup(args: &Args) -> (Vec<Tenant>, u64, Duration) {
    let t0 = Instant::now();
    let input = args.workload.generate(args.seed, args.scale);
    let generated = t0.elapsed();
    // The digest is a check on the generators, not part of any set-up a
    // user would pay for.
    let digest = input_digest(&input);
    let t1 = Instant::now();
    let tenants = drive::build(args.workload, input);
    (tenants, digest, generated + t1.elapsed())
}

// ------------------------------------------------------------ end to end

/// Take the calibration sample that closes an interval: the share of the
/// reference speed the host reached over it is the mean of the samples at
/// its two ends.
fn host_share(speed_before: &mut f64) -> f64 {
    let after = calib::host_speed();
    let host = (*speed_before + after) / 2.0 / calib::REFERENCE_SPEED;
    *speed_before = after;
    host
}

pub fn end_to_end(args: &Args) -> RunResult {
    let w = args.workload;
    let mut check = Check { ok: true };
    let started = Instant::now();
    let mut first: Option<(Outcome, u64)> = None;
    let mut counted = alloc::AllocStats::default();
    let (mut rates, mut raw_rates, mut hosts) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);

    // A calibration sample sits between every two timed things, and each is
    // normalised by the mean of its two neighbours (`calib.rs`): `host` is
    // the share of the reference speed the host reached around it.
    let mut speed_before = calib::host_speed();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| setup(args).2.as_secs_f64() * host_share(&mut speed_before))
        .collect();

    // Repetition 0 runs inside the allocator window and is discarded for
    // timing (the counters cost several atomics per allocation; it also
    // warms the process). Every repetition gets freshly built state.
    loop {
        let (tenants, digest, setup_time) = setup(args);
        let out = if first.is_none() {
            let (stats, out) = alloc::counted(|| drive::drive(w, tenants, false));
            counted = stats;
            speed_before = calib::host_speed();
            out
        } else {
            let out = drive::drive(w, tenants, false);
            let host = host_share(&mut speed_before);
            let raw = out.executed as f64 / out.wall.as_secs_f64();
            raw_rates.push(raw);
            rates.push(raw / host);
            setups.push(setup_time.as_secs_f64() * host);
            hosts.push(host);
            out
        };
        attempted += out.offered;
        failed += out.failed;
        check.that(out.accounted(), || {
            format!(
                "executed {} + failed {} != offered {}",
                out.executed, out.failed, out.offered
            )
        });
        match &first {
            None => first = Some((out, digest)),
            Some((f, d)) => {
                check.that(*d == digest, || {
                    "input digest differs between repetitions".into()
                });
                check.that(f.transcript == out.transcript, || {
                    "transcript digest differs between repetitions".into()
                });
                check.that(f.sim_ms.to_bits() == out.sim_ms.to_bits(), || {
                    format!(
                        "simulated latency differs between repetitions: {} vs {}",
                        f.sim_ms, out.sim_ms
                    )
                });
            }
        }
        if rates.len() >= MIN_TIMED_REPS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let (first, digest) = first.expect("at least one repetition");
    check.that(first.executed > 0, || "nothing executed".into());
    let spreads = vec![
        ("stmts_per_s", spread(&mut rates)),
        ("setup_s", spread(&mut setups)),
    ];
    let mut m = Values::new(END_TO_END);
    m.set("stmts_per_s", median(&mut rates));
    m.set(
        "allocs_per_stmt",
        counted.calls as f64 / first.executed as f64,
    );
    m.set("peak_heap_mb", counted.peak_bytes as f64 / 1e6);
    m.set("sim_ms_per_stmt", first.sim_ms / first.executed as f64);
    m.set("setup_s", median(&mut setups));

    println!(
        "{} seed {} scale {}: input {digest:016x} transcript {:016x}, {} statements offered per repetition, \
         1 counted + {} timed repetitions, pinned to one of {} CPUs",
        w.name(),
        args.seed,
        args.scale,
        first.transcript,
        first.offered,
        rates.len(),
        args.host.cpus(),
    );
    m.print_table();
    println!(
        "  as measured (wall): {:.0} stmts/s at {:.2} of the reference host speed; stmts_per_s and setup_s are \
         scaled to the reference speed",
        median(&mut raw_rates),
        median(&mut hosts)
    );
    let rates: Vec<String> = rates.iter().map(|r| format!("{:.1}", r / 1e3)).collect();
    println!("  timed repetitions, sorted, kstmt/s: {}", rates.join(" "));
    RunResult {
        correct: check.ok,
        attempted,
        failed,
        metrics: m,
        input_digest: digest,
        spreads,
    }
}

// ------------------------------------------------------------- per layer

fn add(into: &mut [LayerTotals; LAYERS], from: &[LayerTotals; LAYERS]) {
    for (a, b) in into.iter_mut().zip(from) {
        a.calls += b.calls;
        a.self_ns += b.self_ns;
        a.total_ns += b.total_ns;
        a.self_allocs += b.self_allocs;
    }
}

pub fn per_layer(args: &Args) -> RunResult {
    let w = args.workload;
    let mut check = Check { ok: true };
    let started = Instant::now();

    let replay_pass = |mode: Mode| -> (ReplayStats, Tracer, Duration, Vec<Tenant>) {
        let (mut tenants, _, _) = setup(args);
        let mut tr = Tracer::new(mode);
        let t0 = Instant::now();
        let stats = trace::replay(w, &mut tenants, &mut tr);
        (stats, tr, t0.elapsed(), tenants)
    };

    // Rounds of three until --seconds is used up, so that slow drift of the
    // host falls on all three alike:
    //   a. an instrumented call of the real driver — what the layers have
    //      to add up to;
    //   b. the replay untimed — the baseline for the timer overhead, and
    //      the proof that the replay does the driver's work;
    //   c. the replay with span timers.
    let mut digest = None;
    let mut used = Rusage::default();
    let mut driven_wall = Duration::ZERO;
    let (mut driven_executed, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut plain_wall = Duration::ZERO;
    let mut timed_wall = Duration::ZERO;
    let mut totals = [LayerTotals::default(); LAYERS];
    let mut passes = 0u32;
    let mut host_speed = 0.0;
    let (driven, stats, sample, mut final_state) = loop {
        host_speed += calib::host_speed();
        let (tenants, d, _) = setup(args);
        check.that(*digest.get_or_insert(d) == d, || {
            "input digest differs between rounds".into()
        });
        let before = Rusage::now();
        let driven = drive::drive(w, tenants, true);
        let cost = Rusage::now().since(before);
        driven_wall += driven.wall;
        used.cpu += cost.cpu;
        used.ctx_switches += cost.ctx_switches;
        driven_executed += driven.executed;
        check.that(driven.accounted() && driven.executed > 0, || {
            "driver accounting broken".into()
        });

        let (plain, _, wall, _) = replay_pass(Mode::Off);
        plain_wall += wall;
        check.that(plain.executed == driven.executed, || {
            format!(
                "replay executed {} statements, the driver {}",
                plain.executed, driven.executed
            )
        });
        check.that(plain.sim_ms.to_bits() == driven.sim_ms.to_bits(), || {
            format!(
                "replay simulated {} ms, the driver {}",
                plain.sim_ms, driven.sim_ms
            )
        });
        check.that(plain.bind_mismatches == 0, || {
            format!(
                "{} of {} bound shapes differ from parse + extract",
                plain.bind_mismatches, plain.bind_checks
            )
        });

        let (stats, tr, wall, tenants) = replay_pass(Mode::Time);
        timed_wall += wall;
        check.that(stats.sim_ms.to_bits() == plain.sim_ms.to_bits(), || {
            "timed replay diverged from the untimed one".into()
        });
        add(&mut totals, &tr.totals);
        passes += 1;
        attempted += driven.offered + 2 * stats.statements;
        failed += driven.failed + 2 * stats.failed;
        if started.elapsed().as_secs_f64() >= args.seconds {
            break (driven, stats, tr.sample, tenants);
        }
    };

    // Once each: allocator calls per layer, and a driver call with the
    // threads free to use every CPU the process was given — the scaling
    // the pinned runs cannot show.
    let (_, (_, allocs, _, _)) = alloc::counted(|| replay_pass(Mode::Allocs));
    let (tenants, _, _) = setup(args);
    args.host.apply();
    let floating = drive::drive(w, tenants, false);
    args.host.last_cpu().apply();
    attempted += stats.statements + floating.offered;
    failed += stats.failed + floating.failed;
    write_spans(w, &sample);

    // 5. Strategy comparison and shape_cost on the busiest tenant's final
    //    state.
    let busiest = final_state
        .iter_mut()
        .max_by_key(|t| t.advisor.template_count())
        .expect("at least one tenant");
    let probe = trace::tuner_probe(busiest);

    let n = (stats.statements * passes as u64) as f64;
    let per_stmt = |l: Layer| totals[l as usize].self_ns as f64 / n;
    let per_call = |l: Layer, unit_ns: f64| {
        let t = totals[l as usize];
        if t.calls == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.calls as f64 / unit_ns
        }
    };
    let allocs_per_stmt =
        |l: Layer| allocs.totals[l as usize].self_allocs as f64 / stats.statements as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_round = |x: f64| {
        if stats.rounds == 0 {
            0.0
        } else {
            x / stats.rounds as f64
        }
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let mut m = Values::new(PER_LAYER);
    for (l, allocs_too) in [
        (Layer::SqlScanFingerprint, false),
        (Layer::FastpathLookup, false),
        (Layer::FastpathBind, true),
        (Layer::SqlParse, true),
        (Layer::ShapeExtract, true),
        (Layer::DbExecute, true),
        (Layer::LogicalMerge, false),
        (Layer::DbAbsorb, true),
        (Layer::TemplatesObserve, true),
        (Layer::GuardPoll, false),
    ] {
        m.set(&format!("{}.ns", l.name()), per_stmt(l));
        if allocs_too {
            m.set(&format!("{}.allocs", l.name()), allocs_per_stmt(l));
        }
    }
    m.set(
        "fastpath.hit_rate",
        ratio(stats.fastpath_hits, stats.executed),
    );
    m.set("fastpath.fallbacks", stats.fastpath_fallbacks as f64);
    let plan_ns = ratio(stats.plan_ns, stats.plan_samples);
    m.set("planner.plan.ns", plan_ns);
    m.set(
        "planner.indexes_visible",
        ratio(stats.indexes_visible, stats.publications),
    );
    let exec = totals[Layer::DbExecute as usize];
    m.set(
        "db.plans_per_exec",
        if plan_ns > 0.0 {
            ratio(exec.total_ns, exec.calls) / plan_ns
        } else {
            0.0
        },
    );
    m.set("templates.count", stats.templates as f64);
    m.set("db.snapshot.us", per_call(Layer::DbSnapshot, 1e3));
    m.set("fastpath.build.us", per_call(Layer::FastpathBuild, 1e3));
    m.set(
        "fastpath.compiled",
        ratio(stats.compiled, stats.publications),
    );
    m.set(
        "fastpath.ineligible",
        ratio(stats.ineligible, stats.publications),
    );
    m.set("driver.publications", driven.publications as f64);
    m.set("diagnosis.ms", per_call(Layer::Diagnosis, 1e6));
    m.set("diagnosis.calls", stats.diagnoses as f64);
    m.set(
        "diagnosis.fired_share",
        ratio(stats.diagnoses_fired, stats.diagnoses),
    );
    m.set(
        "session.recommend.ms",
        per_call(Layer::SessionRecommend, 1e6),
    );
    m.set("candgen.ms", per_round(ms(stats.candgen)));
    m.set("candgen.candidates", per_round(stats.candidates as f64));
    m.set("search.ms", per_round(ms(stats.search)));
    m.set("search.mcts.ms", ms(probe.mcts));
    m.set("search.greedy.ms", ms(probe.greedy));
    m.set("search.bandit.ms", ms(probe.bandit));
    m.set(
        "search.evaluations",
        per_round(stats.search_evaluations as f64),
    );
    m.set(
        "search.eval_cache_hit_rate",
        ratio(
            stats.eval_cache_hits,
            stats.eval_cache_hits + stats.search_evaluations,
        ),
    );
    m.set("estimator.whatif_calls", stats.whatif_calls as f64);
    m.set(
        "estimator.cost_cache.hit_rate",
        ratio(
            stats.cost_cache_hits,
            stats.cost_cache_hits + stats.cost_cache_misses,
        ),
    );
    m.set("estimator.shape_cost.ns", probe.shape_cost_ns);
    m.set("guard.apply.ms", per_call(Layer::GuardApply, 1e6));
    m.set(
        "guard.shadow_reject_share",
        ratio(
            stats.guard_shadow_rejects,
            stats.guard_shadow_rejects + stats.guard_applies,
        ),
    );
    m.set("guard.rollbacks", stats.guard_rollbacks as f64);
    m.set("driver.tuning_rounds", driven.tuning_rounds as f64);

    let cpu_ns = used.cpu.as_nanos() as f64 / driven_executed as f64;
    let plain_ns = plain_wall.as_nanos() as f64 / n;
    m.set("driver.cpu_ns_per_stmt", cpu_ns);
    m.set("driver.residual_share", 1.0 - plain_ns / cpu_ns);
    m.set(
        "driver.ctx_switches_per_kstmt",
        used.ctx_switches as f64 * 1e3 / driven_executed as f64,
    );
    m.set(
        "driver.all_cpus_speedup",
        driven_wall.as_secs_f64() / passes as f64 / floating.wall.as_secs_f64(),
    );
    m.set("driver.steals", driven.steals as f64);
    m.set("driver.epochs", driven.epochs as f64);

    let mut feeds = driven.feed_ns.clone();
    feeds.sort_unstable();
    let mut stalls = driven.stall_ns.clone();
    stalls.sort_unstable();
    m.set("online.feed_p50_us", percentile(&feeds, 0.50) / 1e3);
    m.set("online.feed_p99_us", percentile(&feeds, 0.99) / 1e3);
    m.set("online.feed_p999_us", percentile(&feeds, 0.999) / 1e3);
    m.set("online.feed_samples", feeds.len() as f64);
    m.set("online.stall_p50_ms", percentile(&stalls, 0.50) / 1e6);
    m.set("online.stall_samples", stalls.len() as f64);

    let boundary: f64 = [
        Layer::DbSnapshot,
        Layer::FastpathBuild,
        Layer::Diagnosis,
        Layer::SessionRecommend,
        Layer::GuardApply,
    ]
    .into_iter()
    .map(per_stmt)
    .sum();
    let total: f64 = (0..LAYERS)
        .filter(|&l| l != Layer::Aux as usize)
        .map(|l| totals[l].self_ns as f64 / n)
        .sum();
    m.set("trace.boundary.ns", boundary);
    m.set(
        "trace.loop.ns",
        per_stmt(Layer::Stmt) + per_stmt(Layer::Boundary),
    );
    m.set("trace.total.ns", total);
    m.set("trace.statements", n);
    let timed_ns = timed_wall.as_nanos() as f64 / n;
    m.set("trace.overhead_share", (timed_ns - plain_ns) / plain_ns);
    m.set("trace.coverage", plain_ns / cpu_ns);
    m.set(
        "host.speed_share",
        host_speed / passes as f64 / calib::REFERENCE_SPEED,
    );

    let digest = digest.expect("at least one round");
    println!(
        "{} seed {} scale {}: input {digest:016x}, {passes} rounds of driver call + untimed replay + timed replay \
         over {} statements, {} bound shapes checked against parse + extract per replay, pinned to one of {} CPUs",
        w.name(),
        args.seed,
        args.scale,
        stats.statements,
        stats.bind_checks,
        args.host.cpus(),
    );
    m.print_table();
    RunResult {
        correct: check.ok,
        attempted,
        failed,
        metrics: m,
        input_digest: digest,
        spreads: Vec::new(),
    }
}

/// Write the raw span sample, one JSON object per line.
fn write_spans(w: Workload, spans: &[trace::Span]) {
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.jsonl", w.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            let stmt = if s.stmt == u64::MAX { -1 } else { s.stmt as i64 };
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"stmt\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                stmt,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    });
    match written {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// `perf/out`, next to this package's manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
