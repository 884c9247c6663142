//! `perf`: a wall-clock benchmark over the three statement drivers,
//! measured from outside. See `README.md` for the workloads, the metric
//! catalogue and how to compare two runs.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//! perf [--seed N] [--seconds S]                         every workload, both modes; writes out/result.json
//! perf list [--json]                                    every workload and metric name
//! perf check A.json B.json                              apply the bounds to two result files
//! ```

mod alloc;
mod calib;
mod check;
mod drive;
mod metrics;
mod os;
mod run;
mod trace;
mod workloads;

use autoindex_support::json::{obj, Json};
use run::{Args, RunResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The README names 77 as the held-out seed: use it to confirm a claim,
/// never while developing the change.
const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--scale F]\n       \
         perf list [--json]\n       perf check A.json B.json"
    );
    ExitCode::from(2)
}

/// The contract's result line.
fn result_line(r: &RunResult) -> Json {
    obj([
        ("correct", Json::from(r.correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", r.metrics.to_json()),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            if argv.get(1).is_some_and(|a| a == "--json") {
                println!("{}", metrics::list_json().pretty());
            } else {
                metrics::print_list();
            }
            return ExitCode::SUCCESS;
        }
        Some("check") => {
            let [_, a, b] = argv.as_slice() else {
                return usage();
            };
            return check::check(a, b);
        }
        _ => {}
    }

    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut scale = 1.0;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--scale" => value.parse().map(|v| scale = v).is_ok_and(|()| scale > 0.0),
            "--trace" => {
                trace = Some(value == "1");
                value == "0" || value == "1"
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }

    // Every measurement runs on one CPU (README.md, "One CPU"); threads the
    // drivers spawn inherit the mask.
    let host = os::Affinity::current();
    host.last_cpu().apply();

    if let Some(workload) = workload {
        let args = Args {
            workload,
            seed,
            seconds,
            scale,
            host,
        };
        let r = if trace == Some(true) {
            run::per_layer(&args)
        } else {
            run::end_to_end(&args)
        };
        println!("{}", result_line(&r));
        return if r.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // No workload named: all of them, both modes, one result file.
    let mut all_correct = true;
    let mut by_workload = BTreeMap::new();
    for workload in Workload::ALL {
        let args = Args {
            workload,
            seed,
            seconds,
            scale,
            host,
        };
        let e2e = run::end_to_end(&args);
        let layers = run::per_layer(&args);
        all_correct &= e2e.correct && layers.correct;
        let spreads: BTreeMap<String, Json> = e2e
            .spreads
            .iter()
            .map(|(name, s)| (name.to_string(), Json::from(*s)))
            .collect();
        by_workload.insert(
            workload.name().to_string(),
            obj([
                (
                    "input_digest",
                    Json::from(format!("{:016x}", e2e.input_digest)),
                ),
                ("correct", Json::from(e2e.correct && layers.correct)),
                ("end_to_end", e2e.metrics.to_json()),
                ("spread", Json::from(spreads)),
                ("per_layer", layers.metrics.to_json()),
            ]),
        );
    }
    let doc = obj([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(scale)),
        ("host_cpus", Json::from(host.cpus() as u64)),
        ("workloads", Json::from(by_workload)),
    ]);
    let path = run::out_dir().join("result.json");
    match std::fs::create_dir_all(run::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{}\n", doc.pretty())))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
