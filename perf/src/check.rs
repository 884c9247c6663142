//! `perf check A.json B.json`: is B a regression against A?
//!
//! Applies the catalogue's bound to every (workload, end-to-end metric)
//! pair of two `result.json` files and prints one row per pair:
//!
//! * `ok` — B is no worse than A by more than the bound;
//! * `worse` — it is, and the metric resolves a change of that size;
//! * `unresolved` — it is, but A's own repetitions spread wider than the
//!   bound, so this pair of runs cannot tell (rerun; the bound stays).
//!
//! Runs whose input digests differ were not offered the same traffic and
//! are not compared at all.

use crate::metrics::{Better, END_TO_END};
use autoindex_support::json::Json;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn check(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_object).cloned();
    let (Some(wa), Some(wb)) = (workloads(&a), workloads(&b)) else {
        eprintln!("not a perf result file");
        return ExitCode::from(2);
    };

    let mut worse = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            eprintln!("{name}: missing from {b_path}");
            return ExitCode::from(2);
        };
        let digest = |r: &Json| {
            r.get("input_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if digest(ra).is_none() || digest(ra) != digest(rb) {
            eprintln!(
                "{name}: input digests differ ({:?} vs {:?}); the runs were not offered the same traffic",
                digest(ra),
                digest(rb)
            );
            return ExitCode::from(2);
        }
        for def in END_TO_END {
            let value = |r: &Json| r.get("end_to_end")?.get(def.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                eprintln!("{name}: {} missing", def.name);
                return ExitCode::from(2);
            };
            // Positive = B worse than A, as a share of A.
            let change = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let spread = ra
                .get("spread")
                .and_then(|s| s.get(def.name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let verdict = if change <= bound {
                "ok"
            } else if spread > bound {
                "unresolved"
            } else {
                worse += 1;
                "worse"
            };
            println!(
                "{name:<16} {:<18} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>5.0}%  {verdict}",
                def.name,
                change * 100.0,
                bound * 100.0
            );
        }
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
