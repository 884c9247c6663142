//! Every workload at 1/100 scale, both modes, through the built binary:
//! the result line has the contract's shape, and the names it carries are
//! exactly the names `BENCHMARK.json` and `perf list` declare.

use autoindex_support::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs");
    assert!(
        out.status.success(),
        "perf {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {doc}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_declared_metric_is_emitted_on_every_workload() {
    let bench = benchmark_json();
    for (list, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let declared: Vec<(&str, &str)> = array(&bench, list)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        for w in array(&bench, "workloads") {
            let name = text(w, "name");
            let out = perf(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--scale",
                "0.01",
                "--trace",
                trace,
            ]);
            let line = out.lines().last().expect("a result line");
            let result = Json::parse(line).expect("the last line is JSON");
            let keys: BTreeSet<&str> = result
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
                "{name}"
            );
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{name}"
            );

            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let wanted: BTreeSet<&str> = declared.iter().map(|(n, _)| *n).collect();
            assert_eq!(emitted, wanted, "{name} --trace {trace}");
            for (metric, unit) in &declared {
                assert!(valid_name(metric), "{metric}");
                let m = &metrics[*metric];
                assert_eq!(text(m, "unit"), *unit, "{name} {metric}");
                let v = m.get("value").and_then(Json::as_f64).expect("a number");
                assert!(v.is_finite(), "{name} {metric} = {v}");
                if list == "end_to_end" {
                    assert!(
                        v > 0.0,
                        "{name} {metric} = {v}: end-to-end metrics are never 0"
                    );
                }
            }
        }
    }
}

#[test]
fn the_catalogue_is_benchmark_json() {
    let bench = benchmark_json();
    let listed = Json::parse(&perf(&["list", "--json"])).expect("perf list --json parses");

    let workloads = |doc: &Json| -> Vec<(String, String)> {
        array(doc, "workloads")
            .iter()
            .map(|w| (text(w, "name").to_string(), text(w, "why").to_string()))
            .collect()
    };
    assert_eq!(workloads(&bench), workloads(&listed));

    for list in ["end_to_end", "per_layer"] {
        let declared: Vec<String> = array(&bench, list)
            .iter()
            .map(|m| {
                format!(
                    "{} {} {} {:?}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64)
                )
            })
            .collect();
        let catalogue: Vec<String> = array(&listed, "metrics")
            .iter()
            .filter(|m| text(m, "list") == list)
            .map(|m| {
                assert!(matches!(text(m, "domain"), "wall" | "sim" | "count"));
                format!(
                    "{} {} {} {:?}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64)
                )
            })
            .collect();
        assert_eq!(declared, catalogue, "{list}");
    }
}

#[test]
fn check_refuses_different_inputs_and_flags_a_regression() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let result = |digest: &str, rate: f64| {
        let e2e: Vec<String> = array(&benchmark_json(), "end_to_end")
            .iter()
            .map(|m| {
                let v = if text(m, "name") == "stmts_per_s" {
                    rate
                } else {
                    1.0
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    text(m, "name"),
                    text(m, "unit")
                )
            })
            .collect();
        format!(
            "{{\"workloads\": {{\"w\": {{\"input_digest\": \"{digest}\", \"spread\": {{}}, \"end_to_end\": {{{}}}}}}}}}",
            e2e.join(", ")
        )
    };
    let write = |name: &str, body: String| {
        let p = dir.join(name);
        std::fs::write(&p, body).expect("temp file");
        p.to_str().expect("utf-8 path").to_string()
    };
    let base = write("a.json", result("00", 1000.0));
    let same = write("b.json", result("00", 990.0));
    let slower = write("c.json", result("00", 500.0));
    let other = write("d.json", result("01", 1000.0));
    let code = |a: &str, b: &str| {
        Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(["check", a, b])
            .output()
            .expect("perf runs")
            .status
            .code()
    };
    assert_eq!(code(&base, &same), Some(0));
    assert_eq!(code(&base, &slower), Some(1));
    assert_eq!(code(&base, &other), Some(2));
}
