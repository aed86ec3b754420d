//! Smoke-sized runs of every workload: the printed metric names and units
//! match `BENCHMARK.json`, every output check passes, and the printed
//! digests repeat exactly across two runs with the same seed.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

const SEED: &str = "5";

struct Run {
    digests: Vec<String>,
    result: Value,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Run {
        digests: stdout.lines().filter(|l| l.starts_with("digest ")).map(String::from).collect(),
        result: serde_json::from_str(last).expect("the last line is JSON"),
    }
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(kind)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
    let metrics = result.get("metrics").and_then(Value::as_object).expect("metrics object");
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn smoke(workload: &str) {
    let first = run(workload, false);
    let second = run(workload, false);
    assert!(!first.digests.is_empty(), "{workload} prints digests");
    assert_eq!(first.digests, second.digests, "{workload} digests differ between runs");
    assert_eq!(sorted(printed(&first.result)), sorted(declared("end_to_end")));

    let traced = run(workload, true);
    assert_eq!(first.digests, traced.digests, "{workload} traced digests differ");
    assert_eq!(sorted(printed(&traced.result)), sorted(declared("per_layer")));
    let trace =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}-{SEED}.json"));
    let text = std::fs::read_to_string(trace).expect("the traced run wrote a Chrome trace");
    let parsed: Value = serde_json::from_str(&text).expect("the Chrome trace parses");
    let events = parsed.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(!events.is_empty());
}

#[test]
fn offline_smoke() {
    smoke("offline");
}

#[test]
fn govern_smoke() {
    smoke("govern");
}

#[test]
fn serve_smoke() {
    smoke("serve");
}
