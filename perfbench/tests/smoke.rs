//! Smoke tests of the benchmark binary at the tiny input size: every
//! workload verifies and emits every metric `BENCHMARK.json` declares,
//! with its unit, and a deliberately wrong output is reported as failed.

use gepeto_telemetry::json::Json;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny", "--setup-reps", "1"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e:?}): {last}"))
}

fn emitted(result: &Json) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has a finite value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect();
    metrics.sort();
    metrics
}

fn assert_clean_run(workload: &str, trace: bool, section: &str) {
    let out = run(workload, trace, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let r = result(&out);
    assert_eq!(
        r.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}:\n{stderr}"
    );
    assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
    assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let mut want = declared(section);
    want.sort();
    assert_eq!(
        emitted(&r),
        want,
        "{workload} trace={trace}: metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_verifies_and_emits_every_end_to_end_metric() {
    for w in workloads() {
        assert_clean_run(&w, false, "end_to_end");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_when_traced() {
    for w in workloads() {
        assert_clean_run(&w, true, "per_layer");
    }
}

#[test]
fn a_wrong_output_is_reported_as_failed() {
    for w in workloads() {
        let out = run(&w, false, &["--wrong-output"]);
        assert!(
            !out.status.success(),
            "{w}: a failed verification must exit non-zero"
        );
        let r = result(&out);
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "{w}");
        assert_eq!(r.get("attempted").and_then(Json::as_u64), Some(1), "{w}");
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(1), "{w}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let out = run("nosuch", false, &[]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
}
