//! Output self-test: runs every workload at a tiny size and parses the
//! command's output the way the benchmark pipeline does — the last line
//! of standard output must be one JSON object carrying exactly the
//! metrics `BENCHMARK.json` declares, by name and unit.

use hilos_e2ebench::run::{input_fingerprint, MIN_SPAN_COVERAGE};
use hilos_trace::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::{Command, Output};

/// Tiny input sizes, per workload, that still pass every check.
fn tiny(workload: &str) -> &'static str {
    match workload {
        "offline-longctx" => "15",
        "serve-prefix" => "400",
        "fleet-elastic" => "400",
        other => panic!("BENCHMARK.json names an unknown workload {other}"),
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(j: &Json) -> &str {
    j.as_str().expect("a string")
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric section of the manifest.
fn declared(section: &str) -> Vec<(String, String)> {
    field(&manifest(), section)
        .as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

fn workloads() -> Vec<String> {
    field(&manifest(), "workloads")
        .as_arr()
        .expect("a workload list")
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn e2ebench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2ebench")).args(args).output().expect("the binary runs")
}

/// Runs one workload tiny and returns its parsed metrics, checking the
/// output contract on the way.
fn run_tiny(workload: &str, seed: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let out = e2ebench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--items",
        tiny(workload),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "diagnostics must go to stderr, stdout was:\n{stdout}");
    let result = parse_json(lines[0]).expect("the result line parses");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&result, "correct"), &Json::Bool(true));
    let count = |key: &str| field(&result, key).as_f64().expect("a number");
    let (attempted, failed) = (count("attempted"), count("failed"));
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "attempted {attempted}");
    assert!(failed >= 0.0 && failed.fract() == 0.0, "failed {failed}");

    let section = if trace == "1" { "per_layer" } else { "end_to_end" };
    let expected = declared(section);
    let metrics = field(&result, "metrics");
    let printed = keys(metrics);
    let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, names, "{workload}: printed metrics differ from the {section} list");
    expected
        .iter()
        .map(|(name, unit)| {
            assert!(well_formed(name), "metric name {name:?}");
            let m = field(metrics, name);
            assert_eq!(keys(m), ["value", "unit"]);
            let value = field(m, "value").as_f64().expect("a numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert_eq!(text(field(m, "unit")), unit, "{workload}: unit of {name}");
            (name.clone(), (value, unit.clone()))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in workloads() {
        assert!(well_formed(&workload), "workload name {workload:?}");
        let e2e = run_tiny(&workload, "42", "0");
        for name in ["setup_s", "wall_s", "peak_rss_mb", "model_tok_s", "model_usd_per_mtok"] {
            assert!(e2e[name].0 > 0.0, "{workload}: {name} must never be zero");
        }
        let layers = run_tiny(&workload, "42", "1");
        let coverage = layers["trace.span_coverage"].0;
        assert!(coverage >= MIN_SPAN_COVERAGE, "{workload}: spans cover {coverage}");
        let runner = layers["runner.decode_calls"].0;
        let prefix = layers["storage.prefix_lookups"].0;
        let routed = layers["cluster.route_calls"].0;
        assert_eq!(runner > 0.0, workload == "offline-longctx", "{workload}: runner calls");
        assert_eq!(prefix > 0.0, workload == "serve-prefix", "{workload}: prefix lookups");
        assert_eq!(routed > 0.0, workload == "fleet-elastic", "{workload}: route calls");
    }
}

#[test]
fn same_seed_repeats_simulated_metrics_and_new_seed_draws_new_inputs() {
    for workload in workloads() {
        let modeled = |seed: &str| -> Vec<(String, u64)> {
            run_tiny(&workload, seed, "0")
                .into_iter()
                .filter(|(name, _)| name.starts_with("model_"))
                .map(|(name, (v, _))| (name, v.to_bits()))
                .collect()
        };
        assert_eq!(modeled("42"), modeled("42"), "{workload}: same seed, different metrics");
        let items: usize = tiny(&workload).parse().expect("a size");
        let inputs = |seed| input_fingerprint(&workload, seed, items).expect("known workload");
        assert_eq!(inputs(42), inputs(42), "{workload}: same seed, different inputs");
        assert_ne!(inputs(42), inputs(7919), "{workload}: new seed, same inputs");
    }
}

#[test]
fn bad_arguments_fail_without_printing_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve-prefix", "--seed", "x"],
        &["--workload", "serve-prefix", "--trace", "2"],
        &["--workload", "serve-prefix", "--seconds"],
        &["--workload", "serve-prefix", "--items", "0"],
        &[],
    ] {
        let out = e2ebench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn manifest_follows_the_benchmark_contract() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in field(&m, section).as_arr().expect("a metric list") {
            let name = text(field(metric, "name"));
            assert!(well_formed(name) && seen.insert(name.to_string()), "metric {name:?}");
            let better = text(field(metric, "better"));
            assert!(better == "higher" || better == "lower", "{name}: better = {better}");
            if section == "end_to_end" {
                let bound = field(metric, "bound").as_f64().expect("a bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
        }
    }
    let setup = declared("end_to_end").into_iter().find(|(n, _)| n == "setup_s");
    assert_eq!(setup, Some(("setup_s".to_string(), "s".to_string())));
    for w in field(&m, "workloads").as_arr().expect("a workload list") {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(text(field(w, "why")).len() <= 200);
    }
}
