//! Tiny-scale self-check: every workload `BENCHMARK.json` names runs
//! untraced and traced through the benchmark's own binary, answers
//! correctly, and prints exactly the metrics `BENCHMARK.json` lists, each
//! with its unit.

use std::process::Command;
use strato_servebench::workload::Workload;
use strato_server::json::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark at tiny scale and returns its last stdout line.
fn run_tiny(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_strato-servebench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let spec = spec();
    let workloads = spec.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = Json::parse(&run_tiny(name, trace)).expect("the result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_i64), Some(0));
            assert!(line.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
            let metrics = match line.get("metrics") {
                Some(Json::Obj(m)) => m,
                other => panic!("metrics is not an object: {other:?}"),
            };
            let expected = listed(&spec, list);
            assert_eq!(metrics.len(), expected.len(), "{name} {list}");
            for (metric, unit) in expected {
                let m = line.get("metrics").and_then(|ms| ms.get(&metric));
                let m = m.unwrap_or_else(|| panic!("{name} {list}: {metric} not printed"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{name}: {metric} = {v:?}");
            }
        }
    }
}
