//! `BENCHMARK.json` and the benchmark agree: it lists exactly the
//! workloads and metrics the bench defines, and a `--quick` run and trace
//! emit every one of them with no failed run.

use cni_bench_e2e::metrics::{END_TO_END, PER_LAYER};
use cni_bench_e2e::workload::ALL;
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, Option<String>)> {
    v[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|e| {
            (
                e["name"].as_str().expect("name").to_string(),
                e.get("unit").and_then(Value::as_str).map(String::from),
            )
        })
        .collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let b = benchmark_json();
    let workloads: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(names(&b, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(names(&b, "per_layer"), catalogue(PER_LAYER));
}

/// Run `cni-bench MODE --quick` and return its artifact.
fn quick(mode: &str) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{mode}-quick.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_cni-bench"))
        .args([mode, "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("cni-bench runs");
    assert!(status.success(), "cni-bench {mode} --quick failed");
    serde_json::from_str(&std::fs::read_to_string(&out).expect("artifact written"))
        .expect("artifact parses")
}

fn assert_emits(artifact: &Value, metrics: &[(String, Option<String>)]) {
    let b = benchmark_json();
    for (w, _) in names(&b, "workloads") {
        let got = &artifact["workloads"][w.as_str()];
        assert_eq!(got["failed"].as_u64(), Some(0), "{w}: {}", got["failures"]);
        for (m, unit) in metrics {
            let e = &got["metrics"][m.as_str()];
            assert!(e["value"].as_f64().is_some(), "{w} did not emit {m}");
            assert_eq!(e["unit"].as_str(), unit.as_deref(), "{w}: unit of {m}");
        }
    }
}

#[test]
fn quick_run_emits_every_end_to_end_metric() {
    assert_emits(&quick("run"), &names(&benchmark_json(), "end_to_end"));
}

#[test]
fn quick_trace_emits_every_per_layer_metric() {
    assert_emits(&quick("trace"), &names(&benchmark_json(), "per_layer"));
}
