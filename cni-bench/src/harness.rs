//! The orchestrating side: spawn the measuring child for a workload,
//! pinned to one CPU, turn its samples into named metrics, and render
//! them.
//!
//! Every workload runs pinned. On a shared host an unpinned run picks up
//! whatever the other CPUs are doing: the 2-worker fat-tree drifted by up
//! to 19% between sets of runs unpinned and by about 7% pinned (see
//! BENCHMARK.md). Its two executor workers then share one CPU, so the
//! executor's windows, barriers and replay cost show, but not a parallel
//! speed-up (which a 2-CPU host cannot show either); the cross-core
//! handoff cost is measured on its own by the co-thread probe.

use crate::hostspeed;
use crate::metrics::{self, END_TO_END, HOST_S, PER_LAYER};
use crate::spans::{span_from_value, Spans};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::Command;

/// Fewest timed cycles (one run of every seed variant each) behind any
/// end-to-end median.
pub const MIN_CYCLES: usize = 3;
/// Fewest untraced runs behind the trace mode's base `run_s`.
pub const MIN_TRACE_CYCLES: usize = 3;

/// One reported metric with the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The reported value: the median of `samples`.
    pub value: f64,
    /// Every measured sample (one for single-shot metrics).
    pub samples: Vec<f64>,
}

/// What one workload run of the benchmark produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Whether the measuring child ran pinned to one CPU.
    pub pinned: bool,
    /// Simulation runs and replay checks attempted.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Host-speed reference kernel times behind the scaled host times,
    /// one per cycle (end-to-end runs only).
    pub reference_s: Vec<f64>,
    /// Host-time spans of the bench itself (traced runs only).
    pub spans: Option<Spans>,
}

/// The CPU the measuring children are pinned to: the last one this process
/// may run on (`Cpus_allowed_list` in `/proc/self/status`).
fn last_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|s| s.trim().parse().ok())
}

/// Run this executable with `args`, pinned to one CPU when `pin` and
/// `taskset` is available, and return the JSON object on the child's
/// last stdout line and whether it ran pinned.
fn spawn(args: &[String], pin: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let pinned_cmd = pin.then(last_cpu).flatten().map(|cpu| {
        let mut c = Command::new("taskset");
        c.arg("-c").arg(cpu.to_string()).arg(&exe).args(args);
        c
    });
    let (output, pinned) = match pinned_cmd.map(|mut c| c.output()) {
        Some(Ok(o)) => (o, true),
        // No `taskset`: fall back to an unpinned child and say so.
        Some(Err(_)) | None => (
            Command::new(&exe)
                .args(args)
                .output()
                .map_err(|e| format!("cannot spawn child: {e}"))?,
            false,
        ),
    };
    if !output.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = serde_json::from_str::<Value>(last)
        .map_err(|e| format!("child printed no result ({e}): {last:?}"))?;
    Ok((v, pinned))
}

fn child_args(mode: &str, w: Workload, seed: u64, seconds: f64, min_cycles: usize) -> Vec<String> {
    [
        "child",
        "--mode",
        mode,
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--min-cycles",
        &min_cycles.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

fn floats(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn tally(v: &Value) -> (u64, u64, Vec<String>) {
    let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let mut failures: Vec<String> = v
        .get("failures")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    if let Some(e) = v.get("error").and_then(Value::as_str) {
        failures.push(e.to_string());
    }
    (n("attempted"), n("failed"), failures)
}

fn metric(name: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit: metrics::unit(name).expect("catalogued metric"),
        value: median(&samples),
        samples,
    }
}

/// Measure `w`'s end-to-end metrics for `seconds` of timed repetitions.
pub fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_cycles: usize,
) -> Result<Outcome, String> {
    let (v, pinned) = spawn(&child_args("e2e", w, seed, seconds, min_cycles), true)?;
    let (attempted, mut failed, mut failures) = tally(&v);
    let mut metrics = Vec::new();
    for &(name, _) in END_TO_END {
        let samples = match name {
            "run_s" | "setup_s" => floats(v.get(name)),
            _ => v.get(name).and_then(Value::as_f64).into_iter().collect(),
        };
        if samples.is_empty() {
            failed += 1;
            failures.push(format!("no {name} measured"));
            continue;
        }
        metrics.push(metric(name, samples));
    }
    Ok(Outcome {
        workload: w,
        pinned,
        attempted,
        failed,
        failures,
        metrics,
        reference_s: floats(v.get("reference_s")),
        spans: None,
    })
}

/// Measure `w`'s per-layer metrics: the traced child, plus the co-thread
/// handoff probe pinned to one CPU and free to use all of them.
pub fn per_layer(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_cycles: usize,
) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let root = spans.enter(w.name(), 0);
    let child = spans.enter("child", root);
    let (v, pinned) = spawn(&child_args("trace", w, seed, seconds, min_cycles), true)?;
    spans.exit(child);
    let child_spans: Vec<_> = v
        .get("spans")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(span_from_value).collect())
        .unwrap_or_default();
    spans.graft(&child_spans, child);
    let (attempted, mut failed, mut failures) = tally(&v);

    let probe = ["cothread-probe".to_string()];
    let id = spans.enter("probe.cothread_1cpu", root);
    let one = spawn(&probe, true).map(|(v, _)| v.get("ns").and_then(Value::as_f64));
    spans.exit(id);
    let id = spans.enter("probe.cothread_ncpu", root);
    let many = spawn(&probe, false).map(|(v, _)| v.get("ns").and_then(Value::as_f64));
    spans.exit(id);
    spans.exit(root);

    let mut m = v
        .get("metrics")
        .and_then(Value::as_object)
        .cloned()
        .unwrap_or_default();
    let mut put = |name: &str, x: f64| {
        m.insert(name.into(), x.into());
    };
    match (one, many) {
        (Ok(Some(one)), Ok(Some(many))) => {
            put("sim.cothread.roundtrip_ns_1cpu", one);
            put("sim.cothread.roundtrip_ns_ncpu", many);
            let switches = v
                .get("metrics")
                .and_then(|m| m.get("sim.cothread.switches"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            // The handoff costs what the workload's CPU placement makes it
            // cost: same-CPU when pinned, cross-core otherwise.
            let rt = if pinned { one } else { many };
            put("sim.cothread.host_s", switches * rt / 1e9);
        }
        (a, b) => {
            failed += 1;
            failures.push(format!("co-thread probe failed: {a:?} / {b:?}"));
        }
    }
    if let Some(run_s) = v.get("run_s").and_then(Value::as_f64) {
        let attributed: Option<f64> = HOST_S
            .iter()
            .map(|k| m.get(k).and_then(Value::as_f64))
            .sum();
        if let Some(a) = attributed {
            m.insert("core.unattributed_s".into(), (run_s - a).into());
        }
    }
    let mut metrics = Vec::new();
    for &(name, _) in PER_LAYER {
        match m.get(name).and_then(Value::as_f64) {
            Some(x) => metrics.push(metric(name, vec![x])),
            None => {
                failed += 1;
                failures.push(format!("no {name} measured"));
            }
        }
    }
    Ok(Outcome {
        workload: w,
        pinned,
        attempted,
        failed,
        failures,
        metrics,
        reference_s: Vec::new(),
        spans: Some(spans),
    })
}

impl Outcome {
    /// The result line: correctness, counts, and each metric's
    /// value and unit.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut o = Map::new();
            o.insert("value".into(), m.value.into());
            o.insert("unit".into(), m.unit.into());
            metrics.insert(m.name.into(), Value::Object(o));
        }
        let mut top = Map::new();
        top.insert("correct".into(), (self.failed == 0).into());
        top.insert("attempted".into(), self.attempted.max(1).into());
        top.insert("failed".into(), self.failed.into());
        top.insert("metrics".into(), Value::Object(metrics));
        Value::Object(top).to_string()
    }

    /// Human-readable rows: one per metric with its quartiles and sample
    /// count, then any failures and the bench's own span self times.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== {} ({}, {} attempted, {} failed, host_cores {})\n",
            self.workload.name(),
            if self.pinned {
                "pinned to one CPU"
            } else {
                "unpinned"
            },
            self.attempted,
            self.failed,
            host_cores(),
        );
        s.push_str(&format!(
            "{:<32} {:>16} {:<6} {:>14} {:>14} {:>4}\n",
            "metric", "value", "unit", "q1", "q3", "n"
        ));
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.samples);
            s.push_str(&format!(
                "{:<32} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>4}\n",
                m.name,
                m.value,
                m.unit,
                q1,
                q3,
                m.samples.len()
            ));
        }
        if !self.reference_s.is_empty() {
            s.push_str(&format!(
                "host times scaled to nominal speed: reference kernel {:.3} ms (nominal {:.3} ms, n {})\n",
                median(&self.reference_s) * 1e3,
                hostspeed::NOMINAL_S * 1e3,
                self.reference_s.len()
            ));
        }
        for f in &self.failures {
            s.push_str(&format!("FAILED: {f}\n"));
        }
        if let Some(spans) = &self.spans {
            s.push_str(&format!(
                "{:<32} {:>6} {:>12}\n",
                "bench span", "count", "self_s"
            ));
            for (name, (n, t)) in spans.self_times() {
                s.push_str(&format!("{name:<32} {n:>6} {t:>12.6}\n"));
            }
        }
        s
    }

    /// The metrics with their samples and quartiles, as stored in a
    /// `run`/`trace` artifact.
    pub fn to_value(&self) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.samples);
            let mut o = Map::new();
            o.insert("value".into(), m.value.into());
            o.insert("unit".into(), m.unit.into());
            o.insert("q1".into(), q1.into());
            o.insert("q3".into(), q3.into());
            o.insert("n".into(), (m.samples.len() as u64).into());
            o.insert(
                "samples".into(),
                Value::Array(m.samples.iter().map(|&x| x.into()).collect()),
            );
            metrics.insert(m.name.into(), Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("pinned".into(), self.pinned.into());
        o.insert("attempted".into(), self.attempted.into());
        o.insert("failed".into(), self.failed.into());
        o.insert(
            "failures".into(),
            Value::Array(self.failures.iter().map(|f| f.as_str().into()).collect()),
        );
        o.insert("metrics".into(), Value::Object(metrics));
        o.insert(
            "reference_s".into(),
            Value::Array(self.reference_s.iter().map(|&x| x.into()).collect()),
        );
        Value::Object(o)
    }
}

/// CPUs this process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the bench writes artifacts and span traces: `cni-bench/` under
/// `$CARGO_TARGET_DIR` (or `target`), relative to the working directory.
pub fn out_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("cni-bench")
}
