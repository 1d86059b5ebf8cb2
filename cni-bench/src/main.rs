//! `cni-bench` command line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path cni-bench/Cargo.toml -- <args>
//!
//!   --workload NAME --seed N --seconds S --trace 0|1
//!                 one workload; the last stdout line is the JSON result
//!   run   [--seed N] [--seconds S] [--quick] [--out FILE]
//!                 end-to-end metrics of every workload, plus an artifact
//!   trace [--seed N] [--seconds S] [--quick] [--out FILE]
//!                 per-layer metrics of every workload, plus span traces
//!   compare BASE.json HEAD.json
//!                 judge two `run` artifacts against BENCHMARK.json bounds
//!   bless         rewrite expected/*.digest from default-seed runs
//! ```

use cni_bench_e2e::compare;
use cni_bench_e2e::harness::{self, Outcome, MIN_CYCLES, MIN_TRACE_CYCLES};
use cni_bench_e2e::workload::{self, Workload, DEFAULT_SEED};
use cni_bench_e2e::{child, probes};
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  cni-bench --workload NAME --seed N --seconds S --trace 0|1
  cni-bench run   [--seed N] [--seconds S] [--quick] [--out FILE]
  cni-bench trace [--seed N] [--seconds S] [--quick] [--out FILE]
  cni-bench compare BASE.json HEAD.json
  cni-bench bless
workloads: jacobi8-cni water8-lossy cholesky8-std fattree256-pdes";

/// Seconds of timed repetitions per workload unless `--seconds` says
/// otherwise.
const DEFAULT_SECONDS: f64 = 10.0;

/// Parsed `--flag value` options and bare words.
#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    mode: Option<String>,
    min_cycles: Option<usize>,
    out: Option<PathBuf>,
    quick: bool,
    words: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--mode" => a.mode = Some(value()?.clone()),
            "--min-cycles" => {
                a.min_cycles = Some(value()?.parse().map_err(|e| format!("--min-cycles: {e}"))?)
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            s => a.words.push(s.to_string()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let result = match args.words.first().map(String::as_str) {
        None => single(&args),
        Some("run") => all(&args, false),
        Some("trace") => all(&args, true),
        Some("compare") => compare_cmd(&args),
        Some("bless") => bless(),
        Some("child") => child_cmd(&args),
        Some("cothread-probe") => {
            let mut m = Map::new();
            m.insert("ns".into(), probes::cothread_roundtrip_ns().into());
            println!("{}", Value::Object(m));
            Ok(ExitCode::SUCCESS)
        }
        Some(w) => Err(format!("unknown command {w:?}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("cni-bench: {e}");
        ExitCode::FAILURE
    })
}

fn usage(err: &str) -> ExitCode {
    eprintln!("cni-bench: {err}\n{USAGE}");
    ExitCode::from(2)
}

/// One workload; its result JSON is the last line printed.
fn single(a: &Args) -> Result<ExitCode, String> {
    let (Some(w), Some(seed), Some(seconds), Some(trace)) =
        (a.workload, a.seed, a.seconds, a.trace)
    else {
        return Ok(usage(
            "--workload, --seed, --seconds and --trace are all required",
        ));
    };
    let o = measure(w, seed, seconds, trace, false)?;
    print!("{}", o.render());
    if let Some(spans) = &o.spans {
        let path = harness::out_dir().join(format!("spans-{}-{seed}.jsonl", w.name()));
        write(&path, &spans.to_jsonl(w.name()))?;
        println!("spans: {}", path.display());
    }
    println!("{}", o.result_line());
    Ok(ExitCode::SUCCESS)
}

fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Outcome, String> {
    match (trace, quick) {
        (false, false) => harness::end_to_end(w, seed, seconds, MIN_CYCLES),
        (false, true) => harness::end_to_end(w, seed, 0.0, 1),
        (true, false) => harness::per_layer(w, seed, seconds, MIN_TRACE_CYCLES),
        (true, true) => harness::per_layer(w, seed, 0.0, 1),
    }
}

/// `run` / `trace`: every workload, an artifact with all samples.
fn all(a: &Args, trace: bool) -> Result<ExitCode, String> {
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut workloads = Map::new();
    let mut failed = 0;
    for w in workload::ALL {
        let o = measure(w, seed, seconds, trace, a.quick)?;
        print!("{}", o.render());
        if let Some(spans) = &o.spans {
            let path = harness::out_dir().join(format!("spans-{}-{seed}.jsonl", w.name()));
            write(&path, &spans.to_jsonl(w.name()))?;
        }
        failed += o.failed;
        workloads.insert(w.name().into(), o.to_value());
    }
    let mode = if trace { "trace" } else { "run" };
    let mut art = Map::new();
    art.insert("mode".into(), mode.into());
    art.insert("seed".into(), seed.into());
    art.insert("seconds".into(), seconds.into());
    art.insert("quick".into(), a.quick.into());
    art.insert("host_cores".into(), (harness::host_cores() as u64).into());
    art.insert("workloads".into(), Value::Object(workloads));
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| harness::out_dir().join(format!("{mode}-{seed}.json")));
    let mut text = String::new();
    Value::Object(art).write_pretty(&mut text, 0);
    text.push('\n');
    write(&path, &text)?;
    println!("failed runs: {failed}\nwrote {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(a: &Args) -> Result<ExitCode, String> {
    let [_, base, head] = &a.words[..] else {
        return Ok(usage("compare takes two artifact files"));
    };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let json = |p: &str| -> Result<Value, String> {
        serde_json::from_str(&read(Path::new(p))?).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = compare::bounds(&read(Path::new("BENCHMARK.json"))?)?;
    let (table, worse) = compare::compare(&json(base)?, &json(head)?, &bounds);
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Rewrite the committed default-seed digests. Only for a change that is
/// meant to alter the simulated reports.
fn bless() -> Result<ExitCode, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for w in workload::ALL {
        let mut world = cni::World::new(w.config(DEFAULT_SEED));
        let (progs, _) = w.build(&mut world, false);
        let d = child::digest(&world.run(progs));
        write(&dir.join(format!("{}.digest", w.name())), &format!("{d}\n"))?;
        println!("{:<16} {d}", w.name());
    }
    Ok(ExitCode::SUCCESS)
}

fn child_cmd(a: &Args) -> Result<ExitCode, String> {
    let (Some(w), Some(seed), Some(seconds), Some(min_cycles)) =
        (a.workload, a.seed, a.seconds, a.min_cycles)
    else {
        return Ok(usage(
            "child needs --workload, --seed, --seconds and --min-cycles",
        ));
    };
    let v = match a.mode.as_deref() {
        Some("e2e") => child::e2e(w, seed, seconds, min_cycles),
        Some("trace") => child::trace(w, seed, seconds, min_cycles),
        m => return Ok(usage(&format!("unknown child mode {m:?}"))),
    };
    println!("{v}");
    Ok(ExitCode::SUCCESS)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
