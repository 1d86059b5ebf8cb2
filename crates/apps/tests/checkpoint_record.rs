//! The checkpoint file as input from outside: a damaged file, a stored
//! configuration no cluster can be built from, or a resume under another
//! configuration is refused with an error, never a panic. A checkpoint an
//! older build wrote with `--engine-workers` still resumes.

use cni::{Config, FaultPlan, RunReport};
use cni_apps::checkpoint::{read_snapshot, run_app_checkpointed};
use cni_apps::experiments::App;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const APP: App = App::Jacobi { n: 16, iters: 3 };

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cni-ck-record-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn json(r: &RunReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// The bytes of a Jacobi-8 checkpoint file taken at event 160, and the
/// run's report, made once.
fn checkpoint() -> &'static (Vec<u8>, String) {
    static CK: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    CK.get_or_init(|| {
        let dir = tmp_dir("source");
        let cfg = Config::paper_default().with_procs(8);
        let run = run_app_checkpointed(cfg, APP, 80, &dir).expect("checkpointed run");
        let bytes = std::fs::read(&run.snapshots[1]).expect("checkpoint reads");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, json(&run.report))
    })
}

/// `bytes` written to `dir/name`.
fn write(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("checkpoint copy writes");
    path
}

/// Rewrite the stored configuration of `src` through `edit` into a new,
/// validly sealed file `dst`.
fn with_stored_config(src: &Path, dst: &Path, edit: impl Fn(&mut Config)) {
    let mut payload = cni_snap::read_value(src).expect("checkpoint reads");
    let meta = match &mut payload {
        Value::Object(m) => m.get_mut("meta"),
        _ => None,
    };
    let Some(Value::Object(meta)) = meta else {
        panic!("payload has a meta object");
    };
    let mut cfg: Config =
        serde::Deserialize::from_value(meta.get("config").expect("meta has a config"))
            .expect("stored config parses");
    edit(&mut cfg);
    meta.insert("config".into(), cfg.to_value());
    cni_snap::write_value(dst, &payload).expect("rewritten checkpoint writes");
}

/// Stored configurations that `World::new` would panic on, or abort on,
/// are refused when the file is read: a probability out of range, no
/// processors, more processors than the fabric has hosts, a zero page
/// size (which divides by zero sizing the Message Cache), a Message Cache
/// too large to allocate, and cache lines `NodeSpace::new` refuses.
#[test]
fn invalid_stored_configs_are_refused_when_read() {
    let dir = tmp_dir("configs");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    type Edit = fn(&mut Config);
    let cases: [(&str, &str, Edit); 7] = [
        ("drop", "drop_prob", |c| c.faults.drop_prob = 1.5),
        ("procs0", "procs", |c| c.procs = 0),
        ("procs9999", "procs", |c| c.procs = 9999),
        ("page0", "page_bytes", |c| c.page_bytes = 0),
        ("cache1e18", "msg_cache_bytes", |c| {
            c.nic.msg_cache_bytes = 1_000_000_000_000_000_000
        }),
        ("line24", "cache_line_bytes", |c| {
            c.nic.cache_line_bytes = 24
        }),
        ("line4096", "cache_line_bytes", |c| {
            c.nic.cache_line_bytes = 4096
        }),
    ];
    for (name, needle, edit) in cases {
        let path = dir.join(format!("{name}.cnisnap"));
        with_stored_config(&src, &path, edit);
        let err = read_snapshot(&path).expect_err(name);
        assert!(err.starts_with("error:"), "not a diagnostic: {err}");
        assert!(err.contains(needle), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume may change the fault plan (a fork) and the engine worker
/// count, nothing else.
#[test]
fn resume_with_refuses_any_other_config_change() {
    let (bytes, golden) = checkpoint();
    let dir = tmp_dir("resume-with");
    let snap = read_snapshot(&write(&dir, "ck.cnisnap", bytes)).expect("checkpoint reads");
    let mut reseeded = snap.config;
    reseeded.seed ^= 1;
    let mut costlier = snap.config;
    costlier.costs.per_word_cycles += 1;
    for cfg in [
        reseeded,
        costlier,
        snap.config.with_msg_cache_bytes(64 * 1024),
        snap.config.standard(),
    ] {
        let err = snap.resume_with(cfg).expect_err("a changed config resumes");
        assert!(err.contains("differs from the snapshot's"), "{err}");
    }
    let mut bad_plan = FaultPlan::none();
    bad_plan.drop_prob = 1.5;
    let err = snap
        .resume_with(snap.config.with_faults(bad_plan))
        .expect_err("an invalid fork plan resumes");
    assert!(err.contains("drop_prob"), "{err}");
    let parallel = snap
        .resume_with(snap.config.with_engine_workers(2))
        .expect("engine workers may change");
    assert_eq!(&json(&parallel), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Older builds stored the `--engine-workers` count in each checkpoint's
/// configuration. Such a checkpoint resumes to the uninterrupted run's
/// report, in the library and through `cni-run --resume`.
#[test]
fn a_checkpoint_that_stored_engine_workers_resumes() {
    let (bytes, golden) = checkpoint();
    let dir = tmp_dir("stored-workers");
    let plain = write(&dir, "plain.cnisnap", bytes);
    let stored = dir.join("workers.cnisnap");
    with_stored_config(&plain, &stored, |cfg| cfg.engine_workers = 2);
    let snap = read_snapshot(&stored).expect("checkpoint reads");
    assert_eq!(snap.config.engine_workers, 2);
    let resumed = snap.resume().expect("the checkpoint resumes");
    assert_eq!(&json(&resumed), golden);

    let resume = |path: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_cni-run"))
            .arg("--resume")
            .arg(path)
            .arg("--json")
            .output()
            .expect("cni-run runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert!(
        resume(&stored) == resume(&plain),
        "cni-run --resume diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any one damaged byte of a sealed checkpoint file is refused by
    /// `read_snapshot` or `resume` with a diagnostic; if a damaged file
    /// ever got through, its resume would still have to match the
    /// uninterrupted run.
    fn a_damaged_checkpoint_errors_or_resumes_to_the_golden_report(
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let (bytes, golden) = checkpoint();
        let mut bytes = bytes.clone();
        let i = at % bytes.len();
        bytes[i] ^= flip;
        let dir = tmp_dir(&format!("damaged-{i}-{flip}"));
        let path = write(&dir, "ck.cnisnap", &bytes);
        match read_snapshot(&path).and_then(|s| s.resume()) {
            Err(e) => prop_assert!(e.starts_with("error:"), "not a diagnostic: {e}"),
            Ok(report) => prop_assert_eq!(&json(&report), golden),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The record is small whatever its event index: the `{app, config}`
/// metadata dominates, the engine's part is a few hundred bytes.
#[test]
fn every_checkpoint_file_is_at_most_4_kb() {
    let dir = tmp_dir("sizes");
    let cfg = Config::paper_default().with_procs(8);
    let run = run_app_checkpointed(cfg, APP, 40, &dir).expect("checkpointed run");
    assert!(run.snapshots.len() >= 10, "workload too small");
    for path in &run.snapshots {
        let len = std::fs::metadata(path).expect("checkpoint exists").len();
        assert!(len <= 4096, "{} is {len} bytes", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
