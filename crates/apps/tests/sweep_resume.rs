//! `cni-run --sweep --resume-dir`: an interrupted sweep picks up where it
//! stopped. A job whose report was persisted is skipped unless the report
//! is of another schema version, a job that left checkpoints resumes from
//! its newest one, and a checkpoint that is unreadable or was taken under
//! another configuration is rerun from scratch. Whatever the path, the
//! job's report is the uninterrupted run's, byte for byte.

use cni::Config;
use cni_apps::checkpoint::run_app_checkpointed;
use cni_apps::experiments::{run_app, App};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_cni-run");

const SPEC: &str = r#"[{"label": "j", "app": "jacobi", "n": 16, "iters": 3}]"#;
const APP: App = App::Jacobi { n: 16, iters: 3 };

/// A fresh directory holding `spec.json`.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cni-sweep-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec writes");
    dir
}

/// The configuration the sweep runs its one job under.
fn job_config() -> Config {
    let specs = cni_apps::sweep::parse_sweep(SPEC).expect("spec parses");
    specs[0].effective_config()
}

/// The uninterrupted run's report, as the sweep persists it.
fn golden() -> String {
    serde_json::to_string(&run_app(job_config(), APP)).expect("report serializes")
}

/// Where the sweep keeps the job's checkpoints and its finished report.
fn ck_dir(dir: &Path) -> PathBuf {
    dir.join("rd").join("0000-j.ck")
}

fn report_path(dir: &Path) -> PathBuf {
    dir.join("rd").join("0000-j.report.json")
}

/// `cni-run --sweep dir/spec.json --jobs 1 --resume-dir dir/rd`, plus
/// `extra`.
fn sweep(dir: &Path, extra: &[&str]) -> Output {
    Command::new(EXE)
        .arg("--sweep")
        .arg(dir.join("spec.json"))
        .args(["--jobs", "1", "--resume-dir"])
        .arg(dir.join("rd"))
        .args(extra)
        .output()
        .expect("cni-run runs")
}

/// Run the sweep with checkpoints every 80 events over the checkpoints a
/// killed sweep left in the job's directory, written under `cfg`. Returns
/// the sweep's stderr and the newest checkpoint's file name; the persisted
/// report must be the golden one.
fn resume_over_checkpoints(name: &str, cfg: Config) -> (String, String) {
    let dir = tmp_dir(name);
    let run = run_app_checkpointed(cfg, APP, 80, &ck_dir(&dir)).expect("checkpointed run");
    let newest = run.snapshots.last().expect("the run checkpointed");
    let newest = newest.file_name().unwrap().to_string_lossy().into_owned();
    let out = sweep(&dir, &["--checkpoint-every", "80"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    let report = std::fs::read_to_string(report_path(&dir)).expect("report persisted");
    assert!(report == golden(), "{name}: the job's report diverged");
    let _ = std::fs::remove_dir_all(&dir);
    (stderr, newest)
}

#[test]
fn a_rerun_skips_completed_jobs() {
    let dir = tmp_dir("skip");
    let out = sweep(&dir, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(report_path(&dir)).expect("report persisted");
    assert!(report == golden(), "the persisted report diverged");

    let out = sweep(&dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("[resume] j: already complete, skipping"),
        "{stderr}"
    );
    let again = std::fs::read_to_string(report_path(&dir)).expect("report kept");
    assert!(again == report, "a skipped job rewrote its report");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persisted report of another schema version is not this build's
/// result: the job reruns, whether the version is newer than this build
/// parses or older and migratable.
#[test]
fn a_report_of_another_version_is_rerun() {
    for (name, version, says) in [
        ("v99", 99u64, "newer than this build understands"),
        ("v5", 5, "is a version 5 report, rerunning"),
    ] {
        let dir = tmp_dir(name);
        let out = sweep(&dir, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut report: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(report_path(&dir)).unwrap())
                .expect("persisted report is JSON");
        let fields = report.as_object_mut().expect("report is an object");
        fields.insert("version".into(), version.into());
        fields.insert("written_by".into(), "another build".into());
        std::fs::write(report_path(&dir), report.to_string()).expect("report rewrites");

        let out = sweep(&dir, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(!stderr.contains("already complete"), "{name}: {stderr}");
        assert!(stderr.contains(says), "{name}: {stderr}");
        let again = std::fs::read_to_string(report_path(&dir)).expect("report persisted");
        assert!(again == golden(), "{name}: the rerun job's report diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_interrupted_job_resumes_from_its_newest_checkpoint() {
    let (stderr, newest) = resume_over_checkpoints("newest", job_config());
    assert!(stderr.contains("[resume] j: resumed from"), "{stderr}");
    assert!(
        stderr.contains(&newest),
        "not resumed from {newest}: {stderr}"
    );
}

/// Older builds took `--engine-workers` and stored it in each checkpoint's
/// configuration. The field is ignored now, so such a checkpoint still
/// belongs to the job.
#[test]
fn a_checkpoint_that_stored_engine_workers_resumes() {
    let (stderr, _) = resume_over_checkpoints("workers", job_config().with_engine_workers(2));
    assert!(stderr.contains("[resume] j: resumed from"), "{stderr}");
}

#[test]
fn a_checkpoint_under_another_config_is_rerun() {
    let mut reseeded = job_config();
    reseeded.seed ^= 1;
    let (stderr, _) = resume_over_checkpoints("reseeded", reseeded);
    assert!(
        stderr.contains("[resume] j: checkpoint was taken under a different config, rerunning"),
        "{stderr}"
    );
}

#[test]
fn an_unreadable_checkpoint_is_rerun() {
    let dir = tmp_dir("garbage");
    std::fs::create_dir_all(ck_dir(&dir)).expect("checkpoint dir");
    std::fs::write(
        ck_dir(&dir).join("ck-000000000080.cnisnap"),
        b"not a checkpoint",
    )
    .expect("garbage writes");
    let out = sweep(&dir, &["--checkpoint-every", "80"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("[resume] j: checkpoint unreadable, rerunning from scratch"),
        "{stderr}"
    );
    let report = std::fs::read_to_string(report_path(&dir)).expect("report persisted");
    assert!(report == golden(), "the rerun job's report diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_checkpoints_need_a_resume_dir() {
    let dir = tmp_dir("no-resume-dir");
    let out = Command::new(EXE)
        .arg("--sweep")
        .arg(dir.join("spec.json"))
        .args(["--checkpoint-every", "80"])
        .output()
        .expect("cni-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("requires --resume-dir"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumable_sweep_refuses_a_trace_dir() {
    let dir = tmp_dir("trace-dir");
    let traces = dir.join("traces");
    let out = sweep(&dir, &["--trace-dir", traces.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("cannot be combined with --trace-dir"),
        "{stderr}"
    );
    assert!(!report_path(&dir).exists(), "a refused sweep ran its job");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persisted report is read back as data: one whose latency histogram
/// carries a forged `u64::MAX` sum is skipped like any complete job, and
/// merging it into the batch's per-kind histograms saturates instead of
/// aborting the sweep.
#[test]
fn a_forged_histogram_sum_saturates_the_merged_latency() {
    let dir = tmp_dir("forged-sum");
    std::fs::write(
        dir.join("spec.json"),
        r#"[{"label": "j", "app": "jacobi", "n": 16, "iters": 3},
            {"label": "k", "app": "jacobi", "n": 16, "iters": 3}]"#,
    )
    .expect("spec writes");
    let out = sweep(&dir, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(report_path(&dir)).unwrap())
            .expect("persisted report is JSON");
    let first = report
        .as_object_mut()
        .and_then(|r| r.get_mut("latency_hist"))
        .and_then(|h| h.as_array_mut())
        .and_then(|h| h.first_mut())
        .and_then(|h| h.as_object_mut())
        .expect("the report has a latency histogram");
    let kind = first
        .get("kind")
        .and_then(|k| k.as_u64())
        .expect("kind byte");
    let hist = first
        .get_mut("hist")
        .and_then(|h| h.as_object_mut())
        .expect("histogram object");
    hist.insert("sum".into(), u64::MAX.into());
    std::fs::write(report_path(&dir), report.to_string()).expect("report rewrites");

    let batch = dir.join("batch.json");
    let out = sweep(&dir, &["--out", batch.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        stderr.matches("already complete, skipping").count(),
        2,
        "{stderr}"
    );
    let batch: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&batch).unwrap()).expect("batch JSON");
    let merged = batch["merged_latency"]
        .as_array()
        .expect("merged histograms")
        .iter()
        .find(|m| m["kind"].as_u64() == Some(kind))
        .expect("the forged kind is merged");
    assert_eq!(merged["hist"]["sum"].as_u64(), Some(u64::MAX));
    let _ = std::fs::remove_dir_all(&dir);
}
