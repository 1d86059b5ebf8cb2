//! `cni-run --fork-at` pinned byte for byte: three what-if children of a
//! Jacobi-8 checkpoint, each compared against a checked-in `--json`
//! report in `tests/golden/`.
//!
//! * a lossless parent forked into 2% cell loss;
//! * the same checkpoint forked into a brownout of link 1 from 40 to
//!   1000 virtual microseconds;
//! * a 2%-loss parent forked into 5% loss, which carries the parent's
//!   fault-injector stream across the checkpoint.
//!
//! The prefix up to the checkpoint is the parent's; only the tail runs
//! under the child's fault plan.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_cni-run");
const JACOBI8: [&str; 8] = [
    "--app", "jacobi", "--n", "16", "--iters", "3", "--procs", "8",
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cni-fork-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checkpoint Jacobi-8 every 80 events under `faults` into `dir` and
/// return the event-80 checkpoint.
fn checkpoint(dir: &Path, faults: &[&str]) -> PathBuf {
    let out = Command::new(EXE)
        .args(JACOBI8)
        .args(faults)
        .args(["--json", "--checkpoint-every", "80", "--checkpoint-dir"])
        .arg(dir)
        .output()
        .expect("checkpointed run");
    assert!(
        out.status.success(),
        "checkpointed run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ck = dir.join("ck-000000000080.cnisnap");
    assert!(ck.exists(), "no event-80 checkpoint in {}", dir.display());
    ck
}

/// Fork `ck` under `faults` and compare the `--json` report with
/// `tests/golden/<golden>.json`.
fn fork_matches(ck: &Path, faults: &[&str], golden: &str) {
    let out = Command::new(EXE)
        .arg("--fork-at")
        .arg(ck)
        .args(faults)
        .arg("--json")
        .output()
        .expect("forked run");
    assert!(
        out.status.success(),
        "fork failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{golden}.json"));
    let want = std::fs::read_to_string(&path).expect("golden fixture exists");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "fork {faults:?} diverged from {}",
        path.display()
    );
}

#[test]
fn forks_of_jacobi8_match_their_goldens() {
    let dir = tmp_dir("goldens");
    let lossless = checkpoint(&dir.join("lossless"), &[]);
    fork_matches(
        &lossless,
        &["--loss-prob", "0.02"],
        "fork_lossless_to_loss2",
    );
    fork_matches(
        &lossless,
        &["--brownout", "1:40:1000"],
        "fork_lossless_to_brownout",
    );
    let lossy = checkpoint(&dir.join("lossy"), &["--loss-prob", "0.02"]);
    fork_matches(&lossy, &["--loss-prob", "0.05"], "fork_loss2_to_loss5");
    let _ = std::fs::remove_dir_all(&dir);
}
